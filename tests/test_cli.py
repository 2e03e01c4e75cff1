"""End-to-end command-line workflow in temporary directories."""

import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile
import warnings
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pournet
import pournet.cli
import pournet.dtw
from pournet.cli import run
from pournet.data import HEADS, load_dataset
from pournet.dtw import export_alignment
from pournet.network import load_checkpoint, save_checkpoint
from pournet.training import predict


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.jsonl"
    code = run(["synth", "--n", "30", "--seed", "4", "--noise", "0.01",
                "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, data_file):
    base = tmp_path_factory.mktemp("model")
    model = base / "model.npz"
    losses = base / "losses.csv"
    code = run(["train", "--data", str(data_file), "--cell", "gru",
                "--head", "tanh", "--epochs", "2", "--batch-size", "8",
                "--seed", "3", "--out-model", str(model),
                "--out-losses", str(losses)])
    assert code == 0
    return model


class TestSynth:
    def test_writes_requested_count(self, data_file):
        assert len(load_dataset(data_file)) == 30

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        flags = ["--n", "12", "--seed", "9", "--noise", "0.02"]
        assert run(["synth", *flags, "--out", str(a)]) == 0
        assert run(["synth", *flags, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_refused(self, noise, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        assert run(["synth", "--noise", noise, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: argument --noise: must be "
                                           f"finite, got {noise}\n")
        assert not out.exists()

    @pytest.mark.parametrize("cdll", [
        pytest.param(mock.Mock(side_effect=OSError("no libc")), id="OSError"),
        pytest.param(mock.Mock(return_value=object()), id="no mallopt")])
    def test_runs_without_mallopt(self, cdll, tmp_path, monkeypatch):
        """Where the C library cannot be opened or has no mallopt, the
        allocator stays as it is and the command runs unchanged."""
        flags = ["synth", "--n", "12", "--seed", "9"]
        assert run([*flags, "--out", str(tmp_path / "plain.jsonl")]) == 0
        monkeypatch.setattr(pournet.cli.ctypes, "CDLL", cdll)
        assert run([*flags, "--out", str(tmp_path / "patched.jsonl")]) == 0
        cdll.assert_called_once_with(None)
        assert ((tmp_path / "patched.jsonl").read_bytes()
                == (tmp_path / "plain.jsonl").read_bytes())


class TestTrain:
    def test_loss_file_rows_match_epochs(self, data_file, tmp_path):
        model = tmp_path / "m.npz"
        losses = tmp_path / "l.csv"
        code = run(["train", "--data", str(data_file), "--cell", "lstm",
                    "--head", "sigmoid", "--epochs", "1", "--batch-size", "8",
                    "--seed", "0", "--out-model", str(model),
                    "--out-losses", str(losses)])
        assert code == 0
        lines = losses.read_text().splitlines()
        assert len(lines) == 2  # header + one epoch

    def test_checkpoint_loads(self, model_file):
        params, config, norm = load_checkpoint(model_file)
        assert config.output_activation == "tanh"
        assert norm.mode == "tanh"

    def test_all_variants(self, data_file, tmp_path):
        code = run(["train", "--data", str(data_file), "--all-variants",
                    "--epochs", "1", "--batch-size", "16", "--seed", "1",
                    "--out-model", str(tmp_path / "model"),
                    "--out-losses", str(tmp_path / "losses")])
        assert code == 0
        written = sorted(p.name for p in tmp_path.glob("model_*.npz"))
        assert len(written) == 6
        assert "model_gru_tanh.npz" in written
        assert len(list(tmp_path.glob("losses_*.csv"))) == 6

    def test_all_variants_with_one_shared_prefix(self, data_file, tmp_path):
        """The suffixes keep the checkpoint and the loss curve apart."""
        prefix = str(tmp_path / "run")
        assert run(["train", "--data", str(data_file), "--all-variants",
                    "--epochs", "1", "--out-model", prefix,
                    "--out-losses", prefix]) == 0
        assert len(list(tmp_path.glob("run_*.npz"))) == 6
        assert len(list(tmp_path.glob("run_*.csv"))) == 6

    @pytest.mark.parametrize("losses", ["same", "sub/../same"])
    def test_one_path_for_both_outputs_refused(self, losses, data_file,
                                               tmp_path, capsys):
        """The loss curve would overwrite the checkpoint."""
        (tmp_path / "sub").mkdir()
        code = run(["train", "--data", str(data_file), "--cell", "gru",
                    "--head", "tanh", "--epochs", "1",
                    "--out-model", str(tmp_path / "same"),
                    "--out-losses", str(tmp_path / losses)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: --out-model and --out-losses are one file: "
                       f"{tmp_path / 'same'}\n")
        assert not (tmp_path / "same").exists()

    @pytest.mark.parametrize("output", ["--out-model", "--out-losses"])
    def test_output_over_the_dataset_refused(self, output, data_file,
                                             tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_bytes(data_file.read_bytes())
        argv = ["train", "--data", str(data), "--cell", "gru",
                "--head", "tanh", "--epochs", "1"]
        paths = {"--out-model": tmp_path / "m.npz",
                 "--out-losses": tmp_path / "l.csv", output: data}
        for flag, path in paths.items():
            argv += [flag, str(path)]
        code = run(argv)
        assert code == 2
        assert capsys.readouterr().err == (f"error: an output path is the "
                                           f"--data file: {data}\n")
        assert data.read_bytes() == data_file.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    @pytest.mark.parametrize("flag", [["--cell", "gru"], ["--head", "tanh"]])
    def test_all_variants_with_cell_or_head_refused(self, flag, data_file,
                                                    tmp_path, capsys):
        code = run(["train", "--data", str(data_file), "--all-variants",
                    *flag, "--epochs", "1",
                    "--out-model", str(tmp_path / "out" / "model"),
                    "--out-losses", str(tmp_path / "out" / "losses")])
        assert code == 2
        assert "cannot be combined with --all-variants" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count, weight, message", [
        (5, None, "need at least 10 sequences to split, got 5"),
        (12, 1.0, "degenerate target range: all training targets equal 1.0")])
    def test_dataset_refusal_names_the_file(self, count, weight, message,
                                            data_file, tmp_path, capsys):
        records = [json.loads(line)
                   for line in data_file.read_text().splitlines()[:count]]
        if weight is not None:
            for record in records:
                for step in record["steps"]:
                    step["f"] = weight
        data = tmp_path / "small.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        code = run(["train", "--data", str(data), "--cell", "gru",
                    "--head", "tanh", "--epochs", "1",
                    "--out-model", str(tmp_path / "m.npz"),
                    "--out-losses", str(tmp_path / "l.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not (tmp_path / "m.npz").exists()
        assert not (tmp_path / "l.csv").exists()

    def test_divergence_is_one_line_and_writes_nothing(self, data_file,
                                                        tmp_path, capsys):
        """The overflow on the way to the non-finite loss raises no numpy
        warning: the error, naming the epoch, is all there is."""
        model, losses = tmp_path / "m.npz", tmp_path / "l.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "--data", str(data_file), "--cell", "gru",
                        "--head", "linear", "--lr", "1e300", "--epochs", "2",
                        "--out-model", str(model), "--out-losses", str(losses)])
        assert code == 1
        assert re.fullmatch(rf"error: {re.escape(str(data_file))}: non-finite "
                            r"\w+ loss in epoch [12]\n", capsys.readouterr().err)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not model.exists() and not losses.exists()

    def test_divergence_under_all_variants_names_the_variant(
            self, data_file, tmp_path, capsys):
        """The variants trained before the diverging one keep their files;
        it and the ones after it write none."""
        code = run(["train", "--data", str(data_file), "--all-variants",
                    "--lr", "1e300", "--epochs", "2",
                    "--out-model", str(tmp_path / "m"),
                    "--out-losses", str(tmp_path / "l")])
        assert code == 1
        match = re.fullmatch(rf"error: {re.escape(str(data_file))}: "
                             r"(\w+)-(\w+): non-finite \w+ loss in epoch "
                             r"[12]\n", capsys.readouterr().err)
        assert match
        variants = [(c, h) for c in pournet.cli.CELLS for h in HEADS]
        done = variants[:variants.index(match.groups())]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{prefix}_{c}_{h}.{suffix}" for c, h in done
            for prefix, suffix in (("m", "npz"), ("l", "csv")))

    def test_reproducible_outputs(self, data_file, tmp_path):
        outs = []
        for tag in ("x", "y"):
            model = tmp_path / f"{tag}.npz"
            losses = tmp_path / f"{tag}.csv"
            code = run(["train", "--data", str(data_file), "--cell", "gru",
                        "--head", "linear", "--epochs", "2",
                        "--batch-size", "8", "--seed", "6",
                        "--out-model", str(model),
                        "--out-losses", str(losses)])
            assert code == 0
            outs.append((model.read_bytes(), losses.read_bytes()))
        assert outs[0] == outs[1]

    def test_outputs_independent_of_blas_thread_count(self, tmp_path):
        """Training in fresh processes pinned to 1 and to 2 BLAS threads
        writes byte-identical checkpoint and loss files. With batches of
        32 sequences of 20-50 steps, OpenBLAS runs the weight- and
        input-gradient GEMMs on both threads."""
        data = tmp_path / "data.jsonl"
        assert run(["synth", "--n", "60", "--seed", "8", "--noise", "0.01",
                    "--out", str(data)]) == 0
        outs = []
        for threads in ("1", "2"):
            model = tmp_path / f"t{threads}.npz"
            losses = tmp_path / f"t{threads}.csv"
            _run_with_blas_threads(
                threads, ["train", "--data", str(data), "--cell", "lstm",
                          "--head", "sigmoid", "--epochs", "2", "--seed", "5",
                          "--out-model", str(model),
                          "--out-losses", str(losses)])
            outs.append((model.read_bytes(), losses.read_bytes()))
        assert outs[0][0] == outs[1][0], "checkpoints differ"
        assert outs[0][1] == outs[1][1], "loss files differ"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the CLI sets the allocator through glibc")
    def test_second_call_reuses_mapped_memory(self, tmp_path):
        """Freed heap stays mapped, so a second training run in the same
        process faults in almost no new pages: tens of minor faults,
        against about 3000 when glibc trims each batch's freed buffers."""
        data = tmp_path / "data.jsonl"
        assert run(["synth", "--n", "60", "--seed", "0",
                    "--out", str(data)]) == 0
        faults = []
        for tag in ("first", "second"):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert run(["train", "--data", str(data), "--cell", "lstm",
                        "--head", "sigmoid", "--epochs", "2",
                        "--out-model", str(tmp_path / f"{tag}.npz"),
                        "--out-losses", str(tmp_path / f"{tag}.csv")]) == 0
            faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[1] < 500, faults


def _run_with_blas_threads(threads: str, argv, check=True):
    """Run the CLI in a fresh process pinned to `threads` BLAS threads;
    returns the finished process, its output as text."""
    src_dir = Path(pournet.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src_dir), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pournet.cli", *argv],
                          env=env, check=check, capture_output=True,
                          text=True, timeout=300)


def _huge_linear_checkpoint(model_file, path, w_out: float):
    """model_file with a linear head and every w_out entry at w_out."""
    params, net, norm = load_checkpoint(model_file)
    params.w_out[...] = w_out
    save_checkpoint(path, params,
                    dataclasses.replace(net, output_activation="linear"),
                    dataclasses.replace(norm, mode="linear"))
    return path


def _tree_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestPredictAndEval:
    def test_predict_writes_per_sequence_files(self, model_file, data_file,
                                               tmp_path):
        out = tmp_path / "preds"
        code = run(["predict", "--model", str(model_file), "--data",
                    str(data_file), "--out", str(out)])
        assert code == 0
        files = sorted(out.glob("pred_*.csv"))
        assert len(files) == 30
        header = files[0].read_text().splitlines()[0]
        assert header == "t,theta,actual_f,predicted_f"

    def test_predict_reproducible(self, model_file, data_file, tmp_path):
        contents = []
        for tag in ("p1", "p2"):
            out = tmp_path / tag
            assert run(["predict", "--model", str(model_file), "--data",
                        str(data_file), "--out", str(out)]) == 0
            contents.append(b"".join(p.read_bytes()
                                     for p in sorted(out.glob("*.csv"))))
        assert contents[0] == contents[1]

    def test_eval_dtw_outputs(self, model_file, data_file, tmp_path):
        out = tmp_path / "dtw"
        code = run(["eval-dtw", "--model", str(model_file), "--data",
                    str(data_file), "--radius", "1", "--out", str(out)])
        assert code == 0
        assert len(list(out.glob("align_*.csv"))) == 30
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "id,distance"
        assert len(summary) == 1 + 30 + 4  # rows plus aggregate footer
        footer = dict(line.split(",") for line in summary[-4:])
        distances = [float(line.split(",")[1]) for line in summary[1:31]]
        assert float(footer["mean"]) == pytest.approx(np.mean(distances),
                                                      rel=1e-12)
        assert float(footer["median"]) == np.median(distances)
        assert float(footer["min"]) == min(distances)
        assert float(footer["max"]) == max(distances)

    def test_eval_dtw_runs_fastdtw_once_per_pair(self, model_file, data_file,
                                                 tmp_path, monkeypatch):
        calls = []
        real = pournet.dtw.fastdtw

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        # the CLI's own binding too, so a direct call from eval-dtw counts
        monkeypatch.setattr(pournet.dtw, "fastdtw", counted)
        monkeypatch.setattr(pournet.cli, "fastdtw", counted)
        out = tmp_path / "dtw"
        assert run(["eval-dtw", "--model", str(model_file), "--data",
                    str(data_file), "--radius", "1", "--out", str(out)]) == 0
        assert len(calls) == 30
        rows = (out / "summary.csv").read_text().splitlines()[1:31]
        for line in rows:
            seq_id, distance = line.split(",")
            align = (out / f"align_{seq_id}.csv").read_text().splitlines()
            cost = sum(float(row.split(",")[4]) for row in align[1:])
            assert cost == pytest.approx(float(distance), rel=1e-12,
                                         abs=1e-12)

    def test_eval_dtw_writes_paths_without_checking_them_again(
            self, model_file, data_file, tmp_path, monkeypatch):
        """fastdtw already checked the curves and built each path, so
        eval-dtw writes the rows without validate_warp_path; the files
        equal what export_alignment writes for the same pairs."""
        calls = []
        real = pournet.dtw.validate_warp_path

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pournet.dtw, "validate_warp_path", counted)
        out = tmp_path / "dtw"
        assert run(["eval-dtw", "--model", str(model_file), "--data",
                    str(data_file), "--radius", "1", "--out", str(out)]) == 0
        assert calls == []
        seqs = load_dataset(data_file)
        params, net, norm = load_checkpoint(model_file)
        for seq, pred in zip(seqs, predict(params, net, norm, seqs)):
            actual = seq.weights
            direct = tmp_path / "direct.csv"
            export_alignment(pournet.dtw.fastdtw(pred, actual, 1), pred,
                             actual, direct)
            assert (out / f"align_{seq.id}.csv").read_bytes() == \
                direct.read_bytes()

    def test_predict_empty_dataset_writes_nothing(self, model_file,
                                                 tmp_path, capsys):
        data = tmp_path / "empty.jsonl"
        data.write_text("")
        assert run(["predict", "--model", str(model_file), "--data",
                    str(data), "--out", str(tmp_path / "preds")]) == 0
        assert "wrote 0 prediction files" in capsys.readouterr().out

    @pytest.mark.parametrize("case", ["empty data", "negative radius"])
    def test_eval_dtw_rejects_before_predicting(self, case, model_file,
                                                data_file, tmp_path,
                                                monkeypatch, capsys):
        predicted = []
        monkeypatch.setattr(pournet.cli, "predict",
                            lambda *args: predicted.append(1))
        data, radius = data_file, "1"
        if case == "empty data":
            data = tmp_path / "empty.jsonl"
            data.write_text("")
            code, expected = 1, f"error: {data}: no sequences to score"
        else:
            radius = "-1"
            code = 2
            expected = "error: argument --radius: must be non-negative, got -1"
        out = tmp_path / "dtw"
        assert run(["eval-dtw", "--model", str(model_file), "--data",
                    str(data), "--radius", radius, "--out", str(out)]) == code
        assert capsys.readouterr().err.strip() == expected
        assert predicted == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "eval-dtw"])
    @pytest.mark.parametrize("edit", [
        {"norm_mode": "linear"}, {"norm_target_min": float("nan")},
        {"norm_target_min": 1.0, "norm_target_max": 1.0},
        {"norm_target_min": "0.5"}, {"layer_widths": [16.7, 16, 16, 16]}],
        ids=["head mismatch", "nan bound", "equal bounds", "string bound",
             "fractional width"])
    def test_bad_checkpoint_meta_refused_before_writing(
            self, command, edit, model_file, data_file, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        with zipfile.ZipFile(model_file) as src, \
                zipfile.ZipFile(bad, "w", zipfile.ZIP_STORED) as dst:
            for name in src.namelist():
                data = src.read(name)
                if name == "meta.json":
                    data = json.dumps({**json.loads(data), **edit}).encode()
                dst.writestr(name, data)
        out = tmp_path / "out"
        assert run([command, "--model", str(bad), "--data", str(data_file),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not out.exists()

    # an edit to the fourth record of a dataset, and the text the error
    # must contain
    BAD_RECORDS = {
        "duplicate id": ({"id": "synth-00001"}, "'synth-00001' appears twice"),
        "slash id": ({"id": "a/b"}, "'a/b' is not a file name"),
        "dot id": ({"id": "."}, "'.' is not a file name"),
        "dotdot id": ({"id": ".."}, "'..' is not a file name"),
        "empty id": ({"id": ""}, "'' is not a file name"),
        "nul id": ({"id": "a\0b"}, "'a\\x00b' is not a file name"),
        # summary.csv writes ids unquoted
        "comma id": ({"id": "a,b"}, "'a,b' is not a plain CSV field"),
        "quote id": ({"id": 'q"uote'}, "'q\"uote' is not a plain CSV field"),
        "cr id": ({"id": "a\rb"}, "'a\\rb' is not a plain CSV field"),
        "newline id": ({"id": "line\nbreak"},
                       "'line\\nbreak' is not a plain CSV field"),
        "list id": ({"id": ["x"]}, "line 4: id must be a string"),
        # json.dumps spells it \ud800; no file name can hold it
        "lone surrogate id": ({"id": "\ud800x"},
                              "line 4: id '\\ud800x' is not UTF-8 text"),
        "bool static": ({"rho": True}, "line 4: rho must be a number"),
        "bool theta": ({"theta": True},
                       "line 4: steps[2].theta must be a number, got True"),
        "string static": ({"rho": "1.0"}, "line 4: rho must be a number"),
        "string theta": ({"theta": "1.5"},
                         "line 4: steps[2].theta must be a number, got '1.5'"),
        # json.dumps writes these as integers, which no float64 holds
        "huge int static": ({"rho": 10 ** 400},
                            "line 4: rho: int too large to convert to float"),
        "huge int theta": ({"theta": 10 ** 400},
                           "line 4: steps[2].theta: int too large to convert "
                           "to float")}

    @pytest.mark.parametrize("command", ["predict", "eval-dtw"])
    @pytest.mark.parametrize("case", list(BAD_RECORDS))
    def test_bad_dataset_refused_before_writing(
            self, command, case, model_file, data_file, tmp_path,
            monkeypatch, capsys):
        """Each output file is named after a sequence id, so a repeated
        id would overwrite a file and an id with a path in it would
        write outside --out."""
        edit, message = self.BAD_RECORDS[case]
        predicted = []
        monkeypatch.setattr(pournet.cli, "predict",
                            lambda *args: predicted.append(1))
        records = [json.loads(line)
                   for line in data_file.read_text().splitlines()[:5]]
        if "theta" in edit:
            records[3]["steps"][2].update(edit)
        else:
            records[3].update(edit)
        data = tmp_path / "bad.jsonl"
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out"
        assert run([command, "--model", str(model_file), "--data", str(data),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: ") and message in err
        assert err.count("\n") == 1
        assert predicted == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "eval-dtw"])
    def test_non_finite_prediction_refused_before_writing(
            self, command, model_file, data_file, tmp_path):
        """A linear head with every w_out entry at 1e308 overflows on real
        inputs. In a fresh process, stderr is one line, naming the
        checkpoint and the sequence, with no numpy warning before it."""
        bad = _huge_linear_checkpoint(model_file, tmp_path / "huge.npz", 1e308)
        out = tmp_path / "out"
        proc = _run_with_blas_threads("1", [
            command, "--model", str(bad), "--data", str(data_file),
            "--out", str(out)], check=False)
        assert proc.returncode == 1
        assert re.fullmatch(rf"error: {re.escape(str(bad))}: predicted curve "
                            r"for 'synth-\d{5}' is not finite\n", proc.stderr)
        assert not out.exists()

    def test_dtw_overflow_names_checkpoint_and_sequence(
            self, model_file, data_file, tmp_path, capsys):
        """At w_out 3e306 every predicted curve is finite, but a DTW
        distance to a measured curve is beyond float64."""
        bad = _huge_linear_checkpoint(model_file, tmp_path / "huge.npz", 3e306)
        out = tmp_path / "out"
        assert run(["eval-dtw", "--model", str(bad), "--data", str(data_file),
                    "--out", str(out)]) == 1
        assert re.fullmatch(rf"error: {re.escape(str(bad))}: DTW distance for "
                            r"'synth-\d{5}' overflows float64\n",
                            capsys.readouterr().err)
        assert not out.exists()

    def test_outputs_independent_of_blas_thread_count(self, model_file,
                                                      tmp_path):
        """Batched prediction and scoring in fresh processes pinned to 1
        and to 2 BLAS threads write byte-identical files. 70 sequences
        make two full chunks of 32 and one of 6; at 20-50 steps the
        input-projection GEMMs are large enough for OpenBLAS to thread."""
        data = tmp_path / "data.jsonl"
        assert run(["synth", "--n", "70", "--seed", "12", "--noise", "0.01",
                    "--out", str(data)]) == 0
        outs = []
        for threads in ("1", "2"):
            preds, scores = tmp_path / f"p{threads}", tmp_path / f"d{threads}"
            _run_with_blas_threads(threads, [
                "predict", "--model", str(model_file), "--data", str(data),
                "--out", str(preds)])
            _run_with_blas_threads(threads, [
                "eval-dtw", "--model", str(model_file), "--data", str(data),
                "--out", str(scores)])
            outs.append((_tree_bytes(preds), _tree_bytes(scores)))
        assert len(outs[0][0]) == 70 and len(outs[0][1]) == 71
        assert outs[0][0] == outs[1][0], "prediction files differ"
        assert outs[0][1] == outs[1][1], "eval-dtw files differ"


class TestGradcheck:
    def test_passes_on_correct_implementation(self, capsys):
        assert run(["gradcheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("max relative error") == 6
        full = out.splitlines()[6]
        assert full.startswith("full scale (default stack, train mode): "
                               "max directional error ")

    def test_impossible_tolerance_fails(self, monkeypatch):
        # the toy checks alone exceed 1e-18; the test above runs the
        # full-scale check for real
        monkeypatch.setattr(pournet.cli, "full_scale_gradient_errors",
                            lambda *args, **kwargs: {"head": 0.0})
        assert run(["gradcheck", "--seed", "7", "--tol", "1e-18"]) == 1

    @pytest.mark.parametrize("toy,full", [(float("nan"), 0.0),
                                          (0.0, float("nan"))],
                             ids=["toy", "full scale"])
    def test_nan_error_fails(self, toy, full, monkeypatch, capsys):
        monkeypatch.setattr(pournet.cli, "check_network_gradients",
                            lambda *args, **kwargs: toy)
        monkeypatch.setattr(pournet.cli, "full_scale_gradient_errors",
                            lambda *args, **kwargs: {"layers[2]": full,
                                                     "head": 0.0})
        assert run(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert "gradient check failed, nan" in captured.err
        if full != full:
            assert "error nan at lstm-sigmoid layers[2]" in captured.out


class TestDTWCommand:
    def test_identity_prints_zero(self, tmp_path, capsys):
        curve = tmp_path / "curve.txt"
        curve.write_text("1.0\n0.8\n0.5\n0.4\n")
        assert run(["dtw", "--a", str(curve), "--b", str(curve),
                    "--exact"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_radius_mode(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0\n0\n0\n")
        b.write_text("1\n1\n1\n")
        assert run(["dtw", "--a", str(a), "--b", str(b), "--radius", "2"]) == 0
        assert float(capsys.readouterr().out.strip()) == 3.0

    def test_exact_overflow_is_runtime_error(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1e308\n-1e308\n0\n")
        b.write_text("-1e308\n1e308\n0\n")
        assert run(["dtw", "--a", str(a), "--b", str(b), "--exact"]) == 1
        assert "DTW distance overflows float64" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--exact"], ["--radius", "1"]],
                             ids=["exact", "radius"])
    def test_overflow_names_both_files(self, tmp_path, capsys, mode):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1e308\n-1e308\n0\n")
        b.write_text("-1e308\n1e308\n0\n")
        assert run(["dtw", "--a", str(a), "--b", str(b), *mode]) == 1
        assert capsys.readouterr().err == (
            f"error: {a}, {b}: DTW distance overflows float64\n")

    @pytest.mark.parametrize("text, where", [
        (b"", ": no numbers"), (b"0.5\nnan\n", " line 2:"),
        (b"\n-inf\n0.2\n", " line 2:"), (b"0.5\n\xff\n0.2\n", " line 2:")],
        ids=["empty", "nan", "inf", "byte 0xff"])
    def test_bad_curve_file_named(self, tmp_path, capsys, text, where):
        """One stderr line; a byte that is not UTF-8 names its line."""
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("1.0\n0.5\n")
        bad.write_bytes(text)
        assert run(["dtw", "--a", str(good), "--b", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}{where}") and err.count("\n") == 1


class TestUsage:
    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        code = run(["predict", "--model", str(tmp_path / "nope.npz"),
                    "--data", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("synth", ["--out", "data.jsonl"]),
        ("train", ["--data", "data.jsonl", "--cell", "gru", "--head", "tanh",
                   "--out-model", "m.npz", "--out-losses", "l.csv"]),
        ("gradcheck", [])])
    def test_negative_seed_names_the_flag(self, command, flags, tmp_path,
                                          monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run([command, "--seed", "-1", *flags]) == 2
        err = capsys.readouterr().err
        assert err == "error: argument --seed: must be non-negative, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["synth", "train", "predict",
                                         "eval-dtw", "gradcheck", "dtw"])
    def test_help_exits_zero(self, command, capsys):
        assert run([command, "--help"]) == 0
        capsys.readouterr()

    def test_train_help_documents_defaults(self, capsys):
        run(["train", "--help"])
        text = capsys.readouterr().out
        assert "150" in text
        assert "0.01" in text
        assert "32" in text


# The refusal contract. A bad flag or flag combination exits 2 before any
# input file is read; a bad input file or a failed run exits 1. Either way
# stderr is one line that starts "error: " and names the flag or the file,
# and no output appears. Each command line is a BASE line with a row's
# flags appended (argparse keeps the last of a repeated flag). {data} and
# {model} are a good dataset and checkpoint, and {w} is a directory that
# _work_dir fills with good, malformed and empty inputs and directories.
BASE = {
    "synth": "synth --n 5 --out {w}/out.jsonl",
    "train": "train --data {data} --epochs 1 --cell gru --head tanh "
             "--out-model {w}/m.npz --out-losses {w}/l.csv",
    "train-all": "train --data {data} --epochs 1 --all-variants "
                 "--out-model {w}/run --out-losses {w}/run",
    "predict": "predict --model {model} --data {data} --out {w}/out",
    "eval-dtw": "eval-dtw --model {model} --data {data} --out {w}/out",
    "gradcheck": "gradcheck",
    "dtw": "dtw --a {w}/good.txt --b {w}/good.txt",
}
# row: command, flags, exit code, the text the stderr line names; a text
# that starts "error: " must start the line
REFUSALS = {
    "train missing data": ("train", "--data {w}/no.jsonl", 1,
                           "error: {w}/no.jsonl: "),
    "predict missing model": ("predict", "--model {w}/no.npz", 1,
                              "error: {w}/no.npz: "),
    "predict missing data": ("predict", "--data {w}/no.jsonl", 1,
                             "error: {w}/no.jsonl: "),
    "eval-dtw missing model": ("eval-dtw", "--model {w}/no.npz", 1,
                               "error: {w}/no.npz: "),
    "eval-dtw missing data": ("eval-dtw", "--data {w}/no.jsonl", 1,
                              "error: {w}/no.jsonl: "),
    "dtw missing curve": ("dtw", "--b {w}/no.txt", 1, "error: {w}/no.txt: "),
    "train dir data": ("train", "--data {w}/adir", 1, "error: {w}/adir: "),
    "predict dir model": ("predict", "--model {w}/adir", 1,
                          "error: {w}/adir: "),
    "predict dir data": ("predict", "--data {w}/adir", 1, "error: {w}/adir: "),
    "eval-dtw dir data": ("eval-dtw", "--data {w}/adir", 1,
                          "error: {w}/adir: "),
    "dtw dir curve": ("dtw", "--a {w}/adir", 1, "error: {w}/adir: "),
    "train bad data": ("train", "--data {w}/bad.jsonl", 1, "{w}/bad.jsonl"),
    "predict bad model": ("predict", "--model {w}/bad.npz", 1, "{w}/bad.npz"),
    "predict bad data": ("predict", "--data {w}/bad.jsonl", 1,
                         "{w}/bad.jsonl"),
    "eval-dtw bad model": ("eval-dtw", "--model {w}/bad.npz", 1,
                           "{w}/bad.npz"),
    "eval-dtw empty data": ("eval-dtw", "--data {w}/empty.jsonl", 1,
                            "{w}/empty.jsonl"),
    "dtw bad curve": ("dtw", "--b {w}/bad.txt", 1, "{w}/bad.txt"),
    "train one path": ("train", "--out-losses {w}/m.npz", 2,
                       "--out-model and --out-losses"),
    "train output over data": ("train", "--out-losses {data}", 2, "--data"),
    "train model dir": ("train", "--out-model {w}/adir", 2, "--out-model"),
    "train losses dir": ("train", "--out-losses {w}/adir", 2, "--out-losses"),
    "train all-variants model dir": ("train-all", "--out-model {w}/adir", 2,
                                     "--out-model"),
    "train all-variants losses dir": ("train-all", "--out-losses {w}/adir", 2,
                                      "--out-losses"),
    "train model under file": ("train", "--out-model {w}/good.txt/m.npz", 2,
                               "--out-model"),
    "train losses under file": ("train", "--out-losses {w}/good.txt/l.csv", 2,
                                "--out-losses"),
    "train all-variants model under file": (
        "train-all", "--out-model {w}/good.txt/run", 2, "--out-model"),
    "train all-variants losses under file": (
        "train-all", "--out-losses {w}/good.txt/run", 2, "--out-losses"),
    "train model under losses": ("train", "--out-losses {w}/l2 "
                                 "--out-model {w}/l2/m.npz", 2,
                                 "--out-model is under --out-losses"),
    "train losses under model": ("train", "--out-model {w}/m "
                                 "--out-losses {w}/m/l.csv", 2,
                                 "--out-losses is under --out-model"),
    "train all-variants losses under model": (
        "train-all", "--out-losses {w}/run_gru_tanh.npz/l", 2,
        "--out-losses is under --out-model"),
    "train model dangling": ("train", "--out-model {w}/dangling", 2,
                             "error: --out-model "),
    "train model under loop": ("train", "--out-model {w}/loop/m.npz", 2,
                               "error: --out-model "),
    "train all-variants losses under loop": (
        "train-all", "--out-losses {w}/loop/run", 2, "error: --out-losses "),
    "synth out under loop": ("synth", "--out {w}/loop/x.jsonl", 2,
                             "error: --out "),
    "predict out dangling": ("predict", "--out {w}/dangling", 2,
                             "error: --out "),
    "synth out dir": ("synth", "--out {w}/adir", 2, "--out"),
    "synth out under file": ("synth", "--out {w}/good.txt/x.jsonl", 2,
                             "--out"),
    "predict out file": ("predict", "--out {w}/good.txt", 2, "--out"),
    "predict out under file": ("predict", "--out {w}/good.txt/out", 2,
                               "--out"),
    "eval-dtw out file": ("eval-dtw", "--out {w}/good.txt", 2, "--out"),
    "eval-dtw out under file": ("eval-dtw", "--out {w}/good.txt/out", 2,
                                "--out"),
    "synth t-min above t-max": ("synth", "--t-min 30 --t-max 20", 2,
                                "--t-min"),
    "train without cell": (None, "train --data {data} --epochs 1 --out-model "
                                 "{w}/m.npz --out-losses {w}/l.csv", 2,
                           "--cell"),
    "train all-variants with cell": ("train-all", "--cell gru", 2,
                                     "--all-variants"),
    "dtw exact with radius": ("dtw", "--exact --radius 2", 2, "--radius"),
    "eval-dtw without out": ("eval-dtw", "--out", 2, "--out"),
    "synth unknown flag": ("synth", "--bogus 1", 2, "--bogus"),
    "gradcheck unknown flag": ("gradcheck", "--bogus", 2, "--bogus"),
    "unknown command": (None, "transmogrify", 2, "transmogrify"),
}
# every numeric flag: command, flag, parse, lower bound, strict bound
RANGED = [("synth", "--n", int, 1, False), ("synth", "--seed", int, 0, False),
          ("synth", "--noise", float, 0, False),
          ("synth", "--t-min", int, 5, False),
          ("synth", "--t-max", int, 5, False),
          ("train", "--epochs", int, 1, False),
          ("train", "--batch-size", int, 1, False),
          ("train", "--lr", float, 0, True),
          ("train", "--seed", int, 0, False),
          ("eval-dtw", "--radius", int, 0, False),
          ("gradcheck", "--seed", int, 0, False),
          ("gradcheck", "--eps", float, 0, True),
          ("gradcheck", "--tol", float, 0, False),
          ("dtw", "--radius", int, 0, False)]


def _work_dir(work: Path) -> Path:
    (work / "adir").mkdir()
    # all-variants paths from the prefix {w}/adir
    (work / "adir_gru_tanh.npz").mkdir()
    (work / "adir_lstm_tanh.csv").mkdir()
    (work / "good.txt").write_text("1.0\n0.5\n")
    (work / "bad.txt").write_text("1.0\nnan\n")
    (work / "bad.jsonl").write_text("{not json\n")
    (work / "bad.npz").write_bytes(b"not a zip archive")
    (work / "empty.jsonl").write_text("")
    (work / "dangling").symlink_to(work / "nowhere" / "x")
    (work / "loop").symlink_to(work / "loop")
    return work


def _unreadable(parse):
    """Text that parse (int or float) cannot read."""
    def unreadable(text):
        try:
            parse(text)
        except ValueError:
            return True
        return False
    return st.text(max_size=6).filter(unreadable)


def _out_of_range(parse, low, strict):
    """Text a flag of that type and bound refuses: a number below the
    bound (or at it, when strict), a non-finite float, or not a number."""
    if parse is int:
        numbers = st.integers(max_value=low - 1)
    else:  # -0.0 is not below 0
        numbers = st.floats(max_value=low).filter(lambda x: strict or x < low)
        numbers |= st.sampled_from([math.nan, math.inf])
    return numbers.map(str) | _unreadable(parse)


class TestRefusalContract:
    @staticmethod
    def _assert_refused(argv, work, code, named):
        """run(argv) exits `code` with one stderr line that starts
        "error: " and holds `named`, or starts with it when `named` starts
        "error: "; nothing appears under `work`, which
        holds every --out path that does not exist yet; gradcheck's
        checks never run; and exit 2 reads no input file."""
        before = sorted(work.rglob("*"))
        checks = []
        with contextlib.ExitStack() as stack:
            err = io.StringIO()
            stack.enter_context(contextlib.redirect_stderr(err))
            for name in ("check_network_gradients",
                         "full_scale_gradient_errors"):
                stack.enter_context(mock.patch.object(
                    pournet.cli, name,
                    lambda *args, **kwargs: checks.append(args)))
            readers = [stack.enter_context(mock.patch.object(
                pournet.cli, name, wraps=getattr(pournet.cli, name)))
                for name in ("load_dataset", "load_checkpoint", "_read_curve")]
            assert run(argv) == code
        line = err.getvalue()
        assert line.startswith("error: ") and line.count("\n") == 1
        assert line.endswith("\n") and named in line
        assert line.startswith(named) or not named.startswith("error: ")
        assert sorted(work.rglob("*")) == before
        assert checks == []
        if code == 2:
            assert not any(reader.called for reader in readers)

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_refused(self, case, data_file, model_file, tmp_path):
        command, flags, code, named = REFUSALS[case]
        work = _work_dir(tmp_path)
        names = {"w": work, "data": data_file, "model": model_file}
        argv = [token.format(**names)
                for token in f"{BASE.get(command, '')} {flags}".split()]
        self._assert_refused(argv, work, code, named.format(**names))

    @pytest.mark.parametrize("command, flag, parse, low, strict", RANGED,
                             ids=[f"{c} {f}" for c, f, *_ in RANGED])
    @settings(deadline=None, max_examples=20)
    @given(data=st.data())
    def test_out_of_range_flag_refused(self, command, flag, parse, low,
                                       strict, data, data_file, model_file):
        value = data.draw(_out_of_range(parse, low, strict), label=flag)
        with tempfile.TemporaryDirectory() as tmp:
            work = _work_dir(Path(tmp))
            names = {"w": work, "data": data_file, "model": model_file}
            argv = [token.format(**names) for token in BASE[command].split()]
            self._assert_refused([*argv, f"{flag}={value}"], work, 2,
                                 f"error: argument {flag}: ")


def _open_failing_part_way(file, mode="r", *args, **kwargs):
    """open, except that a file opened for writing writes half of its
    first write and then raises ENOSPC, as a full disk would."""
    fh = open(file, mode, *args, **kwargs)
    if "w" in mode:
        write = fh.write

        def write_half(data):
            write(data[:len(data) // 2])
            fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        fh.write = write_half
    return fh


class TestOutputs:
    @pytest.mark.parametrize("module, flag", [("data", "--out"),
                                              ("network", "--out-model"),
                                              ("training", "--out-losses")])
    def test_failed_write_keeps_the_old_file(self, module, flag, data_file,
                                             tmp_path, capsys):
        """The module writing the output fails part-way through it."""
        outputs = ({"--out": tmp_path / "keep.jsonl"} if flag == "--out" else
                   {"--out-model": tmp_path / "keep.npz",
                    "--out-losses": tmp_path / "keep.csv"})
        argv = (["synth", "--n", "12"] if flag == "--out" else
                ["train", "--data", str(data_file), "--cell", "gru",
                 "--head", "tanh", "--epochs", "1"])
        for out_flag, path in outputs.items():
            path.write_bytes(b"old bytes\n")
            argv += [out_flag, str(path)]
        with mock.patch(f"pournet.{module}.open", _open_failing_part_way,
                        create=True):
            assert run(argv) == 1
        assert capsys.readouterr().err == ("error: [Errno 28] "
                                           "No space left on device\n")
        assert outputs[flag].read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            p.name for p in outputs.values())

    def test_replaced_output_keeps_its_link_and_a_plain_mode(self, tmp_path):
        target = tmp_path / "real" / "data.jsonl"
        target.parent.mkdir()
        target.write_text("old\n")
        (tmp_path / "link.jsonl").symlink_to(target)
        assert run(["synth", "--n", "12", "--out",
                    str(tmp_path / "link.jsonl")]) == 0
        assert (tmp_path / "link.jsonl").is_symlink()
        assert len(load_dataset(target)) == 12
        plain = tmp_path / "plain"
        open(plain, "w").close()
        assert target.stat().st_mode == plain.stat().st_mode

    @pytest.mark.parametrize("command", ["synth", "train", "train-all",
                                         "predict", "eval-dtw"])
    def test_creates_only_its_declared_outputs(self, command, data_file,
                                               model_file, tmp_path):
        """What a command creates is what its declaration lists, plus the
        parents it makes, so an undeclared output cannot slip past the
        checks in run."""
        argv = BASE[command].format(w=tmp_path / "a" / "b", data=data_file,
                                    model=model_file).split()
        args = pournet.cli.build_parser().parse_args(argv)
        declared = {Path(path) for _, path, _ in args.outputs(args)}
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0
        parents = {parent for path in declared for parent in path.parents
                   if tmp_path in parent.parents}
        created = {path for path in tmp_path.rglob("*")
                   if not declared.intersection(path.parents)}
        assert created == declared | parents
