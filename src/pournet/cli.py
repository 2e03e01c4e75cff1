"""Command-line entry point: generate data, train, predict, score with DTW.

Commands mirror the workflow end to end:

    pournet synth     --n 200 --seed 0 --noise 0.01 --out data.jsonl
    pournet train     --data data.jsonl --cell gru --head tanh \
                      --out-model model.npz --out-losses losses.csv
    pournet predict   --model model.npz --data test.jsonl --out preds/
    pournet eval-dtw  --model model.npz --data test.jsonl --out dtw/
    pournet gradcheck --seed 7
    pournet dtw       --a curve1.txt --b curve2.txt --exact
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys
from pathlib import Path
from statistics import fmean, median

import numpy as np

from .data import HEADS, load_dataset, save_dataset
from .dtw import (DistanceOverflowError, dtw_exact, export_alignment,
                  fastdtw, score_testset)
from .gradcheck import check_network_gradients, full_scale_gradient_errors
from .network import (COMPLEX_STEP, CellKind, NetworkConfig, load_checkpoint,
                      save_checkpoint)
from .synth import SynthParams, generate_dataset
from .training import (TrainConfig, TrainingDivergedError, export_loss_curve,
                       export_prediction, predict, train)

CELLS = tuple(kind.value for kind in CellKind)


class UsageError(ValueError):
    """A refused flag or flag combination; maps to exit code 2."""


def _check_outputs(outputs, data) -> None:
    """Raise UsageError naming a flag unless each (flag, path, directory)
    output is an existing path of its kind, or a new one whose nearest
    existing ancestor is a directory reached with no broken symlink;
    no two outputs are one file or one under the other, and none is
    the data file. Nothing is created."""
    resolved = [Path(os.path.realpath(path)) for _, path, _ in outputs]
    for i, (flag, path, directory) in enumerate(outputs):
        for j, (other_flag, _, _) in enumerate(outputs):
            if i != j and resolved[j] == resolved[i]:
                raise UsageError(f"{flag} and {other_flag} are one file: {path}")
            if resolved[j] in resolved[i].parents:
                raise UsageError(f"{flag} is under {other_flag}: {path}")
        path = Path(path)
        found = next(p for p in (path, *path.parents) if os.path.lexists(p))
        if not found.exists():  # dangling, or a loop
            raise UsageError(f"{flag} meets a broken symlink: {found}")
        if found == path and path.is_dir() != directory:
            kind = "not a directory" if directory else "a directory"
            raise UsageError(f"{flag} is {kind}: {path}")
        if found != path and not found.is_dir():
            raise UsageError(f"{flag} is under a non-directory: {found}")
        if data is not None and resolved[i] == Path(os.path.realpath(data)):
            raise UsageError(f"an output path is the --data file: {data}")


def _check_out_entries(out, names) -> None:
    """Raise UsageError naming --out for an entry of an existing --out
    directory that this run would not write: a name not in names, or a
    directory. So a rerun on the same dataset is accepted, and a run
    leaves no file of another run beside its own. Nothing is created."""
    for entry in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        if entry not in names or os.path.isdir(os.path.join(out, entry)):
            raise UsageError(f"--out holds {entry!r}, which this run would "
                             f"not write: {out}")


def _write(path, save) -> None:
    """Write the file output at path whole: save(name) writes a new file
    beside path's resolved target, so a symlink keeps its link, and that
    file then replaces the target. On any error the new file is removed
    and the target is left as it was. Makes the target's directory."""
    target = Path(os.path.realpath(path))
    target.parent.mkdir(parents=True, exist_ok=True)
    temp = target.with_name(f"{target.name}.{os.urandom(4).hex()}.tmp")
    open(temp, "x").close()  # a new name, with the mode open gives
    try:
        save(temp)
        os.replace(temp, target)
    except BaseException:
        temp.unlink()
        raise


def _bounded(parse, low, strict=False):
    """argparse type of a numeric flag: a finite `parse` (int or float)
    value of at least `low`, or above `low` when `strict`."""
    if strict:
        wanted = f"greater than {low}"
    else:
        wanted = "non-negative" if low == 0 else f"at least {low}"

    def convert(text):
        value = parse(text)  # a ValueError reads "invalid int value: 'x'"
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if value < low or strict and value == low:
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {value}")
        return value

    convert.__name__ = parse.__name__
    return convert


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line and exit 2, as run prints it
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pournet",
        description="Learn and evaluate pouring weight-curve predictors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic pouring dataset")
    p.add_argument("--n", type=_bounded(int, 1), default=200,
                   help="number of sequences (default: 200)")
    p.add_argument("--seed", type=_bounded(int, 0), default=0,
                   help="generator seed (default: 0)")
    p.add_argument("--noise", type=_bounded(float, 0), default=0.01,
                   help="observation noise stddev in lbf (default: 0.01)")
    p.add_argument("--t-min", type=_bounded(int, 5), default=20,
                   help="shortest sequence length (default: 20)")
    p.add_argument("--t-max", type=_bounded(int, 5), default=50,
                   help="longest sequence length (default: 50)")
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_synth,
                   outputs=lambda args: [("--out", args.out, False)])

    p = sub.add_parser("train", help="train one variant or all six")
    p.add_argument("--data", required=True, help="training dataset file")
    p.add_argument("--cell", choices=CELLS, help="recurrent cell kind")
    p.add_argument("--head", choices=HEADS, help="output activation")
    p.add_argument("--epochs", type=_bounded(int, 1), default=150,
                   help="training epochs (default: 150)")
    p.add_argument("--lr", type=_bounded(float, 0, strict=True),
                   default=0.01, help="Adam learning rate (default: 0.01)")
    p.add_argument("--batch-size", type=_bounded(int, 1), default=32,
                   help="mini-batch size (default: 32)")
    p.add_argument("--seed", type=_bounded(int, 0), default=0,
                   help="split/init/shuffle seed (default: 0)")
    p.add_argument("--out-model", required=True,
                   help="checkpoint path (prefix with --all-variants)")
    p.add_argument("--out-losses", required=True,
                   help="loss-curve CSV path (prefix with --all-variants)")
    p.add_argument("--all-variants", action="store_true",
                   help="train every cell/head combination sequentially")
    p.add_argument("--unmasked-loss", action="store_true",
                   help="let padded timesteps count toward the loss")
    p.add_argument("--keep-best-val", action="store_true",
                   help="return the best-validation epoch instead of the last")
    p.set_defaults(func=_cmd_train, outputs=lambda args: [
        (flag, path, False) for *_, model, losses in _variants(args)
        for flag, path in (("--out-model", model), ("--out-losses", losses))])

    p = sub.add_parser("predict", help="emit per-sequence prediction files")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset file to predict")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_predict,
                   outputs=lambda args: [("--out", args.out, True)])

    p = sub.add_parser("eval-dtw", help="score predictions with FastDTW")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset file to score")
    p.add_argument("--radius", type=_bounded(int, 0), default=1,
                   help="FastDTW window radius (default: 1)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_eval_dtw,
                   outputs=lambda args: [("--out", args.out, True)])

    p = sub.add_parser("gradcheck",
                       help="verify BPTT against complex-step derivatives")
    p.add_argument("--seed", type=_bounded(int, 0), default=0,
                   help="batch/init seed (default: 0)")
    p.add_argument("--eps", type=_bounded(float, 0, strict=True),
                   default=COMPLEX_STEP,
                   help=f"complex step h (default: {COMPLEX_STEP:g})")
    p.add_argument("--tol", type=_bounded(float, 0), default=1e-4,
                   help="max relative error allowed (default: 1e-4)")
    p.set_defaults(func=_cmd_gradcheck, outputs=lambda args: [])

    p = sub.add_parser("dtw", help="distance between two curve files")
    p.add_argument("--a", required=True, help="text file, one number per line")
    p.add_argument("--b", required=True, help="text file, one number per line")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true",
                       help="full dynamic program instead of FastDTW")
    group.add_argument("--radius", type=_bounded(int, 0), default=1,
                       help="FastDTW window radius (default: 1)")
    p.set_defaults(func=_cmd_dtw, outputs=lambda args: [])
    return parser


def _cmd_synth(args) -> int:
    if args.t_min > args.t_max:
        raise UsageError(f"--t-min {args.t_min} is above --t-max {args.t_max}")
    params = SynthParams(num_sequences=args.n, seed=args.seed,
                         noise_std=args.noise,
                         length_range=(args.t_min, args.t_max))
    seqs = generate_dataset(params)
    _write(args.out, lambda name: save_dataset(seqs, name))
    print(f"wrote {len(seqs)} sequences to {args.out}")
    return 0


def _variants(args) -> list:
    """(cell, head, checkpoint path, loss-curve path) of each variant
    train writes; raises UsageError for a --cell/--head misuse."""
    if args.all_variants:
        if args.cell or args.head:
            raise UsageError("--cell and --head cannot be combined with "
                             "--all-variants")
        return [(c, h, f"{args.out_model}_{c}_{h}.npz",
                 f"{args.out_losses}_{c}_{h}.csv") for c in CELLS for h in HEADS]
    if not (args.cell and args.head):
        raise UsageError("--cell and --head are required "
                         "unless --all-variants is set")
    return [(args.cell, args.head, args.out_model, args.out_losses)]


def _cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    for cell, head, model_path, losses_path in _variants(args):
        net = NetworkConfig(cell_kind=CellKind(cell), output_activation=head)
        config = TrainConfig(network=net, epochs=args.epochs, lr=args.lr,
                             batch_size=args.batch_size, seed=args.seed,
                             masked_loss=not args.unmasked_loss,
                             keep_best_validation=args.keep_best_val)
        try:
            params, norm, report = train(dataset, config)
        except (ValueError, TrainingDivergedError) as exc:
            variant = f"{cell}-{head}: " if args.all_variants else ""
            raise ValueError(f"{args.data}: {variant}{exc}") from exc
        _write(model_path, lambda name: save_checkpoint(name, params, net, norm))
        _write(losses_path, lambda name: export_loss_curve(report, name))
        print(f"{cell}-{head}: train {report.train_losses[-1]:.6g} "
              f"val {report.val_losses[-1]:.6g} "
              f"test {report.final_test_loss:.6g} -> {model_path}")
    return 0


def _load_output_dataset(path):
    """load_dataset for commands that write one file per sequence id;
    raises ValueError naming the file for a repeated id, an id that is
    not one file-name component, or one that a summary.csv row cannot
    hold unquoted (a comma, a double quote or a line break)."""
    seqs = load_dataset(path)
    seen = set()
    for seq in seqs:
        if seq.id in ("", ".", "..") or "/" in seq.id or "\0" in seq.id:
            raise ValueError(f"{path}: id {seq.id!r} is not a file name")
        if any(char in seq.id for char in ',"\r\n'):
            raise ValueError(f"{path}: id {seq.id!r} is not a plain CSV field")
        if seq.id in seen:
            raise ValueError(f"{path}: id {seq.id!r} appears twice")
        seen.add(seq.id)
    return seqs


def _finite_predictions(model_path, params, net, norm, seqs) -> list:
    """predict's curves for seqs; raises ValueError naming the checkpoint
    and the sequence id for a curve that is not finite. An overflow on
    the way to such a curve raises no numpy warning, so the error is
    the one line on stderr."""
    with np.errstate(over="ignore", invalid="ignore"):
        curves = predict(params, net, norm, seqs)
    for seq, curve in zip(seqs, curves):
        if not np.isfinite(curve).all():
            raise ValueError(f"{model_path}: predicted curve for {seq.id!r} "
                             f"is not finite")
    return curves


def _cmd_predict(args) -> int:
    seqs = _load_output_dataset(args.data)
    _check_out_entries(args.out, {f"pred_{seq.id}.csv" for seq in seqs})
    params, net, norm = load_checkpoint(args.model)
    curves = _finite_predictions(args.model, params, net, norm, seqs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seq, curve in zip(seqs, curves):
        export_prediction(seq, curve, out_dir / f"pred_{seq.id}.csv")
    print(f"wrote {len(seqs)} prediction files to {out_dir}")
    return 0


def _cmd_eval_dtw(args) -> int:
    seqs = _load_output_dataset(args.data)
    if not seqs:
        raise ValueError(f"{args.data}: no sequences to score")
    _check_out_entries(args.out, {"summary.csv",
                                  *(f"align_{seq.id}.csv" for seq in seqs)})
    params, net, norm = load_checkpoint(args.model)
    curves = _finite_predictions(args.model, params, net, norm, seqs)
    try:
        results = score_testset(zip(curves, (seq.weights for seq in seqs)),
                                args.radius)
    except DistanceOverflowError as exc:
        raise ValueError(f"{args.model}: DTW distance for "
                         f"{seqs[exc.pair].id!r} overflows float64") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seq, curve, result in zip(seqs, curves, results):
        export_alignment(result, curve, seq.weights,
                         out_dir / f"align_{seq.id}.csv")
    distances = [result.distance for result in results]
    mean = fmean(distances)
    middle = float(median(distances))
    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("id,distance\n")
        for seq, distance in zip(seqs, distances):
            fh.write(f"{seq.id},{distance!r}\n")
        fh.write(f"mean,{mean!r}\n")
        fh.write(f"median,{middle!r}\n")
        fh.write(f"min,{min(distances)!r}\n")
        fh.write(f"max,{max(distances)!r}\n")
    print(f"scored {len(seqs)} sequences: mean {mean:.6g} "
          f"median {middle:.6g} -> {summary_path}")
    return 0


def _nan_largest(err):
    """Sort key of a gradient error that ranks NaN above every number."""
    return (math.isnan(err), err)


def _cmd_gradcheck(args) -> int:
    errors = []
    for cell in CELLS:
        for head in HEADS:
            err = check_network_gradients(CellKind(cell), head,
                                          seed=args.seed, epsilon=args.eps)
            print(f"{cell}-{head}: max relative error {err:.3e}")
            errors.append(err)
    full = [(err, f"{cell}-{head} {name}") for cell in CELLS for head in HEADS
            for name, err in full_scale_gradient_errors(
                CellKind(cell), head, seed=args.seed, epsilon=args.eps).items()]
    err, where = max(full, key=lambda item: _nan_largest(item[0]))
    print(f"full scale (default stack, train mode): max directional "
          f"error {err:.3e} at {where}")
    worst = max(*errors, err, key=_nan_largest)
    if not worst <= args.tol:
        print(f"error: gradient check failed, {worst:.3e} > {args.tol:.3e}",
              file=sys.stderr)
        return 1
    print(f"gradient check passed at tolerance {args.tol:g}")
    return 0


def _read_curve(path: str):
    """One finite number per non-blank line, at least one; raises
    ValueError naming the file (and the line) otherwise."""
    values = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValueError(f"{path} line {lineno}: not a number: {line!r}")
            if not math.isfinite(value):
                raise ValueError(f"{path} line {lineno}: not finite: {line!r}")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no numbers")
    return values


def _cmd_dtw(args) -> int:
    a = _read_curve(args.a)
    b = _read_curve(args.b)
    try:
        result = dtw_exact(a, b) if args.exact else fastdtw(a, b, args.radius)
    except DistanceOverflowError as exc:
        raise ValueError(f"{args.a}, {args.b}: DTW distance overflows "
                         f"float64") from exc
    print(repr(result.distance))
    return 0


def _keep_heap_mapped() -> None:
    """Keep freed heap memory mapped on glibc, so that each training
    batch reuses the pages the last one freed instead of faulting in
    pages the allocator trimmed. Does nothing without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, its 64-bit maximum
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):
        pass


def run(argv) -> int:
    """Parse and dispatch; returns the process exit code. Sets the
    process's allocator first (see _keep_heap_mapped)."""
    _keep_heap_mapped()
    try:
        args = build_parser().parse_args(argv)
        _check_outputs(args.outputs(args), getattr(args, "data", None))
        return args.func(args)
    except SystemExit as exc:  # argparse's --help
        return 0 if exc.code is None else int(exc.code)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"{exc.filename}: {exc.strerror}"  # the file comes first
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
