"""Run one pournet benchmark workload and print its result.

    python3 perfbench/run.py --workload train_gru --seed 1 --seconds 15 --trace 0

Run it from the root of a pournet source tree: the program is imported from
./src and BENCHMARK.json names the metrics to print. With --trace 0 the last
line of output is the result with every end-to-end metric; with --trace 1 it
carries the per-layer metrics of a traced run. The line before it is a
report with the environment, the determinism fingerprint, workload-specific
figures and any failed checks. Scratch files go under ./.bench_out.
"""

import time

_START = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tree_digest(paths, root):
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git(*args):
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None or status is None else bool(status),
        "source_sha256": tree_digest((SRC / "pournet").rglob("*.py"), SRC),
        "benchmark_sha256": tree_digest(HERE.glob("*.py"), HERE),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# what a fingerprint depends on besides the seed: the program, the
# benchmark's own code and the numeric stack
FINGERPRINT_ENV = ("source_sha256", "benchmark_sha256", "python", "numpy",
                   "blas")


def fingerprint_key(env):
    return hashlib.sha256(json.dumps(
        [env[name] for name in FINGERPRINT_ENV]).encode()).hexdigest()


def check_fingerprint(workload, seed, key, fingerprint, ledger):
    """Compare with the fingerprint an earlier run of this seed stored
    under the same key."""
    store = OUT / "fingerprints" / f"{workload}-seed{seed}-{key[:16]}.json"
    problems = []
    if store.exists():
        earlier = json.loads(store.read_text())
        if earlier != fingerprint:
            problems.append(f"differs from {store.name}: {earlier} != "
                            f"{fingerprint}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(fingerprint, sort_keys=True))
    ledger.record("fingerprint matches earlier runs of this seed", problems)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pournet" / "__init__.py").is_file():
        print(f"error: no pournet sources under {SRC}; run from the root of "
              f"a pournet source tree", file=sys.stderr)
        return 2
    # one process; pin BLAS to one thread unless the caller chose a count
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy
    import pournet
    import harness
    from workloads import WORKLOADS, Ledger, quality, throughput

    if Path(pournet.__file__).resolve().parent != (SRC / "pournet").resolve():
        print(f"error: imported pournet from {pournet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    env = environment(args, numpy)
    wl = WORKLOADS[args.workload]()
    ledger = Ledger()
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            tracer, plain, spanned = harness.traced_run(wl, args.seed, workdir,
                                                        ledger)
            values = {**harness.layer_metrics(tracer, plain, spanned),
                      **quality(wl)}
            samples = spanned
            spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(spans_path)
            wanted = spec["per_layer"]
        else:
            first_reading, setups, samples = harness.untraced_run(
                wl, args.seed, args.seconds, workdir, ledger)
            wanted = spec["end_to_end"]
        fingerprint = wl.fingerprint()
        check_fingerprint(args.workload, args.seed, fingerprint_key(env),
                          fingerprint, ledger)
        if not args.trace:
            values = harness.end_to_end_metrics(import_s, first_reading,
                                                setups, samples, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"environment": env, "fingerprint": fingerprint,
              "operations": len(samples), "seq_per_s": throughput(samples),
              "import_s": import_s,
              "setups_s": [] if args.trace else setups,
              "calibration_s": [s.host_s for s in samples],
              "details": wl.details(samples), "failures": ledger.failures}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
