"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload evaluate --seeds 1-10

Runs one process after another from the root of a pournet source tree,
every workload for one seed before the next seed, so that a slow spell of
the host touches all workloads alike. For every end-to-end metric it prints
the median of the per-seed values and their spread, the distance between
the first and third quartile over the median, next to the bound that
BENCHMARK.json fixes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from stats import spread

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    values = {(w, m["name"]): [] for w in args.workload
              for m in spec["end_to_end"]}
    for seed in args.seeds:
        for workload in args.workload:
            result = run_once(workload, seed, seconds)
            ok &= result["correct"]
            print(workload, seed, json.dumps(result), flush=True)
            for name, entry in result["metrics"].items():
                values[(workload, name)].append(entry["value"])
    for workload in args.workload:
        for metric in spec["end_to_end"]:
            series = values[(workload, metric["name"])]
            s = spread(series) if len(series) > 1 else 0.0
            print(f"{workload:10s} {metric['name']:14s} median "
                  f"{median(series):12.5g} {metric['unit']:6s} spread "
                  f"{s:7.4f}  bound {metric['bound']}  "
                  f"{'ok' if s < metric['bound'] / 3 else 'WIDE'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
