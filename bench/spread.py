"""Run-to-run spread of the end-to-end metrics of one workload.

    python3 bench/spread.py --workload factor_studies --runs 10

Runs ``run.py`` once per seed 1 .. runs, one process at a time, for the
``run_seconds`` of ``BENCHMARK.json``, and prints each run's result and each
metric's median, quartiles and quartile spread as a share of the median,
next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<14} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
              f"{(q3 - q1) / med:>8.2%} {bounds.get(name, float('nan')):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
