"""Study benchmark for semlab.

    python3 bench/run.py --workload features_files --seed 1 --seconds 30 --trace 0

Runs one workload in this process as a closed loop with one client: the
next study starts when the previous one has returned, and passes over the
workload's fixed op list repeat until ``--seconds`` have been measured (at
least one pass). Every op's output is checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Their timings are corrected for the speed of the host: see ``calibrate``.
``setup_s`` is the median of ``SETUP_SAMPLES`` set-ups, this process's own
and those of fresh ``--setup-only`` processes started one after another.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the median traced pass; the spans are written to
``--out`` (default ``.bench_out/``).

``--setup-only`` sets up, prints the set-up time and exits.

``--capture`` runs one pass and stores its observations as the reference for
this workload, size and input seed instead of checking them.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

from time import perf_counter

# setup_s runs from here to the first timed op. Interpreter start-up, before
# this line, is not included.
STARTED = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# Single-threaded BLAS: the studies are single-threaded Python whose BLAS
# calls are on matrices of at most a few hundred rows, and one thread keeps
# runs comparable across core counts. Must be set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DEFAULT_REFERENCE = BENCH_DIR / "reference.json"

# Set-ups per --trace 0 run whose median is setup_s: this process's own and
# SETUP_SAMPLES - 1 in fresh processes, so each sample pays every one-time cost.
SETUP_SAMPLES = 3

# Median time of calibrate() on the host where the bounds were set (2-vCPU
# x86_64 VM, Python 3.11, numpy 2.4). Timings are reported in seconds of that
# host; changing this constant rescales every timing and is a benchmark change.
CALIBRATION_REF_S = 0.033

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s",
                    "op_s_max": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("features_files", "factor_studies", "csv_roundtrip"))
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy = 12 tickers x 400 days, for the smoke test")
    p.add_argument("--reference", default=str(DEFAULT_REFERENCE))
    p.add_argument("--out", default=str(ROOT / ".bench_out"),
                   help="scratch and span files go here")
    p.add_argument("--capture", action="store_true",
                   help="store this pass's observations as the reference")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def environment(args, tickers: int, days: int, seed_in: int, passes) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "workload_seed": args.seed,
        "input_seed": seed_in,
        "tickers": tickers,
        "days": days,
        "ops_per_pass": len(passes[0]),
        "calibration_s": statistics.median(r.calibration for p in passes for r in p),
        "calibration_ref_s": CALIBRATION_REF_S,
    }


def calibrate() -> float:
    """Seconds a fixed loop of interpreted Python and small numpy calls takes.

    The shared host this benchmark was built on changes speed by up to 1.9x
    in phases of ten seconds to minutes, which are as long as a run, so
    medians within a run cannot remove them. The loop runs before and after
    every op, outside its timing. An op's time is reported as measured x
    CALIBRATION_REF_S / (mean of the two loop times): the time it would
    have taken at the reference speed. A change to semlab does not touch the
    loop, so its effect on an op shows in full.
    """
    import numpy as np

    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(20_000.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - start


class OpResult(NamedTuple):
    name: str
    seconds: float  # corrected for host speed
    measured: float  # as measured
    calibration: float  # mean calibrate() time before and after the op
    observation: object
    problems: list


def run_pass(workload, inputs, pass_dir: Path, expected, tracer=None, pass_index=0):
    """One pass over the op list: returns an OpResult per op."""
    import studies

    results = []
    before = calibrate()
    for i, op in enumerate(workload.ops(inputs, str(pass_dir))):
        observation, problems = None, []
        start = perf_counter()
        try:
            result = op.call() if tracer is None else tracer.op((pass_index, i), op.name, op.call)
            measured = perf_counter() - start
            observation = op.observe(result)
        except Exception as exc:  # a failing study is counted, the loop goes on
            measured = perf_counter() - start
            problems = [f"raised {type(exc).__name__}: {exc}"]
        after = calibrate()
        calibration = (before + after) / 2
        seconds = measured * CALIBRATION_REF_S / calibration
        before = after
        if not problems and expected is not None:
            if op.name not in expected:
                problems = ["no reference for this op"]
            else:
                problems = studies.mismatches(observation, expected[op.name])
        results.append(OpResult(op.name, seconds, measured, calibration, observation, problems))
    shutil.rmtree(pass_dir, ignore_errors=True)
    return results


def measure(workload, inputs, workdir: Path, seconds: float, expected):
    """Untraced passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(workload, inputs, workdir / f"pass{len(passes)}", expected))
    return passes


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    # the typical pass: each op's median latency over the passes of the run
    typical = [statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0]))]
    return {
        "setup_s": setup_s,
        "wall_s": sum(typical),
        "op_s_p50": statistics.median(typical),
        "op_s_max": max(typical),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def setup(workload, workdir: Path, tickers: int, days: int, seed_in: int):
    """Input generation and a warm-up pass at toy size, which loads lazy
    imports and fills caches; returns the inputs."""
    import studies

    inputs = workload.prepare(str(workdir), tickers, days, seed_in)
    warm_dir = workdir / "warm"
    warm_dir.mkdir()
    warm_inputs = workload.prepare(str(warm_dir), *studies.TOY_SIZE, seed_in)
    run_pass(workload, warm_inputs, warm_dir / "out", None)
    return inputs


def traced_run(args, workload, inputs, workdir: Path, out: Path, expected):
    """Untraced and traced passes in turn until ``--seconds`` have elapsed,
    so that both sides see the same machine; returns the passes and the
    per-layer metrics of the median traced pass, and writes the spans to
    ``out``."""
    import tracing

    tracer = tracing.Tracer()
    passes, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        n = len(passes)
        if n % 2 == 0:
            passes.append(run_pass(workload, inputs, workdir / f"pass{n}", expected))
            continue
        tracer.install()
        try:
            passes.append(run_pass(workload, inputs, workdir / f"pass{n}", expected, tracer, n))
        finally:
            tracer.uninstall()
        traced.append(tracing.pass_metrics(tracer, [(n, i) for i in range(len(passes[n]))]))
    values = tracing.median_pass(traced)
    wall = [sum(r.seconds for r in p) for p in passes]
    values["trace.overhead_frac"] = statistics.median(wall[1::2]) / statistics.median(wall[::2]) - 1.0
    trace_path = out / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.csv.gz"
    tracer.write(str(trace_path))
    print(f"spans: {trace_path} ({len(tracer.spans)} spans)")
    return passes, values


def setup_in_new_process(args) -> float:
    """setup_s of a fresh ``--setup-only`` process; waits for it to end."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--reference", args.reference,
           "--out", args.out, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"--setup-only exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def load_reference(path: str) -> dict:
    if not os.path.isfile(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def _dump_json(obj, indent: int = 0) -> str:
    """JSON with one line per table row, so reference diffs stay readable."""
    pad = " " * (indent + 1)
    if isinstance(obj, dict) and obj:
        items = [f"{pad}{json.dumps(k)}: {_dump_json(v, indent + 1)}" for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(obj, list) and any(isinstance(v, (list, dict)) for v in obj):
        items = [pad + _dump_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    return json.dumps(obj)


def capture(args, workload, inputs, workdir: Path, size_key: str, seed_in: int) -> int:
    (results,) = measure(workload, inputs, workdir, 0.0, None)
    broken = [f"{r.name}: {r.problems[0]}" for r in results if r.problems]
    if broken:
        print("capture failed: " + "; ".join(broken), file=sys.stderr)
        return 1
    reference = load_reference(args.reference)
    entry = reference.setdefault(args.workload, {}).setdefault(size_key, {})
    entry[str(seed_in)] = {r.name: r.observation for r in results}
    with open(args.reference, "w") as fh:
        fh.write(_dump_json(reference) + "\n")
    print(f"captured {args.workload} {size_key} input seed {seed_in} into {args.reference}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semlab" / "__init__.py").is_file():
        print(f"semlab sources not found at {SRC / 'semlab'}", file=sys.stderr)
        return 2
    # the checkout's own sources, never an installed copy
    sys.path.insert(0, str(SRC))
    import semlab  # noqa: F401
    import studies
    import tracing

    if Path(semlab.__file__).resolve().parent != (SRC / "semlab").resolve():
        print(f"imported semlab from {semlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = studies.WORKLOADS[args.workload]
    tickers, days = studies.FULL_SIZES[args.workload] if args.size == "full" else studies.TOY_SIZE
    size_key = f"{tickers}x{days}"
    seed_in = studies.input_seed(args.seed)
    out = Path(args.out)
    workdir = out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.capture:
            inputs = workload.prepare(str(workdir), tickers, days, seed_in)
            return capture(args, workload, inputs, workdir, size_key, seed_in)
        inputs = setup(workload, workdir, tickers, days, seed_in)
        expected = load_reference(args.reference).get(args.workload, {}).get(size_key, {}).get(str(seed_in))
        setup_seconds = (perf_counter() - STARTED) * CALIBRATION_REF_S / calibrate()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_seconds}))
            return 0
        if args.trace == 0:
            samples = [setup_seconds] + [setup_in_new_process(args) for _ in range(SETUP_SAMPLES - 1)]
            print("setup samples, corrected (s): " + " ".join(f"{s:.3f}" for s in samples))
            passes = measure(workload, inputs, workdir, args.seconds, expected)
            values = end_to_end(passes, statistics.median(samples))
            units = END_TO_END_UNITS
        else:
            passes, values = traced_run(args, workload, inputs, workdir, out, expected)
            units = tracing.metric_units()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed = 0
    for n, p in enumerate(passes):
        for r in p:
            if r.problems:
                failed += 1
                print(f"FAILED pass {n} op {r.name}: " + "; ".join(r.problems[:5]))
    if expected is None:
        print(f"FAILED no reference for {args.workload} {size_key} input seed {seed_in}")

    env = environment(args, tickers, days, seed_in, passes)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {env['ops_per_pass']} ops per pass, {len(passes)} passes, "
          f"{failed} of {attempted} ops failed")
    print("pass wall times, corrected (s): " + " ".join(f"{sum(r.seconds for r in p):.3f}" for p in passes))
    print("pass wall times, measured (s):  " + " ".join(f"{sum(r.measured for r in p):.3f}" for p in passes))
    if args.trace == 0:
        print(f"  {'error_frac':<28} {failed / attempted:.6g} ratio")
    for name in sorted(values):
        print(f"  {name:<28} {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and expected is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
