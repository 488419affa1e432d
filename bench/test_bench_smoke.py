"""Smoke test of the study benchmark at toy size (12 tickers x 400 days).

Checks that every metric BENCHMARK.json names is emitted with its unit, and
that a corrupted reference is reported as a failed op. Asserts no timings.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = "5"


def bench(out: Path, reference: Path, *args: str) -> list[str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--size", "toy", "--seconds", "0",
           "--seed", SEED, "--reference", str(reference), "--out", str(out), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    path = tmp / "reference.json"
    for workload in WORKLOADS:
        bench(tmp, path, "--workload", workload, "--capture")
    return path


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_emitted_with_unit(reference, tmp_path, workload, trace, section):
    result = json.loads(bench(tmp_path, reference, "--workload", workload, "--trace", trace)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_reference_fails_the_op(reference, tmp_path):
    ref = json.loads(reference.read_text())
    row = ref["factor_studies"]["12x400"][SEED]["sfp"]["report.csv"][1]
    row[1] = repr(float(row[1]) + 1.0)
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(ref))
    lines = bench(tmp_path, corrupted, "--workload", "factor_studies", "--trace", "0")
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == 1
    assert any(line.startswith("FAILED pass 0 op sfp:") for line in lines)
