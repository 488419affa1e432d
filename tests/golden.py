"""The determinism contract as a committed table: the sha256 of every file
that every experiment kind writes on two fixed small inputs, and of the
``semlab synth`` output the second input is built from.

Input ``inline`` is the ``SYNTH`` spec of ``test_experiments.py``. Input
``files`` is a ``semlab synth`` panel read back from disk, with an article
cache that holds a few unplaced articles (an unknown ticker and dates outside
the calendar), a dense feature block, and a universe that leaves one ticker
out. Every path is relative to the working directory, so the manifests, which
record them, do not depend on where the run happens. The manifests also keep
the numpy version: a numpy upgrade changes their digests and fails the test
loudly, on purpose.

    python tests/golden.py --write    # regenerate tests/golden_artifacts.json

A change that regenerates the table says which files changed and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLE = HERE / "golden_artifacts.json"
sys.path.insert(0, str(HERE.parent / "src"))  # run as a script without PYTHONPATH

from semlab import ExperimentConfig, run  # noqa: E402
from semlab.cli import main as cli_main  # noqa: E402
from semlab.experiments import KINDS  # noqa: E402

from test_experiments import UNRANKED, config_dict  # noqa: E402

SYNTH_FILES = {"tickers": 6, "days": 420, "seed": 5, "coverage": 0.5, "beta": [0.004, 0, 0, 0]}
UNPLACED = ("x-1,ZZZ,2015-03-02,5,3,3,3\n"          # ticker outside the panel
            "x-2,SYN01,2014-12-31,1,3,3,3\n"        # before the calendar
            "x-3,SYN02,2016-12-30,4,2,3,3\n")       # after the calendar


def kind_params(kind: str, source: str) -> dict:
    """The params each kind runs with: small grids, and the forecaster with
    its tilt and, on the file input, the dense block."""
    params = {} if kind in UNRANKED else {"k": 3}
    if kind == "forecaster":
        blocks = ["price", "semantic"] + (["dense"] if source == "files" else [])
        params.update(blocks=blocks, lambda_grid=[1e-3, 1.0], tilt_grid=[0.0, 0.5],
                      min_stock_days=100)
    if kind == "cost_sweep":
        params.update(costs=[0.0, 0.002])
    if kind == "env_eval":
        params.update(n_seeds=2, policy="signal_threshold")
    if kind == "stratified":
        params.update(k_per_stratum=2)
    return params


def _write_inputs() -> dict:
    """``semlab synth`` into data/, then the article cache with unplaced rows
    and the dense block; returns the ``data`` config of the file input."""
    Path("spec.json").write_text(json.dumps(SYNTH_FILES))
    if cli_main(["synth", "spec.json", "5", "--out", "data"]) != 0:
        raise RuntimeError("semlab synth failed")
    cache = Path("data/signals.csv").read_text()
    Path("articles.csv").write_text(cache + UNPLACED)
    prices = Path("data/prices.csv").read_text().splitlines()[1:]
    rows = [line.split(",")[:2] for line in prices]
    Path("dense.csv").write_text("date,ticker,f0,f1\n" + "".join(
        f"{d},{t},{(i * 7) % 13 / 10},{(i * 3) % 5 - 2}\n"
        for i, (d, t) in enumerate(rows)))
    return {"price_panel": "data/prices.csv", "signal_cache": "articles.csv",
            "dense_blocks": {"dense": "dense.csv"}}


def digest() -> dict[str, str]:
    """Write the inputs and run every kind on both, in the current directory;
    returns the sha256 of each file there, by its relative path."""
    files = _write_inputs()
    for source in ("inline", "files"):
        for kind in KINDS:
            raw = config_dict(kind, f"{source}/{kind}", params=kind_params(kind, source))
            if source == "files":
                raw["data"] = files
                raw["universe"] = ["SYN00", "SYN01", "SYN02", "SYN03", "SYN05"]
            run(ExperimentConfig.from_dict(raw))
    return {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(".").rglob("*")) if p.is_file()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {TABLE.name}")
    args = parser.parse_args(argv)
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            table = digest()
        finally:
            os.chdir(start)
    if args.write:
        TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests to {TABLE}")
        return 0
    want = json.loads(TABLE.read_text())
    changed = sorted(k for k in set(table) | set(want) if table.get(k) != want.get(k))
    for name in changed:
        print(f"differs: {name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
