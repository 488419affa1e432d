"""Command-line surface: ``run <config>``, ``validate <paths>``, ``synth <spec> <seed>``.

Exit codes: 0 ok, 1 configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from ._grid import header_names, write_json
from .errors import ConfigError, LabError
from .experiments import ExperimentConfig, run, validate_inputs
from .panels import PANEL_HEADER, write_price_panel
from .signals import AXES, CACHE_HEADER, ArticleTable, write_article_scores
from .synth import SyntheticSpec, synth_panel

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    paths = run(cfg)
    for p in paths:
        print(p)
    return EXIT_OK


def _sniff(path: str) -> str:
    """The ``validate_inputs`` argument a file is for, by the first three
    column names of its header, read as the loaders read them."""
    header = header_names(path)
    for kind, names in (("price_panel", PANEL_HEADER), ("signal_cache", CACHE_HEADER)):
        if header[:3] == names[:3]:
            return kind
    raise LabError(f"{path}: unrecognised header {','.join(header)!r}")


def _cmd_validate(args: argparse.Namespace) -> int:
    given: dict[str, str] = {}
    for path in args.paths:
        if not os.path.exists(path):
            print(f"[FAIL] {path}: no such file")
            return EXIT_DATA
        kind = _sniff(path)
        if kind in given:
            raise ConfigError(f"two {kind} files given, {given[kind]} and {path}: "
                              "validate checks at most one of each kind")
        given[kind] = path
    report = validate_inputs(**given)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_DATA


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.seed < 0:  # numpy's generators take none
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    spec = SyntheticSpec.from_file(args.spec)
    panel, signals, truth = synth_panel(spec, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    prices_path = os.path.join(args.out, "prices.csv")
    cache_path = os.path.join(args.out, "signals.csv")
    truth_path = os.path.join(args.out, "truth.json")
    write_price_panel(panel, prices_path)
    # one article per covered cell, in (date, ticker) order
    ii, jj = np.nonzero(signals.non_neutral)
    articles = ArticleTable(
        source_ids=[f"synth-{i}-{j}" for i, j in zip(ii.tolist(), jj.tolist())],
        tickers=np.asarray(signals.tickers, dtype=object)[jj].tolist(),
        dates=np.asarray(signals.dates, dtype=object)[ii].tolist(),
        scores=signals.values[ii, jj].astype(np.int64),
    )
    write_article_scores(articles, cache_path)
    write_json(truth_path, {
        "beta": {axis: b for axis, b in zip(AXES, truth.beta)},
        "beta_tickers": list(truth.beta_tickers),
        "horizon": truth.horizon,
        "coverage": list(truth.coverage),
        "seed": args.seed,
    })
    print(prices_path)
    print(cache_path)
    print(truth_path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="semlab",
        description="Sparse semantic signal laboratory: experiments, input checks, synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check input files against the documented invariants")
    p_val.add_argument("paths", nargs="+", help="price panel and/or article score cache files")
    p_val.set_defaults(func=_cmd_validate)

    p_syn = sub.add_parser("synth", help="generate a seeded synthetic panel")
    p_syn.add_argument("spec", help="path to the synthetic-spec JSON")
    p_syn.add_argument("seed", type=int, help="generator seed (overrides the spec's)")
    p_syn.add_argument("--out", default="synth_out", help="output directory")
    p_syn.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LabError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
