"""Batch command-line harness.

Subcommands:

* ``forecast``: forecast each series in a file of ``id,period,y_1..y_n`` rows.
* ``evaluate``: score methods over an evaluation dataset and emit the
  per-series scores, aggregate table, forecasts and average ranks.
* ``synth``: write a seeded synthetic corpus in the dataset format.

Exit code 0 on success, 2 on fatal configuration errors; diagnostics go to
stderr. Per-series method failures during ``evaluate`` are recorded in the
outputs and do not abort the batch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dataset import (
    check_unique_ids, load_dataset, read_rows, save_dataset, synthetic_dataset,
)
from .groe import APPROACHES, COST_FUNCTIONS, DEFAULT_THETA_GRID
from .pipeline import MethodSpec, run_method
from .runner import FORECASTS_HEADER, ExperimentConfig, forecast_row, run_experiment
from .series import TimeSeries
from .smoothing import FAMILIES
from .theta import LINE_EXTRAPOLATORS

BENCHMARK_TOKENS = {family.replace("_", "-"): family for family in FAMILIES}
DEFAULT_HORIZONS = {12: 18, 4: 8}  # by period; anything else defaults to 6


def parse_method_token(token: str, cost: str, extrapolator: str, grid) -> MethodSpec:
    token = token.strip().lower()
    if token == "theta":
        return MethodSpec.classic_theta()
    if token.startswith("otm-"):
        return MethodSpec.otm(token[len("otm-"):], cost=cost, extrapolator=extrapolator, grid=grid)
    if token in BENCHMARK_TOKENS:
        return MethodSpec.benchmark(BENCHMARK_TOKENS[token], name=token)
    valid = ["theta", *(f"otm-{a}" for a in APPROACHES), *BENCHMARK_TOKENS]
    raise ValueError(f"unknown method {token!r}; expected one of {valid}")


def _parse_grid(text: str | None):
    if text is None:
        return DEFAULT_THETA_GRID
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"grid must be comma-separated numbers, got {text!r}") from None


def _parse_series_row(fields: list[str]) -> TimeSeries:
    if len(fields) < 3:
        raise ValueError("expected id,period,y_1..y_n")
    try:
        period = int(fields[1])
        values = np.array([float(v) for v in fields[2:]])
    except ValueError:
        raise ValueError("non-numeric field") from None
    return TimeSeries(fields[0], values, period)


def _cmd_forecast(args) -> int:
    if args.h is not None and args.h < 1:
        raise ValueError(f"--h must be >= 1, got {args.h}")
    spec = parse_method_token(args.method, args.cost, args.extrapolator, _parse_grid(args.grid))
    series_list = read_rows(args.input, _parse_series_row)
    # output rows are keyed by (id, method), as in evaluate
    check_unique_ids(series.id for series in series_list)
    lines = [FORECASTS_HEADER]
    failures = 0
    for series in series_list:
        h = args.h if args.h is not None else DEFAULT_HORIZONS.get(series.period, 6)
        try:
            result = run_method(series, h, spec)
        except Exception as exc:
            failures += 1
            print(f"optitheta: series {series.id!r} failed: {exc}", file=sys.stderr)
            continue
        lines.append(forecast_row(result))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if failures < len(series_list) else 1


def _cmd_evaluate(args) -> int:
    grid = _parse_grid(args.grid)
    methods = tuple(
        parse_method_token(token, args.cost, args.extrapolator, grid)
        for token in args.methods.split(",")
        if token.strip()
    )
    dataset = load_dataset(args.data)
    config = ExperimentConfig(methods=methods, workers=args.workers, out_dir=Path(args.out_dir))
    config.out_dir.mkdir(parents=True, exist_ok=True)  # fail before any cell runs
    result = run_experiment(dataset, config)
    for score in result.scores:
        if score.error is not None:
            print(f"optitheta: {score.method} failed on {score.series_id}: {score.error}",
                  file=sys.stderr)
    if result.rank_smape is None and len(methods) > 1:
        print("optitheta: rank table skipped (incomplete score matrix)", file=sys.stderr)
    header = f"{'method':<18}{'group':<12}{'n':>6}{'sMAPE':>10}{'MASE':>8}{'time(s)':>10}"
    print(header)
    for row in result.table:
        smape_text = "-" if row.smape_mean is None else f"{row.smape_mean:.2f}"
        mase_text = "-" if row.mase_mean is None else f"{row.mase_mean:.2f}"
        print(f"{row.method:<18}{row.group:<12}{row.n_series:>6}{smape_text:>10}"
              f"{mase_text:>8}{row.elapsed:>10.2f}")
    print(f"outputs written to {args.out_dir}")
    return 0


def _cmd_synth(args) -> int:
    counts = {"Yearly": args.yearly, "Quarterly": args.quarterly,
              "Monthly": args.monthly, "Other": args.other}
    dataset = synthetic_dataset(args.seed, counts)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} series to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optitheta",
        description="Optimised-theta forecasting and M3-style batch evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fc = sub.add_parser("forecast", help="forecast every series in a file")
    fc.add_argument("--input", required=True, help="series file: id,period,y_1..y_n rows")
    fc.add_argument("--h", type=int, default=None,
                    help="forecast horizon (default: 18 monthly, 8 quarterly, else 6)")
    fc.add_argument("--method", default="otm-a", help="method token (default otm-a)")
    fc.add_argument("--out", default=None, help="output file (default stdout)")
    _add_otm_flags(fc)
    fc.set_defaults(func=_cmd_forecast)

    ev = sub.add_parser("evaluate", help="score methods over an evaluation dataset")
    ev.add_argument("--data", required=True, help="dataset file (see README for the format)")
    ev.add_argument("--methods", required=True,
                    help="comma-separated tokens, e.g. theta,otm-a,otm-d,naive,ses")
    ev.add_argument("--workers", type=int, default=1, help="helper processes that run the series (1: run them in this process)")
    ev.add_argument("--out-dir", required=True, help="directory for the output tables")
    _add_otm_flags(ev)
    ev.set_defaults(func=_cmd_evaluate)

    sy = sub.add_parser("synth", help="write a seeded synthetic corpus")
    sy.add_argument("--out", required=True, help="output dataset file")
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--yearly", type=int, default=8)
    sy.add_argument("--quarterly", type=int, default=8)
    sy.add_argument("--monthly", type=int, default=8)
    sy.add_argument("--other", type=int, default=6)
    sy.set_defaults(func=_cmd_synth)
    return parser


def _add_otm_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cost", choices=tuple(COST_FUNCTIONS), default="se",
                     help="validation cost for OTM methods")
    sub.add_argument("--extrapolator", choices=LINE_EXTRAPOLATORS, default="ses",
                     help="theta-line extrapolator for OTM methods")
    sub.add_argument("--grid", default=None,
                     help="theta grid override, comma-separated (default 1,1.5,...,5)")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"optitheta: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
