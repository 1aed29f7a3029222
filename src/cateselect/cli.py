"""Command line interface.

Subcommands:

* ``simulate``: run a Monte Carlo experiment from a JSON config, writing
  ``report.json`` and ``per_rep.csv`` under the output directory.
* ``sweep``: the same, repeated along a candidate-count or sample-fraction
  axis; writes ``sweep.json`` plus per-value CSVs.
* ``select``: one-shot selection on an ingested dataset/prediction pair,
  printing the selection result as JSON. Selectors that share a split
  layout share its split, nuisance fits and loss matrix.
* ``diagnose clt`` and ``diagnose stability``: the normality and
  perturbation-stability studies of the ``diagnostics`` module, written as
  JSON plus CSV. Both score on the config's split layout: the two-way split
  when any selector uses it, the one-fold split for an ablation-only config.

A study's settings live in its config file: the study commands' flags only
name it, place its output and size the run, and ``select``, which has no
config file, declares its selector settings. Every JSON output is strict: a
non-finite float is written as ``null``. Exit codes: 0 on success, 1 on
configuration, usage or input errors (including inputs a selector cannot
score), 2 on runtime failures and, with nothing printed, when the reader
of stdout closes it early.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Any, Callable

from .datagen import ingest_dataset, ingest_predictions, write_csv
from .harness import (
    ConfigError,
    ExperimentConfig,
    load_experiment_config,
    run_experiment,
    strict_json,
    sweep,
    write_json,
    write_per_rep_csv,
)
from .selectors import SelectorConfig, check_selector_names, select

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str) -> None:
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(self, message)


def _parse_selector_list(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _config_command(sub: Any, name: str, help_text: str, run: Callable) -> argparse.ArgumentParser:
    """A subcommand that runs a JSON experiment config."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.set_defaults(run=run, command_parser=parser)
    return parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="cateselect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = _config_command(sub, "simulate", "run a Monte Carlo experiment", _cmd_simulate)
    p_sweep = _config_command(sub, "sweep", "run an experiment along an axis", _cmd_sweep)
    for p in (p_sim, p_sweep):
        p.add_argument("--reps", type=int, help="number of repetitions (default: the config's)")
    p_sweep.add_argument("--axis", required=True, choices=["candidate-count", "sample-fraction"])
    p_sweep.add_argument("--values", required=True, help="comma-separated, strictly increasing")

    p_sel = sub.add_parser("select", help="one-shot selection on CSV inputs")
    p_sel.add_argument("--data", required=True, help="dataset CSV (x_0,...,t,y)")
    p_sel.add_argument("--preds", required=True, help="predictions CSV (tau_0,...)")
    p_sel.add_argument("--alpha", type=float, default=SelectorConfig.alpha, help="significance level")
    p_sel.add_argument(
        "--lambda", dest="lam", type=float, default=SelectorConfig.lam,
        help="exponential weighting temperature (default n^0.4)",
    )
    p_sel.add_argument("--seed", type=int, default=SelectorConfig.seed, help="random seed, at least 0")
    p_sel.add_argument(
        "--selectors", type=_parse_selector_list, default=("proposed",),
        help="comma-separated selector names",
    )
    p_sel.set_defaults(run=_cmd_select, command_parser=p_sel)

    p_diag = sub.add_parser("diagnose", help="run CLT or stability diagnostics")
    kinds = p_diag.add_subparsers(dest="kind", required=True)
    p_clt = _config_command(kinds, "clt", "normality scan of the pair statistics", _cmd_clt)
    p_clt.add_argument("--datasets", type=int, default=100, help="dataset replicates")
    p_clt.add_argument("--bootstrap", type=int, default=500, help="bootstrap draws")
    p_stab = _config_command(kinds, "stability", "perturbation-stability scan", _cmd_stability)
    p_stab.add_argument("--grid", default="500,1000,2000,4000", help="comma-separated sizes")
    p_stab.add_argument("--probes", type=int, default=50, help="probes per size")

    return parser


def _load_study(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's study, at ``--reps`` repetitions when that is given."""
    config = load_experiment_config(args.config)
    reps = config.repetitions if args.reps is None else args.reps
    try:
        return dataclasses.replace(config, repetitions=reps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _print_summary(report) -> None:
    for name, s in sorted(report.summaries.items()):
        print(
            f"{name}: fwer={s.fwer:.4f} [{s.fwer_ci[0]:.4f}, {s.fwer_ci[1]:.4f}] "
            f"anws={s.anws:.4f} [{s.anws_ci[0]:.4f}, {s.anws_ci[1]:.4f}] reps={s.reps} "
            f"failed={report.config.repetitions - s.reps}"
        )
    if report.failures:
        (rep, message), count = report.failures[0], len(report.failures)
        print(f"{count} selector runs failed; the first, in rep {rep}: {message}", file=sys.stderr)


def _cmd_simulate(args: argparse.Namespace) -> int:
    report = run_experiment(_load_study(args))
    report.write(args.out)
    _print_summary(report)
    print(f"wrote {Path(args.out) / 'report.json'} and per_rep.csv")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_study(args)
    axis = args.axis.replace("-", "_")
    try:
        if axis == "candidate_count":
            values = [int(v) for v in args.values.split(",") if v.strip()]
        else:
            values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep values {args.values!r}: {exc}") from exc
    points = sweep(config, axis, values)
    out = Path(args.out)
    payload = {
        "axis": axis,
        "values": [p.value for p in points],
        "reports": [p.report.to_dict() for p in points],
    }
    write_json(out / "sweep.json", payload)
    for point in points:
        write_per_rep_csv(point.report.records, out / f"per_rep_{point.value}.csv")
        print(f"--- {axis} = {point.value}")
        _print_summary(point.report)
    print(f"wrote {out / 'sweep.json'}")
    return EXIT_OK


def _cmd_select(args: argparse.Namespace) -> int:
    try:
        check_selector_names(args.selectors)
        config = SelectorConfig(alpha=args.alpha, lam=args.lam, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        dataset = ingest_dataset(args.data)
        candidates = ingest_predictions(args.preds, dataset.n)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        results = select(dataset, candidates, config, args.selectors)
    except ValueError as exc:
        # inputs a selector cannot score, e.g. overflowing losses; RuntimeError stays exit 2
        raise ConfigError(f"cannot select on --data {args.data} and --preds {args.preds}: {exc}") from exc
    if len(results) == 1:
        print(strict_json(results[0].to_dict(), indent=2))
    else:
        print(strict_json([r.to_dict() for r in results], indent=2))
    return EXIT_OK


def _cmd_clt(args: argparse.Namespace) -> int:
    # imported here, as in _cmd_stability: no other command runs a diagnostic
    from .diagnostics import clt_diagnostic

    config = load_experiment_config(args.config)
    report = clt_diagnostic(config, datasets=args.datasets, bootstrap_draws=args.bootstrap)
    out = Path(args.out)
    write_json(out / "clt.json", dataclasses.asdict(report))
    write_csv(
        out / "clt_pairs.csv",
        ["dataset", "r", "s", "ks_p", "adjusted_p"],
        (
            [entry["dataset"], pair["r"], pair["s"], pair["ks_p"], pair["adjusted_p"]]
            for entry in report.per_dataset
            for pair in entry["pairs"]
        ),
    )
    print(f"clt rejection share: {report.rejection_share:.3f} over {report.datasets} datasets")
    print(f"wrote {out / 'clt.json'}")
    return EXIT_OK


def _cmd_stability(args: argparse.Namespace) -> int:
    from .diagnostics import stability_diagnostic

    config = load_experiment_config(args.config)
    try:
        grid = [int(v) for v in args.grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse stability grid {args.grid!r}") from exc
    report = stability_diagnostic(grid, config, probes=args.probes)
    out = Path(args.out)
    write_json(out / "stability.json", dataclasses.asdict(report))
    write_csv(
        out / "stability.csv", ["n", "delta1", "delta2"], zip(report.n_grid, report.delta1, report.delta2)
    )
    print(
        f"stability slopes: first-order {report.slope_delta1_sq:.3f}, "
        f"second-order {report.slope_delta2_sq:.3f}"
    )
    print(f"wrote {out / 'stability.json'}")
    return EXIT_OK


def cli(argv: list[str] | None = None) -> int:
    """Entry point returning a process exit code."""
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported by the command's own parser, whose usage line names it
            args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away: say nothing, and send the exit-time flush to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_RUNTIME
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure exit code
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

