"""Command line interface.

Subcommands:

* ``simulate``: run a Monte Carlo experiment from a JSON config, writing
  ``report.json`` and ``per_rep.csv`` under the output directory.
* ``sweep``: the same, repeated along a candidate-count or sample-fraction
  axis; writes ``sweep.json`` plus per-value CSVs.
* ``select``: one-shot selection on an ingested dataset/prediction pair,
  printing the selection result as JSON. Selectors that share a split
  layout share its split, nuisance fits and loss matrix.
* ``diagnose``: normality (``clt``) or perturbation-stability
  (``stability``) diagnostics, written as JSON plus CSV.

Every JSON output is strict: a non-finite float is written as ``null``.
Exit codes: 0 on success, 1 on configuration, usage or input errors
(including inputs a selector cannot score), 2 on runtime failures and,
with nothing printed, when the reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from pathlib import Path

from .datagen import ingest_dataset, ingest_predictions
from .harness import (
    ConfigError,
    ExperimentConfig,
    check_selector_names,
    clt_diagnostic,
    load_experiment_config,
    run_experiment,
    stability_diagnostic,
    strict_json,
    sweep,
    write_per_rep_csv,
)
from .selectors import TAILS, SelectorConfig, run_selectors

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


def _add_common_overrides(parser: argparse.ArgumentParser) -> None:
    """Config overrides every config-driven command reads."""
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="exponential weighting temperature (default n^0.4)",
    )
    parser.add_argument("--inner-folds", type=int, default=None, help="inner fold count")


def _add_experiment_overrides(parser: argparse.ArgumentParser) -> None:
    """The common overrides plus those only ``simulate`` and ``sweep`` read."""
    _add_common_overrides(parser)
    parser.add_argument(
        "--selectors",
        default=None,
        help="comma-separated selector names (naive,bonferroni,proposed,ablation)",
    )
    parser.add_argument("--alpha", type=float, default=None, help="significance level")
    parser.add_argument("--reps", type=int, default=None, help="number of repetitions")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cateselect", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--config", required=True, help="JSON experiment config")
    _add_experiment_overrides(p_sim)

    p_sweep = sub.add_parser("sweep", help="run an experiment along an axis")
    p_sweep.add_argument("--config", required=True, help="JSON experiment config")
    p_sweep.add_argument(
        "--axis",
        required=True,
        choices=["candidate-count", "sample-fraction"],
    )
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated axis values, strictly increasing"
    )
    _add_experiment_overrides(p_sweep)

    p_sel = sub.add_parser("select", help="one-shot selection on CSV inputs")
    p_sel.add_argument("--data", required=True, help="dataset CSV (x_0,...,t,y)")
    p_sel.add_argument("--preds", required=True, help="predictions CSV (tau_0,...)")
    p_sel.add_argument("--alpha", type=float, default=SelectorConfig.alpha)
    p_sel.add_argument("--lambda", dest="lam", type=float, default=SelectorConfig.lam)
    p_sel.add_argument("--inner-folds", type=int, default=SelectorConfig.inner_folds)
    p_sel.add_argument("--seed", type=int, default=SelectorConfig.seed)
    p_sel.add_argument("--selectors", default="proposed")

    p_diag = sub.add_parser("diagnose", help="run CLT or stability diagnostics")
    p_diag.add_argument("kind", choices=["clt", "stability"])
    p_diag.add_argument("--config", required=True, help="JSON experiment config")
    p_diag.add_argument("--datasets", type=int, default=100, help="clt: dataset replicates")
    p_diag.add_argument("--bootstrap", type=int, default=500, help="clt: bootstrap draws")
    p_diag.add_argument(
        "--grid", default="500,1000,2000,4000", help="stability: comma-separated sizes"
    )
    p_diag.add_argument("--probes", type=int, default=50, help="stability: probes per size")
    _add_common_overrides(p_diag)

    return parser


def _parse_selector_list(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "selectors", None) is not None:
        updates["selectors"] = _parse_selector_list(args.selectors)
    if getattr(args, "alpha", None) is not None:
        updates["alpha"] = args.alpha
    if args.lam is not None:
        updates["lam"] = args.lam
    if args.inner_folds is not None:
        updates["inner_folds"] = args.inner_folds
    if getattr(args, "reps", None) is not None:
        updates["repetitions"] = args.reps
    if not updates:
        return config
    try:
        return dataclasses.replace(config, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _print_summary(report) -> None:
    for name, s in sorted(report.summaries.items()):
        print(
            f"{name}: fwer={s.fwer:.4f} [{s.fwer_ci[0]:.4f}, {s.fwer_ci[1]:.4f}] "
            f"anws={s.anws:.4f} [{s.anws_ci[0]:.4f}, {s.anws_ci[1]:.4f}] reps={s.reps}"
        )


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_experiment_config(args.config), args)
    report = run_experiment(config)
    report.write(args.out)
    _print_summary(report)
    print(f"wrote {Path(args.out) / 'report.json'} and per_rep.csv")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_experiment_config(args.config), args)
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
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "axis": axis,
        "values": [p.value for p in points],
        "reports": [p.report.to_dict() for p in points],
    }
    (out / "sweep.json").write_text(strict_json(payload, indent=2, sort_keys=True) + "\n")
    for point in points:
        write_per_rep_csv(point.report.records, out / f"per_rep_{point.value}.csv")
        print(f"--- {axis} = {point.value}")
        _print_summary(point.report)
    print(f"wrote {out / 'sweep.json'}")
    return EXIT_OK


def _cmd_select(args: argparse.Namespace) -> int:
    try:
        selectors = _parse_selector_list(args.selectors)
        check_selector_names(selectors, TAILS)
        config = SelectorConfig(
            alpha=args.alpha, lam=args.lam, inner_folds=args.inner_folds, seed=args.seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        dataset = ingest_dataset(args.data)
        candidates = ingest_predictions(args.preds, dataset.n)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        results = run_selectors(dataset, candidates, config, selectors)
    except ValueError as exc:
        # inputs a selector cannot score, e.g. overflowing losses; RuntimeError stays exit 2
        raise ConfigError(f"cannot select on --data {args.data} and --preds {args.preds}: {exc}") from exc
    if len(results) == 1:
        print(strict_json(results[0].to_dict(), indent=2))
    else:
        print(strict_json([r.to_dict() for r in results], indent=2))
    return EXIT_OK


def _cmd_diagnose(args: argparse.Namespace) -> int:
    config = _apply_overrides(load_experiment_config(args.config), args)
    out = Path(args.out)
    if args.kind == "clt":
        report = clt_diagnostic(config, datasets=args.datasets, bootstrap_draws=args.bootstrap)
        out.mkdir(parents=True, exist_ok=True)
        (out / "clt.json").write_text(strict_json(report.to_dict(), indent=2, sort_keys=True) + "\n")
        with open(out / "clt_pairs.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dataset", "r", "s", "ks_p", "adjusted_p"])
            for entry in report.per_dataset:
                for pair in entry["pairs"]:
                    writer.writerow(
                        [entry["dataset"], pair["r"], pair["s"], pair["ks_p"], pair["adjusted_p"]]
                    )
        print(f"clt rejection share: {report.rejection_share:.3f} over {report.datasets} datasets")
        print(f"wrote {out / 'clt.json'}")
    else:
        try:
            grid = [int(v) for v in args.grid.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"cannot parse stability grid {args.grid!r}") from exc
        report = stability_diagnostic(grid, config, probes=args.probes)
        out.mkdir(parents=True, exist_ok=True)
        (out / "stability.json").write_text(
            strict_json(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        with open(out / "stability.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "delta1", "delta2"])
            for n, d1, d2 in zip(report.n_grid, report.delta1, report.delta2):
                writer.writerow([n, d1, d2])
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
        args = parser.parse_args(argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "select": _cmd_select,
        "diagnose": _cmd_diagnose,
    }
    try:
        code = handlers[args.command](args)
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


def entry() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    entry()
