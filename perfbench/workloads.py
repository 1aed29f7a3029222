"""The benchmark's workloads.

A workload builds its inputs from the workload seed, then runs closed-loop
*studies*: each study starts after the previous one returns. Study ``i`` of
workload seed ``s`` runs the program with seed ``s * STUDY_STRIDE + i``, so
every study works on fresh data and no two seeds share a study.

A study returns an ``Outcome``: how many operations it attempted and how
many failed, its checkable outputs (``decisions`` and ``values``), and the
problems found by checks that need no reference.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from cateselect.datagen import (
    COMPETITIVE_PLUS_INFERIOR_SPECS,
    NEAR_TIED_SPECS,
    generate_toy,
    make_candidates,
)
from cateselect.harness import (
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
    sweep,
)

from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
STUDY_STRIDE = 1000
ALPHA = 0.10

SWEEP_N = 30_000
SWEEP_COUNTS = (3, 5, 6, 7)
SWEEP_REPS = 8

MC_N = 2_000
MC_DIMS = (2, 2, 2, 400)
MC_SELECTORS = ("naive", "bonferroni", "proposed", "ablation")
MC_REPS = 3

SELECT_N = 30_000
SELECT_DIMS = (2, 2, 2, 2)
SELECT_SELECTORS = "proposed,naive,bonferroni"
SELECT_TIMEOUT_S = 150


@dataclass
class Outcome:
    ops: int
    failed: int = 0
    decisions: list[list] = field(default_factory=list)  # [label, statistic, critical, decision]
    values: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def output(self) -> dict[str, Any]:
        return {"decisions": self.decisions, "values": self.values}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str  # what one operation of ``ops`` is
    ops_per_study: int
    workers: int  # worker processes of the untraced run
    module: str  # the module through which a study enters the package
    prepare: Callable[[Path, int], Any]
    study: Callable[[Any, int, int, Tracer | None], Outcome]


def program_env() -> dict[str, str]:
    """Environment for child processes that import the package from ``src``."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def run_study(
    workload: Workload, inputs: Any, seed: int, index: int, workers: int, tracer: Tracer | None = None
) -> Outcome:
    """Run study ``index``; an exception fails all of the study's operations."""
    try:
        return workload.study(inputs, seed * STUDY_STRIDE + index, workers, tracer)
    except Exception as exc:  # noqa: BLE001 - the benchmark reports failures and keeps going
        ops = workload.ops_per_study
        return Outcome(ops=ops, failed=ops, problems=[f"{type(exc).__name__}: {exc}"])


def _no_inputs(work_dir: Path, seed: int) -> None:
    return None


def _accounting_problems(report: ExperimentReport) -> list[str]:
    """Recompute FWER/ANWS from the per-repetition records and compare."""
    config = report.config
    p, winner = len(config.noise_specs), config.winner_index
    failed = {k for k, _ in report.failures}
    reps = [k for k in range(config.repetitions) if k not in failed]
    problems = []
    for name in config.selectors:
        seen: Counter = Counter()
        accepted: dict[int, set[int]] = {k: set() for k in reps}
        for r in report.records:
            if r.selector == name:
                seen[r.rep] += 1
                if r.accepted:
                    accepted.setdefault(r.rep, set()).add(r.candidate)
        if set(seen) != set(reps) or any(seen[k] != p for k in reps):
            problems.append(f"{name}: records do not cover {p} candidates in each repetition")
            continue
        summary = report.summaries[name]
        if not reps:
            continue
        fwer = float(np.mean([winner not in accepted[k] for k in reps]))
        anws = float(np.mean([len(accepted[k] - {winner}) for k in reps]))
        if summary.reps != len(reps) or not (
            math.isclose(summary.fwer, fwer, abs_tol=1e-12) and math.isclose(summary.anws, anws, abs_tol=1e-12)
        ):
            problems.append(f"{name}: summary (fwer {summary.fwer}, anws {summary.anws}) disagrees with records")
    return problems


def _experiment_outcome(reports: dict[str, ExperimentReport]) -> Outcome:
    outcome = Outcome(ops=0)
    for key, report in reports.items():
        outcome.ops += report.config.repetitions
        outcome.failed += len(report.failures)
        outcome.problems += [f"{key} rep {k}: {msg}" for k, msg in report.failures]
        outcome.problems += [f"{key} {msg}" for msg in _accounting_problems(report)]
        outcome.decisions += [
            [f"{key}/r{r.rep}/{r.selector}/c{r.candidate}", r.statistic, r.critical, r.accepted]
            for r in report.records
        ]
        outcome.values[key] = {
            name: {"fwer": s.fwer, "anws": s.anws, "reps": s.reps}
            for name, s in sorted(report.summaries.items())
        }
    return outcome


def sweep_config(seed: int, workers: int, repetitions: int = SWEEP_REPS) -> ExperimentConfig:
    """The acceptance power-sweep mix at a benchmark-sized repetition count."""
    return ExperimentConfig(
        n=SWEEP_N,
        noise_specs=COMPETITIVE_PLUS_INFERIOR_SPECS,
        selectors=("naive", "proposed"),
        alpha=ALPHA,
        lam=float(SWEEP_N) ** 0.45,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
    )


def _power_sweep(inputs: None, seed: int, workers: int, tracer: Tracer | None) -> Outcome:
    points = sweep(sweep_config(seed, workers), "candidate_count", list(SWEEP_COUNTS))
    return _experiment_outcome({f"p{int(point.value)}": point.report for point in points})


def mc_config(seed: int, workers: int, repetitions: int = MC_REPS) -> ExperimentConfig:
    return ExperimentConfig(
        n=MC_N,
        dims=MC_DIMS,
        noise_specs=NEAR_TIED_SPECS,
        selectors=MC_SELECTORS,
        alpha=ALPHA,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
    )


def _monte_carlo(inputs: None, seed: int, workers: int, tracer: Tracer | None) -> Outcome:
    return _experiment_outcome({"mc": run_experiment(mc_config(seed, workers))})


def select_inputs(work_dir: Path, seed: int) -> tuple[Path, Path]:
    """Write the dataset and prediction CSVs ``cateselect select`` reads."""
    dataset, truth = generate_toy(SELECT_N, SELECT_DIMS, seed)
    candidates = make_candidates(truth, COMPETITIVE_PLUS_INFERIOR_SPECS, seed)
    data_path = work_dir / f"select-{seed}-data.csv"
    preds_path = work_dir / f"select-{seed}-preds.csv"
    x_header = ",".join(f"x_{j}" for j in range(dataset.d))
    rows = np.column_stack([dataset.x, dataset.t, dataset.y])
    np.savetxt(data_path, rows, fmt="%.17g", delimiter=",", header=f"{x_header},t,y", comments="")
    tau_header = ",".join(f"tau_{r}" for r in range(candidates.p))
    np.savetxt(
        preds_path, candidates.predictions.T, fmt="%.17g", delimiter=",", header=tau_header, comments=""
    )
    return data_path, preds_path


def _select(inputs: tuple[Path, Path], seed: int, workers: int, tracer: Tracer | None) -> Outcome:
    data_path, preds_path = inputs
    args = ["select", "--data", str(data_path), "--preds", str(preds_path)]
    args += ["--selectors", SELECT_SELECTORS, "--seed", str(seed)]
    spans_path = data_path.parent / "select-spans.json"
    if tracer is None:
        command = [sys.executable, "-m", "cateselect", *args]
    else:
        command = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
    proc = subprocess.run(
        command, capture_output=True, text=True, env=program_env(), timeout=SELECT_TIMEOUT_S
    )
    if proc.returncode != 0:
        return Outcome(ops=1, failed=1, problems=[f"select exited {proc.returncode}: {proc.stderr[-400:]}"])
    if tracer is not None:
        payload = json.loads(spans_path.read_text(encoding="utf-8"))
        tracer.absorb(payload["spans"], payload["counters"])
    results = json.loads(proc.stdout)
    return Outcome(
        ops=1,
        decisions=[
            [f"{r['selector']}/c{s['candidate']}", s["statistic"], s["critical"], s["decision"]]
            for r in results
            for s in r["stats"]
        ],
        values={r["selector"]: {"accepted": r["accepted"], "lambda": r["lambda"]} for r in results},
        problems=[
            f"{r['selector']}: accepted set disagrees with its decisions"
            for r in results
            if r["accepted"] != [s["candidate"] for s in r["stats"] if s["decision"]]
        ],
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "power_sweep_n30k",
            "p^2 n score tensors and the exp-weighted statistic dominate; the only workload on the"
            " process-pool path",
            "repetition",
            len(SWEEP_COUNTS) * SWEEP_REPS,
            2,
            "cateselect.harness",
            _no_inputs,
            _power_sweep,
        ),
        Workload(
            "mc_n2k_d406",
            "the logistic Newton solve at d=406 dominates and scores stay small; the only workload"
            " with the ablation selector",
            "repetition",
            MC_REPS,
            1,
            "cateselect.harness",
            _no_inputs,
            _monte_carlo,
        ),
        Workload(
            "select_csv_n30k",
            "the practitioner CLI path, the only one through CSV ingestion and the cli module",
            "select call",
            1,
            1,
            "cateselect.cli",
            select_inputs,
            _select,
        ),
    )
}
