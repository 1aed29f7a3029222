"""Normality and perturbation-stability checks of the cross-fitted scores.

Each check takes one problem: ``clt_check`` a prepared problem, whose pair
statistics the error control needs asymptotically normal, and
``stability_check`` a dataset with a pool of replacement units, whose other
units' weighted scores must move little when one unit is replaced.
``clt_diagnostic`` and ``stability_diagnostic``, behind ``cateselect
diagnose``, draw toy datasets of a config's design, split on the study's
layout (``ExperimentConfig.layout``), and run the check on each.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .datagen import CandidateSet, Dataset, _freeze, generate_toy, make_candidates
from .harness import ConfigError, ExperimentConfig, _derived_seeds
from .selectors import Prepared, SplitPlan, _draw_plan, exp_weighted_statistics, prepare

_STREAM_CLT = 2
_STREAM_CLT_BOOT = 3
_STREAM_STABILITY = 4

KS_LEVEL = 0.05


def bootstrap_standardized_means(
    values: np.ndarray, draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Studentized bootstrap statistics of the mean of ``values``.

    Each draw resamples with replacement, recenters at the original mean,
    and studentizes by the resample's own standard error.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    samples = arr[rng.integers(0, n, size=(draws, n))]
    means = samples.mean(axis=1)
    sds = samples.std(axis=1, ddof=1)
    return (means - arr.mean()) / (sds / np.sqrt(n))


def _kstest() -> Callable:
    """scipy's ``kstest``, imported on first call: scipy is slow to import,
    and only ``diagnose clt`` needs it. Without scipy (the ``diagnose`` extra)
    this raises ``ConfigError``."""
    try:
        from scipy.stats import kstest
    except ImportError as exc:
        raise ConfigError("diagnose clt needs scipy: pip install cateselect[diagnose]") from exc
    return kstest


def clt_check(
    problem: Prepared, bootstrap_draws: int, rng: np.random.Generator
) -> tuple[dict[str, Any], list[tuple[int, int]]]:
    """KS-test each candidate pair's bootstrapped standardized mean score
    (``bootstrap_standardized_means``) against N(0, 1), and Bonferroni-adjust
    the p-values across pairs. Returns the problem's ``CltReport.per_dataset``
    entry without its index, flagged when an adjusted p-value falls below
    ``KS_LEVEL``, and the pairs skipped because their scores are
    (numerically) constant and cannot be standardized."""
    kstest = _kstest()
    losses = problem.losses
    raw: list[tuple[int, int, float]] = []
    skipped: list[tuple[int, int]] = []
    for r, s in itertools.combinations(range(len(losses)), 2):
        scores = losses[r] - losses[s]
        if np.var(scores) < 1e-30:
            skipped.append((r, s))
        else:
            stats = bootstrap_standardized_means(scores, bootstrap_draws, rng)
            raw.append((r, s, float(kstest(stats, "norm").pvalue)))
    pairs = [{"r": r, "s": s, "ks_p": p, "adjusted_p": min(1.0, p * len(raw))} for r, s, p in raw]
    min_adjusted = min((pair["adjusted_p"] for pair in pairs), default=float("nan"))
    return {
        "tested_pairs": len(raw),
        "min_adjusted_p": min_adjusted,
        "rejected": bool(pairs) and min_adjusted < KS_LEVEL,
        "pairs": pairs,
    }, skipped


@dataclass
class CltReport:
    """KS-based check that standardized pair statistics look Gaussian."""

    datasets: int
    bootstrap_draws: int
    ks_level: float
    rejection_share: float
    per_dataset: list[dict[str, Any]]
    skipped: list[tuple[int, int, int]]


def clt_diagnostic(
    config: ExperimentConfig, datasets: int = 100, bootstrap_draws: int = 500
) -> CltReport:
    """``clt_check`` on ``datasets`` toy datasets of the config's design,
    each scored on the study's split layout. The rejection share is the
    flagged fraction; skipped pairs are noted with their dataset's index."""
    if datasets < 1:
        raise ConfigError(f"datasets must be at least 1, got {datasets}")
    if bootstrap_draws < 1:
        raise ConfigError(f"bootstrap draws must be at least 1, got {bootstrap_draws}")
    _kstest()  # a missing scipy fails here, before any dataset is drawn
    per_dataset = []
    skipped: list[tuple[int, int, int]] = []
    for d in range(datasets):
        data_seed, cand_seed, sel_seed = _derived_seeds(config.seed, _STREAM_CLT, d)
        dataset, truth = generate_toy(config.n, config.dims, data_seed)
        candidates = make_candidates(truth, config.noise_specs, cand_seed)
        plan = _draw_plan(config.layout, config.n, config.selector_config(sel_seed))
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_CLT_BOOT, d]))
        entry, skipped_pairs = clt_check(prepare(dataset, candidates, plan), bootstrap_draws, rng)
        per_dataset.append({"dataset": d, **entry})
        skipped.extend((d, r, s) for r, s in skipped_pairs)
    return CltReport(
        datasets=datasets,
        bootstrap_draws=bootstrap_draws,
        ks_level=KS_LEVEL,
        rejection_share=float(np.mean([entry["rejected"] for entry in per_dataset])),
        per_dataset=per_dataset,
        skipped=skipped,
    )


def stability_check(
    dataset: Dataset, candidates: CandidateSet, plan: SplitPlan, lam: float, probes: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """The largest mean squared first- and second-order perturbations of the
    weighted scores of the first ``plan.n`` units, over ``probes`` probes of
    each order that replace units by the ``3 * probes`` units after them.

    Each probe refits the whole pipeline (nuisances, scores, weights at
    temperature ``lam``) on the plan and compares the other units' weighted
    scores. A first-order probe replaces one unit j, drawn by ``rng``: the
    larger of its means over j's major fold outside j's inner fold and over
    the other major fold counts. A second-order probe replaces two units
    separately and jointly, and the mixed difference counts."""
    n = plan.n
    if dataset.n < n + 3 * probes:
        raise ValueError(f"{probes} probes need {n + 3 * probes} units, got {dataset.n}")

    def q_with(replacements: dict[int, int]) -> np.ndarray:
        rows = np.arange(n)
        for j, src in replacements.items():
            rows[j] = src
        # fresh row-major gathers, frozen so the containers keep them uncopied
        arrays = dataset.x[rows], dataset.t[rows], dataset.y[rows]
        preds = np.take(candidates.predictions, rows, axis=1)
        _freeze(*arrays, preds)
        problem = prepare(Dataset(*arrays), CandidateSet(preds), plan)
        return exp_weighted_statistics(problem, lam).q_matrix

    q_base = q_with({})
    estimates1 = []
    for k in range(probes):
        j = int(rng.integers(n))
        diff = q_with({j: n + k}) - q_base
        same_major = (plan.major == plan.major[j]) & (plan.inner != plan.inner[j])
        cross = plan.major != plan.major[j]
        estimates1.append(max(float(np.mean(c**2)) for c in (diff[same_major], diff[cross]) if c.size))

    estimates2 = []
    for k in range(probes):
        j, l = (int(v) for v in rng.choice(n, size=2, replace=False))
        src_j, src_l = n + probes + 2 * k, n + probes + 2 * k + 1
        mixed = q_base - q_with({j: src_j}) - q_with({l: src_l}) + q_with({j: src_j, l: src_l})
        keep = np.ones(n, dtype=bool)
        keep[[j, l]] = False
        estimates2.append(float(np.mean(mixed[keep] ** 2)))
    return max(estimates1), max(estimates2)


@dataclass
class StabilityReport:
    """Replace-one and replace-two perturbation sizes of the weighted scores.

    ``delta1``/``delta2`` hold, per grid point, the square root of the
    largest probed mean squared first/second order perturbation; the slopes
    are fitted to the squared quantities on a log-log scale.
    """

    n_grid: tuple[int, ...]
    delta1: tuple[float, ...]
    delta2: tuple[float, ...]
    slope_delta1_sq: float
    slope_delta2_sq: float
    probes_per_point: int


def stability_diagnostic(
    n_grid: list[int], config: ExperimentConfig, probes: int = 50
) -> StabilityReport:
    """``stability_check`` at each size n of the grid, on the study's split
    layout: one toy dataset of the config's design, n units plus a pool of
    ``3 * probes`` fresh draws."""
    if len(n_grid) < 3:
        raise ConfigError("stability grid needs at least three sizes")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("stability grid must be strictly increasing")
    try:
        dataclasses.replace(config, n=n_grid[0])  # the smallest size
    except ValueError as exc:
        raise ConfigError(f"stability grid size {n_grid[0]}: {exc}") from exc
    if probes < 1:
        raise ConfigError(f"probes must be at least 1, got {probes}")
    sizes = []  # per grid size, the largest first- and second-order perturbation
    for n in n_grid:
        data_seed, cand_seed, sel_seed = _derived_seeds(config.seed, _STREAM_STABILITY, n)
        dataset, truth = generate_toy(n + 3 * probes, config.dims, data_seed)
        candidates = make_candidates(truth, config.noise_specs, cand_seed)
        selector_config = config.selector_config(sel_seed)
        # the split depends only on n, the layout and the seed: every refit shares it
        plan = _draw_plan(config.layout, n, selector_config)
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_STABILITY, n, 1]))
        lam = selector_config.resolve_lam(n)
        sizes.append(stability_check(dataset, candidates, plan, lam, probes, rng))
    first_sq, second_sq = zip(*sizes)

    def _slope(values: tuple[float, ...]) -> float:
        arr = np.asarray(values)
        if np.any(arr <= 0):
            return float("nan")
        return float(np.polyfit(np.log(np.asarray(n_grid, dtype=float)), np.log(arr), 1)[0])

    return StabilityReport(
        n_grid=tuple(int(v) for v in n_grid),
        delta1=tuple(float(np.sqrt(v)) for v in first_sq),
        delta2=tuple(float(np.sqrt(v)) for v in second_sq),
        slope_delta1_sq=_slope(first_sq),
        slope_delta2_sq=_slope(second_sq),
        probes_per_point=probes,
    )
