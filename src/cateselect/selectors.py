"""Selection procedures that map a dataset plus candidates to an accepted set.

This module owns the sample split and the cross-fitting. Every selector
but the ablation scores its candidates through ``_cross_fitted_tensor``:
a two-layer split, one nuisance fit per major fold whose predictions fill
the opposite fold's units (unless true values are supplied), then the
p x n per-unit loss matrix from ``scores.build_score_tensor``.

* ``proposed_select``: two-layer cross-fitted, exponentially weighted test.
  Nuisances come from the opposite major fold; softmax weights over rival
  comparisons are learned on leave-inner-fold-out score means; each
  candidate's accumulated weighted score is studentized and compared to a
  one-sided normal critical value.
* ``naive_select``: per-candidate max of standardized pairwise statistics
  against a parametric bootstrap critical value drawn from the estimated
  covariance.
* ``bonferroni_select``: the same max statistic against a union-bound normal
  threshold.
* ``single_layer_ablation_select``: deliberately casual variant that fits
  nuisances on the full sample and draws its weight-learning folds over all
  units; kept to demonstrate how error control degrades without the
  two-layer split. It shares the weighted test with ``proposed_select``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np
from scipy.special import ndtri

from .datagen import CandidateSet, Dataset, _readonly
from .nuisance import NuisanceConfig, OracleNuisance, fit
from .scores import ScoreTensor, build_score_tensor, cov_hat, delta_hat

FOLD_A = 0
FOLD_B = 1
_NAIVE_STREAM = 0x5EED01
_ABLATION_STREAM = 0x5EED02

_MIN_INNER_FOLD = 2


@dataclass(frozen=True)
class SelectorConfig:
    """Shared knobs for all selectors.

    ``lam`` is the exponential-weighting temperature; None resolves to
    ``n ** 0.4`` at selection time, which grows slower than sqrt(n) as the
    weighting theory requires. ``bootstrap_draws`` only matters for the
    naive selector; fewer than 1000 draws are rejected here.
    """

    alpha: float = 0.10
    lam: float | None = None
    inner_folds: int = 5
    bootstrap_draws: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.lam is not None and self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.inner_folds < 2:
            raise ValueError("need at least two inner folds")
        if self.bootstrap_draws < 1000:
            raise ValueError("bootstrap_draws must be at least 1000")

    def resolve_lam(self, n: int) -> float:
        return float(self.lam) if self.lam is not None else float(n) ** 0.4


@dataclass(frozen=True)
class SplitPlan:
    """Two-layer fold assignment: major fold A/B times inner fold 0..V-1."""

    major: np.ndarray
    inner: np.ndarray
    inner_folds: int

    def __post_init__(self) -> None:
        major = np.asarray(self.major, dtype=np.int8)
        inner = np.asarray(self.inner, dtype=np.int64)
        if major.shape != inner.shape or major.ndim != 1:
            raise ValueError("major and inner labels must be aligned 1-d arrays")
        if not np.all((major == FOLD_A) | (major == FOLD_B)):
            raise ValueError("major labels must be FOLD_A or FOLD_B")
        if inner.min() < 0 or inner.max() >= self.inner_folds:
            raise ValueError("inner labels must lie in [0, inner_folds)")
        for fold in (FOLD_A, FOLD_B):
            mask = major == fold
            if not mask.any():
                raise ValueError("both major folds must be nonempty")
            counts = np.bincount(inner[mask], minlength=self.inner_folds)
            if counts.min() == 0:
                raise ValueError("every inner fold must be nonempty within each major fold")
        object.__setattr__(self, "major", _readonly(major))
        object.__setattr__(self, "inner", _readonly(inner))

    @property
    def n(self) -> int:
        return self.major.shape[0]


def two_way_split(n: int, inner_folds: int, seed: int) -> SplitPlan:
    """Uniformly random balanced two-layer split, deterministic in the seed.

    Major folds have sizes floor(n/2) and ceil(n/2); within each major fold
    the inner fold sizes differ by at most one. Requires every inner fold to
    hold at least two units.
    """
    if inner_folds < 2:
        raise ValueError("need at least two inner folds")
    if (n // 2) // inner_folds < _MIN_INNER_FOLD:
        raise ValueError(
            f"n={n} is too small for {inner_folds} inner folds of at least "
            f"{_MIN_INNER_FOLD} units per major fold"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    major = np.empty(n, dtype=np.int8)
    inner = np.empty(n, dtype=np.int64)
    half = n // 2
    for fold, members in ((FOLD_A, perm[:half]), (FOLD_B, perm[half:])):
        major[members] = fold
        inner[members] = np.arange(members.size) % inner_folds
    return SplitPlan(major=major, inner=inner, inner_folds=inner_folds)


def exp_weights(delta: np.ndarray, lam: float) -> np.ndarray:
    """Softmax of ``lam * delta`` with max subtraction for overflow safety.

    Nonnegative, sums to one, invariant to adding a constant to every entry
    (exactly so whenever the shifted entries are exactly representable).
    """
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 1 or delta.size == 0:
        raise ValueError("delta must be a nonempty vector")
    if not np.all(np.isfinite(delta)):
        raise ValueError("delta entries must be finite")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    shifted = delta - delta.max()
    w = np.exp(lam * shifted)
    return w / w.sum()


class Cell(NamedTuple):
    """One weight-learning/evaluation cell of a fold layout."""

    eval_idx: np.ndarray
    weight_idx: np.ndarray


def two_layer_cells(plan: SplitPlan) -> list[Cell]:
    """Cells of the two-layer layout: evaluate an inner fold with weights
    learned on the rest of its own major fold."""
    indices = np.arange(plan.n)
    cells = []
    for fold in (FOLD_A, FOLD_B):
        in_major = plan.major == fold
        for v in range(plan.inner_folds):
            in_cell = in_major & (plan.inner == v)
            eval_idx = indices[in_cell]
            weight_idx = indices[in_major & ~in_cell]
            if eval_idx.size < _MIN_INNER_FOLD:
                raise ValueError(
                    f"inner fold {v} of major fold {fold} has {eval_idx.size} units; "
                    f"need at least {_MIN_INNER_FOLD}"
                )
            cells.append(Cell(eval_idx=eval_idx, weight_idx=weight_idx))
    return cells


def single_layer_cells(n: int, inner_folds: int, seed: int) -> list[Cell]:
    """Cells of the casual one-layer layout: folds drawn over all units,
    weights learned on each fold's complement."""
    if inner_folds < 2:
        raise ValueError("need at least two inner folds")
    if n // inner_folds < _MIN_INNER_FOLD:
        raise ValueError(f"n={n} is too small for {inner_folds} folds")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _ABLATION_STREAM]))
    perm = rng.permutation(n)
    labels = np.empty(n, dtype=np.int64)
    labels[perm] = np.arange(n) % inner_folds
    indices = np.arange(n)
    cells = []
    for v in range(inner_folds):
        in_cell = labels == v
        cells.append(Cell(eval_idx=indices[in_cell], weight_idx=indices[~in_cell]))
    return cells


@dataclass(frozen=True)
class ProposedStatistics:
    """Everything the exponentially weighted test computes.

    ``q_matrix[i, r]`` is unit i's weighted score against candidate r's
    rivals; ``weights[c, r]`` is the simplex vector used in cell c. The test
    statistic is ``score_sums / (sqrt(n) * sigmas)``.
    """

    score_sums: np.ndarray
    sigmas: np.ndarray
    z_scores: np.ndarray
    q_matrix: np.ndarray
    weights: np.ndarray


def exp_weighted_statistics(tensor: ScoreTensor, cells: list[Cell], lam: float) -> ProposedStatistics:
    """Aggregate pairwise scores into one studentized statistic per candidate."""
    p, n = tensor.p, tensor.n
    q = np.zeros((n, p))
    weights = np.zeros((len(cells), p, p - 1))
    covered = np.zeros(n, dtype=bool)
    for ci, cell in enumerate(cells):
        covered[cell.eval_idx] = True
        means = tensor.losses[:, cell.weight_idx].mean(axis=1)
        mix = np.zeros((p, p))
        for r in range(p):
            others = [s for s in range(p) if s != r]
            w = exp_weights(means[r] - means[others], lam)
            weights[ci, r] = w
            mix[r, others] = w
        # the weights sum to one: sum_s w_s (L_r - L_s) is row r of block - mix @ block
        block = tensor.losses[:, cell.eval_idx]
        q[cell.eval_idx] = (block - mix @ block).T
    if not covered.all():
        raise ValueError("cells do not cover every unit")
    score_sums = q.sum(axis=0)
    sigmas = q.std(axis=0, ddof=1)
    if np.any(sigmas <= 0.0):
        raise RuntimeError("degenerate weighted scores: zero variance for some candidate")
    z_scores = score_sums / (np.sqrt(n) * sigmas)
    return ProposedStatistics(
        score_sums=score_sums,
        sigmas=sigmas,
        z_scores=z_scores,
        q_matrix=q,
        weights=weights,
    )


@dataclass(frozen=True)
class CandidateDecision:
    candidate: int
    statistic: float
    critical: float
    accepted: bool


@dataclass(frozen=True)
class SelectionResult:
    """Accepted set plus per-candidate statistics for one selector run."""

    selector: str
    alpha: float
    lam: float
    inner_folds: int
    seed: int
    accepted: tuple[int, ...]
    stats: tuple[CandidateDecision, ...]
    extras: dict[str, Any] = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "selector": self.selector,
            "alpha": self.alpha,
            "lambda": self.lam,
            "inner_folds": self.inner_folds,
            "seed": self.seed,
            "accepted": list(self.accepted),
            "stats": [
                {
                    "candidate": s.candidate,
                    "statistic": s.statistic,
                    "critical": s.critical,
                    "decision": s.accepted,
                }
                for s in self.stats
            ],
        }


def _cross_fitted_tensor(
    dataset: Dataset,
    candidates: CandidateSet,
    inner_folds: int,
    seed: int,
    nuisance_override: OracleNuisance | None = None,
) -> tuple[SplitPlan, ScoreTensor]:
    """Split, cross-fit the nuisances and score every candidate on every unit.

    Each major fold's units get the predictions of the model trained on the
    opposite fold, unless ``nuisance_override`` supplies the nuisances.
    """
    plan = two_way_split(dataset.n, inner_folds, seed)
    nuisances = nuisance_override
    if nuisances is None:
        values = np.empty((3, dataset.n))
        for train, scored in ((FOLD_A, FOLD_B), (FOLD_B, FOLD_A)):
            model = fit(dataset, np.flatnonzero(plan.major == train), NuisanceConfig())
            rows = plan.major == scored
            values[:, rows] = model.predict_rows(dataset.x[rows])
        nuisances = OracleNuisance(*values)
    return plan, build_score_tensor(dataset, candidates, nuisances)


def _build_result(
    selector: str,
    config: SelectorConfig,
    lam: float,
    stats: list[CandidateDecision],
    extras: dict[str, Any],
) -> SelectionResult:
    accepted = tuple(s.candidate for s in stats if s.accepted)
    return SelectionResult(
        selector=selector,
        alpha=config.alpha,
        lam=lam,
        inner_folds=config.inner_folds,
        seed=config.seed,
        accepted=accepted,
        stats=tuple(stats),
        extras=extras,
    )


def _weighted_test(
    selector: str, config: SelectorConfig, tensor: ScoreTensor, cells: list[Cell]
) -> SelectionResult:
    """Accept candidate r when its studentized weighted score falls below the
    one-sided normal critical value at level alpha."""
    lam = config.resolve_lam(tensor.n)
    stats = exp_weighted_statistics(tensor, cells, lam)
    critical = float(ndtri(1.0 - config.alpha))
    decisions = [
        CandidateDecision(
            candidate=r,
            statistic=float(stats.z_scores[r]),
            critical=critical,
            accepted=bool(stats.z_scores[r] < critical),
        )
        for r in range(tensor.p)
    ]
    return _build_result(selector, config, lam, decisions, {"statistics": stats})


def proposed_select(
    dataset: Dataset,
    candidates: CandidateSet,
    config: SelectorConfig,
    nuisance_override: OracleNuisance | None = None,
) -> SelectionResult:
    """Two-layer cross-fitted exponentially weighted selection.

    Accepts candidate r when its studentized weighted score falls below the
    one-sided normal critical value at level alpha.
    """
    plan, tensor = _cross_fitted_tensor(
        dataset, candidates, config.inner_folds, config.seed, nuisance_override
    )
    return _weighted_test("proposed", config, tensor, two_layer_cells(plan))


def single_layer_ablation_select(
    dataset: Dataset,
    candidates: CandidateSet,
    config: SelectorConfig,
    nuisance_override: OracleNuisance | None = None,
) -> SelectionResult:
    """One-layer variant kept to demonstrate inflated error rates.

    Nuisances are fitted on the full sample (every unit is scored in-sample)
    and the weight-learning folds are drawn over all units with no
    major-fold separation.
    """
    nuisances = nuisance_override
    if nuisances is None:
        full_model = fit(dataset, np.arange(dataset.n), NuisanceConfig())
        nuisances = OracleNuisance(*full_model.predict_rows(dataset.x))
    tensor = build_score_tensor(dataset, candidates, nuisances)
    return _weighted_test(
        "ablation", config, tensor, single_layer_cells(dataset.n, config.inner_folds, config.seed)
    )


def naive_critical_value(
    sigma: np.ndarray, alpha: float, draws: int, rng: np.random.Generator
) -> float:
    """Parametric bootstrap quantile of the standardized Gaussian max.

    Draws ``G ~ N(0, sigma)``, standardizes each coordinate by its own
    standard deviation, and returns the empirical (1 - alpha) quantile of
    the coordinate-wise maximum.
    """
    sigma = np.asarray(sigma, dtype=float)
    sym = (sigma + sigma.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals.min() < -1e-8:
        raise RuntimeError("covariance is not positive semidefinite within tolerance")
    transform = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    sd = np.sqrt(np.diag(sym))
    if np.any(sd <= 0):
        raise RuntimeError("degenerate covariance: zero variance component")
    g = rng.standard_normal((draws, sym.shape[0])) @ transform.T
    maxima = (g / sd).max(axis=1)
    return float(np.quantile(maxima, 1.0 - alpha))


def _max_statistic_test(
    selector: str,
    config: SelectorConfig,
    tensor: ScoreTensor,
    critical_value: Callable[[int, np.ndarray], float],
) -> SelectionResult:
    """Accept candidate m when the largest of its standardized pairwise
    statistics does not exceed ``critical_value(m, sigma_m)``."""
    decisions = []
    for m in range(tensor.p):
        delta_m = delta_hat(tensor, m)
        sigma_m = cov_hat(tensor, m)
        sd = np.sqrt(np.diag(sigma_m))
        if np.any(sd <= 0):
            raise RuntimeError(
                f"candidate {m}: degenerate pairwise score variance; statistics undefined"
            )
        critical = critical_value(m, sigma_m)
        s_max = float((delta_m / sd).max())
        decisions.append(
            CandidateDecision(
                candidate=m,
                statistic=s_max,
                critical=critical,
                accepted=bool(s_max <= critical),
            )
        )
    return _build_result(selector, config, config.resolve_lam(tensor.n), decisions, {})


def naive_select(
    dataset: Dataset,
    candidates: CandidateSet,
    config: SelectorConfig,
    nuisance_override: OracleNuisance | None = None,
) -> SelectionResult:
    """Max-statistic selection with parametric bootstrap critical values.

    Candidate m is accepted when the largest of its standardized pairwise
    statistics does not exceed the bootstrap quantile drawn from N(0,
    sigma_m).
    """
    _, tensor = _cross_fitted_tensor(
        dataset, candidates, config.inner_folds, config.seed, nuisance_override
    )

    def bootstrap_critical(m: int, sigma_m: np.ndarray) -> float:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _NAIVE_STREAM, m]))
        return naive_critical_value(sigma_m, config.alpha, config.bootstrap_draws, rng)

    return _max_statistic_test("naive", config, tensor, bootstrap_critical)


def bonferroni_select(
    dataset: Dataset,
    candidates: CandidateSet,
    config: SelectorConfig,
    nuisance_override: OracleNuisance | None = None,
) -> SelectionResult:
    """Union-bound baseline: per-pair one-sided z tests at alpha / (p - 1)."""
    _, tensor = _cross_fitted_tensor(
        dataset, candidates, config.inner_folds, config.seed, nuisance_override
    )
    critical = float(ndtri(1.0 - config.alpha / (candidates.p - 1)))
    return _max_statistic_test("bonferroni", config, tensor, lambda m, sigma_m: critical)
