"""Selection procedures that map a dataset plus candidates to an accepted set.

This module owns the sample split and the cross-fitting. Every selector
tests the same thing, the cross-fitted doubly robust scores of one
``SplitPlan`` (two major folds, or one for the ablation, each cut into
inner folds); only the statistic on top of them differs. ``prepare`` builds
that problem once per plan: ``cross_fit``'s one nuisance fit per major fold,
whose predictions fill the other fold's units, then the p x n per-unit loss
matrix from ``scores.build_score_tensor``, kept as ``Prepared(plan, losses)``.
Each selector is a test over that problem, listed in ``TAILS``
under its name, and ``select`` is the one way to run them: it prepares each
split layout it is asked for once and runs every named selector on that
layout before preparing the next, or runs them on a problem the caller
prepared. That is the way in for anything but the default cross-fit: a
caller holding true nuisances passes ``prepared=prepare(dataset, candidates,
two_way_split(dataset.n, config.seed), Nuisances.from_truth(truth))``, with
``single_layer_split`` for the ablation. ``Prepared.restrict`` cuts a
problem to its first p candidates, bitwise the problem those candidates
alone would get, as a view of its rows that reads the larger problem's
naive moments, so those are computed once; the proposed test gathers its
own rows by cell on every problem.

* ``"proposed"``: two-layer cross-fitted, exponentially weighted test.
  Nuisances come from the opposite major fold; softmax weights over rival
  comparisons are learned on leave-inner-fold-out score means; each
  candidate's accumulated weighted score is studentized and compared to a
  one-sided normal critical value.
* ``"naive"``: per-candidate max of standardized pairwise statistics
  against a parametric bootstrap critical value drawn from the estimated
  covariance.
* ``"bonferroni"``: the same max statistic against a union-bound normal
  threshold, per-pair one-sided z tests at alpha / (p - 1).
* ``"ablation"``: the proposed test on a one-fold plan, so nuisances are
  fitted on the full sample (every unit is scored in-sample) and the
  weight-learning folds span all units; kept to demonstrate how error
  control degrades without the two-layer split.

The normal critical values of the proposed and Bonferroni tests come from
the standard library's ``statistics.NormalDist``, so selection imports
numpy only; scipy stays out of this path because it is slow to import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from numbers import Real
from statistics import NormalDist
from typing import Any, Callable, Sequence

import numpy as np

from .datagen import CandidateSet, Dataset, _freeze, _readonly
from .nuisance import Nuisances, fit
from .scores import build_score_tensor, cov_hat, delta_hat

_NAIVE_STREAM = 0x5EED01
_NAIVE_DRAWS = 2000  # Gaussian draws behind each naive critical value
_INNER_FOLDS = 5  # weight-learning folds per major fold
_ABLATION_STREAM = 0x5EED02

_MIN_INNER_FOLD = 2


def _normal_quantile(level: float) -> float:
    """Standard normal quantile at ``level`` in (0, 1]; +inf at 1.0, where
    ``level = 1 - alpha`` has rounded up for a tiny alpha."""
    return math.inf if level >= 1.0 else NormalDist().inv_cdf(level)


@dataclass(frozen=True)
class SelectorConfig:
    """Shared knobs for all selectors.

    ``lam`` is the exponential-weighting temperature; None resolves to
    ``n ** 0.4`` at selection time, which grows slower than sqrt(n) as the
    weighting theory requires. ``seed`` fixes the split and the naive
    selector's bootstrap draws.
    """

    alpha: float = 0.10
    lam: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.lam is not None:
            # Python counts a bool as a number, which would run at temperature 0 or 1
            if isinstance(self.lam, bool) or not isinstance(self.lam, Real):
                raise ValueError(f"lam must be a number, got {self.lam!r}")
            if not 0 <= self.lam < math.inf:
                raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def resolve_lam(self, n: int) -> float:
        return float(self.lam) if self.lam is not None else float(n) ** 0.4


@dataclass(frozen=True)
class SplitPlan:
    """Fold assignment of a sample split: ``groups`` major folds (2 for the
    two-way split, 1 for the ablation's one-layer split), each cut into
    ``_INNER_FOLDS`` inner folds."""

    major: np.ndarray
    inner: np.ndarray
    groups: int

    def __post_init__(self) -> None:
        for name in ("major", "inner"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name))))

    @property
    def n(self) -> int:
        return self.major.shape[0]

    @cached_property
    def cell_order(self) -> tuple[np.ndarray, np.ndarray]:
        """The units sorted by cell (major fold, then inner fold, ascending unit
        index within a cell) and the cell boundaries in that order, sorted on
        first use.

        One stable sort on the cell label, a byte, which gets numpy's radix sort.
        """
        count = self.groups * _INNER_FOLDS
        label = (self.major * _INNER_FOLDS + self.inner).astype(np.uint8)
        order = np.argsort(label, kind="stable")
        bounds = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(label, minlength=count), out=bounds[1:])
        order.setflags(write=False)
        bounds.setflags(write=False)
        return order, bounds


def _split(n: int, groups: int, rng: np.random.Generator) -> SplitPlan:
    """Uniformly random balanced split: major fold g holds permuted units
    ``g*n//groups`` up to ``(g+1)*n//groups``, and within each major fold the
    inner fold sizes differ by at most one. Every inner fold needs two
    units, which any n >= 20 gives."""
    if (n // groups) // _INNER_FOLDS < _MIN_INNER_FOLD:
        raise ValueError(
            f"n={n} is too small for {_INNER_FOLDS} inner folds of at least "
            f"{_MIN_INNER_FOLD} units per major fold"
        )
    perm = rng.permutation(n)
    major = np.empty(n, dtype=np.int8)
    inner = np.empty(n, dtype=np.int64)
    for fold in range(groups):
        members = perm[fold * n // groups : (fold + 1) * n // groups]
        major[members] = fold
        inner[members] = np.arange(members.size) % _INNER_FOLDS
    _freeze(major, inner)
    return SplitPlan(major, inner, groups)


def two_way_split(n: int, seed: int) -> SplitPlan:
    """The two-layer split, deterministic in the seed: major folds of sizes
    floor(n/2) and ceil(n/2), each cut into ``_INNER_FOLDS`` inner folds of
    at least two units."""
    return _split(n, 2, np.random.default_rng(seed))


def single_layer_split(n: int, seed: int) -> SplitPlan:
    """The ablation's one-layer split: one major fold of all n units, cut into
    ``_INNER_FOLDS`` inner folds of at least two units."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _ABLATION_STREAM]))
    return _split(n, 1, rng)


def exp_weights(delta: np.ndarray, lam: float) -> np.ndarray:
    """Softmax of ``lam * delta`` along the last axis, with max subtraction for
    overflow safety.

    Every vector along the last axis is nonnegative, sums to one and is
    invariant to adding a constant to its entries (exactly so whenever the
    shifted entries are exactly representable).
    """
    delta = np.asarray(delta, dtype=float)
    if delta.ndim == 0 or delta.shape[-1] == 0:
        raise ValueError("delta must have a nonempty last axis")
    if not np.all(np.isfinite(delta)):
        raise ValueError("delta entries must be finite")
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and nonnegative, got {lam}")
    shifted = delta - delta.max(axis=-1, keepdims=True)
    w = np.exp(lam * shifted)
    return w / w.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class ProposedStatistics:
    """Everything the exponentially weighted test computes.

    ``q_matrix[i, r]`` is unit i's weighted score against candidate r's
    rivals; ``weights[c, r]`` is the simplex vector used in cell c, the
    cells ordered by major fold, then inner fold. The test statistic is
    ``score_sums / (sqrt(n) * sigmas)``.
    """

    score_sums: np.ndarray
    sigmas: np.ndarray
    z_scores: np.ndarray
    q_matrix: np.ndarray
    weights: np.ndarray


def exp_weighted_statistics(problem: Prepared, lam: float) -> ProposedStatistics:
    """Aggregate pairwise scores into one studentized statistic per candidate.

    The cells are the inner folds of the problem's plan, ordered by major
    fold, then inner fold; each scores its units with the softmax weights
    learned on the rest of its major fold. The losses are sorted by cell in
    one gather, ``losses[:, order]``, a writable copy that numpy lays out
    column-major, on a cut problem as on any other; a weight set's mean is
    its fold's sum minus the cell's own sum, over the fold's size minus the
    cell's.
    """
    plan = problem.plan
    p, n = problem.losses.shape
    order, bounds = plan.cell_order
    by_cell = problem.losses[:, order]
    shape = (plan.groups, _INNER_FOLDS)
    sums = np.add.reduceat(by_cell, bounds[:-1], axis=1).reshape(p, *shape)
    sizes = np.diff(bounds).reshape(shape)
    means = (sums.sum(axis=2, keepdims=True) - sums) / (sizes.sum(axis=1, keepdims=True) - sizes)
    means = means.reshape(p, -1).T  # (cell, candidate)
    rivals = np.array([[s for s in range(p) if s != r] for r in range(p)], dtype=np.intp)
    weights = exp_weights(means[:, :, None] - means[:, rivals], lam)
    mix = np.zeros((len(means), p, p))
    mix[:, np.arange(p)[:, None], rivals] = weights
    for c in range(len(means)):
        block = by_cell[:, bounds[c] : bounds[c + 1]]
        # the weights sum to one: sum_s w_s (L_r - L_s) is row r of block - mix @ block
        block -= mix[c] @ block
    q = np.empty((p, n))
    q[:, order] = by_cell
    score_sums = q.sum(axis=1)
    # the deviations reuse the sorted copy: a third p x n array would set a
    # worker's peak memory
    deviations = np.subtract(by_cell, (score_sums / n)[:, None], out=by_cell)
    sigmas = np.sqrt(np.square(deviations, out=deviations).sum(axis=1) / (n - 1))
    if np.any(sigmas <= 0.0):
        raise RuntimeError("degenerate weighted scores: zero variance for some candidate")
    z_scores = score_sums / (np.sqrt(n) * sigmas)
    return ProposedStatistics(
        score_sums=score_sums,
        sigmas=sigmas,
        z_scores=z_scores,
        q_matrix=q.T,
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
    seed: int
    accepted: tuple[int, ...]
    stats: tuple[CandidateDecision, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "selector": self.selector,
            "alpha": self.alpha,
            "lambda": self.lam,
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


@dataclass(frozen=True)
class Prepared:
    """One split layout's scored problem, which every selector on that layout
    tests: the plan and the p x n matrix of its cross-fitted doubly robust
    losses, 2-D, finite (so no statistic built from it is NaN) and with one
    column per unit of the plan. The matrix is held by the rule of every
    container (``datagen._readonly``): one that nothing can write to as it
    is, as ``prepare``'s and the rows ``restrict`` cuts are, is kept itself,
    and any other is copied. ``source`` is the problem ``restrict`` cut this
    one from, whose naive moments it reads, or None."""

    plan: SplitPlan
    losses: np.ndarray
    source: Prepared | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        losses = np.asarray(self.losses, dtype=float)
        if losses.ndim != 2:
            raise ValueError("candidate losses must have shape (p, n)")
        if not np.all(np.isfinite(losses)):
            raise ValueError("candidate losses must be finite")
        if losses.shape[1] != self.plan.n:
            raise ValueError("the split must cover every unit")
        object.__setattr__(self, "losses", _readonly(losses))

    @cached_property
    def moments(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(delta_m, sigma_m)`` per candidate m, the mean gaps against each
        rival and their covariance, read-only and built on first use. A cut
        problem takes the leading blocks of its source's: candidate m's rivals
        are in ascending order, so its first p - 1 are this problem's."""
        p = len(self.losses)
        if self.source is not None:
            leading = self.source.moments[:p]
            return [(delta[: p - 1], sigma[: p - 1, : p - 1]) for delta, sigma in leading]
        moments = [(delta_hat(self.losses, m), cov_hat(self.losses, m)) for m in range(p)]
        for delta, sigma in moments:
            delta.setflags(write=False)
            sigma.setflags(write=False)
        return moments

    def restrict(self, p: int) -> Prepared:
        """The problem of the first ``p`` candidates, this one when p is all of
        them: row r of the loss matrix depends only on candidate r and the
        nuisances, so these rows are bitwise the loss matrix those candidates
        alone would get. Its loss matrix is a read-only view of this one's
        rows, not a copy, and its naive moments are leading blocks of this
        one's rather than its own, bitwise the ones the p candidates alone
        would get. That is all it reads of this problem: its proposed test
        gathers its own rows by cell, as any problem's does."""
        if not 0 < p <= len(self.losses):
            raise ValueError(f"cannot restrict {len(self.losses)} candidates to {p}")
        if p == len(self.losses):
            return self
        cut = Prepared(self.plan, self.losses[:p])
        object.__setattr__(cut, "source", self)
        return cut


def cross_fit(dataset: Dataset, plan: SplitPlan) -> Nuisances:
    """The nuisances cross-fitted over the plan's major folds: each major
    fold's units get the predictions of the model fitted on the other fold;
    a one-fold plan's units get those of the model fitted on themselves."""
    values = np.empty((3, dataset.n))
    folds = [np.flatnonzero(plan.major == g) for g in range(plan.groups)]
    for train in range(plan.groups):
        model = fit(dataset, folds[train])
        rows = folds[(train + 1) % plan.groups]
        values[:, rows] = model.predict_rows(dataset.x[rows])
    _freeze(values)
    return Nuisances(*values)


def prepare(
    dataset: Dataset,
    candidates: CandidateSet,
    plan: SplitPlan,
    override: Nuisances | None = None,
) -> Prepared:
    """Score every candidate on every unit with the nuisances ``cross_fit``
    gives on the plan, or with ``override`` instead."""
    nuisances = cross_fit(dataset, plan) if override is None else override
    return Prepared(plan, build_score_tensor(dataset, candidates, nuisances))


def _build_result(
    selector: str,
    config: SelectorConfig,
    lam: float,
    stats: list[CandidateDecision],
) -> SelectionResult:
    accepted = tuple(s.candidate for s in stats if s.accepted)
    return SelectionResult(
        selector=selector,
        alpha=config.alpha,
        lam=lam,
        seed=config.seed,
        accepted=accepted,
        stats=tuple(stats),
    )


def _weighted_test(selector: str, prepared: Prepared, config: SelectorConfig) -> SelectionResult:
    """Accept candidate r when its studentized weighted score falls below the
    one-sided normal critical value at level alpha."""
    lam = config.resolve_lam(prepared.plan.n)
    stats = exp_weighted_statistics(prepared, lam)
    critical = _normal_quantile(1.0 - config.alpha)
    decisions = [
        CandidateDecision(
            candidate=r,
            statistic=float(stats.z_scores[r]),
            critical=critical,
            accepted=bool(stats.z_scores[r] < critical),
        )
        for r in range(len(prepared.losses))
    ]
    return _build_result(selector, config, lam, decisions)


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
    prepared: Prepared,
    config: SelectorConfig,
    critical_value: Callable[[int, np.ndarray], float],
) -> SelectionResult:
    """Accept candidate m when the largest of its standardized pairwise
    statistics does not exceed ``critical_value(m, sigma_m)``."""
    decisions = []
    for m, (delta_m, sigma_m) in enumerate(prepared.moments):
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
    return _build_result(selector, config, config.resolve_lam(prepared.plan.n), decisions)


def _naive_test(prepared: Prepared, config: SelectorConfig) -> SelectionResult:
    """Candidate m is accepted when the largest of its standardized pairwise
    statistics does not exceed the bootstrap quantile drawn from N(0,
    sigma_m)."""

    def bootstrap_critical(m: int, sigma_m: np.ndarray) -> float:
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _NAIVE_STREAM, m]))
        return naive_critical_value(sigma_m, config.alpha, _NAIVE_DRAWS, rng)

    return _max_statistic_test("naive", prepared, config, bootstrap_critical)


def _bonferroni_test(prepared: Prepared, config: SelectorConfig) -> SelectionResult:
    """Per-pair one-sided z tests at alpha / (p - 1)."""
    critical = _normal_quantile(1.0 - config.alpha / (len(prepared.losses) - 1))
    return _max_statistic_test("bonferroni", prepared, config, lambda m, sigma_m: critical)


# each selector: the major-fold count of its split layout, and its
# test on a problem prepared on that layout
TAILS: dict[str, tuple[int, Callable[[Prepared, SelectorConfig], SelectionResult]]] = {
    "proposed": (2, partial(_weighted_test, "proposed")),
    "naive": (2, _naive_test),
    "bonferroni": (2, _bonferroni_test),
    "ablation": (1, partial(_weighted_test, "ablation")),
}


def check_selector_names(names: Sequence[str]) -> None:
    """Raise ``ValueError`` unless ``names`` is a nonempty list of distinct
    names in ``TAILS``."""
    if isinstance(names, str) or not all(isinstance(s, str) for s in names):
        raise ValueError(f"selectors must be a list of names, got {names!r}")
    if not names:
        raise ValueError("selector list is empty")
    unknown = [s for s in names if s not in TAILS]
    if unknown:
        raise ValueError(
            f"unknown selectors: {', '.join(unknown)} (known: {', '.join(sorted(TAILS))})"
        )
    repeated = [s for s in dict.fromkeys(names) if names.count(s) > 1]
    if repeated:
        raise ValueError(f"duplicate selectors: {', '.join(repeated)}")


def _draw_plan(groups: int, n: int, config: SelectorConfig) -> SplitPlan:
    """The seeded split of a layout: the two-way split for two major folds,
    the ablation's one-layer split for one."""
    if groups == 2:
        return two_way_split(n, config.seed)
    return single_layer_split(n, config.seed)


def _check_prepared(
    prepared: Prepared, dataset: Dataset, candidates: CandidateSet, names: Sequence[str]
) -> None:
    """Raise ``ValueError`` unless ``prepared`` can stand for the problem the
    named selectors would prepare on this dataset and these candidates."""
    plan, (p, n) = prepared.plan, prepared.losses.shape
    if (p, n) != (candidates.p, dataset.n):
        raise ValueError(
            f"the prepared problem scores {p} candidates on {n} units; "
            f"the data has {candidates.p} candidates and {dataset.n} units"
        )
    for name in names:
        if TAILS[name][0] != plan.groups:
            raise ValueError(
                f"{name} tests a {TAILS[name][0]}-fold split, not the prepared "
                f"problem's {plan.groups}-fold one"
            )


def select(
    dataset: Dataset,
    candidates: CandidateSet,
    config: SelectorConfig,
    names: Sequence[str] = ("proposed",),
    *,
    prepared: Prepared | None = None,
) -> list[SelectionResult]:
    """Run the named selectors of ``TAILS`` on one dataset; one result per
    name, in ``names`` order. The names must be distinct, and a list that is
    empty or names an unknown selector raises ``ValueError``.

    Each split layout named is prepared once (one split, its nuisance fits
    and one loss matrix), every selector on that layout runs its test on it,
    and it is dropped before the next layout is prepared. A caller that
    already holds the problem, or wants other nuisances than the cross-fit
    (``prepare``'s ``override``), passes it as ``prepared`` instead: every
    named selector then runs its test on it and nothing is prepared. It must
    score exactly these candidates on these units, on the layout of every
    named selector, and is taken to be on the split ``config.seed`` draws; a
    mismatch in size or layout raises ``ValueError``.
    """
    check_selector_names(names)
    if prepared is not None:
        _check_prepared(prepared, dataset, candidates, names)
    results: dict[str, SelectionResult] = {}
    for groups in dict.fromkeys(TAILS[name][0] for name in names):
        problem = prepared
        if problem is None:
            problem = prepare(dataset, candidates, _draw_plan(groups, dataset.n, config))
        for name in names:
            layout, tail = TAILS[name]
            if layout == groups:
                results[name] = tail(problem, config)
        del problem  # one layout's loss matrix at a time
    return [results[name] for name in names]
