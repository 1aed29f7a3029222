"""Per-unit relative-error scores built from per-unit nuisance values.

The doubly robust pseudo-outcome transforms one observation into an
unbiased proxy for the true effect at its covariates, given the outcome
means and propensity at that unit. Each candidate's per-unit loss
``tau_r^2 - 2 tau_r * gamma`` is its squared error against that proxy with
the shared ``gamma^2`` dropped, so the pairwise score
``tau_r^2 - tau_s^2 - 2 (tau_r - tau_s) * gamma`` of two candidates, a
one-step estimate of their MSE gap, is the difference of their losses.
Where the nuisance values come from (truth, or models cross-fitted on
other units) is the caller's business. Every selector consumes the p x n
loss matrix and contrasts its rows: ``delta_hat`` and ``cov_hat`` return
plain arrays, the mean gaps of one candidate against each rival and the
covariance of those means.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .datagen import CandidateSet, Dataset, _readonly
from .nuisance import OracleNuisance


@dataclass(frozen=True)
class ScoreTensor:
    """Per-unit candidate losses: ``losses[r, i] = tau_r[i]^2 - 2 tau_r[i] gamma[i]``.

    The score of r against s on unit i is ``losses[r, i] - losses[s, i]``.
    Every loss must be finite, so no statistic built from them is NaN.
    """

    losses: np.ndarray

    def __post_init__(self) -> None:
        losses = np.asarray(self.losses, dtype=float)
        if losses.ndim != 2:
            raise ValueError("candidate losses must have shape (p, n)")
        if not np.all(np.isfinite(losses)):
            raise ValueError("candidate losses must be finite")
        object.__setattr__(self, "losses", _readonly(losses))

    @property
    def values(self) -> np.ndarray:
        """All pairwise scores, ``values[r, s, i]``: exactly antisymmetric in
        (r, s) with a zero diagonal. Built on demand for inspection only."""
        return _readonly(self.losses[:, None, :] - self.losses[None, :, :])

    @cached_property
    def centred(self) -> np.ndarray:
        """Each candidate's losses minus their mean, built once per tensor:
        the centred score of r against s is ``centred[r] - centred[s]``."""
        return _readonly(self.losses - self.losses.mean(axis=1, keepdims=True))

    @property
    def p(self) -> int:
        return self.losses.shape[0]

    @property
    def n(self) -> int:
        return self.losses.shape[1]


def pseudo_outcomes(dataset: Dataset, nuisances: OracleNuisance) -> np.ndarray:
    """Per-unit doubly robust pseudo-outcomes from per-unit nuisance values."""
    if nuisances.n != dataset.n:
        raise ValueError("nuisance arrays must align with the dataset")
    t, y = dataset.t.astype(float), dataset.y
    mu0, mu1, e = nuisances.mu0, nuisances.mu1, nuisances.e
    return t * (y - mu1) / e + mu1 - (1 - t) * (y - mu0) / (1 - e) - mu0


def build_score_tensor(
    dataset: Dataset, candidates: CandidateSet, nuisances: OracleNuisance
) -> ScoreTensor:
    """Score every candidate on every unit by its doubly robust loss."""
    if candidates.n != dataset.n:
        raise ValueError("candidate predictions must cover every dataset unit")
    gamma = pseudo_outcomes(dataset, nuisances)
    preds = candidates.predictions
    # overflowing losses are rejected by ScoreTensor's finiteness check; one
    # row at a time, the build holds no second p x n temporary
    with np.errstate(over="ignore", invalid="ignore"):
        losses = preds**2
        for loss, pred in zip(losses, preds):
            loss -= 2.0 * pred * gamma
    return ScoreTensor(losses=losses)


def _rival_scores(tensor: ScoreTensor, m: int) -> np.ndarray:
    """Per-unit scores of candidate ``m`` against each rival, shape (p - 1, n)."""
    if tensor.n < 2:
        raise ValueError("need at least two units to summarize scores")
    return tensor.losses[m] - tensor.losses[[s for s in range(tensor.p) if s != m]]


def delta_hat(tensor: ScoreTensor, m: int) -> np.ndarray:
    """Mean score of candidate ``m`` against each rival, in rival order."""
    return _rival_scores(tensor, m).mean(axis=1)


def cov_hat(tensor: ScoreTensor, m: int) -> np.ndarray:
    """Covariance of the mean score vector for candidate ``m``.

    Sample covariance (ddof=1) of the per-unit score vectors divided by n,
    so its diagonal is the squared standard error of each delta entry. The
    centred scores are differences of the centred losses, so candidates with
    identical losses get exactly zero variance, and none is a difference of
    covariances, which cancels for near-duplicate candidates.
    """
    if tensor.n < 2:
        raise ValueError("need at least two units to summarize scores")
    centred = tensor.centred
    scores = centred[[s for s in range(tensor.p) if s != m]]
    np.subtract(centred[m], scores, out=scores)
    return np.dot(scores, scores.T) / (tensor.n - 1) / tensor.n
