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
loss matrix and contrasts its rows; no p x p x n array of pairwise scores
is ever stored, and no centred copy of the losses is kept: each
``cov_hat`` call forms one candidate's (p - 1) x n pairwise differences and
centres them in place. ``delta_hat`` and ``cov_hat`` return plain arrays, the
mean gaps of one candidate against each rival and the covariance of those
means. A tensor owns its read-only loss matrix: built from a caller's array
it holds a copy, while ``build_score_tensor`` hands over the matrix it has
just filled and ``ScoreTensor.head`` a view of the first rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import CandidateSet, Dataset, _readonly
from .nuisance import Nuisances


def _checked(losses: np.ndarray) -> np.ndarray:
    """``losses`` as a float array, which must be a finite (p, n) matrix."""
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2:
        raise ValueError("candidate losses must have shape (p, n)")
    if not np.all(np.isfinite(losses)):
        raise ValueError("candidate losses must be finite")
    return losses


@dataclass(frozen=True)
class ScoreTensor:
    """Per-unit candidate losses: ``losses[r, i] = tau_r[i]^2 - 2 tau_r[i] gamma[i]``.

    The loss matrix is the only form of the scores: the score of r against s
    on unit i is ``losses[r, i] - losses[s, i]``, formed where it is used.
    Every loss must be finite, so no statistic built from them is NaN. A
    tensor built from a caller's array holds a read-only copy of it.
    """

    losses: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "losses", _readonly(_checked(self.losses)))

    @classmethod
    def _over(cls, losses: np.ndarray) -> ScoreTensor:
        """A tensor over ``losses`` itself, set read-only in place: for a
        checked matrix that no caller holds, such as one this module has just
        built or a view of a tensor's rows."""
        losses.setflags(write=False)
        tensor = object.__new__(cls)
        object.__setattr__(tensor, "losses", losses)
        return tensor

    def head(self, p: int) -> ScoreTensor:
        """The losses of the first ``p`` candidates, a read-only view of
        these rows."""
        return ScoreTensor._over(self.losses[:p])

    @property
    def p(self) -> int:
        return self.losses.shape[0]

    @property
    def n(self) -> int:
        return self.losses.shape[1]


def pseudo_outcomes(dataset: Dataset, nuisances: Nuisances) -> np.ndarray:
    """Per-unit doubly robust pseudo-outcomes from per-unit nuisance values."""
    if nuisances.n != dataset.n:
        raise ValueError("nuisance arrays must align with the dataset")
    t, y = dataset.t.astype(float), dataset.y
    mu0, mu1, e = nuisances.mu0, nuisances.mu1, nuisances.e
    return t * (y - mu1) / e + mu1 - (1 - t) * (y - mu0) / (1 - e) - mu0


def build_score_tensor(
    dataset: Dataset, candidates: CandidateSet, nuisances: Nuisances
) -> ScoreTensor:
    """Score every candidate on every unit by its doubly robust loss."""
    if candidates.n != dataset.n:
        raise ValueError("candidate predictions must cover every dataset unit")
    gamma = pseudo_outcomes(dataset, nuisances)
    preds = candidates.predictions
    # overflowing losses are rejected by the finiteness check; one row at a
    # time, the build holds no second p x n temporary, and the tensor keeps
    # this matrix rather than a copy
    with np.errstate(over="ignore", invalid="ignore"):
        losses = preds**2
        for loss, pred in zip(losses, preds):
            loss -= 2.0 * pred * gamma
    return ScoreTensor._over(_checked(losses))


def _rival_scores(tensor: ScoreTensor, m: int) -> np.ndarray:
    """Per-unit scores of candidate ``m`` against each rival, shape (p - 1, n),
    in a new array."""
    if tensor.n < 2:
        raise ValueError("need at least two units to summarize scores")
    scores = tensor.losses[[s for s in range(tensor.p) if s != m]]
    return np.subtract(tensor.losses[m], scores, out=scores)


def delta_hat(tensor: ScoreTensor, m: int) -> np.ndarray:
    """Mean score of candidate ``m`` against each rival, in rival order."""
    return _rival_scores(tensor, m).mean(axis=1)


def cov_hat(tensor: ScoreTensor, m: int) -> np.ndarray:
    """Covariance of the mean score vector for candidate ``m``.

    Sample covariance (ddof=1) of the per-unit score vectors divided by n,
    so its diagonal is the squared standard error of each delta entry. The
    pairwise differences are formed first and centred in place, in the one
    (p - 1) x n array of the call: candidates with identical losses get
    exactly zero variance, and no entry is a difference of covariances,
    which cancels for near-duplicate candidates.
    """
    scores = _rival_scores(tensor, m)
    scores -= scores.mean(axis=1, keepdims=True)
    return np.dot(scores, scores.T) / (tensor.n - 1) / tensor.n
