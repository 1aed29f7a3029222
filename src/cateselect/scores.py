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
means. Both reduce each entry over the units on its own, without BLAS, so
the entries of the first k rivals are bitwise those of a problem with only
them, at any BLAS thread count. ``build_score_tensor`` returns the
matrix read-only; ``selectors.Prepared`` checks it and keeps it.
"""

from __future__ import annotations

import numpy as np

from .datagen import CandidateSet, Dataset
from .nuisance import Nuisances


def pseudo_outcomes(dataset: Dataset, nuisances: Nuisances) -> np.ndarray:
    """Per-unit doubly robust pseudo-outcomes from per-unit nuisance values."""
    if nuisances.n != dataset.n:
        raise ValueError("nuisance arrays must align with the dataset")
    t, y = dataset.t.astype(float), dataset.y
    mu0, mu1, e = nuisances.mu0, nuisances.mu1, nuisances.e
    return t * (y - mu1) / e + mu1 - (1 - t) * (y - mu0) / (1 - e) - mu0


def build_score_tensor(
    dataset: Dataset, candidates: CandidateSet, nuisances: Nuisances
) -> np.ndarray:
    """Score every candidate on every unit by its doubly robust loss:
    ``losses[r, i] = tau_r[i]^2 - 2 tau_r[i] gamma[i]``, a read-only p x n
    matrix."""
    if candidates.n != dataset.n:
        raise ValueError("candidate predictions must cover every dataset unit")
    gamma = pseudo_outcomes(dataset, nuisances)
    preds = candidates.predictions
    # overflowing losses are rejected by ``Prepared``'s finiteness check; one
    # row at a time, the build holds no second p x n temporary, and a problem
    # keeps this matrix rather than a copy
    with np.errstate(over="ignore", invalid="ignore"):
        losses = preds**2
        for loss, pred in zip(losses, preds):
            loss -= 2.0 * pred * gamma
    losses.setflags(write=False)
    return losses


def _rival_scores(losses: np.ndarray, m: int) -> np.ndarray:
    """Per-unit scores of candidate ``m`` against each rival in the p x n
    ``losses``, shape (p - 1, n), in a new array."""
    if losses.shape[1] < 2:
        raise ValueError("need at least two units to summarize scores")
    scores = losses[[s for s in range(len(losses)) if s != m]]
    return np.subtract(losses[m], scores, out=scores)


def delta_hat(losses: np.ndarray, m: int) -> np.ndarray:
    """Mean score of candidate ``m`` against each rival, in rival order."""
    return _rival_scores(losses, m).mean(axis=1)


def cov_hat(losses: np.ndarray, m: int) -> np.ndarray:
    """Covariance of the mean score vector for candidate ``m``.

    Sample covariance (ddof=1) of the per-unit score vectors divided by n,
    so its diagonal is the squared standard error of each delta entry. The
    pairwise differences are formed first and centred in place, in the one
    (p - 1) x n array of the call: candidates with identical losses get
    exactly zero variance, and no entry is a difference of covariances,
    which cancels for near-duplicate candidates.

    Each entry is its own reduction over the units, numpy's ``einsum``
    rather than BLAS, so entry (s, t) depends only on rivals s and t: the
    leading block of the first k rivals is bitwise the covariance those
    rivals alone get, and no BLAS thread count changes a bit.
    """
    scores = _rival_scores(losses, m)
    scores -= scores.mean(axis=1, keepdims=True)
    gram = np.empty((len(scores), len(scores)))
    for s, row in enumerate(scores):
        gram[s, : s + 1] = gram[: s + 1, s] = np.einsum("j,ij->i", row, scores[: s + 1])
    n = losses.shape[1]
    return gram / (n - 1) / n
