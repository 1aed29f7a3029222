"""Per-unit relative-error scores and their cross-fitted summaries.

The doubly robust pseudo-outcome transforms one observation into an
unbiased proxy for the true effect at its covariates. Each candidate's
per-unit loss ``tau_r^2 - 2 tau_r * gamma`` is its squared error against
that proxy with the shared ``gamma^2`` dropped, so the pairwise score
``tau_r^2 - tau_s^2 - 2 (tau_r - tau_s) * gamma`` of two candidates, a
one-step estimate of their MSE gap, is the difference of their losses.
Every selector consumes the p x n loss matrix and contrasts its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Union

import numpy as np

from .datagen import CandidateSet, Dataset, _readonly
from .nuisance import NuisanceModel, OracleNuisance

if TYPE_CHECKING:
    from .selectors import SplitPlan

FOLD_A = 0
FOLD_B = 1

NuisanceSource = Union[Mapping[int, NuisanceModel], OracleNuisance]

PSD_TOL = 1e-8


@dataclass(frozen=True)
class ScoreTensor:
    """Per-unit candidate losses: ``losses[r, i] = tau_r[i]^2 - 2 tau_r[i] gamma[i]``.

    The score of r against s on unit i is ``losses[r, i] - losses[s, i]``.
    ``fold_of`` records each unit's major fold so downstream code can trace
    which nuisance model produced its pseudo-outcome.
    """

    losses: np.ndarray
    fold_of: np.ndarray

    def __post_init__(self) -> None:
        losses = np.asarray(self.losses, dtype=float)
        fold_of = np.asarray(self.fold_of, dtype=np.int8)
        if losses.ndim != 2:
            raise ValueError("candidate losses must have shape (p, n)")
        if fold_of.shape != (losses.shape[1],):
            raise ValueError("fold labels must cover all units")
        object.__setattr__(self, "losses", _readonly(losses))
        object.__setattr__(self, "fold_of", _readonly(fold_of))

    @property
    def values(self) -> np.ndarray:
        """All pairwise scores, ``values[r, s, i]``: exactly antisymmetric in
        (r, s) with a zero diagonal. Built on demand for inspection only."""
        return _readonly(self.losses[:, None, :] - self.losses[None, :, :])

    @property
    def p(self) -> int:
        return self.losses.shape[0]

    @property
    def n(self) -> int:
        return self.losses.shape[1]


@dataclass(frozen=True)
class DeltaVector:
    """Estimated MSE gaps of candidate ``reference`` against every other."""

    reference: int
    others: tuple[int, ...]
    delta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", _readonly(np.asarray(self.delta, dtype=float)))
        if self.delta.shape != (len(self.others),):
            raise ValueError("delta length must match the comparison set")
        if not np.all(np.isfinite(self.delta)):
            raise ValueError("delta entries must be finite")


@dataclass(frozen=True)
class CovarianceEstimate:
    """Covariance of the mean score vector (per-unit covariance over n)."""

    sigma: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("covariance must be square")
        if not np.allclose(sigma, sigma.T, atol=1e-12, rtol=0.0):
            raise ValueError("covariance must be symmetric")
        eigvals = np.linalg.eigvalsh((sigma + sigma.T) / 2.0)
        if eigvals.min() < -PSD_TOL:
            raise ValueError("covariance is not positive semidefinite within tolerance")
        object.__setattr__(self, "sigma", _readonly(sigma))

    @property
    def k(self) -> int:
        return self.sigma.shape[0]


def _gamma_from_values(
    t: np.ndarray, y: np.ndarray, mu0: np.ndarray, mu1: np.ndarray, e: np.ndarray
) -> np.ndarray:
    return t * (y - mu1) / e + mu1 - (1 - t) * (y - mu0) / (1 - e) - mu0


def pseudo_outcomes(dataset: Dataset, nuisances: NuisanceSource, fold_of: np.ndarray) -> np.ndarray:
    """Per-unit pseudo-outcomes, scoring each unit with its fold's model.

    ``nuisances`` maps each major fold label to the model that scores that
    fold's units (fitted on the opposite fold), or supplies oracle values
    directly.
    """
    if isinstance(nuisances, OracleNuisance):
        if nuisances.n != dataset.n:
            raise ValueError("oracle nuisance arrays must align with the dataset")
        return _gamma_from_values(
            dataset.t.astype(float), dataset.y, nuisances.mu0, nuisances.mu1, nuisances.e
        )
    gamma = np.empty(dataset.n)
    seen = np.zeros(dataset.n, dtype=bool)
    for fold, model in nuisances.items():
        mask = fold_of == fold
        if not mask.any():
            continue
        mu0, mu1, e = model.predict_rows(dataset.x[mask])
        gamma[mask] = _gamma_from_values(dataset.t[mask].astype(float), dataset.y[mask], mu0, mu1, e)
        seen |= mask
    if not seen.all():
        raise ValueError("nuisance mapping does not cover every major fold present")
    return gamma


def build_score_tensor(
    dataset: Dataset,
    candidates: CandidateSet,
    split: "SplitPlan",
    nuisances: NuisanceSource,
) -> ScoreTensor:
    """Score every candidate on every unit by its doubly robust loss.

    Units in one major fold are scored with the nuisance model fitted on the
    opposite fold (or with oracle values).
    """
    if candidates.n != dataset.n:
        raise ValueError("candidate predictions must cover every dataset unit")
    fold_of = np.asarray(split.major, dtype=np.int8)
    if fold_of.shape != (dataset.n,):
        raise ValueError("split plan does not match the dataset size")
    gamma = pseudo_outcomes(dataset, nuisances, fold_of)
    preds = candidates.predictions
    return ScoreTensor(losses=preds**2 - 2.0 * preds * gamma, fold_of=fold_of)


def _others(p: int, m: int) -> tuple[int, ...]:
    return tuple(s for s in range(p) if s != m)


def delta_hat(tensor: ScoreTensor, m: int) -> DeltaVector:
    """Mean score of candidate ``m`` against each rival over all units."""
    if tensor.n < 2:
        raise ValueError("need at least two units to average scores")
    others = _others(tensor.p, m)
    delta = (tensor.losses[m] - tensor.losses[list(others)]).mean(axis=1)
    return DeltaVector(reference=m, others=others, delta=delta)


def cov_hat(tensor: ScoreTensor, m: int) -> CovarianceEstimate:
    """Covariance of the mean score vector for candidate ``m``.

    Sample covariance (ddof=1) of the per-unit score vectors divided by n,
    so its diagonal is the squared standard error of each delta entry.
    """
    if tensor.n < 2:
        raise ValueError("need at least two units to estimate a covariance")
    rows = tensor.losses[m] - tensor.losses[list(_others(tensor.p, m))]
    sigma = np.atleast_2d(np.cov(rows, ddof=1)) / tensor.n
    return CovarianceEstimate(sigma=sigma)
