"""Per-unit relative-error scores and their cross-fitted summaries.

The doubly robust pseudo-outcome transforms one observation into an
unbiased proxy for the true effect at its covariates; the pairwise score
``tau_r^2 - tau_s^2 - 2 (tau_r - tau_s) * gamma`` turns two candidate
predictions plus that proxy into a one-step estimate of their MSE gap.
Stacking scores over all ordered candidate pairs and units gives the tensor
every selector consumes.
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
    """All pairwise per-unit scores: ``values[r, s, i]`` compares r against s.

    Antisymmetric in (r, s) with zero diagonal. ``fold_of`` records each
    unit's major fold so downstream code can trace which nuisance model
    produced its pseudo-outcome.
    """

    values: np.ndarray
    fold_of: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        fold_of = np.asarray(self.fold_of, dtype=np.int8)
        if values.ndim != 3 or values.shape[0] != values.shape[1]:
            raise ValueError("score tensor must have shape (p, p, n)")
        if fold_of.shape != (values.shape[2],):
            raise ValueError("fold labels must cover all units")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "fold_of", _readonly(fold_of))

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[2]


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
    """Score every ordered candidate pair on every unit.

    Units in one major fold are scored with the nuisance model fitted on the
    opposite fold (or with oracle values). The result is exactly
    antisymmetric with a zero diagonal.
    """
    if candidates.n != dataset.n:
        raise ValueError("candidate predictions must cover every dataset unit")
    fold_of = np.asarray(split.major, dtype=np.int8)
    if fold_of.shape != (dataset.n,):
        raise ValueError("split plan does not match the dataset size")
    gamma = pseudo_outcomes(dataset, nuisances, fold_of)
    preds = candidates.predictions
    squares = preds**2
    # values[r, s, i] = preds[r,i]^2 - preds[s,i]^2 - 2 (preds[r,i] - preds[s,i]) gamma[i]
    values = (
        squares[:, None, :]
        - squares[None, :, :]
        - 2.0 * (preds[:, None, :] - preds[None, :, :]) * gamma[None, None, :]
    )
    return ScoreTensor(values=values, fold_of=fold_of)


def _others(p: int, m: int) -> tuple[int, ...]:
    return tuple(s for s in range(p) if s != m)


def delta_hat(tensor: ScoreTensor, m: int) -> DeltaVector:
    """Mean score of candidate ``m`` against each rival over all units."""
    if tensor.n < 2:
        raise ValueError("need at least two units to average scores")
    others = _others(tensor.p, m)
    delta = tensor.values[m, list(others), :].mean(axis=1)
    return DeltaVector(reference=m, others=others, delta=delta)


def cov_hat(tensor: ScoreTensor, m: int) -> CovarianceEstimate:
    """Covariance of the mean score vector for candidate ``m``.

    Sample covariance (ddof=1) of the per-unit score vectors divided by n,
    so its diagonal is the squared standard error of each delta entry.
    """
    if tensor.n < 2:
        raise ValueError("need at least two units to estimate a covariance")
    others = _others(tensor.p, m)
    rows = tensor.values[m, list(others), :]
    sigma = np.atleast_2d(np.cov(rows, ddof=1)) / tensor.n
    return CovarianceEstimate(sigma=sigma)
