"""Outcome and propensity nuisance models: ridge regression plus L2 logistic.

The estimator is one fixed learner, not a configurable one: each ridge and
the logistic fit carry an L2 penalty of 1e-3 per training row (intercepts
unpenalized), propensities are clipped to [0.05, 0.95], and the Newton
solve stops once a step's largest entry falls below 1e-10, failing after
100 iterations. Both solvers are deterministic (closed-form ridge, damped
Newton for the logistic) so that refitting after a one-unit replacement
measures genuine model movement rather than solver jitter. A fit builds one
intercept-first design matrix of its training units, which the solvers
share: each ridge takes its arm's rows, the logistic solve all of them, and
the penalty goes onto the slopes' diagonal entries and gradient terms in
place, with no penalty matrix. The per-unit values a model predicts are held
in ``datagen.Nuisances``, the type of the toy data's true values too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset, _freeze, _readonly, _sigmoid

_PENALTY_RATE = 1e-3
_CLIP_ETA = 0.05
_MAX_ITER = 100
_TOL = 1e-10


def min_arm_units(d: int) -> int:
    """Fewest training units per treatment arm that ``fit`` accepts on ``d``
    covariates: the arm's ridge system, ``d + 1`` unknowns, stays
    overdetermined."""
    return d + 2


@dataclass(frozen=True)
class NuisanceModel:
    """Fitted linear outcome heads and logistic propensity with clipping; each
    coefficient vector is intercept first, as the solvers return it."""

    mu0: np.ndarray
    mu1: np.ndarray
    prop: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mu0", "mu1", "prop"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))

    @property
    def d(self) -> int:
        return self.mu0.shape[0] - 1

    def predict_rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized predictions ``(mu0, mu1, e)`` for a (n, d) matrix."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ValueError(f"expected covariates with dimension {self.d}")
        mu0 = x @ self.mu0[1:] + self.mu0[0]
        mu1 = x @ self.mu1[1:] + self.mu1[0]
        raw = _sigmoid(x @ self.prop[1:] + self.prop[0])
        e = np.clip(raw, _CLIP_ETA, 1.0 - _CLIP_ETA)
        return mu0, mu1, e


def _penalize(matrix: np.ndarray, penalty: float) -> np.ndarray:
    """Add ``penalty`` to the slope entries of the diagonal of ``matrix``, in
    place, and return it: the intercept stays unpenalized."""
    slopes = np.arange(1, matrix.shape[0])
    matrix[slopes, slopes] += penalty
    return matrix


def _ridge_solve(design: np.ndarray, y: np.ndarray, penalty: float) -> np.ndarray:
    """Least squares on an intercept-first ``design`` with an L2 penalty on
    slopes (intercept unpenalized)."""
    gram = _penalize(design.T @ design, penalty)
    try:
        beta = np.linalg.solve(gram, design.T @ y)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("ridge system is singular despite regularization") from exc
    if not np.all(np.isfinite(beta)):
        raise RuntimeError("ridge solve produced non-finite coefficients")
    return beta


def _penalized_logloss(eta: np.ndarray, t: np.ndarray, beta: np.ndarray, penalty: float) -> float:
    """Penalized logistic loss at ``beta``, given its linear predictor ``eta``."""
    # log(1 + exp(eta)) - t * eta, computed stably
    ll = np.logaddexp(0.0, eta) - t * eta
    return float(ll.sum() + 0.5 * penalty * np.dot(beta[1:], beta[1:]))


def _newton_step(
    design: np.ndarray, prob: np.ndarray, t: np.ndarray, beta: np.ndarray, penalty: float
) -> np.ndarray:
    """The Newton step of the penalized logistic loss at ``beta``, whose
    fitted probabilities are ``prob``. The penalty's gradient and Hessian
    terms go onto the slopes only; the weighted design and the Hessian are
    freed on return, before the next iteration builds its own."""
    grad = design.T @ (prob - t)
    grad[1:] += penalty * beta[1:]
    hess = _penalize((design * (prob * (1.0 - prob))[:, None]).T @ design, penalty)
    try:
        return np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("logistic Hessian is singular despite regularization") from exc


def _logistic_solve(design: np.ndarray, t: np.ndarray, penalty: float) -> np.ndarray:
    """L2-penalized logistic regression on an intercept-first ``design`` by
    damped Newton iterations.

    Deterministic: fixed starting point, fixed iteration order, halving line
    search on the penalized loss. The accepted candidate's linear predictor
    and loss carry over to the next iteration, so each iterate is evaluated
    once. When 30 halvings all fail, the step is taken at scale 2**-30
    anyway. Raises if the step norm stays above ``_TOL`` for ``_MAX_ITER``
    iterations.
    """
    beta = np.zeros(design.shape[1])
    eta = design @ beta
    loss = _penalized_logloss(eta, t, beta, penalty)
    for _ in range(_MAX_ITER):
        step = _newton_step(design, _sigmoid(eta), t, beta, penalty)
        scale = 1.0
        for _ in range(30):
            candidate = beta - scale * step
            cand_eta = design @ candidate
            cand_loss = _penalized_logloss(cand_eta, t, candidate, penalty)
            if cand_loss <= loss:
                beta, eta, loss = candidate, cand_eta, cand_loss
                break
            scale *= 0.5
        else:
            beta = beta - scale * step
            eta = design @ beta
            loss = _penalized_logloss(eta, t, beta, penalty)
        if np.max(np.abs(scale * step)) < _TOL:
            if not np.all(np.isfinite(beta)):
                raise RuntimeError("logistic solve produced non-finite coefficients")
            return beta
    raise RuntimeError(f"logistic solver did not converge in {_MAX_ITER} iterations")


def fit(dataset: Dataset, indices: np.ndarray) -> NuisanceModel:
    """Fit outcome ridges per arm and a logistic propensity on ``indices``.

    Requires ``min_arm_units(d)`` units in each treatment arm of the
    training subset so both ridge systems are overdetermined. The three
    solvers share one intercept-first design matrix of the training units:
    each ridge takes its arm's rows, the logistic fit all of them.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("indices must be a nonempty 1-d index set")
    t = dataset.t[idx]
    y = dataset.y[idx]
    need = min_arm_units(dataset.d)
    arms = [t == arm for arm in (0, 1)]
    for arm, mask in enumerate(arms):
        n_arm = int(mask.sum())
        if n_arm < need:
            raise ValueError(f"treatment arm {arm} has {n_arm} training units; need at least {need}")

    design = np.empty((idx.size, dataset.d + 1))
    design[:, 0] = 1.0
    design[:, 1:] = dataset.x[idx]
    arm_betas = [_ridge_solve(design[mask], y[mask], _PENALTY_RATE * mask.sum()) for mask in arms]
    prop_beta = _logistic_solve(design, t.astype(float), _PENALTY_RATE * idx.size)
    _freeze(*arm_betas, prop_beta)
    return NuisanceModel(*arm_betas, prop_beta)
