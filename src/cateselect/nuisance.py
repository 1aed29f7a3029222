"""Outcome and propensity nuisance models: ridge regression plus L2 logistic.

Both solvers are deterministic (closed-form ridge, damped Newton for the
logistic) so that refitting after a one-unit replacement measures genuine
model movement rather than solver jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Dataset, ToyGroundTruth, _readonly, _sigmoid

_DEFAULT_PENALTY_RATE = 1e-3


@dataclass(frozen=True)
class NuisanceConfig:
    """Solver settings.

    ``ridge_lambda`` and ``logistic_l2`` are absolute penalty weights; when
    left as None they default to 1e-3 times the number of rows entering the
    respective regression, which keeps the regularization strength constant
    per sample and the Newton Hessian invertible.
    """

    ridge_lambda: float | None = None
    logistic_l2: float | None = None
    clip_eta: float = 0.05
    max_iter: int = 100
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 < self.clip_eta < 0.5:
            raise ValueError("clip_eta must lie in (0, 0.5)")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        for name in ("ridge_lambda", "logistic_l2"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class NuisanceModel:
    """Fitted linear outcome heads and logistic propensity with clipping."""

    mu0_coef: np.ndarray
    mu0_intercept: float
    mu1_coef: np.ndarray
    mu1_intercept: float
    prop_coef: np.ndarray
    prop_intercept: float
    clip_eta: float

    def __post_init__(self) -> None:
        for name in ("mu0_coef", "mu1_coef", "prop_coef"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))

    @property
    def d(self) -> int:
        return self.mu0_coef.shape[0]

    def predict_rows(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized predictions ``(mu0, mu1, e)`` for a (n, d) matrix."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ValueError(f"expected covariates with dimension {self.d}")
        mu0 = x @ self.mu0_coef + self.mu0_intercept
        mu1 = x @ self.mu1_coef + self.mu1_intercept
        raw = _sigmoid(x @ self.prop_coef + self.prop_intercept)
        e = np.clip(raw, self.clip_eta, 1.0 - self.clip_eta)
        return mu0, mu1, e


@dataclass(frozen=True)
class OracleNuisance:
    """Per-unit true nuisance values, index-aligned with a dataset.

    Used to bypass fitting entirely, e.g. to isolate the effect of nuisance
    estimation error in simulation studies.
    """

    mu0: np.ndarray
    mu1: np.ndarray
    e: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mu0", "mu1", "e"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))
        n = self.mu0.shape[0]
        if self.mu1.shape != (n,) or self.e.shape != (n,):
            raise ValueError("oracle nuisance arrays must share one length")
        if self.e.min() <= 0.0 or self.e.max() >= 1.0:
            raise ValueError("oracle propensities must lie strictly inside (0, 1)")

    @classmethod
    def from_truth(cls, truth: ToyGroundTruth) -> "OracleNuisance":
        return cls(mu0=truth.mu0, mu1=truth.mu1, e=truth.e)

    @property
    def n(self) -> int:
        return self.mu0.shape[0]


def _ridge_solve(x: np.ndarray, y: np.ndarray, penalty: float) -> np.ndarray:
    """Least squares with an L2 penalty on slopes (intercept unpenalized)."""
    design = np.column_stack([np.ones(x.shape[0]), x])
    k = design.shape[1]
    reg = penalty * np.eye(k)
    reg[0, 0] = 0.0
    gram = design.T @ design + reg
    try:
        beta = np.linalg.solve(gram, design.T @ y)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("ridge system is singular despite regularization") from exc
    if not np.all(np.isfinite(beta)):
        raise RuntimeError("ridge solve produced non-finite coefficients")
    return beta


def _penalized_logloss(design: np.ndarray, t: np.ndarray, beta: np.ndarray, penalty: float) -> float:
    eta = design @ beta
    # log(1 + exp(eta)) - t * eta, computed stably
    ll = np.logaddexp(0.0, eta) - t * eta
    return float(ll.sum() + 0.5 * penalty * np.dot(beta[1:], beta[1:]))


def _logistic_solve(
    x: np.ndarray, t: np.ndarray, penalty: float, max_iter: int, tol: float
) -> np.ndarray:
    """L2-penalized logistic regression by damped Newton iterations.

    Deterministic: fixed starting point, fixed iteration order, halving line
    search on the penalized loss. Raises if the step norm never falls below
    ``tol``.
    """
    design = np.column_stack([np.ones(x.shape[0]), x])
    k = design.shape[1]
    reg = penalty * np.eye(k)
    reg[0, 0] = 0.0
    beta = np.zeros(k)
    loss = _penalized_logloss(design, t, beta, penalty)
    for _ in range(max_iter):
        prob = _sigmoid(design @ beta)
        grad = design.T @ (prob - t) + reg @ beta
        wdiag = prob * (1.0 - prob)
        hess = (design * wdiag[:, None]).T @ design + reg
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("logistic Hessian is singular despite regularization") from exc
        scale = 1.0
        for _ in range(30):
            candidate = beta - scale * step
            cand_loss = _penalized_logloss(design, t, candidate, penalty)
            if cand_loss <= loss:
                break
            scale *= 0.5
        beta = beta - scale * step
        loss = _penalized_logloss(design, t, beta, penalty)
        if np.max(np.abs(scale * step)) < tol:
            if not np.all(np.isfinite(beta)):
                raise RuntimeError("logistic solve produced non-finite coefficients")
            return beta
    raise RuntimeError(f"logistic solver did not converge in {max_iter} iterations")


def fit(dataset: Dataset, indices: np.ndarray, config: NuisanceConfig) -> NuisanceModel:
    """Fit outcome ridges per arm and a logistic propensity on ``indices``.

    Requires at least ``d + 2`` units in each treatment arm of the training
    subset so both ridge systems are overdetermined.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("indices must be a nonempty 1-d index set")
    x = dataset.x[idx]
    t = dataset.t[idx]
    y = dataset.y[idx]
    d = dataset.d

    arm_betas = {}
    for arm in (0, 1):
        mask = t == arm
        n_arm = int(mask.sum())
        if n_arm < d + 2:
            raise ValueError(
                f"treatment arm {arm} has {n_arm} training units; need at least {d + 2}"
            )
        penalty = config.ridge_lambda
        if penalty is None:
            penalty = _DEFAULT_PENALTY_RATE * n_arm
        arm_betas[arm] = _ridge_solve(x[mask], y[mask], penalty)

    penalty = config.logistic_l2
    if penalty is None:
        penalty = _DEFAULT_PENALTY_RATE * idx.size
    prop_beta = _logistic_solve(x, t.astype(float), penalty, config.max_iter, config.tol)

    return NuisanceModel(
        mu0_coef=arm_betas[0][1:],
        mu0_intercept=float(arm_betas[0][0]),
        mu1_coef=arm_betas[1][1:],
        mu1_intercept=float(arm_betas[1][0]),
        prop_coef=prop_beta[1:],
        prop_intercept=float(prop_beta[0]),
        clip_eta=config.clip_eta,
    )

