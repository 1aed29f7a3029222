import numpy as np
import numpy.testing as npt
import pytest

from cateselect import nuisance
from cateselect.datagen import Dataset, _sigmoid, generate_toy
from cateselect.nuisance import NuisanceModel, Nuisances, fit


def _linear_dataset(n, d, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    beta0 = rng.uniform(-1, 1, d)
    beta1 = rng.uniform(-1, 1, d)
    t = (rng.random(n) < 0.5).astype(int)
    y = np.where(t == 1, x @ beta1 + 1.0, x @ beta0 - 1.0)
    if noise:
        y = y + rng.normal(0, noise, n)
    return Dataset(x=x, t=t, y=y), beta0, beta1


def _with_intercept(x):
    """The intercept-first design matrix the solvers take."""
    return np.column_stack([np.ones(x.shape[0]), x])


def test_zero_ridge_matches_ols():
    ds, beta0, beta1 = _linear_dataset(200, 3, seed=1)
    # noiseless linear outcomes: the unpenalized solve interpolates exactly
    for arm, slopes, intercept in ((0, beta0, -1.0), (1, beta1, 1.0)):
        mask = ds.t == arm
        beta = nuisance._ridge_solve(_with_intercept(ds.x[mask]), ds.y[mask], 0.0)
        npt.assert_allclose(beta[1:], slopes, atol=1e-8)
        npt.assert_allclose(beta[0], intercept, atol=1e-8)


def test_noiseless_slope_recovered_exactly():
    # y = 2x in both arms; prediction at x=3 must be 6
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 1))
    t = np.tile([0, 1], 30)
    y = 2.0 * x[:, 0]
    for arm in (0, 1):
        beta = nuisance._ridge_solve(_with_intercept(x[t == arm]), y[t == arm], 0.0)
        assert beta[0] + 3.0 * beta[1] == pytest.approx(6.0, abs=1e-10)


def test_zero_coefficient_model_predicts_intercepts():
    # intercept first, as the solvers return the coefficients
    model = NuisanceModel(mu0=[-0.5, 0.0, 0.0], mu1=[1.5, 0.0, 0.0], prop=np.zeros(3))
    mu0, mu1, e = model.predict_rows(np.array([[10.0, -3.0]]))
    assert (mu0[0], mu1[0], e[0]) == (-0.5, 1.5, 0.5)


def test_propensity_clipping():
    model = NuisanceModel(mu0=np.zeros(2), mu1=np.zeros(2), prop=[6.9, 0.0])  # sigmoid ~ 0.999
    _, _, e = model.predict_rows(np.array([[0.0]]))
    assert e[0] == 0.95


def test_predict_dimension_mismatch():
    ds, _, _ = _linear_dataset(100, 2, seed=3)
    model = fit(ds, np.arange(ds.n))
    with pytest.raises(ValueError):
        model.predict_rows(np.zeros((1, 5)))


def test_small_arm_rejected():
    ds, _, _ = _linear_dataset(100, 4, seed=5)
    # keep only 3 treated units: below d + 2
    treated = np.flatnonzero(ds.t == 1)[:3]
    control = np.flatnonzero(ds.t == 0)
    idx = np.concatenate([control, treated])
    with pytest.raises(ValueError, match="arm 1"):
        fit(ds, idx)


def test_fit_deterministic():
    ds, truth = generate_toy(800, (2, 2, 2, 2), seed=8)
    m1 = fit(ds, np.arange(ds.n))
    m2 = fit(ds, np.arange(ds.n))
    npt.assert_array_equal(m1.mu0, m2.mu0)
    npt.assert_array_equal(m1.prop, m2.prop)


def test_outcome_error_shrinks_with_n():
    # well-specified linear model: error roughly halves when n quadruples
    ratios = []
    for seed in range(5):
        errs = []
        for n in (5000, 20000):
            ds, truth = generate_toy(n, (2, 2, 2, 2), seed=1000 + seed)
            model = fit(ds, np.arange(n))
            _, mu1, _ = model.predict_rows(ds.x)
            errs.append(np.sqrt(np.mean((mu1 - truth.mu1) ** 2)))
        ratios.append(errs[0] / errs[1])
    assert 1.0 <= np.mean(ratios) <= 3.0


def test_oracle_nuisance_from_truth():
    _, truth = generate_toy(50, (1, 1, 1, 1), seed=1)
    oracle = Nuisances.from_truth(truth)
    npt.assert_array_equal(oracle.mu0, truth.mu0)
    assert oracle.n == truth.n
    with pytest.raises(ValueError):
        Nuisances(mu0=np.zeros(3), mu1=np.zeros(3), e=np.array([0.0, 0.5, 0.5]))


@pytest.mark.parametrize(
    "values",
    [
        {"mu0": [0.0, 0.0], "mu1": [np.inf, 0.0], "e": [np.nan, 0.5]},
        {"mu0": [np.nan, 0.0], "mu1": [0.0, 0.0], "e": [0.5, 0.5]},
        {"mu0": [0.0, 0.0], "mu1": [0.0, -np.inf], "e": [0.5, 0.5]},
        {"mu0": [0.0, 0.0], "mu1": [0.0, 0.0], "e": [0.5, np.nan]},
    ],
    ids=["inf_mu1_nan_e", "nan_mu0", "inf_mu1", "nan_e"],
)
def test_nuisances_reject_non_finite_values(values):
    # NaN fails both range comparisons of e; unchecked, the fault surfaced later
    # as non-finite candidate losses, which blames the candidates
    with pytest.raises(ValueError, match="nuisance values must be finite"):
        Nuisances(**values)


# --- logistic solver against the re-evaluating loop ---------------------------


def _reevaluating_solve(x, t, penalty, max_iter=100, tol=1e-10):
    """The damped Newton loop that recomputes ``design @ beta`` and the loss
    of every accepted iterate. Returns the coefficients and the numbers of
    iterations, line-search candidates and exhausted line searches."""

    def loss_at(design, beta):
        eta = design @ beta
        ll = np.logaddexp(0.0, eta) - t * eta
        return float(ll.sum() + 0.5 * penalty * np.dot(beta[1:], beta[1:]))

    design = np.column_stack([np.ones(x.shape[0]), x])
    k = design.shape[1]
    reg = penalty * np.eye(k)
    reg[0, 0] = 0.0
    beta = np.zeros(k)
    loss = loss_at(design, beta)
    candidates = exhausted = 0
    for iterations in range(1, max_iter + 1):
        prob = _sigmoid(design @ beta)
        grad = design.T @ (prob - t) + reg @ beta
        wdiag = prob * (1.0 - prob)
        hess = (design * wdiag[:, None]).T @ design + reg
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        for _ in range(30):
            candidate = beta - scale * step
            candidates += 1
            cand_loss = loss_at(design, candidate)
            if cand_loss <= loss:
                break
            scale *= 0.5
        else:
            exhausted += 1
        beta = beta - scale * step
        loss = loss_at(design, beta)
        if np.max(np.abs(scale * step)) < tol:
            return beta, iterations, candidates, exhausted
    raise RuntimeError("did not converge")


def _separable_dataset(seed, n, d, noise):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = (x @ np.array([3.0, -2.0, 1.0])[:d] + noise * rng.standard_normal(n) > 0).astype(int)
    return Dataset(x=x, t=t, y=x[:, 0])


SOLVER_CASES = {
    "toy_d8": (lambda: generate_toy(3000, (2, 2, 2, 2), seed=11)[0], None),
    "toy_d406": (lambda: generate_toy(2000, (2, 2, 2, 400), seed=12)[0], None),
    # the first Newton steps overshoot: line-search halvings
    "near_separable": (lambda: _separable_dataset(3, 200, 2, 0.05), 1e-2),
    # one line search fails all 30 halvings and steps at scale 2**-30
    "exhausted_search": (lambda: _separable_dataset(21, 50, 3, 0.05), 1e-6),
}


@pytest.mark.parametrize("case", sorted(SOLVER_CASES))
def test_logistic_fit_matches_reevaluating_loop(case, monkeypatch):
    make, logistic_l2 = SOLVER_CASES[case]
    ds = make()
    penalty = logistic_l2 if logistic_l2 is not None else 1e-3 * ds.n
    expected, iterations, candidates, exhausted = _reevaluating_solve(ds.x, ds.t.astype(float), penalty)

    calls = []
    loss = nuisance._penalized_logloss

    def counting_loss(*args):
        calls.append(None)
        return loss(*args)

    monkeypatch.setattr(nuisance, "_penalized_logloss", counting_loss)
    if logistic_l2 is None:
        # the toy cases go through fit, at its penalty of 1e-3 per training row
        model = fit(ds, np.arange(ds.n))
        coef = model.prop
    else:
        coef = nuisance._logistic_solve(_with_intercept(ds.x), ds.t.astype(float), logistic_l2)
    assert np.array_equal(coef, expected)
    # one loss per candidate, plus the start and each iterate no candidate reached
    assert len(calls) == 1 + candidates + exhausted
    if case == "near_separable":
        assert candidates > iterations
    if case == "exhausted_search":
        assert exhausted >= 1


def _penalty_matrix_ridge_solve(x, y, penalty):
    """The ridge solve on its own intercept-first copy of ``x``, with the
    penalty as a (d + 1) x (d + 1) matrix that leaves the intercept out."""
    design = np.column_stack([np.ones(x.shape[0]), x])
    reg = penalty * np.eye(design.shape[1])
    reg[0, 0] = 0.0
    return np.linalg.solve(design.T @ design + reg, design.T @ y)


def test_ridge_fit_matches_penalty_matrix_solve():
    ds = SOLVER_CASES["toy_d406"][0]()
    model = fit(ds, np.arange(ds.n))
    for arm, coef in ((0, model.mu0), (1, model.mu1)):
        mask = ds.t == arm
        expected = _penalty_matrix_ridge_solve(ds.x[mask], ds.y[mask], 1e-3 * mask.sum())
        assert np.array_equal(coef, expected)
