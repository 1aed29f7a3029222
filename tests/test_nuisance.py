import numpy as np
import numpy.testing as npt
import pytest

from cateselect.datagen import Dataset, generate_toy
from cateselect.nuisance import (
    NuisanceConfig,
    NuisanceModel,
    OracleNuisance,
    fit,
)


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


def test_zero_ridge_matches_ols():
    ds, beta0, beta1 = _linear_dataset(200, 3, seed=1)
    config = NuisanceConfig(ridge_lambda=0.0, logistic_l2=None)
    model = fit(ds, np.arange(ds.n), config)
    # noiseless linear outcomes: the unpenalized solve interpolates exactly
    npt.assert_allclose(model.mu0_coef, beta0, atol=1e-8)
    npt.assert_allclose(model.mu1_coef, beta1, atol=1e-8)
    npt.assert_allclose(model.mu0_intercept, -1.0, atol=1e-8)
    npt.assert_allclose(model.mu1_intercept, 1.0, atol=1e-8)


def test_noiseless_slope_recovered_exactly():
    # y = 2x in both arms; prediction at x=3 must be 6
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 1))
    t = np.tile([0, 1], 30)
    y = 2.0 * x[:, 0]
    ds = Dataset(x=x, t=t, y=y)
    model = fit(ds, np.arange(60), NuisanceConfig(ridge_lambda=0.0))
    mu0, mu1, _ = model.predict_rows(np.array([[3.0]]))
    assert mu0[0] == pytest.approx(6.0, abs=1e-10)
    assert mu1[0] == pytest.approx(6.0, abs=1e-10)


def test_zero_coefficient_model_predicts_intercepts():
    model = NuisanceModel(
        mu0_coef=np.zeros(2),
        mu0_intercept=-0.5,
        mu1_coef=np.zeros(2),
        mu1_intercept=1.5,
        prop_coef=np.zeros(2),
        prop_intercept=0.0,
        clip_eta=0.05,
    )
    mu0, mu1, e = model.predict_rows(np.array([[10.0, -3.0]]))
    assert (mu0[0], mu1[0], e[0]) == (-0.5, 1.5, 0.5)


def test_propensity_clipping():
    model = NuisanceModel(
        mu0_coef=np.zeros(1),
        mu0_intercept=0.0,
        mu1_coef=np.zeros(1),
        mu1_intercept=0.0,
        prop_coef=np.zeros(1),
        prop_intercept=6.9,  # sigmoid ~ 0.999
        clip_eta=0.05,
    )
    _, _, e = model.predict_rows(np.array([[0.0]]))
    assert e[0] == 0.95


def test_predict_dimension_mismatch():
    ds, _, _ = _linear_dataset(100, 2, seed=3)
    model = fit(ds, np.arange(ds.n), NuisanceConfig())
    with pytest.raises(ValueError):
        model.predict_rows(np.zeros((1, 5)))


def test_small_arm_rejected():
    ds, _, _ = _linear_dataset(100, 4, seed=5)
    # keep only 3 treated units: below d + 2
    treated = np.flatnonzero(ds.t == 1)[:3]
    control = np.flatnonzero(ds.t == 0)
    idx = np.concatenate([control, treated])
    with pytest.raises(ValueError, match="arm 1"):
        fit(ds, idx, NuisanceConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        NuisanceConfig(clip_eta=0.6)
    with pytest.raises(ValueError):
        NuisanceConfig(tol=0.0)
    with pytest.raises(ValueError):
        NuisanceConfig(ridge_lambda=-1.0)


def test_fit_deterministic():
    ds, truth = generate_toy(800, (2, 2, 2, 2), seed=8)
    m1 = fit(ds, np.arange(ds.n), NuisanceConfig())
    m2 = fit(ds, np.arange(ds.n), NuisanceConfig())
    npt.assert_array_equal(m1.mu0_coef, m2.mu0_coef)
    npt.assert_array_equal(m1.prop_coef, m2.prop_coef)


def test_outcome_error_shrinks_with_n():
    # well-specified linear model: error roughly halves when n quadruples
    ratios = []
    for seed in range(5):
        errs = []
        for n in (5000, 20000):
            ds, truth = generate_toy(n, (2, 2, 2, 2), seed=1000 + seed)
            model = fit(ds, np.arange(n), NuisanceConfig())
            _, mu1, _ = model.predict_rows(ds.x)
            errs.append(np.sqrt(np.mean((mu1 - truth.mu1) ** 2)))
        ratios.append(errs[0] / errs[1])
    assert 1.0 <= np.mean(ratios) <= 3.0


def test_oracle_nuisance_from_truth():
    _, truth = generate_toy(50, (1, 1, 1, 1), seed=1)
    oracle = OracleNuisance.from_truth(truth)
    npt.assert_array_equal(oracle.mu0, truth.mu0)
    assert oracle.n == truth.n
    with pytest.raises(ValueError):
        OracleNuisance(mu0=np.zeros(3), mu1=np.zeros(3), e=np.array([0.0, 0.5, 0.5]))
