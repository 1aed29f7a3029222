import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import cateselect
from cateselect.datagen import CandidateSet, NoiseSpec, Dataset, Nuisances, generate_toy, make_candidates
from cateselect.nuisance import NuisanceModel
from cateselect.scores import (
    build_score_tensor,
    cov_hat,
    delta_hat,
    _rival_scores,
    pseudo_outcomes,
)
from cateselect import selectors
from cateselect.selectors import prepare


def _constant_model(mu0, mu1, e_logit, d=1):
    slopes = np.zeros(d)
    return NuisanceModel(mu0=np.r_[mu0, slopes], mu1=np.r_[mu1, slopes], prop=np.r_[e_logit, slopes])


def _values(model, ds):
    """The per-unit nuisance values a model predicts for every unit of ``ds``."""
    return Nuisances(*model.predict_rows(ds.x))


def _two_units(y_treated, y_control):
    """One treated and one control unit at x = 0."""
    return Dataset(x=np.zeros((2, 1)), t=np.array([1, 0]), y=np.array([y_treated, y_control]))


def test_pseudo_outcome_hand_value():
    # t=1, y=2, mu1=1, mu0=0, e=0.5 -> 1/0.5 + 1 - 0 - 0 = 3
    model = _constant_model(mu0=0.0, mu1=1.0, e_logit=0.0)
    ds = _two_units(2.0, 0.0)
    gamma = pseudo_outcomes(ds, _values(model, ds))
    assert gamma[0] == pytest.approx(3.0, abs=1e-12)


def test_scores_reject_arrays_that_do_not_match_the_dataset():
    ds = _two_units(1.0, 0.0)
    three = Nuisances(mu0=np.zeros(3), mu1=np.zeros(3), e=np.full(3, 0.5))
    with pytest.raises(ValueError, match="nuisance arrays must align with the dataset"):
        pseudo_outcomes(ds, three)
    two = Nuisances(mu0=np.zeros(2), mu1=np.zeros(2), e=np.full(2, 0.5))
    with pytest.raises(ValueError, match="candidate predictions must cover every dataset unit"):
        build_score_tensor(ds, CandidateSet(np.zeros((2, 3))), two)


def test_pseudo_outcome_vanishing_residuals():
    # y equals the predicted mean of its own arm: the proxy collapses to mu1 - mu0
    model = _constant_model(mu0=0.25, mu1=1.75, e_logit=0.3)
    ds = _two_units(1.75, 0.25)
    gamma = pseudo_outcomes(ds, _values(model, ds))
    assert gamma[0] == pytest.approx(1.5, abs=1e-12)
    assert gamma[1] == pytest.approx(1.5, abs=1e-12)


def test_pseudo_outcome_conditionally_unbiased_at_fixed_x():
    # Monte Carlo integration at one covariate point with true nuisances:
    # the mean proxy must land on mu1(x) - mu0(x) within 4 standard errors.
    rng = np.random.default_rng(12345)
    n = 1_000_000
    mu0_x, mu1_x = -0.4, 0.9
    logits = 0.7 + rng.standard_normal(n)
    e = np.clip(1.0 / (1.0 + np.exp(-logits)), 0.1, 0.9)
    t = (rng.random(n) < e).astype(int)
    y = np.where(t == 1, mu1_x + rng.normal(0, 0.5, n), mu0_x + rng.normal(0, 0.5, n))
    ds = Dataset(x=np.zeros((n, 1)), t=t, y=y)
    oracle = Nuisances(mu0=np.full(n, mu0_x), mu1=np.full(n, mu1_x), e=e)
    gamma = pseudo_outcomes(ds, oracle)
    se = gamma.std(ddof=1) / np.sqrt(n)
    assert abs(gamma.mean() - (mu1_x - mu0_x)) < 4 * se


def test_pair_score_hand_values():
    model = _constant_model(mu0=0.0, mu1=1.0, e_logit=0.0)
    ds = _two_units(2.0, 0.0)  # the treated unit's proxy is 3
    cands = CandidateSet(np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.5], [0.5, 0.5]]))
    losses = build_score_tensor(ds, cands, _values(model, ds))
    assert losses[0, 0] - losses[1, 0] == pytest.approx(-5.0, abs=1e-12)
    assert losses[2, 0] - losses[3, 0] == 0.0
    # swapping the candidates flips the sign exactly
    assert losses[0, 0] - losses[1, 0] == -(losses[1, 0] - losses[0, 0])


def _toy_tensor(n=400, p=4, seed=3):
    ds, truth = generate_toy(n, (2, 2, 2, 2), seed=seed)
    specs = [NoiseSpec(0.0, 0.1)] + [NoiseSpec(0.03, 0.1)] * (p - 1)
    cands = make_candidates(truth, specs, seed=seed + 1)
    plan = selectors.two_way_split(n, seed + 2)
    losses = prepare(ds, cands, plan).losses
    return losses, ds, cands, plan


def test_tensor_antisymmetry_and_zero_diagonal():
    # the pair scores the selectors use: row j of _rival_scores(losses, r) is
    # r against its j-th rival, so s sits at row s - (s > r)
    losses, *_ = _toy_tensor()
    rival = [_rival_scores(losses, m) for m in range(len(losses))]
    for r in range(len(losses)):
        for s in range(len(losses)):
            if s != r:
                npt.assert_array_equal(rival[r][s - (s > r)], -rival[s][r - (r > s)])
        # a candidate against an exact copy of itself scores zero
        doubled = np.vstack([losses, losses[r]])
        npt.assert_array_equal(_rival_scores(doubled, r)[-1], np.zeros(losses.shape[1]))


def test_identical_candidates_zero_tensor():
    ds, truth = generate_toy(100, (1, 1, 1, 1), seed=4)
    row = truth.tau + 0.1
    cands = CandidateSet(np.vstack([row, row]))
    losses = build_score_tensor(ds, cands, truth)
    npt.assert_array_equal(losses[0] - losses[1], np.zeros(losses.shape[1]))


def test_delta_hat_is_tensor_mean():
    losses, *_ = _toy_tensor()
    delta = delta_hat(losses, 2)
    expected = (losses[2] - losses[[0, 1, 3]]).mean(axis=1)
    npt.assert_array_equal(delta, expected)


def test_delta_antisymmetry():
    losses, *_ = _toy_tensor()
    d01 = delta_hat(losses, 0)[0]
    d10 = delta_hat(losses, 1)[0]
    assert d01 == -d10


def test_cov_hat_diagonal_is_variance_over_n():
    losses, *_ = _toy_tensor()
    cov = cov_hat(losses, 0)
    rows = losses[0] - losses[[1, 2, 3]]
    for j in range(3):
        npt.assert_allclose(cov[j, j], np.var(rows[j], ddof=1) / losses.shape[1], rtol=1e-12)
    # PSD within tolerance
    assert np.linalg.eigvalsh(cov).min() >= -1e-8


def test_cov_hat_matches_differences_of_centred_losses():
    # the reference centres each candidate's losses before differencing them:
    # the same sums in another order, so the two agree to rounding (1e-12 of
    # the largest entry, thousands of float64 ulps)
    losses, *_ = _toy_tensor()
    centred = losses - losses.mean(axis=1, keepdims=True)
    for m in range(len(losses)):
        scores = centred[m] - centred[[s for s in range(len(losses)) if s != m]]
        expected = scores @ scores.T / (losses.shape[1] - 1) / losses.shape[1]
        npt.assert_allclose(cov_hat(losses, m), expected, rtol=0, atol=1e-12 * np.abs(expected).max())


def test_cov_hat_resolves_near_duplicate_candidates():
    # losses 1e-9 apart per unit: the variance of their difference must
    # survive, which a difference of covariances would cancel away
    n = 1000
    rng = np.random.default_rng(5)
    base = rng.standard_normal(n)
    losses = np.vstack([base + 1e-9 * rng.standard_normal(n), base])
    diff = losses[0] - losses[1]
    variance = cov_hat(losses, 0)[0, 0]
    assert variance > 0.0
    npt.assert_allclose(variance, np.var(diff, ddof=1) / n, rtol=1e-6)
    # exact duplicates still have exactly zero variance
    assert cov_hat(np.vstack([base, base]), 0)[0, 0] == 0.0


# writes the bytes of every candidate's covariance for a fixed 7 x 30 000 loss matrix
_COV_HAT_BYTES = """
import sys
import numpy as np
from cateselect.scores import cov_hat
rng = np.random.default_rng(7)
losses = rng.normal(size=(7, 30_000)) * rng.uniform(0.5, 2.0, size=(7, 1))
sys.stdout.buffer.write(b"".join(cov_hat(losses, m).tobytes() for m in range(len(losses))))
"""


def test_cov_hat_bits_do_not_depend_on_blas_threads():
    # each entry is reduced without BLAS, so a record never depends on the
    # thread count a pool worker's BLAS starts with; at this size a BLAS dot
    # product's bits differ between one thread and two
    src = str(Path(cateselect.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = [sys.executable, "-c", _COV_HAT_BYTES]
        child = subprocess.run(run, env=env, capture_output=True, check=True, timeout=120)
        outputs.append(child.stdout)
    assert len(outputs[0]) == 7 * 6 * 6 * 8
    assert outputs[0] == outputs[1]


def test_constant_scores_give_constant_delta_zero_variance():
    n = 10
    losses = np.zeros((2, n))
    losses[0] = 0.7
    assert delta_hat(losses, 0)[0] == pytest.approx(0.7)
    assert cov_hat(losses, 0)[0, 0] == 0.0


def test_delta_matches_population_value_with_oracle():
    # one-shot version of the large-n oracle agreement check
    n = 50_000
    ds, truth = generate_toy(n, (2, 2, 2, 2), seed=31)
    specs = [NoiseSpec(0.0, 0.1), NoiseSpec(0.3, 0.1)]
    cands = make_candidates(truth, specs, seed=32)
    losses = build_score_tensor(ds, cands, truth)
    delta = delta_hat(losses, 0)
    cov = cov_hat(losses, 0)
    target = specs[0].population_mse - specs[1].population_mse
    assert abs(delta[0] - target) < 4 * np.sqrt(cov[0, 0])


def test_cross_fitting_uses_opposite_fold_model(monkeypatch):
    # constant models with different intercepts per training fold leave a
    # visible imprint: every unit must carry the other fold's model
    n = 60
    ds, _ = generate_toy(n, (1, 1, 1, 1), seed=9)
    cands = CandidateSet(np.vstack([np.zeros(n), np.ones(n)]))
    plan = selectors.two_way_split(n, 10)
    model_a = _constant_model(mu0=0.0, mu1=0.0, e_logit=0.0, d=4)
    model_b = _constant_model(mu0=5.0, mu1=5.0, e_logit=0.0, d=4)
    trained_on = {0: model_a, 1: model_b}

    def stub_fit(dataset, indices):
        fold = int(plan.major[indices[0]])
        npt.assert_array_equal(indices, np.flatnonzero(plan.major == fold))
        return trained_on[fold]

    monkeypatch.setattr(selectors, "fit", stub_fit)
    losses = prepare(ds, cands, plan).losses
    gamma_a = pseudo_outcomes(ds, _values(model_a, ds))
    gamma_b = pseudo_outcomes(ds, _values(model_b, ds))
    assert np.all(gamma_a != gamma_b)
    # score for pair (0, 1) is -1 + 2 * gamma, gamma from the other fold's model
    expected = np.where(plan.major == 0, gamma_b, gamma_a)
    npt.assert_allclose(losses[0] - losses[1], -1.0 + 2.0 * expected, rtol=1e-12)
