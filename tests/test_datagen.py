import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cateselect.datagen import (
    COMPETITIVE_PLUS_INFERIOR_SPECS,
    NEAR_TIED_SPECS,
    CandidateSet,
    Dataset,
    NoiseSpec,
    generate_toy,
    ingest_dataset,
    ingest_predictions,
    make_candidates,
    population_relative_error,
    write_dataset_csv,
    write_predictions_csv,
)


def test_propensities_clipped():
    _, truth = generate_toy(1000, (2, 2, 2, 2), seed=7)
    assert truth.e.min() >= 0.1
    assert truth.e.max() <= 0.9


def test_same_seed_bitwise_identical():
    ds1, tr1 = generate_toy(500, (2, 2, 2, 2), seed=42)
    ds2, tr2 = generate_toy(500, (2, 2, 2, 2), seed=42)
    npt.assert_array_equal(ds1.x, ds2.x)
    npt.assert_array_equal(ds1.t, ds2.t)
    npt.assert_array_equal(ds1.y, ds2.y)
    npt.assert_array_equal(tr1.tau, tr2.tau)
    npt.assert_array_equal(tr1.e, tr2.e)


def test_different_seed_differs():
    ds1, _ = generate_toy(500, (2, 2, 2, 2), seed=1)
    ds2, _ = generate_toy(500, (2, 2, 2, 2), seed=2)
    assert not np.array_equal(ds1.x, ds2.x)


def test_tau_mean_matches_centered_covariates():
    # E[tau] = 0 because the outcome block is centered Gaussian.
    _, truth = generate_toy(100_000, (2, 2, 2, 2), seed=11)
    bound = 4.0 * truth.tau.std() / np.sqrt(truth.n)
    assert abs(truth.tau.mean()) < bound


def test_tau_is_mu_difference():
    _, truth = generate_toy(200, (1, 3, 2, 1), seed=3)
    npt.assert_array_equal(truth.tau, truth.mu1 - truth.mu0)


def test_generate_toy_preconditions():
    with pytest.raises(ValueError):
        generate_toy(10, (2, 2, 2, 2), seed=0)
    with pytest.raises(ValueError):
        generate_toy(100, (0, 2, 2, 2), seed=0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_propensity_clipping_property(seed):
    _, truth = generate_toy(50, (1, 1, 1, 1), seed=seed)
    assert truth.e.min() >= 0.1 and truth.e.max() <= 0.9


def test_zero_noise_candidate_equals_tau():
    _, truth = generate_toy(300, (2, 2, 2, 2), seed=5)
    cands = make_candidates(truth, [NoiseSpec(0.0, 0.0), NoiseSpec(0.1, 0.1)], seed=9)
    npt.assert_array_equal(cands.predictions[0], truth.tau)


def test_candidate_prefix_stability():
    # Candidate r is bitwise identical no matter how many specs follow it.
    _, truth = generate_toy(200, (2, 2, 2, 2), seed=5)
    small = make_candidates(truth, list(NEAR_TIED_SPECS[:3]), seed=9)
    big = make_candidates(truth, list(NEAR_TIED_SPECS), seed=9)
    npt.assert_array_equal(small.predictions, big.predictions[:3])


def test_candidate_mse_moment_identity():
    _, truth = generate_toy(100_000, (2, 2, 2, 2), seed=21)
    specs = [NoiseSpec(0.0, 0.1), NoiseSpec(0.03, 0.1), NoiseSpec(0.3, 0.1)]
    cands = make_candidates(truth, specs, seed=22)
    for row, spec in zip(cands.predictions, specs):
        mse = np.mean((row - truth.tau) ** 2)
        assert mse == pytest.approx(spec.population_mse, rel=0.05)


def test_standard_spec_suites():
    assert len(COMPETITIVE_PLUS_INFERIOR_SPECS) == 7
    assert COMPETITIVE_PLUS_INFERIOR_SPECS[0] == NoiseSpec(0.0, 0.1)
    assert COMPETITIVE_PLUS_INFERIOR_SPECS[1] == NoiseSpec(0.03, 0.1)
    assert COMPETITIVE_PLUS_INFERIOR_SPECS[3] == NoiseSpec(0.3, 0.1)
    assert len(NEAR_TIED_SPECS) == 5
    assert all(s == NoiseSpec(0.03, 0.1) for s in NEAR_TIED_SPECS[1:])
    # the zero-bias candidate is the unique winner in both suites
    for suite in (COMPETITIVE_PLUS_INFERIOR_SPECS, NEAR_TIED_SPECS):
        mses = [s.population_mse for s in suite]
        assert np.argmin(mses) == 0
        assert population_relative_error(suite[1], suite[0]) > 0


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(0.0, -0.1)


def test_candidate_set_needs_two_rows():
    with pytest.raises(ValueError):
        CandidateSet(np.zeros((1, 10)))
    with pytest.raises(ValueError):
        make_candidates(generate_toy(50, (1, 1, 1, 1), 0)[1], [NoiseSpec(0, 0.1)], 1)


def test_dataset_validation():
    x = np.zeros((5, 2))
    with pytest.raises(ValueError):
        Dataset(x=x, t=np.ones(5, dtype=int), y=np.zeros(5))  # single arm
    with pytest.raises(ValueError):
        Dataset(x=x, t=np.array([0, 1, 2, 0, 1]), y=np.zeros(5))  # nonbinary
    with pytest.raises(ValueError):
        Dataset(x=x, t=np.array([0, 1, 0, 1, 0]), y=np.array([0, 1, np.inf, 0, 1.0]))


def test_dataset_csv_roundtrip(tmp_path):
    ds, _ = generate_toy(40, (1, 1, 1, 1), seed=13)
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    loaded = ingest_dataset(str(path))
    npt.assert_array_equal(loaded.x, ds.x)
    npt.assert_array_equal(loaded.t, ds.t)
    npt.assert_array_equal(loaded.y, ds.y)


def test_ingest_dataset_three_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x_0,x_1,t,y\n0.1,0.2,0,1.5\n0.3,0.4,1,2.5\n0.5,0.6,0,3.5\n")
    ds = ingest_dataset(str(path))
    assert ds.n == 3 and ds.d == 2


def test_ingest_dataset_bad_treatment_names_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x_0,t,y\n0.1,0,1.0\n0.2,2,2.0\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_dataset(str(path))


def test_ingest_dataset_malformed_row_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x_0,t,y\n0.1,0,1.0\n0.2,1\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_dataset(str(path))


def test_ingest_dataset_missing_arm(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x_0,t,y\n0.1,1,1.0\n0.2,1,2.0\n")
    with pytest.raises(ValueError, match="arm"):
        ingest_dataset(str(path))


def test_ingest_dataset_bad_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,t,y\n1,2,0,3\n")
    with pytest.raises(ValueError, match="header"):
        ingest_dataset(str(path))


def test_predictions_csv_roundtrip(tmp_path):
    _, truth = generate_toy(25, (1, 1, 1, 1), seed=4)
    cands = make_candidates(truth, [NoiseSpec(0, 0.1)] * 7, seed=6)
    path = tmp_path / "p.csv"
    write_predictions_csv(cands, path)
    loaded = ingest_predictions(str(path), 25)
    assert loaded.p == 7
    npt.assert_array_equal(loaded.predictions, cands.predictions)


def test_ingest_predictions_row_count_checked(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("tau_0,tau_1\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError, match="expected 5"):
        ingest_predictions(str(path), 5)
