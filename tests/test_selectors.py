import dataclasses
import json
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from cateselect import selectors
from cateselect.datagen import (
    NEAR_TIED_SPECS,
    CandidateSet,
    Dataset,
    NoiseSpec,
    generate_toy,
    make_candidates,
)
from cateselect.harness import _derived_seeds
from cateselect.selectors import (
    SelectorConfig,
    Prepared,
    SplitPlan,
    _INNER_FOLDS,
    _weighted_test,
    exp_weighted_statistics,
    exp_weights,
    naive_critical_value,
    prepare,
    select,
    single_layer_split,
    two_way_split,
)


# --- splits ---------------------------------------------------------------


def test_split_balanced_cells():
    plan = two_way_split(100, seed=1)
    for fold in (0, 1):
        mask = plan.major == fold
        assert mask.sum() == 50
        counts = np.bincount(plan.inner[mask], minlength=5)
        npt.assert_array_equal(counts, np.full(5, 10))


def test_split_deterministic():
    p1 = two_way_split(123, seed=9)
    p2 = two_way_split(123, seed=9)
    npt.assert_array_equal(p1.major, p2.major)
    npt.assert_array_equal(p1.inner, p2.inner)


@given(n=st.integers(20, 300), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_split_partition_property(n, seed):
    two_way, flat = two_way_split(n, seed), single_layer_split(n, seed)
    for plan in (two_way, flat):
        layout = _mask_cells(plan)
        seen = np.concatenate([eval_idx for eval_idx, _ in layout])
        npt.assert_array_equal(np.sort(seen), np.arange(n))
        for eval_idx, weight_idx in layout:
            assert eval_idx.size >= 2
            assert np.intersect1d(eval_idx, weight_idx).size == 0
            # weights are learned on the rest of the cell's own major fold
            major = np.flatnonzero(plan.major == plan.major[eval_idx[0]])
            npt.assert_array_equal(weight_idx, np.setdiff1d(major, eval_idx))
    # the one-layer split's only major fold is the whole sample
    for eval_idx, weight_idx in _mask_cells(flat):
        npt.assert_array_equal(weight_idx, np.setdiff1d(np.arange(n), eval_idx))


def _mask_cells(plan):
    """Each cell's (eval units, weight units), major fold then inner fold,
    built from three masks per cell."""
    indices = np.arange(plan.n)
    out = []
    for fold in range(plan.groups):
        in_major = plan.major == fold
        for v in range(_INNER_FOLDS):
            in_cell = in_major & (plan.inner == v)
            out.append((indices[in_cell], indices[in_major & ~in_cell]))
    return out


def test_split_too_small_rejected():
    # n >= 20, the toy design's own rule, gives every inner fold two units
    assert two_way_split(20, seed=0).n == 20
    with pytest.raises(ValueError, match="n=19 is too small for 5 inner folds"):
        two_way_split(19, seed=0)
    with pytest.raises(ValueError, match="n=9 is too small for 5 inner folds"):
        single_layer_split(9, seed=0)


# --- exponential weights ---------------------------------------------------


def test_exp_weights_zero_lambda_uniform():
    w = exp_weights(np.array([3.0, -1.0, 0.5]), 0.0)
    npt.assert_allclose(w, np.full(3, 1 / 3), atol=1e-15)


def test_exp_weights_symmetry():
    w = exp_weights(np.array([0.7, 0.7]), lam=2.3)
    npt.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_exp_weights_softmax_value():
    w = exp_weights(np.array([1.0, 0.0]), lam=1.0)
    e = np.e
    npt.assert_allclose(w, [e / (1 + e), 1 / (1 + e)], atol=1e-12)


def test_exp_weights_shift_invariance_exact():
    # dyadic entries and shifts are exactly representable, so the
    # max-subtraction implementation gives bitwise equality
    delta = np.array([0.5, -1.25, 2.0, 0.0])
    for c in (1.0, -4.0, 256.0):
        npt.assert_array_equal(exp_weights(delta, 3.0), exp_weights(delta + c, 3.0))


@given(
    vals=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
    lam=st.floats(0.0, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_exp_weights_simplex_property(vals, lam):
    w = exp_weights(np.array(vals), lam)
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-12


def test_exp_weights_validation():
    with pytest.raises(ValueError):
        exp_weights(np.array([np.inf, 0.0]), 1.0)
    for lam in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            exp_weights(np.array([1.0]), lam)


# --- proposed selector -----------------------------------------------------


def _toy_problem(n=600, specs=None, seed=100):
    specs = specs or (NoiseSpec(0.0, 0.1), NoiseSpec(0.03, 0.1), NoiseSpec(0.3, 0.1))
    data_seed, cand_seed, sel_seed = _derived_seeds(seed, 0, 0)
    ds, truth = generate_toy(n, (2, 2, 2, 2), data_seed)
    cands = make_candidates(truth, specs, cand_seed)
    return ds, truth, cands, sel_seed


def _true_problem(ds, truth, cands, config, groups=2):
    """The problem a selector on ``groups`` major folds tests, scored with the
    true nuisances instead of cross-fitted ones."""
    plan = selectors._draw_plan(groups, ds.n, config)
    return prepare(ds, cands, plan, truth)


def _proposed_statistics(ds, cands, config):
    """The weighted-test statistics behind the proposed selector, checked against
    the statistics it reports."""
    res = select(ds, cands, config)[0]
    plan = two_way_split(ds.n, config.seed)
    problem = prepare(ds, cands, plan)
    stats = exp_weighted_statistics(problem, config.resolve_lam(ds.n))
    for r in range(cands.p):
        assert res.stats[r].statistic == stats.z_scores[r]
    return plan, problem.losses, stats


def test_proposed_weights_on_simplex():
    ds, truth, cands, sel_seed = _toy_problem()
    _, _, stats = _proposed_statistics(ds, cands, SelectorConfig(alpha=0.1, seed=sel_seed))
    weights = stats.weights
    assert weights.shape == (10, cands.p, cands.p - 1)
    npt.assert_allclose(weights.sum(axis=2), 1.0, atol=1e-12)
    assert weights.min() >= 0


def test_proposed_statistic_definition():
    ds, truth, cands, sel_seed = _toy_problem()
    _, _, stats = _proposed_statistics(ds, cands, SelectorConfig(alpha=0.1, seed=sel_seed))
    npt.assert_allclose(stats.score_sums, stats.q_matrix.sum(axis=0), rtol=1e-12)
    npt.assert_allclose(
        stats.z_scores,
        stats.score_sums / (np.sqrt(ds.n) * stats.q_matrix.std(axis=0, ddof=1)),
        rtol=1e-12,
    )


def _reference_statistics(losses, layout, lam):
    """Per cell and candidate, softmax over the mean pairwise scores on the
    weight units, applied to the pairwise scores on the eval units."""
    p, n = losses.shape
    q = np.zeros((n, p))
    weights = np.zeros((len(layout), p, p - 1))
    for c, (eval_idx, weight_idx) in enumerate(layout):
        for r in range(p):
            rows = losses[r] - losses[[s for s in range(p) if s != r]]
            weights[c, r] = exp_weights(rows[:, weight_idx].mean(axis=1), lam)
            q[eval_idx, r] = weights[c, r] @ rows[:, eval_idx]
    z = q.sum(axis=0) / (np.sqrt(n) * q.std(axis=0, ddof=1))
    return q, weights, z


@pytest.mark.parametrize("lam", [0.0, 600**0.4, 50.0], ids=["zero", "n_pow_0.4", "fifty"])
def test_proposed_matches_pairwise_weighted_average(lam):
    ds, truth, cands, sel_seed = _toy_problem()
    plan, losses, stats = _proposed_statistics(
        ds, cands, SelectorConfig(alpha=0.1, lam=lam, seed=sel_seed)
    )
    q, weights, z = _reference_statistics(losses, _mask_cells(plan), lam)
    if lam == 0.0:
        # uniform weights: the plain average of the pairwise scores
        npt.assert_allclose(stats.q_matrix, q, rtol=1e-12)
    else:
        npt.assert_allclose(stats.q_matrix, q, rtol=0, atol=1e-12 * np.abs(losses).max())
    npt.assert_allclose(stats.weights, weights, rtol=0, atol=1e-12)
    npt.assert_allclose(stats.z_scores, z, rtol=1e-9)


@given(
    p=st.integers(2, 7),
    n=st.integers(20, 400),
    two_way=st.booleans(),
    lam=st.floats(0.0, 1000.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_weighted_statistics_match_reference_property(p, n, two_way, lam, seed):
    plan = (two_way_split if two_way else single_layer_split)(n, seed)
    layout = _mask_cells(plan)
    # the statistic's cell order: cell c's units in ascending order
    order, bounds = plan.cell_order
    assert len(bounds) == len(layout) + 1
    for c, (eval_idx, _) in enumerate(layout):
        npt.assert_array_equal(order[bounds[c] : bounds[c + 1]], eval_idx)
    rng = np.random.default_rng(seed)
    losses = rng.normal(rng.normal(size=(p, 1)), rng.uniform(0.1, 2.0, size=(p, 1)), size=(p, n))
    stats = exp_weighted_statistics(Prepared(plan, losses), lam)
    q, weights, z = _reference_statistics(losses, layout, lam)
    # the tolerances of test_proposed_matches_pairwise_weighted_average at a
    # positive temperature
    npt.assert_allclose(stats.q_matrix, q, rtol=0, atol=1e-12 * np.abs(losses).max())
    npt.assert_allclose(stats.weights, weights, rtol=0, atol=1e-12)
    npt.assert_allclose(stats.z_scores, z, rtol=1e-9)


def test_proposed_power_separated_candidates():
    # means 0 vs 1 at n=4000: the winner is kept and the loser rejected
    specs = (NoiseSpec(0.0, 0.1), NoiseSpec(1.0, 0.1))
    wins = 0
    for k in range(100):
        data_seed, cand_seed, sel_seed = _derived_seeds(555, 0, k)
        ds, truth = generate_toy(4000, (2, 2, 2, 2), data_seed)
        cands = make_candidates(truth, specs, cand_seed)
        res = select(ds, cands, SelectorConfig(alpha=0.10, seed=sel_seed))[0]
        wins += res.accepted == (0,)
    assert wins >= 95


def test_proposed_null_calibration():
    # identically distributed candidates: each accepted at rate ~ 1 - alpha
    alpha = 0.10
    reps = 500
    p = 3
    acc = np.zeros(p)
    for k in range(reps):
        data_seed, cand_seed, sel_seed = _derived_seeds(777, 0, k)
        ds, truth = generate_toy(600, (2, 2, 2, 2), data_seed)
        cands = make_candidates(truth, [NoiseSpec(0.0, 0.1)] * p, cand_seed)
        res = select(ds, cands, SelectorConfig(alpha=alpha, seed=sel_seed))[0]
        for r in res.accepted:
            acc[r] += 1
    rates = acc / reps
    band = 3 * np.sqrt(alpha * (1 - alpha) / reps)
    assert np.all(np.abs(rates - (1 - alpha)) < band)


def test_proposed_deterministic():
    ds, truth, cands, sel_seed = _toy_problem()
    cfg = SelectorConfig(alpha=0.1, seed=sel_seed)
    r1 = select(ds, cands, cfg)[0]
    r2 = select(ds, cands, cfg)[0]
    assert r1.to_dict() == r2.to_dict()


def test_degenerate_candidates_raise():
    ds, truth, cands, sel_seed = _toy_problem()
    row = truth.tau + 0.05
    dup = CandidateSet(np.vstack([row, row]))
    config = SelectorConfig(alpha=0.1, seed=sel_seed)
    with pytest.raises(RuntimeError, match="degenerate"):
        select(ds, dup, config, prepared=_true_problem(ds, truth, dup, config))


# --- naive and bonferroni ---------------------------------------------------


def test_naive_critical_single_pair_matches_normal_quantile():
    c = naive_critical_value(np.array([[2.5]]), 0.10, 100_000, np.random.default_rng(3))
    assert c == pytest.approx(norm.ppf(0.9), abs=0.05)


def test_naive_critical_identity_matches_max_gaussian():
    c = naive_critical_value(np.eye(6), 0.10, 100_000, np.random.default_rng(1))
    mc = np.random.default_rng(2).standard_normal((100_000, 6)).max(axis=1)
    assert c == pytest.approx(np.quantile(mc, 0.9), abs=0.05)


def test_naive_degenerate_covariance_errors():
    ds, truth, cands, sel_seed = _toy_problem()
    row = truth.tau  # two identical candidates: all pair scores vanish
    dup = CandidateSet(np.vstack([row, row]))
    config = SelectorConfig(alpha=0.1, seed=sel_seed)
    with pytest.raises(RuntimeError, match="degenerate"):
        select(ds, dup, config, ("naive",), prepared=_true_problem(ds, truth, dup, config))


def test_naive_rejection_monotone_in_alpha():
    ds, truth, cands, sel_seed = _toy_problem(n=800)
    rejected_sets = []
    for alpha in (0.05, 0.10, 0.20):
        res = select(ds, cands, SelectorConfig(alpha=alpha, seed=sel_seed), ("naive",))[0]
        rejected_sets.append({s.candidate for s in res.stats if not s.accepted})
        criticals = [s.critical for s in res.stats]
        assert len(set(criticals)) >= 1
    assert rejected_sets[0] <= rejected_sets[1] <= rejected_sets[2]


def test_bonferroni_two_candidates_is_plain_z_test():
    ds, truth, cands, sel_seed = _toy_problem(specs=(NoiseSpec(0.0, 0.1), NoiseSpec(0.3, 0.1)))
    res = select(ds, cands, SelectorConfig(alpha=0.1, seed=sel_seed), ("bonferroni",))[0]
    for s in res.stats:
        assert s.critical == pytest.approx(norm.ppf(0.9), abs=1e-12)
        assert s.accepted == (s.statistic <= norm.ppf(0.9))


def test_bonferroni_critical_dominates_naive_under_positive_correlation():
    k, rho, alpha = 6, 0.5, 0.10
    sigma = np.full((k, k), rho) + (1 - rho) * np.eye(k)
    c_naive = naive_critical_value(sigma, alpha, 100_000, np.random.default_rng(7))
    assert norm.ppf(1 - alpha / k) >= c_naive
    # and on toy-score covariances, when all correlations are nonnegative
    ds, truth, cands, sel_seed = _toy_problem(n=2000, specs=tuple([NoiseSpec(0.03 * j, 0.1) for j in range(4)]))
    from cateselect.scores import build_score_tensor, cov_hat
    losses = build_score_tensor(ds, cands, truth)
    cov = cov_hat(losses, 0)
    corr = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    assert corr.min() >= 0  # chosen configuration has shared positive factors
    c_toy = naive_critical_value(cov, alpha, 100_000, np.random.default_rng(8))
    assert norm.ppf(1 - alpha / 3) >= c_toy


def test_naive_critical_value_rejects_non_psd():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
    with pytest.raises(RuntimeError, match="positive semidefinite"):
        naive_critical_value(bad, 0.1, 1000, np.random.default_rng(0))


def test_bonferroni_superset_of_per_pair_level_alpha():
    ds, truth, cands, sel_seed = _toy_problem(n=1500)
    alpha = 0.10
    res = select(ds, cands, SelectorConfig(alpha=alpha, seed=sel_seed), ("bonferroni",))[0]
    loose = {s.candidate for s in res.stats if s.statistic <= norm.ppf(1 - alpha)}
    assert loose <= set(res.accepted)


def test_naive_and_bonferroni_share_scores():
    ds, truth, cands, sel_seed = _toy_problem(n=1000)
    cfg = SelectorConfig(alpha=0.1, seed=sel_seed)
    rn = select(ds, cands, cfg, ("naive",))[0]
    rb = select(ds, cands, cfg, ("bonferroni",))[0]
    for a, b in zip(rn.stats, rb.stats):
        assert a.statistic == b.statistic


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(selectors.TAILS))
def test_overflowing_losses_are_rejected(name):
    # finite predictions whose squares overflow would otherwise yield NaN statistics
    ds, truth, cands, sel_seed = _toy_problem()
    huge = CandidateSet(cands.predictions * 1e160)
    with pytest.raises(ValueError, match="finite"):
        select(ds, huge, SelectorConfig(seed=sel_seed), (name,))


# --- normal critical values --------------------------------------------------


def test_normal_critical_values_match_scipy_ndtri():
    from scipy.special import ndtri

    ds, truth = generate_toy(200, (1, 1, 1, 1), seed=4)
    cands = make_candidates(truth, [NoiseSpec(0.01 * j, 0.1) for j in range(41)], seed=5)
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
        config = SelectorConfig(alpha=alpha, seed=6)
        expected = ndtri(1.0 - alpha)
        problem = _true_problem(ds, truth, cands, config)
        for s in select(ds, cands, config, prepared=problem)[0].stats:
            assert abs(s.critical - expected) <= 1e-15 * abs(expected)
        for p in range(2, 42):
            subset = CandidateSet(cands.predictions[:p])
            expected = ndtri(1.0 - alpha / (p - 1))
            problem = _true_problem(ds, truth, subset, config)
            for s in select(ds, subset, config, ("bonferroni",), prepared=problem)[0].stats:
                assert abs(s.critical - expected) <= 1e-15 * abs(expected)


@pytest.mark.parametrize("name", ["proposed", "bonferroni"])
def test_alpha_below_rounding_accepts_every_candidate(name):
    # 1 - 1e-17 rounds to 1.0, whose normal quantile is +inf
    ds, truth, cands, sel_seed = _toy_problem()
    config = SelectorConfig(alpha=1e-17, seed=sel_seed)
    (res,) = select(ds, cands, config, (name,), prepared=_true_problem(ds, truth, cands, config))
    assert all(s.critical == np.inf for s in res.stats)
    assert res.accepted == tuple(range(cands.p))


# --- ablation ----------------------------------------------------------------


def test_ablation_result_schema():
    ds, truth, cands, sel_seed = _toy_problem()
    res = select(ds, cands, SelectorConfig(alpha=0.1, seed=sel_seed), ("ablation",))[0]
    payload = res.to_dict()
    assert payload["selector"] == "ablation"
    assert set(payload) >= {"selector", "alpha", "lambda", "accepted", "stats"}
    assert {"candidate", "statistic", "critical", "decision"} <= set(payload["stats"][0])


def test_ablation_matches_proposed_with_oracle_and_aligned_cells():
    # with oracle nuisances there is nothing to leak, so the two selectors
    # differ only in their cells; aligning the fold geometry makes the
    # weighted test compute identical statistics
    ds, truth, cands, sel_seed = _toy_problem(n=1000)
    cfg = SelectorConfig(alpha=0.1, seed=sel_seed)
    plan = two_way_split(ds.n, cfg.seed)
    losses = prepare(ds, cands, plan, truth).losses
    own = _true_problem(ds, truth, cands, cfg, groups=1)
    ra_own = select(ds, cands, cfg, ("ablation",), prepared=own)[0]
    own_plan = single_layer_split(ds.n, cfg.seed)
    assert ra_own.stats == _weighted_test("ablation", Prepared(own_plan, losses), cfg).stats
    rp = select(ds, cands, cfg, prepared=_true_problem(ds, truth, cands, cfg))[0]
    ra = _weighted_test("ablation", Prepared(plan, losses), cfg)
    assert rp.accepted == ra.accepted
    for a, b in zip(rp.stats, ra.stats):
        assert a.statistic == b.statistic


def test_ablation_draws_no_two_layer_split(monkeypatch):
    ds, truth, cands, sel_seed = _toy_problem()

    def no_split(*args):
        raise AssertionError("the ablation must not draw a two-layer split")

    monkeypatch.setattr(selectors, "two_way_split", no_split)
    select(ds, cands, SelectorConfig(seed=sel_seed), ("ablation",))


def test_ablation_differs_from_proposed_with_fitted_nuisances():
    ds, truth, cands, sel_seed = _toy_problem(n=1000)
    cfg = SelectorConfig(alpha=0.1, seed=sel_seed)
    rp = select(ds, cands, cfg)[0]
    ra = select(ds, cands, cfg, ("ablation",))[0]
    assert any(a.statistic != b.statistic for a, b in zip(rp.stats, ra.stats))


# --- result serialization ----------------------------------------------------


def test_selection_result_json_schema():
    ds, truth, cands, sel_seed = _toy_problem()
    res = select(ds, cands, SelectorConfig(alpha=0.1, seed=sel_seed))[0]
    payload = json.loads(json.dumps(res.to_dict()))
    assert set(payload) == {"selector", "alpha", "lambda", "seed", "accepted", "stats"}
    assert payload["selector"] == "proposed"
    assert payload["alpha"] == 0.1
    assert isinstance(payload["lambda"], float)
    assert payload["accepted"] == sorted(payload["accepted"])
    for entry in payload["stats"]:
        assert set(entry) == {"candidate", "statistic", "critical", "decision"}
        assert isinstance(entry["decision"], bool)


def test_selector_config_validation():
    with pytest.raises(ValueError):
        SelectorConfig(alpha=1.5)
    with pytest.raises(ValueError):
        SelectorConfig(lam=-1.0)
    for lam in (True, "1.0"):
        with pytest.raises(ValueError, match="lam must be a number"):
            SelectorConfig(lam=lam)
    assert SelectorConfig(lam=np.float32(2.0)).resolve_lam(10_000) == 2.0
    assert SelectorConfig(lam=None).resolve_lam(10_000) == pytest.approx(10_000**0.4)
    assert SelectorConfig(lam=3.5).resolve_lam(10_000) == 3.5


@pytest.mark.parametrize("seed", [True, 1.5, "3", np.float64(2.0)], ids=["bool", "float", "str", "np_float"])
def test_selector_config_rejects_a_seed_that_is_not_an_integer(seed):
    # a bool would run, and print, as a seed; a float would fail inside numpy's seeding
    with pytest.raises(ValueError, match="seed must be an integer"):
        SelectorConfig(seed=seed)


def test_selector_config_takes_a_numpy_integer_seed():
    ds, truth = generate_toy(200, (1, 1, 1, 1), seed=3)
    cands = make_candidates(truth, NEAR_TIED_SPECS, seed=4)
    result = select(ds, cands, SelectorConfig(seed=np.int64(5)))[0]
    assert result == select(ds, cands, SelectorConfig(seed=5))[0]
    assert json.loads(json.dumps(result.to_dict()))["seed"] == 5


# --- candidate relabeling ---------------------------------------------------


@given(
    n=st.integers(200, 600),
    perm=st.permutations(range(4)),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_statistics_equivariant_under_candidate_relabeling(n, perm, seed):
    specs = (NoiseSpec(0.0, 0.1), NoiseSpec(0.03, 0.1), NoiseSpec(0.1, 0.1), NoiseSpec(0.3, 0.1))
    ds, truth, cands, sel_seed = _toy_problem(n=n, specs=specs, seed=seed)
    relabeled = CandidateSet(cands.predictions[list(perm)])
    config = SelectorConfig(seed=sel_seed)

    def statistics(name, candidates):
        (result,) = select(ds, candidates, config, (name,))
        return np.array([s.statistic for s in result.stats])

    # the weighted sums run over rivals in index order, so only rounding differs
    for name in ("proposed", "ablation"):
        npt.assert_allclose(
            statistics(name, relabeled), statistics(name, cands)[list(perm)], rtol=1e-9
        )
    # max statistics are exact; naive critical values are not compared because
    # each candidate's bootstrap stream is keyed to its index, not its predictions
    for name in ("bonferroni", "naive"):
        npt.assert_array_equal(statistics(name, relabeled), statistics(name, cands)[list(perm)])


# --- shared preparation -----------------------------------------------------


def _count_work(monkeypatch):
    counts = {"fit": 0, "build": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(selectors, "fit", counted("fit", selectors.fit))
    monkeypatch.setattr(selectors, "build_score_tensor", counted("build", selectors.build_score_tensor))
    return counts


@pytest.mark.parametrize(
    "names, fits, builds",
    [
        (("proposed", "naive", "bonferroni"), 2, 1),
        (("proposed", "naive", "bonferroni", "ablation"), 3, 2),
        (("ablation", "naive"), 3, 2),
    ],
)
def test_select_prepares_each_layout_once(monkeypatch, names, fits, builds):
    ds, truth, cands, sel_seed = _toy_problem()
    config = SelectorConfig(seed=sel_seed)
    counts = _count_work(monkeypatch)
    results = select(ds, cands, config, names)
    assert counts == {"fit": fits, "build": builds}
    assert [r.selector for r in results] == list(names)


def test_select_matches_each_selector_alone():
    ds, truth, cands, sel_seed = _toy_problem()
    config = SelectorConfig(seed=sel_seed)
    names = ("ablation", "bonferroni", "proposed", "naive")
    shared = select(ds, cands, config, names)
    assert shared == [select(ds, cands, config, (name,))[0] for name in names]


@pytest.mark.parametrize("names, groups", [(("naive", "proposed", "bonferroni"), 2), (("ablation",), 1)])
def test_select_on_a_prepared_problem_matches_a_plain_call(names, groups):
    ds, truth, cands, sel_seed = _toy_problem(specs=NEAR_TIED_SPECS)
    config = SelectorConfig(seed=sel_seed)
    prepared = prepare(ds, cands, selectors._draw_plan(groups, ds.n, config))
    plain = select(ds, cands, config, names)
    assert select(ds, cands, config, names, prepared=prepared) == plain
    # the first three rows are the problem of the first three candidates alone
    first = CandidateSet(cands.predictions[:3])
    restricted = prepared.restrict(3)
    assert select(ds, first, config, names, prepared=restricted) == select(ds, first, config, names)


def test_select_rejects_a_prepared_problem_that_does_not_fit():
    ds, truth, cands, sel_seed = _toy_problem(specs=NEAR_TIED_SPECS)
    config = SelectorConfig(seed=sel_seed)
    two_way = prepare(ds, cands, selectors._draw_plan(2, ds.n, config))
    one_fold = prepare(ds, cands, selectors._draw_plan(1, ds.n, config))
    with pytest.raises(ValueError, match="scores 5 candidates"):
        select(ds, CandidateSet(cands.predictions[:3]), config, ("naive",), prepared=two_way)
    with pytest.raises(ValueError, match="scores 3 candidates"):
        select(ds, cands, config, prepared=two_way.restrict(3))
    smaller, _ = generate_toy(ds.n - 1, (2, 2, 2, 2), 0)
    with pytest.raises(ValueError, match="on 600 units"):
        select(smaller, CandidateSet(cands.predictions[:, 1:]), config, prepared=two_way)
    with pytest.raises(ValueError, match="ablation tests a 1-fold split"):
        select(ds, cands, config, ("ablation",), prepared=two_way)
    with pytest.raises(ValueError, match="proposed tests a 2-fold split"):
        select(ds, cands, config, ["ablation", "proposed"], prepared=one_fold)
    with pytest.raises(ValueError, match="cannot restrict 5 candidates to 6"):
        two_way.restrict(6)


_SEVEN_SPECS = (
    NoiseSpec(0.0, 0.1),
    NoiseSpec(0.03, 0.1),
    NoiseSpec(0.05, 0.1),
    NoiseSpec(0.3, 0.2),
    NoiseSpec(0.03, 0.3),
    NoiseSpec(0.3, 0.1),
    NoiseSpec(0.1, 0.1),
)


@given(seed=st.integers(0, 10_000), p_max=st.integers(3, 7), data=st.data())
@settings(max_examples=25, deadline=None)
def test_a_cut_problem_reads_bitwise_the_summaries_its_candidates_get_alone(seed, p_max, data):
    # the cut problem's moments are leading blocks of its source's; sub-blocking
    # a BLAS Gram of every rival instead moved naive moments by 1 ulp at this size
    p = data.draw(st.integers(2, p_max - 1))
    ds, truth, cands, sel_seed = _toy_problem(n=400, specs=_SEVEN_SPECS[:p_max], seed=seed)
    config = SelectorConfig(seed=sel_seed)
    plan = selectors._draw_plan(2, ds.n, config)
    nuisances = selectors.cross_fit(ds, plan)
    cut = prepare(ds, cands, plan, nuisances).restrict(p)
    first = CandidateSet(cands.predictions[:p])
    alone = prepare(ds, first, plan, nuisances)
    for (delta_cut, sigma_cut), (delta, sigma) in zip(cut.moments, alone.moments, strict=True):
        assert delta_cut.tobytes() == delta.tobytes()
        assert sigma_cut.tobytes() == sigma.tobytes()
    names = ("proposed", "naive", "bonferroni")
    on_cut = select(ds, first, config, names, prepared=cut)
    assert on_cut == select(ds, first, config, names, prepared=alone)


@pytest.mark.parametrize(
    "losses, message",
    [
        (np.zeros(20), "candidate losses must have shape (p, n)"),
        (np.r_[np.zeros(39), np.nan].reshape(2, 20), "candidate losses must be finite"),
        (np.zeros((2, 21)), "the split must cover every unit"),
    ],
    ids=["one_dim", "non_finite", "wrong_columns"],
)
def test_prepared_rejects_a_bad_loss_matrix(losses, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Prepared(two_way_split(20, 0), losses)


@pytest.mark.parametrize(
    "names, message",
    [
        (["nope"], "unknown selectors: nope (known: ablation, bonferroni, naive, proposed)"),
        ([], "selector list is empty"),
        (["proposed", "proposed"], "duplicate selectors: proposed"),
        ("proposed", "selectors must be a list of names, got 'proposed'"),
    ],
    ids=["unknown", "empty", "duplicate", "bare_string"],
)
def test_select_rejects_bad_name_lists(names, message):
    ds, truth, cands, sel_seed = _toy_problem()
    with pytest.raises(ValueError, match=re.escape(message)):
        select(ds, cands, SelectorConfig(seed=sel_seed), names)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_selections_do_not_depend_on_the_order_of_the_units(seed):
    # units that move together with their fold labels keep every fold, so each
    # selector's problem is the same up to rounding; the fits' line search
    # carries that rounding into the statistics, measured at 4.7e-8 of
    # max(|statistic|, 1) at most over seeds 0 to 2999
    ds, truth, cands, sel_seed = _toy_problem(n=400, specs=NEAR_TIED_SPECS, seed=seed)
    config = SelectorConfig(seed=sel_seed)
    perm = np.random.default_rng(seed).permutation(ds.n)
    moved = Dataset(x=ds.x[perm], t=ds.t[perm], y=ds.y[perm])
    moved_cands = CandidateSet(cands.predictions[:, perm])
    for name, (groups, _) in selectors.TAILS.items():
        plan = selectors._draw_plan(groups, ds.n, config)
        moved_plan = SplitPlan(plan.major[perm], plan.inner[perm], plan.groups)
        prepared = prepare(moved, moved_cands, moved_plan)
        (before,) = select(ds, cands, config, [name])
        (after,) = select(moved, moved_cands, config, [name], prepared=prepared)
        for a, b in zip(before.stats, after.stats, strict=True):
            assert b.statistic == pytest.approx(a.statistic, rel=1e-7, abs=1e-7), name
            assert b.critical == pytest.approx(a.critical, rel=1e-7, abs=1e-7), name
            if abs(a.statistic - a.critical) > 1e-7 * max(abs(a.critical), 1):
                assert b.accepted == a.accepted, name


@given(
    seed=st.integers(0, 10_000),
    alphas=st.lists(st.floats(0.001, 0.9), min_size=2, max_size=5, unique=True),
)
@settings(max_examples=15, deadline=None)
def test_accepted_sets_shrink_as_alpha_grows(seed, alphas):
    # a larger alpha lowers every critical value on the same scores, so no
    # selector accepts a candidate it rejected at a smaller alpha
    ds, truth, cands, sel_seed = _toy_problem(n=400, specs=NEAR_TIED_SPECS, seed=seed)
    config = SelectorConfig(seed=sel_seed)
    for name, (groups, tail) in selectors.TAILS.items():
        prepared = prepare(ds, cands, selectors._draw_plan(groups, ds.n, config))
        accepted = [
            set(tail(prepared, dataclasses.replace(config, alpha=alpha)).accepted)
            for alpha in sorted(alphas)
        ]
        for smaller, larger in zip(accepted, accepted[1:]):
            assert larger <= smaller, name
