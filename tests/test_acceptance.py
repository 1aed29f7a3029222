"""Acceptance gate: each release criterion runs at its stated tolerance.

Run `pytest tests/test_acceptance.py -v`; a PASS/FAIL line per criterion is
printed in the terminal summary section. The whole module takes a few
minutes; the heavy Monte Carlo studies are shared through module fixtures.
"""

import numpy as np
import pytest
from scipy.stats import kstest

from cateselect.datagen import (
    COMPETITIVE_PLUS_INFERIOR_SPECS,
    NEAR_TIED_SPECS,
    NoiseSpec,
    generate_toy,
    make_candidates,
)
from cateselect.diagnostics import clt_diagnostic, stability_diagnostic
from cateselect.harness import (
    ExperimentConfig,
    _derived_seeds,
    percentile_ci,
    run_experiment,
    sweep,
)
from cateselect.scores import _rival_scores, build_score_tensor, cov_hat, delta_hat
from cateselect.selectors import (
    SelectorConfig,
    exp_weights,
    naive_critical_value,
    select,
)

from conftest import record_criterion

SEED = 20240817
ALPHA = 0.10
ERROR_CONTROL_REPS = 200
# binomial two-sigma allowance above the nominal level
FWER_BOUND = ALPHA + 2 * np.sqrt(ALPHA * (1 - ALPHA) / ERROR_CONTROL_REPS)


def _check(name, passed, detail):
    record_criterion(name, passed, detail)
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def error_control_report():
    config = ExperimentConfig(
        n=2000,
        noise_specs=NEAR_TIED_SPECS,
        selectors=("naive", "proposed", "ablation"),
        alpha=ALPHA,
        repetitions=ERROR_CONTROL_REPS,
        seed=SEED,
        workers=2,
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def power_sweep_points():
    # larger test sets and a hotter (still sub-sqrt(n)) temperature: the
    # near-winner comparisons only become informative at this scale
    n = 30_000
    config = ExperimentConfig(
        n=n,
        noise_specs=COMPETITIVE_PLUS_INFERIOR_SPECS,
        selectors=("naive", "proposed"),
        alpha=ALPHA,
        lam=float(n) ** 0.45,
        repetitions=400,
        seed=SEED,
        workers=2,
    )
    return {p.value: p.report for p in sweep(config, "candidate_count", [3, 5, 6, 7])}


def test_criterion_1_proposed_fwer_control(error_control_report):
    fwer = error_control_report.summaries["proposed"].fwer
    _check(
        "criterion 1 (proposed FWER control)",
        fwer <= FWER_BOUND,
        f"fwer={fwer:.4f} bound={FWER_BOUND:.4f} reps={ERROR_CONTROL_REPS}",
    )


def test_criterion_2_naive_fwer_control(error_control_report):
    fwer = error_control_report.summaries["naive"].fwer
    _check(
        "criterion 2 (naive FWER control)",
        fwer <= FWER_BOUND,
        f"fwer={fwer:.4f} bound={FWER_BOUND:.4f} reps={ERROR_CONTROL_REPS}",
    )


def test_criterion_3_split_ablation_inflates_fwer(error_control_report):
    # evaluated on the first 100 repetitions as specified
    rej_prop, _ = error_control_report.rep_metrics("proposed")
    rej_abl, _ = error_control_report.rep_metrics("ablation")
    rej_prop, rej_abl = rej_prop[:100], rej_abl[:100]
    diff = rej_abl - rej_prop
    ci = percentile_ci(diff, np.random.default_rng(SEED))
    fwer_abl = float(rej_abl.mean())
    fwer_prop = float(rej_prop.mean())
    ci_excludes_zero = ci[0] > 0
    level_split = fwer_abl > ALPHA and fwer_prop <= ALPHA
    _check(
        "criterion 3 (single-layer ablation inflates FWER)",
        ci_excludes_zero or level_split,
        f"ablation={fwer_abl:.3f} proposed={fwer_prop:.3f} diff_ci=({ci[0]:.3f}, {ci[1]:.3f}) "
        f"over 100 reps",
    )


def test_criterion_4_power_gap_grows_with_candidates(power_sweep_points):
    gaps = {}
    for p in (5, 6, 7):
        s = power_sweep_points[p].summaries
        gaps[p] = s["naive"].anws - s["proposed"].anws
    all_positive = all(g > 0 for g in gaps.values())
    endpoint_growth = gaps[7] >= gaps[5]
    _check(
        "criterion 4 (ANWS gap naive-proposed positive and growing)",
        all_positive and endpoint_growth,
        "gaps " + ", ".join(f"p={p}: {g:+.3f}" for p, g in gaps.items()),
    )


def test_criterion_5_proposed_flat_naive_increasing(power_sweep_points):
    def half_width(summary):
        return (summary.anws_ci[1] - summary.anws_ci[0]) / 2

    prop3 = power_sweep_points[3].summaries["proposed"]
    prop7 = power_sweep_points[7].summaries["proposed"]
    naive3 = power_sweep_points[3].summaries["naive"]
    naive7 = power_sweep_points[7].summaries["naive"]
    prop_increase = prop7.anws - prop3.anws
    naive_increase = naive7.anws - naive3.anws
    prop_tol = 2 * max(half_width(prop3), half_width(prop7))
    naive_tol = 2 * max(half_width(naive3), half_width(naive7))
    _check(
        "criterion 5 (proposed ANWS flat in p, naive not)",
        (prop_increase < prop_tol) and (naive_increase > naive_tol),
        f"proposed increase={prop_increase:+.3f} (tol {prop_tol:.3f}), "
        f"naive increase={naive_increase:+.3f} (tol {naive_tol:.3f})",
    )


def test_criterion_6_oracle_delta_agreement():
    specs = (NoiseSpec(0.0, 0.1), NoiseSpec(0.03, 0.1))
    target = specs[0].population_mse - specs[1].population_mse
    hits = 0
    for k in range(100):
        data_seed, cand_seed, _ = _derived_seeds(SEED, 6, k)
        ds, truth = generate_toy(100_000, (2, 2, 2, 2), data_seed)
        cands = make_candidates(truth, specs, cand_seed)
        tensor = build_score_tensor(ds, cands, truth)
        delta = delta_hat(tensor, 0)[0]
        se = np.sqrt(cov_hat(tensor, 0)[0, 0])
        hits += abs(delta - target) < 4 * se
    _check(
        "criterion 6 (oracle-nuisance relative error matches moments)",
        hits >= 95,
        f"{hits}/100 replicates within 4 standard errors of {target:.2e}",
    )


def test_criterion_7_clt_calibration():
    # (a) standardized pair statistic over 500 replicates is Gaussian by KS
    specs = (NoiseSpec(0.0, 0.1), NoiseSpec(0.03, 0.1))
    target = specs[0].population_mse - specs[1].population_mse
    zs = np.empty(500)
    for k in range(500):
        data_seed, cand_seed, _ = _derived_seeds(SEED, 7, k)
        ds, truth = generate_toy(2000, (2, 2, 2, 2), data_seed)
        cands = make_candidates(truth, specs, cand_seed)
        tensor = build_score_tensor(ds, cands, truth)
        delta = delta_hat(tensor, 0)[0]
        se = np.sqrt(cov_hat(tensor, 0)[0, 0])
        zs[k] = (delta - target) / se
    ks_p = kstest(zs, "norm").pvalue

    # (b) bootstrap KS share with Bonferroni adjustment across pairs
    config = ExperimentConfig(
        n=2000, noise_specs=NEAR_TIED_SPECS, selectors=("proposed",),
        alpha=ALPHA, repetitions=1, seed=SEED,
    )
    share = clt_diagnostic(config, datasets=100, bootstrap_draws=500).rejection_share
    _check(
        "criterion 7 (CLT calibration)",
        ks_p > 0.01 and share <= 0.12,
        f"KS p={ks_p:.3f} over 500 replicates (need > 0.01); "
        f"adjusted rejection share={share:.3f} over 100 datasets (need <= 0.12)",
    )


def test_criterion_8_stability_slopes():
    config = ExperimentConfig(
        n=2000, noise_specs=NEAR_TIED_SPECS, selectors=("proposed",),
        alpha=ALPHA, repetitions=1, seed=SEED,
    )
    report = stability_diagnostic([500, 1000, 2000, 4000], config, probes=50)
    _check(
        "criterion 8 (perturbation stability decay rates)",
        report.slope_delta1_sq <= -0.7 and report.slope_delta2_sq <= -1.5,
        f"slope(delta1^2)={report.slope_delta1_sq:.2f} (need <= -0.7), "
        f"slope(delta2^2)={report.slope_delta2_sq:.2f} (need <= -1.5)",
    )


def test_criterion_9_bootstrap_quantile_sanity():
    c_boot = naive_critical_value(np.eye(6), ALPHA, 100_000, np.random.default_rng(SEED))
    mc = np.random.default_rng(SEED + 1).standard_normal((100_000, 6)).max(axis=1)
    c_mc = float(np.quantile(mc, 1 - ALPHA))
    _check(
        "criterion 9 (bootstrap max-Gaussian quantile)",
        abs(c_boot - c_mc) < 0.05,
        f"bootstrap={c_boot:.4f} monte-carlo={c_mc:.4f} |diff|={abs(c_boot - c_mc):.4f}",
    )


def test_criterion_10_exactness_properties():
    problems = []

    # weight simplex within 1e-12, including extreme temperatures
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        delta = rng.uniform(-50, 50, rng.integers(1, 8))
        w = exp_weights(delta, float(rng.uniform(0, 200)))
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-12:
            problems.append("weight simplex violated")
            break

    # softmax shift invariance, bitwise for exactly representable shifts
    delta = np.array([0.5, -1.25, 2.0, 0.0])
    for c in (1.0, -4.0, 256.0):
        if not np.array_equal(exp_weights(delta, 3.0), exp_weights(delta + c, 3.0)):
            problems.append("softmax shift invariance violated")
            break

    # score antisymmetry, exact, over every ordered pair of the scores the
    # selectors use: s is row s - (s > r) of r's rival scores
    data_seed, cand_seed, sel_seed = _derived_seeds(SEED, 10, 0)
    ds, truth = generate_toy(500, (2, 2, 2, 2), data_seed)
    cands = make_candidates(truth, NEAR_TIED_SPECS, cand_seed)
    tensor = build_score_tensor(ds, cands, truth)
    rival = [_rival_scores(tensor, m) for m in range(len(tensor))]
    pairs = [(r, s) for r in range(len(tensor)) for s in range(len(tensor)) if r != s]
    if not all(np.array_equal(rival[r][s - (s > r)], -rival[s][r - (r > s)]) for r, s in pairs):
        problems.append("score antisymmetry violated")

    # seed determinism: data and selections
    ds2, truth2 = generate_toy(500, (2, 2, 2, 2), data_seed)
    if not (np.array_equal(ds.x, ds2.x) and np.array_equal(ds.y, ds2.y)):
        problems.append("data generation not seed-deterministic")
    cfg = SelectorConfig(alpha=ALPHA, seed=sel_seed)
    if select(ds, cands, cfg)[0].to_dict() != select(ds, cands, cfg)[0].to_dict():
        problems.append("selection not seed-deterministic")

    _check(
        "criterion 10 (exactness properties)",
        not problems,
        "all exactness checks hold" if not problems else "; ".join(problems),
    )
