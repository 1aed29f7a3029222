"""The problem-level checks of ``cateselect.diagnostics``: ``clt_check`` and
its bootstrap, ``stability_check``, and that each reproduces its toy study's
entry, and the toy studies that run them from a config: ``clt_diagnostic``
and ``stability_diagnostic``."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

import cateselect
from cateselect import diagnostics, selectors
from cateselect.datagen import (
    NEAR_TIED_SPECS,
    CandidateSet,
    Dataset,
    NoiseSpec,
    generate_toy,
    make_candidates,
)
from cateselect.diagnostics import (
    _STREAM_CLT,
    _STREAM_CLT_BOOT,
    _STREAM_STABILITY,
    KS_LEVEL,
    bootstrap_standardized_means,
    clt_check,
    clt_diagnostic,
    stability_check,
    stability_diagnostic,
)
from cateselect.harness import ConfigError, ExperimentConfig, _derived_seeds
from cateselect.nuisance import NuisanceModel
from cateselect.selectors import Prepared, prepare, two_way_split

SPECS = (NoiseSpec(0.0, 0.1), NoiseSpec(0.03, 0.1), NoiseSpec(0.3, 0.1))


def _config(**kwargs):
    base = dict(n=400, noise_specs=SPECS, selectors=("proposed",), repetitions=1, seed=21)
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_bootstrap_ks_calibrated_on_gaussian_scores():
    # injecting genuinely Gaussian scores: the KS test at level 0.05 should
    # reject about 5% of the time
    rng = np.random.default_rng(314159)
    rejects = 0
    for _ in range(100):
        values = rng.standard_normal(500)
        stats = bootstrap_standardized_means(values, 500, rng)
        rejects += kstest(stats, "norm").pvalue < 0.05
    assert 0.02 <= rejects / 100 <= 0.08


def test_ks_pair_scan_skips_constant_scores():
    n = 50
    losses = np.zeros((3, n))
    losses[0] = np.random.default_rng(1).standard_normal(n)
    # candidates 1 and 2 share their losses, so pair (1, 2) is exactly constant
    problem = Prepared(two_way_split(n, 0), losses)
    entry, skipped = clt_check(problem, 200, np.random.default_rng(2))
    assert [(pair["r"], pair["s"]) for pair in entry["pairs"]] == [(0, 1), (0, 2)]
    assert skipped == [(1, 2)]


def test_clt_check_on_true_nuisances():
    # no toy study tests the scores of the true nuisances; a library caller can
    dataset, truth = generate_toy(400, (2, 2, 2, 2), seed=5)
    candidates = make_candidates(truth, SPECS, seed=6)
    plan = two_way_split(dataset.n, 7)
    true_problem = prepare(dataset, candidates, plan, truth)
    entry, skipped = clt_check(true_problem, 100, np.random.default_rng(8))
    assert skipped == []
    assert entry["tested_pairs"] == 3
    assert [(pair["r"], pair["s"]) for pair in entry["pairs"]] == [(0, 1), (0, 2), (1, 2)]
    for pair in entry["pairs"]:
        assert 0.0 <= pair["ks_p"] <= 1.0
        assert pair["adjusted_p"] == min(1.0, 3 * pair["ks_p"])
    assert entry["min_adjusted_p"] == min(pair["adjusted_p"] for pair in entry["pairs"])
    assert entry["rejected"] == (entry["min_adjusted_p"] < KS_LEVEL)
    # the check tested the true nuisances' scores, not the cross-fitted ones
    fitted, _ = clt_check(prepare(dataset, candidates, plan), 100, np.random.default_rng(8))
    assert fitted["pairs"] != entry["pairs"]


def test_clt_check_reproduces_the_studys_first_dataset():
    config = _config()
    report = clt_diagnostic(config, datasets=2, bootstrap_draws=100)
    data_seed, cand_seed, sel_seed = _derived_seeds(config.seed, _STREAM_CLT, 0)
    dataset, truth = generate_toy(config.n, config.dims, data_seed)
    candidates = make_candidates(truth, config.noise_specs, cand_seed)
    problem = prepare(dataset, candidates, two_way_split(config.n, sel_seed))
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_CLT_BOOT, 0]))
    entry, skipped = clt_check(problem, 100, rng)
    assert {"dataset": 0, **entry} == report.per_dataset[0]
    assert [(0, r, s) for r, s in skipped] == [t for t in report.skipped if t[0] == 0]


def test_stability_check_reproduces_the_studys_first_size():
    config = _config()
    report = stability_diagnostic([200, 300, 400], config, probes=2)
    n = 200
    data_seed, cand_seed, sel_seed = _derived_seeds(config.seed, _STREAM_STABILITY, n)
    dataset, truth = generate_toy(n + 3 * 2, config.dims, data_seed)
    candidates = make_candidates(truth, config.noise_specs, cand_seed)
    lam = config.selector_config(sel_seed).resolve_lam(n)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_STABILITY, n, 1]))
    first, second = stability_check(dataset, candidates, two_way_split(n, sel_seed), lam, 2, rng)
    assert (float(np.sqrt(first)), float(np.sqrt(second))) == (report.delta1[0], report.delta2[0])


def test_stability_check_needs_the_whole_replacement_pool():
    dataset, truth = generate_toy(205, (2, 2, 2, 2), seed=1)
    candidates = make_candidates(truth, SPECS, seed=2)
    with pytest.raises(ValueError, match="2 probes need 206 units, got 205"):
        stability_check(dataset, candidates, two_way_split(200, 3), 1.0, 2, np.random.default_rng(4))


def test_stability_probes_keep_their_gathered_rows_uncopied(monkeypatch):
    # each probe gathers its rows into fresh row-major arrays; frozen, the
    # containers keep them rather than holding each sample twice
    kept = []

    def keeping(cls, *fields):
        def build(*args):
            made = cls(*args)
            kept.extend(getattr(made, name) is given for name, given in zip(fields, args))
            return made

        return build

    monkeypatch.setattr(diagnostics, "Dataset", keeping(Dataset, "x", "t", "y"))
    monkeypatch.setattr(diagnostics, "CandidateSet", keeping(CandidateSet, "predictions"))
    dataset, truth = generate_toy(206, (2, 2, 2, 2), seed=1)
    candidates = make_candidates(truth, SPECS, seed=2)
    stability_check(dataset, candidates, two_way_split(200, 3), 1.0, 2, np.random.default_rng(4))
    # the base sample, one per first-order probe and three per second-order probe
    assert len(kept) == 4 * (1 + 2 + 3 * 2) and all(kept)


def test_the_study_runner_and_the_cli_load_no_diagnostics():
    # only the two diagnose commands import the module, when they run
    env = dict(os.environ)
    src = str(Path(cateselect.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, cateselect.harness, cateselect.cli; print('cateselect.diagnostics' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# --- CLT diagnostics ---------------------------------------------------------


def test_clt_diagnostic_smoke():
    report = clt_diagnostic(_config(), datasets=3, bootstrap_draws=100)
    assert report.datasets == 3
    assert 0.0 <= report.rejection_share <= 1.0
    assert all(entry["tested_pairs"] == 3 for entry in report.per_dataset)
    payload = dataclasses.asdict(report)
    assert set(payload) >= {"rejection_share", "per_dataset", "skipped"}


@pytest.mark.parametrize(
    "counts",
    [{"datasets": 0}, {"datasets": -1}, {"bootstrap_draws": 0}],
    ids=["datasets_0", "datasets_-1", "bootstrap_0"],
)
def test_clt_diagnostic_rejects_empty_counts(counts):
    with pytest.raises(ConfigError, match="must be at least 1"):
        clt_diagnostic(_config(), **counts)


# --- stability diagnostics ----------------------------------------------------


def test_stability_zero_with_uniform_weights_and_constant_nuisances(monkeypatch):
    # uniform weights, and nuisance fits that predict constants, so a unit's
    # scores depend on that unit alone: no probe moves the other units' scores,
    # so both perturbations are zero and the slopes undefined
    monkeypatch.setattr(
        selectors, "fit", lambda dataset, indices: NuisanceModel(*np.zeros((3, dataset.d + 1)))
    )
    config = _config(n=500, noise_specs=NEAR_TIED_SPECS, seed=7, lam=0.0)
    report = stability_diagnostic([500, 600, 700], config, probes=3)
    assert report.delta1 == (0.0, 0.0, 0.0) and report.delta2 == (0.0, 0.0, 0.0)
    assert np.isnan(report.slope_delta1_sq) and np.isnan(report.slope_delta2_sq)


def test_stability_diagnostic_validates_grid():
    config = _config()
    with pytest.raises(ConfigError):
        stability_diagnostic([500, 600], config)
    with pytest.raises(ConfigError):
        stability_diagnostic([700, 600, 500], config)


def test_stability_report_shapes():
    report = stability_diagnostic([300, 400, 500], _config(seed=3), probes=3)
    assert len(report.delta1) == 3
    assert len(report.delta2) == 3
    assert all(v >= 0 for v in report.delta1)
    assert all(v >= 0 for v in report.delta2)
    assert report.probes_per_point == 3


# a study's selectors and the major-fold count of its split
LAYOUTS = [(("proposed",), 2), (("ablation",), 1)]


def _count_split_draws(monkeypatch):
    """Record the size and major-fold count of every split drawn."""
    draws = []
    split = selectors._split

    def counting_split(n, groups, rng):
        draws.append((n, groups))
        return split(n, groups, rng)

    monkeypatch.setattr(selectors, "_split", counting_split)
    return draws


@pytest.mark.parametrize("names, groups", LAYOUTS, ids=["proposed", "ablation"])
def test_stability_draws_one_split_per_grid_size(monkeypatch, names, groups):
    # the diagnostic uses the study's own layout: one-fold for an ablation-only study
    draws = _count_split_draws(monkeypatch)
    stability_diagnostic([200, 300, 400], _config(n=200, selectors=names), probes=2)
    assert draws == [(200, groups), (300, groups), (400, groups)]


@pytest.mark.parametrize("names, groups", LAYOUTS, ids=["proposed", "ablation"])
def test_clt_draws_one_split_per_dataset(monkeypatch, names, groups):
    draws = _count_split_draws(monkeypatch)
    clt_diagnostic(_config(n=200, selectors=names), datasets=2, bootstrap_draws=20)
    assert draws == [(200, groups), (200, groups)]


@pytest.mark.parametrize(
    "grid, probes, message",
    [([10, 20, 30], 2, "grid size 10"), ([200, 300, 400], 0, "probes must be at least 1")],
    ids=["grid_from_10", "probes_0"],
)
def test_stability_diagnostic_rejects_empty_counts(grid, probes, message):
    with pytest.raises(ConfigError, match=message):
        stability_diagnostic(grid, _config(), probes=probes)
