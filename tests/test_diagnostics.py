"""The problem-level checks of ``cateselect.diagnostics``: ``clt_check`` and
its bootstrap, ``stability_check``, and that each reproduces its toy study's
entry. The toy studies' own tests, which run them from a config, are in
``test_harness.py``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kstest

import cateselect
from cateselect.datagen import NoiseSpec, generate_toy, make_candidates
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
from cateselect.harness import ExperimentConfig, _derived_seeds
from cateselect.nuisance import Nuisances
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
    true_problem = prepare(dataset, candidates, plan, Nuisances.from_truth(truth))
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


def test_the_study_runner_and_the_cli_load_no_diagnostics():
    # only the two diagnose commands import the module, when they run
    env = dict(os.environ)
    src = str(Path(cateselect.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, cateselect.harness, cateselect.cli; print('cateselect.diagnostics' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
