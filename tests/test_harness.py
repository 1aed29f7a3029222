import dataclasses
import json

import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import kstest

from cateselect.datagen import NEAR_TIED_SPECS, NoiseSpec
from cateselect.harness import (
    _CONFIG_JSON_KEYS,
    ConfigError,
    ExperimentConfig,
    bootstrap_standardized_means,
    clt_diagnostic,
    experiment_config_from_dict,
    experiment_config_to_dict,
    ks_pair_pvalues,
    load_experiment_config,
    register_selector,
    run_experiment,
    stability_diagnostic,
    sweep,
    write_per_rep_csv,
)
from cateselect.scores import ScoreTensor
from cateselect.selectors import CandidateDecision, SelectionResult


def _fixed_selector(name, accept_fn):
    def select(dataset, candidates, config, nuisance_override=None):
        stats = tuple(
            CandidateDecision(candidate=r, statistic=0.0, critical=1.0, accepted=accept_fn(r))
            for r in range(candidates.p)
        )
        return SelectionResult(
            selector=name,
            alpha=config.alpha,
            lam=0.0,
            inner_folds=config.inner_folds,
            seed=config.seed,
            accepted=tuple(s.candidate for s in stats if s.accepted),
            stats=stats,
        )

    return select


register_selector("accept_all", _fixed_selector("accept_all", lambda r: True))
register_selector("reject_all", _fixed_selector("reject_all", lambda r: False))


def _raising_selector(dataset, candidates, config, nuisance_override=None):
    raise RuntimeError("synthetic failure")


register_selector("always_fails", _raising_selector)


def _broken_selector(dataset, candidates, config, nuisance_override=None):
    raise TypeError("synthetic programming error")


register_selector("broken", _broken_selector)


SPECS = (NoiseSpec(0.0, 0.1), NoiseSpec(0.03, 0.1), NoiseSpec(0.3, 0.1))


def _config(**kwargs):
    base = dict(
        n=200, noise_specs=SPECS, selectors=("accept_all", "reject_all"),
        alpha=0.10, repetitions=5, seed=123,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def test_degenerate_selectors_bound_the_metrics():
    report = run_experiment(_config())
    p = len(SPECS)
    assert report.summaries["accept_all"].fwer == 0.0
    assert report.summaries["accept_all"].anws == p - 1
    assert report.summaries["reject_all"].fwer == 1.0
    assert report.summaries["reject_all"].anws == 0.0


def test_failures_recorded_and_run_continues():
    report = run_experiment(_config(selectors=("always_fails",), repetitions=4))
    assert len(report.failures) == 4
    assert report.records == []
    assert all("synthetic failure" in msg for _, msg in report.failures)


def test_failing_selector_does_not_void_the_others():
    report = run_experiment(_config(selectors=("accept_all", "always_fails"), repetitions=4))
    assert report.summaries["accept_all"].reps == 4
    assert len(report.records) == 4 * len(SPECS)
    assert {r.selector for r in report.records} == {"accept_all"}
    assert [k for k, _ in report.failures] == [0, 1, 2, 3]
    assert all(msg.startswith("always_fails: RuntimeError:") for _, msg in report.failures)
    assert report.summaries["always_fails"].reps == 0


def test_programming_errors_abort_the_run():
    with pytest.raises(TypeError, match="synthetic programming error"):
        run_experiment(_config(selectors=("broken",), repetitions=2))


def test_metrics_recomputable_from_per_rep_csv(tmp_path):
    config = _config(selectors=("proposed",), n=400, repetitions=4)
    report = run_experiment(config)
    path = tmp_path / "per_rep.csv"
    write_per_rep_csv(report.records, path)
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    winner = config.winner_index
    by_rep = {}
    for rep, selector, candidate, _stat, _crit, accepted in rows:
        by_rep.setdefault(int(rep), set())
        if accepted == "1":
            by_rep[int(rep)].add(int(candidate))
    fwer = np.mean([winner not in acc for acc in by_rep.values()])
    anws = np.mean([len(acc - {winner}) for acc in by_rep.values()])
    assert fwer == pytest.approx(report.summaries["proposed"].fwer)
    assert anws == pytest.approx(report.summaries["proposed"].anws)


def test_report_reproducible_modulo_metadata():
    config = _config(selectors=("proposed", "naive"), n=400, repetitions=3)
    d1 = run_experiment(config).to_dict()
    d2 = run_experiment(config).to_dict()
    d1.pop("metadata")
    d2.pop("metadata")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_worker_count_does_not_change_results():
    base = _config(selectors=("proposed",), n=400, repetitions=4)
    serial = run_experiment(base)
    parallel = run_experiment(dataclasses.replace(base, workers=2))
    assert serial.records == parallel.records


def test_single_value_sweep_equals_run_experiment():
    config = _config(selectors=("proposed",), n=400, repetitions=3)
    points = sweep(config, "candidate_count", [len(SPECS)])
    direct = run_experiment(config)
    assert points[0].report.records == direct.records
    points_frac = sweep(config, "sample_fraction", [1.0])
    assert points_frac[0].report.records == direct.records


def test_candidate_count_sweep_keeps_best_specs():
    config = _config(selectors=("accept_all",), repetitions=1)
    points = sweep(config, "candidate_count", [2, 3])
    assert points[0].report.config.noise_specs == SPECS[:2]
    assert points[1].report.config.noise_specs == SPECS
    # every subset keeps the winner
    for point in points:
        assert point.report.config.winner_index == 0


def test_sample_fraction_sweep_scales_n():
    config = _config(selectors=("accept_all",), repetitions=1, n=300)
    points = sweep(config, "sample_fraction", [0.5, 1.0])
    assert points[0].report.config.n == 150
    assert points[1].report.config.n == 300


def test_anws_non_increasing_in_sample_size_within_ci():
    config = ExperimentConfig(
        n=3000, noise_specs=SPECS, selectors=("naive", "proposed"),
        alpha=0.10, repetitions=60, seed=11,
    )
    points = sweep(config, "sample_fraction", [0.6, 1.0])
    for name in ("naive", "proposed"):
        small = points[0].report.summaries[name]
        full = points[1].report.summaries[name]
        # allow the CI half-widths as slack around the non-increase
        slack = (small.anws_ci[1] - small.anws_ci[0]) / 2 + (full.anws_ci[1] - full.anws_ci[0]) / 2
        assert full.anws <= small.anws + slack


def test_sweep_validation():
    config = _config()
    with pytest.raises(ConfigError):
        sweep(config, "bad_axis", [1])
    with pytest.raises(ConfigError):
        sweep(config, "candidate_count", [3, 2])
    with pytest.raises(ConfigError):
        sweep(config, "candidate_count", [1])
    with pytest.raises(ConfigError):
        sweep(config, "sample_fraction", [0.0, 1.0])


def test_config_requires_unique_winner():
    with pytest.raises(ValueError, match="unique winner"):
        ExperimentConfig(n=100, noise_specs=(NoiseSpec(0.0, 0.1), NoiseSpec(0.0, 0.1)),
                         selectors=("proposed",), repetitions=1, seed=0)


@pytest.mark.parametrize(
    "setting", [{"alpha": 1.5}, {"inner_folds": 1}, {"lam": -1.0}, {"bootstrap_draws": 500}]
)
def test_config_rejects_invalid_selector_settings(setting):
    # caught when the config is built, not as a failure in every repetition
    with pytest.raises(ValueError):
        _config(**setting)


def test_config_json_roundtrip():
    config = _config(selectors=("proposed",), lam=12.5)
    payload = experiment_config_to_dict(config)
    assert set(payload) == _CONFIG_JSON_KEYS
    assert payload["lambda"] == 12.5
    restored = experiment_config_from_dict(json.loads(json.dumps(payload)))
    assert restored == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        experiment_config_from_dict({"n": 100, "bogus": 1})


def test_public_api_names_resolve():
    import cateselect

    missing = [name for name in cateselect.__all__ if not hasattr(cateselect, name)]
    assert missing == []


def test_missing_config_file_names_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="nope.json"):
        load_experiment_config(str(missing))


# --- CLT diagnostics ---------------------------------------------------------


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
    tensor = ScoreTensor(losses=losses)
    tested, skipped = ks_pair_pvalues(tensor, 200, np.random.default_rng(2))
    assert [(r, s) for r, s, _ in tested] == [(0, 1), (0, 2)]
    assert skipped == [(1, 2)]


def test_clt_diagnostic_smoke():
    config = ExperimentConfig(
        n=400, noise_specs=SPECS, selectors=("proposed",),
        repetitions=1, seed=21,
    )
    report = clt_diagnostic(config, datasets=3, bootstrap_draws=100)
    assert report.datasets == 3
    assert 0.0 <= report.rejection_share <= 1.0
    assert all(entry["tested_pairs"] == 3 for entry in report.per_dataset)
    payload = report.to_dict()
    assert set(payload) >= {"rejection_share", "per_dataset", "skipped"}


# --- stability diagnostics ----------------------------------------------------


def test_stability_zero_with_uniform_weights_and_oracle():
    config = ExperimentConfig(
        n=500, noise_specs=NEAR_TIED_SPECS, selectors=("proposed",),
        seed=7, lam=0.0, oracle_nuisances=True,
    )
    report = stability_diagnostic([500, 600, 700], config, probes=3)
    assert report.delta1 == (0.0, 0.0, 0.0)
    assert np.isnan(report.slope_delta1_sq)


def test_stability_diagnostic_validates_grid():
    config = _config(selectors=("proposed",))
    with pytest.raises(ConfigError):
        stability_diagnostic([500, 600], config)
    with pytest.raises(ConfigError):
        stability_diagnostic([700, 600, 500], config)


def test_stability_report_shapes():
    config = ExperimentConfig(
        n=400, noise_specs=SPECS, selectors=("proposed",), seed=3,
    )
    report = stability_diagnostic([300, 400, 500], config, probes=3)
    assert len(report.delta1) == 3
    assert len(report.delta2) == 3
    assert all(v >= 0 for v in report.delta1)
    assert all(v >= 0 for v in report.delta2)
    assert report.probes_per_point == 3
