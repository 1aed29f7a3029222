import concurrent.futures
import dataclasses
import json
from pathlib import Path

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
from cateselect import harness, selectors
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


def test_report_of_a_selector_without_records_is_strict_json(tmp_path):
    # every repetition failed: the metrics and their intervals are NaN, written as null
    run_experiment(_config(selectors=("always_fails",), repetitions=2)).write(str(tmp_path))

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
    summary = report["selectors"]["always_fails"]
    assert summary["fwer"] is None and summary["anws"] is None
    assert summary["fwer_ci"] == [None, None] and summary["anws_ci"] == [None, None]
    assert summary["reps"] == 0


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


@pytest.mark.parametrize(
    "axis, values", [("candidate_count", [2, 3]), ("sample_fraction", [0.5, 1.0])]
)
def test_sweep_runs_every_point_on_one_pool(monkeypatch, axis, values):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    config = _config(selectors=("proposed", "naive"), n=400, repetitions=3)
    serial = sweep(config, axis, values)
    assert pools == []
    parallel = sweep(dataclasses.replace(config, workers=2), axis, values)
    assert len(pools) == 1
    for a, b in zip(serial, parallel, strict=True):
        assert a.value == b.value
        assert a.report.records == b.report.records
        assert a.report.summaries == b.report.summaries


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
    "setting", [{"alpha": 1.5}, {"inner_folds": 1}, {"lam": -1.0}]
)
def test_config_rejects_invalid_selector_settings(setting):
    # caught when the config is built, not as a failure in every repetition
    with pytest.raises(ValueError):
        _config(**setting)


@pytest.mark.parametrize(
    "names, message",
    [
        ((), "selector list is empty"),
        (("bonferroni", "accept_all", "bonferroni"), "duplicate selectors: bonferroni"),
        (("accept_all", "nope"), "unknown selectors: nope"),
        ("accept_all", "must be a list of names"),
        ((["accept_all"],), "must be a list of names"),
    ],
    ids=["empty", "duplicate", "unknown", "bare_string", "nested_list"],
)
def test_config_rejects_bad_selector_lists(names, message):
    # caught when the config is built, before any dataset is drawn
    with pytest.raises(ValueError, match=message):
        _config(selectors=names)


@pytest.mark.parametrize(
    "design",
    [{"n": 10}, {"dims": (2, 2, 2, 0)}, {"dims": (2, 2, 2)}],
    ids=["n_10", "empty_block", "three_blocks"],
)
def test_config_rejects_designs_generate_toy_rejects(design):
    # such a design would fail in every repetition and report reps=0
    with pytest.raises(ValueError, match="toy designs need|dims must be"):
        _config(**design)


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        _config(seed=-1)


def test_config_applies_the_split_rule_of_its_selectors():
    # 10 inner folds of 2 units fit into n=30 once (the ablation) but not twice
    with pytest.raises(ValueError, match="n=30 is too small for 10 inner folds"):
        _config(n=30, inner_folds=10, selectors=("proposed", "ablation"))
    report = run_experiment(_config(n=30, inner_folds=10, selectors=("ablation",), repetitions=2))
    assert report.failures == [] and report.summaries["ablation"].reps == 2


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("sample_fraction", [0.05], "sample_fraction value 0.05"),  # n = 10
        ("sample_fraction", [0.5, 0.5], "strictly increasing"),
        ("candidate_count", [2, 2], "strictly increasing"),
    ],
    ids=["fraction_0.05", "repeated_fraction", "repeated_count"],
)
def test_sweep_rejects_points_that_cannot_run(axis, values, message):
    with pytest.raises(ConfigError, match=message):
        sweep(_config(), axis, values)


def test_sweep_validates_every_value_before_running():
    calls = []

    def counting(dataset, candidates, config, nuisance_override=None):
        calls.append(config.seed)
        return _fixed_selector("counting", lambda r: True)(dataset, candidates, config)

    register_selector("counting", counting)
    with pytest.raises(ConfigError, match="candidate_count value 9"):
        sweep(_config(selectors=("counting",)), "candidate_count", [2, 9])
    assert calls == []


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_configs_load(path):
    config = load_experiment_config(str(path))
    if path.name == "power_sweep.json":
        # the candidate-count study: temperature n ** 0.45 to the last bit
        assert config.lam == config.n ** 0.45
        assert config.selectors == ("naive", "bonferroni", "proposed")


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


@pytest.mark.parametrize(
    "counts",
    [{"datasets": 0}, {"datasets": -1}, {"bootstrap_draws": 0}],
    ids=["datasets_0", "datasets_-1", "bootstrap_0"],
)
def test_clt_diagnostic_rejects_empty_counts(counts):
    with pytest.raises(ConfigError, match="must be at least 1"):
        clt_diagnostic(_config(selectors=("proposed",)), **counts)


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


def test_stability_draws_one_split_per_grid_size(monkeypatch):
    draws = []
    split = selectors._split

    def counting_split(n, *args):
        draws.append(n)
        return split(n, *args)

    monkeypatch.setattr(selectors, "_split", counting_split)
    stability_diagnostic([200, 300, 400], _config(selectors=("proposed",)), probes=2)
    assert draws == [200, 300, 400]


@pytest.mark.parametrize(
    "grid, probes, message",
    [([10, 20, 30], 2, "grid size 10"), ([200, 300, 400], 0, "probes must be at least 1")],
    ids=["grid_from_10", "probes_0"],
)
def test_stability_diagnostic_rejects_empty_counts(grid, probes, message):
    with pytest.raises(ConfigError, match=message):
        stability_diagnostic(grid, _config(selectors=("proposed",)), probes=probes)
