import concurrent.futures
import dataclasses
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cateselect.datagen import (
    NEAR_TIED_SPECS,
    CandidateSet,
    NoiseSpec,
    generate_toy,
    make_candidates,
)
from cateselect.harness import (
    _CONFIG_JSON_KEYS,
    ConfigError,
    ExperimentConfig,
    experiment_config_from_dict,
    experiment_config_to_dict,
    load_experiment_config,
    run_experiment,
    sweep,
    write_per_rep_csv,
)
from cateselect.diagnostics import clt_diagnostic, stability_diagnostic
from cateselect.nuisance import NuisanceModel, fit, min_arm_units
from cateselect import harness, selectors
from cateselect.selectors import CandidateDecision, SelectionResult, two_way_split


def _fixed_selector(name, accept_fn):
    def select(prepared, config):
        stats = tuple(
            CandidateDecision(candidate=r, statistic=0.0, critical=1.0, accepted=accept_fn(r))
            for r in range(len(prepared.losses))
        )
        return SelectionResult(
            selector=name,
            alpha=config.alpha,
            lam=0.0,
            seed=config.seed,
            accepted=tuple(s.candidate for s in stats if s.accepted),
            stats=stats,
        )

    return select


def _raising_selector(prepared, config):
    raise RuntimeError("synthetic failure")


def _broken_selector(prepared, config):
    raise TypeError("synthetic programming error")


def _add_selector(monkeypatch, name, test):
    """Make ``name`` a selector for one test: a test on the two-way split."""
    monkeypatch.setitem(selectors.TAILS, name, (2, test))
    monkeypatch.setitem(harness.SELECTOR_FUNCS, name, test)


@pytest.fixture(autouse=True)
def _test_selectors(monkeypatch):
    """Registers this module's test selectors for one test at a time, so no
    other test module sees them."""
    for name, fn in {
        "accept_all": _fixed_selector("accept_all", lambda r: True),
        "reject_all": _fixed_selector("reject_all", lambda r: False),
        "always_fails": _raising_selector,
        "broken": _broken_selector,
    }.items():
        _add_selector(monkeypatch, name, fn)


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


def test_pool_size_is_capped_by_the_job_count(monkeypatch):
    sizes = []

    class RecordingPool:
        """Runs the jobs in this process; records the pool size asked for."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = _config(repetitions=3, workers=4)
    run_experiment(config)
    assert sizes == [3]
    sweep(config, "candidate_count", [2, 3])  # one job per repetition for both points
    assert sizes == [3, 3]
    sweep(dataclasses.replace(config, repetitions=1), "sample_fraction", [0.5, 1.0])
    assert sizes == [3, 3, 2]
    run_experiment(dataclasses.replace(config, repetitions=1))  # one job runs in this process
    assert sizes == [3, 3, 2]


SWEEP_SPECS = SPECS[:2] + (NoiseSpec(0.05, 0.1), NoiseSpec(0.3, 0.2), SPECS[2])


def _assert_points_run_alone(points):
    for point in points:
        alone = run_experiment(dataclasses.replace(point.report.config, workers=1))
        assert point.report.records == alone.records
        assert point.report.summaries == alone.summaries
        assert point.report.failures == alone.failures


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.sets(st.integers(2, len(SWEEP_SPECS)), min_size=1).map(sorted),
)
def test_candidate_count_points_equal_their_standalone_runs(seed, counts):
    # the sweep draws each repetition once, at the largest count
    config = _config(
        n=400, noise_specs=SWEEP_SPECS, selectors=("proposed", "naive"), repetitions=2, seed=seed
    )
    _assert_points_run_alone(sweep(config, "candidate_count", counts))


def test_candidate_count_points_equal_their_standalone_runs_on_a_pool():
    config = _config(
        n=400, noise_specs=SWEEP_SPECS, selectors=("proposed", "naive"), repetitions=3, workers=2
    )
    _assert_points_run_alone(sweep(config, "candidate_count", [2, 4, 5]))


def test_failed_draw_is_recorded_at_every_point(monkeypatch):
    config = _config(repetitions=3)
    bad_seed = harness._derived_seeds(config.seed, harness._STREAM_REP, 1)[0]
    draws = []

    def failing_draw(n, dims, seed):
        draws.append(seed)
        if seed == bad_seed:
            raise RuntimeError("synthetic draw failure")
        return generate_toy(n, dims, seed)

    monkeypatch.setattr(harness, "generate_toy", failing_draw)
    points = sweep(config, "candidate_count", [2, 3])
    assert len(draws) == config.repetitions  # both points share each draw
    for point in points:
        assert point.report.failures == [(1, "RuntimeError: synthetic draw failure")]
        assert {r.rep for r in point.report.records} == {0, 2}
    _assert_points_run_alone(points)


def _count_work(monkeypatch):
    """Count the nuisance fits, split draws and loss-matrix builds made
    through ``selectors``."""
    counts = {"fit": 0, "split": 0, "build": 0}
    for key, attr in (("fit", "fit"), ("split", "_split"), ("build", "build_score_tensor")):

        def counting(*args, _key=key, _original=getattr(selectors, attr)):
            counts[_key] += 1
            return _original(*args)

        monkeypatch.setattr(selectors, attr, counting)
    return counts


@pytest.mark.parametrize(
    "names, counts_per_rep",
    [
        # the naive and proposed tests share the two-way split
        (("naive", "proposed"), {"fit": 4, "split": 1, "build": 2}),
        (("proposed", "naive", "bonferroni", "ablation"), {"fit": 7, "split": 2, "build": 4}),
    ],
    ids=["naive_proposed", "all_four"],
)
@pytest.mark.parametrize(
    "study",
    [run_experiment, lambda config: sweep(config, "candidate_count", [2, 3, 4, 5])],
    ids=["run_experiment", "four_point_sweep"],
)
def test_each_selector_prepares_once_per_repetition(monkeypatch, names, counts_per_rep, study):
    # one split per layout, and one fit and build per selector at the largest
    # count, whose first p rows every point tests
    counts = _count_work(monkeypatch)
    config = _config(n=400, noise_specs=SWEEP_SPECS, selectors=names, repetitions=2)
    study(config)
    assert counts == {key: count * config.repetitions for key, count in counts_per_rep.items()}


def test_an_overflowing_worst_candidate_fails_only_the_points_that_hold_it(monkeypatch):
    # the third candidate's losses overflow: the matrix at p = 3 cannot be
    # built, but its first two rows are finite, so the p = 2 point runs
    specs = (NoiseSpec(0, 0.1), NoiseSpec(0, 0.2), NoiseSpec(1.34e154, 1e152))
    config = _config(n=400, noise_specs=specs, selectors=("naive", "proposed"), repetitions=2)
    counts = _count_work(monkeypatch)
    two, three = sweep(config, "candidate_count", [2, 3])
    # per selector and repetition: the failed build at p = 3, kept for that
    # point, and one build at p = 2 from the same fits
    reps = config.repetitions
    assert counts == {"fit": 4 * reps, "split": reps, "build": 4 * reps}
    assert two.report.failures == []
    assert len(two.report.records) == 2 * 2 * config.repetitions
    assert three.report.failures == [
        (k, f"{name}: ValueError: candidate losses must be finite")
        for k in range(config.repetitions)
        for name in config.selectors
    ]
    assert three.report.records == []
    _assert_points_run_alone([two])  # three's empty summaries are NaN, never equal


def test_a_duplicate_candidate_fails_only_the_points_that_hold_it(monkeypatch):
    # the fourth candidate copies the third, a zero-variance pair for the
    # max-statistic tests at p = 4; the p = 3 point reads the leading blocks of
    # the moments built at p = 4, in which the copy takes no part
    def duplicating_draw(truth, specs, seed):
        predictions = make_candidates(truth, specs, seed).predictions.copy()
        predictions[3:] = predictions[2]
        return CandidateSet(predictions)

    monkeypatch.setattr(harness, "make_candidates", duplicating_draw)
    names = ("naive", "bonferroni", "proposed")
    config = _config(n=400, noise_specs=SWEEP_SPECS[:4], selectors=names, repetitions=2)
    three, four = sweep(config, "candidate_count", [3, 4])
    assert three.report.failures == []
    degenerate = "candidate 2: degenerate pairwise score variance; statistics undefined"
    assert four.report.failures == [
        (k, f"{name}: RuntimeError: {degenerate}")
        for k in range(config.repetitions)
        for name in ("naive", "bonferroni")
    ]
    assert {r.selector for r in four.report.records} == {"proposed"}
    _assert_points_run_alone([three])


def test_register_selector_replaces_the_test_of_a_selector(monkeypatch):
    config = _config(n=400, noise_specs=SWEEP_SPECS, selectors=("naive", "proposed"), repetitions=2)
    counts = [2, 3, 5]
    unwrapped = sweep(config, "candidate_count", counts)
    original = harness.SELECTOR_FUNCS["proposed"]
    monkeypatch.setitem(harness.SELECTOR_FUNCS, "proposed", original)  # restored after the test
    calls = []

    def wrapped(prepared, selector_config):
        calls.append(len(prepared.losses))
        return original(prepared, selector_config)

    harness.register_selector("proposed", wrapped)
    traced = sweep(config, "candidate_count", counts)
    # once per point and repetition, each on its point's candidates
    assert calls == counts * config.repetitions
    harness.register_selector("proposed", original)
    restored = sweep(config, "candidate_count", counts)
    for a, b, c in zip(unwrapped, traced, restored, strict=True):
        assert a.report.records == b.report.records == c.report.records
    with pytest.raises(ValueError, match="unknown selectors: oracle"):
        harness.register_selector("oracle", wrapped)
    assert "oracle" not in harness.SELECTOR_FUNCS


def test_failed_fits_are_recorded_at_every_point():
    # at n = 40 and d = 8 a major fold's treatment arms are often one unit short
    config = _config(
        n=40, noise_specs=SWEEP_SPECS, selectors=("naive", "accept_all", "proposed"),
        repetitions=6, seed=0,
    )
    points = sweep(config, "candidate_count", [2, 3, 5])
    failures = points[0].report.failures
    assert any("need at least" in msg for _, msg in failures)
    assert {r.selector for r in points[0].report.records} >= {"accept_all", "proposed"}
    for point in points:
        assert point.report.failures == failures
    _assert_points_run_alone(points)


def test_programming_errors_in_a_fit_abort_the_run(monkeypatch):
    def broken_fit(dataset, indices):
        raise TypeError("synthetic fit error")

    monkeypatch.setattr(selectors, "fit", broken_fit)
    with pytest.raises(TypeError, match="synthetic fit error"):
        run_experiment(_config(selectors=("proposed",), repetitions=1))


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
    "setting",
    [{"alpha": 1.5}, {"lam": True}, {"lam": -1.0}, {"lam": float("nan")}, {"lam": float("inf")}],
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
    # each major fold needs 2 * (d + 2) units, or one treatment arm always falls
    # short of the nuisance fit's d + 2: at d = 8, n >= 40 for the two-way split
    with pytest.raises(ValueError, match="n=39 is too small for d=8: each major fold needs 20"):
        _config(n=39, selectors=("proposed", "ablation"))
    _config(n=40, selectors=("proposed", "ablation"))
    # the ablation's one fold needs 20, the toy design's own floor
    with pytest.raises(ValueError, match="toy designs need n >= 20"):
        _config(n=19, selectors=("ablation",))
    _config(n=20, selectors=("ablation",))


@settings(max_examples=25, deadline=None)
@given(d=st.integers(4, 40), seed=st.integers(0, 2**32 - 1))
def test_split_rule_is_the_fit_minimum(d, seed):
    # at the largest n the rule rejects, the smaller major fold of the
    # two-way split has 2 * (d + 2) - 1 units: one arm is short for any data
    n = 2 * 2 * min_arm_units(d) - 1
    dims = (1, 1, 1, d - 3)
    with pytest.raises(ValueError, match=f"n={n} is too small"):
        _config(n=n, dims=dims, selectors=("proposed",))
    _config(n=n + 1, dims=dims, selectors=("proposed",))
    dataset, _ = generate_toy(n, dims, seed)
    plan = two_way_split(n, seed)
    smaller = min((np.flatnonzero(plan.major == g) for g in (0, 1)), key=len)
    with pytest.raises(ValueError, match="training units; need at least"):
        fit(dataset, smaller)


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("sample_fraction", [0.05], "sample_fraction value 0.05"),  # n = 10
        ("sample_fraction", [0.5, 0.5], "strictly increasing"),
        ("candidate_count", [2, 2], "strictly increasing"),
        # int() would run p = 2 and p = 3 under the labels 2.5 and 3.9
        ("candidate_count", [2.5, 3.9], "candidate_count value 2.5 must be an integer"),
        ("candidate_count", [2, 3.0], "candidate_count value 3.0 must be an integer"),
        ("candidate_count", [True, 3], "candidate_count value True must be an integer"),
    ],
    ids=["fraction_0.05", "repeated_fraction", "repeated_count", "fractional_count",
         "float_count", "bool_count"],
)
def test_sweep_rejects_points_that_cannot_run(axis, values, message):
    with pytest.raises(ConfigError, match=message):
        sweep(_config(), axis, values)


def test_sweep_validates_every_value_before_running(monkeypatch):
    calls = []

    def counting(prepared, config):
        calls.append(config.seed)
        return _fixed_selector("counting", lambda r: True)(prepared, config)

    _add_selector(monkeypatch, "counting", counting)
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


def test_clt_diagnostic_smoke():
    config = ExperimentConfig(
        n=400, noise_specs=SPECS, selectors=("proposed",),
        repetitions=1, seed=21,
    )
    report = clt_diagnostic(config, datasets=3, bootstrap_draws=100)
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
        clt_diagnostic(_config(selectors=("proposed",)), **counts)


# --- stability diagnostics ----------------------------------------------------


def test_stability_zero_with_uniform_weights_and_constant_nuisances(monkeypatch):
    # uniform weights, and nuisance fits that predict constants, so a unit's
    # scores depend on that unit alone: no probe moves the other units' scores,
    # so both perturbations are zero and the slopes undefined
    monkeypatch.setattr(
        selectors, "fit", lambda dataset, indices: NuisanceModel(*np.zeros((3, dataset.d + 1)))
    )
    config = ExperimentConfig(
        n=500, noise_specs=NEAR_TIED_SPECS, selectors=("proposed",), seed=7, lam=0.0,
    )
    report = stability_diagnostic([500, 600, 700], config, probes=3)
    assert report.delta1 == (0.0, 0.0, 0.0) and report.delta2 == (0.0, 0.0, 0.0)
    assert np.isnan(report.slope_delta1_sq) and np.isnan(report.slope_delta2_sq)


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
    stability_diagnostic([200, 300, 400], _config(selectors=names), probes=2)
    assert draws == [(200, groups), (300, groups), (400, groups)]


@pytest.mark.parametrize("names, groups", LAYOUTS, ids=["proposed", "ablation"])
def test_clt_draws_one_split_per_dataset(monkeypatch, names, groups):
    draws = _count_split_draws(monkeypatch)
    clt_diagnostic(_config(selectors=names), datasets=2, bootstrap_draws=20)
    assert draws == [(200, groups), (200, groups)]


@pytest.mark.parametrize(
    "grid, probes, message",
    [([10, 20, 30], 2, "grid size 10"), ([200, 300, 400], 0, "probes must be at least 1")],
    ids=["grid_from_10", "probes_0"],
)
def test_stability_diagnostic_rejects_empty_counts(grid, probes, message):
    with pytest.raises(ConfigError, match=message):
        stability_diagnostic(grid, _config(selectors=("proposed",)), probes=probes)
