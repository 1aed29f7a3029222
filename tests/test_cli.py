import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cateselect
from cateselect.cli import cli
from cateselect.datagen import CandidateSet, NoiseSpec, generate_toy, make_candidates
from cateselect.datagen import ingest_dataset, ingest_predictions, write_dataset_csv, write_predictions_csv
from cateselect.harness import strict_json
from cateselect.selectors import (
    SelectorConfig,
    bonferroni_select,
    naive_select,
    proposed_select,
    single_layer_ablation_select,
)


def _write_config(tmp_path, **overrides):
    payload = {
        "n": 400,
        "dims": [2, 2, 2, 2],
        "noise_specs": [[0.0, 0.1], [0.03, 0.1], [0.3, 0.1]],
        "selectors": ["proposed"],
        "alpha": 0.1,
        "repetitions": 3,
        "seed": 5,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_simulate_writes_report_and_per_rep(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "out"
    code = cli(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "proposed" in report["selectors"]
    per_rep = (out / "per_rep.csv").read_text().strip().splitlines()
    assert per_rep[0] == "rep,selector,candidate,statistic,critical,accepted"
    assert len(per_rep) == 1 + 3 * 3  # reps x candidates


def test_simulate_overrides(tmp_path):
    config = _write_config(tmp_path)
    out = tmp_path / "out"
    code = cli([
        "simulate", "--config", str(config), "--out", str(out),
        "--reps", "2", "--selectors", "bonferroni", "--alpha", "0.2", "--seed", "9",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["selectors"]) == ["bonferroni"]
    assert report["config"]["alpha"] == 0.2
    assert report["config"]["repetitions"] == 2
    assert report["config"]["seed"] == 9


def test_missing_config_exits_1_naming_path(tmp_path, capsys):
    code = cli(["simulate", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "absent.json" in err


def test_unknown_flag_exits_1_with_usage(capsys):
    code = cli(["simulate", "--config", "x.json", "--bogus"])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_selector_exits_1(tmp_path, capsys):
    config = _write_config(tmp_path)
    code = cli(["simulate", "--config", str(config), "--selectors", "nope"])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_config_naming_bootstrap_draws_exits_1(tmp_path, capsys):
    # the naive selector's draw count is fixed; the key is no longer a setting
    config = _write_config(tmp_path, bootstrap_draws=2000)
    out = tmp_path / "out"
    assert cli(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unknown config keys: bootstrap_draws" in err
    assert not out.exists()


def test_bad_config_values_exit_1(tmp_path, capsys):
    config = _write_config(tmp_path, repetitions=0)
    code = cli(["simulate", "--config", str(config)])
    assert code == 1
    config = _write_config(tmp_path, alpha=1.5)
    assert cli(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "alpha" in capsys.readouterr().err
    config = _write_config(tmp_path)
    for flag, value in (("--alpha", "1.5"), ("--inner-folds", "1")):
        argv = ["simulate", "--config", str(config), flag, value, "--out", str(tmp_path / "out")]
        assert cli(argv) == 1
    assert not (tmp_path / "out").exists()


def test_select_prints_accepted_set(tmp_path, capsys):
    ds, truth = generate_toy(300, (2, 2, 2, 2), seed=3)
    cands = make_candidates(truth, [NoiseSpec(0.0, 0.1), NoiseSpec(0.4, 0.1)], seed=4)
    data_path = tmp_path / "d.csv"
    preds_path = tmp_path / "p.csv"
    write_dataset_csv(ds, data_path)
    write_predictions_csv(cands, preds_path)
    code = cli(["select", "--data", str(data_path), "--preds", str(preds_path), "--alpha", "0.1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["selector"] == "proposed"
    assert isinstance(payload["accepted"], list)
    assert {"candidate", "statistic", "critical", "decision"} <= set(payload["stats"][0])


def test_select_multiple_selectors(tmp_path, capsys):
    ds, truth = generate_toy(300, (2, 2, 2, 2), seed=3)
    cands = make_candidates(truth, [NoiseSpec(0.0, 0.1), NoiseSpec(0.4, 0.1)], seed=4)
    write_dataset_csv(ds, tmp_path / "d.csv")
    write_predictions_csv(cands, tmp_path / "p.csv")
    code = cli([
        "select", "--data", str(tmp_path / "d.csv"), "--preds", str(tmp_path / "p.csv"),
        "--selectors", "proposed,bonferroni",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["selector"] for entry in payload] == ["proposed", "bonferroni"]


def test_select_all_selectors_prints_each_selector_alone(tmp_path, capsys):
    # select shares one preparation per split layout; the results must be
    # exactly those of each selector called on its own
    ds, truth = generate_toy(300, (2, 2, 2, 2), seed=3)
    cands = make_candidates(truth, [NoiseSpec(0.0, 0.1), NoiseSpec(0.1, 0.1), NoiseSpec(0.4, 0.1)], seed=4)
    write_dataset_csv(ds, tmp_path / "d.csv")
    write_predictions_csv(cands, tmp_path / "p.csv")
    code = cli([
        "select", "--data", str(tmp_path / "d.csv"), "--preds", str(tmp_path / "p.csv"),
        "--selectors", "proposed,naive,bonferroni,ablation", "--seed", "7",
    ])
    assert code == 0
    config = SelectorConfig(seed=7)
    ingested = ingest_dataset(tmp_path / "d.csv")
    preds = ingest_predictions(tmp_path / "p.csv", ingested.n)
    alone = [
        select(ingested, preds, config).to_dict()
        for select in (proposed_select, naive_select, bonferroni_select, single_layer_ablation_select)
    ]
    assert capsys.readouterr().out == strict_json(alone, indent=2) + "\n"


def test_select_bad_csv_exits_1(tmp_path, capsys):
    bad = tmp_path / "d.csv"
    bad.write_text("x_0,t,y\n0.0,2,1.0\n")
    preds = tmp_path / "p.csv"
    preds.write_text("tau_0,tau_1\n0.0,0.1\n")
    code = cli(["select", "--data", str(bad), "--preds", str(preds)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("bad_file", ["data", "preds"])
def test_select_oversized_field_exits_1(tmp_path, capsys, bad_file):
    ds, truth = generate_toy(300, (2, 2, 2, 2), seed=3)
    cands = make_candidates(truth, [NoiseSpec(0.0, 0.1), NoiseSpec(0.4, 0.1)], seed=4)
    paths = {"data": tmp_path / "d.csv", "preds": tmp_path / "p.csv"}
    write_dataset_csv(ds, paths["data"])
    write_predictions_csv(cands, paths["preds"])
    lines = paths[bad_file].read_text().splitlines()
    lines[1] = "1" * 200_000 + "," + lines[1]  # line 2 starts with an oversized field
    paths[bad_file].write_text("\n".join(lines) + "\n")
    code = cli(["select", "--data", str(paths["data"]), "--preds", str(paths["preds"])])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{paths[bad_file]}: line 2: field larger than field limit" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_select_overflowing_predictions_exits_1(tmp_path, capsys):
    ds, truth = generate_toy(300, (2, 2, 2, 2), seed=3)
    cands = make_candidates(truth, [NoiseSpec(0.0, 0.1), NoiseSpec(0.4, 0.1)], seed=4)
    write_dataset_csv(ds, tmp_path / "d.csv")
    write_predictions_csv(CandidateSet(cands.predictions * 1e160), tmp_path / "p.csv")
    code = cli(["select", "--data", str(tmp_path / "d.csv"), "--preds", str(tmp_path / "p.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "finite" in err
    assert str(tmp_path / "p.csv") in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize(
    "selectors, message",
    [(",", "selector list is empty"), ("naive,proposed,naive", "duplicate selectors: naive"),
     ("proposed,nope", "unknown selectors: nope")],
    ids=["empty", "duplicate", "unknown"],
)
def test_select_bad_selector_list_exits_1(tmp_path, capsys, selectors, message):
    ds, truth = generate_toy(300, (2, 2, 2, 2), seed=3)
    cands = make_candidates(truth, [NoiseSpec(0.0, 0.1), NoiseSpec(0.4, 0.1)], seed=4)
    write_dataset_csv(ds, tmp_path / "d.csv")
    write_predictions_csv(cands, tmp_path / "p.csv")
    code = cli([
        "select", "--data", str(tmp_path / "d.csv"), "--preds", str(tmp_path / "p.csv"),
        "--selectors", selectors,
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_sweep_cli(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "out"
    code = cli([
        "sweep", "--config", str(config), "--axis", "candidate-count",
        "--values", "2,3", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["axis"] == "candidate_count"
    assert payload["values"] == [2, 3]
    assert (out / "per_rep_2.csv").exists()
    assert (out / "per_rep_3.csv").exists()


def test_diagnose_clt_cli(tmp_path):
    config = _write_config(tmp_path)
    out = tmp_path / "diag"
    code = cli([
        "diagnose", "clt", "--config", str(config), "--out", str(out),
        "--datasets", "2", "--bootstrap", "60",
    ])
    assert code == 0
    payload = json.loads((out / "clt.json").read_text())
    assert payload["datasets"] == 2
    assert (out / "clt_pairs.csv").exists()


def test_diagnose_stability_cli(tmp_path):
    config = _write_config(tmp_path)
    out = tmp_path / "diag"
    code = cli([
        "diagnose", "stability", "--config", str(config), "--out", str(out),
        "--grid", "200,300,400", "--probes", "2",
    ])
    assert code == 0
    payload = json.loads((out / "stability.json").read_text())
    assert payload["n_grid"] == [200, 300, 400]
    assert (out / "stability.csv").exists()


def test_help_exits_zero(capsys):
    assert cli(["--help"]) == 0


def _src_env():
    """Environment for a child interpreter that imports this package."""
    env = dict(os.environ)
    src = str(Path(cateselect.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("module", ["cateselect.cli", "cateselect.harness"])
def test_select_path_imports_no_scipy(module):
    # scipy is slow to import and only the diagnostics need it (kstest)
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["cateselect.cli", "cateselect.harness"])
def test_imports_leave_multiprocessing_unloaded(module):
    # only a run with more than one worker needs the process pool
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'"
        " or m == 'concurrent.futures.process'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# --- strict JSON, closed pipes, experiment-only flags ---------------------------


def _strict_loads(text):
    """``json.loads`` that rejects the NaN and Infinity tokens JSON does not have."""

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def _write_select_inputs(tmp_path):
    ds, truth = generate_toy(300, (2, 2, 2, 2), seed=3)
    cands = make_candidates(truth, [NoiseSpec(0.0, 0.1), NoiseSpec(0.4, 0.1)], seed=4)
    write_dataset_csv(ds, tmp_path / "d.csv")
    write_predictions_csv(cands, tmp_path / "p.csv")
    return ["--data", str(tmp_path / "d.csv"), "--preds", str(tmp_path / "p.csv")]


def test_select_infinite_critical_value_is_null(tmp_path, capsys):
    # 1 - 1e-17 rounds to 1.0: the critical value is +inf and accepts every candidate
    inputs = _write_select_inputs(tmp_path)
    code = cli(["select", *inputs, "--alpha", "1e-17", "--selectors", "bonferroni,proposed"])
    assert code == 0
    payload = _strict_loads(capsys.readouterr().out)
    for result in payload:
        assert result["accepted"] == [0, 1]
        assert [s["critical"] for s in result["stats"]] == [None, None]


def test_diagnose_stability_undefined_slopes_are_null(tmp_path):
    # oracle nuisances and uniform weights: no probe moves the other units'
    # scores, so the log-log slopes of the zero perturbations are undefined
    config = _write_config(tmp_path, oracle_nuisances=True, **{"lambda": 0.0})
    out = tmp_path / "diag"
    code = cli([
        "diagnose", "stability", "--config", str(config), "--out", str(out),
        "--grid", "200,300,400", "--probes", "2",
    ])
    assert code == 0
    payload = _strict_loads((out / "stability.json").read_text())
    assert payload["delta1"] == [0.0, 0.0, 0.0]
    assert payload["slope_delta1_sq"] is None
    assert payload["slope_delta2_sq"] is None


def test_select_into_closed_pipe_exits_2_silently(tmp_path):
    inputs = _write_select_inputs(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cateselect", "select", *inputs, "--selectors", "bonferroni"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_src_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""


@pytest.mark.parametrize("flag, value", [("--reps", "999"), ("--selectors", "ablation"), ("--alpha", "0.5")])
def test_diagnose_rejects_experiment_only_flags(tmp_path, capsys, flag, value):
    config = _write_config(tmp_path)
    out = tmp_path / "diag"
    code = cli(["diagnose", "clt", "--config", str(config), "--out", str(out), flag, value])
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


# --- settings that would fail every repetition exit 1 before any work ---------


@pytest.mark.parametrize("command", ["simulate", "sweep", "diagnose", "select"])
def test_negative_seed_exits_1_naming_the_seed(tmp_path, capsys, command):
    config = str(_write_config(tmp_path))
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", "--config", config, "--out", str(out)],
        "sweep": ["sweep", "--config", config, "--axis", "candidate-count", "--values", "2,3",
                  "--out", str(out)],
        "diagnose": ["diagnose", "clt", "--config", config, "--datasets", "2", "--bootstrap", "60",
                     "--out", str(out)],
        "select": ["select", *_write_select_inputs(tmp_path)],
    }[command]
    assert cli([*argv, "--seed", "-1"]) == 1
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, command, message",
    [
        ({"n": 10}, ["simulate"], "n >= 20"),
        ({"selectors": []}, ["simulate"], "selector list is empty"),
        ({"dims": [2, 2, 2, 0]}, ["simulate"], "dims must be four block sizes"),
        ({}, ["sweep", "--axis", "sample-fraction", "--values", "0.005"], "sample_fraction value 0.005"),
        ({}, ["sweep", "--axis", "candidate-count", "--values", "2,2"], "strictly increasing"),
        ({"n": 30, "inner_folds": 10, "selectors": ["proposed", "naive"]}, ["simulate"],
         "n=30 is too small for 10 inner folds"),
        ({"n": 30, "inner_folds": 10, "selectors": ["proposed", "naive"]},
         ["diagnose", "clt", "--datasets", "2", "--bootstrap", "60"],
         "n=30 is too small for 10 inner folds"),
        ({"n": 1000},
         ["sweep", "--axis", "sample-fraction", "--values", "0.03,1.0", "--inner-folds", "10"],
         "sample_fraction value 0.03: n=30 is too small for 10 inner folds"),
    ],
    ids=["n_10", "no_selectors", "empty_block", "tiny_fraction", "repeated_value", "n_30_for_10_folds",
         "clt_n_30_for_10_folds", "fraction_to_n_30_for_10_folds"],
)
def test_designs_that_fail_every_repetition_exit_1(tmp_path, capsys, overrides, command, message):
    config = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert cli([command[0], "--config", str(config), "--out", str(out), *command[1:]]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, flags, message",
    [
        ("clt", ["--datasets", "-1"], "datasets must be at least 1"),
        ("clt", ["--datasets", "0"], "datasets must be at least 1"),
        ("clt", ["--bootstrap", "0"], "bootstrap draws must be at least 1"),
        ("stability", ["--probes", "0"], "probes must be at least 1"),
        ("stability", ["--probes", "-1"], "probes must be at least 1"),
        ("stability", ["--grid", "10,20,30"], "grid size 10"),
        ("stability", ["--grid", "20,30,40", "--inner-folds", "10"],
         "grid size 20: n=20 is too small for 10 inner folds"),
    ],
    ids=["datasets_-1", "datasets_0", "bootstrap_0", "probes_0", "probes_-1", "grid_from_10",
         "grid_from_20_for_10_folds"],
)
def test_diagnose_rejects_empty_counts(tmp_path, capsys, kind, flags, message):
    config = _write_config(tmp_path)
    out = tmp_path / "diag"
    small = {
        "clt": ["--datasets", "2", "--bootstrap", "60"],
        "stability": ["--grid", "200,300,400", "--probes", "2"],
    }[kind]
    # the flags under test come last, so they override the small defaults
    argv = ["diagnose", kind, "--config", str(config), "--out", str(out), *small, *flags]
    assert cli(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
