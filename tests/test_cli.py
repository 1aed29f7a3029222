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
from cateselect.datagen import write_dataset_csv, write_predictions_csv


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


def test_select_bad_csv_exits_1(tmp_path, capsys):
    bad = tmp_path / "d.csv"
    bad.write_text("x_0,t,y\n0.0,2,1.0\n")
    preds = tmp_path / "p.csv"
    preds.write_text("tau_0,tau_1\n0.0,0.1\n")
    code = cli(["select", "--data", str(bad), "--preds", str(preds)])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


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


def test_select_too_few_bootstrap_draws_blames_the_setting(tmp_path, capsys):
    ds, truth = generate_toy(300, (2, 2, 2, 2), seed=3)
    cands = make_candidates(truth, [NoiseSpec(0.0, 0.1), NoiseSpec(0.4, 0.1)], seed=4)
    write_dataset_csv(ds, tmp_path / "d.csv")
    write_predictions_csv(cands, tmp_path / "p.csv")
    code = cli([
        "select", "--data", str(tmp_path / "d.csv"), "--preds", str(tmp_path / "p.csv"),
        "--selectors", "naive", "--bootstrap-draws", "500",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "bootstrap" in err
    assert str(tmp_path) not in err


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


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import and only the diagnostics need it
    env = dict(os.environ)
    src = str(Path(cateselect.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, cateselect.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
