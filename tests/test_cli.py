import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cateselect
from cateselect.cli import cli
from cateselect.datagen import (
    COMPETITIVE_PLUS_INFERIOR_SPECS,
    CandidateSet,
    NoiseSpec,
    generate_toy,
    make_candidates,
)
from cateselect.datagen import ingest_dataset, ingest_predictions, write_dataset_csv, write_predictions_csv
from cateselect.harness import strict_json
from cateselect.nuisance import NuisanceModel
from cateselect import selectors
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
    # the config file sets the study; --reps only sizes the run
    config = _write_config(tmp_path, selectors=["bonferroni"], alpha=0.2, seed=9)
    out = tmp_path / "out"
    code = cli(["simulate", "--config", str(config), "--out", str(out), "--reps", "2"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["selectors"]) == ["bonferroni"]
    assert report["config"]["alpha"] == 0.2
    assert report["config"]["repetitions"] == 2
    assert report["config"]["seed"] == 9


def test_simulate_reports_failed_repetitions(tmp_path, capsys):
    # just above the size rule, most repetitions fail in the nuisance fit: the
    # console says how many, and why the first did
    config = _write_config(tmp_path, n=40, repetitions=20, seed=0)
    out = tmp_path / "out"
    assert cli(["simulate", "--config", str(config), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    failures = json.loads((out / "report.json").read_text())["failures"]
    assert failures
    assert f"reps={20 - len(failures)} failed={len(failures)}\n" in captured.out
    rep, message = failures[0]
    assert captured.err == f"{len(failures)} selector runs failed; the first, in rep {rep}: {message}\n"


def test_missing_config_exits_1_naming_path(tmp_path, capsys):
    code = cli(["simulate", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "absent.json" in err


def test_unknown_selector_exits_1(tmp_path, capsys):
    config = _write_config(tmp_path, selectors=["nope"])
    out = tmp_path / "out"
    assert cli(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unknown selectors: nope (known: ablation, bonferroni, naive, proposed)" in err
    assert not out.exists()


def test_config_naming_bootstrap_draws_exits_1(tmp_path, capsys):
    # the naive selector's draw count is fixed; the key is no longer a setting
    config = _write_config(tmp_path, bootstrap_draws=2000)
    out = tmp_path / "out"
    assert cli(["simulate", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unknown config keys: bootstrap_draws" in err
    assert not out.exists()


def test_bad_config_values_exit_1(tmp_path, capsys):
    for key, value, message in (
        ("repetitions", 0, "repetitions must be at least 1"),
        ("alpha", 1.5, "alpha must lie in (0, 1)"),
        ("lambda", -1, "lam must be finite and nonnegative, got -1"),
    ):
        config = _write_config(tmp_path, **{key: value})
        assert cli(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
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


def test_select_prints_the_library_results_on_the_written_arrays(tmp_path, capsys):
    # the predictions CSV holds one column per candidate; read back, they are
    # stored row-major like make_candidates' own, so every reduction sums the
    # same numbers in the same order and the printed bytes match (stored
    # column-major, the naive statistics differed in the last bits at this size)
    ds, truth = generate_toy(300, (2, 2, 2, 2), seed=0)
    cands = make_candidates(truth, COMPETITIVE_PLUS_INFERIOR_SPECS, seed=1)
    write_dataset_csv(ds, tmp_path / "d.csv")
    write_predictions_csv(cands, tmp_path / "p.csv")
    names = ["proposed", "naive", "bonferroni", "ablation"]
    code = cli([
        "select", "--data", str(tmp_path / "d.csv"), "--preds", str(tmp_path / "p.csv"),
        "--selectors", ",".join(names),
    ])
    assert code == 0
    assert ingest_predictions(tmp_path / "p.csv", ds.n).predictions.flags.c_contiguous
    library = [r.to_dict() for r in selectors.run_selectors(ds, cands, SelectorConfig(), names)]
    assert capsys.readouterr().out == strict_json(library, indent=2) + "\n"


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
    "flags, message",
    [(["--selectors", ","], "selector list is empty"),
     (["--selectors", "naive,proposed,naive"], "duplicate selectors: naive"),
     (["--selectors", "proposed,nope"], "unknown selectors: nope"),
     (["--selectors", "oracle,proposed,nope"],
      "unknown selectors: oracle, nope (known: ablation, bonferroni, naive, proposed)"),
     # a temperature that is not finite would drop every candidate, the winner too
     (["--lambda", "nan"], "lam must be finite and nonnegative, got nan"),
     (["--lambda", "inf"], "lam must be finite and nonnegative, got inf")],
    ids=["empty", "duplicate", "unknown", "unknown_names_the_known", "nan_lambda", "inf_lambda"],
)
def test_select_bad_selector_list_exits_1(tmp_path, capsys, flags, message):
    code = cli(["select", *_write_select_inputs(tmp_path), *flags])
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
    table = (out / "clt_pairs.csv").read_bytes()
    # 3 candidates give 3 pairs per dataset; every table ends its lines with \n alone
    assert table.startswith(b"dataset,r,s,ks_p,adjusted_p\n")
    assert b"\r" not in table and table.count(b"\n") == 1 + 2 * 3


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
    table = (out / "stability.csv").read_bytes()
    assert table.startswith(b"n,delta1,delta2\n")
    assert b"\r" not in table and table.count(b"\n") == 1 + 3


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


# --- strict JSON, closed pipes, flags a command does not take ------------------


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


def test_diagnose_stability_undefined_slopes_are_null(tmp_path, monkeypatch):
    # constant nuisances and uniform weights: no probe moves the other units'
    # scores, so the log-log slopes of the zero perturbations are undefined
    monkeypatch.setattr(
        selectors, "fit", lambda dataset, indices: NuisanceModel(*np.zeros((3, dataset.d + 1)))
    )
    config = _write_config(tmp_path, **{"lambda": 0.0})
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


def _command_argv(tmp_path, command, out, **config):
    """A small run of ``command`` (``clt`` and ``stability`` are diagnose
    kinds) writing to ``out``, on a test config changed by ``config``."""
    if command == "select":
        return ["select", *_write_select_inputs(tmp_path)]
    path = str(_write_config(tmp_path, **config))
    return {
        "simulate": ["simulate"],
        "sweep": ["sweep", "--axis", "candidate-count", "--values", "2,3"],
        "clt": ["diagnose", "clt", "--datasets", "2", "--bootstrap", "60"],
        "stability": ["diagnose", "stability", "--grid", "200,300,400", "--probes", "2"],
    }[command] + ["--config", path, "--out", str(out)]


_FOREIGN_FLAGS = [
    # unknown flags, and a bad value for a known one
    ("simulate", ["--bogus"]),
    ("simulate", ["--bogus", "5"]),
    ("simulate", ["--reps", "x"]),
    # the inner fold count is fixed at 5, not a setting
    *((command, ["--inner-folds", "5"]) for command in ("simulate", "sweep", "select", "clt", "stability")),
    # a study's settings live in its config file
    *(
        (command, [flag, value])
        for command in ("simulate", "sweep", "clt", "stability")
        for flag, value in (("--seed", "3"), ("--lambda", "5"), ("--alpha", "0.5"), ("--selectors", "ablation"))
    ),
    # each command takes only its own run sizes
    ("clt", ["--reps", "999"]),
    ("clt", ["--grid", "1,2"]),
    ("clt", ["--probes", "0"]),
    ("stability", ["--datasets", "0"]),
    ("stability", ["--bootstrap", "0"]),
    ("select", ["--reps", "3"]),
]


@pytest.mark.parametrize(
    "command, flags", _FOREIGN_FLAGS, ids=["-".join([command, *flags]) for command, flags in _FOREIGN_FLAGS]
)
def test_flags_a_command_does_not_take_exit_1_with_its_usage(tmp_path, capsys, command, flags):
    # reported before any work, with the usage line of the command given, not the top-level one
    out = tmp_path / "out"
    argv = _command_argv(tmp_path, command, out)
    usage = " ".join(argv[: 2 if argv[0] == "diagnose" else 1])
    assert cli([*argv, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cateselect {usage} "), err
    assert flags[0] in err
    assert not out.exists()


# --- settings that would fail every repetition exit 1 before any work ---------


@pytest.mark.parametrize(
    "command", ["simulate", "sweep", "clt", "select"], ids=["simulate", "sweep", "diagnose", "select"]
)
def test_negative_seed_exits_1_naming_the_seed(tmp_path, capsys, command):
    # a study's seed is a key of its config; select takes it as a flag
    out = tmp_path / "out"
    argv = _command_argv(tmp_path, command, out, seed=-1)
    if command == "select":
        argv += ["--seed", "-1"]
    assert cli(argv) == 1
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
        # n >= 20 is the one size rule, for configs, sweeps and diagnostics alike
        ({"n": 19, "selectors": ["proposed", "naive"]}, ["simulate"], "toy designs need n >= 20"),
        ({"n": 19, "selectors": ["proposed", "naive"]},
         ["diagnose", "clt", "--datasets", "2", "--bootstrap", "60"], "toy designs need n >= 20"),
        ({"n": 1000}, ["sweep", "--axis", "sample-fraction", "--values", "0.019,1.0"],
         "sample_fraction value 0.019: toy designs need n >= 20"),
        # each major fold needs 2 * (d + 2) units for the nuisance fit: n >= 40 at d = 8
        ({"n": 39}, ["simulate"], "n=39 is too small for d=8"),
        ({"n": 39}, ["diagnose", "clt", "--datasets", "2", "--bootstrap", "60"], "n=39 is too small"),
        ({"n": 1000}, ["sweep", "--axis", "sample-fraction", "--values", "0.039,1.0"],
         "sample_fraction value 0.039: n=39 is too small"),
        # a config value of the wrong JSON type
        ({"n": 400.0}, ["simulate"], "n must be an integer, got 400.0"),
        ({"repetitions": 2.5}, ["simulate"], "repetitions must be an integer, got 2.5"),
        ({"repetitions": True}, ["simulate"], "repetitions must be an integer, got True"),
        ({"inner_folds": 5}, ["simulate"], "unknown config keys: inner_folds"),
        ({"workers": 2.0}, ["simulate"], "workers must be an integer, got 2.0"),
        ({"seed": 1.5}, ["simulate"], "seed must be an integer, got 1.5"),
        # studies always fit their nuisances
        ({"oracle_nuisances": False}, ["simulate"], "unknown config keys: oracle_nuisances"),
        ({"dims": [2.7, 2, 2, 2]}, ["simulate"], "dims must be four integer block sizes"),
        ({"dims": [True, 2, 2, 2]}, ["simulate"], "dims must be four integer block sizes"),
        ({"lambda": True}, ["simulate"], "lam must be a number, got True"),
        # JSON's NaN and Infinity tokens: a temperature or noise that is not finite
        ({"lambda": float("nan")}, ["simulate"], "lam must be finite and nonnegative, got nan"),
        ({"noise_specs": [[0.0, 0.1], [float("nan"), 0.1]]}, ["simulate"], "noise spec (nan, 0.1)"),
        ({"noise_specs": [[0.0, 0.1], [0.3, float("inf")]]}, ["simulate"], "noise spec (0.3, inf)"),
        # finite, but too large to square: the winner could not be chosen
        ({"noise_specs": [[0.0, 0.1], [1e200, 0.1]]}, ["simulate"],
         "noise spec (1e+200, 0.1): mean^2 + sd^2 overflows"),
    ],
    ids=["n_10", "no_selectors", "empty_block", "tiny_fraction", "repeated_value", "n_19",
         "clt_n_19", "fraction_to_n_19", "n_39", "clt_n_39", "fraction_to_n_39", "float_n",
         "float_reps", "bool_reps", "inner_folds_key", "float_workers", "float_seed",
         "oracle_nuisances_key", "float_dims", "bool_dims", "bool_lambda", "nan_lambda",
         "nan_noise_mean", "inf_noise_sd", "overflowing_noise_mean"],
)
def test_designs_that_fail_every_repetition_exit_1(tmp_path, capsys, overrides, command, message):
    config = _write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    # the command, and for diagnose its kind, come before the options
    head = 2 if command[0] == "diagnose" else 1
    assert cli([*command[:head], "--config", str(config), "--out", str(out), *command[head:]]) == 1
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
        ("stability", ["--grid", "19,30,40"], "grid size 19: toy designs need n >= 20"),
        ("stability", ["--grid", "39,50,60"], "grid size 39: n=39 is too small for d=8"),
    ],
    ids=["datasets_-1", "datasets_0", "bootstrap_0", "probes_0", "probes_-1", "grid_from_10",
         "grid_from_19", "grid_from_39"],
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
