"""Tests of the benchmark itself: work counts, tracing and the output check.

    python3 -m pytest perfbench -q

The work counts are those of the program at the commit that added the
benchmark; a change that alters them on purpose updates them here. Wall-clock
numbers are reported by run.py and never asserted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from cateselect import harness, selectors  # noqa: E402
from cateselect.harness import run_experiment, sweep  # noqa: E402
from check import REFERENCE_SEEDS, compare, decision_problems, load_reference  # noqa: E402
from tracing import Span, Tracer, layer_totals, patched  # noqa: E402


def _traced(study) -> Tracer:
    tracer = Tracer()
    with patched(tracer):
        study()
    assert tracer.missing == []
    return tracer


def _calls(tracer: Tracer, name: str) -> int:
    return sum(1 for span in tracer.spans if span.name == name)


def test_power_sweep_work_counts_at_seven_candidates():
    config = workloads.sweep_config(seed=0, workers=1, repetitions=2)
    tracer = _traced(lambda: sweep(config, "candidate_count", [7]))
    reps = _calls(tracer, "harness.rep")
    builds = _calls(tracer, "scores.build_score_tensor")
    assert reps == 2
    assert _calls(tracer, "nuisance.fit") == 4 * reps
    assert builds == 2 * reps
    assert tracer.counters["tensor_bytes"] == 11_760_000 * builds


def test_monte_carlo_work_counts():
    tracer = _traced(lambda: run_experiment(workloads.mc_config(seed=0, workers=1, repetitions=1)))
    assert _calls(tracer, "harness.rep") == 1
    assert _calls(tracer, "nuisance.fit") == 7
    assert _calls(tracer, "scores.build_score_tensor") == 4
    for name in ("proposed", "naive", "bonferroni", "ablation"):
        assert _calls(tracer, f"selectors.{name}") == 1


def test_patched_restores_the_package():
    fit, single_rep = selectors.fit, harness._single_rep
    proposed = harness.SELECTOR_FUNCS["proposed"]
    with patched(Tracer()):
        assert selectors.fit is not fit
        assert harness.SELECTOR_FUNCS["proposed"] is not proposed
    assert selectors.fit is fit and harness._single_rep is single_rep
    assert harness.SELECTOR_FUNCS["proposed"] is proposed


def test_self_time_subtracts_direct_children():
    spans = [
        Span("outer", 0.0, 10.0, None, None),
        Span("inner", 1.0, 4.0, 0, None),
        Span("leaf", 2.0, 3.0, 1, None),
        Span("inner", 5.0, 7.0, 0, None),
    ]
    totals = layer_totals(spans)
    assert totals["outer"].self_s == 5.0
    assert totals["inner"].calls == 2 and totals["inner"].total_s == 5.0 and totals["inner"].self_s == 4.0
    assert totals["leaf"].self_s == 1.0


def test_compare_tolerates_rounding_and_near_ties_only():
    reference = {"decisions": [["a", 1.0, 2.0, True], ["b", 3.0, 3.0 + 5e-10, True]], "values": {"fwer": 0.5}}
    same = {"decisions": [["a", 1.0 + 1e-12, 2.0, True], ["b", 3.0, 3.0 + 5e-10, False]], "values": {"fwer": 0.0}}
    assert compare(reference, same) == []  # the flipped near-tie excuses the summary
    wrong = {"decisions": [["a", 1.0, 2.0, False], ["b", 3.0, 3.0 + 5e-10, True]], "values": {"fwer": 0.5}}
    assert len(compare(reference, wrong)) == 1
    drift = {"decisions": [["a", 1.0 + 1e-6, 2.0, True], ["b", 3.0, 3.0 + 5e-10, True]], "values": {"fwer": 0.5}}
    assert len(compare(reference, drift)) == 1
    assert decision_problems(wrong["decisions"]) != []
    assert decision_problems(reference["decisions"]) == []


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_references_cover_the_reference_seeds():
    assert run.CANARY_SEED in REFERENCE_SEEDS
    for name in workloads.WORKLOADS:
        assert sorted(load_reference(name), key=int) == [str(seed) for seed in REFERENCE_SEEDS]
