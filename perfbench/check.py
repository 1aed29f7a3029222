"""Output checks: decisions against their own statistics, and studies against
reference outputs stored from a commit whose outputs are known to be right.

Statistics must agree to ``REL_TOL`` relative (``ABS_TOL`` absolute near
zero). A decision must be identical unless its statistic lies within
``NEAR_TIE`` of its critical value; when such a near-tie flips a decision,
the summary values derived from decisions are not compared.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

REFERENCE_SEEDS = range(10)  # workload seeds whose study 0 is stored
REL_TOL = 1e-9
ABS_TOL = 1e-12
NEAR_TIE = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _close(expected: float, actual: float) -> bool:
    if math.isnan(expected) or math.isnan(actual):
        return math.isnan(expected) and math.isnan(actual)
    return math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def decision_problems(decisions: list[list]) -> list[str]:
    """A decision is True exactly when its statistic lies below its critical
    value; ties within ``NEAR_TIE`` may go either way."""
    problems = []
    for label, statistic, critical, decision in decisions:
        if not (math.isfinite(statistic) and math.isfinite(critical)):
            problems.append(f"{label}: non-finite statistic {statistic!r} or critical {critical!r}")
        elif abs(statistic - critical) >= NEAR_TIE and decision != (statistic < critical):
            problems.append(f"{label}: decision {decision} contradicts {statistic!r} vs {critical!r}")
    return problems


def _value_problems(expected: Any, actual: Any, path: str) -> list[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for key in expected for p in _value_problems(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual)) for p in _value_problems(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) and _close(expected, actual):
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def compare(expected: dict[str, Any], actual: dict[str, Any]) -> list[str]:
    """Mismatches between a stored reference output and a study's output."""
    exp_decisions, act_decisions = expected["decisions"], actual["decisions"]
    if len(exp_decisions) != len(act_decisions):
        return [f"{len(act_decisions)} decisions, reference has {len(exp_decisions)}"]
    problems = []
    flipped = 0
    for (label, e_stat, e_crit, e_dec), (a_label, a_stat, a_crit, a_dec) in zip(exp_decisions, act_decisions):
        if label != a_label:
            problems.append(f"decision {a_label} where the reference has {label}")
            continue
        if not _close(e_stat, a_stat):
            problems.append(f"{label}: statistic {a_stat!r} != {e_stat!r}")
        if not _close(e_crit, a_crit):
            problems.append(f"{label}: critical {a_crit!r} != {e_crit!r}")
        if e_dec != a_dec:
            if abs(a_stat - a_crit) < NEAR_TIE:
                flipped += 1
            else:
                problems.append(f"{label}: decision {a_dec} != {e_dec}")
    if not flipped:
        problems += _value_problems(expected["values"], actual["values"], "values")
    return problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict[str, dict[str, Any]]:
    """Stored study-0 outputs of ``workload``, keyed by workload seed."""
    path = reference_path(workload)
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["seeds"]
