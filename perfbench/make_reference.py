"""Store the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

For every workload and every seed in ``REFERENCE_SEEDS`` it runs study 0 in
one process and writes its decisions and summary values to
``perfbench/reference/<workload>.json``, one seed per line. Nothing is
written unless every study passes its own checks. Run it only on a commit
whose outputs are known to be right: the files define what the benchmark
accepts as correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from check import REFERENCE_DIR, REFERENCE_SEEDS, decision_problems, reference_path  # noqa: E402
from workloads import WORKLOADS, run_study  # noqa: E402

WORK = HERE / "_work"


def main() -> int:
    WORK.mkdir(exist_ok=True)
    bodies = {}
    for name, workload in WORKLOADS.items():
        lines = []
        for seed in REFERENCE_SEEDS:
            inputs = workload.prepare(WORK, seed)
            outcome = run_study(workload, inputs, seed, 0, 1)
            problems = outcome.problems + decision_problems(outcome.decisions)
            if outcome.failed or problems:
                print(f"{name} seed {seed}: refusing to store a failing study: {problems[:3]}", file=sys.stderr)
                return 1
            lines.append(f"{json.dumps(str(seed))}: {json.dumps(outcome.output())}")
            print(f"{name} seed {seed}: {len(outcome.decisions)} decisions", flush=True)
        bodies[name] = ",\n".join(lines)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, body in bodies.items():
        reference_path(name).write_text(
            f'{{"workload": "{name}", "study": 0, "seeds": {{\n{body}\n}}}}\n', encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
