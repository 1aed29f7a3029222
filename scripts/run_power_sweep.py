#!/usr/bin/env python3
"""Candidate-count sweep: three competitive plus four inferior candidates.

Sweeps the candidate set from the three competitive estimators up to the
full seven and compares the selectors' wrong-selection counts. The default
scale (n=30000, temperature n^0.45) is where the near-tied comparisons
carry signal; at much smaller n all methods keep every near-winner and the
curves collapse.
"""

import argparse
from pathlib import Path

from cateselect import COMPETITIVE_PLUS_INFERIOR_SPECS
from cateselect.harness import ExperimentConfig, strict_json, sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=30_000)
    parser.add_argument("--reps", type=int, default=400)
    parser.add_argument("--alpha", type=float, default=0.10)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--values", default="3,4,5,6,7")
    parser.add_argument("--lambda-exponent", type=float, default=0.45,
                        help="temperature is n ** exponent (keep below 0.5)")
    parser.add_argument("--out", default="out/power_sweep")
    args = parser.parse_args()

    config = ExperimentConfig(
        n=args.n,
        noise_specs=COMPETITIVE_PLUS_INFERIOR_SPECS,
        selectors=("naive", "bonferroni", "proposed"),
        alpha=args.alpha,
        lam=float(args.n) ** args.lambda_exponent,
        repetitions=args.reps,
        seed=args.seed,
        workers=args.workers,
    )
    values = [int(v) for v in args.values.split(",")]
    points = sweep(config, "candidate_count", values)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"axis": "candidate_count", "values": values,
               "reports": [p.report.to_dict() for p in points]}
    (out / "sweep.json").write_text(strict_json(payload, indent=2, sort_keys=True) + "\n")
    for point in points:
        s = point.report.summaries
        gap = s["naive"].anws - s["proposed"].anws
        print(
            f"p={point.value}: naive ANWS={s['naive'].anws:.3f}  "
            f"bonferroni ANWS={s['bonferroni'].anws:.3f}  "
            f"proposed ANWS={s['proposed'].anws:.3f}  gap(naive-proposed)={gap:+.3f}"
        )
    print(f"wrote {out / 'sweep.json'}")


if __name__ == "__main__":
    main()
