#!/usr/bin/env python3
"""Sample-size sweep: how wrong-selection counts respond to more test data."""

import argparse
from pathlib import Path

from cateselect import COMPETITIVE_PLUS_INFERIOR_SPECS
from cateselect.harness import ExperimentConfig, strict_json, sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=30_000, help="size at fraction 1.0")
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--alpha", type=float, default=0.10)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--fractions", default="0.6,0.7,0.8,0.9,1.0")
    parser.add_argument("--out", default="out/sample_size_sweep")
    args = parser.parse_args()

    config = ExperimentConfig(
        n=args.n,
        noise_specs=COMPETITIVE_PLUS_INFERIOR_SPECS,
        selectors=("naive", "bonferroni", "proposed"),
        alpha=args.alpha,
        lam=float(args.n) ** 0.45,
        repetitions=args.reps,
        seed=args.seed,
        workers=args.workers,
    )
    fractions = [float(v) for v in args.fractions.split(",")]
    points = sweep(config, "sample_fraction", fractions)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"axis": "sample_fraction", "values": fractions,
               "reports": [p.report.to_dict() for p in points]}
    (out / "sweep.json").write_text(strict_json(payload, indent=2, sort_keys=True) + "\n")
    for point in points:
        s = point.report.summaries
        line = "  ".join(f"{name} ANWS={s[name].anws:.3f}" for name in sorted(s))
        print(f"fraction={point.value}: {line}")
    print(f"wrote {out / 'sweep.json'}")


if __name__ == "__main__":
    main()
