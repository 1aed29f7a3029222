#!/usr/bin/env python3
"""Inference diagnostics: bootstrap normality scan and perturbation stability.

The normality scan bootstraps each candidate pair's standardized mean score
and KS-tests it against the standard normal, Bonferroni-adjusted across
pairs; roughly the nominal share of datasets should flag. The stability
scan replaces one or two units with fresh draws, reruns the full pipeline,
and reports how fast the induced changes in the weighted per-unit scores
shrink with n.
"""

import argparse
from pathlib import Path

from cateselect import NEAR_TIED_SPECS
from cateselect.harness import ExperimentConfig, clt_diagnostic, stability_diagnostic, strict_json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--datasets", type=int, default=100)
    parser.add_argument("--bootstrap", type=int, default=500)
    parser.add_argument("--grid", default="500,1000,2000,4000")
    parser.add_argument("--probes", type=int, default=50)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--out", default="out/diagnostics")
    args = parser.parse_args()

    config = ExperimentConfig(
        n=args.n,
        noise_specs=NEAR_TIED_SPECS,
        selectors=("proposed",),
        repetitions=1,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    clt = clt_diagnostic(config, datasets=args.datasets, bootstrap_draws=args.bootstrap)
    (out / "clt.json").write_text(strict_json(clt.to_dict(), indent=2, sort_keys=True) + "\n")
    print(
        f"normality scan: {clt.rejection_share:.3f} of {clt.datasets} datasets flagged "
        f"at level {clt.ks_level} ({len(clt.skipped)} constant pairs skipped)"
    )

    grid = [int(v) for v in args.grid.split(",")]
    stab = stability_diagnostic(grid, config, probes=args.probes)
    (out / "stability.json").write_text(strict_json(stab.to_dict(), indent=2, sort_keys=True) + "\n")
    print(
        f"stability: slope(delta1^2)={stab.slope_delta1_sq:.2f}, "
        f"slope(delta2^2)={stab.slope_delta2_sq:.2f} over n grid {grid}"
    )
    print(f"wrote {out / 'clt.json'} and stability.json")


if __name__ == "__main__":
    main()
