"""Monte Carlo experiment driver: repeated simulations, sweeps, diagnostics.

Every repetition derives its own seeds from ``(experiment seed, repetition
index)``, generates one dataset plus candidate set, and hands the identical
data to every configured selector. Reports carry the familywise error rate
(winner excluded) and the average number of wrong selections (non-winners
retained), each with percentile bootstrap confidence intervals, plus flat
per-repetition records that make both metrics recomputable offline.
"""

from __future__ import annotations

import dataclasses
import datetime
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Collection, NamedTuple, Sequence

import numpy as np

from .datagen import (
    CandidateSet,
    Dataset,
    NoiseSpec,
    _check_toy_design,
    generate_toy,
    make_candidates,
)
from .nuisance import OracleNuisance
from .selectors import (
    TAILS,
    SelectorConfig,
    SelectionResult,
    bonferroni_select,
    exp_weighted_statistics,
    naive_select,
    prepare,
    proposed_select,
    single_layer_ablation_select,
    two_way_split,
    _check_split,
)

_STREAM_REP = 1
_STREAM_CLT = 2
_STREAM_CLT_BOOT = 3
_STREAM_STABILITY = 4
_STREAM_CI = 5

CI_RESAMPLES = 2000
CI_LEVEL = 0.95
KS_LEVEL = 0.05


class ConfigError(ValueError):
    """Raised for invalid experiment configuration (bad file, bad values)."""


def _finite_or_null(value: Any) -> Any:
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def strict_json(payload: Any, **kwargs: Any) -> str:
    """``json.dumps`` that writes every non-finite float as ``null``, so the
    text stays valid JSON (no ``NaN`` or ``Infinity`` tokens)."""
    return json.dumps(_finite_or_null(payload), allow_nan=False, **kwargs)


SelectorFunc = Callable[..., SelectionResult]

SELECTOR_FUNCS: dict[str, SelectorFunc] = {
    "naive": naive_select,
    "bonferroni": bonferroni_select,
    "proposed": proposed_select,
    "ablation": single_layer_ablation_select,
}


def register_selector(name: str, fn: SelectorFunc) -> None:
    """Add a selector to the registry (mainly for tests and extensions)."""
    SELECTOR_FUNCS[name] = fn


def check_selector_names(names: Sequence[str], known: Collection[str]) -> None:
    """Raise unless ``names`` is a nonempty list of distinct names in ``known``."""
    if isinstance(names, str) or not all(isinstance(s, str) for s in names):
        raise ValueError(f"selectors must be a list of names, got {names!r}")
    if not names:
        raise ValueError("selector list is empty")
    unknown = [s for s in names if s not in known]
    if unknown:
        raise ValueError(f"unknown selectors: {', '.join(unknown)}")
    repeated = [s for s in dict.fromkeys(names) if names.count(s) > 1]
    if repeated:
        raise ValueError(f"duplicate selectors: {', '.join(repeated)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation study: data generating process, selectors, accounting."""

    n: int = 2000
    dims: tuple[int, int, int, int] = (2, 2, 2, 2)
    noise_specs: tuple[NoiseSpec, ...] = ()
    selectors: tuple[str, ...] = ("naive", "bonferroni", "proposed")
    alpha: float = SelectorConfig.alpha
    lam: float | None = SelectorConfig.lam
    inner_folds: int = SelectorConfig.inner_folds
    repetitions: int = 100
    seed: int = 0
    oracle_nuisances: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        # a design generate_toy rejects would fail every repetition
        object.__setattr__(self, "dims", _check_toy_design(self.n, self.dims))
        object.__setattr__(
            self,
            "noise_specs",
            tuple(s if isinstance(s, NoiseSpec) else NoiseSpec(*s) for s in self.noise_specs),
        )
        check_selector_names(self.selectors, SELECTOR_FUNCS)
        object.__setattr__(self, "selectors", tuple(self.selectors))
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if len(self.noise_specs) < 2:
            raise ValueError("need at least two candidate noise specs")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        mses = [s.population_mse for s in self.noise_specs]
        best = min(mses)
        if sum(1 for v in mses if v == best) != 1:
            raise ValueError("candidate specs must identify a unique winner (smallest mean^2 + sd^2)")
        self.selector_config(self.seed)  # raises on invalid selector settings
        # the ablation splits all n units; every other built-in selector, n // 2
        groups = max((TAILS[name][0] for name in self.selectors if name in TAILS), default=1)
        _check_split(self.n, self.inner_folds, groups)

    @property
    def winner_index(self) -> int:
        mses = [s.population_mse for s in self.noise_specs]
        return int(np.argmin(mses))

    def selector_config(self, seed: int) -> SelectorConfig:
        return SelectorConfig(
            alpha=self.alpha,
            lam=self.lam,
            inner_folds=self.inner_folds,
            seed=seed,
        )


# JSON spells the weighting temperature "lambda", a Python keyword.
_CONFIG_JSON_KEYS = {
    "lambda" if f.name == "lam" else f.name for f in dataclasses.fields(ExperimentConfig)
}


def experiment_config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Build a config from its JSON form; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a JSON object")
    unknown = set(data) - _CONFIG_JSON_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs: dict[str, Any] = {k: v for k, v in data.items() if k != "lambda"}
    if "lambda" in data:
        kwargs["lam"] = data["lambda"]
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def experiment_config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    """The JSON form of ``config``, the inverse of ``experiment_config_from_dict``."""
    data: dict[str, Any] = {}
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(config, f.name)
        if f.name == "noise_specs":
            value = [[s.mean, s.sd] for s in value]
        elif isinstance(value, tuple):
            value = list(value)
        data["lambda" if f.name == "lam" else f.name] = value
    return data


def load_experiment_config(path: str) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return experiment_config_from_dict(data)


class RepRecord(NamedTuple):
    rep: int
    selector: str
    candidate: int
    statistic: float
    critical: float
    accepted: bool


@dataclass(frozen=True)
class SelectorSummary:
    fwer: float
    fwer_ci: tuple[float, float]
    anws: float
    anws_ci: tuple[float, float]
    reps: int


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    summaries: dict[str, SelectorSummary]
    records: list[RepRecord]
    failures: list[tuple[int, str]]
    metadata: dict[str, Any] = field(default_factory=dict)

    def rep_metrics(self, selector: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-repetition (winner_rejected, wrong_count) arrays for a selector."""
        return _rep_metrics(self.records, selector, self.config.winner_index)

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": experiment_config_to_dict(self.config),
            "selectors": {
                name: dataclasses.asdict(s) for name, s in sorted(self.summaries.items())
            },
            "failures": [[k, msg] for k, msg in self.failures],
            "metadata": dict(self.metadata),
        }

    def write(self, out_dir: str) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(
            strict_json(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        write_per_rep_csv(self.records, out / "per_rep.csv")


def write_per_rep_csv(records: list[RepRecord], path: str | Path) -> None:
    lines = ["rep,selector,candidate,statistic,critical,accepted"]
    for r in records:
        lines.append(
            f"{r.rep},{r.selector},{r.candidate},{r.statistic!r},{r.critical!r},{int(r.accepted)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _derived_seeds(*entropy: int) -> tuple[int, int, int]:
    state = np.random.SeedSequence(list(entropy)).generate_state(3, np.uint64)
    return int(state[0]), int(state[1]), int(state[2])


def _single_rep(
    config: ExperimentConfig, k: int, seeds: tuple[int, int, int]
) -> tuple[list[RepRecord], list[str]]:
    data_seed, cand_seed, sel_seed = seeds
    dataset, truth = generate_toy(config.n, config.dims, data_seed)
    candidates = make_candidates(truth, config.noise_specs, cand_seed)
    override = OracleNuisance.from_truth(truth) if config.oracle_nuisances else None
    records: list[RepRecord] = []
    failures: list[str] = []
    for name in config.selectors:
        fn = SELECTOR_FUNCS[name]
        try:
            result = fn(dataset, candidates, config.selector_config(sel_seed), nuisance_override=override)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        for stat in result.stats:
            records.append(
                RepRecord(k, name, stat.candidate, stat.statistic, stat.critical, stat.accepted)
            )
    return records, failures


def _rep_worker(
    job: tuple[ExperimentConfig, int, tuple[int, int, int]]
) -> tuple[int, list[RepRecord], list[str]]:
    config, k, seeds = job
    try:
        return (k, *_single_rep(config, k, seeds))
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        # numerical failures are recorded, not fatal; programming errors such
        # as TypeError propagate instead of shrinking the metric denominators
        return k, [], [f"{type(exc).__name__}: {exc}"]


def percentile_ci(values: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    """Percentile bootstrap CI (``CI_LEVEL``, ``CI_RESAMPLES`` draws) for the
    mean of ``values``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return (float("nan"), float("nan"))
    idx = rng.integers(0, arr.size, size=(CI_RESAMPLES, arr.size))
    means = arr[idx].mean(axis=1)
    tail = (1.0 - CI_LEVEL) / 2.0
    return float(np.quantile(means, tail)), float(np.quantile(means, 1.0 - tail))


def _rep_metrics(
    records: list[RepRecord], selector: str, winner: int
) -> tuple[np.ndarray, np.ndarray]:
    by_rep: dict[int, list[RepRecord]] = {}
    for r in records:
        if r.selector == selector:
            by_rep.setdefault(r.rep, []).append(r)
    reps = sorted(by_rep)
    rejected = np.zeros(len(reps))
    wrong = np.zeros(len(reps))
    for j, k in enumerate(reps):
        accepted = {r.candidate for r in by_rep[k] if r.accepted}
        rejected[j] = float(winner not in accepted)
        wrong[j] = float(len(accepted - {winner}))
    return rejected, wrong


def summarize_records(
    config: ExperimentConfig, records: list[RepRecord]
) -> dict[str, SelectorSummary]:
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_CI]))
    summaries = {}
    for name in config.selectors:
        rejected, wrong = _rep_metrics(records, name, config.winner_index)
        fwer_ci = percentile_ci(rejected, rng)
        anws_ci = percentile_ci(wrong, rng)
        summaries[name] = SelectorSummary(
            fwer=float(rejected.mean()) if rejected.size else float("nan"),
            fwer_ci=fwer_ci,
            anws=float(wrong.mean()) if wrong.size else float("nan"),
            anws_ci=anws_ci,
            reps=int(rejected.size),
        )
    return summaries


def _run(configs: list[ExperimentConfig], workers: int) -> list[ExperimentReport]:
    """Run every repetition of every config, on one pool of ``workers``
    processes when there is more than one; one report per config, in order."""
    # Deriving the seeds here loads numpy.random, which numpy imports lazily,
    # before the fork: every worker inherits it instead of importing it.
    jobs = [
        (config, k, _derived_seeds(config.seed, _STREAM_REP, k))
        for config in configs
        for k in range(config.repetitions)
    ]
    if workers > 1:
        # imported here: multiprocessing is slow to load, and one worker never needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_rep_worker, jobs))
    else:
        outcomes = [_rep_worker(job) for job in jobs]
    pending = iter(outcomes)
    reports = []
    for config in configs:
        records: list[RepRecord] = []
        failures: list[tuple[int, str]] = []
        for k, recs, errs in itertools.islice(pending, config.repetitions):
            records.extend(recs)
            failures.extend((k, err) for err in errs)
        report = ExperimentReport(
            config=config,
            summaries=summarize_records(config, records),
            records=records,
            failures=failures,
        )
        report.metadata["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        reports.append(report)
    return reports


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all repetitions; each failure is recorded as ``(rep, message)``.

    A selector that fails numerically loses only its own records of that
    repetition (the message starts with its name); a failed data draw loses
    the repetition for every selector."""
    return _run([config], config.workers)[0]


class SweepPoint(NamedTuple):
    value: float
    report: ExperimentReport


def _specs_sorted_by_quality(specs: tuple[NoiseSpec, ...]) -> list[NoiseSpec]:
    order = np.argsort([s.population_mse for s in specs], kind="stable")
    return [specs[int(i)] for i in order]


def sweep(
    config: ExperimentConfig,
    axis: str,
    values: list[float] | list[int],
) -> list[SweepPoint]:
    """Run one experiment per value along ``candidate_count`` or
    ``sample_fraction``; the values must be strictly increasing, and every
    one is validated before the first experiment runs.

    The candidate-count sweep keeps, at each value p, the p best specs by
    population MSE, so the winner is always present and growing p adds
    progressively worse candidates.
    """
    if axis not in ("candidate_count", "sample_fraction"):
        raise ConfigError(f"unknown sweep axis: {axis}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("sweep values must be strictly increasing")
    subs = []
    ranked = _specs_sorted_by_quality(config.noise_specs)
    for value in values:
        if axis == "candidate_count":
            p = int(value)
            if not 2 <= p <= len(ranked):
                raise ConfigError(f"candidate_count value {p} out of range [2, {len(ranked)}]")
            subs.append(dataclasses.replace(config, noise_specs=tuple(ranked[:p])))
        else:
            frac = float(value)
            if not 0.0 < frac <= 1.0:
                raise ConfigError(f"sample_fraction value {frac} must lie in (0, 1]")
            try:
                subs.append(dataclasses.replace(config, n=int(round(config.n * frac))))
            except ValueError as exc:
                raise ConfigError(f"sample_fraction value {frac}: {exc}") from exc
    return [SweepPoint(value, report) for value, report in zip(values, _run(subs, config.workers))]


def bootstrap_standardized_means(
    values: np.ndarray, draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Studentized bootstrap statistics of the mean of ``values``.

    Each draw resamples with replacement, recenters at the original mean,
    and studentizes by the resample's own standard error.
    """
    arr = np.asarray(values, dtype=float)
    n = arr.size
    idx = rng.integers(0, n, size=(draws, n))
    samples = arr[idx]
    means = samples.mean(axis=1)
    sds = samples.std(axis=1, ddof=1)
    return (means - arr.mean()) / (sds / np.sqrt(n))


def ks_pair_pvalues(
    tensor, bootstrap_draws: int, rng: np.random.Generator
) -> tuple[list[tuple[int, int, float]], list[tuple[int, int]]]:
    """KS p-values of bootstrapped standardized means, one per candidate pair.

    Pairs with (numerically) constant scores cannot be standardized and are
    returned in the skip list instead.
    """
    from scipy.stats import kstest  # deferred: slow to import, and only diagnostics need it

    tested: list[tuple[int, int, float]] = []
    skipped: list[tuple[int, int]] = []
    for r in range(tensor.p):
        for s in range(r + 1, tensor.p):
            scores = tensor.losses[r] - tensor.losses[s]
            if np.var(scores) < 1e-30:
                skipped.append((r, s))
                continue
            stats = bootstrap_standardized_means(scores, bootstrap_draws, rng)
            tested.append((r, s, float(kstest(stats, "norm").pvalue)))
    return tested, skipped


@dataclass
class CltReport:
    """KS-based check that standardized pair statistics look Gaussian."""

    datasets: int
    bootstrap_draws: int
    ks_level: float
    rejection_share: float
    per_dataset: list[dict[str, Any]]
    skipped: list[tuple[int, int, int]]

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def clt_diagnostic(
    config: ExperimentConfig,
    datasets: int = 100,
    bootstrap_draws: int = 500,
) -> CltReport:
    """Bootstrap each candidate pair's standardized mean and KS-test it.

    Per simulated dataset: resample the per-unit pairwise scores, recenter
    and studentize, test the draws against N(0, 1), Bonferroni-adjust the
    p-values across pairs, and flag the dataset when any adjusted p-value
    falls below ``KS_LEVEL``. Pairs with constant scores are skipped and
    noted.
    """
    if datasets < 1:
        raise ConfigError(f"datasets must be at least 1, got {datasets}")
    if bootstrap_draws < 1:
        raise ConfigError(f"bootstrap draws must be at least 1, got {bootstrap_draws}")
    try:
        # the diagnostic scores on the two-way split, even for an ablation-only config
        _check_split(config.n, config.inner_folds, 2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    per_dataset = []
    skipped: list[tuple[int, int, int]] = []
    flags = np.zeros(datasets, dtype=bool)
    for d in range(datasets):
        data_seed, cand_seed, sel_seed = _derived_seeds(config.seed, _STREAM_CLT, d)
        dataset, truth = generate_toy(config.n, config.dims, data_seed)
        candidates = make_candidates(truth, config.noise_specs, cand_seed)
        override = OracleNuisance.from_truth(truth) if config.oracle_nuisances else None
        plan = two_way_split(config.n, config.inner_folds, sel_seed)
        tensor = prepare(dataset, candidates, plan, override).tensor
        boot_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, _STREAM_CLT_BOOT, d])
        )
        raw, skipped_pairs = ks_pair_pvalues(tensor, bootstrap_draws, boot_rng)
        skipped.extend((d, r, s) for r, s in skipped_pairs)
        tested = len(raw)
        pairs = [
            {"r": r, "s": s, "ks_p": p, "adjusted_p": min(1.0, p * tested)} for r, s, p in raw
        ]
        min_adjusted = min((pair["adjusted_p"] for pair in pairs), default=float("nan"))
        flags[d] = bool(pairs) and min_adjusted < KS_LEVEL
        per_dataset.append(
            {
                "dataset": d,
                "tested_pairs": tested,
                "min_adjusted_p": min_adjusted,
                "rejected": bool(flags[d]),
                "pairs": pairs,
            }
        )
    return CltReport(
        datasets=datasets,
        bootstrap_draws=bootstrap_draws,
        ks_level=KS_LEVEL,
        rejection_share=float(flags.mean()),
        per_dataset=per_dataset,
        skipped=skipped,
    )


@dataclass
class StabilityReport:
    """Replace-one and replace-two perturbation sizes of the weighted scores.

    ``delta1``/``delta2`` hold, per grid point, the square root of the
    largest probed mean squared first/second order perturbation; the slopes
    are fitted to the squared quantities on a log-log scale.
    """

    n_grid: tuple[int, ...]
    delta1: tuple[float, ...]
    delta2: tuple[float, ...]
    slope_delta1_sq: float
    slope_delta2_sq: float
    probes_per_point: int

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


def stability_diagnostic(
    n_grid: list[int],
    config: ExperimentConfig,
    probes: int = 50,
) -> StabilityReport:
    """Measure how much one (or two) replaced units move the weighted scores.

    For each probe a unit is swapped for a fresh draw from the same design
    and the full pipeline (nuisance fits, scores, weights) is recomputed;
    the per-unit weighted scores of all other units are compared before and
    after. Second-order probes replace two units separately and jointly and
    take the mixed difference.
    """
    if len(n_grid) < 3:
        raise ConfigError("stability grid needs at least three sizes")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("stability grid must be strictly increasing")
    try:
        _check_toy_design(n_grid[0], config.dims)  # the smallest size
        _check_split(n_grid[0], config.inner_folds, 2)
    except ValueError as exc:
        raise ConfigError(f"stability grid size {n_grid[0]}: {exc}") from exc
    if probes < 1:
        raise ConfigError(f"probes must be at least 1, got {probes}")
    first_sq = []
    second_sq = []
    for n in n_grid:
        data_seed, cand_seed, sel_seed = _derived_seeds(config.seed, _STREAM_STABILITY, n)
        pool = 3 * probes
        dataset_full, truth_full = generate_toy(n + pool, config.dims, data_seed)
        preds_full = make_candidates(truth_full, config.noise_specs, cand_seed).predictions
        lam = config.selector_config(sel_seed).resolve_lam(n)

        # the split depends only on n, inner_folds and the seed: every refit shares it
        plan = two_way_split(n, config.inner_folds, sel_seed)

        def q_with(replacements: dict[int, int]) -> np.ndarray:
            rows = np.arange(n)
            for j, src in replacements.items():
                rows[j] = src
            dataset = Dataset(
                x=dataset_full.x[rows], t=dataset_full.t[rows], y=dataset_full.y[rows]
            )
            override = None
            if config.oracle_nuisances:
                override = OracleNuisance(
                    mu0=truth_full.mu0[rows], mu1=truth_full.mu1[rows], e=truth_full.e[rows]
                )
            candidates = CandidateSet(preds_full[:, rows])
            tensor = prepare(dataset, candidates, plan, override).tensor
            return exp_weighted_statistics(tensor, plan, lam).q_matrix

        q_base = q_with({})
        probe_rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, _STREAM_STABILITY, n, 1])
        )

        estimates1 = []
        for k in range(probes):
            j = int(probe_rng.integers(n))
            diff = q_with({j: n + k}) - q_base
            same_major = (plan.major == plan.major[j]) & (plan.inner != plan.inner[j])
            cross = plan.major != plan.major[j]
            cases = [diff[same_major], diff[cross]]
            estimates1.append(max(float(np.mean(c**2)) for c in cases if c.size))
        first_sq.append(max(estimates1))

        estimates2 = []
        for k in range(probes):
            j, l = (int(v) for v in probe_rng.choice(n, size=2, replace=False))
            src_j = n + probes + 2 * k
            src_l = src_j + 1
            mixed = (
                q_base
                - q_with({j: src_j})
                - q_with({l: src_l})
                + q_with({j: src_j, l: src_l})
            )
            keep = np.ones(n, dtype=bool)
            keep[[j, l]] = False
            estimates2.append(float(np.mean(mixed[keep] ** 2)))
        second_sq.append(max(estimates2))

    def _slope(values: list[float]) -> float:
        arr = np.asarray(values)
        if np.any(arr <= 0):
            return float("nan")
        return float(np.polyfit(np.log(np.asarray(n_grid, dtype=float)), np.log(arr), 1)[0])

    return StabilityReport(
        n_grid=tuple(int(v) for v in n_grid),
        delta1=tuple(float(np.sqrt(v)) for v in first_sq),
        delta2=tuple(float(np.sqrt(v)) for v in second_sq),
        slope_delta1_sq=_slope(first_sq),
        slope_delta2_sq=_slope(second_sq),
        probes_per_point=probes,
    )
