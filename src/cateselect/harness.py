"""Monte Carlo experiment driver: repeated simulations, sweeps, diagnostics.

Every repetition derives its own seeds from ``(experiment seed, repetition
index)``, generates one dataset plus candidate set, and prepares from that
identical data each configured selector's problem: the split of its layout
(``selectors.TAILS``), its nuisance cross-fit and its loss matrix. The harness
then runs the selector's test (``SELECTOR_FUNCS``) on that problem. The
points of a candidate-count sweep share all of it: each repetition is drawn
once, at the largest count, and split and prepared once per layout and
selector there. Row r of the loss matrix depends only on candidate r and the
nuisances, so the point with p candidates tests the first p rows, bitwise
the matrix it would build alone, through a read-only view rather than a
copy. Its tests read the summaries of the largest point's problem, each
computed once per repetition: the naive moments are leading blocks of the
largest point's, and the proposed test copies the first p rows of its losses
sorted by cell. Once every problem is prepared, the repetition lets go of the
dataset and the candidate draw: the points' tests hold the loss matrices only.
Reports carry the familywise error rate (winner excluded) and the average
number of wrong selections (non-winners retained), each with percentile
bootstrap confidence intervals, plus flat per-repetition records that make
both metrics recomputable offline.
"""

from __future__ import annotations

import dataclasses
import datetime
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .datagen import (
    CandidateSet,
    Dataset,
    NoiseSpec,
    _check_toy_design,
    generate_toy,
    make_candidates,
    write_csv,
)
from .nuisance import min_arm_units
from .selectors import (
    TAILS,
    Prepared,
    SelectorConfig,
    SelectionResult,
    SplitPlan,
    check_selector_names,
    cross_fit,
    exp_weighted_statistics,
    prepare,
    _draw_plan,
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


def write_json(path: str | Path, payload: Any) -> None:
    """Write ``payload`` to ``path`` as strict JSON (indent 2, sorted keys,
    UTF-8, trailing newline), creating the directory if it is missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(strict_json(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


SelectorFunc = Callable[[Prepared, SelectorConfig], SelectionResult]

# the test the harness runs for each selector of ``selectors.TAILS``, on that
# selector's problem at one point; ``register_selector`` replaces one
SELECTOR_FUNCS: dict[str, SelectorFunc] = {name: test for name, (_, test) in TAILS.items()}


def register_selector(name: str, fn: SelectorFunc) -> None:
    """Replace the test the harness runs for ``name``, a selector of
    ``selectors.TAILS`` (how a tracer wraps one). The harness calls
    ``fn(prepared, config)`` with the selector's problem on a point's
    candidates and a ``SelectorConfig``, and records the returned
    ``SelectionResult``. Any other name raises ``ValueError``."""
    check_selector_names([name])
    SELECTOR_FUNCS[name] = fn


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation study: data generating process, selectors, accounting."""

    n: int = 2000
    dims: tuple[int, int, int, int] = (2, 2, 2, 2)
    noise_specs: tuple[NoiseSpec, ...] = ()
    selectors: tuple[str, ...] = ("naive", "bonferroni", "proposed")
    alpha: float = SelectorConfig.alpha
    lam: float | None = SelectorConfig.lam
    repetitions: int = 100
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        # a float or bool where an integer belongs fails, or is truncated, at run time
        for name in ("n", "repetitions", "workers", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # a design generate_toy rejects would fail every repetition
        object.__setattr__(self, "dims", _check_toy_design(self.n, self.dims))
        object.__setattr__(
            self,
            "noise_specs",
            tuple(s if isinstance(s, NoiseSpec) else NoiseSpec(*s) for s in self.noise_specs),
        )
        check_selector_names(self.selectors)
        object.__setattr__(self, "selectors", tuple(self.selectors))
        # so would a major fold in which no draw gives both treatment arms the
        # nuisance fit's minimum; as d >= 4, this also leaves every inner fold
        # of the split two units
        need = 2 * min_arm_units(sum(self.dims))
        if self.n // self.layout < need:
            raise ValueError(
                f"n={self.n} is too small for d={sum(self.dims)}: each major fold needs "
                f"{need} units for both treatment arms to reach the nuisance fit's minimum"
            )
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

    @property
    def layout(self) -> int:
        """Major-fold count of the split the study and its diagnostics use: 2
        when any selector uses the two-way split, 1 for an ablation-only study."""
        return max(TAILS[name][0] for name in self.selectors)

    @property
    def winner_index(self) -> int:
        mses = [s.population_mse for s in self.noise_specs]
        return int(np.argmin(mses))

    def selector_config(self, seed: int) -> SelectorConfig:
        return SelectorConfig(alpha=self.alpha, lam=self.lam, seed=seed)


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
        write_json(Path(out_dir) / "report.json", self.to_dict())
        write_per_rep_csv(self.records, Path(out_dir) / "per_rep.csv")


def write_per_rep_csv(records: list[RepRecord], path: str | Path) -> None:
    write_csv(path, RepRecord._fields, ((*r[:-1], int(r.accepted)) for r in records))


def _derived_seeds(*entropy: int) -> tuple[int, int, int]:
    state = np.random.SeedSequence(list(entropy)).generate_state(3, np.uint64)
    return int(state[0]), int(state[1]), int(state[2])


def _single_rep(
    config: ExperimentConfig,
    k: int,
    sel_seed: int,
    problems: dict[str, Callable[[int], Prepared]],
) -> tuple[list[RepRecord], list[str]]:
    """Every selector of one point: its test on its problem at the point's
    candidate count, from the function it takes out of ``problems``."""
    records: list[RepRecord] = []
    failures: list[str] = []
    selector_config = config.selector_config(sel_seed)
    p = len(config.noise_specs)
    for name in config.selectors:
        problem = problems.pop(name)
        try:
            result = SELECTOR_FUNCS[name](problem(p), selector_config)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        for stat in result.stats:
            records.append(
                RepRecord(k, name, stat.candidate, stat.statistic, stat.critical, stat.accepted)
            )
    return records, failures


def _shared_problem(
    dataset: Dataset, drawn: CandidateSet, plan: SplitPlan
) -> Callable[[int], Prepared]:
    """One selector's problem on the plan, as a function of a point's
    candidate count p: prepared once on ``drawn``, of which each point tests
    the first p rows, a view that reads the shared problem's summaries
    (``Prepared.restrict``). The function holds that problem only, not the
    dataset or the candidates. If that loss matrix cannot be built, the point
    that holds all of ``drawn`` gets that failure, and each smaller point
    builds its own from the same fits and the first p rows of ``drawn``: a
    loss that overflows in a row beyond a smaller point's p must fail only
    the points that hold that row."""
    nuisances = cross_fit(dataset, plan)
    try:
        shared = prepare(dataset, drawn, plan, nuisances)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        failed = partial(_reraise, exc)

        def rebuild(p: int) -> Prepared:
            return prepare(dataset, CandidateSet(drawn.predictions[:p]), plan, nuisances)

        return lambda p: (failed if p == drawn.p else rebuild)(p)
    return shared.restrict


def _reraise(exc: Exception, p: int) -> Prepared:
    """The problem of a selector that could not be prepared: that failure."""
    raise exc


def _rep_worker(
    job: tuple[list[ExperimentConfig], int, tuple[int, int, int]]
) -> tuple[int, list[tuple[list[RepRecord], list[str]]]]:
    """Repetition ``k`` of every config in one group (see ``_run``): one
    dataset and one candidate draw at the largest candidate count, whose first
    p rows are bitwise the candidates of the point with p specs; one split per
    layout; and one nuisance cross-fit and loss matrix per selector,
    built at the largest count, of which each point tests the first p rows
    (``_shared_problem``). The dataset and the draw are released once every
    problem is prepared, so the points' tests hold only the loss matrices. A
    split or fit that fails numerically is kept, and recorded against its
    selector at every point."""
    group, k, (data_seed, cand_seed, sel_seed) = job
    largest = group[-1]
    try:
        dataset, truth = generate_toy(largest.n, largest.dims, data_seed)
        drawn = make_candidates(truth, largest.noise_specs, cand_seed)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        # numerical failures are recorded, not fatal; programming errors such
        # as TypeError propagate instead of shrinking the metric denominators
        return k, [([], [f"{type(exc).__name__}: {exc}"]) for _ in group]
    del truth  # read only by the candidate draw; freed before the loss matrices are built
    selector_config = largest.selector_config(sel_seed)
    plans: dict[int, SplitPlan] = {}
    problems: dict[str, Callable[[int], Prepared]] = {}
    for name in largest.selectors:
        layout = TAILS[name][0]
        try:
            if layout not in plans:
                plans[layout] = _draw_plan(layout, largest.n, selector_config)
            problems[name] = _shared_problem(dataset, drawn, plans[layout])
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            problems[name] = partial(_reraise, exc)
    del dataset, drawn  # the problems hold what the tests read
    outcomes = []
    for config in group:
        # the largest point takes the problems themselves, each freed once tested
        own = problems if config is largest else dict(problems)
        outcomes.append(_single_rep(config, k, sel_seed, own))
    return k, outcomes


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


def _run(groups: list[list[ExperimentConfig]], workers: int) -> list[ExperimentReport]:
    """Run every repetition of every config, on one pool of up to ``workers``
    processes; one report per config, in order. The configs of a group differ
    only in ``noise_specs``, each one's specs starting with the previous
    one's, so they draw the same data: repetition k of a group is one job,
    drawing its data once for all of them."""
    # Deriving the seeds here loads numpy.random, which numpy imports lazily,
    # before the fork: every worker inherits it instead of importing it.
    jobs = [
        (group, k, _derived_seeds(group[0].seed, _STREAM_REP, k))
        for group in groups
        for k in range(group[0].repetitions)
    ]
    processes = min(workers, len(jobs))
    if processes > 1:
        # imported here: multiprocessing is slow to load, and one worker never needs it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            outcomes = list(pool.map(_rep_worker, jobs))
    else:
        outcomes = [_rep_worker(job) for job in jobs]
    pending = iter(outcomes)
    reports = []
    for group in groups:
        per_rep = list(itertools.islice(pending, group[0].repetitions))
        for i, config in enumerate(group):
            records: list[RepRecord] = []
            failures: list[tuple[int, str]] = []
            for k, points in per_rep:
                recs, errs = points[i]
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
    return _run([[config]], config.workers)[0]


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
            # a float would be truncated, and a bool read as 0 or 1, under its own label
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigError(f"candidate_count value {value!r} must be an integer")
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
    # the candidate-count points are one group: each repetition is drawn once
    groups = [subs] if axis == "candidate_count" else [[sub] for sub in subs]
    return [SweepPoint(*point) for point in zip(values, _run(groups, config.workers))]


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


def _kstest() -> Callable:
    """scipy's ``kstest``, imported on first call: scipy is slow to import,
    and only ``diagnose clt`` needs it. Without scipy (the ``diagnose`` extra)
    this raises ``ConfigError``."""
    try:
        from scipy.stats import kstest
    except ImportError as exc:
        raise ConfigError("diagnose clt needs scipy: pip install cateselect[diagnose]") from exc
    return kstest


def ks_pair_pvalues(
    tensor, bootstrap_draws: int, rng: np.random.Generator
) -> tuple[list[tuple[int, int, float]], list[tuple[int, int]]]:
    """KS p-values of bootstrapped standardized means, one per candidate pair.

    Pairs with (numerically) constant scores cannot be standardized and are
    returned in the skip list instead.
    """
    kstest = _kstest()
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

    Per simulated dataset, scored on the study's split layout
    (``config.layout``): resample the per-unit pairwise scores, recenter
    and studentize, test the draws against N(0, 1), Bonferroni-adjust the
    p-values across pairs, and flag the dataset when any adjusted p-value
    falls below ``KS_LEVEL``. Pairs with constant scores are skipped and
    noted.
    """
    if datasets < 1:
        raise ConfigError(f"datasets must be at least 1, got {datasets}")
    if bootstrap_draws < 1:
        raise ConfigError(f"bootstrap draws must be at least 1, got {bootstrap_draws}")
    _kstest()  # a missing scipy fails here, before any dataset is drawn
    per_dataset = []
    skipped: list[tuple[int, int, int]] = []
    flags = np.zeros(datasets, dtype=bool)
    for d in range(datasets):
        data_seed, cand_seed, sel_seed = _derived_seeds(config.seed, _STREAM_CLT, d)
        dataset, truth = generate_toy(config.n, config.dims, data_seed)
        candidates = make_candidates(truth, config.noise_specs, cand_seed)
        plan = _draw_plan(config.layout, config.n, config.selector_config(sel_seed))
        tensor = prepare(dataset, candidates, plan).tensor
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
    and the full pipeline (nuisance fits, scores, weights) is recomputed on
    the study's split layout (``config.layout``); the per-unit weighted
    scores of all other units are compared before and after. Second-order
    probes replace two units separately and jointly and take the mixed
    difference.
    """
    if len(n_grid) < 3:
        raise ConfigError("stability grid needs at least three sizes")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("stability grid must be strictly increasing")
    try:
        dataclasses.replace(config, n=n_grid[0])  # the smallest size
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

        # the split depends only on n, the layout and the seed: every refit shares it
        plan = _draw_plan(config.layout, n, config.selector_config(sel_seed))

        def q_with(replacements: dict[int, int]) -> np.ndarray:
            rows = np.arange(n)
            for j, src in replacements.items():
                rows[j] = src
            dataset = Dataset(
                x=dataset_full.x[rows], t=dataset_full.t[rows], y=dataset_full.y[rows]
            )
            candidates = CandidateSet(preds_full[:, rows])
            tensor = prepare(dataset, candidates, plan).tensor
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
