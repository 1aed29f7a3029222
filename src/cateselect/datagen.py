"""Synthetic data generation, noisy-oracle candidates, and CSV input and output.

The toy generator draws latent Gaussian covariates split into four blocks:
instruments (treatment assignment only), confounders (treatment and
outcomes), adjusters (outcomes only), and distractors (neither). Outcomes
are linear in the confounder/adjuster block. The returned ground truth
carries the noise-free conditional means, the per-unit treatment effect
``tau = mu1 - mu0``, and the realized propensities, so oracle analyses and
noisy-oracle candidate estimators can be built on top.
"""

from __future__ import annotations

import csv
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import Any

import numpy as np

PROPENSITY_CLIP = (0.1, 0.9)

_ARM_RESAMPLE_ATTEMPTS = 5


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: ``exp`` only ever sees ``-|z|``.

    ``minimum(z, -z)`` is ``-|z|`` but returns a NaN ``z`` unchanged, so NaN
    inputs keep their sign and payload.
    """
    ez = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only, row-major copy of ``a``: a transposed input (the
    predictions CSV's columns) is stored as rows, so every reduction along
    a row runs over contiguous memory whatever the source."""
    a = np.array(a, copy=True, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Container for ``n`` observations, one row of ``x`` each, with shared dimension ``d``.

    Invariants enforced at construction: at least one unit, finite values,
    binary treatment with both arms present.
    """

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        t = np.asarray(self.t, dtype=np.int64)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise ValueError("covariate matrix must be 2-d (n, d)")
        n = x.shape[0]
        if n == 0:
            raise ValueError("dataset must be nonempty")
        if t.shape != (n,) or y.shape != (n,):
            raise ValueError("x, t, y must agree on the number of units")
        if not np.all((t == 0) | (t == 1)):
            raise ValueError("treatment column must be binary")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("covariates and outcomes must be finite")
        if t.min() == t.max():
            arm = int(t[0])
            raise ValueError(f"dataset contains only treatment arm {arm}; both arms required")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "t", _readonly(t))
        object.__setattr__(self, "y", _readonly(y))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ToyGroundTruth:
    """Per-unit truth for the toy design.

    ``mu0``/``mu1`` are the noise-free conditional means, ``tau`` their
    difference, and ``e`` the realized propensity after clipping.
    """

    mu0: np.ndarray
    mu1: np.ndarray
    e: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mu0", "mu1", "e"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))
        lo, hi = PROPENSITY_CLIP
        if self.e.min() < lo or self.e.max() > hi:
            raise ValueError(f"propensities must lie in [{lo}, {hi}]")

    @property
    def tau(self) -> np.ndarray:
        return self.mu1 - self.mu0

    @property
    def n(self) -> int:
        return self.mu0.shape[0]


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian perturbation of the true effect: bias ``mean``, scale ``sd``."""

    mean: float
    sd: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mean) and 0 <= self.sd < np.inf):
            raise ValueError(f"noise spec ({self.mean}, {self.sd}) needs a finite mean and sd >= 0")
        # products of floats overflow to inf, where population_mse's powers raise
        mean, sd = float(self.mean), float(self.sd)
        if not np.isfinite(mean * mean + sd * sd):
            raise ValueError(f"noise spec ({self.mean}, {self.sd}): mean^2 + sd^2 overflows")

    @property
    def population_mse(self) -> float:
        """Mean squared error of ``tau + N(mean, sd^2)`` against ``tau``."""
        return self.mean**2 + self.sd**2


# Standard candidate suites used throughout the experiments: one with three
# competitive candidates plus four clearly inferior ones, and one where every
# non-winner sits just above the winner.
COMPETITIVE_PLUS_INFERIOR_SPECS: tuple[NoiseSpec, ...] = (
    NoiseSpec(0.0, 0.1),
    NoiseSpec(0.03, 0.1),
    NoiseSpec(0.03, 0.1),
    NoiseSpec(0.3, 0.1),
    NoiseSpec(0.3, 0.1),
    NoiseSpec(0.3, 0.1),
    NoiseSpec(0.3, 0.1),
)

NEAR_TIED_SPECS: tuple[NoiseSpec, ...] = (
    NoiseSpec(0.0, 0.1),
    NoiseSpec(0.03, 0.1),
    NoiseSpec(0.03, 0.1),
    NoiseSpec(0.03, 0.1),
    NoiseSpec(0.03, 0.1),
)


@dataclass(frozen=True)
class CandidateSet:
    """Fixed per-unit predictions of ``p >= 2`` candidate effect estimators."""

    predictions: np.ndarray

    def __post_init__(self) -> None:
        preds = np.asarray(self.predictions, dtype=float)
        if preds.ndim != 2:
            raise ValueError("predictions must be a (p, n) matrix")
        if preds.shape[0] < 2:
            raise ValueError("need at least two candidate estimators")
        if not np.all(np.isfinite(preds)):
            raise ValueError("candidate predictions must be finite")
        object.__setattr__(self, "predictions", _readonly(preds))

    @property
    def p(self) -> int:
        return self.predictions.shape[0]

    @property
    def n(self) -> int:
        return self.predictions.shape[1]


def _check_toy_design(n: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Validate a toy design's size and block sizes; returns the blocks as ints."""
    if n < 20:
        raise ValueError("toy designs need n >= 20")
    # numpy integers count; a float would be truncated, and a bool read as 0 or 1
    if any(isinstance(m, bool) or not isinstance(m, Integral) for m in dims):
        raise ValueError(f"dims must be four integer block sizes, got {tuple(dims)!r}")
    blocks = tuple(int(m) for m in dims)
    if len(blocks) != 4 or min(blocks) < 1:
        raise ValueError("dims must be four block sizes, each >= 1")
    return blocks


def generate_toy(
    n: int,
    dims: tuple[int, int, int, int],
    seed: int,
) -> tuple[Dataset, ToyGroundTruth]:
    """Sample the linear-outcome toy design.

    Covariates are standard normal in ``sum(dims)`` dimensions with block
    sizes ``(instruments, confounders, adjusters, distractors)``. The
    treatment logit is linear in the instrument/confounder block plus a
    unit-level standard normal shock, squashed and clipped to [0.1, 0.9].
    Conditional means are linear in the confounder/adjuster block, scaled by
    the block width; observed outcomes add per-arm noise with sd 0.5. Block
    weights are Uniform(-1, 1), fixed by the seed.

    Parameters
    ----------
    n : int
        Number of units, at least 20.
    dims : tuple of four ints
        Block sizes, each at least 1.
    seed : int
        Everything is a pure function of (n, dims, seed).

    Returns
    -------
    (Dataset, ToyGroundTruth)
    """
    m_inst, m_conf, m_adj, m_dist = _check_toy_design(n, dims)

    rng = np.random.default_rng(seed)
    w_treat = rng.uniform(-1.0, 1.0, m_inst + m_conf)
    w_mu0 = rng.uniform(-1.0, 1.0, m_conf + m_adj)
    w_mu1 = rng.uniform(-1.0, 1.0, m_conf + m_adj)

    x = rng.standard_normal((n, m_inst + m_conf + m_adj + m_dist))
    treat_block = x[:, : m_inst + m_conf]
    outcome_block = x[:, m_inst : m_inst + m_conf + m_adj]

    logit = treat_block @ w_treat + rng.standard_normal(n)
    e = np.clip(_sigmoid(logit), *PROPENSITY_CLIP)

    scale = m_conf + m_adj
    mu0 = outcome_block @ w_mu0 / scale
    mu1 = outcome_block @ w_mu1 / scale

    t = None
    for _ in range(_ARM_RESAMPLE_ATTEMPTS):
        draw = (rng.random(n) < e).astype(np.int64)
        if 0 < draw.sum() < n:
            t = draw
            break
    if t is None:
        raise RuntimeError(
            f"could not sample both treatment arms in {_ARM_RESAMPLE_ATTEMPTS} attempts"
        )

    noise0 = rng.normal(0.0, 0.5, n)
    noise1 = rng.normal(0.0, 0.5, n)
    y = np.where(t == 1, mu1 + noise1, mu0 + noise0)

    dataset = Dataset(x=x, t=t, y=y)
    truth = ToyGroundTruth(mu0=mu0, mu1=mu1, e=e)
    return dataset, truth


def make_candidates(
    truth: ToyGroundTruth,
    specs: list[NoiseSpec] | tuple[NoiseSpec, ...],
    seed: int,
) -> CandidateSet:
    """Build noisy-oracle candidates ``tau + N(mean_r, sd_r^2)`` per unit.

    Each candidate draws from its own child stream of ``seed``, so a prefix
    of ``specs`` yields bitwise-identical rows regardless of how many other
    specs follow.
    """
    if len(specs) < 2:
        raise ValueError("need at least two noise specs to form a candidate set")
    children = np.random.SeedSequence(seed).spawn(len(specs))
    tau = truth.tau
    rows = []
    for spec, child in zip(specs, children):
        rng = np.random.default_rng(child)
        rows.append(tau + rng.normal(spec.mean, spec.sd, truth.n))
    return CandidateSet(np.vstack(rows))


def _parse_float(field: str, line_no: int, column: str) -> float:
    try:
        value = float(field)
    except ValueError as exc:
        raise ValueError(f"line {line_no}: cannot parse {column}={field!r} as a number") from exc
    if not np.isfinite(value):
        raise ValueError(f"line {line_no}: {column} must be finite, got {field!r}")
    if column == "t" and value not in (0.0, 1.0):
        raise ValueError(f"line {line_no}: treatment must be 0 or 1, got {field!r}")
    return value


def _csv_rows(fh: Iterable[str], path: str) -> Iterator[list[str]]:
    """Rows of a CSV file; the csv module's own errors (a field over its size
    limit, say) become ``ValueError`` naming the file and line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def _numeric_body(path: str, width: int) -> np.ndarray | None:
    """Parse the rows below the header with numpy's C reader.

    Returns the (rows, width) float array, or None when the reader rejects
    the body or warns (a header-only file), or when the width is wrong or a
    value is not finite. Callers then re-read the file row by row, which
    names the offending line.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            body = np.loadtxt(
                path, delimiter=",", skiprows=1, ndmin=2, comments=None, encoding="utf-8"
            )
        except (ValueError, Warning):
            return None
    if body.shape[1] != width or not np.all(np.isfinite(body)):
        return None
    return body


def _read_table(
    path: str,
    check_header: Callable[[list[str]], None],
    usable: Callable[[np.ndarray], bool],
) -> np.ndarray:
    """The (rows, columns) float body of a CSV file below a header that
    ``check_header`` accepts.

    numpy parses the body. A body numpy rejects, or one that is not
    ``usable``, is re-read row by row, so errors name the offending line;
    that parser skips blank rows and takes only 0 or 1 in a column ``t``.
    """
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _csv_rows(fh, path)
        header = next(records, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        check_header(header)
        width = len(header)

        body = _numeric_body(path, width)
        if body is not None and usable(body):
            return body

        rows = []
        for line_no, row in enumerate(records, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"line {line_no}: expected {width} fields, got {len(row)}")
            rows.append([_parse_float(v, line_no, column) for v, column in zip(row, header)])
    return np.array(rows, dtype=float).reshape(-1, width)


def ingest_dataset(path: str) -> Dataset:
    """Load a dataset from CSV with header ``x_0,...,x_{d-1},t,y``; malformed
    rows, non-binary treatments and single-arm files raise ``ValueError``."""

    def check_header(header: list[str]) -> None:
        if len(header) < 3 or header[-2:] != ["t", "y"]:
            raise ValueError(f"{path}: header must be x_0,...,x_{{d-1}},t,y")
        expected = [f"x_{j}" for j in range(len(header) - 2)] + ["t", "y"]
        if header != expected:
            raise ValueError(f"{path}: header must be {','.join(expected)}")

    def binary_both_arms(body: np.ndarray) -> bool:
        t = body[:, -2]
        return bool(np.all((t == 0.0) | (t == 1.0)) and t.min() != t.max())

    body = _read_table(path, check_header, binary_both_arms)
    if body.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    t = body[:, -2].astype(np.int64)
    if t.min() == t.max():
        raise ValueError(f"{path}: only treatment arm {int(t[0])} present; both arms required")
    return Dataset(x=body[:, :-2], t=t, y=body[:, -1])


def ingest_predictions(path: str, n: int) -> CandidateSet:
    """Load candidate predictions from CSV with header ``tau_0,...,tau_{p-1}``
    and exactly ``n`` rows, one per dataset unit."""

    def check_header(header: list[str]) -> None:
        if header != [f"tau_{r}" for r in range(len(header))]:
            raise ValueError(f"{path}: header must be tau_0,...,tau_{{p-1}}")

    body = _read_table(path, check_header, lambda body: body.shape[0] == n)
    if body.shape[0] != n:
        raise ValueError(f"{path}: expected {n} prediction rows, found {body.shape[0]}")
    return CandidateSet(body.T)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a CSV table with ``\\n`` line ends; a float is written as its
    repr, so it reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the ``x_0,...,x_{d-1},t,y`` format."""
    header = [f"x_{j}" for j in range(dataset.d)] + ["t", "y"]
    rows = zip(dataset.x.tolist(), dataset.t.tolist(), dataset.y.tolist())
    write_csv(path, header, (x + [t, y] for x, t, y in rows))


def write_predictions_csv(candidates: CandidateSet, path: str | Path) -> None:
    """Write candidate predictions in the ``tau_0,...,tau_{p-1}`` format."""
    write_csv(path, [f"tau_{r}" for r in range(candidates.p)], candidates.predictions.T.tolist())
