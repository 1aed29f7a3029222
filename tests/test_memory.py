"""Memory guards: traced peaks of the generators, of the fit, of one
repetition and of a one-point selection, and which arrays share memory.

tracemalloc sees every numpy data buffer, so a peak here is the largest sum
of live arrays (plus small Python objects) during the call, independent of
the machine's allocator and of timing.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from cateselect.datagen import (
    COMPETITIVE_PLUS_INFERIOR_SPECS,
    CandidateSet,
    Dataset,
    ToyGroundTruth,
    generate_toy,
    make_candidates,
)
from cateselect.harness import ExperimentConfig, _derived_seeds, _rep_worker, _STREAM_REP
from cateselect.nuisance import NuisanceModel, Nuisances, fit
from cateselect.selectors import (
    Prepared,
    SelectorConfig,
    SplitPlan,
    prepare,
    select,
    two_way_split,
)


def _traced_peak(call):
    """Bytes allocated at the peak of ``call()`` above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1000, 2000])
def test_fit_holds_about_two_design_matrices(n):
    # bound: 3 intercept-first design matrices of the training units. The fit
    # keeps one and the logistic solve adds a weighted copy per Newton step,
    # plus (d+1)^2 Hessians; a per-solver copy of the covariates, or a Hessian
    # kept across steps, breaks it at n=1000 (the copying fit peaked at 4.2x)
    ds, _ = generate_toy(n, (2, 2, 2, 400), seed=12)
    unit = n * (ds.d + 1) * 8
    peak = _traced_peak(lambda: fit(ds, np.arange(n)))
    assert peak <= 3 * unit, f"fit peaked at {peak / unit:.2f} design matrices"


def test_a_power_sweep_repetition_peaks_under_seven_loss_matrices():
    # bound: 7 loss matrices of the largest point (p=7, n=30 000), for one
    # repetition of a 4-point candidate-count sweep with naive and proposed:
    # the dataset, the draw, both selectors' matrices and one fit's working
    # arrays. Copying each point's candidates or each point's rows of the
    # matrices, or caching a centred copy of them, peaked at 8.8x
    n = 30_000
    base = ExperimentConfig(
        n=n,
        dims=(2, 2, 2, 2),
        noise_specs=COMPETITIVE_PLUS_INFERIOR_SPECS,
        selectors=("naive", "proposed"),
        lam=n**0.45,
        repetitions=1,
    )
    ranked = sorted(base.noise_specs, key=lambda s: s.population_mse)
    group = [dataclasses.replace(base, noise_specs=tuple(ranked[:p])) for p in (3, 5, 6, 7)]
    unit = 7 * n * 8
    peak = _traced_peak(lambda: _rep_worker((group, 0, _derived_seeds(0, _STREAM_REP, 0))))
    assert peak <= 7 * unit, f"the repetition peaked at {peak / unit:.2f} loss matrices"


def test_a_one_point_select_peaks_under_three_and_a_half_loss_matrices():
    # bound: the traced peak of this call before cut problems shared their
    # summaries, 3.35 loss matrices (p=7, n=30 000) rounded up to a half
    n = 30_000
    ds, truth = generate_toy(n, (2, 2, 2, 2), seed=0)
    cands = make_candidates(truth, COMPETITIVE_PLUS_INFERIOR_SPECS, seed=1)
    config = SelectorConfig(lam=n**0.45)
    unit = cands.p * n * 8
    peak = _traced_peak(lambda: select(ds, cands, config, ("proposed", "naive", "bonferroni")))
    assert peak <= 3.5 * unit, f"select peaked at {peak / unit:.2f} loss matrices"


def test_restrict_is_a_read_only_view_of_the_shared_rows():
    ds, truth = generate_toy(400, (2, 2, 2, 2), seed=3)
    cands = make_candidates(truth, COMPETITIVE_PLUS_INFERIOR_SPECS, seed=4)
    shared = prepare(ds, cands, two_way_split(ds.n, 0))
    part = shared.restrict(3)
    assert np.shares_memory(part.losses, shared.losses)
    assert np.array_equal(part.losses, shared.losses[:3])
    assert not part.losses.flags.writeable
    with pytest.raises(ValueError):
        part.losses[0, 0] = 0.0


def _matrix(rows, columns):
    """A (rows, columns) array that owns its memory, as a caller's would."""
    return np.arange(rows * columns, dtype=float).reshape(rows, columns).copy()


# name -> (a caller's array, what the container built from it holds)
CONTAINERS = {
    "Dataset": (
        lambda: _matrix(20, 2),
        lambda a: Dataset(x=a, t=np.arange(20) % 2, y=np.zeros(20)).x,
    ),
    "ToyGroundTruth": (
        lambda: np.arange(20.0),
        lambda a: ToyGroundTruth(mu0=a, mu1=np.zeros(20), e=np.full(20, 0.5)).mu0,
    ),
    "CandidateSet": (lambda: _matrix(3, 20), lambda a: CandidateSet(a).predictions),
    "NuisanceModel": (lambda: np.arange(3.0), lambda a: NuisanceModel(a, np.zeros(3), np.zeros(3)).mu0),
    "Nuisances": (
        lambda: np.arange(20.0),
        lambda a: Nuisances(mu0=a, mu1=np.zeros(20), e=np.full(20, 0.5)).mu0,
    ),
    "SplitPlan": (lambda: np.arange(20) % 2, lambda a: SplitPlan(a, np.arange(20) % 5, 2).major),
    # a split needs n >= 20
    "Prepared": (lambda: _matrix(3, 20), lambda a: Prepared(two_way_split(20, 0), a).losses),
}


@pytest.mark.parametrize("container", list(CONTAINERS))
def test_a_container_built_from_a_callers_array_copies_it(container):
    make, hold = CONTAINERS[container]
    given = make()
    held = hold(given)
    assert not np.shares_memory(held, given)
    assert not held.flags.writeable
    first = held.flat[0]
    given.flat[0] = 7  # the caller's array stays the caller's
    assert held.flat[0] == first
    assert given.flags.writeable


@pytest.mark.parametrize("container", list(CONTAINERS))
def test_a_read_only_view_of_a_callers_writable_array_is_copied(container):
    # the view cannot be written to, but the array it shows can
    make, hold = CONTAINERS[container]
    given = make()
    view = given.view()
    view.setflags(write=False)
    held = hold(view)
    assert not np.shares_memory(held, given)
    first = held.flat[0]
    given.flat[0] = 7
    assert held.flat[0] == first


@pytest.mark.parametrize("container", list(CONTAINERS))
def test_a_frozen_array_is_kept_uncopied(container):
    # C-contiguous and read-only down to its owner: nothing can write to it
    make, hold = CONTAINERS[container]
    given = make()
    given.setflags(write=False)
    assert np.shares_memory(hold(given), given)


@pytest.mark.parametrize(
    "call",
    [lambda a: a.T, lambda a: a[..., ::2]],
    ids=["transposed", "strided"],
)
def test_a_frozen_array_that_is_not_row_major_is_copied(call):
    frozen = _matrix(3, 20)
    frozen.setflags(write=False)
    held = CandidateSet(call(frozen)).predictions
    assert not np.shares_memory(held, frozen)
    assert held.flags.c_contiguous and not held.flags.writeable


def test_generate_toy_peaks_under_one_and_a_half_covariate_matrices():
    # bound: 1.5 covariate matrices at d = 406. The draw is x and n-vectors;
    # a container that copies x peaked at 2.15x
    n, dims = 2000, (2, 2, 2, 400)
    unit = n * sum(dims) * 8
    peak = _traced_peak(lambda: generate_toy(n, dims, seed=0))
    assert peak <= 1.5 * unit, f"generate_toy peaked at {peak / unit:.2f} covariate matrices"


def test_make_candidates_peaks_under_one_and_a_half_candidate_matrices():
    # bound: 1.5 p x n matrices at p = 7, n = 30 000. Filling the matrix row by
    # row holds it, tau and one draw (1.29x); stacking a list of rows and then
    # copying the stack peaked at 3.15x
    n = 30_000
    _, truth = generate_toy(n, (2, 2, 2, 2), seed=0)
    specs = COMPETITIVE_PLUS_INFERIOR_SPECS
    unit = len(specs) * n * 8
    peak = _traced_peak(lambda: make_candidates(truth, specs, seed=1))
    assert peak <= 1.5 * unit, f"make_candidates peaked at {peak / unit:.2f} candidate matrices"
