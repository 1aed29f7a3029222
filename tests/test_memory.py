"""Memory guards: traced peaks of the fit, of one repetition and of a
one-point selection, and which arrays share memory.

tracemalloc sees every numpy data buffer, so a peak here is the largest sum
of live arrays (plus small Python objects) during the call, independent of
the machine's allocator and of timing.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from cateselect.datagen import COMPETITIVE_PLUS_INFERIOR_SPECS, generate_toy, make_candidates
from cateselect.harness import ExperimentConfig, _derived_seeds, _rep_worker, _STREAM_REP
from cateselect.nuisance import fit
from cateselect.selectors import Prepared, SelectorConfig, prepare, select, two_way_split


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


def test_a_tensor_built_from_a_callers_array_copies_it():
    # a split needs n >= 20
    losses = np.arange(60.0).reshape(3, 20)
    problem = Prepared(two_way_split(20, 0), losses)
    assert not np.shares_memory(problem.losses, losses)
    assert not problem.losses.flags.writeable
    losses[0, 0] = 99.0  # the caller's array stays the caller's
    assert problem.losses[0, 0] == 0.0
    assert losses.flags.writeable


def test_a_read_only_view_of_a_callers_writable_array_is_copied():
    # the view cannot be written to, but the array it shows can
    losses = np.arange(60.0).reshape(3, 20)
    view = losses.view()
    view.setflags(write=False)
    problem = Prepared(two_way_split(20, 0), view)
    assert not np.shares_memory(problem.losses, losses)
    losses[0, 0] = 99.0
    assert problem.losses[0, 0] == 0.0
