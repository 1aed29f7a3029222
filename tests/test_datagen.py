import codecs
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cateselect import datagen
from cateselect.datagen import (
    COMPETITIVE_PLUS_INFERIOR_SPECS,
    NEAR_TIED_SPECS,
    CandidateSet,
    Dataset,
    NoiseSpec,
    generate_toy,
    ingest_dataset,
    ingest_predictions,
    make_candidates,
    write_dataset_csv,
    write_predictions_csv,
)


def test_propensities_clipped():
    _, truth = generate_toy(1000, (2, 2, 2, 2), seed=7)
    assert truth.e.min() >= 0.1
    assert truth.e.max() <= 0.9


def test_same_seed_bitwise_identical():
    ds1, tr1 = generate_toy(500, (2, 2, 2, 2), seed=42)
    ds2, tr2 = generate_toy(500, (2, 2, 2, 2), seed=42)
    npt.assert_array_equal(ds1.x, ds2.x)
    npt.assert_array_equal(ds1.t, ds2.t)
    npt.assert_array_equal(ds1.y, ds2.y)
    npt.assert_array_equal(tr1.tau, tr2.tau)
    npt.assert_array_equal(tr1.e, tr2.e)


def test_different_seed_differs():
    ds1, _ = generate_toy(500, (2, 2, 2, 2), seed=1)
    ds2, _ = generate_toy(500, (2, 2, 2, 2), seed=2)
    assert not np.array_equal(ds1.x, ds2.x)


def test_tau_mean_matches_centered_covariates():
    # E[tau] = 0 because the outcome block is centered Gaussian.
    _, truth = generate_toy(100_000, (2, 2, 2, 2), seed=11)
    bound = 4.0 * truth.tau.std() / np.sqrt(truth.n)
    assert abs(truth.tau.mean()) < bound


def test_tau_is_mu_difference():
    _, truth = generate_toy(200, (1, 3, 2, 1), seed=3)
    npt.assert_array_equal(truth.tau, truth.mu1 - truth.mu0)


def test_generate_toy_preconditions():
    with pytest.raises(ValueError):
        generate_toy(10, (2, 2, 2, 2), seed=0)
    with pytest.raises(ValueError):
        generate_toy(100, (0, 2, 2, 2), seed=0)
    # a float block would be truncated and a bool read as 0 or 1
    for dims in [(2.7, 2, 2, 2), (2.0, 2, 2, 2), (True, 2, 2, 2), ("2", 2, 2, 2)]:
        with pytest.raises(ValueError, match="dims must be four integer block sizes"):
            generate_toy(400, dims, seed=0)


def test_generate_toy_takes_numpy_integer_blocks():
    want, _ = generate_toy(40, (1, 2, 1, 1), seed=3)
    got, _ = generate_toy(40, tuple(np.array([1, 2, 1, 1], dtype=np.int32)), seed=3)
    npt.assert_array_equal(got.x, want.x)
    npt.assert_array_equal(got.y, want.y)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_propensity_clipping_property(seed):
    _, truth = generate_toy(50, (1, 1, 1, 1), seed=seed)
    assert truth.e.min() >= 0.1 and truth.e.max() <= 0.9


def test_zero_noise_candidate_equals_tau():
    _, truth = generate_toy(300, (2, 2, 2, 2), seed=5)
    cands = make_candidates(truth, [NoiseSpec(0.0, 0.0), NoiseSpec(0.1, 0.1)], seed=9)
    npt.assert_array_equal(cands.predictions[0], truth.tau)


def test_candidate_prefix_stability():
    # Candidate r is bitwise identical no matter how many specs follow it.
    _, truth = generate_toy(200, (2, 2, 2, 2), seed=5)
    small = make_candidates(truth, list(NEAR_TIED_SPECS[:3]), seed=9)
    big = make_candidates(truth, list(NEAR_TIED_SPECS), seed=9)
    npt.assert_array_equal(small.predictions, big.predictions[:3])


def test_candidate_mse_moment_identity():
    _, truth = generate_toy(100_000, (2, 2, 2, 2), seed=21)
    specs = [NoiseSpec(0.0, 0.1), NoiseSpec(0.03, 0.1), NoiseSpec(0.3, 0.1)]
    cands = make_candidates(truth, specs, seed=22)
    for row, spec in zip(cands.predictions, specs):
        mse = np.mean((row - truth.tau) ** 2)
        assert mse == pytest.approx(spec.population_mse, rel=0.05)


def test_standard_spec_suites():
    assert len(COMPETITIVE_PLUS_INFERIOR_SPECS) == 7
    assert COMPETITIVE_PLUS_INFERIOR_SPECS[0] == NoiseSpec(0.0, 0.1)
    assert COMPETITIVE_PLUS_INFERIOR_SPECS[1] == NoiseSpec(0.03, 0.1)
    assert COMPETITIVE_PLUS_INFERIOR_SPECS[3] == NoiseSpec(0.3, 0.1)
    assert len(NEAR_TIED_SPECS) == 5
    assert all(s == NoiseSpec(0.03, 0.1) for s in NEAR_TIED_SPECS[1:])
    # the zero-bias candidate is the unique winner in both suites
    for suite in (COMPETITIVE_PLUS_INFERIOR_SPECS, NEAR_TIED_SPECS):
        mses = [s.population_mse for s in suite]
        assert np.argmin(mses) == 0
        assert suite[1].population_mse - suite[0].population_mse > 0


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(0.0, -0.1)


@pytest.mark.parametrize("mean, sd", [(True, 0.1), (False, 0.1), (0.0, True)])
def test_noise_spec_rejects_booleans(mean, sd):
    # Python counts a bool as a number: a spec of (True, 0.1) would run with mean 1
    with pytest.raises(ValueError, match=re.escape(f"noise spec ({mean}, {sd}): mean and sd must be numbers")):
        NoiseSpec(mean, sd)


@pytest.mark.parametrize("mean, sd", [(1e200, 0.1), (0.0, 1e155), (1e154, 1e154)])
def test_noise_spec_rejects_an_overflowing_mse(mean, sd):
    # a winner chosen by population_mse needs every mean^2 + sd^2 finite
    with pytest.raises(ValueError, match=re.escape(f"noise spec ({mean}, {sd}): mean^2 + sd^2 overflows")):
        NoiseSpec(mean, sd)
    assert np.isfinite(NoiseSpec(1e150, 1e150).population_mse)


def test_candidate_set_needs_two_rows():
    with pytest.raises(ValueError):
        CandidateSet(np.zeros((1, 10)))
    with pytest.raises(ValueError):
        make_candidates(generate_toy(50, (1, 1, 1, 1), 0)[1], [NoiseSpec(0, 0.1)], 1)


def test_dataset_validation():
    x = np.zeros((5, 2))
    with pytest.raises(ValueError):
        Dataset(x=x, t=np.ones(5, dtype=int), y=np.zeros(5))  # single arm
    with pytest.raises(ValueError):
        Dataset(x=x, t=np.array([0, 1, 2, 0, 1]), y=np.zeros(5))  # nonbinary
    with pytest.raises(ValueError):
        Dataset(x=x, t=np.array([0, 1, 0, 1, 0]), y=np.array([0, 1, np.inf, 0, 1.0]))


@pytest.mark.parametrize(
    "t", [[0.0, 0.7, 1.0], [0.0, 1.9, 1.0], [0.0, np.nan, 1.0]], ids=["0.7", "1.9", "nan"]
)
def test_dataset_rejects_a_fractional_treatment_before_casting(t):
    # the cast to int64 would read 0.7 as 0 and 1.9 as 1, and warn on NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="treatment column must be binary"):
            Dataset(x=np.zeros((3, 1)), t=t, y=np.zeros(3))


def test_dataset_csv_roundtrip(tmp_path):
    ds, _ = generate_toy(40, (1, 1, 1, 1), seed=13)
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path)
    text = path.read_bytes()
    assert b"\r" not in text and text.count(b"\n") == 1 + ds.n
    loaded = ingest_dataset(str(path))
    npt.assert_array_equal(loaded.x, ds.x)
    npt.assert_array_equal(loaded.t, ds.t)
    npt.assert_array_equal(loaded.y, ds.y)


def test_ingest_dataset_three_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x_0,x_1,t,y\n0.1,0.2,0,1.5\n0.3,0.4,1,2.5\n0.5,0.6,0,3.5\n")
    ds = ingest_dataset(str(path))
    assert ds.n == 3 and ds.d == 2


def test_ingest_dataset_bad_treatment_names_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x_0,t,y\n0.1,0,1.0\n0.2,2,2.0\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_dataset(str(path))


def test_ingest_dataset_malformed_row_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x_0,t,y\n0.1,0,1.0\n0.2,1\n")
    with pytest.raises(ValueError, match="line 3"):
        ingest_dataset(str(path))


def test_ingest_dataset_missing_arm(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x_0,t,y\n0.1,1,1.0\n0.2,1,2.0\n")
    with pytest.raises(ValueError, match="arm"):
        ingest_dataset(str(path))


def test_ingest_dataset_bad_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,t,y\n1,2,0,3\n")
    with pytest.raises(ValueError, match="header"):
        ingest_dataset(str(path))


def test_predictions_csv_roundtrip(tmp_path):
    _, truth = generate_toy(25, (1, 1, 1, 1), seed=4)
    cands = make_candidates(truth, [NoiseSpec(0, 0.1)] * 7, seed=6)
    path = tmp_path / "p.csv"
    write_predictions_csv(cands, path)
    text = path.read_bytes()
    assert b"\r" not in text and text.count(b"\n") == 1 + 25
    loaded = ingest_predictions(str(path), 25)
    assert loaded.p == 7
    npt.assert_array_equal(loaded.predictions, cands.predictions)


def test_ingest_predictions_row_count_checked(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("tau_0,tau_1\n1.0,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError, match="expected 5"):
        ingest_predictions(str(path), 5)


OVERSIZED_FIELD = "1" * 200_000  # over the csv module's 131 072-character field limit


@pytest.mark.parametrize(
    "text, n, line",
    [
        (f"x_0,t,y\n{OVERSIZED_FIELD},0,1.0\n0.2,1,2.0\n", None, 2),
        (f"x_0,t,y\n0.1,0,1.0\n0.2,1,{OVERSIZED_FIELD}\n", None, 3),
        (f"x_{OVERSIZED_FIELD},t,y\n0.1,0,1.0\n", None, 1),
        (f"tau_0,tau_1\n1.0,{OVERSIZED_FIELD}\n3.0,4.0\n", 2, 2),
        (f"tau_0,tau_{OVERSIZED_FIELD}\n1.0,2.0\n", 1, 1),
    ],
    ids=["data_body", "data_last_row", "data_header", "preds_body", "preds_header"],
)
def test_oversized_field_is_an_input_error(tmp_path, text, n, line):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {line}: field larger"):
        if n is None:
            ingest_dataset(str(path))
        else:
            ingest_predictions(str(path), n)


def _masked_sigmoid(z):
    """The logistic function evaluated branch by branch through boolean masks."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bitwise_the_masked_form():
    tiny = np.finfo(float).tiny
    nan_payloads = np.array(
        [0x7FF8000000000001, 0xFFF8000000000002, 0x7FF4000000000000], dtype=np.uint64
    ).view(float)
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e308, -1e308,
         5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 3, 36.7, -36.7, 709.8, -709.8]
    )
    spread = np.random.default_rng(0).standard_normal(10_000) * 20.0
    z = np.concatenate([specials, nan_payloads, spread])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = datagen._sigmoid(z)
    assert got.view(np.uint64).tobytes() == _masked_sigmoid(z).view(np.uint64).tobytes()


# --- numpy reader against the row parser --------------------------------------

DATA_HEADER = "x_0,t,y\n"
PREDS_HEADER = "tau_0,tau_1\n"

# id -> (file text, prediction row count or None for a dataset, numpy parses the body)
INGESTION_CASES = {
    "data_blank_line": (DATA_HEADER + "0.1,0,1.0\n\n0.2,1,2.0\n", None, True),
    "data_whitespace_line": (DATA_HEADER + "0.1,0,1.0\n   \n0.2,1,2.0\n", None, False),
    "data_crlf": ("x_0,t,y\r\n0.1,0,1.0\r\n0.2,1,2.0\r\n", None, True),
    "data_padded": (DATA_HEADER + " 1.5 ,0, 2.5 \n0.2, 1 ,2.0\n", None, True),
    "data_quoted": (DATA_HEADER + '"1.5",0,1.0\n0.2,1,"2.0"\n', None, False),
    "data_underscore": (DATA_HEADER + "1_000,0,1.0\n0.2,1,2.0\n", None, False),
    "data_trailing_comma": (DATA_HEADER + "0.1,0,1.0,\n0.2,1,2.0,\n", None, False),
    "data_comment_line": (DATA_HEADER + "# note\n0.1,0,1.0\n0.2,1,2.0\n", None, False),
    "data_comment_field": (DATA_HEADER + "#0.1,0,1.0\n0.2,1,2.0\n", None, False),
    "data_nan": (DATA_HEADER + "nan,0,1.0\n0.2,1,2.0\n", None, False),
    "data_inf": (DATA_HEADER + "0.1,0,1.0\n0.2,1,-inf\n", None, False),
    "data_overflow": (DATA_HEADER + "0.1,0,1.0\n1e400,1,2.0\n", None, False),
    "data_t_two": (DATA_HEADER + "0.1,0,1.0\n0.2,2,2.0\n", None, True),
    "data_t_float_one": (DATA_HEADER + "0.1,0.0,1.0\n0.2,1.0,2.0\n", None, True),
    "data_single_row": (DATA_HEADER + "0.1,1,1.0\n", None, True),
    "data_single_arm": (DATA_HEADER + "0.1,1,1.0\n0.2,1,2.0\n", None, True),
    "data_header_only": (DATA_HEADER, None, False),
    "data_ragged": (DATA_HEADER + "0.1,0,1.0\n0.2,1\n", None, False),
    "preds_blank_line": (PREDS_HEADER + "1.0,2.0\n\n3.0,4.0\n", 2, True),
    "preds_whitespace_line": (PREDS_HEADER + "1.0,2.0\n \t\n3.0,4.0\n", 2, False),
    "preds_crlf": ("tau_0,tau_1\r\n1.0,2.0\r\n3.0,4.0\r\n", 2, True),
    "preds_padded": (PREDS_HEADER + " 1.5 ,2.0\n3.0, 4.5 \n", 2, True),
    "preds_quoted": (PREDS_HEADER + '"1.5",2.0\n3.0,4.0\n', 2, False),
    "preds_underscore": (PREDS_HEADER + "1_000,2.0\n3.0,4.0\n", 2, False),
    "preds_trailing_comma": (PREDS_HEADER + "1.0,2.0,\n3.0,4.0,\n", 2, False),
    "preds_comment_line": (PREDS_HEADER + "#1.0,2.0\n3.0,4.0\n", 2, False),
    "preds_nan": (PREDS_HEADER + "1.0,nan\n3.0,4.0\n", 2, False),
    "preds_inf": (PREDS_HEADER + "1.0,2.0\ninf,4.0\n", 2, False),
    "preds_overflow": (PREDS_HEADER + "1.0,2.0\n3.0,-1e400\n", 2, False),
    "preds_single_row": (PREDS_HEADER + "1.0,2.0\n", 1, True),
    "preds_header_only": (PREDS_HEADER, 3, False),
    "preds_ragged": (PREDS_HEADER + "1.0,2.0\n3.0\n", 2, False),
    "preds_too_few_rows": (PREDS_HEADER + "1.0,2.0\n3.0,4.0\n", 3, True),
    "preds_too_many_rows": (PREDS_HEADER + "1.0,2.0\n3.0,4.0\n", 1, True),
}

# the bodies numpy parses that are re-read row by row all the same: a treatment
# other than 0 or 1 needs its line number
REREAD_FOR_THE_LINE = {"data_t_two"}


def _ingest(path, n):
    """Ingested arrays, or the ValueError message."""
    try:
        if n is None:
            ds = ingest_dataset(str(path))
            return [ds.x, ds.t, ds.y]
        return [ingest_predictions(str(path), n).predictions]
    except ValueError as exc:
        return str(exc)


def _row_parser_only():
    return mock.patch.object(datagen, "_numeric_body", lambda path, width: None)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == (
            b.flags.c_contiguous,
            b.flags.f_contiguous,
        )


@pytest.mark.parametrize("case", list(INGESTION_CASES))
def test_ingestion_matches_row_parser(tmp_path, case):
    text, n, numpy_parses = INGESTION_CASES[case]
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    bodies = []
    reader, row_parser = datagen._numeric_body, datagen._parse_rows
    row_parses = []

    def spy(path, width):
        bodies.append(reader(path, width))
        return bodies[-1]

    def row_spy(records, header):
        row_parses.append(header)
        return row_parser(records, header)

    with mock.patch.object(datagen, "_numeric_body", spy), \
            mock.patch.object(datagen, "_parse_rows", row_spy):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _ingest(path, n)
    assert [body is not None for body in bodies] == [numpy_parses]
    # the row parser runs only where numpy failed or a line must be named
    assert len(row_parses) == int(not numpy_parses or case in REREAD_FOR_THE_LINE)
    assert not caught  # e.g. numpy's "input contained no data" on a header-only file
    with _row_parser_only():
        want = _ingest(path, n)
    _assert_same(got, want)


@pytest.mark.parametrize("n", [None, 40], ids=["dataset", "predictions"])
def test_a_byte_order_mark_before_the_header_is_dropped(tmp_path, n):
    # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
    ds, truth = generate_toy(40, (1, 1, 1, 1), seed=13)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    if n is None:
        write_dataset_csv(ds, plain)
    else:
        write_predictions_csv(make_candidates(truth, [NoiseSpec(0, 0.1)] * 3, seed=6), plain)
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    want = _ingest(plain, n)
    assert not isinstance(want, str), want
    _assert_same(_ingest(marked, n), want)
    with _row_parser_only():
        _assert_same(_ingest(marked, n), want)


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1e308, -9.999999999999999e307)
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_ingestion_roundtrip_is_bitwise(data):
    n = data.draw(st.integers(2, 12))
    d = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(2, 4))
    x = np.array(data.draw(st.lists(_finite, min_size=n * d, max_size=n * d))).reshape(n, d)
    t = np.array([0, 1] + data.draw(st.lists(st.sampled_from([0, 1]), min_size=n - 2, max_size=n - 2)))
    y = np.array(data.draw(st.lists(_finite, min_size=n, max_size=n)))
    preds = np.array(data.draw(st.lists(_finite, min_size=p * n, max_size=p * n))).reshape(p, n)
    ds, cands = Dataset(x=x, t=t, y=y), CandidateSet(preds)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_dataset_csv(ds, tmp / "repr-d.csv")
        write_predictions_csv(cands, tmp / "repr-p.csv")
        x_header = ",".join(f"x_{j}" for j in range(d))
        np.savetxt(tmp / "savetxt-d.csv", np.column_stack([x, t, y]), fmt="%.17g", delimiter=",",
                   header=f"{x_header},t,y", comments="")
        np.savetxt(tmp / "savetxt-p.csv", preds.T, fmt="%.17g", delimiter=",",
                   header=",".join(f"tau_{r}" for r in range(p)), comments="")
        for name, rows, expected in (
            ("repr-d.csv", None, [ds.x, ds.t, ds.y]),
            ("repr-p.csv", n, [cands.predictions]),
            ("savetxt-d.csv", None, [ds.x, ds.t, ds.y]),
            ("savetxt-p.csv", n, [cands.predictions]),
        ):
            got = _ingest(tmp / name, rows)
            with _row_parser_only():
                _assert_same(got, _ingest(tmp / name, rows))
            for a, b in zip(got, expected, strict=True):
                assert a.tobytes() == b.tobytes()
