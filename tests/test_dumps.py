import json
import os
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import fresh_python, peak_bytes, q_sl, read_dump
from lossgeom import gradients
from lossgeom import (
    cli,
    DumpError,
    ModelParams,
    sample_ensemble,
    sample_logit_gradients,
    write_dump,
)
from lossgeom.dumps import read_dump_blocks


def small_set(seed=0):
    params = ModelParams(
        n_examples=12, n_classes=4, n_weights=9, seed=seed, hyperplane_dim=3
    )
    return sample_logit_gradients(params), sample_ensemble(params).labels


def test_binary_round_trip_is_bit_exact(tmp_path):
    grads, labels = small_set()
    path = str(tmp_path / "grads.lgrd")
    write_dump(path, grads, labels)
    data, read_labels = read_dump(path)
    assert np.array_equal(data, grads)
    assert np.array_equal(read_labels, labels)


def test_csv_round_trip_is_bit_exact(tmp_path):
    # 17 significant digits print/parse losslessly for float64.
    grads, labels = small_set(seed=1)
    path = str(tmp_path / "grads.csv")
    write_dump(path, grads, labels)
    data, read_labels = read_dump(path)
    assert np.array_equal(data, grads)
    assert np.array_equal(read_labels, labels)
    assert (tmp_path / "grads.labels.csv").exists()


def test_raw_tensor_input(tmp_path):
    tensor = np.random.default_rng(2).standard_normal((5, 3, 4))
    labels = np.array([0, 1, 2, 0, 1])
    path = str(tmp_path / "raw.lgrd")
    write_dump(path, tensor, labels)
    data, _ = read_dump(path)
    assert np.array_equal(data, tensor)


@pytest.mark.parametrize("layout", ["fortran", "sliced", "big-endian"])
def test_binary_write_of_any_layout_is_the_c_ordered_file(tmp_path, layout):
    base = np.random.default_rng(3).standard_normal((9, 4, 12))
    tensor = {
        "fortran": np.asfortranarray(base),
        "sliced": base[::2, 1:, ::3],
        "big-endian": base.astype(">f8"),
    }[layout]
    labels = np.arange(tensor.shape[0]) % tensor.shape[1]
    path, plain = tmp_path / "layout.lgrd", tmp_path / "plain.lgrd"
    write_dump(str(path), tensor, labels)
    write_dump(str(plain), np.array(tensor, dtype="<f8", order="C"), labels)
    assert path.read_bytes() == plain.read_bytes()
    data, read_labels = read_dump(str(path))
    assert data.tobytes() == np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    assert np.array_equal(read_labels, labels)


def test_binary_write_holds_no_copy_of_the_tensor(tmp_path):
    tensor = np.random.default_rng(5).standard_normal((300, 10, 1000))
    labels = np.arange(300) % 10
    peak = peak_bytes(write_dump, str(tmp_path / "big.lgrd"), tensor, labels)
    print(f"write_dump peak: {peak / tensor.nbytes:.4f}x the tensor")
    assert peak < 0.05 * tensor.nbytes


def test_scoring_a_binary_dump_holds_no_copy_of_the_tensor(tmp_path):
    # cluster --input reads and scores 1 MB blocks of examples and keeps C x D
    # unit sums and N squared norms, so its peak does not grow with N. While it
    # kept the N x D per-example unit sums, N=3000 peaked 2.3 MB above N=300.
    c, d = 4, 100
    gen = np.random.default_rng(8)
    peaks = []
    for n in (300, 3000):
        path, out = tmp_path / f"{n}.lgrd", tmp_path / f"out{n}"
        write_dump(str(path), gen.standard_normal((n, c, d)) + gen.standard_normal((c, d)),
                   np.arange(n) % c)
        peaks.append(peak_bytes(cli.run_command,
                                ["cluster", "--input", str(path), "--out", str(out)]))
        assert (out / "clustering.json").exists()
    print(f"cluster --input peaks at N=300 and N=3000: {peaks[0]} and {peaks[1]} bytes")
    assert abs(peaks[1] - peaks[0]) < 2**20


def test_bad_magic_raises_magic_error(tmp_path):
    path = tmp_path / "junk.lgrd"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DumpError, match="not an LGRD dump"):
        read_dump(str(path))


def test_unsupported_version_raises_magic_error(tmp_path):
    grads, labels = small_set()
    path = tmp_path / "v9.lgrd"
    write_dump(str(path), grads, labels)
    blob = bytearray(path.read_bytes())
    blob[4] = 9  # bump the version field
    path.write_bytes(bytes(blob))
    with pytest.raises(DumpError, match="unsupported LGRD version 9"):
        read_dump(str(path))


def test_truncated_payload_reports_byte_counts(tmp_path):
    grads, labels = small_set()
    path = tmp_path / "short.lgrd"
    write_dump(str(path), grads, labels)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(DumpError, match=r"expected \d+ bytes"):
        read_dump(str(path))


def test_trailing_garbage_rejected(tmp_path):
    grads, labels = small_set()
    path = tmp_path / "long.lgrd"
    write_dump(str(path), grads, labels)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(DumpError, match=r"expected \d+ bytes for N=12 C=4 D=9, found \d+"):
        read_dump(str(path))


def test_out_of_range_label_raises_label_error(tmp_path):
    tensor = np.random.default_rng(3).standard_normal((4, 3, 5))
    path = tmp_path / "bad.lgrd"
    write_dump(str(path), tensor, np.array([0, 1, 2, 0]))
    blob = bytearray(path.read_bytes())
    blob[-4:] = (7).to_bytes(4, "little")  # corrupt the last label
    path.write_bytes(bytes(blob))
    with pytest.raises(DumpError, match=r"bad\.lgrd: label 7 of example 3 is not an integer in \[0, 3\)"):
        read_dump(str(path))


def test_csv_sidecar_labels_take_the_same_rule(tmp_path):
    path = tmp_path / "half.csv"
    np.savetxt(path, np.ones((4, 3)), fmt="%.17g", delimiter=",")
    (tmp_path / "half.labels.csv").write_text("0\n0.5\n")
    message = r"half\.csv: label 0.5 of example 1 is not an integer in \[0, 2\)"
    with pytest.raises(DumpError, match=message):
        read_dump(str(path))


def test_write_rejects_out_of_range_labels(tmp_path):
    tensor = np.zeros((2, 3, 4)) + 1.0
    with pytest.raises(DumpError, match=r"x\.lgrd: label 5 of example 1 is not an integer"):
        write_dump(str(tmp_path / "x.lgrd"), tensor, np.array([0, 5]))


@pytest.mark.parametrize("name", ["x.lgrd", "x.csv"])
def test_write_rejects_non_integer_labels(tmp_path, name):
    tensor = np.ones((6, 2, 4))
    path = tmp_path / name
    with pytest.raises(DumpError, match="label 0.5 of example 4 is not an integer"):
        write_dump(str(path), tensor, [0, 0, 1, 1, 0.5, 1.7])
    assert not path.exists()


@pytest.mark.parametrize("name, value", [("nan.lgrd", np.nan), ("inf.csv", -np.inf)])
def test_non_finite_value_raises_value_error(tmp_path, name, value):
    tensor = np.ones((3, 2, 4))
    tensor[1, 0, 2] = value
    path = str(tmp_path / name)
    write_dump(path, tensor, np.array([0, 1, 0]))
    with pytest.raises(DumpError, match=f"non-finite value {value} at example 1, logit 0, weight 2"):
        read_dump(path)


def scored_error(path, capsys):
    """The one error line ``cluster --input path`` exits 1 with."""
    assert cli.run_command(["cluster", "--input", str(path), "--out", str(path) + ".out"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    return line


# A file with two faults reports the first of: header, size, labels, class
# counts, then per block of examples a non-finite value, then a zero row.
def test_a_label_error_is_reported_before_a_non_finite_value(tmp_path, capsys):
    tensor = np.ones((4, 3, 5))
    tensor[1, 0, 2] = np.nan
    path = tmp_path / "both.lgrd"
    write_dump(str(path), tensor, [0, 1, 2, 0])
    blob = bytearray(path.read_bytes())
    blob[-4:] = (7).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    message = "label 7 of example 3 is not an integer in [0, 3)"
    with pytest.raises(DumpError, match=re.escape(message)):
        read_dump(str(path))
    assert scored_error(path, capsys) == f"error: {path}: {message}"


def test_a_class_count_error_is_reported_before_a_non_finite_value(tmp_path, capsys):
    tensor = np.ones((4, 2, 5))
    tensor[3, 1, 4] = np.inf
    path = tmp_path / "both.lgrd"
    write_dump(str(path), tensor, [0, 0, 0, 1])
    message = "non-finite value inf at example 3, logit 1, weight 4"
    with pytest.raises(DumpError, match=message):  # reading alone finds the value
        read_dump(str(path))
    line = scored_error(path, capsys)
    assert line == "error: class 1 has 1 labeled example(s); need at least 2"


def test_a_zero_row_is_reported_before_a_non_finite_value_in_a_later_block(
    tmp_path, capsys, monkeypatch
):
    tensor = np.random.default_rng(7).standard_normal((6, 2, 5))
    tensor[1, 0] = 0.0
    tensor[3, 1, 2] = np.nan
    path = tmp_path / "both.lgrd"
    write_dump(str(path), tensor, [0, 1, 0, 1, 0, 1])
    # in one block the non-finite value is found first
    assert "non-finite value nan at example 3, logit 1, weight 2" in scored_error(path, capsys)
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", 8 * 2 * 5 * 2)  # two examples per block
    line = scored_error(path, capsys)
    assert line == "error: zero gradient vector at example 1, logit 0"


@pytest.mark.parametrize("scale", [1e160, 1e-162, 1e-170])
def test_scoring_does_not_depend_on_a_scale_whose_squares_overflow_or_underflow(
    tmp_path, scale
):
    # cosines do not depend on scale: at 1e160 the rows' sums of squares
    # overflow; at 1e-162 some squares underflow (q_sl was off by 0.07), at
    # 1e-170 all of them, though no row is zero
    gen = np.random.default_rng(9)
    tensor = gen.standard_normal((8, 2, 5)) + gen.standard_normal((2, 5))
    reports = []
    for name, factor in [("plain.lgrd", 1.0), ("scaled.lgrd", scale)]:
        write_dump(str(tmp_path / name), tensor * factor, np.arange(8) % 2)
        out = tmp_path / (name + ".out")
        # pyproject's filterwarnings makes numpy's overflow warning fail the test
        assert cli.run_command(["cluster", "--input", str(tmp_path / name),
                                "--out", str(out)]) == 0
        reports.append(json.loads((out / "clustering.json").read_text()))
    plain, scaled = reports
    for key in ("q_sl", "q_slsc", "q_dl"):
        assert scaled[key] == pytest.approx(plain[key], rel=0, abs=1e-12), key
    assert np.allclose(scaled["per_class_q"], plain["per_class_q"], rtol=0, atol=1e-12)


def test_write_rejects_a_tensor_of_another_rank(tmp_path):
    path = tmp_path / "flat.lgrd"
    with pytest.raises(ValueError, match=r"expected an \(N, C, D\) tensor, got shape \(3, 4\)"):
        write_dump(str(path), np.ones((3, 4)), [0, 1, 0])
    assert not path.exists()


def test_write_rejects_mismatched_label_count(tmp_path):
    tensor = np.ones((3, 2, 4))
    with pytest.raises(DumpError, match=r"labels of shape \(2,\) for 3 examples"):
        write_dump(str(tmp_path / "x.lgrd"), tensor, np.array([0, 1]))


def test_csv_missing_sidecar_raises_os_error(tmp_path):
    tensor = np.ones((2, 2, 3))
    path = str(tmp_path / "solo.csv")
    np.savetxt(path, tensor.reshape(4, 3), fmt="%.17g", delimiter=",")
    with pytest.raises(OSError):
        read_dump(path)


def test_csv_row_count_mismatch(tmp_path):
    path = tmp_path / "odd.csv"
    np.savetxt(path, np.ones((7, 3)), fmt="%.17g", delimiter=",")
    np.savetxt(tmp_path / "odd.labels.csv", np.zeros((2, 1)), fmt="%d")
    with pytest.raises(DumpError, match="not a multiple"):
        read_dump(str(path))


@pytest.mark.parametrize(
    "data, labels, failed, message",
    [
        ("1,2,3\n4,5\n", "0\n", "bad.csv", "the number of columns changed from 3 to 2"),
        ("1,2,3\n4,5,abc\n", "0\n", "bad.csv", "could not convert string 'abc'"),
        ("1,2,3\n4,5,6\n", "zero\n", "bad.labels.csv", "could not convert string 'zero'"),
    ],
    ids=["ragged-row", "non-numeric-value", "non-numeric-label"],
)
def test_malformed_csv_raises_dump_error_with_its_path(tmp_path, data, labels, failed, message):
    path = tmp_path / "bad.csv"
    path.write_text(data)
    (tmp_path / "bad.labels.csv").write_text(labels)
    with pytest.raises(DumpError, match=f"^{re.escape(str(tmp_path / failed))}: {message}"):
        read_dump(str(path))


@pytest.mark.parametrize(
    "data, labels, empty",
    [("", "0\n", "e.csv"), ("1,2,3\n", "", "e.labels.csv")],
    ids=["empty-data", "empty-sidecar"],
)
def test_an_empty_csv_or_sidecar_raises_a_dump_error_without_a_warning(
    tmp_path, data, labels, empty
):
    # numpy's loadtxt warns on an empty file; the empty data file once passed
    # as an (N=1, C=0, D=1) dump, a D that no row gave
    path = tmp_path / "e.csv"
    path.write_text(data)
    (tmp_path / "e.labels.csv").write_text(labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DumpError, match=f"^{re.escape(str(tmp_path / empty))}: .*no data"):
            read_dump(str(path))


def test_cluster_on_an_empty_csv_prints_one_error_line(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    (tmp_path / "e.labels.csv").write_text("0\n")
    result = fresh_python("-m", "lossgeom", "cluster", "--input", str(path),
                          "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: ")


def test_ingested_statistics_match_in_memory(tmp_path):
    params = ModelParams(n_examples=40, n_classes=5, n_weights=80, hyperplane_dim=5)
    grads = sample_logit_gradients(params)
    labels = sample_ensemble(params).labels
    path = str(tmp_path / "round.lgrd")
    write_dump(path, grads, labels)
    data, _ = read_dump(path)
    assert q_sl(data) == q_sl(grads)


@pytest.mark.parametrize("n, c, d", [(3, 2, 0), (3, 0, 4), (0, 2, 3), (0, 0, 0),
                                     (0, 2**32 - 1, 2**32 - 1)])
def test_a_dump_of_no_gradient_entries_raises_a_dump_error(tmp_path, capsys, n, c, d):
    # the block step divides by 8*C*D, and a block buffer holds C*D doubles per
    # example: neither may be reached for a dump of no gradient entries
    path = tmp_path / "empty.lgrd"
    path.write_bytes(HEADER.pack(b"LGRD", 1, n, c, d) + np.arange(n, dtype="<i4").tobytes())
    with pytest.raises(DumpError, match="holds no gradient entries"):
        read_dump(str(path))
    assert cli.run_command(["cluster", "--input", str(path), "--out", str(tmp_path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: ")


def test_a_dump_that_shrinks_while_it_is_read_raises_truncated_error(tmp_path, monkeypatch):
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", 8 * 2 * 4)  # one example per block
    tensor = np.random.default_rng(6).standard_normal((5, 2, 4))
    path = tmp_path / "shrinks.lgrd"
    write_dump(str(path), tensor, [0, 1, 0, 1, 0])
    shape, labels, blocks = read_dump_blocks(str(path))  # header, size and labels pass
    os.truncate(path, 20 + 8 * 2 * 4 * 3 + 4)  # the file now ends inside example 3
    for mu in range(3):
        start, block = next(blocks)
        assert start == mu and np.array_equal(block, tensor[mu : mu + 1])
    with pytest.raises(DumpError, match=r"expected \d+ bytes for N=5 C=2 D=4, found 216"):
        next(blocks)


def write_csv_text(path, text, labels):
    path.write_text(text)
    path.with_name(path.stem + ".labels.csv").write_text("".join(f"{k}\n" for k in labels))


@pytest.mark.parametrize("rows_per_block", [1, 2, 3, 7, 100])
def test_csv_blocks_are_the_whole_parse_bit_for_bit(tmp_path, monkeypatch, rows_per_block):
    # 7 examples of 3 logits; np.loadtxt skips the blank and comment-only lines,
    # and so does the row count that gives C
    n, c, d = 7, 3, 4
    tensor = np.random.default_rng(10).standard_normal((n, c, d))
    lines = [",".join(f"{v:.17g}" for v in row) for row in tensor.reshape(n * c, d)]
    lines[4] += "  # a trailing comment"
    for at, extra in [(9, ""), (3, "# a comment line"), (0, "#"), (17, ""), (21, "")]:
        lines.insert(at, extra)
    path = tmp_path / "gaps.csv"
    write_csv_text(path, "\n".join(lines) + "\n\n", np.arange(n) % c)
    whole = np.loadtxt(path, delimiter=",").reshape(n, c, d)
    assert whole.tobytes() == tensor.tobytes()
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", rows_per_block * 8 * c * d)
    shape, labels, blocks = read_dump_blocks(str(path))
    assert shape == (n, c, d) and np.array_equal(labels, np.arange(n) % c)
    starts = []
    for start, block in blocks:
        starts.append(start)
        assert block.tobytes() == whole[start : start + len(block)].tobytes()
    assert starts == list(range(0, n, min(rows_per_block, n)))


@pytest.mark.parametrize(
    "last, message",
    [
        ("1,2,3\n4,5\n1,2,3\n4,5,6\n", r"the number of columns changed from 3 to 2 at row 2;"
                                       r" .* \(in examples 4 to 5\)"),
        ("1,2\n4,5\n1,2\n4,5\n", r"read 4 x 2 values, need 4 x 3 \(in examples 4 to 5\)"),
        ("1,2,3\n4,5,x\n1,2,3\n4,5,6\n", r"could not convert string 'x' .* \(in examples 4 to 5\)"),
    ],
    ids=["ragged-row", "ragged-block", "bad-value"],
)
def test_a_bad_csv_row_in_a_later_block_is_named_at_its_block(
    tmp_path, capsys, monkeypatch, last, message
):
    # blocks of two examples of two rows; the earlier blocks are read and
    # scored first, and a NaN in an earlier block is reported before the row
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", 2 * 8 * 2 * 3)
    path = tmp_path / "late.csv"
    write_csv_text(path, "1,2,3\n4,5,6\n" * 4 + last, [0, 1, 0, 1, 0, 1])
    with pytest.raises(DumpError, match=f"^{re.escape(str(path))}: {message}$"):
        read_dump(str(path))
    assert re.fullmatch(f"error: {re.escape(str(path))}: {message}", scored_error(path, capsys))
    write_csv_text(path, "1,2,3\n4,5,6\n1,nan,3\n" + "4,5,6\n1,2,3\n" * 2 + "4,5,6\n" + last,
                   [0, 1, 0, 1, 0, 1])
    assert "non-finite value nan at example 1, logit 0, weight 1" in scored_error(path, capsys)


def test_a_csv_that_shrinks_after_its_rows_are_counted_raises_a_dump_error(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(gradients, "_BLOCK_BYTES", 2 * 8 * 2 * 4)  # two examples per block
    tensor = np.random.default_rng(11).standard_normal((5, 2, 4))
    path = tmp_path / "shrinks.csv"
    write_dump(str(path), tensor, [0, 1, 0, 1, 0])
    text = path.read_text()
    shape, labels, blocks = read_dump_blocks(str(path))  # the rows count: (5, 2, 4)
    assert shape == (5, 2, 4)
    path.write_text("".join(text.splitlines(keepends=True)[:7]))  # ends inside example 3
    start, block = next(blocks)
    assert start == 0 and block.tobytes() == tensor[:2].tobytes()
    with pytest.raises(DumpError, match=r"read 3 x 4 values, need 4 x 4 \(in examples 2 to 3\)"):
        next(blocks)


def test_scoring_a_csv_dump_holds_no_copy_of_the_tensor(tmp_path):
    # cluster --input parses one block of examples at a time, so its peak does
    # not grow with N; parsing the whole file peaked at 11.8 and 108.9 MB here
    c, d = 4, 100
    digits = np.random.default_rng(12).integers(1, 10, (300 * c, d))  # no zero rows
    lines = "".join(",".join(map(str, row)) + "\n" for row in digits)
    peaks = []
    for n in (3000, 30000):
        path, out = tmp_path / f"{n}.csv", tmp_path / f"out{n}"
        write_csv_text(path, lines * (n // 300), np.arange(n) % c)
        peaks.append(peak_bytes(cli.run_command,
                                ["cluster", "--input", str(path), "--out", str(out)]))
        assert (out / "clustering.json").exists()
        path.unlink()
    print(f"cluster --input peaks at N=3000 and N=30000: {peaks[0]} and {peaks[1]} bytes")
    assert abs(peaks[1] - peaks[0]) < 2**20


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        read_dump(str(tmp_path / "absent.lgrd"))


FUZZ = settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
HEADER = struct.Struct("<4sIIII")


def read_rejects_or_returns(path, capsys):
    """read_dump on a malformed file may only raise a DumpError or OSError;
    scoring it (``cluster --input``) exits 0, or 1 with one error line."""
    try:
        data, labels = read_dump(str(path))
    except (DumpError, OSError):
        pass
    else:
        assert data.shape[:1] == labels.shape
    code = cli.run_command(["cluster", "--input", str(path), "--out", str(path) + ".out"])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        [line] = err.splitlines()
        assert code == 1 and line.startswith("error: "), (code, err)


@FUZZ
@given(st.binary(max_size=200))
def test_random_bytes_raise_only_dump_errors(tmp_path, capsys, blob):
    path = tmp_path / "fuzz.lgrd"
    path.write_bytes(blob)
    read_rejects_or_returns(path, capsys)


@st.composite
def headed_payloads(draw):
    """An LGRD header with any fields, then a payload about the size it promises."""
    field = st.integers(0, 4) | st.integers(0, 2**32 - 1)
    version = draw(st.sampled_from([1, 1, 0, 2]) | field)
    n, c, d = draw(field), draw(field), draw(field)
    promised = 8 * n * c * d + 4 * n
    size = promised + draw(st.integers(-2, 2)) if promised <= 2000 else 0
    payload = draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))
    return HEADER.pack(b"LGRD", version, n, c, d) + payload


@FUZZ
@given(headed_payloads())
def test_random_headers_and_payloads_raise_only_dump_errors(tmp_path, capsys, blob):
    path = tmp_path / "fuzz.lgrd"
    path.write_bytes(blob)
    read_rejects_or_returns(path, capsys)


def test_every_truncation_raises_a_dump_error(tmp_path):
    tensor = np.random.default_rng(4).standard_normal((3, 2, 4))
    path = tmp_path / "whole.lgrd"
    write_dump(str(path), tensor, np.array([0, 1, 1]))
    blob = path.read_bytes()
    cut = tmp_path / "cut.lgrd"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(DumpError):
            read_dump(str(cut))


@st.composite
def tensors_and_labels(draw):
    n, c, d = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    tensor = draw(hnp.arrays(np.float64, (n, c, d), elements=finite))
    labels = draw(hnp.arrays(np.int64, (n,), elements=st.integers(0, c - 1)))
    return tensor, labels


@FUZZ
@given(tensors_and_labels(), st.sampled_from(["x.lgrd", "x.csv"]))
def test_write_read_round_trip_is_bit_exact(tmp_path, case, name):
    tensor, labels = case
    path = str(tmp_path / name)
    write_dump(path, tensor, labels)
    data, read_labels = read_dump(path)
    assert data.shape == tensor.shape
    assert data.tobytes() == tensor.tobytes()
    assert np.array_equal(read_labels, labels)
