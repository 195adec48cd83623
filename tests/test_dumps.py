import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import peak_bytes
from lossgeom import (
    DumpError,
    DumpLabelError,
    DumpMagicError,
    DumpTruncatedError,
    DumpValueError,
    ModelParams,
    q_sl,
    read_dump,
    sample_ensemble,
    sample_logit_gradients,
    write_dump,
)


def small_set(seed=0):
    params = ModelParams(
        n_examples=12, n_classes=4, n_weights=9, seed=seed, hyperplane_dim=3
    )
    return sample_logit_gradients(params), sample_ensemble(params).labels


def test_binary_round_trip_is_bit_exact(tmp_path):
    grads, labels = small_set()
    path = str(tmp_path / "grads.lgrd")
    write_dump(path, grads, labels)
    dump = read_dump(path)
    assert np.array_equal(dump.data, grads)
    assert np.array_equal(dump.labels, labels)


def test_csv_round_trip_is_bit_exact(tmp_path):
    # 17 significant digits print/parse losslessly for float64.
    grads, labels = small_set(seed=1)
    path = str(tmp_path / "grads.csv")
    write_dump(path, grads, labels)
    dump = read_dump(path)
    assert np.array_equal(dump.data, grads)
    assert np.array_equal(dump.labels, labels)
    assert (tmp_path / "grads.labels.csv").exists()


def test_raw_tensor_input(tmp_path):
    tensor = np.random.default_rng(2).standard_normal((5, 3, 4))
    labels = np.array([0, 1, 2, 0, 1])
    path = str(tmp_path / "raw.lgrd")
    write_dump(path, tensor, labels)
    dump = read_dump(path)
    assert np.array_equal(dump.data, tensor)


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
    dump = read_dump(str(path))
    assert dump.data.tobytes() == np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    assert np.array_equal(dump.labels, labels)


def test_binary_write_holds_no_copy_of_the_tensor(tmp_path):
    tensor = np.random.default_rng(5).standard_normal((300, 10, 1000))
    labels = np.arange(300) % 10
    peak = peak_bytes(write_dump, str(tmp_path / "big.lgrd"), tensor, labels)
    print(f"write_dump peak: {peak / tensor.nbytes:.4f}x the tensor")
    assert peak < 0.05 * tensor.nbytes


def test_bad_magic_raises_magic_error(tmp_path):
    path = tmp_path / "junk.lgrd"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DumpMagicError, match="magic"):
        read_dump(str(path))


def test_unsupported_version_raises_magic_error(tmp_path):
    grads, labels = small_set()
    path = tmp_path / "v9.lgrd"
    write_dump(str(path), grads, labels)
    blob = bytearray(path.read_bytes())
    blob[4] = 9  # bump the version field
    path.write_bytes(bytes(blob))
    with pytest.raises(DumpMagicError, match="version 9"):
        read_dump(str(path))


def test_truncated_payload_reports_byte_counts(tmp_path):
    grads, labels = small_set()
    path = tmp_path / "short.lgrd"
    write_dump(str(path), grads, labels)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(DumpTruncatedError, match=r"expected \d+ bytes"):
        read_dump(str(path))


def test_trailing_garbage_rejected(tmp_path):
    grads, labels = small_set()
    path = tmp_path / "long.lgrd"
    write_dump(str(path), grads, labels)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(DumpTruncatedError):
        read_dump(str(path))


def test_out_of_range_label_raises_label_error(tmp_path):
    tensor = np.random.default_rng(3).standard_normal((4, 3, 5))
    path = str(tmp_path / "bad.lgrd")
    write_dump(path, tensor, np.array([0, 1, 2, 0]))
    blob = bytearray(open(path, "rb").read())
    blob[-4:] = (7).to_bytes(4, "little")  # corrupt the last label
    open(path, "wb").write(bytes(blob))
    with pytest.raises(DumpLabelError, match=r"bad\.lgrd: label 7 of example 3 is not an integer in \[0, 3\)"):
        read_dump(path)


def test_csv_sidecar_labels_take_the_same_rule(tmp_path):
    path = tmp_path / "half.csv"
    np.savetxt(path, np.ones((4, 3)), fmt="%.17g", delimiter=",")
    (tmp_path / "half.labels.csv").write_text("0\n0.5\n")
    message = r"half\.csv: label 0.5 of example 1 is not an integer in \[0, 2\)"
    with pytest.raises(DumpLabelError, match=message):
        read_dump(str(path))


def test_write_rejects_out_of_range_labels(tmp_path):
    tensor = np.zeros((2, 3, 4)) + 1.0
    with pytest.raises(DumpLabelError):
        write_dump(str(tmp_path / "x.lgrd"), tensor, np.array([0, 5]))


@pytest.mark.parametrize("name", ["x.lgrd", "x.csv"])
def test_write_rejects_non_integer_labels(tmp_path, name):
    tensor = np.ones((6, 2, 4))
    path = tmp_path / name
    with pytest.raises(DumpLabelError, match="label 0.5 of example 4 is not an integer"):
        write_dump(str(path), tensor, [0, 0, 1, 1, 0.5, 1.7])
    assert not path.exists()


@pytest.mark.parametrize("name, value", [("nan.lgrd", np.nan), ("inf.csv", -np.inf)])
def test_non_finite_value_raises_value_error(tmp_path, name, value):
    tensor = np.ones((3, 2, 4))
    tensor[1, 0, 2] = value
    path = str(tmp_path / name)
    write_dump(path, tensor, np.array([0, 1, 0]))
    with pytest.raises(DumpValueError, match=f"{value} at example 1, logit 0, weight 2"):
        read_dump(path)


def test_write_rejects_mismatched_label_count(tmp_path):
    tensor = np.ones((3, 2, 4))
    with pytest.raises(DumpLabelError, match=r"labels of shape \(2,\) for 3 examples"):
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
    with pytest.raises(DumpTruncatedError, match="multiple"):
        read_dump(str(path))


def test_ingested_statistics_match_in_memory(tmp_path):
    params = ModelParams(n_examples=40, n_classes=5, n_weights=80, hyperplane_dim=5)
    grads = sample_logit_gradients(params)
    labels = sample_ensemble(params).labels
    path = str(tmp_path / "round.lgrd")
    write_dump(path, grads, labels)
    dump = read_dump(path)
    assert q_sl(dump.data) == q_sl(grads)


def test_missing_file_raises_os_error(tmp_path):
    with pytest.raises(OSError):
        read_dump(str(tmp_path / "absent.lgrd"))


FUZZ = settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
HEADER = struct.Struct("<4sIIII")


def read_rejects_or_returns(path):
    """read_dump on a malformed file may only raise a DumpError or OSError."""
    try:
        dump = read_dump(str(path))
    except (DumpError, OSError):
        return
    assert set(vars(dump)) == {"data", "labels"}


@FUZZ
@given(st.binary(max_size=200))
def test_random_bytes_raise_only_dump_errors(tmp_path, blob):
    path = tmp_path / "fuzz.lgrd"
    path.write_bytes(blob)
    read_rejects_or_returns(path)


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
def test_random_headers_and_payloads_raise_only_dump_errors(tmp_path, blob):
    path = tmp_path / "fuzz.lgrd"
    path.write_bytes(blob)
    read_rejects_or_returns(path)


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
    dump = read_dump(path)
    assert dump.data.shape == tensor.shape
    assert dump.data.tobytes() == tensor.tobytes()
    assert np.array_equal(dump.labels, labels)
