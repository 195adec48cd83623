import hashlib
import os
import sys
import threading

import numpy as np
import pytest

from helpers import philox_generator, serial_gaussians
from lossgeom import rng
from lossgeom.rng import CHUNK_PAIRS, RngStream

# draw counts around the chunk edges, in normals (two per pair)
CHUNK_EDGE_COUNTS = [
    0, 1, 2, 3, 7, CHUNK_PAIRS - 1, CHUNK_PAIRS, CHUNK_PAIRS + 1,
    2 * CHUNK_PAIRS - 1, 2 * CHUNK_PAIRS, 2 * CHUNK_PAIRS + 1, 3 * CHUNK_PAIRS + 5,
]


def test_same_seed_and_label_reproduce_exactly():
    a = RngStream(7, "alpha").gaussians(256)
    b = RngStream(7, "alpha").gaussians(256)
    assert np.array_equal(a, b)


def test_distinct_labels_give_distinct_streams():
    a = RngStream(7, "alpha").gaussians(256)
    b = RngStream(7, "beta").gaussians(256)
    assert not np.array_equal(a, b)


def test_distinct_seeds_give_distinct_streams():
    a = RngStream(7, "alpha").gaussians(256)
    b = RngStream(8, "alpha").gaussians(256)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.bool_(True), np.float64(1.0), "1"])
def test_a_seed_that_is_not_an_integer_is_rejected(seed):
    # int(seed) would truncate 1.5 and True to seed 1's stream
    with pytest.raises(ValueError, match="^seed must be an integer, got "):
        RngStream(seed, "alpha")


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int32(7), np.uint8(7)])
def test_a_numpy_integer_seed_gives_the_int_seeds_stream(seed):
    assert np.array_equal(RngStream(seed, "alpha").uniforms(64),
                          RngStream(7, "alpha").uniforms(64))


def test_uniforms_live_in_half_open_unit_interval():
    u = RngStream(0, "u").uniforms(10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_gaussian_moments_at_one_million_draws():
    z = RngStream(0, "moments").gaussians(1_000_000)
    n = z.size
    mean = z.mean()
    var = z.var()
    kurtosis = ((z - mean) ** 4).mean() / var**2 - 3.0
    assert abs(mean) <= 4.0 / np.sqrt(n)
    assert abs(var - 1.0) <= 0.01
    # Excess kurtosis of a unit Gaussian is 0 with standard error sqrt(24/n).
    assert abs(kurtosis) <= 3.0 * np.sqrt(24.0 / n)


def test_gaussians_odd_count():
    z = RngStream(1, "odd").gaussians(7)
    assert z.shape == (7,)
    assert np.isfinite(z).all()


def test_permutation_is_a_permutation_and_deterministic():
    p = RngStream(2, "perm").permutation(500)
    q = RngStream(2, "perm").permutation(500)
    assert np.array_equal(p, q)
    assert np.array_equal(np.sort(p), np.arange(500))


def test_permutations_vary_with_seed():
    p = RngStream(2, "perm").permutation(500)
    r = RngStream(3, "perm").permutation(500)
    assert not np.array_equal(p, r)


def test_integers_respect_bound_and_determinism():
    a = RngStream(4, "ints").integers(13, 2_000)
    b = RngStream(4, "ints").integers(13, 2_000)
    assert np.array_equal(a, b)
    assert a.min() >= 0
    assert a.max() < 13
    # Every residue should appear in a draw this long.
    assert np.unique(a).size == 13


def test_integers_reject_nonpositive_bound():
    with pytest.raises(ValueError):
        RngStream(0, "ints").integers(0, 4)


def test_gaussians_have_scale_sigma():
    z = RngStream(5, "matrix").gaussians(200 * 300, 2.0)
    assert z.shape == (200 * 300,)
    assert abs(z.std() - 2.0) < 0.05


def test_zero_sigma_gaussians_are_zero_but_advance_the_stream():
    stream_a = RngStream(6, "zero")
    zeros = stream_a.gaussians(100, 0.0)
    after_zero = stream_a.gaussians(16)

    stream_b = RngStream(6, "zero")
    stream_b.gaussians(100, 1.0)
    after_draw = stream_b.gaussians(16)

    assert not zeros.any()
    assert np.array_equal(after_zero, after_draw)


def test_gaussians_reject_negative_sigma():
    with pytest.raises(ValueError):
        RngStream(0, "neg").gaussians(4, -1.0)


def test_stream_rejects_bad_arguments():
    with pytest.raises(ValueError):
        RngStream(-1, "x")
    with pytest.raises(ValueError):
        RngStream(0, "")
    with pytest.raises(ValueError):
        RngStream(0, "x").gaussians(-1)


@pytest.mark.parametrize("before", range(6))
@pytest.mark.parametrize("n", CHUNK_EDGE_COUNTS)
def test_chunked_gaussians_match_the_serial_transform_bit_for_bit(n, before):
    # 1-5 earlier uniforms leave the stream off a Philox block boundary
    stream, oracle = RngStream(9, "chunks"), philox_generator(9, "chunks")
    assert np.array_equal(stream.uniforms(before), oracle.random(before))
    z = stream.gaussians(n)
    assert z.tobytes() == serial_gaussians(oracle, n).tobytes()
    # the stream continues where the serial transform left it
    assert np.array_equal(stream.uniforms(5), oracle.random(5))
    expected = np.argsort(oracle.random(33), kind="stable")
    assert np.array_equal(stream.permutation(33), expected)


def test_scaled_gaussians_are_sigma_times_the_serial_transform():
    n = 3 * CHUNK_PAIRS + 5
    z = RngStream(4, "scaled").gaussians(n, 0.3)
    assert z.tobytes() == (0.3 * serial_gaussians(philox_generator(4, "scaled"), n)).tobytes()


def test_gaussians_are_pinned():
    z = RngStream(0, "golden").gaussians(1_000_003)
    assert hashlib.sha256(z.tobytes()).hexdigest() == (
        "365b0f592a9c1f302a37fa1731b09cb80a680bb546e1b71758f22799ba34daaa"
    )


def test_concurrent_streams_draw_exactly():
    # each thread computes its own draw's chunks; no state is shared
    n = 3 * CHUNK_PAIRS + 5
    labels = [f"worker{i}" for i in range(2 * os.cpu_count() + 2)]
    results = {}

    def draw(label):
        results[label] = RngStream(1, label).gaussians(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(label,)) for label in labels]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for label in labels:
        expected = serial_gaussians(philox_generator(1, label), n)
        assert np.array_equal(results[label], expected)


@pytest.mark.parametrize("n", [7, 2 * CHUNK_PAIRS + 1, 3 * CHUNK_PAIRS + 5])
def test_gaussians_into_out_are_a_fresh_draw(n):
    # a reserved draw written into a caller's buffer, in runs that split pairs,
    # out of order
    fresh, into = RngStream(3, "out"), RngStream(3, "out")
    expected = fresh.gaussians(n, 0.7)
    draw = rng.GaussianDraw(into, n, 0.7)
    buf = np.full(n, np.nan)
    edges = [0, 1, n // 3, n // 3 + 1, n - 1, n]
    for a, b in reversed(list(zip(edges, edges[1:]))):
        draw.fill(buf[a:b], a)
    assert buf.tobytes() == expected.tobytes()
    # reserving moved the stream to the same position
    assert np.array_equal(into.uniforms(5), fresh.uniforms(5))


def test_zero_sigma_zeroes_out():
    buf = np.ones((3, 3))
    assert rng.GaussianDraw(RngStream(0, "zero-out"), 9, 0.0).fill(buf) is None
    assert not buf.any()


def _read_only(n):
    buf = np.empty(n)
    buf.flags.writeable = False
    return buf


@pytest.mark.parametrize(
    "buf",
    [np.empty(10), np.empty(9, dtype=np.float32), np.empty(18)[::2], _read_only(9), [0.0] * 9],
    ids=["size", "dtype", "strided", "read-only", "list"],
)
def test_unusable_out_raises_before_any_draw(buf):
    draw = rng.GaussianDraw(RngStream(5, "bad-out"), 9)
    with pytest.raises(ValueError, match=r"dest must be a writable C-contiguous float64|"
                       r"draws \[0, 10\) are not among the 9"):
        draw.fill(buf)
    # nothing was consumed: the draw still fills a usable buffer with the fresh draw
    good = np.empty(9)
    draw.fill(good)
    assert good.tobytes() == RngStream(5, "bad-out").gaussians(9).tobytes()
