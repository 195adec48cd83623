"""Deterministic, labeled random streams.

Reproducibility contract
------------------------
Every random quantity in this package is drawn from an :class:`RngStream`,
made from a seed and a label. The construction is fixed and documented so
that the uniforms are the same on every platform, and results are
bit-reproducible for the same numpy build at the same CPU-dispatch level:

* Generator: numpy's Philox 4x64 (10 rounds), a counter-based generator,
  keyed (not seeded) directly. The 128-bit key is the first 16 bytes of
  ``SHA-256(seed as 8 little-endian bytes || 0x1F || label as UTF-8)``,
  interpreted as two little-endian unsigned 64-bit words.
* Uniform doubles come from ``Generator.random()`` (53-bit mantissa fill,
  stable across numpy versions), one 64-bit word each, in stream order.
* Gaussians are produced by an explicit Box-Muller transform on those
  uniforms (see :meth:`RngStream.gaussians`) rather than numpy's ziggurat,
  so the uniform->normal mapping is pinned by this module, not by numpy's
  sampler; its ``log1p`` is numpy's kernel for the CPU, so normals agree
  across CPU-dispatch levels to roundoff, not bit for bit.
* Permutations sort one uniform per element (argsort, stable ties).
* Bounded integers use the floor method ``floor(u * n)``; the modulo bias is
  below n/2^53, negligible for every n used here.

A stream is its key plus the count of uniforms drawn so far. A Gaussian
draw is first reserved (:class:`GaussianDraw`), which moves the stream past
its uniforms, and then filled, whole or in runs such as a block of examples'
rows. Each run splits its pairs into chunks, run on a thread pool of one
thread per usable core (started at the first such draw, not at import); each
chunk reads its uniforms at its own offset, so the draws and the stream's
position after them are those of the serial transform whatever the runs,
chunks or core count.

Streams with distinct labels are derived from cryptographically separated
keys and are treated as independent. A stream is stateful and must not be
shared by two concurrent consumers; make one stream per task instead.
"""

from __future__ import annotations

import functools
import hashlib
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK_PAIRS = 1 << 15  # Box-Muller pairs per pool task
_pool: dict[str, ThreadPoolExecutor] = {}  # made at the first chunked draw
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_pool.clear)


def _executor() -> ThreadPoolExecutor:
    # racing first draws agree on one pool; a losing candidate never starts a thread
    if "pool" not in _pool:
        affinity = getattr(os, "sched_getaffinity", None)  # Linux: the usable cores
        cores = len(affinity(0)) if affinity else os.cpu_count() or 1
        _pool.setdefault("pool", ThreadPoolExecutor(cores))
    return _pool["pool"]


class RngStream:
    """A labeled, deterministic random stream (see module docstring)."""

    def __init__(self, seed: int, label: str):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
        if not label:
            raise ValueError("stream label must be a nonempty string")
        digest = hashlib.sha256(
            int(seed).to_bytes(8, "little") + b"\x1f" + label.encode("utf-8")
        ).digest()
        self._key = np.frombuffer(digest[:16], dtype="<u8")
        self._drawn = 0  # uniforms consumed so far

    def _take(self, n: int, uniforms: int) -> int:
        """Check a draw count n and count ``uniforms`` more as drawn; returns
        the offset of the first."""
        if n < 0:
            raise ValueError(f"draw count must be nonnegative, got {n}")
        self._drawn += uniforms
        return self._drawn - uniforms

    def _at(self, offset: int) -> np.random.Generator:
        """A generator whose next uniform is the stream's draw number ``offset``."""
        bits = np.random.Philox(key=self._key)
        bits.advance(offset // 4)  # one Philox block is four 64-bit words
        gen = np.random.Generator(bits)
        gen.random(offset % 4)
        return gen

    def uniforms(self, n: int) -> np.ndarray:
        """n i.i.d. uniform doubles in [0, 1)."""
        n = int(n)
        return self._at(self._take(n, n)).random(n)

    def gaussians(self, n: int, sigma: float = 1.0) -> np.ndarray:
        """n i.i.d. Normal(0, sigma^2) draws via Box-Muller.

        Consumes m = ceil(n/2) pairs: pair j takes the stream's next uniforms
        u1 = draw j and u2 = draw m + j, and gives draws 2j and 2j+1,
        sigma * (r cos theta) and sigma * (r sin theta) with
        r = sqrt(-2 ln(1 - u1)) and theta = 2 pi u2 (odd n drops the last
        sine). Using 1 - u1 keeps the log argument in (0, 1]. ``sigma = 0``
        returns zeros and computes nothing, but still consumes the pairs.
        """
        draw = GaussianDraw(self, n, sigma)
        out = np.empty(draw.n)
        draw.fill(out)
        return out

    def permutation(self, n: int) -> np.ndarray:
        """A uniform permutation of range(n), via argsort of n uniforms."""
        return np.argsort(self.uniforms(n), kind="stable")

    def integers(self, n: int, size: int) -> np.ndarray:
        """``size`` i.i.d. integers uniform over {0, ..., n-1} (floor method)."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return np.minimum((self.uniforms(size) * n).astype(np.int64), n - 1)


class GaussianDraw:
    """n draws of :meth:`RngStream.gaussians`, reserved: the stream moves past
    their uniforms now, and :meth:`fill` computes any run of them later. Pair
    j reads the reservation's uniforms j and m + j, so a run equals the same
    run of the whole draw bit for bit, whatever the runs, order or thread.
    """

    def __init__(self, stream: RngStream, n: int, sigma: float = 1.0):
        if not sigma >= 0:
            raise ValueError(f"sigma must be nonnegative, got {sigma!r}")
        self.n, self.sigma, self._stream = int(n), sigma, stream
        self._pairs = (self.n + 1) // 2
        self._start = stream._take(self.n, 2 * self._pairs)

    def fill(self, dest: np.ndarray, first: int = 0, background: bool = False):
        """Write draws [first, first + dest.size) into ``dest``, a writable
        C-contiguous float64 array, in row-major order. The pairs run in
        chunks, on the sampling pool when there are several or ``background``
        is set; that returns the chunks' futures at once, else they are done.
        """
        if not (isinstance(dest, np.ndarray) and dest.dtype == np.float64
                and dest.flags.c_contiguous and dest.flags.writeable):
            raise ValueError("dest must be a writable C-contiguous float64 array")
        flat = dest.reshape(-1)
        if not 0 <= first <= first + flat.size <= self.n:
            raise ValueError(f"draws [{first}, {first + flat.size}) are not among the {self.n}")
        if self.sigma == 0:
            flat.fill(0.0)
            return []
        low, high = first // 2, (first + flat.size + 1) // 2
        jobs = [functools.partial(self._box_muller, flat, first, a, min(a + CHUNK_PAIRS, high))
                for a in range(low, high, CHUNK_PAIRS)]
        if len(jobs) == 1 and not background:
            jobs[0]()
            return []
        futures = [_executor().submit(job) for job in jobs]
        for future in [] if background else futures:
            future.result()  # errors surface
        return futures

    def _box_muller(self, flat: np.ndarray, first: int, a: int, b: int) -> None:
        """Write the draws of pairs [a, b) that fall in ``flat``, which holds
        draws [first, first + flat.size). r and theta are computed in place and
        the products land in ``flat``: the IEEE operations, and so the bits,
        are those of the serial transform."""
        u1 = self._stream._at(self._start + a).random(b - a)
        u2 = self._stream._at(self._start + self._pairs + a).random(b - a)
        np.negative(u1, out=u1)
        np.log1p(u1, out=u1)
        u1 *= -2.0
        np.sqrt(u1, out=u1)  # r
        u2 *= 2.0 * np.pi  # theta
        trig = np.empty(b - a)
        for phase, fn in enumerate((np.cos, np.sin)):
            # pairs j in [lo, hi) put draw 2j + phase inside flat
            lo = max(a, (first - phase + 1) // 2)
            hi = min(b, (first + flat.size - phase + 1) // 2)
            if lo < hi:
                dest = flat[2 * lo + phase - first : 2 * hi + phase - first - 1 : 2]
                fn(u2[lo - a : hi - a], out=trig[: hi - lo])
                np.multiply(u1[lo - a : hi - a], trig[: hi - lo], out=dest)
                dest *= self.sigma

