"""Logit-gradient dump files (ingestion of externally measured gradients).

Binary layout (extension anything but ``.csv``, conventionally ``.lgrd``):

    bytes 0..3    magic ``LGRD`` (ASCII)
    bytes 4..19   four unsigned 32-bit little-endian ints: version=1, N, C, D
    then          N*C*D IEEE-754 64-bit little-endian reals, example-major,
                  logit-next, weight-last (C-order of an (N, C, D) tensor)
    then          N signed 32-bit little-endian labels in [0, C)

CSV alternative (auto-detected by the ``.csv`` extension): one row of D
values per (example, logit) pair, example-major, written with 17 significant
digits (lossless for float64); labels live in a sidecar file named
``<stem>.labels.csv``, one label per line. N is the sidecar's label count, C
is inferred from the count of rows (lines empty but for a ``#`` comment are
skipped, as ``np.loadtxt`` skips them) and D from the first row.

Every malformed input raises :class:`DumpError` with a message that says
which fault it found: the magic or version, the size (with expected vs.
actual byte counts, or CSV rows that are no multiple of N or end early), a
CSV row or value that does not parse or an empty CSV file (prefixed by the
data file or the sidecar), a label, a NaN or infinite gradient entry (with
its place in the tensor), or a dump of no gradient entries (N*C*D = 0).
Reading and writing check labels by the rule and message of scoring
(:func:`~lossgeom.gradients.class_labels`), prefixed by the path.

:func:`read_dump_blocks` is the one reader of both formats: it checks the
header, the size and the labels, then reads
:func:`~lossgeom.gradients.block_rows` examples at a time, each block
checked as it is read. Scoring (``cluster --input``) never holds the tensor.
So a file with two faults reports the first in this order: header, then
size, then labels (and, when scored, the class counts), then per block of
examples, in file order, a CSV row that does not parse or is ragged, a
non-finite value, then (when scored) a zero gradient row.
"""

from __future__ import annotations

import os
import struct
import warnings

import numpy as np

from .gradients import block_rows, class_labels

MAGIC = b"LGRD"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")


class DumpError(ValueError):
    """A malformed dump file; the message names the fault."""


def _csv_sidecar(path: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + ".labels.csv"


def write_dump(path: str, grads, labels) -> None:
    """Write an (N, C, D) tensor plus labels in the format ``path`` implies.

    A binary write copies only a tensor that is not C-ordered ``<f8``."""
    tensor = np.asarray(grads, dtype=float)
    if tensor.ndim != 3:
        raise ValueError(f"expected an (N, C, D) tensor, got shape {tensor.shape}")
    n, c, d = tensor.shape
    labels = _labels(path, labels, n, c)
    if path.endswith(".csv"):
        np.savetxt(path, tensor.reshape(n * c, d), fmt="%.17g", delimiter=",")
        np.savetxt(_csv_sidecar(path), labels[:, np.newaxis], fmt="%d")
        return
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n, c, d))
        np.ascontiguousarray(tensor, dtype="<f8").tofile(fh)
        fh.write(labels.astype("<i4").tobytes())


def read_dump_blocks(path: str):
    """Check the dump at ``path``; return ((N, C, D), labels, blocks).

    The header, the size and the labels are checked before this returns.
    ``blocks`` yields (start, J[start : start + rows]), rows =
    :func:`~lossgeom.gradients.block_rows`, each block checked as it is read:
    a CSV block for its rows and columns, then every block for non-finite
    values. A binary file is read into one reused ``<f8`` buffer, which the
    caller must be done with when it asks for the next block; a CSV file is
    parsed one block at a time from one open handle.
    """
    csv = path.endswith(".csv")
    shape, labels = (_csv_head if csv else _lgrd_head)(path)
    n, c, d = shape
    if n * c * d == 0:
        raise DumpError(f"{path}: N={n} C={c} D={d} holds no gradient entries")
    blocks = (_csv_blocks if csv else _lgrd_blocks)(path, shape)
    return shape, _labels(path, labels, n, c), _finite_blocks(path, blocks)


def _lgrd_head(path: str):
    """(N, C, D) and the raw labels of a binary dump, once its header and size check."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:4] != MAGIC:
            raise DumpError(
                f"{path}: not an LGRD dump (magic {header[:4]!r}, need {MAGIC!r})"
            )
        _, version, n, c, d = _HEADER.unpack(header)
        if version != VERSION:
            raise DumpError(f"{path}: unsupported LGRD version {version}")
        if os.fstat(fh.fileno()).st_size != _HEADER.size + n * c * d * 8 + n * 4:
            raise _truncated(path, fh, n, c, d)
        fh.seek(_HEADER.size + n * c * d * 8)
        raw = fh.read(n * 4)
        if len(raw) != n * 4:  # the file shrank after the size check
            raise _truncated(path, fh, n, c, d)
    return (n, c, d), np.frombuffer(raw, dtype="<i4")


def _lgrd_blocks(path: str, shape: tuple):
    n, c, d = shape
    step = block_rows(n, c, d)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        buffer = np.empty((step, c, d), dtype="<f8")
        for start in range(0, n, step):
            block = buffer[: n - start]
            if fh.readinto(block) != block.nbytes:  # the file shrank after the size check
                raise _truncated(path, fh, n, c, d)
            yield start, block


def _truncated(path: str, fh, n: int, c: int, d: int) -> DumpError:
    return DumpError(
        f"{path}: expected {_HEADER.size + n * c * d * 8 + n * 4} bytes for N={n} C={c} "
        f"D={d}, found {os.fstat(fh.fileno()).st_size}"
    )


def _finite_blocks(path: str, blocks):
    for start, block in blocks:
        # min and max propagate NaN and expose +-inf without a block-size mask
        if not (np.isfinite(block.min()) and np.isfinite(block.max())):
            mu, k, j = (int(i) for i in np.argwhere(~np.isfinite(block))[0])
            raise DumpError(
                f"{path}: non-finite value {float(block[mu, k, j])} at example "
                f"{start + mu}, logit {k}, weight {j}"
            )
        yield start, block


def _csv_head(path: str):
    """(N, C, D) and the raw labels of a CSV dump, once its rows count."""
    sidecar = _csv_sidecar(path)
    labels = _loadtxt(sidecar, sidecar, ndmin=1)  # reals, so the label rule sees 0.5
    with open(path, encoding="latin-1") as fh:  # any byte decodes; a non-ASCII one fails to parse
        rows = (data for data in (line.partition("#")[0] for line in fh) if data not in ("", "\n"))
        first = next(rows, "")
        count = sum(1 for _ in rows) + (first != "")
    for name, size in ((sidecar, len(labels)), (path, count)):
        if size == 0:
            raise DumpError(f"{name}: the file holds no data")
    if count % len(labels) != 0:
        raise DumpError(f"{path}: {count} gradient rows are not a multiple of the "
                        f"{len(labels)} labels in {sidecar}")
    return (len(labels), count // len(labels), first.count(",") + 1), labels


def _csv_blocks(path: str, shape: tuple):
    n, c, d = shape
    step = block_rows(n, c, d)
    with open(path, encoding="latin-1") as fh:
        for start in range(0, n, step):
            rows = min(step, n - start)
            where = f" (in examples {start} to {start + rows - 1})"
            block = _loadtxt(path, fh, where, delimiter=",", ndmin=2, max_rows=rows * c)
            if block.shape != (rows * c, d):  # a ragged block, or the file shrank after the count
                raise DumpError(f"{path}: read {block.shape[0]} x {block.shape[1]} values, "
                                f"need {rows * c} x {d}{where}")
            yield start, block.reshape(rows, c, d)


def _loadtxt(path: str, source, where: str = "", **kwargs) -> np.ndarray:
    """``np.loadtxt(source)``, an empty array for a source of no data, without
    numpy's warnings; a parse error (a ragged row, a value that is not a
    number) raises a :class:`DumpError` prefixed by ``path``, then ``where``."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "loadtxt: input contained no data")
            warnings.filterwarnings("ignore", "Input line .* contained no data")
            return np.loadtxt(source, **kwargs)
    except UserWarning:
        return np.empty((0, 0))
    except ValueError as exc:
        raise DumpError(f"{path}: {exc}{where}") from None


def _labels(path: str, labels, n: int, c: int) -> np.ndarray:
    try:
        return class_labels(labels, n, c)
    except ValueError as exc:
        raise DumpError(f"{path}: {exc}") from None
