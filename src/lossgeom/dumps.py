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
``<stem>.labels.csv``, one label per line. N is the sidecar's line count and
C is inferred from the row count.

Malformed inputs raise distinct diagnostics: :class:`DumpMagicError`,
:class:`DumpTruncatedError` (with expected vs. actual byte counts),
:class:`DumpLabelError` and :class:`DumpValueError` (a NaN or infinite
gradient entry).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .gradients import gradient_tensor

MAGIC = b"LGRD"
VERSION = 1
_HEADER = struct.Struct("<4sIIII")


class DumpError(ValueError):
    """Base class for malformed dump files."""


class DumpMagicError(DumpError):
    """File does not start with the LGRD magic / supported version."""


class DumpTruncatedError(DumpError):
    """Payload shorter or longer than the header promises."""


class DumpLabelError(DumpError):
    """A label is not an integer in [0, C)."""


class DumpValueError(DumpError):
    """A gradient entry is NaN or infinite."""


@dataclass(frozen=True)
class LogitGradientDump:
    """An ingested (N, C, D) gradient tensor with per-example labels."""

    version: int
    data: np.ndarray  # (N, C, D) float64
    labels: np.ndarray  # (N,) int32

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


def _csv_sidecar(path: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + ".labels.csv"


def write_dump(path: str, grads, labels) -> None:
    """Write an (N, C, D) tensor plus labels in the format ``path`` implies."""
    tensor = gradient_tensor(grads)
    n, c, d = tensor.shape
    given = np.asarray(labels)
    labels = given.astype(np.int32)
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match N={n}")
    bad = np.flatnonzero((labels != given) | (labels < 0) | (labels >= c))
    if bad.size:
        raise DumpLabelError(
            f"label {given[bad[0]]} at example {bad[0]} is not an integer in [0, {c})"
        )
    if path.endswith(".csv"):
        np.savetxt(path, tensor.reshape(n * c, d), fmt="%.17g", delimiter=",")
        np.savetxt(_csv_sidecar(path), labels[:, np.newaxis], fmt="%d")
        return
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n, c, d))
        fh.write(tensor.astype("<f8").tobytes(order="C"))
        fh.write(labels.astype("<i4").tobytes())


def read_dump(path: str) -> LogitGradientDump:
    """Read a dump file (binary or CSV, by extension) into memory."""
    if path.endswith(".csv"):
        return _read_csv_dump(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] != MAGIC:
        raise DumpMagicError(
            f"{path}: not an LGRD dump (magic {blob[:4]!r}, need {MAGIC!r})"
        )
    _, version, n, c, d = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise DumpMagicError(f"{path}: unsupported LGRD version {version}")
    expected = _HEADER.size + n * c * d * 8 + n * 4
    if len(blob) != expected:
        raise DumpTruncatedError(
            f"{path}: expected {expected} bytes for N={n} C={c} D={d}, "
            f"found {len(blob)}"
        )
    offset = _HEADER.size
    data = np.frombuffer(blob, dtype="<f8", count=n * c * d, offset=offset)
    labels = np.frombuffer(blob, dtype="<i4", count=n, offset=offset + n * c * d * 8)
    return _checked(path, data.reshape(n, c, d).copy(), labels.copy(), version)


def _read_csv_dump(path: str) -> LogitGradientDump:
    sidecar = _csv_sidecar(path)
    labels = np.loadtxt(sidecar, dtype=np.int64, ndmin=1)
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    n = labels.shape[0]
    rows = data.shape[0]
    if n == 0 or rows % n != 0:
        raise DumpTruncatedError(
            f"{path}: {rows} gradient rows are not a multiple of the "
            f"{n} labels in {sidecar}"
        )
    c = rows // n
    return _checked(path, data.reshape(n, c, data.shape[1]), labels, VERSION)


def _checked(
    path: str, data: np.ndarray, labels: np.ndarray, version: int
) -> LogitGradientDump:
    # min and max propagate NaN and expose +-inf without a full-size mask
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        mu, k, j = (int(i) for i in np.argwhere(~np.isfinite(data))[0])
        raise DumpValueError(
            f"{path}: non-finite value {float(data[mu, k, j])} at example {mu}, "
            f"logit {k}, weight {j}"
        )
    c = data.shape[1]
    bad = (labels < 0) | (labels >= c)
    if bad.any():
        mu = int(np.flatnonzero(bad)[0])
        raise DumpLabelError(
            f"{path}: label {int(labels[mu])} at example {mu} outside [0, {c})"
        )
    return LogitGradientDump(
        version=version, data=data, labels=labels.astype(np.int32)
    )
