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
gradient entry). Reading and writing check labels by the rule and message
of scoring (:func:`~lossgeom.gradients.class_labels`), prefixed by the path.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .gradients import class_labels, gradient_tensor

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

    data: np.ndarray  # (N, C, D) float64
    labels: np.ndarray  # (N,) int32


def _csv_sidecar(path: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + ".labels.csv"


def write_dump(path: str, grads, labels) -> None:
    """Write an (N, C, D) tensor plus labels in the format ``path`` implies."""
    tensor = gradient_tensor(grads)
    n, c, d = tensor.shape
    labels = _labels(path, labels, n, c)
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
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:4] != MAGIC:
            raise DumpMagicError(
                f"{path}: not an LGRD dump (magic {header[:4]!r}, need {MAGIC!r})"
            )
        _, version, n, c, d = _HEADER.unpack(header)
        if version != VERSION:
            raise DumpMagicError(f"{path}: unsupported LGRD version {version}")
        expected = _HEADER.size + n * c * d * 8 + n * 4
        found = os.fstat(fh.fileno()).st_size
        if found != expected:
            raise DumpTruncatedError(
                f"{path}: expected {expected} bytes for N={n} C={c} D={d}, "
                f"found {found}"
            )
        data = np.fromfile(fh, dtype="<f8", count=n * c * d).reshape(n, c, d)
        labels = np.fromfile(fh, dtype="<i4", count=n)
    return _checked(path, data, labels)


def _read_csv_dump(path: str) -> LogitGradientDump:
    sidecar = _csv_sidecar(path)
    labels = np.loadtxt(sidecar, ndmin=1)  # reals, so the label rule sees 0.5
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    n = labels.shape[0]
    rows = data.shape[0]
    if n == 0 or rows % n != 0:
        raise DumpTruncatedError(
            f"{path}: {rows} gradient rows are not a multiple of the "
            f"{n} labels in {sidecar}"
        )
    c = rows // n
    return _checked(path, data.reshape(n, c, data.shape[1]), labels)


def _labels(path: str, labels, n: int, c: int) -> np.ndarray:
    try:
        return class_labels(labels, n, c)
    except ValueError as exc:
        raise DumpLabelError(f"{path}: {exc}") from None


def _checked(path: str, data: np.ndarray, labels: np.ndarray) -> LogitGradientDump:
    # min and max propagate NaN and expose +-inf without a full-size mask
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        mu, k, j = (int(i) for i in np.argwhere(~np.isfinite(data))[0])
        raise DumpValueError(
            f"{path}: non-finite value {float(data[mu, k, j])} at example {mu}, "
            f"logit {k}, weight {j}"
        )
    n, c, _ = data.shape
    return LogitGradientDump(data=data, labels=_labels(path, labels, n, c))
