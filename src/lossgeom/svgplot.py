"""Minimal standalone SVG emission for sweep and spectrum results.

Purely presentational: nothing downstream depends on these files. Sweep
plots draw one polyline per statistic (each min-max normalized to the plot
height, since the statistics span wildly different scales) against a log
sigma_z axis; spectra are drawn as sorted-eigenvalue scatter plots.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Sequence

import numpy as np

from .experiments import SweepRecord, point_means

WIDTH, HEIGHT = 720, 420
MARGIN = 60
PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]
SWEEP_STATISTICS = tuple(
    f.name for f in fields(SweepRecord) if f.name not in ("sigma_z", "sigma_c", "repeat")
)


def _x_positions(values: np.ndarray, log_x: bool) -> np.ndarray:
    v = np.log10(values) if log_x else values
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo if hi > lo else 1.0
    return MARGIN + (v - lo) / span * (WIDTH - 2 * MARGIN)


def _y_positions(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    return HEIGHT - MARGIN - (values - lo) / span * (HEIGHT - 2 * MARGIN)


def _document(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>\n'
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _sweep_svg(records: Sequence) -> str:
    grid = np.unique([r.sigma_z for r in records])
    xs = _x_positions(grid, log_x=True)
    body = []
    for color, name in zip(PALETTE, SWEEP_STATISTICS):
        ys = _y_positions(point_means(records, name))
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        body.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"><title>{name}</title></polyline>'
        )
    for i, (color, name) in enumerate(zip(PALETTE, SWEEP_STATISTICS)):
        body.append(
            f'<text x="{MARGIN + 8}" y="{MARGIN + 14 * (i + 1)}" '
            f'fill="{color}" font-size="11">{name} (normalized)</text>'
        )
    lo, hi = math.log10(grid.min()), math.log10(grid.max())
    for exp in range(math.ceil(lo), math.floor(hi) + 1):
        x = _x_positions(np.array([10.0**exp, grid.min(), grid.max()]), True)[0]
        body.append(
            f'<text x="{x:.2f}" y="{HEIGHT - MARGIN + 16}" font-size="10" '
            f'text-anchor="middle">1e{exp}</text>'
        )
    body.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" font-size="12" '
        f'text-anchor="middle">sigma_z (log scale)</text>'
    )
    return _document(body)


def _spectrum_svg(eigenvalues: np.ndarray) -> str:
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    xs = _x_positions(np.arange(1, lam.size + 1, dtype=float), log_x=False)
    ys = _y_positions(lam)
    body = [
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="#1f77b4"/>'
        for x, y in zip(xs, ys)
    ]
    body.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" font-size="12" '
        f'text-anchor="middle">eigenvalue index (descending)</text>'
    )
    return _document(body)


def emit_svg(data, kind: str, path: str) -> None:
    """Write an SVG plot of ``data``; kind is 'sweep' or 'spectrum'.

    Sweep records must come in :func:`run_sigma_z_sweep` order.

    Errors on empty input before touching the filesystem.
    """
    if kind == "sweep":
        records = list(data)
        if not records:
            raise ValueError("no sweep records to plot")
        text = _sweep_svg(records)
    elif kind == "spectrum":
        eigenvalues = np.asarray(
            getattr(data, "eigenvalues", data), dtype=float
        ).ravel()
        if eigenvalues.size == 0:
            raise ValueError("no eigenvalues to plot")
        text = _spectrum_svg(eigenvalues)
    else:
        raise ValueError(f"unknown plot kind {kind!r} (use 'sweep' or 'spectrum')")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
