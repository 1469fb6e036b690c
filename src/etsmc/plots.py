"""Minimal deterministic SVG emission for trajectory and event figures.

Hand-rolled on purpose: byte-stable output for fixed input is part of the
artifact contract, which rules out plotting libraries that embed ids or
timestamps.  Line style for state profiles, stem style for event intervals.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

WIDTH = 800
HEIGHT = 500
MARGIN = 60

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

MAX_POINTS = 2000  # per-series cap; plots are summaries, CSVs are exact


class PlotError(ValueError):
    """Raised for unplottable input (e.g. empty series)."""


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _text(x: int, y: int, anchor: str, size: int, body: str,
          extra: str = "") -> str:
    """One sans-serif <text> element; extra holds further attributes."""
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family='
            f'"sans-serif" font-size="{size}"{extra}>{body}</text>')


def _scale(arrays: list) -> tuple[float, float]:
    """Bounds of the values of arrays, taken in order by builtin min and
    max: a nan gives the bound only where it comes first (np.min would
    return nan wherever one is)."""
    vals = np.concatenate(arrays).tolist()
    lo = min(vals)
    hi = max(vals)
    if hi == lo:
        if math.isinf(lo):
            raise PlotError(f"cannot scale an axis whose values are all {lo}")
        # at |lo| >= 2**53 rounding absorbs +-0.5; one ulp always separates,
        # but past +-float max it overflows, so that bound stays put
        pad = 0.5 if lo - 0.5 != hi + 0.5 else math.ulp(lo)
        lo = max(lo - pad, -sys.float_info.max)
        hi = min(hi + pad, sys.float_info.max)
    return lo, hi


def _thin(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every stride-th point and the last, at most MAX_POINTS + 1 of them."""
    n = len(xs)
    stride = -(-n // MAX_POINTS)
    if (n - 1) % stride:
        return np.append(xs[::stride], xs[-1]), np.append(ys[::stride], ys[-1])
    return xs[::stride], ys[::stride]


def emit_plot(series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
              style: str, path, title: str = "",
              xlabel: str = "", ylabel: str = "") -> None:
    """Write a standalone SVG for the named (xs, ys) series.

    style is 'line' (polyline per series) or 'stem' (vertical bar per point).
    xs and ys are read as float64 arrays, without a copy where they already
    are one (an ndarray, a memoryview of doubles); a series longer than
    MAX_POINTS keeps every stride-th point and the last.
    Raises PlotError on empty input or an axis flat at +-inf; no file is
    written in that case.
    """
    if style not in ("line", "stem"):
        raise PlotError(f"unknown style {style!r}")
    series = [(name, np.asarray(xs, dtype=np.float64),
               np.asarray(ys, dtype=np.float64)) for name, xs, ys in series]
    if not series or any(len(xs) == 0 or len(ys) == 0 for _, xs, ys in series):
        raise PlotError("cannot plot empty series")
    for name, xs, ys in series:
        if len(xs) != len(ys):
            raise PlotError(f"series {name!r}: mismatched lengths")

    thinned = [(name, *_thin(xs, ys)) for name, xs, ys in series]
    xlo, xhi = _scale([xs for _, xs, _ in thinned])
    ylo, yhi = _scale([ys for _, _, ys in thinned]
                      + ([[0.0]] if style == "stem" else []))

    # the same float operations, in the same order, on a point or an array
    def px(v):
        return MARGIN + (v - xlo) / (xhi - xlo) * (WIDTH - 2 * MARGIN)

    def py(v):
        return HEIGHT - MARGIN - (v - ylo) / (yhi - ylo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(_text(WIDTH // 2, MARGIN // 2, "middle", 16, title))
    if xlabel:
        parts.append(_text(WIDTH // 2, HEIGHT - 15, "middle", 13, xlabel))
    if ylabel:
        parts.append(_text(18, HEIGHT // 2, "middle", 13, ylabel,
                           f' transform="rotate(-90 18 {HEIGHT // 2})"'))
    # axis extremes
    parts += [
        _text(MARGIN, HEIGHT - MARGIN + 18, "middle", 11, _fmt(xlo)),
        _text(WIDTH - MARGIN, HEIGHT - MARGIN + 18, "middle", 11, _fmt(xhi)),
        _text(MARGIN - 8, HEIGHT - MARGIN + 4, "end", 11, _fmt(ylo)),
        _text(MARGIN - 8, MARGIN + 4, "end", 11, _fmt(yhi)),
    ]

    for idx, (name, xs, ys) in enumerate(thinned):
        color = PALETTE[idx % len(PALETTE)]
        # Python float semantics: an overflow gives inf and inf - inf nan,
        # silently; the axes are never flat here, so nothing divides by 0
        with np.errstate(over="ignore", invalid="ignore", divide="raise"):
            pxs, pys = px(xs).tolist(), py(ys).tolist()
        if style == "line":
            pts = " ".join(map("{:.3f},{:.3f}".format, pxs, pys))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        else:
            base = _fmt(py(0.0))
            parts.extend(f'<line x1="{x}" y1="{base}" x2="{x}" y2="{y:.3f}" '
                         f'stroke="{color}" stroke-width="1"/>'
                         for x, y in zip(map(_fmt, pxs), pys))
        if name:
            parts.append(_text(WIDTH - MARGIN, MARGIN + 16 * (idx + 1), "end",
                               12, name, f' fill="{color}"'))
    parts.append("</svg>\n")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts))
