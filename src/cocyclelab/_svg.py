"""Minimal deterministic SVG line plots, no dependencies.

One polyline over a framed viewport with linear axes. Coordinates are
formatted with fixed precision so identical data yields identical bytes.
"""

import math
from typing import List, Optional, Sequence, Tuple

WIDTH = 640.0
HEIGHT = 400.0
MARGIN_L = 70.0
MARGIN_R = 20.0
MARGIN_T = 30.0
MARGIN_B = 50.0
TICKS = 5


def _span(vals: Sequence[float]) -> Tuple[float, float]:
    lo, hi = min(vals), max(vals)
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def line_plot(xs: Sequence[float], ys: Sequence[float],
              xlabel: str = "x", ylabel: str = "y", title: str = "",
              comment: Optional[str] = None) -> str:
    """Render one polyline; returns the SVG document as text."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if not xs:
        raise ValueError("nothing to plot")
    x0, x1 = _span(xs)
    y0, y1 = _span(ys)
    iw = WIDTH - MARGIN_L - MARGIN_R
    ih = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x0) / (x1 - x0) * iw

    def py(y: float) -> float:
        return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * ih

    out: List[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    if comment is not None:
        out.append(f"<!-- {comment} -->")
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
               f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">')
    out.append('<rect width="100%" height="100%" fill="white"/>')
    frame = (f'M {_fmt(MARGIN_L)} {_fmt(MARGIN_T)} '
             f'H {_fmt(WIDTH - MARGIN_R)} V {_fmt(HEIGHT - MARGIN_B)} '
             f'H {_fmt(MARGIN_L)} Z')
    out.append(f'<path d="{frame}" fill="none" stroke="black" stroke-width="1"/>')
    for i in range(TICKS):
        f = i / (TICKS - 1)
        tx = x0 + f * (x1 - x0)
        gx = px(tx)
        out.append(f'<line x1="{_fmt(gx)}" y1="{_fmt(HEIGHT - MARGIN_B)}" '
                   f'x2="{_fmt(gx)}" y2="{_fmt(HEIGHT - MARGIN_B + 5)}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{_fmt(gx)}" y="{_fmt(HEIGHT - MARGIN_B + 18)}" '
                   f'font-size="11" text-anchor="middle">{_tick_label(tx)}</text>')
        ty = y0 + f * (y1 - y0)
        gy = py(ty)
        out.append(f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(gy)}" '
                   f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(gy)}" stroke="black"/>')
        out.append(f'<text x="{_fmt(MARGIN_L - 8)}" y="{_fmt(gy + 4)}" '
                   f'font-size="11" text-anchor="end">{_tick_label(ty)}</text>')
    pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" '
               f'stroke-width="1.5"/>')
    out.append(f'<text x="{_fmt(MARGIN_L + iw / 2)}" '
               f'y="{_fmt(HEIGHT - 12)}" font-size="12" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="14" y="{_fmt(MARGIN_T + ih / 2)}" font-size="12" '
               f'text-anchor="middle" '
               f'transform="rotate(-90 14 {_fmt(MARGIN_T + ih / 2)})">'
               f'{ylabel}</text>')
    if title:
        out.append(f'<text x="{_fmt(MARGIN_L + iw / 2)}" y="20" font-size="13" '
                   f'text-anchor="middle">{title}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def plot_csv_text(csv_text: str, title: str = "",
                  comment: Optional[str] = None) -> str:
    """Plot column 2 against column 1 of a CSV document.

    Leading '#' comment lines are skipped; the header row provides the axis
    labels. Rows whose first two fields do not parse as finite numbers are
    dropped: an inf or nan coordinate has no place on linear axes.
    """
    lines = [ln for ln in csv_text.splitlines()
             if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise ValueError("CSV has no data rows")
    header = lines[0].split(",")
    if len(header) < 2:
        raise ValueError("CSV needs at least two columns")
    xs: List[float] = []
    ys: List[float] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        try:
            x, y = float(parts[0]), float(parts[1])
        except (ValueError, IndexError):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        xs.append(x)
        ys.append(y)
    if not xs:
        raise ValueError("CSV has no numeric rows")
    return line_plot(xs, ys, xlabel=header[0], ylabel=header[1], title=title,
                     comment=comment)
