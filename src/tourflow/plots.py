"""Deterministic SVG renderers for report matrices and per-item values.

No plotting library is used: the emitters build the SVG text directly
with fixed-precision coordinates, derive any jitter from a hash of the
item label, and carry no timestamps, so the same input always produces
byte-identical output.  Labels and titles are escaped as XML text, and
the metadata comment never holds ``--``, so any label gives well-formed
SVG.
"""

from __future__ import annotations

import hashlib
import re
from typing import Sequence

from .graph import _xml_escape as escape

_BLUE = (33, 102, 172)
_WHITE = (247, 247, 247)
_RED = (178, 24, 43)

_FONT = 'font-family="monospace" font-size="11"'
_TITLE_FONT = 'font-family="monospace" font-size="14"'


def _mix(low: tuple[int, int, int], high: tuple[int, int, int], t: float) -> str:
    t = min(1.0, max(0.0, t))
    channels = (round(a + (b - a) * t) for a, b in zip(low, high))
    return "#{:02x}{:02x}{:02x}".format(*channels)


def _cell_color(value: float, low: float, high: float, signed: bool) -> str:
    if signed:
        span = max(abs(low), abs(high)) or 1.0
        if value < 0:
            return _mix(_WHITE, _BLUE, -value / span)
        return _mix(_WHITE, _RED, value / span)
    span = (high - low) or 1.0
    return _mix(_WHITE, _BLUE, (value - low) / span)


def _label_fraction(label: str) -> float:
    """Stable pseudo-random fraction in [0, 1) derived from the label."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def _document(width: float, height: float, body: list[str], meta: str | None) -> str:
    head = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
    ]
    if meta:
        # "--" may not occur inside an XML comment.
        head.append(f"<!-- {re.sub('-(?=-)', '- ', meta)} -->")
    return "\n".join(head + body + ["</svg>"]) + "\n"


def heatmap_svg(
    values: Sequence[Sequence[float]],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    title: str = "",
    meta: str | None = None,
) -> str:
    """Matrix heatmap with one rect per cell.

    A signed colour scale (blue below zero, red above, symmetric about
    zero) is used whenever any cell is negative; otherwise the scale
    runs white to blue over the value range.
    """
    rows = len(row_labels)
    cols = len(col_labels)
    if rows == 0 or cols == 0 or any(len(row) != cols for row in values) or len(values) != rows:
        raise ValueError("heatmap needs a non-empty matrix matching its labels")
    flat = [float(v) for row in values for v in row]
    low, high = min(flat), max(flat)
    signed = low < 0.0
    row_labels, col_labels = list(map(escape, row_labels)), list(map(escape, col_labels))
    cell = 34.0
    left, top = 110.0, 50.0
    width = left + cols * cell + 20.0
    height = top + rows * cell + 70.0
    body: list[str] = []
    if title:
        body.append(f'<text x="{left:.1f}" y="24" {_TITLE_FONT}>{escape(title)}</text>')
    for j, label in enumerate(col_labels):
        x = left + j * cell + cell / 2.0
        y = top + rows * cell + 14.0
        body.append(
            f'<text x="{x:.1f}" y="{y:.1f}" {_FONT} text-anchor="end" '
            f'transform="rotate(-45 {x:.1f} {y:.1f})">{label}</text>'
        )
    for i, label in enumerate(row_labels):
        y = top + i * cell + cell / 2.0 + 4.0
        body.append(f'<text x="{left - 8.0:.1f}" y="{y:.1f}" {_FONT} text-anchor="end">{label}</text>')
        for j in range(cols):
            value = float(values[i][j])
            x = left + j * cell
            y0 = top + i * cell
            fill = _cell_color(value, low, high, signed)
            body.append(
                f'<rect class="cell" x="{x:.1f}" y="{y0:.1f}" width="{cell:.1f}" '
                f'height="{cell:.1f}" fill="{fill}" stroke="#888" stroke-width="0.5">'
                f"<title>{label},{col_labels[j]}: {value:.6g}</title></rect>"
            )
    return _document(width, height, body, meta)


def strip_svg(
    labels: Sequence[str],
    values: Sequence[float | None],
    title: str = "",
    meta: str | None = None,
) -> str:
    """Single-column strip plot: value on the y-axis, jitter on x.

    Each defined value becomes one circle; the horizontal offset is a
    stable hash of the label, so repeated renders coincide exactly.
    Items with value None are omitted.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    defined = [(label, float(v)) for label, v in zip(labels, values) if v is not None]
    width, height = 320.0, 420.0
    top, bottom = 50.0, 380.0
    axis_x, column_x, jitter = 70.0, 190.0, 70.0
    if defined:
        low = min(v for _, v in defined)
        high = max(v for _, v in defined)
    else:
        low, high = 0.0, 1.0
    if high == low:
        high = low + 1.0
    scale = (bottom - top) / (high - low)
    body: list[str] = []
    if title:
        body.append(f'<text x="20" y="24" {_TITLE_FONT}>{escape(title)}</text>')
    body.append(
        f'<line x1="{axis_x:.1f}" y1="{top:.1f}" x2="{axis_x:.1f}" y2="{bottom:.1f}" '
        'stroke="#333" stroke-width="1"/>'
    )
    for tick in (low, high, 0.0) if low < 0.0 < high else (low, high):
        y = bottom - (tick - low) * scale
        body.append(
            f'<line x1="{axis_x - 4.0:.1f}" y1="{y:.1f}" x2="{axis_x:.1f}" y2="{y:.1f}" '
            'stroke="#333" stroke-width="1"/>'
        )
        body.append(
            f'<text x="{axis_x - 8.0:.1f}" y="{y + 4.0:.1f}" {_FONT} '
            f'text-anchor="end">{tick:.3g}</text>'
        )
    for label, value in defined:
        x = column_x + (_label_fraction(label) - 0.5) * jitter
        y = bottom - (value - low) * scale
        body.append(
            f'<circle class="mark" cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#2166ac" '
            f'fill-opacity="0.75"><title>{escape(label)}: {value:.6g}</title></circle>'
        )
    return _document(width, height, body, meta)


def bar_svg(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    meta: str | None = None,
) -> str:
    """Vertical bar chart with a zero baseline; one rect per label."""
    if len(labels) != len(values) or not labels:
        raise ValueError("bar chart needs equally many labels and values, at least one")
    numbers = [float(v) for v in values]
    low = min(0.0, min(numbers))
    high = max(0.0, max(numbers))
    if high == low:
        high = low + 1.0
    slot = 40.0
    left, top, bottom = 70.0, 50.0, 340.0
    width = left + slot * len(labels) + 20.0
    height = bottom + 80.0
    scale = (bottom - top) / (high - low)
    zero_y = bottom - (0.0 - low) * scale
    body: list[str] = []
    if title:
        body.append(f'<text x="20" y="24" {_TITLE_FONT}>{escape(title)}</text>')
    body.append(
        f'<line x1="{left - 10.0:.1f}" y1="{zero_y:.1f}" '
        f'x2="{left + slot * len(labels):.1f}" y2="{zero_y:.1f}" stroke="#333" stroke-width="1"/>'
    )
    for i, (label, value) in enumerate(zip(map(escape, labels), numbers)):
        x = left + i * slot + 6.0
        y = bottom - (value - low) * scale
        bar_top = min(y, zero_y)
        bar_height = abs(y - zero_y)
        fill = "#2166ac" if value < 0.0 else "#b2182b"
        body.append(
            f'<rect class="bar" x="{x:.1f}" y="{bar_top:.2f}" width="{slot - 12.0:.1f}" '
            f'height="{bar_height:.2f}" fill="{fill}">'
            f"<title>{label}: {value:.6g}</title></rect>"
        )
        tx = x + (slot - 12.0) / 2.0
        ty = bottom + 14.0
        body.append(
            f'<text x="{tx:.1f}" y="{ty:.1f}" {_FONT} text-anchor="end" '
            f'transform="rotate(-45 {tx:.1f} {ty:.1f})">{label}</text>'
        )
    return _document(width, height, body, meta)
