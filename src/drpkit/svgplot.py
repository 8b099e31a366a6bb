"""Minimal static SVG rendering of coverage curves.

Hand-rolled line plot: unit axes, a dashed diagonal reference, one polyline
per input CSV with its shaded uncertainty band, and a legend built from the
CSV metadata. The band is the +-z-sigma binomial addition of this toolkit
(the legend labels it), not something the curves themselves carry.
"""

from __future__ import annotations

from .fileio import atomic_write_text, read_coverage_csv

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 16.0, 48.0
_PLOT_W, _PLOT_H = 420.0, 420.0


def _sx(c):
    return _MARGIN_L + c * _PLOT_W


def _sy(v):
    return _MARGIN_T + (1.0 - v) * _PLOT_H


def _fmt_points(xs, ys):
    return " ".join(f"{_sx(x):.2f},{_sy(y):.2f}" for x, y in zip(xs, ys))


def _curve_label(meta):
    """The legend text, escaped for XML: a policy can echo a file path."""
    bits = [meta.get("method", "curve")]
    policy = meta.get("policy", "")
    if policy:
        bits.append(policy)
    return " ".join(bits).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_coverage_svg(csv_paths, out_path):
    """Render one or more coverage CSVs into a standalone SVG file."""
    curves = []
    for p in csv_paths:
        levels, _, ecp, lo, hi, meta = read_coverage_csv(p)
        curves.append((levels, ecp, lo, hi, meta))

    width = _MARGIN_L + _PLOT_W + _MARGIN_R + 190
    height = _MARGIN_T + _PLOT_H + _MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="sans-serif" font-size="12">',
        f'<rect x="{_sx(0):.2f}" y="{_sy(1):.2f}" width="{_PLOT_W:.2f}" height="{_PLOT_H:.2f}" '
        'fill="white" stroke="black" stroke-width="1"/>',
    ]
    for tick in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        x, y = _sx(tick), _sy(tick)
        parts.append(f'<text x="{x:.2f}" y="{_sy(0) + 18:.2f}" text-anchor="middle">{tick:g}</text>')
        parts.append(f'<text x="{_sx(0) - 8:.2f}" y="{y + 4:.2f}" text-anchor="end">{tick:g}</text>')
    parts.append(
        f'<text x="{_sx(0.5):.2f}" y="{_sy(0) + 38:.2f}" text-anchor="middle">'
        "credibility level 1 - alpha</text>"
    )
    parts.append(
        f'<text x="16" y="{_sy(0.5):.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_sy(0.5):.2f})">expected coverage probability</text>'
    )
    # dashed diagonal reference (the optimal-estimator curve)
    parts.append(
        f'<line x1="{_sx(0):.2f}" y1="{_sy(0):.2f}" x2="{_sx(1):.2f}" y2="{_sy(1):.2f}" '
        'stroke="black" stroke-width="1" stroke-dasharray="6,4"/>'
    )

    legend_x = _MARGIN_L + _PLOT_W + 24
    legend_y = _MARGIN_T + 16
    for idx, (levels, ecp, lo, hi, meta) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        band_pts = _fmt_points(levels, lo) + " " + _fmt_points(levels[::-1], hi[::-1])
        parts.append(f'<polygon points="{band_pts}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        parts.append(
            f'<polyline points="{_fmt_points(levels, ecp)}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        label = _curve_label(meta)
        y = legend_y + 22 * idx
        parts.append(
            f'<line x1="{legend_x:.2f}" y1="{y - 4:.2f}" x2="{legend_x + 26:.2f}" y2="{y - 4:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{legend_x + 32:.2f}" y="{y:.2f}">{label}</text>')
    band_note_y = legend_y + 22 * len(curves) + 8
    parts.append(
        f'<text x="{legend_x:.2f}" y="{band_note_y:.2f}" font-size="10">'
        "shaded: pointwise binomial band</text>"
    )
    parts.append(
        f'<text x="{legend_x:.2f}" y="{band_note_y + 14:.2f}" font-size="10">'
        "(toolkit addition, not from data)</text>"
    )
    parts.append("</svg>")
    atomic_write_text(out_path, "\n".join(parts) + "\n")
