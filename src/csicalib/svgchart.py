"""Minimal SVG line charts; cosmetic companions to the authoritative CSVs."""

from __future__ import annotations

import math

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT = 640, 420


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render (label, xs, ys) series as a single SVG document string."""
    width, height, margin = _WIDTH, _HEIGHT, 60
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if not math.isnan(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    # A one-value axis spans 1, or one ulp where adding 1 rounds back.
    if x_max == x_min:
        x_max = x_min + max(1.0, math.ulp(x_min))
    if y_max == y_min:
        y_max = y_min + max(1.0, math.ulp(y_min))

    def sx(x: float) -> float:
        return margin + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return height - margin - (y - y_min) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="16" y="{height / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height / 2})">{y_label}</text>',
    ]

    for tick in range(5):
        xv = x_min + tick * (x_max - x_min) / 4
        yv = y_min + tick * (y_max - y_min) / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 16}" text-anchor="middle" '
            f'font-size="10">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{sy(yv):.1f}" text-anchor="end" '
            f'font-size="10">{yv:.3g}</text>'
        )

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(xs, ys)
            if not math.isnan(y)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 14 * idx + 10}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
