"""Minimal native SVG line rendering; CSV stays the normative output."""

from __future__ import annotations

import numpy as np

from .serialize import write_atomic

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float) -> np.ndarray:
    span = hi - lo if hi > lo else 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


def line_plot(path: str, series: list[tuple[np.ndarray, np.ndarray, str]],
              title: str = "", width: int = 880, height: int = 360) -> None:
    """Write a plain line plot; each series is (x, y, label)."""
    margin = 50
    xs_all = np.concatenate([np.asarray(x, dtype=float) for x, _, _ in series])
    ys_all = np.concatenate([np.asarray(y, dtype=float) for _, y, _ in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin // 2}" width="{width - 2 * margin}" '
        f'height="{height - margin - margin // 2}" fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width // 2}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for k, (x, y, label) in enumerate(series):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        px = _scale(x, x_lo, x_hi, margin, width - margin)
        py = _scale(y, y_lo, y_hi, height - margin, margin // 2)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin // 2 + 14 * (k + 1)}" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append(
        f'<text x="{margin - 6}" y="{height - margin + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y_lo:.3g}</text>'
    )
    parts.append(
        f'<text x="{margin - 6}" y="{margin // 2 + 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{y_hi:.3g}</text>'
    )
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts))


def projection_plot(path: str, trajectories: list[tuple[np.ndarray, str]],
                    title: str = "", width: int = 520, height: int = 520) -> None:
    """Axonometric projection of (T, 3) trajectories onto the plane."""
    series = []
    for states, label in trajectories:
        s = np.asarray(states, dtype=float)
        u = s[:, 0] + 0.45 * s[:, 1]
        v = s[:, 2] + 0.45 * s[:, 1]
        series.append((u, v, label))
    line_plot(path, series, title=title, width=width, height=height)
