"""Text-mode chart rendering for figure reproduction without matplotlib.

Every figure of the paper is regenerated as a data series; these helpers
render those series as ASCII line charts, bar charts, heatmaps and rug
plots so benchmark output is inspectable directly in a terminal or log.

Like :mod:`repro._rng`, this module lives outside every subpackage so
any layer can use it without crossing the architecture DAG: the public
presentation surface is :mod:`repro.viz`, which exports these charts,
while ``repro.core.report`` renders its component curves through the
same primitives without ``core`` importing ``viz`` (the ``layering``
deep pass forbids that edge).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "line_chart",
    "multi_line_chart",
    "bar_chart",
    "heatmap",
    "rug",
    "scatter_chart",
]

_HEAT_RAMP = " .:-=+*#%@"


def _scale(values: np.ndarray, lo: float, hi: float, size: int) -> np.ndarray:
    span = hi - lo
    if span <= 0:
        return np.zeros(len(values), dtype=int)
    pos = np.round((np.asarray(values) - lo) / span * (size - 1)).astype(int)
    return np.clip(pos, 0, size - 1)


def line_chart(
    x: np.ndarray,
    y: np.ndarray,
    width: int = 72,
    height: int = 16,
    title: str = "",
) -> str:
    """Single-series ASCII line chart."""
    return multi_line_chart(x, {title or "y": np.asarray(y)}, width, height, title)


def multi_line_chart(
    x: np.ndarray,
    series: dict[str, np.ndarray],
    width: int = 72,
    height: int = 16,
    title: str = "",
) -> str:
    """Several series over a shared x axis, one plot symbol per series."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if not series:
        raise ValueError("no series to plot")
    symbols = "*o+x#@%&"
    all_y = np.concatenate([np.asarray(v, dtype=np.float64).ravel() for v in series.values()])
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    x_lo, x_hi = float(np.min(x)), float(np.max(x))

    canvas = [[" "] * width for _ in range(height)]
    for s_idx, (name, y) in enumerate(series.items()):
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.shape != x.shape:
            raise ValueError(f"series {name!r} length mismatch with x")
        cols = _scale(x, x_lo, x_hi, width)
        rows = _scale(y, y_lo, y_hi, height)
        sym = symbols[s_idx % len(symbols)]
        for c, r in zip(cols, rows):
            canvas[height - 1 - r][c] = sym

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:>12.4g} +" + "-" * width)
    for row in canvas:
        lines.append(" " * 13 + "|" + "".join(row))
    lines.append(f"{y_lo:>12.4g} +" + "-" * width)
    lines.append(" " * 14 + f"{x_lo:<12.4g}" + " " * max(0, width - 24) + f"{x_hi:>12.4g}")
    legend = "   ".join(
        f"{symbols[i % len(symbols)]} {name}" for i, name in enumerate(series)
    )
    lines.append(" " * 14 + legend)
    return "\n".join(lines)


def bar_chart(
    labels: list[str], values: np.ndarray, width: int = 50, title: str = ""
) -> str:
    """Horizontal bar chart; bars scale to the largest |value|."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if len(labels) != len(values):
        raise ValueError("labels and values length mismatch")
    biggest = float(np.max(np.abs(values))) if len(values) else 0.0
    lines = [title] if title else []
    label_w = max((len(l) for l in labels), default=0)
    for label, value in zip(labels, values):
        n = 0 if biggest == 0 else int(round(abs(value) / biggest * width))
        bar = ("+" if value >= 0 else "-") * n
        lines.append(f"{label:>{label_w}} | {bar} {value:.4g}")
    return "\n".join(lines)


def heatmap(
    matrix: np.ndarray,
    row_labels: list[str] | None = None,
    col_labels: list[str] | None = None,
    title: str = "",
) -> str:
    """Dense character heatmap; darker ramp characters mean larger values."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    lo, hi = float(np.nanmin(matrix)), float(np.nanmax(matrix))
    span = hi - lo if hi > lo else 1.0
    lines = [title] if title else []
    if row_labels is None:
        row_labels = [str(i) for i in range(matrix.shape[0])]
    label_w = max(len(l) for l in row_labels)
    if col_labels is not None:
        lines.append(" " * (label_w + 2) + " ".join(f"{c:>5}" for c in col_labels))
    for r, row in enumerate(matrix):
        cells = []
        for v in row:
            if np.isnan(v):
                cells.append("  nan")
            else:
                ramp = _HEAT_RAMP[
                    min(int((v - lo) / span * (len(_HEAT_RAMP) - 1)), len(_HEAT_RAMP) - 1)
                ]
                cells.append(f"{ramp}{v:4.2f}"[:5].rjust(5))
        lines.append(f"{row_labels[r]:>{label_w}}  " + " ".join(cells))
    lines.append(f"(range: {lo:.4g} .. {hi:.4g})")
    return "\n".join(lines)


def scatter_chart(
    x: np.ndarray,
    y: np.ndarray,
    width: int = 72,
    height: int = 16,
    title: str = "",
    overlay: tuple[np.ndarray, np.ndarray] | None = None,
) -> str:
    """Scatter plot, optionally with an overlaid curve (dependence plots).

    Scatter points render as ``.``; the overlay curve (e.g. a GEF spline
    on top of a SHAP dependence cloud) renders as ``*``.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError("x and y length mismatch")
    all_x, all_y = [x], [y]
    if overlay is not None:
        ox = np.asarray(overlay[0], dtype=np.float64).ravel()
        oy = np.asarray(overlay[1], dtype=np.float64).ravel()
        if ox.shape != oy.shape:
            raise ValueError("overlay x and y length mismatch")
        all_x.append(ox)
        all_y.append(oy)
    x_lo = float(min(a.min() for a in all_x))
    x_hi = float(max(a.max() for a in all_x))
    y_lo = float(min(a.min() for a in all_y))
    y_hi = float(max(a.max() for a in all_y))

    canvas = [[" "] * width for _ in range(height)]
    for c, r in zip(_scale(x, x_lo, x_hi, width), _scale(y, y_lo, y_hi, height)):
        canvas[height - 1 - r][c] = "."
    if overlay is not None:
        for c, r in zip(
            _scale(ox, x_lo, x_hi, width), _scale(oy, y_lo, y_hi, height)
        ):
            canvas[height - 1 - r][c] = "*"

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:>12.4g} +" + "-" * width)
    for row in canvas:
        lines.append(" " * 13 + "|" + "".join(row))
    lines.append(f"{y_lo:>12.4g} +" + "-" * width)
    lines.append(
        " " * 14 + f"{x_lo:<12.4g}" + " " * max(0, width - 24) + f"{x_hi:>12.4g}"
    )
    if overlay is not None:
        lines.append(" " * 14 + ". scatter   * overlay")
    return "\n".join(lines)


def rug(
    points: np.ndarray, lo: float, hi: float, width: int = 72, label: str = ""
) -> str:
    """Rug plot: tick marks where the points fall within [lo, hi]."""
    points = np.asarray(points, dtype=np.float64).ravel()
    row = [" "] * width
    for pos in _scale(points, lo, hi, width):
        row[pos] = "|"
    prefix = f"{label:>14} " if label else ""
    return prefix + "".join(row)
