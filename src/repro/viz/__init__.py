"""Text-mode visualization and CSV export of reproduced figures.

The text charts live in the leaf module :mod:`repro._ascii` so that
lower layers (``repro.core.report``) can render them without importing
this presentation layer; they are exported here under the same names.
"""

from .._ascii import (
    bar_chart,
    heatmap,
    line_chart,
    multi_line_chart,
    rug,
    scatter_chart,
)
from .export import export_series, export_table

__all__ = [
    "bar_chart",
    "export_series",
    "export_table",
    "heatmap",
    "line_chart",
    "multi_line_chart",
    "rug",
    "scatter_chart",
]
