"""Result analysis and paper-style report formatting."""

from repro.analysis.report import (
    format_runtime_bars,
    format_table2,
    format_traffic_bars,
    speedup,
)

__all__ = [
    "format_runtime_bars",
    "format_table2",
    "format_traffic_bars",
    "speedup",
]
