"""Reporting helpers: CDFs, box statistics, ASCII rendering and CSV export.

The paper's figures are CDFs (Figure 4), bar charts (Figure 1) and box
plots (Figure 5).  Because the reproduction environment has no plotting
library, each benchmark prints the figure's underlying data as a text table
or ASCII chart and writes the series to CSV so it can be re-plotted
anywhere.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "empirical_cdf",
    "cdf_at",
    "BoxStats",
    "box_stats",
    "format_table",
    "ascii_bar_chart",
    "ascii_cdf",
    "write_csv",
]


def empirical_cdf(values: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Return (sorted values, cumulative fraction) for an empirical CDF."""
    array = np.sort(np.asarray(list(values), dtype=np.float64))
    if array.size == 0:
        return array, array
    fractions = np.arange(1, array.size + 1) / array.size
    return array, fractions


def cdf_at(values: Iterable[float], thresholds: Sequence[float]) -> dict[float, float]:
    """Fraction of values at or below each threshold."""
    array = np.asarray(list(values), dtype=np.float64)
    result = {}
    for threshold in thresholds:
        result[threshold] = float((array <= threshold).mean()) if array.size else float("nan")
    return result


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary (plus mean and count) behind one box of a box plot."""

    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    mean: float
    count: int

    def as_dict(self) -> dict[str, float]:
        return {
            "min": self.minimum, "p25": self.p25, "median": self.median,
            "p75": self.p75, "max": self.maximum, "mean": self.mean,
            "count": float(self.count),
        }


def box_stats(values: Iterable[float]) -> BoxStats:
    """Compute the box-plot statistics of a sample (NaNs are dropped)."""
    array = np.asarray(list(values), dtype=np.float64)
    array = array[~np.isnan(array)]
    if array.size == 0:
        nan = float("nan")
        return BoxStats(nan, nan, nan, nan, nan, nan, 0)
    return BoxStats(
        minimum=float(np.min(array)),
        p25=float(np.percentile(array, 25)),
        median=float(np.percentile(array, 50)),
        p75=float(np.percentile(array, 75)),
        maximum=float(np.max(array)),
        mean=float(np.mean(array)),
        count=int(array.size),
    )


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e4 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return "(empty table)"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    rendered = [[_format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [max(len(column), *(len(line[i]) for line in rendered))
              for i, column in enumerate(columns)]
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
                     for line in rendered)
    return "\n".join([header, separator, body])


#: Bar length of :func:`ascii_bar_chart` at the maximum, in characters.
_BAR_WIDTH = 40

#: Plot size of :func:`ascii_cdf`, in characters.
_CDF_WIDTH, _CDF_HEIGHT = 50, 12


def ascii_bar_chart(values: Mapping[str, float], maximum: float | None = None) -> str:
    """Render a labelled horizontal bar chart (used for Figure 1)."""
    if not values:
        return "(no data)"
    numeric = {label: (0.0 if math.isnan(value) else float(value))
               for label, value in values.items()}
    top = maximum if maximum is not None else max(numeric.values(), default=0.0)
    top = top or 1.0
    label_width = max(len(label) for label in numeric)
    lines = []
    for label, value in numeric.items():
        filled = int(round(_BAR_WIDTH * min(value / top, 1.0)))
        bar = "#" * filled
        lines.append(f"{label.ljust(label_width)} | {bar.ljust(_BAR_WIDTH)} {values[label]:.3g}")
    return "\n".join(lines)


def ascii_cdf(values: Iterable[float]) -> str:
    """Render a rough ASCII CDF (used for the Figure 4 panels).

    The x axis is log10 when some value is positive, linear otherwise.
    """
    width, height = _CDF_WIDTH, _CDF_HEIGHT
    array = np.asarray(list(values), dtype=np.float64)
    array = array[~np.isnan(array)]
    if array.size == 0:
        return "(no data)"
    xs, ys = empirical_cdf(array)
    positive = xs[xs > 0]
    log_x = bool(positive.size)
    if log_x:
        x_low, x_high = math.log10(positive[0]), math.log10(positive[-1] + 1e-12)
    else:
        x_low, x_high = float(xs[0]), float(xs[-1])
    if x_high <= x_low:
        x_high = x_low + 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        position = math.log10(x) if log_x and x > 0 else x
        column = int((position - x_low) / (x_high - x_low) * (width - 1))
        row = int((1.0 - y) * (height - 1))
        column = min(max(column, 0), width - 1)
        row = min(max(row, 0), height - 1)
        grid[row][column] = "*"
    lines = ["".join(row) for row in grid]
    axis = ("log10(x) " if log_x else "x ") + f"from {x_low:.2g} to {x_high:.2g}"
    return "\n".join(lines + [axis])


def write_csv(path: str | Path, rows: Sequence[Mapping[str, object]]) -> Path:
    """Write dict rows to a CSV file (creating parent directories).

    The columns are the first row's keys, in order; a later row's missing
    key writes an empty field and its extra keys are dropped.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        target.write_text("")
        return target
    columns = list(rows[0].keys())
    with target.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in columns})
    return target
