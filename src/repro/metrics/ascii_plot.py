"""Terminal rendering of series and distributions, without a plotting stack.

* :func:`sparkline` — one-line series (trace arrival rates);
* :func:`histogram` — distribution shape (Fig. 4b, Fig. 13b).
"""

from __future__ import annotations

import math

import numpy as np

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
_BAR_CHAR = "█"


def sparkline(values: list[float], width: int | None = None) -> str:
    """Render a series as a one-line unicode sparkline.

    Values are min-max normalised; NaNs render as spaces.  ``width``
    resamples the series by bucket means so long series fit a terminal.
    """
    if not values:
        return ""
    data = np.asarray(values, dtype=float)
    if width is not None and width > 0 and data.shape[0] > width:
        edges = np.linspace(0, data.shape[0], width + 1).astype(int)
        data = np.array(
            [
                np.nanmean(data[a:b]) if b > a else math.nan
                for a, b in zip(edges[:-1], edges[1:])
            ]
        )
    finite = data[np.isfinite(data)]
    if finite.size == 0:
        return " " * data.shape[0]
    lo, hi = float(finite.min()), float(finite.max())
    span = hi - lo
    chars = []
    for v in data:
        if not math.isfinite(v):
            chars.append(" ")
            continue
        level = 0 if span == 0 else int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


def histogram(
    values: list[float],
    *,
    bins: int = 12,
    width: int = 40,
    title: str | None = None,
) -> str:
    """Vertical-label histogram of a latency (or any scalar) distribution."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    data = np.asarray(values, dtype=float)
    data = data[np.isfinite(data)]
    lines = []
    if title:
        lines.append(title)
    if data.size == 0:
        lines.append("(no data)")
        return "\n".join(lines)
    counts, edges = np.histogram(data, bins=bins)
    cmax = counts.max()
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        n = 0 if cmax == 0 else int(round(count / cmax * width))
        lines.append(f"[{lo:9.3g}, {hi:9.3g}) | {_BAR_CHAR * n} {count}")
    return "\n".join(lines)
