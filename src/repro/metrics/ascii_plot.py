"""Terminal rendering of a series as a one-line sparkline (trace arrival
rates), without a plotting stack."""

from __future__ import annotations

import math

import numpy as np

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


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
