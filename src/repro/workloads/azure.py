"""The Fig. 1 measurement over Azure Functions invocation traces.

The paper drives its evaluation with Microsoft Azure Functions traces [57]
(per-minute invocation counts per function, keyed by hashed owner/app ids)
and reports the Fig. 1 phenomenon on the "Top-1" and "Top-2" apps: the CV
of the request distribution differs by up to 7x depending on the window it
is measured over.  Traces are read in the AzureFunctionsDataset2019 layout
by :mod:`repro.workloads.azure2019`; this module measures a loaded
:class:`~repro.workloads.azure2019.Azure2019Window`:

* :func:`binned_count_cv` / :func:`multi_window_cv` — CV of per-minute
  counts re-aggregated into each measurement window;
* :func:`app_counts` — functions grouped into apps by ``HashOwner/HashApp``;
* :func:`fig1_report` — the total plus the top-2 apps at every window.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.azure2019 import BIN_SECONDS, Azure2019Window

#: The Fig. 1 measurement windows (seconds).
FIG1_WINDOWS = (180.0, 3 * 3600.0, 12 * 3600.0)


def binned_count_cv(counts: np.ndarray, bin_seconds: float, window: float) -> float:
    """CV of counts re-aggregated from ``bin_seconds`` bins into ``window`` bins.

    Fig. 1 measures the CV of the request distribution at several window
    sizes; for a binned trace that is the std/mean of window-aggregated
    counts.  ``window`` is rounded to a whole number of source bins (and
    must be at least one bin).
    """
    counts = np.asarray(counts, dtype=np.float64)
    if window < bin_seconds:
        raise ValueError(
            f"window ({window}s) must be >= the trace bin width ({bin_seconds}s)"
        )
    group = max(int(round(window / bin_seconds)), 1)
    n_groups = counts.shape[0] // group
    if n_groups < 2:
        raise ValueError(
            f"trace too short: {counts.shape[0]} bins give {n_groups} windows of "
            f"{group} bins; need >= 2"
        )
    grouped = counts[: n_groups * group].reshape(n_groups, group).sum(axis=1)
    mean = grouped.mean()
    if mean == 0:
        return 0.0
    return float(grouped.std() / mean)


def multi_window_cv(
    counts: np.ndarray, windows: tuple[float, ...] = FIG1_WINDOWS
) -> dict[float, float]:
    """The Fig. 1 measurement: CV of per-minute counts at several windows."""
    return {w: binned_count_cv(counts, BIN_SECONDS, w) for w in windows}


def app_counts(window: Azure2019Window) -> list[tuple[str, np.ndarray]]:
    """Per-app counts, busiest first (the paper's Top-1/Top-2 apps).

    Functions sharing ``HashOwner/HashApp`` sum into one app; ties rank
    by app key so the order is stable.
    """
    apps: dict[str, np.ndarray] = {}
    for fn in window.functions:
        key = f"{fn.owner}/{fn.app}"
        apps[key] = apps[key] + fn.counts if key in apps else fn.counts
    return sorted(apps.items(), key=lambda kv: (-int(kv[1].sum()), kv[0]))


def fig1_report(
    window: Azure2019Window, windows: tuple[float, ...] = FIG1_WINDOWS
) -> dict[str, dict[float, float]]:
    """Fig. 1 in one call: multi-window CV for the total and top-2 apps."""
    total = np.zeros(window.source.window_minutes, dtype=np.int64)
    for fn in window.functions:
        total += fn.counts
    out = {"total": multi_window_cv(total, windows)}
    for rank, (_, counts) in enumerate(app_counts(window)[:2], start=1):
        out[f"top{rank}"] = multi_window_cv(counts, windows)
    return out
