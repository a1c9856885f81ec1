"""Eq. 3: batch-aware activation transmission scaling.

    s_a(S_k, b) = s_a_base(S_k) * (1 + alpha * log(b / b_base))

``alpha`` is learned from historical (batch, bytes) observations by linear
regression, exactly as the paper describes; a floor keeps the predicted
size physical for very small batches.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA = 0.18  # the fitted alpha of the calibration (see fit_alpha)
BASE_BATCH = 128  # b_base: the batch the base sizes are stated at
_MIN_FACTOR = 0.25


def activation_bytes(base_bytes: float, batch: int) -> float:
    """Predicted per-iteration activation transfer size at ``batch``."""
    if base_bytes < 0:
        raise ValueError(f"negative base size: {base_bytes}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    factor = 1.0 + ALPHA * math.log(batch / BASE_BATCH)
    return base_bytes * max(factor, _MIN_FACTOR)


def fit_alpha(batches: list[int], observed_bytes: list[float]) -> float:
    """Least-squares fit of alpha from history (the paper's regression).

    Solves ``bytes/base - 1 = alpha * log(b/b_base)`` for alpha, where
    ``base`` is the observation at (or interpolated to) ``BASE_BATCH``.
    """
    if len(batches) != len(observed_bytes):
        raise ValueError("batches and observed_bytes must have equal length")
    if len(batches) < 2:
        raise ValueError("need at least two observations to fit alpha")
    b = np.asarray(batches, dtype=float)
    s = np.asarray(observed_bytes, dtype=float)
    if np.any(b < 1) or np.any(s <= 0):
        raise ValueError("observations must have batch >= 1 and bytes > 0")
    # Estimate the base size at b_base by interpolating in log space.
    log_b = np.log(b / BASE_BATCH)
    base = float(np.exp(np.interp(0.0, np.sort(log_b), np.log(s[np.argsort(log_b)]))))
    x = log_b
    y = s / base - 1.0
    denom = float(np.dot(x, x))
    if denom == 0:
        raise ValueError("all observations at the base batch; alpha unidentifiable")
    return float(np.dot(x, y) / denom)
