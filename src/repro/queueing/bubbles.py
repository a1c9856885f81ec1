"""Pipeline bubble accounting (§2.1's fill/drain overhead).

Pipeline parallelism pays an idle "bubble" while the pipe fills and
drains: with ``S`` stages and ``m`` micro-batches per scheduling round the
classic GPipe bound gives

    bubble_fraction = (S - 1) / (m + S - 1).

These helpers quantify that overhead and the micro-batch count needed to
amortise it.
"""

from __future__ import annotations

import math


def bubble_fraction(n_stages: int, n_microbatches: int) -> float:
    """GPipe fill/drain bubble fraction for one scheduling round."""
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    if n_microbatches < 1:
        raise ValueError(f"n_microbatches must be >= 1, got {n_microbatches}")
    return (n_stages - 1) / (n_microbatches + n_stages - 1)


def microbatches_for_bubble(n_stages: int, max_bubble: float) -> int:
    """Smallest micro-batch count keeping the bubble below ``max_bubble``."""
    if not 0.0 < max_bubble < 1.0:
        raise ValueError(f"max_bubble must be in (0, 1), got {max_bubble}")
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    if n_stages == 1:
        return 1
    # (S-1)/(m+S-1) <= b  =>  m >= (S-1)(1-b)/b
    return max(int(math.ceil((n_stages - 1) * (1.0 - max_bubble) / max_bubble)), 1)
