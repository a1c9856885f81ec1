"""GPU placement objective with the multiplexing penalty (Eq. 6-9).

The allocator enforces the hard constraints (memory, Eq. 7; same-model
anti-affinity, §6.2); this module supplies the *soft* objective: maximise
per-GPU throughput efficiency minus the CV-dependent multiplexing penalty
applied when models share a GPU (Eq. 9).
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.gpu import GPU

GAMMA0 = 0.08  # γ0: base multiplexing penalty
ALPHA = 0.25  # α: CV² sensitivity of the penalty


def multiplexing_penalty(cv: float, *, gamma0: float = GAMMA0) -> float:
    """Eq. 9: gamma(CV) = gamma0 * (1 + alpha * CV^2)."""
    if gamma0 < 0:
        raise ValueError("penalty coefficient gamma0 must be non-negative")
    return gamma0 * (1.0 + ALPHA * cv * cv)


def interference_multiplier(gpu: GPU, cv: float, *, gamma0: float = GAMMA0) -> float:
    """Execution-time inflation on a shared GPU.

    The indicator of Eq. 6 applies the penalty only when more than one
    model is resident; each additional co-located model adds one penalty
    unit (concurrent demand spikes compound).
    """
    others = max(gpu.colocated_model_count - 1, 0)
    if others == 0:
        return 1.0
    return 1.0 + multiplexing_penalty(cv, gamma0=gamma0) * others


def make_eq6_scorer(
    cv: float,
    *,
    gamma0: float = GAMMA0,
    prefer_colocation: bool = False,
) -> Callable[[GPU], float]:
    """Placement scorer implementing the Eq. 6 objective at workload CV
    ``cv`` (fixed for one placement, so it is read once per scorer).

    Default behaviour (FlexPipe): prefer empty GPUs when the workload is
    bursty — the penalty term dominates — but tolerate consolidation for
    stable workloads.  ``prefer_colocation=True`` flips the sign of the
    sharing term (MuxServe-style statistical multiplexing).
    """
    penalty = multiplexing_penalty(cv, gamma0=gamma0)

    def score(gpu: GPU) -> float:
        free_frac = gpu.free_fraction  # throughput-per-memory proxy (T/m)
        shared = gpu.colocated_model_count > 0
        if prefer_colocation:
            return free_frac + (0.5 if shared else 0.0)
        return free_frac - (penalty if shared else 0.0)

    return score
