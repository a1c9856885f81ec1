"""Analytic GPU cost model, calibrated against the paper's Table 2.

Table 2 profiles OPT-66B (120 GB) on A100s at four pipeline granularities.
We derive every constant from it:

* **Compute** (per-stage iteration time) fits an affine model
  ``t = 1.06 ms + 2.296 ms/GiB x stage_bytes`` with <3% error at all four
  rows — i.e. a ~0.435 TB/s effective weight-streaming rate plus a fixed
  per-stage dispatch cost.  Batch adds a compute-bound term
  ``batch x flops_per_token / peak_flops``.
* **Comm.** fits ``(K-1) x (1.9 ms + act_bytes/B_NIC)`` with the 100 Gbps
  NIC exactly at the batch-128 operating point (2.1 ms per hop).
* **Load** times are log-log interpolated through the four measured points
  (47.14 s @ 30 GiB ... 5.43 s @ 3.75 GiB); other models reuse the curve by
  stage size.
* **Max batch** emerges from KV-capacity physics: per-GPU free memory
  divided by the per-stage KV footprint, floored to a power of two —
  reproducing 128/256/512/1024 exactly (see DESIGN.md §4).
"""

from __future__ import annotations

import math

from repro.cluster.gpu import GPU_MEMORY
from repro.transfer.links import GB, NIC_BANDWIDTH, PCIE_BANDWIDTH

# Calibration constants (see the module docstring for provenance).  The
# hop rate is the NIC's, warm loads run at the PCIe rate, and batches are
# sized against the device's memory: the links and GPUs serving uses.

# Per-stage iteration: fixed dispatch + weight-streaming term.
COMPUTE_FIXED = 1.06e-3
COMPUTE_PER_BYTE = 2.296e-3 / GB  # ≈ 0.435 TB/s effective
# Batch-dependent compute term (fp16: flops_per_token == param_bytes).
PEAK_FLOPS = 150e12
# Prefill dispatch overhead per stage pass.
PREFILL_OVERHEAD = 0.5e-3
# Inter-stage hop: fixed serverless network-stack overhead + wire time.
HOP_OVERHEAD = 1.9e-3
# Cold parameter load curve (bytes, seconds), from Table 2's Load column.
LOAD_POINTS = (
    (3.75 * GB, 5.43),
    (7.5 * GB, 9.19),
    (15.0 * GB, 13.05),
    (30.0 * GB, 47.14),
)
# Warm start: host-memory -> GPU over PCIe, after a fixed set-up.
WARM_LOAD_OVERHEAD = 0.05
# Memory model: device memory no runtime holds back, and the batch cap.
RUNTIME_RESERVED = 0.0 * GB
MAX_BATCH_CAP = 1024

_LOG_SIZES = [math.log(s) for s, _ in LOAD_POINTS]
_LOG_TIMES = [math.log(t) for _, t in LOAD_POINTS]


def floor_pow2(x: float) -> int:
    """Largest power of two <= x (0 if x < 1)."""
    if x < 1:
        return 0
    return 1 << (int(x).bit_length() - 1)


class CostModel:
    """All hardware timing queries used by the simulator."""

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def decode_iter_time(self, stage_param_bytes: float, batch: int) -> float:
        """One decode iteration of a stage: weight stream + batched compute."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        stream = COMPUTE_FIXED + stage_param_bytes * COMPUTE_PER_BYTE
        compute = batch * stage_param_bytes / PEAK_FLOPS
        return stream + compute

    def prefill_time(self, stage_flops_per_token: float, total_tokens: float) -> float:
        """Prefill pass of a stage over ``total_tokens`` (= batch x prompt)."""
        return PREFILL_OVERHEAD + total_tokens * stage_flops_per_token / PEAK_FLOPS

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def hop_time(self, activation_bytes: float) -> float:
        """One inter-stage activation transfer."""
        return HOP_OVERHEAD + activation_bytes / NIC_BANDWIDTH

    # ------------------------------------------------------------------
    # Parameter loading
    # ------------------------------------------------------------------
    def cold_load_time(self, stage_param_bytes: float) -> float:
        """Load a stage from shared checkpoint storage (cold start).

        Log-log interpolation through the Table 2 calibration points;
        extrapolates with the edge slopes.
        """
        if stage_param_bytes <= 0:
            return 0.0
        x = math.log(stage_param_bytes)
        xs, ys = _LOG_SIZES, _LOG_TIMES
        if x <= xs[0]:
            i = 0
        elif x >= xs[-1]:
            i = len(xs) - 2
        else:
            i = max(j for j in range(len(xs) - 1) if xs[j] <= x)
        slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        return math.exp(ys[i] + slope * (x - xs[i]))

    def warm_load_time(self, stage_param_bytes: float) -> float:
        """Load a stage from the host-memory warm cache over PCIe."""
        return WARM_LOAD_OVERHEAD + stage_param_bytes / PCIE_BANDWIDTH

    # ------------------------------------------------------------------
    # Memory / batching
    # ------------------------------------------------------------------
    def max_batch(
        self,
        stage_param_bytes: float,
        kv_bytes_per_request_stage: float,
    ) -> int:
        """KV-capacity-limited batch size for a stage, floored to a power of 2."""
        free = GPU_MEMORY - RUNTIME_RESERVED - stage_param_bytes
        if free <= 0:
            return 0
        if kv_bytes_per_request_stage <= 0:
            return MAX_BATCH_CAP
        raw = free / kv_bytes_per_request_stage
        return max(min(floor_pow2(raw), MAX_BATCH_CAP), 0)
