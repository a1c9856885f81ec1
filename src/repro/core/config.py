"""FlexPipe configuration: every paper hyper-parameter in one place."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FlexPipeConfig:
    """Knobs for the controller, policies and scaling machinery.

    Defaults follow the paper where stated (decision latency < 5 ms,
    always-on fraction 30%, CV set-points from Insight 3's S ∝ √CV rule);
    time constants are scaled to simulation-friendly values and noted.
    """

    # --- controller (Algorithm 1) ---
    control_interval: float = 1.0
    decision_latency: float = 0.002  # "<5ms across 2-32 stages" (§6.3)
    cv_window: float = 30.0  # sliding window for ν_t

    # --- granularity policy (Eq. 4) ---
    alpha_tradeoff: float = 0.5  # α: throughput-latency weight
    sigma_sensitivity: float = 1.2  # σ: CV-matching sharpness
    # ν_k = (η_k / scale)²: the Insight-3 law S ∝ sqrt(CV), with the
    # constant calibrated to this substrate (the paper's testbed constant
    # is 8; our cost model's comm/compute balance puts the optimum at 4).
    cv_setpoint_scale: float = 4.0
    stage_counts: tuple[int, ...] = (2, 4, 8, 16, 32)
    initial_stages: int = 4
    switch_margin: float = 1.35  # hysteresis: new score must win decisively
    refactor_dwell: float = 20.0  # min seconds between refactors per model

    # --- instance counts (Eq. 5) ---
    beta1: float = 1.0  # coordination overhead intercept
    beta2: float = 0.02  # per-stage coordination overhead
    target_utilization: float = 0.6  # capacity headroom for μ_total

    # --- hardware efficiency / multiplexing penalty (Eq. 9) ---
    gamma0: float = 0.08  # base multiplexing penalty
    alpha_mux: float = 0.25  # CV² sensitivity

    # --- adaptive scaling (Eq. 11-12) ---
    g_max: int = 32  # finest scaling granularity
    beta_sigmoid: float = 40.0  # β in Eq. 11
    gamma_sigmoid: float = 10.0  # γ in Eq. 11
    queue_capacity: int = 512  # Q_max for q̂ normalisation
    scale_in_idle_window: float = 300.0  # paper's 5-minute reclamation window (§9.4)
    min_replicas: int = 1
    max_replicas: int = 16
    # Eq. 12 burst-feasibility headroom: target utilization divides by
    # (1 + cv_headroom * CV), holding spare capacity under bursty load.
    cv_headroom: float = 0.25

    # --- affinity scheduling (Eq. 13) ---
    affinity_w_t: float = 1.0
    affinity_w_g: float = 0.25
    affinity_decay: float = 1.0 / 120.0  # λ: temporal decay of warm hosts

    # --- provisioning ---
    batcher_max_wait: float = 0.3

    def __post_init__(self) -> None:
        if not 0 <= self.alpha_tradeoff <= 1:
            raise ValueError("alpha_tradeoff must be in [0, 1]")
        if self.control_interval <= 0:
            raise ValueError("control_interval must be positive")
        if self.initial_stages not in self.stage_counts:
            raise ValueError(
                f"initial_stages {self.initial_stages} not in {self.stage_counts}"
            )
