"""Background-tenant churn: the source of resource fragmentation (§3.1).

The paper measured a 216% mean GPU subscription rate, 8.7% probability of
finding a single GPU with ≥85% free memory, and 0.02% probability of four
co-located free GPUs.  This module reproduces those statistics with a
birth-death process of background tenants whose arrival rate is feedback-
controlled toward a target subscription level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import GPU
from repro.simulation.engine import Simulator
from repro.simulation.processes import PeriodicProcess
from repro.simulation.randomness import RandomStreams
from repro.transfer.links import GB


@dataclass
class BackgroundTenant:
    """A non-serving workload occupying part of a GPU."""

    tid: int
    gpu: GPU
    mem_bytes: float
    sm_request: float  # subscribed share (over-subscription allowed)
    sm_usage: float  # actual usage (bursty tenants use far less than they subscribe)
    departs_at: float

    def attach(self) -> None:
        self.gpu.background_mem += self.mem_bytes
        self.gpu.background_sm_request += self.sm_request
        self.gpu.background_sm_usage += self.sm_usage

    def detach(self) -> None:
        self.gpu.background_mem -= self.mem_bytes
        self.gpu.background_sm_request -= self.sm_request
        self.gpu.background_sm_usage -= self.sm_usage


@dataclass(frozen=True)
class FragmentationConfig:
    """Churn-process parameters (defaults fitted to Table 1 / Fig. 2)."""

    target_subscription: float = 2.16
    tick_interval: float = 5.0
    mean_lifetime: float = 600.0
    # Tenant memory demand: lognormal, heavy-tailed like heterogeneous
    # models; calibrated so only ~9% of GPUs have >=85% memory free and
    # 4-way co-located free GPUs are vanishingly rare (§3.1 / Fig. 2).
    mem_log_mean: float = 2.72  # median ≈ 15 GB
    mem_log_sigma: float = 0.90
    # Subscribed SM share per tenant.
    sm_request_mean: float = 1.0
    # Actual SM usage is a small fraction of the request (17-24% cluster mean).
    sm_usage_fraction: float = 0.09
    max_tenants_per_gpu: int = 6


class FragmentationModel:
    """Birth-death background load with feedback toward a subscription target."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        streams: RandomStreams,
        config: FragmentationConfig | None = None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.config = config or FragmentationConfig()
        self.rng = streams.stream("fragmentation")
        self.tenants: dict[int, BackgroundTenant] = {}
        self._next_tid = 0
        self._tenants_per_gpu: dict[str, int] = {}
        self._process = PeriodicProcess(
            sim, self.config.tick_interval, self._tick, start_delay=0.0
        )

    # ------------------------------------------------------------------
    def warm_up(self, rounds: int = 80) -> None:
        """Apply enough churn ticks to reach steady state instantly.

        Used by experiments that need a pre-fragmented cluster at t=0
        (the paper's measurements are of a long-running production fleet).
        """
        for _ in range(rounds):
            self._spawn_wave()
        # Departures are in the future; steady state is arrivals ~ departures.

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._reap_departures()
        self._spawn_wave()

    def _reap_departures(self) -> None:
        now = self.sim.now
        gone = [t for t in self.tenants.values() if t.departs_at <= now]
        for tenant in gone:
            tenant.detach()
            del self.tenants[tenant.tid]
            self._tenants_per_gpu[tenant.gpu.gid] -= 1

    def _spawn_wave(self) -> None:
        """Add tenants while the cluster is below the subscription target."""
        cfg = self.config
        gpus = self.cluster.gpus
        deficit = cfg.target_subscription - self.cluster.subscription_rate()
        if deficit <= 0:
            return
        # Each tenant adds ~sm_request_mean/len(gpus) to the mean subscription.
        n_new = int(round(deficit * len(gpus) / cfg.sm_request_mean))
        n_new = min(n_new, max(4, len(gpus) // 2))
        for _ in range(n_new):
            gpu = gpus[int(self.rng.integers(0, len(gpus)))]
            if self._tenants_per_gpu.get(gpu.gid, 0) >= cfg.max_tenants_per_gpu:
                continue
            mem = float(self.rng.lognormal(cfg.mem_log_mean, cfg.mem_log_sigma)) * GB
            mem = min(mem, max(gpu.free_memory - 1.0 * GB, 0.0))
            if mem <= 0.25 * GB:
                continue
            sm_request = float(self.rng.gamma(4.0, cfg.sm_request_mean / 4.0))
            sm_usage = min(sm_request, 1.0) * cfg.sm_usage_fraction * float(
                self.rng.lognormal(0.0, 0.8)
            )
            lifetime = float(self.rng.exponential(cfg.mean_lifetime))
            tenant = BackgroundTenant(
                tid=self._next_tid,
                gpu=gpu,
                mem_bytes=mem,
                sm_request=sm_request,
                sm_usage=min(sm_usage, 1.0),
                departs_at=self.sim.now + lifetime,
            )
            self._next_tid += 1
            tenant.attach()
            self.tenants[tenant.tid] = tenant
            self._tenants_per_gpu[gpu.gid] = self._tenants_per_gpu.get(gpu.gid, 0) + 1

    # ------------------------------------------------------------------
    # Statistics used by Table 1 / Fig. 2
    # ------------------------------------------------------------------
    def sm_utilization_samples(self) -> list[float]:
        """Per-GPU background SM usage in percent (Table 1 rows)."""
        return [min(g.background_sm_usage, 1.0) * 100.0 for g in self.cluster.gpus]

    def memory_utilization_samples(self) -> list[float]:
        return [
            min(g.used_memory / g.memory, 1.0) * 100.0 for g in self.cluster.gpus
        ]
