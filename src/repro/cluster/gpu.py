"""GPU device model.

A GPU tracks three kinds of occupancy:

* **background tenants** — other workloads in the shared serverless cluster
  (source of fragmentation; they consume memory and subscribe SM share);
* **stage allocations** — pipeline stages placed by a serving system
  (parameters + KV-cache reservation);
* **busy time** — accumulated execution seconds, used for the utilization
  axes of Fig. 12 and Table 1.

Every change that can *add* placement room — a release, a shrinking
resize, a background-load decrease, an uncordon — bumps the owning
cluster's ``capacity_epoch``; reserves, growth, background attach and
cordons leave it alone.  The allocator keys its certified-infeasible
placements on that epoch.  The cluster also counts, per model, the GPUs
whose ``model_tags`` hold it; ``reserve`` and ``release`` keep that count
where the tags gain or lose the model.
"""

from __future__ import annotations

from repro.transfer.links import GB

# Every device is an 80 GB A100: the memory the cost model sizes batches
# against and Eq. 2 partitions under.
GPU_MEMORY = 80.0 * GB


class GPU:
    """A single accelerator inside a :class:`~repro.cluster.server.Server`."""

    def __init__(self, gid: str):
        self.gid = gid
        self.memory = GPU_MEMORY
        self.server = None  # set by Server
        self.cluster = None  # set by Cluster: owner of the capacity epoch
        # Background (fragmentation) load.
        self._background_mem = 0.0
        self.background_sm_request = 0.0  # subscription, can exceed 1.0
        self.background_sm_usage = 0.0  # actual usage, <= 1.0
        # Cordoned: reclaimed by the platform — the allocator refuses new
        # serving placements here regardless of free bytes, closing the
        # window between a victim freeing memory and the blocker
        # absorbing it.  Lifted through uncordon(), which moves the
        # capacity epoch; a plain attribute because placement scans read
        # it per GPU.
        self.cordoned = False
        # Serving load: allocation-id -> bytes, and its sum (None = stale;
        # reserve/release/resize, the only writers, invalidate it).
        self._stage_mem: dict[str, float] = {}
        self._serving_mem: float | None = None
        # Models with a stage resident here (anti-affinity rule, §6.2).
        self.model_tags: dict[str, int] = {}
        # Serving bytes per resident model (share-cap observability: which
        # tenant occupies how much of this device).
        self.model_bytes: dict[str, float] = {}
        # Execution accounting.
        self.busy_seconds = 0.0
        self._busy_until = 0.0

    # ------------------------------------------------------------------
    # Capacity epoch
    # ------------------------------------------------------------------
    def _capacity_added(self) -> None:
        if self.cluster is not None:
            self.cluster.capacity_epoch += 1

    @property
    def background_mem(self) -> float:
        return self._background_mem

    @background_mem.setter
    def background_mem(self, nbytes: float) -> None:
        if nbytes < self._background_mem:
            self._capacity_added()
        self._background_mem = nbytes

    def uncordon(self) -> None:
        """Return a reclaimed GPU to serving placement."""
        if self.cordoned:
            self.cordoned = False
            self._capacity_added()

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @property
    def serving_mem(self) -> float:
        """``sum`` over the live allocations, recomputed only after a
        write, so every read equals the recompute bit for bit."""
        total = self._serving_mem
        if total is None:
            total = self._serving_mem = sum(self._stage_mem.values())
        return total

    @property
    def stage_allocations(self) -> dict[str, float]:
        """Snapshot of live stage allocations (id -> bytes), for auditing."""
        return dict(self._stage_mem)

    @property
    def used_memory(self) -> float:
        return self._background_mem + self.serving_mem

    @property
    def free_memory(self) -> float:
        return self.memory - self.used_memory

    @property
    def free_fraction(self) -> float:
        return max(self.free_memory, 0.0) / self.memory

    def reserve(self, alloc_id: str, nbytes: float, model: str | None = None) -> None:
        """Reserve ``nbytes`` for a stage allocation.

        Raises ``ValueError`` on over-commit — serving allocations are never
        oversubscribed (only background tenants may be, per §3.1).
        """
        if alloc_id in self._stage_mem:
            raise ValueError(f"duplicate allocation id {alloc_id!r} on {self.gid}")
        if nbytes < 0:
            raise ValueError(f"negative reservation: {nbytes}")
        if nbytes > self.free_memory + 1e-6:
            raise ValueError(
                f"over-commit on {self.gid}: need {nbytes / GB:.2f} GB, "
                f"free {self.free_memory / GB:.2f} GB"
            )
        self._stage_mem[alloc_id] = nbytes
        self._serving_mem = None
        if model is not None:
            count = self.model_tags.get(model, 0)
            if not count and self.cluster is not None:
                hosting = self.cluster.hosting_gpus
                hosting[model] = hosting.get(model, 0) + 1
            self.model_tags[model] = count + 1
            self.model_bytes[model] = self.model_bytes.get(model, 0.0) + nbytes

    def release(self, alloc_id: str, model: str | None = None) -> None:
        """Release a previous reservation (idempotent on unknown ids is NOT
        allowed — unknown ids raise, catching double-release bugs)."""
        if alloc_id not in self._stage_mem:
            raise KeyError(f"unknown allocation id {alloc_id!r} on {self.gid}")
        nbytes = self._stage_mem.pop(alloc_id)
        self._serving_mem = None
        self._capacity_added()
        if model is not None:
            count = self.model_tags.get(model, 0) - 1
            if count <= 0:
                if self.model_tags.pop(model, None) and self.cluster is not None:
                    hosting = self.cluster.hosting_gpus
                    if hosting[model] == 1:
                        del hosting[model]
                    else:
                        hosting[model] -= 1
                self.model_bytes.pop(model, None)
            else:
                self.model_tags[model] = count
                self.model_bytes[model] = max(
                    self.model_bytes.get(model, 0.0) - nbytes, 0.0
                )

    def resize(self, alloc_id: str, nbytes: float, model: str | None = None) -> None:
        """Grow/shrink an existing reservation (KV-cache growth)."""
        if alloc_id not in self._stage_mem:
            raise KeyError(f"unknown allocation id {alloc_id!r} on {self.gid}")
        current = self._stage_mem[alloc_id]
        if nbytes - current > self.free_memory + 1e-6:
            raise ValueError(f"over-commit resizing {alloc_id!r} on {self.gid}")
        self._stage_mem[alloc_id] = nbytes
        self._serving_mem = None
        if nbytes < current:
            self._capacity_added()
        if model is not None and model in self.model_bytes:
            self.model_bytes[model] = max(
                self.model_bytes[model] + (nbytes - current), 0.0
            )

    def hosts_model(self, model: str) -> bool:
        return model in self.model_tags

    @property
    def colocated_model_count(self) -> int:
        """Distinct serving models resident on this GPU (Eq. 9 indicator)."""
        return len(self.model_tags)

    # ------------------------------------------------------------------
    # Execution accounting
    # ------------------------------------------------------------------
    def occupy(self, now: float, duration: float) -> float:
        """Serialise an execution of ``duration`` on this GPU.

        Returns the completion time; if the GPU is already busy the work
        starts when the previous work finishes (stages execute serially).
        """
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        start = max(now, self._busy_until)
        self._busy_until = start + duration
        self.busy_seconds += duration
        return self._busy_until

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` wall-clock spent executing serving work."""
        if elapsed <= 0:
            return 0.0
        return min(self.busy_seconds / elapsed, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GPU({self.gid}, free={self.free_memory / GB:.1f}GB)"
