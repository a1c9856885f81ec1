"""Tiered host-memory/SSD parameter cache (§7, Memory-Aware Elastic Scaling).

"The system maintains parameter copies in host memory even after GPU
eviction, creating a middle-tier cache that survives instance termination."
Entries are keyed by (model, operator-range); coverage queries intersect a
requested stage's operator range with cached ranges so a merged stage can
warm-load from the pieces its fine-grained predecessors left behind.

Two tiers, two policies:

* **host** — the fast tier (PCIe loads).  Inserts land here; evictions
  *demote* to SSD instead of discarding, so a host-evicted model degrades
  to an SSD-warm start rather than a cold one.
* **ssd** — the demotion tier (local-NVMe loads).  Evictions here discard.

Eviction policy is pluggable per cache instance (``CACHE_POLICIES``):

* ``lru`` — least-recently-used, the historical behaviour;
* ``gdsf`` — Greedy-Dual-Size-Frequency.  Each entry carries a priority
  ``H = clock + freq * cost_density`` where ``cost_density`` is the
  reload cost per byte (callers pass the cold-load time of the range);
  the per-(server, tier) clock inflates to the evicted entry's H, aging
  out entries that stopped being referenced.  GDSF keeps cheap-to-hold,
  expensive-to-reload, frequently-used ranges over large cold ones.

Ranges are trimmed on insert and unioned on query, so overlapping entries
never double-charge host memory nor double-count coverage.

A per-model holder index counts, per server, the host and SSD entries of
each model.  It changes only where entries are added or evicted, and lets
``coverage_by_tier`` and placement probes answer 0.0 at once for a server
that holds none of the model's bytes — the common case on a large fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.server import Server
from repro.models.profiler import ModelProfile

CACHE_POLICIES = ("lru", "gdsf")


@dataclass
class CacheEntry:
    model: str
    start: int  # operator range [start, end)
    end: int
    nbytes: float
    last_used: float
    freq: int = 1
    # Reload cost per byte (seconds/byte under GDSF; 1.0 when the caller
    # gave no cost, degrading GDSF to frequency-with-aging).
    cost_density: float = 1.0
    hvalue: float = 0.0


def _merge(segments: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Union of half-open integer ranges, sorted and merged."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(segments):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _subtract(
    start: int, end: int, covered: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Sub-ranges of [start, end) not covered by the merged ``covered``."""
    out: list[tuple[int, int]] = []
    cursor = start
    for lo, hi in covered:
        if hi <= cursor or lo >= end:
            continue
        if lo > cursor:
            out.append((cursor, min(lo, end)))
        cursor = max(cursor, hi)
        if cursor >= end:
            break
    if cursor < end:
        out.append((cursor, end))
    return out


class HostParamCache:
    """Two-tier (host/SSD) parameter cache over every server, with
    pluggable eviction (``lru`` or ``gdsf``)."""

    def __init__(self, policy: str = "lru") -> None:
        if policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}; options: {CACHE_POLICIES}"
            )
        self.policy = policy
        self._host: dict[str, list[CacheEntry]] = {}
        self._ssd: dict[str, list[CacheEntry]] = {}
        # GDSF aging clock, per (server, tier).
        self._clock: dict[tuple[str, str], float] = {}
        # model -> {sid: host + SSD entries of that model on the server}.
        self._holders: dict[str, dict[str, int]] = {}
        self.hits = 0.0  # bytes served warm
        self.misses = 0.0  # bytes that had to come from storage
        # Observability: a FlightRecorder installed by a traced run (the
        # cache holds no simulator handle, so the tap lives here).
        self.recorder = None

    # ------------------------------------------------------------------
    def _priority(self, entry: CacheEntry, sid: str, tier: str) -> float:
        return self._clock.get((sid, tier), 0.0) + entry.freq * entry.cost_density

    def _touch(self, entry: CacheEntry, sid: str, tier: str, now: float) -> None:
        entry.freq += 1
        entry.last_used = now
        entry.hvalue = self._priority(entry, sid, tier)

    def _pick_victim(self, entries: list[CacheEntry], sid: str, tier: str):
        if self.policy == "gdsf":
            victim = min(entries, key=lambda e: e.hvalue)
            key = (sid, tier)
            self._clock[key] = max(self._clock.get(key, 0.0), victim.hvalue)
        else:
            victim = min(entries, key=lambda e: e.last_used)
        return victim

    def _model_segments(
        self, entries: list[CacheEntry], model: str
    ) -> list[tuple[int, int]]:
        return _merge([(e.start, e.end) for e in entries if e.model == model])

    # ------------------------------------------------------------------
    def put(
        self,
        server: Server,
        model: str,
        start: int,
        end: int,
        nbytes: float,
        now: float,
        *,
        load_cost: float | None = None,
    ) -> bool:
        """Cache a stage's parameters on ``server``; evicts to fit.

        Only the sub-ranges not already host-cached are inserted (bytes
        prorated by range length), so overlapping puts never double-charge
        host memory.  Host evictions demote to the SSD tier.  ``load_cost``
        is the reload cost of the full range in seconds (used by GDSF);
        omitted, the entry competes on frequency alone.

        Returns False when some sub-range could not be kept in the host
        tier even after evicting everything evictable.
        """
        if nbytes <= 0 or start >= end:
            return True
        entries = self._host.setdefault(server.sid, [])
        sid = server.sid
        # A re-put is a use: refresh every overlapping same-model entry.
        for entry in entries:
            if entry.model == model and entry.start < end and entry.end > start:
                self._touch(entry, sid, "host", now)
        density = nbytes / (end - start)
        cost_density = 1.0 if load_cost is None else load_cost / nbytes
        ok = True
        for lo, hi in _subtract(start, end, self._model_segments(entries, model)):
            seg_bytes = density * (hi - lo)
            if not self._insert(
                server, "host", CacheEntry(model, lo, hi, seg_bytes, now, 1, cost_density)
            ):
                ok = False
        return ok

    def _insert(self, server: Server, tier: str, entry: CacheEntry) -> bool:
        """Insert one trimmed entry into ``tier``, evicting to fit."""
        sid = server.sid
        store = self._host if tier == "host" else self._ssd
        reserve = server.host_reserve if tier == "host" else server.ssd_reserve
        release = server.host_release if tier == "host" else server.ssd_release
        capacity = server.host_memory if tier == "host" else server.ssd_capacity
        if entry.nbytes > capacity:
            return False
        entries = store.setdefault(sid, [])
        entry.hvalue = self._priority(entry, sid, tier)
        while not reserve(entry.nbytes):
            if not entries:
                return False
            victim = self._pick_victim(entries, sid, tier)
            entries.remove(victim)
            held = self._holders[victim.model]
            held[sid] -= 1
            if not held[sid]:
                del held[sid]
            release(victim.nbytes)
            if self.recorder is not None:
                # The cache keeps no clock; the inserting entry's
                # last_used carries the put timestamp.
                self.recorder.record(
                    entry.last_used,
                    "cache_eviction",
                    server=sid,
                    tier=tier,
                    policy=self.policy,
                    model=victim.model,
                    range=(victim.start, victim.end),
                    nbytes=victim.nbytes,
                    freq=victim.freq,
                    hvalue=victim.hvalue,
                    clock=self._clock.get((sid, tier), 0.0),
                    for_model=entry.model,
                )
            if tier == "host":
                self._demote(server, victim)
        entries.append(entry)
        held = self._holders.setdefault(entry.model, {})
        held[sid] = held.get(sid, 0) + 1
        return True

    def _demote(self, server: Server, victim: CacheEntry) -> None:
        """A host eviction degrades to SSD-warm: keep the victim's
        not-already-SSD-cached sub-ranges in the SSD tier (discard on
        SSD pressure — the SSD never evicts back into host)."""
        ssd = self._ssd.setdefault(server.sid, [])
        covered = self._model_segments(ssd, victim.model)
        density = victim.nbytes / (victim.end - victim.start)
        for lo, hi in _subtract(victim.start, victim.end, covered):
            self._insert(
                server,
                "ssd",
                CacheEntry(
                    victim.model,
                    lo,
                    hi,
                    density * (hi - lo),
                    victim.last_used,
                    victim.freq,
                    victim.cost_density,
                ),
            )

    # ------------------------------------------------------------------
    def holds(self, server: Server, model: str) -> bool:
        """Whether ``server`` caches any bytes of ``model`` (either tier)."""
        return server.sid in self._holders.get(model, ())

    def _tier_coverage(
        self,
        tier: str,
        server: Server,
        profile: ModelProfile,
        start: int,
        end: int,
        now: float | None,
        exclude: list[tuple[int, int]] | None = None,
    ) -> tuple[float, list[tuple[int, int]]]:
        """Warm bytes of [start, end) in ``tier`` over the *union* of the
        overlapping ranges (minus ``exclude``), plus the merged segments."""
        store = self._host if tier == "host" else self._ssd
        entries = store.get(server.sid, ())
        segments: list[tuple[int, int]] = []
        for entry in entries:
            if entry.model != profile.spec.name:
                continue
            lo, hi = max(start, entry.start), min(end, entry.end)
            if lo < hi:
                segments.append((lo, hi))
                if now is not None:
                    self._touch(entry, server.sid, tier, now)
        merged = _merge(segments)
        covered = 0.0
        for lo, hi in merged:
            if exclude:
                for sub_lo, sub_hi in _subtract(lo, hi, exclude):
                    covered += profile.graph.param_bytes(sub_lo, sub_hi)
            else:
                covered += profile.graph.param_bytes(lo, hi)
        return covered, merged

    def coverage(
        self,
        server: Server,
        profile: ModelProfile,
        start: int,
        end: int,
        now: float | None = None,
    ) -> float:
        """Bytes of the stage [start, end) warm in **host** memory on
        ``server``, computed over the union of cached ranges."""
        covered, _ = self._tier_coverage("host", server, profile, start, end, now)
        stage_bytes = profile.graph.param_bytes(start, end)
        return min(covered, stage_bytes)

    def coverage_by_tier(
        self,
        server: Server,
        profile: ModelProfile,
        start: int,
        end: int,
        now: float | None = None,
    ) -> tuple[float, float]:
        """(host_bytes, ssd_bytes) of the stage warm on ``server``.

        Host takes precedence: SSD counts only bytes *not* host-covered,
        so the two never overlap and ``host + ssd <= stage_bytes``.
        """
        if not self.holds(server, profile.spec.name):
            return 0.0, 0.0
        stage_bytes = profile.graph.param_bytes(start, end)
        host, host_segs = self._tier_coverage(
            "host", server, profile, start, end, now
        )
        ssd, _ = self._tier_coverage(
            "ssd", server, profile, start, end, now, exclude=host_segs
        )
        host = min(host, stage_bytes)
        return host, min(ssd, stage_bytes - host)

    # ------------------------------------------------------------------
    def server_bytes(self, server: Server) -> float:
        return sum(e.nbytes for e in self._host.get(server.sid, ()))

    def ssd_bytes(self, server: Server) -> float:
        return sum(e.nbytes for e in self._ssd.get(server.sid, ()))

    def entry_count(self, server: Server, tier: str = "host") -> int:
        store = self._host if tier == "host" else self._ssd
        return len(store.get(server.sid, ()))

    def entries_for(self, server: Server, tier: str = "host") -> tuple[CacheEntry, ...]:
        store = self._host if tier == "host" else self._ssd
        return tuple(store.get(server.sid, ()))
