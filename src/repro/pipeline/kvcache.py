"""KV-cache consistency tracking (Eq. 10).

The paper preserves cache coherence during refactoring through *selective
synchronisation*: each GPU's KV shard carries a token-level validity mask,
and the consistent state is ``C(t) = U_i KV_i(t) (x) M_valid``.  We model a
request's per-stage KV as a contiguous token range ``[0, generated)`` plus
a ``synchronized`` watermark on migration targets; the validity mask is the
set of token positions that are present *and* current.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ValidityMask:
    """A set of valid token positions, stored as a half-open range union.

    LLM decode appends tokens monotonically, so masks are unions of at most
    a handful of ranges; we keep the general form for the Eq. 10 algebra.
    """

    ranges: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def upto(n: int) -> "ValidityMask":
        if n < 0:
            raise ValueError(f"negative token count: {n}")
        return ValidityMask(((0, n),) if n > 0 else ())

    def __post_init__(self) -> None:
        prev_end = -1
        for start, end in self.ranges:
            if start >= end:
                raise ValueError(f"empty/invalid range ({start}, {end})")
            if start <= prev_end:
                raise ValueError("ranges must be sorted and non-overlapping")
            prev_end = end

    @property
    def count(self) -> int:
        return sum(end - start for start, end in self.ranges)

    def contains(self, token: int) -> bool:
        return any(start <= token < end for start, end in self.ranges)

    def union(self, other: "ValidityMask") -> "ValidityMask":
        """Set-union of valid positions (the ⋃ of Eq. 10)."""
        merged: list[list[int]] = []
        for start, end in sorted(self.ranges + other.ranges):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        return ValidityMask(tuple((a, b) for a, b in merged))

    def intersect(self, other: "ValidityMask") -> "ValidityMask":
        """Element-wise mask application (the ⊗ of Eq. 10)."""
        out = []
        for a0, a1 in self.ranges:
            for b0, b1 in other.ranges:
                lo, hi = max(a0, b0), min(a1, b1)
                if lo < hi:
                    out.append((lo, hi))
        return ValidityMask(tuple(sorted(out)))

    def invalid_before(self, n: int) -> "ValidityMask":
        """Positions in [0, n) NOT covered by this mask (need syncing)."""
        gaps = []
        cursor = 0
        for start, end in self.ranges:
            if cursor < min(start, n):
                gaps.append((cursor, min(start, n)))
            cursor = max(cursor, end)
            if cursor >= n:
                break
        if cursor < n:
            gaps.append((cursor, n))
        return ValidityMask(tuple(gaps))


@dataclass
class KVCacheState:
    """Per-(request, stage-shard) KV bookkeeping on one GPU.

    ``generated`` is the authoritative token count on the serving shard;
    ``mask`` tracks which positions a (possibly migrating) shard holds.
    """

    request_id: int
    bytes_per_token: float
    generated: int = 0
    mask: ValidityMask = field(default_factory=ValidityMask)

    def append_tokens(self, n: int) -> None:
        """Decode produced ``n`` more tokens on the serving shard."""
        if n < 0:
            raise ValueError(f"negative token count: {n}")
        self.generated += n
        self.mask = self.mask.union(
            ValidityMask(((self.generated - n, self.generated),))
            if n > 0
            else ValidityMask()
        )

    @property
    def bytes_total(self) -> float:
        return self.generated * self.bytes_per_token

    def stale_tokens(self) -> ValidityMask:
        """Positions generated but absent from this shard (delta to sync)."""
        return self.mask.invalid_before(self.generated)

    def is_consistent(self) -> bool:
        """Eq. 10 invariant: mask covers exactly [0, generated)."""
        return self.stale_tokens().count == 0 and self.mask.count == self.generated


def snapshot_transfer(source: KVCacheState) -> KVCacheState:
    """Begin an asynchronous migration: copy the current valid prefix.

    Tokens generated after the snapshot are *stale* on the target until a
    delta sync (the brief pause at switchover) completes.
    """
    target = KVCacheState(
        request_id=source.request_id,
        bytes_per_token=source.bytes_per_token,
        generated=source.generated,
        mask=ValidityMask.upto(source.generated),
    )
    return target


def delta_sync(source: KVCacheState, target: KVCacheState) -> float:
    """Complete a migration: copy tokens the target is missing.

    Returns the number of bytes moved; afterwards the target satisfies the
    Eq. 10 consistency invariant against the source's generated count.
    """
    if target.request_id != source.request_id:
        raise ValueError("delta_sync across different requests")
    target.generated = source.generated
    missing = target.stale_tokens()
    target.mask = target.mask.union(missing)
    return missing.count * target.bytes_per_token
