"""Paged KV-cache block manager.

The paper's refactoring protocol (Eq. 10) reasons about KV state at token
granularity; production engines (vLLM [21], which the related-work section
positions FlexPipe against) store KV in fixed-size *blocks* so stage memory
can be packed without fragmentation.  This module is a standalone block
manager for KV residency accounting (no serving path imports it):

* :class:`BlockPool` — fixed pool of reference-counted blocks (refcounts
  support copy-on-write prefix sharing across forked sequences);
* :class:`PagedKVCache` — per-request block tables with append/free/fork,
  admission watermarks, and LRU victim selection for preemption;
* migration helpers that translate a token range into the blocks (and
  bytes) a refactoring transfer must move, which is exactly the quantity
  the Eq. 10 delta sync charges to the interconnect.

Everything is bookkeeping over simulated bytes — no real tensors — but the
invariants (no block leaks, refcounts never negative, block tables cover
exactly the resident tokens) are enforced and property-tested.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

from repro.pipeline.kvcache import ValidityMask


class PagedKVError(RuntimeError):
    """Invalid use of the paged KV manager."""


class CapacityError(PagedKVError):
    """The block pool cannot satisfy an allocation."""


@dataclass(frozen=True)
class PagedKVConfig:
    """Sizing of one stage shard's KV pool.

    ``block_tokens`` follows vLLM's default of 16 tokens per block;
    ``bytes_per_token`` is the per-stage KV footprint of one token (set from
    the model profile's per-stage KV bytes).
    """

    n_blocks: int
    block_tokens: int = 16
    bytes_per_token: float = 1.0
    watermark: float = 0.05  # fraction of blocks kept free for decode growth

    def __post_init__(self) -> None:
        if self.n_blocks <= 0:
            raise ValueError(f"n_blocks must be positive, got {self.n_blocks}")
        if self.block_tokens <= 0:
            raise ValueError(f"block_tokens must be positive, got {self.block_tokens}")
        if self.bytes_per_token <= 0:
            raise ValueError("bytes_per_token must be positive")
        if not 0.0 <= self.watermark < 1.0:
            raise ValueError(f"watermark must be in [0, 1), got {self.watermark}")

    @property
    def block_bytes(self) -> float:
        return self.block_tokens * self.bytes_per_token

    @property
    def capacity_tokens(self) -> int:
        return self.n_blocks * self.block_tokens


class BlockPool:
    """Fixed pool of reference-counted KV blocks.

    Blocks are plain integer ids.  A refcount above one means the block is
    shared between forked sequences (copy-on-write prefix sharing); it
    returns to the free list when the count reaches zero.
    """

    def __init__(self, n_blocks: int):
        if n_blocks <= 0:
            raise ValueError(f"n_blocks must be positive, got {n_blocks}")
        self.n_blocks = n_blocks
        self._free: collections.deque[int] = collections.deque(range(n_blocks))
        self._refcount: dict[int, int] = {}

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def used_blocks(self) -> int:
        return self.n_blocks - self.free_blocks

    def allocate(self) -> int:
        """Take one block from the free list."""
        if not self._free:
            raise CapacityError("block pool exhausted")
        block = self._free.popleft()
        self._refcount[block] = 1
        return block

    def share(self, block: int) -> None:
        """Add a reference (copy-on-write fork of a full block)."""
        if block not in self._refcount:
            raise PagedKVError(f"share() of unallocated block {block}")
        self._refcount[block] += 1

    def release(self, block: int) -> None:
        """Drop one reference; the block frees when none remain."""
        count = self._refcount.get(block)
        if count is None:
            raise PagedKVError(f"release() of unallocated block {block}")
        if count == 1:
            del self._refcount[block]
            self._free.append(block)
        else:
            self._refcount[block] = count - 1

    def refcount(self, block: int) -> int:
        return self._refcount.get(block, 0)

    def check_leaks(self) -> None:
        """Assert the free list + refcounted blocks cover the pool exactly."""
        if len(self._free) + len(self._refcount) != self.n_blocks:
            raise PagedKVError(
                f"block leak: {len(self._free)} free + "
                f"{len(self._refcount)} referenced != {self.n_blocks}"
            )


@dataclass
class SequenceAllocation:
    """One request's block table on one stage shard."""

    request_id: int
    block_table: list[int]
    tokens: int = 0
    last_access: float = 0.0

    def blocks_needed(self, block_tokens: int) -> int:
        return -(-self.tokens // block_tokens) if self.tokens else 0


class PagedKVCache:
    """Block-granular KV accounting for one stage shard.

    The serving runtime calls :meth:`register` on admission,
    :meth:`append` per generated token batch, and :meth:`free` on
    completion.  The refactoring executor uses :meth:`migration_bytes` to
    size Eq. 10 transfers and :meth:`fork` when a split stage inherits a
    prefix.
    """

    def __init__(self, config: PagedKVConfig):
        self.config = config
        self.pool = BlockPool(config.n_blocks)
        self._sequences: dict[int, SequenceAllocation] = {}
        self.appended_tokens_total = 0
        self.preemptions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, request_id: int) -> bool:
        return request_id in self._sequences

    def __len__(self) -> int:
        return len(self._sequences)

    @property
    def utilization(self) -> float:
        """Fraction of pool blocks in use."""
        return self.pool.used_blocks / self.config.n_blocks

    @property
    def resident_tokens(self) -> int:
        return sum(seq.tokens for seq in self._sequences.values())

    @property
    def resident_bytes(self) -> float:
        return self.pool.used_blocks * self.config.block_bytes

    def sequence(self, request_id: int) -> SequenceAllocation:
        try:
            return self._sequences[request_id]
        except KeyError:
            raise PagedKVError(f"unknown request {request_id}") from None

    def validity(self, request_id: int) -> ValidityMask:
        """Eq. 10 mask for this shard: the contiguous resident prefix."""
        return ValidityMask.upto(self.sequence(request_id).tokens)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def blocks_for_tokens(self, tokens: int) -> int:
        if tokens < 0:
            raise ValueError(f"negative token count: {tokens}")
        return -(-tokens // self.config.block_tokens)

    def can_admit(self, tokens: int) -> bool:
        """Would allocating ``tokens`` keep the watermark of free blocks?

        The watermark reserves headroom so already-running sequences can
        keep appending decode tokens without immediate preemption.
        """
        reserve = int(self.config.n_blocks * self.config.watermark)
        return self.blocks_for_tokens(tokens) <= self.pool.free_blocks - reserve

    def register(self, request_id: int, prompt_tokens: int = 0, *, now: float = 0.0) -> None:
        """Admit a request, allocating blocks for its prompt KV."""
        if request_id in self._sequences:
            raise PagedKVError(f"request {request_id} already registered")
        seq = SequenceAllocation(request_id, [], 0, now)
        self._sequences[request_id] = seq
        if prompt_tokens:
            try:
                self._grow(seq, prompt_tokens)
            except CapacityError:
                del self._sequences[request_id]
                raise

    def append(self, request_id: int, tokens: int = 1, *, now: float = 0.0) -> None:
        """Account for newly generated decode tokens."""
        seq = self.sequence(request_id)
        self._grow(seq, tokens)
        seq.last_access = now
        self.appended_tokens_total += tokens

    def _grow(self, seq: SequenceAllocation, tokens: int) -> None:
        if tokens < 0:
            raise ValueError(f"negative token count: {tokens}")
        bt = self.config.block_tokens
        target_blocks = self.blocks_for_tokens(seq.tokens + tokens)
        new_blocks = target_blocks - len(seq.block_table)
        if new_blocks > self.pool.free_blocks:
            raise CapacityError(
                f"request {seq.request_id} needs {new_blocks} blocks, "
                f"{self.pool.free_blocks} free"
            )
        # Copy-on-write: appending into a shared tail block requires a
        # private copy first.
        if seq.block_table and tokens > 0:
            tail = seq.block_table[-1]
            if self.pool.refcount(tail) > 1 and seq.tokens % bt != 0:
                fresh = self.pool.allocate()
                self.pool.release(tail)
                seq.block_table[-1] = fresh
        for _ in range(new_blocks):
            seq.block_table.append(self.pool.allocate())
        seq.tokens += tokens

    def free(self, request_id: int) -> int:
        """Release a finished request's blocks; returns blocks freed."""
        seq = self.sequence(request_id)
        for block in seq.block_table:
            self.pool.release(block)
        del self._sequences[request_id]
        return len(seq.block_table)

    # ------------------------------------------------------------------
    # Prefix sharing / preemption
    # ------------------------------------------------------------------
    def fork(self, parent_id: int, child_id: int) -> None:
        """Copy-on-write fork: the child shares the parent's full blocks.

        The parent's partial tail block (if any) is *copied* so the two
        sequences can diverge; full blocks are shared by refcount.
        """
        parent = self.sequence(parent_id)
        if child_id in self._sequences:
            raise PagedKVError(f"request {child_id} already registered")
        bt = self.config.block_tokens
        full = parent.tokens // bt
        has_partial = parent.tokens % bt != 0
        if has_partial and self.pool.free_blocks < 1:
            raise CapacityError("no free block to copy the partial tail")
        table = []
        for block in parent.block_table[:full]:
            self.pool.share(block)
            table.append(block)
        if has_partial:
            table.append(self.pool.allocate())
        self._sequences[child_id] = SequenceAllocation(
            child_id, table, parent.tokens, parent.last_access
        )

    def choose_victims(self, blocks_needed: int) -> list[int]:
        """LRU victim selection: requests to preempt to free the blocks.

        Returns request ids in eviction order; does not evict.  Raises
        :class:`CapacityError` if even evicting everything falls short.
        """
        if blocks_needed <= self.pool.free_blocks:
            return []
        deficit = blocks_needed - self.pool.free_blocks
        victims = []
        freed = 0
        for seq in sorted(self._sequences.values(), key=lambda s: s.last_access):
            victims.append(seq.request_id)
            # Shared blocks only free if this holds the last reference;
            # count conservatively (private blocks only).
            freed += sum(
                1 for b in seq.block_table if self.pool.refcount(b) == 1
            )
            if freed >= deficit:
                return victims
        raise CapacityError(
            f"need {blocks_needed} blocks but evicting all "
            f"{len(self._sequences)} sequences frees only {freed}"
        )

    def preempt(self, request_id: int) -> int:
        """Evict one sequence (its KV must be recomputed or re-fetched)."""
        freed = self.free(request_id)
        self.preemptions += 1
        return freed

    # ------------------------------------------------------------------
    # Migration (Eq. 10 integration)
    # ------------------------------------------------------------------
    def migration_bytes(self, request_id: int, already_valid: ValidityMask | None = None) -> float:
        """Bytes a refactoring transfer must move for this request.

        ``already_valid`` is the target shard's validity mask (from an
        earlier snapshot); only the delta is charged, mirroring
        :func:`repro.pipeline.kvcache.delta_sync`.
        """
        seq = self.sequence(request_id)
        if already_valid is None:
            missing = seq.tokens
        else:
            missing = already_valid.invalid_before(seq.tokens).count
        return missing * self.config.bytes_per_token

    def blocks_for_range(self, request_id: int, start: int, end: int) -> list[int]:
        """Block ids holding token positions [start, end) of a request."""
        seq = self.sequence(request_id)
        if not 0 <= start <= end <= seq.tokens:
            raise ValueError(
                f"range [{start}, {end}) outside resident tokens "
                f"[0, {seq.tokens})"
            )
        if start == end:
            return []
        bt = self.config.block_tokens
        first = start // bt
        last = (end - 1) // bt
        return seq.block_table[first : last + 1]

    def check_invariants(self) -> None:
        """Cross-check block tables against the pool (used by tests)."""
        self.pool.check_leaks()
        for seq in self._sequences.values():
            expected = self.blocks_for_tokens(seq.tokens)
            if len(seq.block_table) != expected:
                raise PagedKVError(
                    f"request {seq.request_id}: {len(seq.block_table)} blocks "
                    f"for {seq.tokens} tokens (expected {expected})"
                )
            for block in seq.block_table:
                if self.pool.refcount(block) < 1:
                    raise PagedKVError(
                        f"request {seq.request_id} references freed block {block}"
                    )
