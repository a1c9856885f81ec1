"""Computation graph G=(V,E) over operators (§5).

LLM inference graphs are chain-structured at stage granularity (residual
connections stay inside blocks), so the graph stores a topologically ordered
operator list plus explicit edges, and exposes the prefix aggregates the
Eq. 2 dynamic program needs.
"""

from __future__ import annotations

import itertools

import networkx as nx

from repro.models.operators import Operator


class ComputationGraph:
    """Topologically ordered operator graph for one model shape (no name)."""

    def __init__(self, operators: list[Operator]):
        if not operators:
            raise ValueError("computation graph needs at least one operator")
        for i, op in enumerate(operators):
            if op.index != i:
                raise ValueError(
                    f"operator {op.name!r} has index {op.index}, expected {i}"
                )
        self.operators = list(operators)
        # Prefix sums for O(1) range aggregation in the partitioner.
        self._param_prefix = list(itertools.accumulate(
            [0.0] + [op.param_bytes for op in operators]
        ))
        self._flops_prefix = list(itertools.accumulate(
            [0.0] + [op.flops_per_token for op in operators]
        ))
        self._kv_prefix = list(itertools.accumulate(
            [0.0] + [op.kv_bytes_per_token for op in operators]
        ))

    def __len__(self) -> int:
        return len(self.operators)

    # ------------------------------------------------------------------
    # Range aggregates: [start, end) operator slices
    # ------------------------------------------------------------------
    def param_bytes(self, start: int = 0, end: int | None = None) -> float:
        end = len(self.operators) if end is None else end
        return self._param_prefix[end] - self._param_prefix[start]

    def flops_per_token(self, start: int = 0, end: int | None = None) -> float:
        end = len(self.operators) if end is None else end
        return self._flops_prefix[end] - self._flops_prefix[start]

    def kv_bytes_per_token(self, start: int = 0, end: int | None = None) -> float:
        end = len(self.operators) if end is None else end
        return self._kv_prefix[end] - self._kv_prefix[start]

    @property
    def total_param_bytes(self) -> float:
        return self.param_bytes()

    # ------------------------------------------------------------------
    # Partition boundaries
    # ------------------------------------------------------------------
    def cut_points(self) -> list[int]:
        """Indices ``i`` such that a stage may end after operator ``i``.

        A cut at ``i`` means stages split as ``[.. i] | [i+1 ..]``.
        """
        points = []
        ops = self.operators
        for i, op in enumerate(ops[:-1]):
            if op.cuttable_after:
                points.append(i)
        return points

    def boundary_quality(self, i: int) -> float:
        """Quality of a cut after operator ``i`` (see Operator docstring)."""
        ops = self.operators
        nxt = ops[i + 1] if i + 1 < len(ops) else None
        return ops[i].boundary_quality(nxt)

    def layer_boundaries(self) -> list[int]:
        """Cut indices that fall exactly on transformer layer boundaries."""
        return [i for i in self.cut_points() if self.boundary_quality(i) >= 1.0]

    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """Explicit DiGraph view (chain + intra-block edges) for analysis."""
        g = nx.DiGraph()
        for op in self.operators:
            g.add_node(op.index, name=op.name, kind=op.kind.value, block=op.block)
        for a, b in zip(self.operators, self.operators[1:]):
            g.add_edge(a.index, b.index)
        return g

    def validate(self) -> None:
        """Sanity-check the graph structure (acyclic chain, positive sizes)."""
        g = self.to_networkx()
        if not nx.is_directed_acyclic_graph(g):
            raise ValueError("computation graph has a cycle")
        if self.total_param_bytes <= 0:
            raise ValueError("computation graph has no parameters")
