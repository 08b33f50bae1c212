"""Finite weighted graphs over architectures.

A graph holds one payload per node (anything hashable-free: net descriptors,
plain labels, coordinates) plus a symmetric nonnegative kernel. Node ids are
small ints handed out in insertion order, with the center always id 0. The
kernel is stored as one adjacency row per node, `{neighbor: weight}`, with
each edge written into both rows: the particle dynamics only ask for the
neighbors of g and for K(g, h), and each reads one row. Absent entries,
including the diagonal, are zero weight. The search loop rebuilds one of
these per round, so the structure stays simple: dicts, no adjacency
matrices.
"""

from __future__ import annotations

from typing import Any, Iterator

from .errors import NonPositiveWeight, UnknownNode


class ArchGraph:
    """Weighted undirected graph with a distinguished center node (id 0)."""

    def __init__(self) -> None:
        self._payloads: dict[int, Any] = {}
        self._adj: dict[int, dict[int, float]] = {}
        self._next_id = 0

    # -- construction -----------------------------------------------------

    def _add(self, payload: Any) -> int:
        gid = self._next_id
        self._next_id += 1
        self._payloads[gid] = payload
        self._adj[gid] = {}
        return gid

    def add_node(self, payload: Any, weight_to_center: float = 1.0) -> int:
        """Add a node connected to the center; returns its id."""
        if not self._payloads:
            raise UnknownNode("graph has no center yet; use new_graph")
        gid = self._add(payload)
        self.connect(0, gid, weight_to_center)
        return gid

    def connect(self, a: int, b: int, weight: float = 1.0) -> None:
        """Set the symmetric edge weight between two existing nodes."""
        if a not in self._payloads:
            raise UnknownNode(a)
        if b not in self._payloads:
            raise UnknownNode(b)
        if a == b:
            raise NonPositiveWeight("self-edges are not allowed")
        if not weight > 0.0:
            raise NonPositiveWeight(f"edge ({a},{b}) weight {weight!r}")
        self._adj[a][b] = self._adj[b][a] = float(weight)

    # -- queries ----------------------------------------------------------

    @property
    def center(self) -> int:
        return 0

    def payload(self, g: int) -> Any:
        try:
            return self._payloads[g]
        except KeyError:
            raise UnknownNode(g) from None

    def nodes(self) -> list[int]:
        """All node ids, ascending."""
        return sorted(self._payloads)

    def __len__(self) -> int:
        return len(self._payloads)

    def __contains__(self, g: int) -> bool:
        return g in self._payloads

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes())

    def kernel(self, a: int, b: int) -> float:
        """Edge weight between a and b; 0 for non-edges and for a == b."""
        if a not in self._payloads:
            raise UnknownNode(a)
        if b not in self._payloads:
            raise UnknownNode(b)
        return self._adj[a].get(b, 0.0)

    def neighbors(self, g: int) -> list[int]:
        """Ids adjacent to g with positive weight, ascending."""
        try:
            return sorted(self._adj[g])
        except KeyError:
            raise UnknownNode(g) from None

    def edges(self) -> list[tuple[int, int, float]]:
        """All edges as (a, b, weight) with a < b, sorted."""
        return sorted(
            (a, b, w) for a, row in self._adj.items() for b, w in row.items()
            if a < b
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchGraph):
            return NotImplemented
        return (
            self._payloads == other._payloads
            and self._adj == other._adj
        )

    def __repr__(self) -> str:
        n_edges = sum(len(row) for row in self._adj.values()) // 2
        return f"ArchGraph(nodes={len(self._payloads)}, edges={n_edges})"


def new_graph(center_payload: Any) -> ArchGraph:
    """Create a graph containing only the center node (id 0)."""
    graph = ArchGraph()
    graph._add(center_payload)
    return graph


def star_graph(center_payload: Any, leaf_payloads: list[Any]) -> ArchGraph:
    """Center plus one unit-weight edge to each leaf. Ids follow list order."""
    graph = new_graph(center_payload)
    for payload in leaf_payloads:
        graph.add_node(payload, 1.0)
    return graph


def complete_graph(payloads: list[Any]) -> ArchGraph:
    """All-pairs unit-weight graph; payloads[0] becomes the center."""
    if not payloads:
        raise UnknownNode("complete_graph needs at least one payload")
    graph = new_graph(payloads[0])
    for payload in payloads[1:]:
        graph._add(payload)
    ids = graph.nodes()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            graph.connect(a, b, 1.0)
    return graph
