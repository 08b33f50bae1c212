"""Finite weighted graphs over architectures.

A graph holds one payload per node (anything hashable-free: net descriptors,
plain labels, coordinates) plus a symmetric nonnegative kernel. Node ids are
the payloads' list positions, with the center always id 0. The kernel is one
read-only n x n float array, checked once when the graph is made: entry
[a, b] is the weight of edge (a, b), zero for non-edges and on the diagonal.
Graphs are immutable; the search builds one per round. The particle dynamics
read the kernel whole, as `kernel_matrix()`.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, NonPositiveWeight, UnknownNode


class ArchGraph:
    """Weighted undirected graph with a distinguished center node (id 0)."""

    def __init__(self, payloads: Sequence[Any], kernel: Any) -> None:
        """Node g carries payloads[g]; kernel is the n x n weight array.

        Raises UnknownNode without payloads, DimensionMismatch if the kernel
        is not n x n, and NonPositiveWeight unless its weights are finite,
        nonnegative and symmetric with a zero diagonal. The kernel is copied.
        """
        self._payloads = list(payloads)
        n = len(self._payloads)
        if n == 0:
            raise UnknownNode("a graph needs at least one payload, the center")
        # Adding 0.0 copies the caller's array and turns any -0.0 into 0.0.
        matrix = np.asarray(kernel, dtype=float) + 0.0
        if matrix.shape != (n, n):
            raise DimensionMismatch(
                f"kernel shape {matrix.shape} does not match {n} payloads"
            )
        if not np.all(np.isfinite(matrix)) or np.any(matrix < 0.0):
            raise NonPositiveWeight("kernel weights must be finite and nonnegative")
        if np.any(matrix != matrix.T):
            raise NonPositiveWeight("kernel must be symmetric")
        if np.any(matrix.diagonal()):
            raise NonPositiveWeight("self-edges are not allowed")
        matrix.flags.writeable = False
        self._kernel = matrix

    # -- queries ----------------------------------------------------------

    @property
    def center(self) -> int:
        return 0

    def _id(self, g: int) -> int:
        if g not in self:
            raise UnknownNode(g)
        return int(g)

    def payload(self, g: int) -> Any:
        return self._payloads[self._id(g)]

    def nodes(self) -> list[int]:
        """All node ids, ascending."""
        return list(range(len(self._payloads)))

    def __len__(self) -> int:
        return len(self._payloads)

    def __contains__(self, g: object) -> bool:
        return isinstance(g, (int, np.integer)) and 0 <= g < len(self._payloads)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._payloads)))

    def kernel(self, a: int, b: int) -> float:
        """Edge weight between a and b; 0 for non-edges and for a == b."""
        return float(self._kernel[self._id(a), self._id(b)])

    def kernel_matrix(self) -> np.ndarray:
        """K as a read-only n x n array: entry [a, b] is kernel(a, b)."""
        return self._kernel

    def neighbors(self, g: int) -> list[int]:
        """Ids adjacent to g with positive weight, ascending."""
        return np.flatnonzero(self._kernel[self._id(g)]).tolist()

    def edges(self) -> list[tuple[int, int, float]]:
        """All edges as (a, b, weight) with a < b, sorted."""
        rows, cols = np.nonzero(np.triu(self._kernel))
        return list(zip(rows.tolist(), cols.tolist(),
                        self._kernel[rows, cols].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchGraph):
            return NotImplemented
        return (
            self._payloads == other._payloads
            and np.array_equal(self._kernel, other._kernel)
        )

    def __repr__(self) -> str:
        n_edges = np.count_nonzero(self._kernel) // 2
        return f"ArchGraph(nodes={len(self._payloads)}, edges={n_edges})"


def star_graph(center_payload: Any, leaf_payloads: list[Any]) -> ArchGraph:
    """Center plus one unit-weight edge to each leaf. Ids follow list order."""
    n = len(leaf_payloads) + 1
    kernel = np.zeros((n, n))
    kernel[0, 1:] = kernel[1:, 0] = 1.0
    return ArchGraph([center_payload, *leaf_payloads], kernel)


def complete_graph(payloads: list[Any]) -> ArchGraph:
    """All-pairs unit-weight graph; payloads[0] becomes the center."""
    return ArchGraph(payloads, 1.0 - np.eye(len(payloads)))
