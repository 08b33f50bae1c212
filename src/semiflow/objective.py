"""Objective handles: V(x, g) evaluation, gradients, and the running
validation average that drives mutation.

An objective is anything with group_key/packing/bind. A round groups its
nodes by group_key and binds each group once: bind(group, x) returns its
BoundGroup for the whole round, where x is (P,) for a group of one and the
parameters stacked row by row, (n, P), for more. value_and_grad() gives one
training loss per node and a gradient shaped as x; value() gives one
validation loss per node. Each call draws the group's next batch itself,
and each row is that node's own call on its own batch. The round writes x
in place between calls, and the bound group reads those writes.

Nodes of one group may differ in size. packing(group) is a Packing that
zero-pads each node's vector to one row of the group's width. The round
packs x and the velocity by it and takes each node's own entries back when
it ends. Two implementations ship: an analytic quadratic (for dynamics tests
and benches; nodes of one dimension form a group, packed whole; it has no
batches) and the miniature networks (search.NetObjective, the real workload;
nodes of one shape class, nn.shape_class, form a group, padded to its wide
spec, nn.wide_spec; each bound group holds its stacked train and val streams
and one bound network per stream). A node's row gives what its own call
gives: bit for bit for whole rows, and to rounding where padding changed the
shapes BLAS sums over. Validation losses are smoothed per node by an
exponential moving average and are never backpropagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple, Protocol

import numpy as np

from .errors import NonFiniteValue
from .knobs import check_fields, knob


class BoundGroup(NamedTuple):
    """One group bound for a round: value() and value_and_grad() each score
    every node of the group on its next batch (see the module docstring)."""

    value: Callable[[], np.ndarray]
    value_and_grad: Callable[[], tuple[np.ndarray, np.ndarray]]


class Packing(NamedTuple):
    """How the nodes of one group share a stacked row: each row holds width
    entries, node i's own at places[i] and zeros elsewhere."""

    width: int
    places: tuple[np.ndarray, ...]


class ObjectiveHandle(Protocol):
    """group_key(g) names the nodes that share one call; packing(group)
    places each of them in a row of the group's stack (see the module
    docstring); bind(group, x) binds them on x, (P,) for a group of one."""

    def group_key(self, g: int) -> Hashable: ...

    def packing(self, group: tuple[int, ...]) -> Packing: ...

    def bind(self, group: tuple[int, ...], x: np.ndarray) -> BoundGroup: ...


@dataclass
class QuadraticObjective:
    """V(x, g) = 0.5*||x - center_g||^2 + offset_g."""

    centers: dict[int, np.ndarray]
    offsets: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.centers = {
            g: np.asarray(c, dtype=float) for g, c in self.centers.items()
        }

    def group_key(self, g: int) -> Hashable:
        return self.centers[g].shape

    def packing(self, group: tuple[int, ...]) -> Packing:
        size = self.centers[group[0]].size
        return Packing(size, (np.arange(size),) * len(group))

    def value(self, x: np.ndarray, g: int) -> float:
        d = np.asarray(x, dtype=float) - self.centers[g]
        return 0.5 * float(d @ d) + self.offsets.get(g, 0.0)

    def grad(self, x: np.ndarray, g: int) -> np.ndarray:
        return np.asarray(x, dtype=float) - self.centers[g]

    def bind(self, group: tuple[int, ...], x: np.ndarray) -> BoundGroup:
        center = np.array([self.centers[g] for g in group]).reshape(x.shape)
        rows = np.atleast_2d(x)  # a view: a group of one binds x (P,)

        def value() -> np.ndarray:
            return np.array([self.value(row, g) for row, g in zip(rows, group)])

        return BoundGroup(value, lambda: (value(), x - center))


@dataclass
class ValTracker:
    """Per-node exponential moving average of validation loss.

    The first sample initializes the average; afterwards
    running' = decay*running + (1-decay)*sample.
    """

    decay: float = knob(0.9, "(0, 1)")
    running: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self)

    def update(self, g: int, sample: float) -> float:
        if not math.isfinite(sample):
            raise NonFiniteValue(f"validation sample at node {g} is {sample}", node=g)
        if g in self.running:
            self.running[g] = self.decay * self.running[g] + (1.0 - self.decay) * sample
        else:
            self.running[g] = float(sample)
        return self.running[g]


def eval_val(
    bound: BoundGroup, tracker: ValTracker, group: tuple[int, ...]
) -> list[float]:
    """The group's next validation losses folded into each node's running
    average; returns the updated averages V~_k(g), in group order.

    Every sample is checked before any is folded; the first non-finite one,
    in group order, raises NonFiniteValue, whose node names it. Gradients
    are never taken here.
    """
    samples = np.atleast_1d(bound.value()).tolist()
    for node, sample in zip(group, samples):
        if not math.isfinite(sample):
            raise NonFiniteValue(
                f"validation loss at node {node} is {sample}", node=node
            )
    return [tracker.update(node, s) for node, s in zip(group, samples)]


def clip_gradient(vec: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale vec in place to L2 norm max_norm when its norm exceeds it,
    and return it. A stack of gradients (..., P) is clipped row by row,
    each by its own norm, with the bits of its own 1-D call."""
    if max_norm <= 0:
        return vec
    # np.linalg.norm's arithmetic for a 1-D float vector: the dot product of
    # its contiguous copy (a strided dot can round differently), then sqrt.
    # A stack's 1 x P by P x 1 products take the same dot routine per row.
    flat = np.ascontiguousarray(vec)
    if vec.ndim == 1:
        norm = math.sqrt(flat @ flat)
        if norm > max_norm:
            vec *= max_norm / norm
        return vec
    norm = np.sqrt(np.matmul(flat[..., None, :], flat[..., :, None])[..., 0, 0])
    # max_norm / max(norm, max_norm): max_norm / norm above the bound and
    # exactly 1.0 within it; a NaN norm, as the 1-D test, leaves its row be.
    vec *= (max_norm / np.fmax(norm, max_norm))[..., None]
    return vec
