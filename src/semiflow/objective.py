"""Objective handles: V(x, g) evaluation, gradients, and the running
validation average that drives mutation.

An objective is anything with group_key/value/value_and_grad: a round trains
each node through value_and_grad and scores it on validation batches by
value. g is one node, with x its parameter vector and batch its batch, or a
group: a tuple of nodes with one group_key, with x stacking their
parameters row by row and batch a list of their batches. A group's call
returns one loss per node (an array) and one gradient row per node, each
bit for bit what the node's own call gives, so a round makes one call per
group and clock tick. Two implementations ship: an analytic quadratic (for
dynamics tests and benches; nodes of one dimension form a group) and a
wrapper around the miniature networks (the real workload; nodes of one
NetSpec form a group). Validation losses are smoothed per node by an
exponential moving average and are never backpropagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable, Protocol

import numpy as np

from .errors import NonFiniteValue

Node = int | tuple[int, ...]


class ObjectiveHandle(Protocol):
    def group_key(self, g: int) -> Hashable: ...

    def value(self, x: np.ndarray, g: Node, batch: Any) -> Any: ...

    def value_and_grad(
        self, x: np.ndarray, g: Node, batch: Any
    ) -> tuple[Any, np.ndarray]: ...


@dataclass
class QuadraticObjective:
    """V(x, g) = 0.5*||x - center_g||^2 + offset_g; ignores batches."""

    centers: dict[int, np.ndarray]
    offsets: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.centers = {
            g: np.asarray(c, dtype=float) for g, c in self.centers.items()
        }

    def group_key(self, g: int) -> Hashable:
        return self.centers[g].shape

    def value(self, x: np.ndarray, g: Node, batch: Any = None) -> Any:
        if isinstance(g, tuple):
            return np.array([self.value(row, node) for row, node in zip(x, g)])
        d = np.asarray(x, dtype=float) - self.centers[g]
        return 0.5 * float(d @ d) + self.offsets.get(g, 0.0)

    def grad(self, x: np.ndarray, g: Node, batch: Any = None) -> np.ndarray:
        if isinstance(g, tuple):
            center = np.array([self.centers[node] for node in g])
        else:
            center = self.centers[g]
        return np.asarray(x, dtype=float) - center

    def value_and_grad(
        self, x: np.ndarray, g: Node, batch: Any = None
    ) -> tuple[Any, np.ndarray]:
        return self.value(x, g, batch), self.grad(x, g, batch)


@dataclass
class ValTracker:
    """Per-node exponential moving average of validation loss.

    The first sample initializes the average; afterwards
    running' = decay*running + (1-decay)*sample.
    """

    decay: float = 0.9
    running: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must be in (0,1), got {self.decay}")

    def update(self, g: int, sample: float) -> float:
        if not math.isfinite(sample):
            raise NonFiniteValue(f"validation sample at node {g} is {sample}")
        if g in self.running:
            self.running[g] = self.decay * self.running[g] + (1.0 - self.decay) * sample
        else:
            self.running[g] = float(sample)
        return self.running[g]

    def value(self, g: int) -> float:
        return self.running[g]

    def snapshot(self) -> dict[int, float]:
        return dict(self.running)


def eval_val(
    obj: ObjectiveHandle,
    tracker: ValTracker,
    x: np.ndarray,
    g: Node,
    batch: Any,
) -> Any:
    """Validation-batch loss folded into the node's running average.

    Returns the updated average V~_k(g), or for a group one average per
    node. Every sample is checked before any is folded; the first
    non-finite one, in g's order, raises NonFiniteValue, whose node names
    it. Gradients are never taken here.
    """
    group = g if isinstance(g, tuple) else (g,)
    samples = np.atleast_1d(obj.value(x, g, batch)).tolist()
    for node, sample in zip(group, samples):
        if not math.isfinite(sample):
            raise NonFiniteValue(
                f"validation loss at node {node} is {sample}", node=node
            )
    running = [tracker.update(node, s) for node, s in zip(group, samples)]
    return running if isinstance(g, tuple) else running[0]


def clip_gradient(vec: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale vec in place to L2 norm max_norm when its norm exceeds it,
    and return it. A stack of gradients (..., P) is clipped row by row,
    each by its own norm."""
    if max_norm <= 0:
        return vec
    if vec.ndim > 1:
        # Each row by the 1-D arithmetic: norm(axis=-1) rounds otherwise.
        for row in vec:
            clip_gradient(row, max_norm)
        return vec
    # np.linalg.norm's arithmetic for a 1-D float vector: the dot product of
    # its contiguous copy (a strided dot can round differently), then sqrt.
    flat = np.ascontiguousarray(vec)
    norm = math.sqrt(flat @ flat)
    if norm > max_norm:
        vec *= max_norm / norm
    return vec
