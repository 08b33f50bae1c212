"""Objective handles: V(x, g) evaluation, gradients, and the running
validation average that drives mutation.

An objective is anything with value/value_and_grad: a round trains each
node through value_and_grad and scores it on validation batches by value.
Two implementations ship: an analytic quadratic (for dynamics tests and
benches) and a wrapper around the miniature networks (the real workload).
Validation losses are smoothed per node by an exponential moving average
and are never backpropagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from .errors import NonFiniteValue


class ObjectiveHandle(Protocol):
    def value(self, x: np.ndarray, g: int, batch: Any) -> float: ...

    def value_and_grad(
        self, x: np.ndarray, g: int, batch: Any
    ) -> tuple[float, np.ndarray]: ...


@dataclass
class QuadraticObjective:
    """V(x, g) = 0.5*||x - center_g||^2 + offset_g; ignores batches."""

    centers: dict[int, np.ndarray]
    offsets: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.centers = {
            g: np.asarray(c, dtype=float) for g, c in self.centers.items()
        }

    def value(self, x: np.ndarray, g: int, batch: Any = None) -> float:
        d = np.asarray(x, dtype=float) - self.centers[g]
        return 0.5 * float(d @ d) + self.offsets.get(g, 0.0)

    def grad(self, x: np.ndarray, g: int, batch: Any = None) -> np.ndarray:
        return np.asarray(x, dtype=float) - self.centers[g]

    def value_and_grad(
        self, x: np.ndarray, g: int, batch: Any = None
    ) -> tuple[float, np.ndarray]:
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


def eval_train(obj: ObjectiveHandle, x: np.ndarray, g: int, batch: Any) -> float:
    """Training-batch loss V_k(x, g)."""
    val = float(obj.value(x, g, batch))
    if not math.isfinite(val):
        raise NonFiniteValue(f"training loss at node {g} is {val}")
    return val


def eval_val(
    obj: ObjectiveHandle,
    tracker: ValTracker,
    x: np.ndarray,
    g: int,
    batch: Any,
) -> float:
    """Validation-batch loss folded into the node's running average.

    Returns the updated average V~_k(g). Gradients are never taken here.
    """
    sample = float(obj.value(x, g, batch))
    if not math.isfinite(sample):
        raise NonFiniteValue(f"validation loss at node {g} is {sample}")
    return tracker.update(g, sample)


def clip_gradient(vec: np.ndarray, max_norm: float) -> np.ndarray:
    """Rescale to L2 norm max_norm when the norm exceeds it."""
    if max_norm <= 0:
        return vec
    norm = float(np.linalg.norm(vec))
    if norm > max_norm:
        return vec * (max_norm / norm)
    return vec
