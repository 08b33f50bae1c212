"""Architecture edits and the per-round local graph.

Positive edits (deepen, widen, add_skip) are initialized so the edited
network computes the same function as the original: an inserted layer starts
as the identity behind a ReLU (exact because hidden activations are
nonnegative), widening duplicates units and splits their outgoing weights,
and a new skip starts at scale zero. Negative edits (remove_layer, narrow,
remove_skip) shrink by plain truncation and make no preservation claim.

Velocities ride along: every edit applies the same index transform to the
velocity vector, with freshly created entries set to zero.

Edits that would break a skip's width match (widening, narrowing, or removing
a layer an existing skip touches) refuse with ConstraintViolated; the graph
builder simply retries with a fresh draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadPosition, ConstraintViolated, DimensionMismatch
from .graph import ArchGraph, complete_graph, star_graph
from .nn import NetParts, NetSpec, flatten, forward, param_count, unflatten


@dataclass(frozen=True)
class Constraints:
    """Hard limits every emitted architecture must satisfy."""

    max_layers: int = 8
    max_width: int = 64
    max_incoming: int = 3
    max_params: int = 20000

    def __post_init__(self) -> None:
        for name in ("max_layers", "max_width", "max_incoming", "max_params"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Morphism:
    """Record of one applied edit (kind plus the drawn arguments)."""

    kind: str
    args: tuple[tuple[str, int], ...]

    def args_dict(self) -> dict[str, int]:
        return dict(self.args)


class Morphed(NamedTuple):
    spec: NetSpec
    params: np.ndarray
    velocity: np.ndarray | None


@dataclass
class Candidate:
    """Graph payload: an architecture with live parameters and velocity."""

    spec: NetSpec
    params: np.ndarray
    velocity: np.ndarray | None = None
    origin: Morphism | None = None


POSITIVE_KINDS = ("deepen", "widen", "add_skip")
NEGATIVE_KINDS = ("remove_layer", "narrow", "remove_skip")
ALL_KINDS = POSITIVE_KINDS + NEGATIVE_KINDS


def default_mix() -> dict[str, float]:
    return {
        "deepen": 0.25,
        "widen": 0.25,
        "add_skip": 0.2,
        "narrow": 0.1,
        "remove_layer": 0.1,
        "remove_skip": 0.1,
    }


def _check_params_budget(spec: NetSpec, constraints: Constraints | None) -> None:
    if constraints is not None and param_count(spec) > constraints.max_params:
        raise ConstraintViolated(
            f"{param_count(spec)} parameters exceed the cap {constraints.max_params}"
        )


def _skip_touches(spec: NetSpec, layer: int) -> bool:
    return any(s == layer or d == layer for s, d in spec.skips)


def _split_vectors(params, velocity, spec):
    p = unflatten(spec, params)
    v = unflatten(spec, velocity) if velocity is not None else None
    return p, v


def _merge(spec: NetSpec, p: NetParts, v: NetParts | None) -> Morphed:
    return Morphed(
        spec, flatten(spec, p), flatten(spec, v) if v is not None else None
    )


def deepen(
    spec: NetSpec,
    params: np.ndarray,
    position: int,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Morphed:
    """Insert an identity layer directly after hidden layer `position`.

    Valid positions are 1..len(hidden): the insertion point must sit behind a
    ReLU so the identity survives the new ReLU unchanged.
    """
    n = len(spec.hidden)
    if not 1 <= position <= n:
        raise BadPosition(f"deepen position {position} not in [1, {n}]")
    if constraints is not None and n + 1 > constraints.max_layers:
        raise ConstraintViolated(f"already at max_layers {constraints.max_layers}")
    width = spec.hidden[position - 1]
    hidden = spec.hidden[:position] + (width,) + spec.hidden[position:]
    skips = tuple(
        (s + (s > position), d + (d > position)) for s, d in spec.skips
    )
    new_spec = NetSpec(spec.input_dim, spec.output_dim, hidden, skips)
    _check_params_budget(new_spec, constraints)

    p, v = _split_vectors(params, velocity, spec)
    p.weights.insert(position, np.eye(width))
    p.biases.insert(position, np.zeros(width))
    if v is not None:
        v.weights.insert(position, np.zeros((width, width)))
        v.biases.insert(position, np.zeros(width))
    return _merge(new_spec, p, v)


def widen(
    spec: NetSpec,
    params: np.ndarray,
    layer: int,
    delta: int,
    rng: np.random.Generator,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Morphed:
    """Duplicate `delta` random units of a hidden layer (with replacement),
    splitting each unit's outgoing weights evenly across its copies."""
    n = len(spec.hidden)
    if not 1 <= layer <= n:
        raise BadPosition(f"widen layer {layer} not in [1, {n}]")
    if delta < 1:
        raise BadPosition(f"widen delta must be >= 1, got {delta}")
    width = spec.hidden[layer - 1]
    if constraints is not None and width + delta > constraints.max_width:
        raise ConstraintViolated(
            f"width {width + delta} would exceed max_width {constraints.max_width}"
        )
    if _skip_touches(spec, layer):
        raise ConstraintViolated(
            f"layer {layer} is tied to a skip connection; widening would "
            f"break the width match"
        )
    hidden = list(spec.hidden)
    hidden[layer - 1] = width + delta
    new_spec = NetSpec(spec.input_dim, spec.output_dim, tuple(hidden), spec.skips)
    _check_params_budget(new_spec, constraints)

    chosen = rng.integers(0, width, size=delta)
    multiplicity = np.ones(width)
    for u in chosen:
        multiplicity[u] += 1

    def widen_parts(parts: NetParts) -> None:
        w_in = parts.weights[layer - 1]
        b_in = parts.biases[layer - 1]
        parts.weights[layer - 1] = np.vstack([w_in, w_in[chosen]])
        parts.biases[layer - 1] = np.concatenate([b_in, b_in[chosen]])
        if layer == n:
            out = parts.w_out.copy()
        else:
            out = parts.weights[layer].copy()
        out[:, :width] = out[:, :width] / multiplicity
        out = np.hstack([out, out[:, chosen]])
        if layer == n:
            parts.w_out = out
        else:
            parts.weights[layer] = out

    p, v = _split_vectors(params, velocity, spec)
    widen_parts(p)
    if v is not None:
        widen_parts(v)
    return _merge(new_spec, p, v)


def add_skip(
    spec: NetSpec,
    params: np.ndarray,
    src: int,
    dst: int,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Morphed:
    """Add a zero-scale skip from activation src into hidden layer dst."""
    n = len(spec.hidden)
    if not (0 <= src < dst <= n) or dst < 1:
        raise BadPosition(f"skip ({src},{dst}) out of range for {n} hidden layers")
    widths = spec.widths()
    if widths[src] != widths[dst]:
        raise DimensionMismatch(
            f"skip ({src},{dst}) joins widths {widths[src]} and {widths[dst]}"
        )
    if (src, dst) in spec.skips:
        raise ConstraintViolated(f"skip ({src},{dst}) already present")
    if constraints is not None and spec.incoming(dst) + 1 > constraints.max_incoming:
        raise ConstraintViolated(
            f"layer {dst} already has {spec.incoming(dst)} incoming skips"
        )
    new_spec = NetSpec(
        spec.input_dim, spec.output_dim, spec.hidden, spec.skips + ((src, dst),)
    )
    _check_params_budget(new_spec, constraints)

    p, v = _split_vectors(params, velocity, spec)
    p.scales = np.concatenate([p.scales, [0.0]])
    if v is not None:
        v.scales = np.concatenate([v.scales, [0.0]])
    return _merge(new_spec, p, v)


def remove_layer(
    spec: NetSpec,
    params: np.ndarray,
    position: int,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Morphed:
    """Delete a hidden layer; the next layer's input is truncated or
    zero-padded to the width that now feeds it. Not function preserving."""
    n = len(spec.hidden)
    if not 1 <= position <= n:
        raise BadPosition(f"remove_layer position {position} not in [1, {n}]")
    if n < 2:
        raise ConstraintViolated("cannot remove the only hidden layer")
    if _skip_touches(spec, position):
        raise ConstraintViolated(
            f"layer {position} is tied to a skip connection"
        )
    widths = spec.widths()
    w_removed = widths[position]
    w_feed = widths[position - 1]
    hidden = spec.hidden[:position - 1] + spec.hidden[position:]
    skips = tuple(
        (s - (s > position), d - (d > position)) for s, d in spec.skips
    )
    new_spec = NetSpec(spec.input_dim, spec.output_dim, hidden, skips)

    def adjust_columns(mat: np.ndarray) -> np.ndarray:
        if w_feed <= w_removed:
            return mat[:, :w_feed]
        pad = np.zeros((mat.shape[0], w_feed - w_removed))
        return np.hstack([mat, pad])

    def cut(parts: NetParts) -> None:
        del parts.weights[position - 1]
        del parts.biases[position - 1]
        if position - 1 < len(parts.weights):
            parts.weights[position - 1] = adjust_columns(parts.weights[position - 1])
        else:
            parts.w_out = adjust_columns(parts.w_out)

    p, v = _split_vectors(params, velocity, spec)
    cut(p)
    if v is not None:
        cut(v)
    return _merge(new_spec, p, v)


def narrow(
    spec: NetSpec,
    params: np.ndarray,
    layer: int,
    delta: int,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Morphed:
    """Drop the trailing `delta` units of a hidden layer. Not preserving."""
    n = len(spec.hidden)
    if not 1 <= layer <= n:
        raise BadPosition(f"narrow layer {layer} not in [1, {n}]")
    if delta < 1:
        raise BadPosition(f"narrow delta must be >= 1, got {delta}")
    width = spec.hidden[layer - 1]
    floor = max(1, spec.output_dim)
    if width - delta < floor:
        raise ConstraintViolated(
            f"narrowing layer {layer} to {width - delta} would go below {floor}"
        )
    if _skip_touches(spec, layer):
        raise ConstraintViolated(f"layer {layer} is tied to a skip connection")
    hidden = list(spec.hidden)
    hidden[layer - 1] = width - delta
    new_spec = NetSpec(spec.input_dim, spec.output_dim, tuple(hidden), spec.skips)

    def cut(parts: NetParts) -> None:
        parts.weights[layer - 1] = parts.weights[layer - 1][:-delta]
        parts.biases[layer - 1] = parts.biases[layer - 1][:-delta]
        if layer == n:
            parts.w_out = parts.w_out[:, :-delta]
        else:
            parts.weights[layer] = parts.weights[layer][:, :-delta]

    p, v = _split_vectors(params, velocity, spec)
    cut(p)
    if v is not None:
        cut(v)
    return _merge(new_spec, p, v)


def remove_skip(
    spec: NetSpec,
    params: np.ndarray,
    index: int,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Morphed:
    """Delete skip number `index` (spec order) and its scale parameter."""
    if not 0 <= index < len(spec.skips):
        raise BadPosition(
            f"skip index {index} out of range for {len(spec.skips)} skips"
        )
    skips = spec.skips[:index] + spec.skips[index + 1:]
    new_spec = NetSpec(spec.input_dim, spec.output_dim, spec.hidden, skips)

    p, v = _split_vectors(params, velocity, spec)
    p.scales = np.delete(p.scales, index)
    if v is not None:
        v.scales = np.delete(v.scales, index)
    return _merge(new_spec, p, v)


def negative_morphism(
    spec: NetSpec,
    params: np.ndarray,
    kind: str,
    rng: np.random.Generator,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> tuple[Morphed, Morphism]:
    """Apply one size-reducing edit with randomly drawn arguments."""
    if kind not in NEGATIVE_KINDS:
        raise ValueError(f"unknown negative morphism {kind!r}")
    n = len(spec.hidden)
    if kind == "remove_layer":
        position = int(rng.integers(1, n + 1))
        morphed = remove_layer(spec, params, position, velocity, constraints)
        record = Morphism("remove_layer", (("position", position),))
    elif kind == "narrow":
        layer = int(rng.integers(1, n + 1))
        delta = int(rng.integers(1, 5))
        morphed = narrow(spec, params, layer, delta, velocity, constraints)
        record = Morphism("narrow", (("layer", layer), ("delta", delta)))
    else:
        if not spec.skips:
            raise ConstraintViolated("no skip to remove")
        index = int(rng.integers(0, len(spec.skips)))
        morphed = remove_skip(spec, params, index, velocity, constraints)
        record = Morphism("remove_skip", (("index", index),))
    return morphed, record


def draw_morphism(
    spec: NetSpec,
    params: np.ndarray,
    kind: str,
    rng: np.random.Generator,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> tuple[Morphed, Morphism]:
    """Apply one edit of the given kind with randomly drawn arguments."""
    if kind in NEGATIVE_KINDS:
        return negative_morphism(spec, params, kind, rng, velocity, constraints)
    n = len(spec.hidden)
    if kind == "deepen":
        position = int(rng.integers(1, n + 1))
        morphed = deepen(spec, params, position, velocity, constraints)
        record = Morphism("deepen", (("position", position),))
    elif kind == "widen":
        layer = int(rng.integers(1, n + 1))
        delta = int(rng.integers(1, 5))
        morphed = widen(spec, params, layer, delta, rng, velocity, constraints)
        record = Morphism("widen", (("layer", layer), ("delta", delta)))
    elif kind == "add_skip":
        dst = int(rng.integers(1, n + 1))
        src = int(rng.integers(0, dst))
        morphed = add_skip(spec, params, src, dst, velocity, constraints)
        record = Morphism("add_skip", (("src", src), ("dst", dst)))
    else:
        raise ValueError(f"unknown morphism {kind!r}")
    return morphed, record


def build_local_graph(
    incumbent_spec: NetSpec,
    incumbent_params: np.ndarray,
    n_neigh: int,
    constraints: Constraints | None,
    mix: dict[str, float] | None,
    rng: np.random.Generator,
    velocity: np.ndarray | None = None,
    topology: str = "star",
    probe: np.ndarray | None = None,
    max_attempts: int = 50,
) -> tuple[ArchGraph, list[dict]]:
    """Incumbent at the center plus n_neigh one-edit children, unit weights.

    Each child comes from a single morphism drawn from `mix`; draws that hit
    a constraint are retried up to max_attempts times. Returns the graph and
    one audit record per child with the measured output deviation on a probe
    batch (preserved means deviation <= 1e-6).
    """
    if n_neigh < 1:
        raise ValueError(f"n_neigh must be >= 1, got {n_neigh}")
    if topology not in ("star", "complete"):
        raise ValueError(f"unknown topology {topology!r}")
    mix = dict(mix) if mix else default_mix()
    for kind in mix:
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown morphism kind {kind!r} in mix")
    kinds = [k for k in ALL_KINDS if mix.get(k, 0.0) > 0.0]
    if not kinds:
        raise ValueError("morphism mix has no positive weights")
    probs = np.array([mix[k] for k in kinds])
    probs = probs / probs.sum()

    if probe is None:
        probe = rng.normal(size=(64, incumbent_spec.input_dim))
    base_out = forward(incumbent_spec, incumbent_params, probe)

    children = []
    audit = []
    for _ in range(n_neigh):
        morphed = record = None
        last_error = None
        for _attempt in range(max_attempts):
            kind = kinds[int(rng.choice(len(kinds), p=probs))]
            try:
                morphed, record = draw_morphism(
                    incumbent_spec, incumbent_params, kind, rng,
                    velocity, constraints,
                )
                break
            except (ConstraintViolated, BadPosition, DimensionMismatch) as exc:
                last_error = exc
        if morphed is None:
            raise ConstraintViolated(
                f"no admissible morphism after {max_attempts} draws: {last_error}"
            )
        child_out = forward(morphed.spec, morphed.params, probe)
        dev = float(np.max(np.abs(child_out - base_out)))
        children.append(
            Candidate(morphed.spec, morphed.params, morphed.velocity, record)
        )
        audit.append(
            {
                # Both builders number the children 1..n_neigh in list order.
                "child_id": len(children),
                "kind": record.kind,
                "args": record.args_dict(),
                "preserved": bool(dev <= 1e-6),
                "dev": dev,
            }
        )
    center = Candidate(
        incumbent_spec, np.asarray(incumbent_params, dtype=float), velocity, None
    )
    if topology == "complete":
        graph = complete_graph([center, *children])
    else:
        graph = star_graph(center, children)
    return graph, audit
