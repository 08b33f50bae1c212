"""Architecture edits and the per-round local graph.

Positive edits (deepen, widen, add_skip) are initialized so the edited
network computes the same function as the original: an inserted layer starts
as the identity behind a ReLU (exact because hidden activations are
nonnegative), widening duplicates units and splits their outgoing weights,
and a new skip starts at scale zero. Negative edits (remove_layer, narrow,
remove_skip) shrink by plain truncation and make no preservation claim.

The output layer is the last entry of NetParts' lists, so the layer that
reads hidden layer i is always parts.weights[i]. Velocities ride along:
every edit applies the same index transform to the velocity vector, with
freshly created entries set to zero.

Shared checks: _hidden_index refuses a hidden-layer index outside
1..len(hidden) (BadPosition); _untied refuses to widen, narrow or remove a
layer a skip touches (ConstraintViolated); NetSpec refuses a skip between
unequal widths (DimensionMismatch); _admit passes every edit's child to
Constraints.admit, the one judge of the four limits (ConstraintViolated).
The graph builder retries a refused draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import BadPosition, ConstraintViolated, DimensionMismatch
from .graph import ArchGraph, complete_graph, star_graph
from .knobs import check, check_fields, knob
from .nn import NetParts, NetSpec, flatten, forward, param_count, unflatten


@dataclass(frozen=True)
class Constraints:
    """Hard limits every emitted architecture must satisfy; each is an
    integer in [1, inf)."""

    max_layers: int = knob(8, "[1, inf)")
    max_width: int = knob(64, "[1, inf)")
    max_incoming: int = knob(3, "[1, inf)")
    max_params: int = knob(20000, "[1, inf)")

    def __post_init__(self) -> None:
        check_fields(self)

    def admit(self, spec: NetSpec, name: str) -> None:
        """Raise ConstraintViolated, calling spec `name`, if spec is over a limit."""
        incoming = max(map(spec.incoming, range(1, len(spec.hidden) + 1)))
        for value, key, has in (
            (param_count(spec), "max_params", "{} parameters"),
            (len(spec.hidden), "max_layers", "{} hidden layers"),
            (max(spec.hidden), "max_width", "a hidden layer of width {}"),
            (incoming, "max_incoming", "a hidden layer with {} incoming skips"),
        ):
            cap = getattr(self, key)
            if value > cap:
                raise ConstraintViolated(
                    f"{name} has {has.format(value)}, over constraints.{key} {cap}"
                )


@dataclass(frozen=True)
class Morphism:
    """Record of one applied edit (kind plus the drawn arguments)."""

    kind: str
    args: tuple[tuple[str, int], ...]

    def args_dict(self) -> dict[str, int]:
        return dict(self.args)


@dataclass
class Candidate:
    """Graph payload: an architecture with live parameters and velocity,
    and the edit that made it from its parent, if any."""

    spec: NetSpec
    params: np.ndarray
    velocity: np.ndarray | None = None
    origin: Morphism | None = None


def default_mix() -> dict[str, float]:
    return {
        "deepen": 0.25,
        "widen": 0.25,
        "add_skip": 0.2,
        "narrow": 0.1,
        "remove_layer": 0.1,
        "remove_skip": 0.1,
    }


def _admit(child: NetSpec, constraints: Constraints | None, edit: str) -> NetSpec:
    """Return an edit's child; with constraints, refuse one over a limit."""
    if constraints is not None:
        constraints.admit(child, f"the {edit} child")
    return child


def _hidden_index(spec: NetSpec, what: str, index: int) -> int:
    """Refuse an index outside 1..len(hidden); return len(hidden)."""
    n = len(spec.hidden)
    if not 1 <= index <= n:
        raise BadPosition(f"{what} {index} not in [1, {n}]")
    return n


def _untied(spec: NetSpec, layer: int, why: str = "") -> None:
    """Refuse to edit a hidden layer that a skip starts or ends at."""
    if any(layer in skip for skip in spec.skips):
        raise ConstraintViolated(f"layer {layer} is tied to a skip connection{why}")


def _transform(
    spec: NetSpec,
    new_spec: NetSpec,
    params: np.ndarray,
    velocity: np.ndarray | None,
    change: Callable[[NetParts, float], None],
) -> Candidate:
    """Apply one edit's index transform to the parameters and, if given, the
    velocity. change(parts, fill) edits parts in place; fill is 1.0 for
    parameters and 0.0 for velocity, the scale of any new identity block."""

    def one(vec: np.ndarray, fill: float) -> np.ndarray:
        parts = unflatten(spec, vec)
        change(parts, fill)
        return flatten(new_spec, parts)

    return Candidate(
        new_spec, one(params, 1.0),
        one(velocity, 0.0) if velocity is not None else None,
    )


def deepen(
    spec: NetSpec,
    params: np.ndarray,
    position: int,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Candidate:
    """Insert an identity layer directly after hidden layer `position`.

    Valid positions are 1..len(hidden): the insertion point must sit behind a
    ReLU so the identity survives the new ReLU unchanged.
    """
    _hidden_index(spec, "deepen position", position)
    width = spec.hidden[position - 1]
    hidden = spec.hidden[:position] + (width,) + spec.hidden[position:]
    skips = tuple(
        (s + (s > position), d + (d > position)) for s, d in spec.skips
    )
    new_spec = _admit(replace(spec, hidden=hidden, skips=skips), constraints, "deepen")

    def change(parts: NetParts, fill: float) -> None:
        parts.weights.insert(position, fill * np.eye(width))
        parts.biases.insert(position, np.zeros(width))

    return _transform(spec, new_spec, params, velocity, change)


def widen(
    spec: NetSpec,
    params: np.ndarray,
    layer: int,
    delta: int,
    rng: np.random.Generator,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Candidate:
    """Duplicate `delta` random units of a hidden layer (with replacement),
    splitting each unit's outgoing weights evenly across its copies."""
    _hidden_index(spec, "widen layer", layer)
    check("widen delta", delta, "[1, inf)", BadPosition)
    width = spec.hidden[layer - 1]
    _untied(spec, layer, "; widening would break the width match")
    hidden = list(spec.hidden)
    hidden[layer - 1] = width + delta
    new_spec = _admit(replace(spec, hidden=tuple(hidden)), constraints, "widen")

    chosen = rng.integers(0, width, size=delta)
    multiplicity = 1.0 + np.bincount(chosen, minlength=width)

    def change(parts: NetParts, fill: float) -> None:
        w_in = parts.weights[layer - 1]
        b_in = parts.biases[layer - 1]
        parts.weights[layer - 1] = np.vstack([w_in, w_in[chosen]])
        parts.biases[layer - 1] = np.concatenate([b_in, b_in[chosen]])
        out = parts.weights[layer] / multiplicity
        parts.weights[layer] = np.hstack([out, out[:, chosen]])

    return _transform(spec, new_spec, params, velocity, change)


def add_skip(
    spec: NetSpec,
    params: np.ndarray,
    src: int,
    dst: int,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Candidate:
    """Add a zero-scale skip from activation src into hidden layer dst."""
    n = len(spec.hidden)
    if not (0 <= src < dst <= n) or dst < 1:
        raise BadPosition(f"skip ({src},{dst}) out of range for {n} hidden layers")
    if (src, dst) in spec.skips:
        raise ConstraintViolated(f"skip ({src},{dst}) already present")
    # NetSpec refuses a skip between unequal widths (DimensionMismatch).
    new_spec = _admit(
        replace(spec, skips=spec.skips + ((src, dst),)), constraints, "add_skip"
    )

    def change(parts: NetParts, fill: float) -> None:
        parts.scales = np.concatenate([parts.scales, [0.0]])

    return _transform(spec, new_spec, params, velocity, change)


def remove_layer(
    spec: NetSpec,
    params: np.ndarray,
    position: int,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Candidate:
    """Delete a hidden layer; the next layer's input is truncated or
    zero-padded to the width that now feeds it. Not function preserving."""
    if _hidden_index(spec, "remove_layer position", position) < 2:
        raise ConstraintViolated("cannot remove the only hidden layer")
    _untied(spec, position)
    w_feed = spec.widths()[position - 1]
    pad = max(0, w_feed - spec.hidden[position - 1])
    hidden = spec.hidden[:position - 1] + spec.hidden[position:]
    skips = tuple(
        (s - (s > position), d - (d > position)) for s, d in spec.skips
    )
    new_spec = _admit(
        replace(spec, hidden=hidden, skips=skips), constraints, "remove_layer"
    )

    def change(parts: NetParts, fill: float) -> None:
        del parts.weights[position - 1]
        del parts.biases[position - 1]
        reader = parts.weights[position - 1][:, :w_feed]
        parts.weights[position - 1] = np.pad(reader, ((0, 0), (0, pad)))

    return _transform(spec, new_spec, params, velocity, change)


def narrow(
    spec: NetSpec,
    params: np.ndarray,
    layer: int,
    delta: int,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Candidate:
    """Drop the trailing `delta` units of a hidden layer. Not preserving."""
    _hidden_index(spec, "narrow layer", layer)
    check("narrow delta", delta, "[1, inf)", BadPosition)
    width = spec.hidden[layer - 1]
    floor = max(1, spec.output_dim)
    if width - delta < floor:
        raise ConstraintViolated(
            f"narrowing layer {layer} to {width - delta} would go below {floor}"
        )
    _untied(spec, layer)
    hidden = list(spec.hidden)
    hidden[layer - 1] = width - delta
    new_spec = _admit(replace(spec, hidden=tuple(hidden)), constraints, "narrow")

    def change(parts: NetParts, fill: float) -> None:
        parts.weights[layer - 1] = parts.weights[layer - 1][:-delta]
        parts.biases[layer - 1] = parts.biases[layer - 1][:-delta]
        parts.weights[layer] = parts.weights[layer][:, :-delta]

    return _transform(spec, new_spec, params, velocity, change)


def remove_skip(
    spec: NetSpec,
    params: np.ndarray,
    index: int,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Candidate:
    """Delete skip number `index` (spec order) and its scale parameter."""
    if not 0 <= index < len(spec.skips):
        raise BadPosition(
            f"skip index {index} out of range for {len(spec.skips)} skips"
        )
    skips = spec.skips[:index] + spec.skips[index + 1:]
    new_spec = _admit(replace(spec, skips=skips), constraints, "remove_skip")

    def change(parts: NetParts, fill: float) -> None:
        parts.scales = np.delete(parts.scales, index)

    return _transform(spec, new_spec, params, velocity, change)


# Each edit is named after its kind.
_EDITS = {f.__name__: f for f in (
    deepen, widen, add_skip, remove_layer, narrow, remove_skip)}
ALL_KINDS = tuple(_EDITS)


def draw_morphism(
    spec: NetSpec,
    params: np.ndarray,
    kind: str,
    rng: np.random.Generator,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> Candidate:
    """Apply one edit of the given kind with randomly drawn arguments; the
    child's origin records the kind and the arguments.

    Raises ConstraintViolated, BadPosition or DimensionMismatch when the
    drawn edit is inadmissible."""
    if kind not in _EDITS:
        raise ValueError(f"unknown morphism {kind!r}")
    # Arguments are drawn in the order below and recorded in dict order.
    if kind == "remove_skip":
        if not spec.skips:
            raise ConstraintViolated("no skip to remove")
        args = {"index": int(rng.integers(0, len(spec.skips)))}
    else:
        layer = int(rng.integers(1, len(spec.hidden) + 1))
        if kind in ("deepen", "remove_layer"):
            args = {"position": layer}
        elif kind == "add_skip":
            args = {"src": int(rng.integers(0, layer)), "dst": layer}
        else:
            args = {"layer": layer, "delta": int(rng.integers(1, 5))}
    # widen draws the units it duplicates itself, after its checks
    extra = {"rng": rng} if kind == "widen" else {}
    child = _EDITS[kind](
        spec, params, **args, **extra, velocity=velocity, constraints=constraints
    )
    child.origin = Morphism(kind, tuple(args.items()))
    return child


MAX_ATTEMPTS = 50  # draws per child before build_local_graph gives up


def draw_table(
    n_neigh: int, topology: str, mix: dict[str, float] | None
) -> tuple[list[str], np.ndarray]:
    """Check build_local_graph's arguments; return the kinds it draws from
    and their probabilities. No mix means default_mix()."""
    check("n_neigh", n_neigh, "[1, inf)")
    if topology not in ("star", "complete"):
        raise ValueError(f"unknown topology {topology!r}")
    mix = dict(mix) if mix else default_mix()
    for kind, weight in mix.items():
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown morphism kind {kind!r} in mix")
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ValueError(
                f"morphism weight for {kind} must be finite and nonnegative, "
                f"got {weight}"
            )
    kinds = [k for k in ALL_KINDS if mix.get(k, 0.0) > 0.0]
    if not kinds:
        raise ValueError("morphism mix has no positive weights")
    probs = np.array([mix[k] for k in kinds])
    return kinds, probs / probs.sum()


def build_local_graph(
    incumbent_spec: NetSpec,
    incumbent_params: np.ndarray,
    n_neigh: int,
    constraints: Constraints | None,
    mix: dict[str, float] | None,
    rng: np.random.Generator,
    velocity: np.ndarray | None = None,
    topology: str = "star",
) -> tuple[ArchGraph, list[dict]]:
    """Incumbent at the center plus n_neigh one-edit children, unit weights.

    Each child comes from a single morphism drawn from `mix`; draws that hit
    a constraint are retried up to MAX_ATTEMPTS times. Returns the graph and
    one audit record per child with the measured output deviation on a
    64-row probe batch drawn from rng (preserved means deviation <= 1e-6).
    """
    kinds, probs = draw_table(n_neigh, topology, mix)
    probe = rng.normal(size=(64, incumbent_spec.input_dim))
    # As the trainers do: a diverged incumbent's huge parameters overflow
    # the probe silently, and the round that trains them reports it.
    quiet = dict(over="ignore", invalid="ignore")
    with np.errstate(**quiet):
        base_out = forward(incumbent_spec, incumbent_params, probe)

    children = []
    audit = []
    for _ in range(n_neigh):
        for _attempt in range(MAX_ATTEMPTS):
            kind = kinds[int(rng.choice(len(kinds), p=probs))]
            try:
                child = draw_morphism(
                    incumbent_spec, incumbent_params, kind, rng,
                    velocity, constraints,
                )
                break
            except (ConstraintViolated, BadPosition, DimensionMismatch) as exc:
                last_error = exc
        else:
            raise ConstraintViolated(
                f"no admissible morphism after {MAX_ATTEMPTS} draws: {last_error}"
            )
        with np.errstate(**quiet):
            dev = float(np.max(np.abs(forward(child.spec, child.params, probe) - base_out)))
        children.append(child)
        audit.append(
            {
                # Both builders number the children 1..n_neigh in list order.
                "child_id": len(children),
                "kind": child.origin.kind,
                "args": child.origin.args_dict(),
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
