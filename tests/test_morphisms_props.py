"""The morphism dispatcher against a copy of the code it replaced, and exact
function preservation along random chains of growing edits.

The reference below is the former `draw_morphism`, `negative_morphism` and
six edits, verbatim but for the `ref` prefix and the limit rule they have
gained since: every edit passes its child to `ref_admit`, a copy of
`Constraints.admit`, in place of its own limit checks. Each edit split the
parameter and velocity vectors, changed each, and merged them back into a
`Morphed` tuple, which the reference returns beside the record. On random
small specs with skips, every kind, random seeds and constraints, with and
without a velocity, the one dispatcher must return a Candidate with the
same record as its origin, the same spec and vector bits, raise the same
exception with the same message, and leave the rng in the same state. A
further property checks the rule itself: no child is over a limit, even
when its parent is.
"""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow.errors import BadPosition, ConstraintViolated, DimensionMismatch
from semiflow.morphisms import Constraints, Morphism
from semiflow.nn import NetParts, NetSpec, flatten, param_count, unflatten

NEGATIVE_KINDS = ("remove_layer", "narrow", "remove_skip")
GROWING_KINDS = ("deepen", "widen", "add_skip")
INADMISSIBLE = (ConstraintViolated, BadPosition, DimensionMismatch)

# -- reference --------------------------------------------------------------


class Morphed(NamedTuple):
    spec: NetSpec
    params: np.ndarray
    velocity: np.ndarray | None


def ref_admit(spec: NetSpec, constraints: Constraints | None, edit: str) -> None:
    if constraints is None:
        return
    incoming = max(spec.incoming(d) for d in range(1, len(spec.hidden) + 1))
    for key, value, has in (
        ("max_params", param_count(spec), "{} parameters"),
        ("max_layers", len(spec.hidden), "{} hidden layers"),
        ("max_width", max(spec.hidden), "a hidden layer of width {}"),
        ("max_incoming", incoming, "a hidden layer with {} incoming skips"),
    ):
        cap = getattr(constraints, key)
        if value > cap:
            raise ConstraintViolated(
                f"the {edit} child has {has.format(value)}, "
                f"over constraints.{key} {cap}"
            )


def ref_skip_touches(spec: NetSpec, layer: int) -> bool:
    return any(s == layer or d == layer for s, d in spec.skips)


def ref_split_vectors(params, velocity, spec):
    p = unflatten(spec, params)
    v = unflatten(spec, velocity) if velocity is not None else None
    return p, v


def ref_merge(spec: NetSpec, p: NetParts, v: NetParts | None) -> Morphed:
    return Morphed(
        spec, flatten(spec, p), flatten(spec, v) if v is not None else None
    )


def ref_deepen(
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
    width = spec.hidden[position - 1]
    hidden = spec.hidden[:position] + (width,) + spec.hidden[position:]
    skips = tuple(
        (s + (s > position), d + (d > position)) for s, d in spec.skips
    )
    new_spec = NetSpec(spec.input_dim, spec.output_dim, hidden, skips)
    ref_admit(new_spec, constraints, "deepen")

    p, v = ref_split_vectors(params, velocity, spec)
    p.weights.insert(position, np.eye(width))
    p.biases.insert(position, np.zeros(width))
    if v is not None:
        v.weights.insert(position, np.zeros((width, width)))
        v.biases.insert(position, np.zeros(width))
    return ref_merge(new_spec, p, v)


def ref_widen(
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
    if ref_skip_touches(spec, layer):
        raise ConstraintViolated(
            f"layer {layer} is tied to a skip connection; widening would "
            f"break the width match"
        )
    hidden = list(spec.hidden)
    hidden[layer - 1] = width + delta
    new_spec = NetSpec(spec.input_dim, spec.output_dim, tuple(hidden), spec.skips)
    ref_admit(new_spec, constraints, "widen")

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
            out = parts.weights[-1].copy()
        else:
            out = parts.weights[layer].copy()
        out[:, :width] = out[:, :width] / multiplicity
        out = np.hstack([out, out[:, chosen]])
        if layer == n:
            parts.weights[-1] = out
        else:
            parts.weights[layer] = out

    p, v = ref_split_vectors(params, velocity, spec)
    widen_parts(p)
    if v is not None:
        widen_parts(v)
    return ref_merge(new_spec, p, v)


def ref_add_skip(
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
    new_spec = NetSpec(
        spec.input_dim, spec.output_dim, spec.hidden, spec.skips + ((src, dst),)
    )
    ref_admit(new_spec, constraints, "add_skip")

    p, v = ref_split_vectors(params, velocity, spec)
    p.scales = np.concatenate([p.scales, [0.0]])
    if v is not None:
        v.scales = np.concatenate([v.scales, [0.0]])
    return ref_merge(new_spec, p, v)


def ref_remove_layer(
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
    if ref_skip_touches(spec, position):
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
    ref_admit(new_spec, constraints, "remove_layer")

    def adjust_columns(mat: np.ndarray) -> np.ndarray:
        if w_feed <= w_removed:
            return mat[:, :w_feed]
        pad = np.zeros((mat.shape[0], w_feed - w_removed))
        return np.hstack([mat, pad])

    def cut(parts: NetParts) -> None:
        del parts.weights[position - 1]
        del parts.biases[position - 1]
        if position - 1 < len(parts.weights) - 1:
            parts.weights[position - 1] = adjust_columns(parts.weights[position - 1])
        else:
            parts.weights[-1] = adjust_columns(parts.weights[-1])

    p, v = ref_split_vectors(params, velocity, spec)
    cut(p)
    if v is not None:
        cut(v)
    return ref_merge(new_spec, p, v)


def ref_narrow(
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
    if ref_skip_touches(spec, layer):
        raise ConstraintViolated(f"layer {layer} is tied to a skip connection")
    hidden = list(spec.hidden)
    hidden[layer - 1] = width - delta
    new_spec = NetSpec(spec.input_dim, spec.output_dim, tuple(hidden), spec.skips)
    ref_admit(new_spec, constraints, "narrow")

    def cut(parts: NetParts) -> None:
        parts.weights[layer - 1] = parts.weights[layer - 1][:-delta]
        parts.biases[layer - 1] = parts.biases[layer - 1][:-delta]
        if layer == n:
            parts.weights[-1] = parts.weights[-1][:, :-delta]
        else:
            parts.weights[layer] = parts.weights[layer][:, :-delta]

    p, v = ref_split_vectors(params, velocity, spec)
    cut(p)
    if v is not None:
        cut(v)
    return ref_merge(new_spec, p, v)


def ref_remove_skip(
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
    ref_admit(new_spec, constraints, "remove_skip")

    p, v = ref_split_vectors(params, velocity, spec)
    p.scales = np.delete(p.scales, index)
    if v is not None:
        v.scales = np.delete(v.scales, index)
    return ref_merge(new_spec, p, v)


def ref_negative_morphism(
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
        morphed = ref_remove_layer(spec, params, position, velocity, constraints)
        record = Morphism("remove_layer", (("position", position),))
    elif kind == "narrow":
        layer = int(rng.integers(1, n + 1))
        delta = int(rng.integers(1, 5))
        morphed = ref_narrow(spec, params, layer, delta, velocity, constraints)
        record = Morphism("narrow", (("layer", layer), ("delta", delta)))
    else:
        if not spec.skips:
            raise ConstraintViolated("no skip to remove")
        index = int(rng.integers(0, len(spec.skips)))
        morphed = ref_remove_skip(spec, params, index, velocity, constraints)
        record = Morphism("remove_skip", (("index", index),))
    return morphed, record


def ref_draw_morphism(
    spec: NetSpec,
    params: np.ndarray,
    kind: str,
    rng: np.random.Generator,
    velocity: np.ndarray | None = None,
    constraints: Constraints | None = None,
) -> tuple[Morphed, Morphism]:
    """Apply one edit of the given kind with randomly drawn arguments."""
    if kind in NEGATIVE_KINDS:
        return ref_negative_morphism(spec, params, kind, rng, velocity, constraints)
    n = len(spec.hidden)
    if kind == "deepen":
        position = int(rng.integers(1, n + 1))
        morphed = ref_deepen(spec, params, position, velocity, constraints)
        record = Morphism("deepen", (("position", position),))
    elif kind == "widen":
        layer = int(rng.integers(1, n + 1))
        delta = int(rng.integers(1, 5))
        morphed = ref_widen(spec, params, layer, delta, rng, velocity, constraints)
        record = Morphism("widen", (("layer", layer), ("delta", delta)))
    elif kind == "add_skip":
        dst = int(rng.integers(1, n + 1))
        src = int(rng.integers(0, dst))
        morphed = ref_add_skip(spec, params, src, dst, velocity, constraints)
        record = Morphism("add_skip", (("src", src), ("dst", dst)))
    else:
        raise ValueError(f"unknown morphism {kind!r}")
    return morphed, record


# -- inputs -----------------------------------------------------------------


@st.composite
def specs(draw):
    """Small nets whose widths repeat often, so that skips are common."""
    input_dim = draw(st.integers(1, 3))
    widths = st.sampled_from((1, 2, 3, 6))
    hidden = tuple(draw(st.lists(widths, min_size=1, max_size=4)))
    widths = [input_dim, *hidden]
    pairs = [(s, d) for d in range(1, len(widths)) for s in range(d)
             if widths[s] == widths[d]]
    skips = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)
                 if pairs else st.just([]))
    return NetSpec(input_dim, draw(st.integers(2, 3)), hidden, tuple(skips))


limits = st.builds(
    Constraints,
    max_layers=st.integers(1, 6),
    max_width=st.integers(1, 10),
    max_incoming=st.integers(1, 3),
    max_params=st.integers(10, 300),
)
constraints = st.one_of(st.none(), limits)


def vectors(spec, seed):
    """Random parameters (skip scales included) and a random velocity."""
    rng = np.random.default_rng(seed)
    n = param_count(spec)
    return rng.normal(size=n), rng.normal(size=n)


def outcome(draw_fn, spec, params, kind, seed, velocity, cons):
    rng = np.random.default_rng(seed)
    try:
        result = draw_fn(spec, params, kind, rng, velocity, cons)
    except (*INADMISSIBLE, ValueError) as exc:
        result = (type(exc), str(exc))
    return result, rng.bit_generator.state


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- properties -------------------------------------------------------------


@pytest.mark.parametrize("kind", sf.ALL_KINDS + ("bogus",))
@settings(max_examples=120, deadline=None)
@given(specs(), st.integers(0, 2**32 - 1), st.booleans(), constraints)
def test_draw_morphism_matches_reference(kind, spec, seed, with_velocity, cons):
    params, velocity = vectors(spec, seed)
    velocity = velocity if with_velocity else None
    want, want_state = outcome(ref_draw_morphism, spec, params, kind, seed,
                               velocity, cons)
    got, got_state = outcome(sf.draw_morphism, spec, params, kind, seed,
                             velocity, cons)
    assert got_state == want_state
    if isinstance(want[0], type):
        assert got == want
        return
    (want_m, want_rec), got_m = want, got
    assert got_m.origin == want_rec
    assert got_m.spec == want_m.spec
    assert same_bits(got_m.params, want_m.params)
    assert same_bits(got_m.velocity, want_m.velocity)


@pytest.mark.parametrize("kind", sf.ALL_KINDS)
@settings(max_examples=120, deadline=None)
@given(specs(), st.integers(0, 2**32 - 1), limits)
def test_every_child_is_within_the_limits(kind, spec, seed, cons):
    # The parent may itself be over a limit; its children never are. Once
    # deepen or narrow kept a parent's over-wide layer in the child.
    params, velocity = vectors(spec, seed)
    try:
        child = sf.draw_morphism(spec, params, kind, np.random.default_rng(seed),
                                 velocity, cons)
    except INADMISSIBLE:
        return
    cons.admit(child.spec, "the child")


@settings(max_examples=150, deadline=None)
@given(specs(), st.lists(st.sampled_from(GROWING_KINDS), min_size=1, max_size=5),
       st.integers(0, 2**32 - 1))
def test_growing_chains_preserve_function(spec, kinds, seed):
    params, velocity = vectors(spec, seed)
    rng = np.random.default_rng(seed)
    probe = rng.normal(size=(32, spec.input_dim))
    base_out = sf.forward(spec, params, probe)
    for kind in kinds:
        try:
            m = sf.draw_morphism(spec, params, kind, rng, velocity)
        except INADMISSIBLE:
            continue
        assert m.velocity.shape == (param_count(m.spec),)
        new = unflatten(m.spec, m.velocity)
        args = m.origin.args_dict()
        if kind == "deepen":
            assert not np.any(new.weights[args["position"]])
            assert not np.any(new.biases[args["position"]])
        elif kind == "add_skip":
            assert new.scales[-1] == 0.0
        spec, params, velocity = m.spec, m.params, m.velocity
        dev = np.max(np.abs(sf.forward(spec, params, probe) - base_out))
        assert dev <= 1e-6
