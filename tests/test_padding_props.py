"""Networks of one shape class stacked zero-padded to the class's wide spec.

A round or hill-climb cycle trains every shape class (input and output
widths, depth and skips) as one stack of its wide spec, the widest member's
width at each hidden layer, every member's own entries at nn.places and
zeros elsewhere. On random classes (depth 1-4, widths 1-40, some past 32,
with and without a skip, stacks of 2-6):
  - packing then unpacking gives back every member bit for bit;
  - training leaves every padded entry of x and v +0.0;
  - a class of one spec and a lone network pack by the identity (every
    place is arange of the member's size), and they train bit for bit as
    each network alone;
  - each member's loss and own-entry gradient from the padded call agree
    with its own call to within LOSS_RTOL and GRAD_RTOL, and its padded
    entries' gradient is zero. BLAS sums the widened products in other
    blocks, so the bits may differ.
Unpacking gives each member a new array that shares no memory with the
stack, in a one-spec class, a mixed-width class and a group of one alike.
The stacked gradient clip gives each row the bits of its own 1-D clip.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow import nn, search
from semiflow.nn import NetSpec
from semiflow.search import GlobalClock, _fit, _packing, _stack, _train_fresh, _unstack
from test_nn_layout import same_bits

# A padded call's loss may differ from the member's own by this share of
# the loss, and each own-entry gradient by this share of the member's
# largest gradient entry: thousands of float64 ulps (eps 2.2e-16), room for
# sums of a few thousand terms taken in another order, and orders of
# magnitude below a wrong or misplaced entry. Over 8080 members of 2000
# random classes the worst seen was 2.4e-15 and 6.1e-15.
LOSS_RTOL = 1e-12
GRAD_RTOL = 1e-11


@st.composite
def shape_classes(draw, same_spec=False):
    """Two to six specs of one shape class. With a skip (src, dst), every
    member's widths at src and dst are equal; a skip from the input fixes
    dst's width to the input's."""
    input_dim = draw(st.integers(1, 4))
    output_dim = draw(st.integers(2, 4))
    depth = draw(st.integers(1, 4))
    pairs = [(s, d) for d in range(1, depth + 1) for s in range(d)]
    skips = draw(st.sampled_from([(), *[(pair,) for pair in pairs]]))
    n = draw(st.integers(2, 6))
    members = []
    for _ in range(1 if same_spec else n):
        widths = [input_dim, *draw(st.lists(st.integers(1, 40), min_size=depth,
                                            max_size=depth))]
        for s, d in skips:
            widths[d] = widths[s]
        members.append(NetSpec(input_dim, output_dim, tuple(widths[1:]), skips))
    return members * n if same_spec else members


def member_params(specs, seed):
    """Each member's parameters, He-scaled weights with every entry (skip
    scales too) perturbed, so activations stay near unit scale, and a
    velocity, from one rng."""
    rng = np.random.default_rng(seed)
    xs = [nn.init_params(s, rng) + rng.normal(0.0, 0.1, nn.param_count(s)) for s in specs]
    vs = [rng.normal(0.0, 0.1, x.size) for x in xs]
    return xs, vs


def padded_entries(spec, wide):
    rest = np.ones(nn.param_count(wide), bool)
    rest[nn.places(spec, wide)] = False
    return rest


def all_plus_zero(values):
    return not values.any() and not np.signbit(values).any()


@settings(max_examples=60, deadline=None)
@given(shape_classes(), st.integers(0, 2**32 - 1))
def test_pack_then_unpack_gives_every_member_back(specs, seed):
    wide = nn.wide_spec(specs)
    assert nn.shape_class(wide) == nn.shape_class(specs[0])
    xs, _ = member_params(specs, seed)
    packing = _packing(specs)
    x = _stack(xs, packing)
    assert x.shape == (len(specs), nn.param_count(wide))
    for row, spec in zip(x, specs):
        assert all_plus_zero(row[padded_entries(spec, wide)])
    for got, want in zip(_unstack(x, packing), xs, strict=True):
        assert same_bits(got, want)


@settings(max_examples=40, deadline=None)
@given(shape_classes(), st.integers(0, 2**32 - 1), st.integers(1, 3),
       st.floats(0.0, 2.0), st.sampled_from([0.05, 1.0]))
@example([NetSpec(3, 2, (40, 5)), NetSpec(3, 2, (12, 33))], 0, 2, 1.0, 1.0)
def test_training_leaves_every_padded_entry_plus_zero(specs, seed, epochs, damping,
                                                      grad_clip):
    wide, packing = nn.wide_spec(specs), _packing(specs)
    xs, vs = member_params(specs, seed)
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(40, wide.input_dim))
    labels = rng.integers(0, wide.output_dim, 40)
    seeds = tuple(range(seed % 1000, seed % 1000 + len(specs)))
    stream = sf.BatchStream(features, labels, 8, seeds)
    clock = GlobalClock(stream.batches_per_epoch, 2, 0.05, 1e-4)
    config = sf.SearchConfig(grad_clip=grad_clip, damping=damping)
    state = sf.NodeState(_stack(xs, packing), _stack(vs, packing))
    *_, fitted = _fit(wide, state, stream, clock, epochs, config, "fit")
    for r, spec in enumerate(specs):
        rest = padded_entries(spec, wide)
        assert all_plus_zero(fitted.x[r, rest]) and all_plus_zero(fitted.v[r, rest])


@settings(max_examples=20, deadline=None)
@given(shape_classes(same_spec=True), st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_one_spec_and_a_lone_net_keep_their_own_bits(specs, seed, epochs):
    # A class of one spec and a lone network pack by the identity, and its
    # members and the lone network train as each would alone: 1-D, on its
    # own stream.
    whole = np.arange(nn.param_count(specs[0]))
    packing, lone_packing = _packing(specs), _packing(specs[:1])
    assert all(np.array_equal(place, whole)
               for place in (*packing.places, *lone_packing.places))
    xs, _ = member_params(specs, seed)
    assert same_bits(_stack(xs, packing), np.array(xs))
    assert same_bits(_stack(xs[:1], lone_packing), xs[0])
    rng = np.random.default_rng(seed)
    spec = specs[0]
    train = (rng.normal(size=(40, spec.input_dim)), rng.integers(0, spec.output_dim, 40))
    config = sf.SearchConfig(seed=seed % 1000, s_x=8, grad_clip=0.5)
    keys = [(7, 1, 1 + i) for i in range(len(specs))]
    nets = list(zip(specs, xs))
    stacked = _train_fresh(config, train, nets, keys, epochs, 0.05, 1e-4, "fit")
    lone = _train_fresh(config, train, nets[:1], keys[:1], epochs, 0.05, 1e-4, "fit")
    for i, x in enumerate(xs):
        stream = sf.BatchStream(*train, config.s_x, search._stream_seed(config.seed, *keys[i]))
        clock = GlobalClock(stream.batches_per_epoch, epochs, 0.05, 1e-4)
        *_, alone = _fit(spec, sf.NodeState(x, np.zeros_like(x)), stream, clock, epochs,
                         config, "fit")
        assert same_bits(stacked[i], alone.x)
        if i == 0:
            assert same_bits(lone[0], alone.x)


@pytest.mark.parametrize("specs", [
    [NetSpec(2, 3, (12, 16))] * 3,
    [NetSpec(2, 3, (12, 16)), NetSpec(2, 3, (20, 16)), NetSpec(2, 3, (12, 33))],
    [NetSpec(2, 3, (12, 16))],
], ids=["one-spec", "mixed-width", "group-of-one"])
def test_unstack_shares_no_memory_with_the_stack(specs):
    xs, _ = member_params(specs, 0)
    packing = _packing(specs)
    x = _stack(xs, packing)
    for got, want in zip(_unstack(x, packing), xs, strict=True):
        assert same_bits(got, want)
        assert not np.shares_memory(got, x)


@settings(max_examples=80, deadline=None)
@given(shape_classes(), st.integers(0, 2**32 - 1), st.integers(1, 40))
@example([NetSpec(2, 3, (12, 16)), NetSpec(2, 3, (20, 16))], 0, 64)
@example([NetSpec(2, 2, (30, 8, 8), ((2, 3),)), NetSpec(2, 2, (33, 6, 6), ((2, 3),))], 1, 64)
def test_padded_call_agrees_with_each_members_own(specs, seed, batch):
    wide, packing = nn.wide_spec(specs), _packing(specs)
    xs, _ = member_params(specs, seed)
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(len(specs), batch, wide.input_dim))
    labels = rng.integers(0, wide.output_dim, (len(specs), batch))
    losses, grads = nn.loss_and_grad(wide, _stack(xs, packing), inputs, labels)
    for r, (spec, x) in enumerate(zip(specs, xs)):
        loss, grad = nn.loss_and_grad(spec, x, inputs[r], labels[r])
        assert math.isclose(losses[r], loss, rel_tol=LOSS_RTOL, abs_tol=0.0)
        own = grads[r, nn.places(spec, wide)]
        assert np.abs(own - grad).max() <= GRAD_RTOL * np.abs(grad).max()
        assert not grads[r, padded_entries(spec, wide)].any()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 27), st.integers(1, 4000),
       st.sampled_from([1e-3, 1.0, 1e3]), st.sampled_from([None, math.nan, math.inf]))
def test_stacked_clip_gives_each_row_its_own_clip(seed, n, size, max_norm, bad):
    # Row by row against the 1-D clip, in bits and sign bits: rows above,
    # within and exactly at the bound, a zero row, signed zeros, and
    # optionally a row holding a NaN or inf.
    rng = np.random.default_rng(seed)
    stack = rng.normal(0.0, rng.choice([1e-3, 1.0, 1e3]), (n, size))
    stack[0] = 0.0
    stack[1, ::2] = -0.0
    stack[-1] *= max_norm / np.linalg.norm(stack[-1]) if stack[-1].any() else 1.0
    if bad is not None:
        stack[rng.integers(n), rng.integers(size)] = bad
    want = stack.copy()
    # An inf row is scaled by 0.0, which makes its inf a NaN, as in a step.
    with np.errstate(invalid="ignore"):
        for row in want:
            sf.clip_gradient(row, max_norm)
        assert sf.clip_gradient(stack, max_norm) is stack
    # Every bit, NaNs included.
    assert np.array_equal(stack.view(np.uint64), want.view(np.uint64))
