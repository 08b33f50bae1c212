"""The layout-compiled kernel against the NetParts kernel it replaced.

The reference below is the loss_and_grad that unflattened the parameters,
filled a list of zero buffers and flattened the gradient back on every call,
with its own walk of the flat layout and its own record of the blocks, the
output layer apart. The compiled kernel must reproduce its loss and
gradient bit for bit, signed zeros included, on random architectures (skips
from the input, several skips into one layer), random batches and non-zero
skip scales. A stack of one to four networks of one
spec, each with its own parameters and batch, goes through the kernel in one
call, and every row must match the reference for that network alone.
"""

from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow.nn import NetSpec

# -- reference --------------------------------------------------------------


class RefParts(NamedTuple):
    """The reference's blocks: the hidden layers' W and b, then the output
    layer's apart."""

    weights: list
    biases: list
    w_out: np.ndarray
    b_out: np.ndarray
    scales: np.ndarray


def ref_unflatten(spec, flat):
    widths = spec.widths()
    weights, biases = [], []
    k = 0
    for i in range(1, len(widths)):
        h, p = widths[i], widths[i - 1]
        weights.append(flat[k:k + h * p].reshape(h, p))
        k += h * p
        biases.append(flat[k:k + h])
        k += h
    out, h_last = spec.output_dim, widths[-1]
    w_out = flat[k:k + out * h_last].reshape(out, h_last)
    k += out * h_last
    b_out = flat[k:k + out]
    k += out
    scales = flat[k:k + len(spec.skips)]
    assert k + len(spec.skips) == flat.size
    return RefParts(weights, biases, w_out, b_out, scales)


def ref_flatten(parts):
    pieces = []
    for w, b in zip(parts.weights, parts.biases):
        pieces += [np.ravel(w), np.ravel(b)]
    pieces += [np.ravel(parts.w_out), np.ravel(parts.b_out), np.ravel(parts.scales)]
    return np.concatenate(pieces)


def ref_loss_and_grad(spec, params, inputs, labels):
    parts = ref_unflatten(spec, params)
    acts = [inputs]
    pres = []
    for i, (w, b) in enumerate(zip(parts.weights, parts.biases), start=1):
        z = acts[i - 1] @ w.T + b
        for k, (s, d) in enumerate(spec.skips):
            if d == i:
                z = z + parts.scales[k] * acts[s]
        pres.append(z)
        acts.append(np.maximum(z, 0.0))
    z = acts[-1] @ parts.w_out.T + parts.b_out
    batch = inputs.shape[0]

    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    loss = float(np.mean(lse - z[np.arange(batch), labels]))

    e = np.exp(z - z.max(axis=-1, keepdims=True))
    dlogits = e / e.sum(axis=-1, keepdims=True)
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch

    d_w_out = dlogits.T @ acts[-1]
    d_b_out = dlogits.sum(axis=0)

    n_hidden = len(spec.hidden)
    d_acts = [np.zeros_like(a) for a in acts]
    d_acts[n_hidden] = dlogits @ parts.w_out

    d_weights = [None] * n_hidden
    d_biases = [None] * n_hidden
    d_scales = np.zeros(len(spec.skips))
    for i in range(n_hidden, 0, -1):
        dz = d_acts[i] * (pres[i - 1] > 0.0)
        d_weights[i - 1] = dz.T @ acts[i - 1]
        d_biases[i - 1] = dz.sum(axis=0)
        d_acts[i - 1] += dz @ parts.weights[i - 1]
        for k, (s, d) in enumerate(spec.skips):
            if d == i:
                d_scales[k] += float(np.sum(dz * acts[s]))
                d_acts[s] += parts.scales[k] * dz

    grad = ref_flatten(RefParts(d_weights, d_biases, d_w_out, d_b_out, d_scales))
    return loss, grad


# -- inputs -----------------------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


@st.composite
def specs(draw):
    """Chains whose widths mostly equal the input's, so skips are plentiful:
    from the input, between hidden layers, and several into one layer."""
    width = draw(st.integers(1, 5))
    input_dim = draw(st.sampled_from([width, width, width + 1]))
    hidden = tuple(
        draw(st.lists(st.sampled_from([width, width, width + 2]), min_size=1, max_size=5))
    )
    output_dim = draw(st.integers(2, 4))
    widths = [input_dim, *hidden]
    pairs = [
        (s, d)
        for d in range(1, len(hidden) + 1)
        for s in range(d)
        if widths[s] == widths[d]
    ]
    skips = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return NetSpec(input_dim, output_dim, hidden, tuple(skips))


PINNED = [
    NetSpec(2, 2, (16, 16), ((1, 2),)),
    NetSpec(2, 2, (16,) * 7),
    NetSpec(3, 3, (3, 3, 3, 3), ((0, 2), (1, 4), (2, 4))),
]


def problem(spec, seed, batch, zero_share):
    """Random params (some entries exactly +0.0 or -0.0, so dead units and
    signed zeros occur), inputs and labels."""
    rng = np.random.default_rng(seed)
    params = rng.normal(0.0, rng.choice([0.3, 1.0, 3.0]), sf.param_count(spec))
    params[rng.random(params.size) < zero_share] = 0.0
    params[rng.random(params.size) < zero_share / 4] = -0.0
    inputs = rng.normal(size=(batch, spec.input_dim))
    labels = rng.integers(0, spec.output_dim, batch)
    return params, inputs, labels


def stacked_problem(spec, seed, batch, zero_share, stack):
    """problem() for each of stack networks, on seeds following seed, as
    params (stack, P), inputs (stack, batch, d) and labels (stack, batch)."""
    rows = [problem(spec, (seed + r) % 2**32, batch, zero_share) for r in range(stack)]
    return [np.array(part) for part in zip(*rows)]


seeds = st.integers(0, 2**32 - 1)
batches = st.integers(1, 20)
zero_shares = st.sampled_from([0.0, 0.2, 0.6])
stacks = st.integers(1, 4)


# -- properties -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(specs(), seeds, batches, zero_shares, stacks)
@example(PINNED[0], 0, 64, 0.0, 1)
@example(PINNED[1], 1, 64, 0.0, 4)
@example(PINNED[2], 2, 64, 0.2, 3)
# The most classes whose sum is a left fold, and the fewest that numpy sums
# pairwise.
@example(NetSpec(3, 7, (5, 5), ((1, 2),)), 3, 64, 0.0, 2)
@example(NetSpec(2, 8, (6,)), 4, 64, 0.2, 3)
def test_kernel_matches_reference_bit_for_bit(spec, seed, batch, zero_share, stack):
    params, inputs, labels = stacked_problem(spec, seed, batch, zero_share, stack)
    losses, grads = sf.loss_and_grad(spec, params, inputs, labels)
    assert losses.shape == (stack,) and grads.shape == params.shape
    assert same_bits(sf.loss_only(spec, params, inputs, labels), losses)
    for row in range(stack):
        ref_loss, ref_grad = ref_loss_and_grad(spec, params[row], inputs[row], labels[row])
        loss, grad = sf.loss_and_grad(spec, params[row], inputs[row], labels[row])
        assert isinstance(loss, float)
        assert same_bits(loss, ref_loss) and same_bits(losses[row], ref_loss)
        assert same_bits(grad, ref_grad) and same_bits(grads[row], ref_grad)
    # The 1-D call is a stack of one.
    one_loss, one_grad = sf.loss_and_grad(spec, params[:1], inputs[:1], labels[:1])
    loss, grad = sf.loss_and_grad(spec, params[0], inputs[0], labels[0])
    assert same_bits(one_loss, [loss]) and same_bits(one_grad, grad[None])


@settings(max_examples=60, deadline=None)
@given(specs(), seeds, batches, zero_shares)
def test_loss_only_and_evaluate_share_the_forward_pass(spec, seed, batch, zero_share):
    params, inputs, labels = problem(spec, seed, batch, zero_share)
    loss, _ = sf.loss_and_grad(spec, params, inputs, labels)
    assert sf.loss_only(spec, params, inputs, labels) == loss
    ev_loss, ev_acc = sf.evaluate(spec, params, inputs, labels)
    assert ev_loss == loss
    predicted = np.argmax(sf.logits(spec, params, inputs), axis=-1)
    assert ev_acc == float(np.mean(predicted == labels))


@settings(max_examples=60, deadline=None)
@given(specs(), seeds)
def test_layout_matches_reference_walk(spec, seed):
    flat = np.random.default_rng(seed).normal(size=sf.param_count(spec))
    ref = ref_unflatten(spec, flat)
    parts = sf.unflatten(spec, flat)
    for got, want in zip(
        [*parts.weights, *parts.biases, parts.scales],
        [*ref.weights, ref.w_out, *ref.biases, ref.b_out, ref.scales],
    ):
        assert got.shape == want.shape
        assert got.size == 0 or np.shares_memory(got, flat)
        assert np.array_equal(got, want)
    assert same_bits(sf.flatten(spec, parts), flat)

