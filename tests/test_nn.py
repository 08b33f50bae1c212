"""Forward pass, backprop, initialization, and checkpoint format."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import semiflow as sf
from semiflow.errors import BadLabel, BadParams, ShapeMismatch
from semiflow.nn import bind
from test_nn_layout import specs


def small_spec():
    return sf.NetSpec(2, 3, (8, 8))


def test_zero_weights_give_uniform_probs():
    spec = small_spec()
    params = np.zeros(sf.param_count(spec))
    probs = sf.forward(spec, params, np.random.default_rng(0).normal(size=(5, 2)))
    assert np.allclose(probs, 1 / 3)


def test_softmax_rows_sum_to_one():
    spec = small_spec()
    params = sf.init_params(spec, np.random.default_rng(1))
    probs = sf.forward(spec, params, np.random.default_rng(2).normal(size=(64, 2)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0)


def test_single_logit_dominance():
    # rig the output layer so the logits are exactly (10, 0)
    spec = sf.NetSpec(2, 2, (2,))
    parts = sf.unflatten(spec, np.zeros(sf.param_count(spec)))
    parts.weights[0][:] = np.eye(2)
    parts.weights[-1][:] = np.array([[10.0, 0.0], [0.0, 0.0]])
    params = sf.flatten(spec, parts)
    probs = sf.forward(spec, params, np.array([[1.0, 0.0]]))
    assert probs[0, 0] == pytest.approx(0.9999546, abs=1e-7)
    assert probs[0, 1] == pytest.approx(4.54e-5, abs=1e-7)


def test_loss_uniform_prediction():
    spec = small_spec()
    params = np.zeros(sf.param_count(spec))
    X = np.random.default_rng(3).normal(size=(32, 2))
    y = np.random.default_rng(4).integers(0, 3, 32)
    loss, _ = sf.loss_and_grad(spec, params, X, y)
    assert loss == pytest.approx(np.log(3))


def test_loss_perfect_prediction_near_zero():
    spec = sf.NetSpec(2, 2, (2,))
    parts = sf.unflatten(spec, np.zeros(sf.param_count(spec)))
    parts.weights[0][:] = np.eye(2) * 50
    parts.weights[-1][:] = np.eye(2) * 50
    params = sf.flatten(spec, parts)
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([0, 1])
    loss, _ = sf.loss_and_grad(spec, params, X, y)
    assert loss < 1e-10


def test_loss_only_matches_loss_and_grad():
    spec = small_spec()
    params = sf.init_params(spec, np.random.default_rng(5))
    X = np.random.default_rng(6).normal(size=(64, 2))
    y = np.random.default_rng(7).integers(0, 3, 64)
    full, _ = sf.loss_and_grad(spec, params, X, y)
    assert sf.loss_only(spec, params, X, y) == full


def test_bad_label_rejected():
    spec = small_spec()
    params = sf.init_params(spec, np.random.default_rng(8))
    X = np.zeros((4, 2))
    with pytest.raises(BadLabel):
        sf.loss_and_grad(spec, params, X, np.array([0, 1, 2, 3]))


def test_bound_stack_rows_match_own_calls():
    # A stack bound once to a split: each row's loss and gradient on its own
    # batch are bit for bit that network's own public call.
    spec = small_spec()
    rng = np.random.default_rng(10)
    stack = np.array([sf.init_params(spec, rng) for _ in range(3)])
    features = rng.normal(size=(40, 2))
    labels = rng.integers(0, 3, 40)
    idx = np.array([rng.permutation(40)[:16] for _ in range(3)])
    net = bind(spec, stack, features, labels, 16)
    losses, grads = net.loss_and_grad(features[idx], labels[idx])
    scored = net.loss(features[idx], labels[idx])
    for row, params in enumerate(stack):
        loss, grad = sf.loss_and_grad(spec, params, features[idx[row]], labels[idx[row]])
        assert losses[row] == scored[row] == loss
        assert np.array_equal(grads[row], grad)


def test_bind_checks_whole_split_once():
    spec = small_spec()
    stack = np.zeros((2, sf.param_count(spec)))
    with pytest.raises(BadLabel):
        bind(spec, stack, np.zeros((4, 2)), np.array([0, 1, 2, 3]), 2)
    with pytest.raises(ShapeMismatch):
        bind(spec, stack, np.zeros((4, 5)), np.zeros(4, dtype=int), 2)


@pytest.mark.parametrize("entry", [
    lambda spec, params, x, y: bind(spec, params, x, y, 4),
    sf.loss_and_grad,
    sf.loss_only,
    sf.evaluate,
], ids=["bind", "loss_and_grad", "loss_only", "evaluate"])
def test_every_entry_rejects_float_labels(entry):
    # One label rule for every network call: the kernel indexes with the
    # labels, so even integer-valued floats are refused, by bind (which
    # checks a split once) and by each public kernel alike.
    spec = sf.NetSpec(2, 2, (4,))
    rng = np.random.default_rng(0)
    params = sf.init_params(spec, rng)
    features = rng.normal(size=(8, 2))
    labels = np.array([0, 1] * 4, dtype=float)
    with pytest.raises(BadLabel, match="integer dtype"):
        entry(spec, params, features, labels)
    entry(spec, params, features, labels.astype(int))


def test_shape_mismatch_rejected():
    spec = small_spec()
    params = sf.init_params(spec, np.random.default_rng(9))
    with pytest.raises(ShapeMismatch):
        sf.forward(spec, params, np.zeros((4, 5)))


def test_gradient_matches_finite_differences():
    spec = sf.NetSpec(2, 3, (6,))
    rng = np.random.default_rng(4000)
    params = sf.init_params(spec, rng)
    X = rng.normal(size=(16, 2))
    y = rng.integers(0, 3, 16)
    _, g = sf.loss_and_grad(spec, params, X, y)
    h = 1e-5
    for idx in rng.choice(len(params), 10, replace=False):
        p = params.copy()
        p[idx] += h
        up = sf.loss_only(spec, p, X, y)
        p[idx] -= 2 * h
        dn = sf.loss_only(spec, p, X, y)
        fd = (up - dn) / (2 * h)
        assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_init_deterministic():
    spec = small_spec()
    a = sf.init_params(spec, np.random.default_rng(42))
    b = sf.init_params(spec, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_init_biases_and_scales_zero():
    spec = sf.NetSpec(2, 3, (8, 8), skips=((1, 2),))
    parts = sf.unflatten(spec, sf.init_params(spec, np.random.default_rng(0)))
    for b in parts.biases:
        assert np.all(b == 0)
    assert np.all(parts.biases[-1] == 0)
    assert np.all(parts.scales == 0)


def test_init_weight_variance():
    # He scaling: var ~ 2 / fan_in, checked on a wide layer
    spec = sf.NetSpec(50, 2, (200,))
    parts = sf.unflatten(spec, sf.init_params(spec, np.random.default_rng(0)))
    w = parts.weights[0]
    assert w.size == 10000
    var = w.var()
    assert abs(var - 2 / 50) <= 0.2 * (2 / 50)


def test_flatten_roundtrip_exact():
    spec = sf.NetSpec(3, 4, (7, 5), skips=())
    params = sf.init_params(spec, np.random.default_rng(11))
    parts = sf.unflatten(spec, params)
    back = sf.flatten(spec, parts)
    assert np.array_equal(back, params)


MISFITS = {
    "missing-output-block": "parts hold 2 weight and 2 bias blocks, spec has 3 layers",
    "output-bias-mis-sized": "a part holds 4 parameters where the spec wants 3",
    "scales-mis-sized": "a part holds 2 parameters where the spec wants 1",
    "transposed-weight": "a part has shape (2, 4) where the spec wants (4, 2)",
    "vector-one-short": "expected 48 parameters, got shape (47,)",
}


@pytest.mark.parametrize("case", MISFITS)
def test_flatten_and_unflatten_refuse_misfit_blocks(case):
    # 2-4-4-3 with one skip: (2*4+4) + (4*4+4) + (4*3+3) + 1 = 48 parameters.
    spec = sf.NetSpec(2, 3, (4, 4), skips=((1, 2),))
    params = sf.init_params(spec, np.random.default_rng(0))
    parts = sf.unflatten(spec, params)
    if case == "missing-output-block":
        del parts.weights[-1], parts.biases[-1]
    elif case == "output-bias-mis-sized":
        parts.biases[-1] = np.zeros(4)
    elif case == "scales-mis-sized":
        parts.scales = np.zeros(2)
    elif case == "transposed-weight":
        parts.weights[0] = parts.weights[0].T.copy()
    with pytest.raises(BadParams, match=re.escape(MISFITS[case])):
        if case == "vector-one-short":
            sf.unflatten(spec, params[:-1])
        else:
            sf.flatten(spec, parts)


def test_param_count_matches_layout():
    spec = sf.NetSpec(2, 3, (8, 8))
    params = sf.init_params(spec, np.random.default_rng(0))
    assert len(params) == sf.param_count(spec)
    # dense chain: (2*8+8) + (8*8+8) + (8*3+3)
    assert sf.param_count(spec) == 24 + 72 + 27


def test_widths_chain():
    # widths list the skip anchor points: input then each hidden layer
    spec = sf.NetSpec(2, 3, (8, 4))
    assert spec.widths() == [2, 8, 4]


def test_checkpoint_roundtrip_exact(tmp_path):
    spec = sf.NetSpec(2, 3, (8, 8), skips=((1, 2),))
    params = sf.init_params(spec, np.random.default_rng(13))
    params[0] = 1 / 3
    path = str(tmp_path / "ck.json")
    sf.save_checkpoint(path, spec, params)
    spec2, params2 = sf.load_checkpoint(path)
    assert spec2 == spec
    assert np.array_equal(params2, params)


# Signed zeros, subnormals, the ends of the finite range and integral values
# that print without a point (JSON reads those back as ints), besides any
# other finite float.
checkpoint_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e17, -1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(st.data(), specs())
def test_checkpoint_roundtrip_bit_for_bit(tmp_path_factory, data, spec):
    params = data.draw(arrays(float, sf.param_count(spec), elements=checkpoint_floats))
    path = str(tmp_path_factory.mktemp("ck") / "ck.json")
    sf.save_checkpoint(path, spec, params)
    spec2, params2 = sf.load_checkpoint(path)
    assert spec2 == spec
    assert params2.dtype == np.float64
    assert params2.tobytes() == params.tobytes()


def test_evaluate_returns_loss_and_accuracy():
    spec = small_spec()
    params = sf.init_params(spec, np.random.default_rng(1))
    X = np.random.default_rng(2).normal(size=(30, 2))
    y = np.random.default_rng(3).integers(0, 3, 30)
    loss, acc = sf.evaluate(spec, params, X, y)
    assert loss > 0
    assert 0.0 <= acc <= 1.0


def test_predict_argmax_consistency():
    spec = small_spec()
    params = sf.init_params(spec, np.random.default_rng(21))
    X = np.random.default_rng(22).normal(size=(17, 2))
    assert np.array_equal(np.argmax(sf.logits(spec, params, X), axis=-1),
                          np.argmax(sf.forward(spec, params, X), axis=1))


def test_clip_gradient():
    v = np.array([3.0, 4.0])
    clipped = sf.clip_gradient(v, 1.0)
    assert np.linalg.norm(clipped) == pytest.approx(1.0)
    small = np.array([0.1, 0.1])
    assert np.array_equal(sf.clip_gradient(small, 1.0), small)


def test_spec_digest_distinguishes_specs():
    a = sf.spec_digest(sf.NetSpec(2, 3, (8,)))
    b = sf.spec_digest(sf.NetSpec(2, 3, (8, 8)))
    assert a != b
    assert a == sf.spec_digest(sf.NetSpec(2, 3, (8,)))
