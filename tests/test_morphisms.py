"""Function preservation and constraint handling for the network operators."""

import numpy as np
import pytest

import semiflow as sf
from semiflow.errors import BadPosition, ConstraintViolated, DimensionMismatch


def max_dev(spec_a, params_a, spec_b, params_b, rng, batch=64):
    X = rng.normal(size=(batch, spec_a.input_dim))
    out_a = sf.forward(spec_a, params_a, X)
    out_b = sf.forward(spec_b, params_b, X)
    return float(np.max(np.abs(out_a - out_b)))


def fresh(hidden=(8, 8), seed=0, skips=()):
    spec = sf.NetSpec(2, 3, hidden, skips=skips)
    params = sf.init_params(spec, np.random.default_rng(seed))
    return spec, params


def test_deepen_preserves_function():
    spec, params = fresh()
    rng = np.random.default_rng(1)
    m = sf.deepen(spec, params, 1)
    assert len(m.spec.hidden) == 3
    assert max_dev(spec, params, m.spec, m.params, rng) <= 1e-6


def test_deepen_bad_position():
    spec, params = fresh()
    with pytest.raises(BadPosition):
        sf.deepen(spec, params, 0)
    with pytest.raises(BadPosition):
        sf.deepen(spec, params, 5)


def test_deepen_at_layer_cap():
    spec, params = fresh(hidden=(4, 4))
    cons = sf.Constraints(max_layers=2)
    with pytest.raises(ConstraintViolated):
        sf.deepen(spec, params, 1, constraints=cons)


def test_widen_preserves_function():
    spec, params = fresh()
    rng = np.random.default_rng(2)
    m = sf.widen(spec, params, 1, 3, np.random.default_rng(3))
    assert m.spec.hidden[0] == 11
    assert max_dev(spec, params, m.spec, m.params, rng) <= 1e-6


def test_widen_beyond_cap():
    spec, params = fresh()
    cons = sf.Constraints(max_width=8)
    with pytest.raises(ConstraintViolated):
        sf.widen(spec, params, 1, 1, np.random.default_rng(0), constraints=cons)


def test_add_skip_bit_identical():
    spec, params = fresh()
    rng = np.random.default_rng(4)
    m = sf.add_skip(spec, params, 1, 2)
    X = rng.normal(size=(32, 2))
    assert np.array_equal(sf.forward(spec, params, X),
                          sf.forward(m.spec, m.params, X))


def test_add_skip_incoming_cap():
    spec, params = fresh(hidden=(8, 8, 8))
    cons = sf.Constraints(max_incoming=1)
    m = sf.add_skip(spec, params, 1, 3, constraints=cons)
    with pytest.raises(ConstraintViolated):
        sf.add_skip(m.spec, m.params, 2, 3, constraints=cons)


def test_add_skip_width_mismatch():
    spec, params = fresh(hidden=(8, 4))
    with pytest.raises(DimensionMismatch):
        sf.add_skip(spec, params, 1, 2)


def test_add_skip_duplicate_rejected():
    spec, params = fresh(skips=((1, 2),))
    with pytest.raises(ConstraintViolated):
        sf.add_skip(spec, params, 1, 2)


def test_narrow_shrinks_params():
    spec, params = fresh()
    m = sf.narrow(spec, params, 1, 2)
    assert m.spec.hidden[0] == 6
    assert len(m.params) < len(params)
    loss, grad = sf.loss_and_grad(m.spec, m.params,
                                  np.zeros((4, 2)), np.zeros(4, dtype=int))
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


def test_remove_only_layer_rejected():
    spec, params = fresh(hidden=(8, 8))
    m = sf.remove_layer(spec, params, 1)
    assert len(m.spec.hidden) == 1
    with pytest.raises(ConstraintViolated):
        sf.remove_layer(m.spec, m.params, 1)


def test_remove_layer_over_param_cap_rejected():
    # Removing the 1-unit middle layer pads the next layer's input from 1 to
    # 32 columns: 259 parameters become 1218.
    spec = sf.NetSpec(2, 2, (32, 1, 32))
    params = sf.init_params(spec, np.random.default_rng(0))
    assert sf.param_count(spec) == 259
    assert sf.param_count(sf.remove_layer(spec, params, 2).spec) == 1218
    with pytest.raises(ConstraintViolated, match="^the remove_layer child has 1218 "
                       "parameters, over constraints.max_params 500$"):
        sf.remove_layer(spec, params, 2, constraints=sf.Constraints(max_params=500))
    kept = sf.remove_layer(spec, params, 2, constraints=sf.Constraints(max_params=1218))
    assert sf.param_count(kept.spec) == 1218


def test_remove_zero_scale_skip_neutral():
    spec, params = fresh(skips=((1, 2),), seed=7)
    rng = np.random.default_rng(8)
    m = sf.remove_skip(spec, params, 0)
    assert m.spec.skips == ()
    assert max_dev(spec, params, m.spec, m.params, rng) <= 1e-12


def test_negative_morphism_dispatch():
    spec, params = fresh(skips=((1, 2),))
    m = sf.draw_morphism(spec, params, "remove_skip", np.random.default_rng(0))
    assert m.origin.kind == "remove_skip"
    assert m.spec.skips == ()


def test_draw_morphism_records_args():
    spec, params = fresh()
    m = sf.draw_morphism(spec, params, "widen", np.random.default_rng(5))
    assert m.origin.kind == "widen"
    args = m.origin.args_dict()
    assert m.spec.hidden[args["layer"] - 1] == spec.hidden[args["layer"] - 1] + args["delta"]


def test_default_mix_sums_to_one():
    mix = sf.default_mix()
    assert set(mix) == set(sf.ALL_KINDS)
    assert sum(mix.values()) == pytest.approx(1.0)


def test_build_local_graph_star():
    spec, params = fresh()
    g, audit = sf.build_local_graph(spec, params, 8, None, None,
                                    np.random.default_rng(10))
    assert len(g) == 9
    assert g.neighbors(0) == list(range(1, 9))
    assert len(audit) == 8
    for rec in audit:
        assert set(rec) == {"child_id", "kind", "args", "preserved", "dev"}


def test_build_local_graph_degenerate_mix():
    spec, params = fresh()
    g, audit = sf.build_local_graph(spec, params, 4, None, {"deepen": 1.0},
                                    np.random.default_rng(11))
    assert all(rec["kind"] == "deepen" for rec in audit)
    for i in range(1, 5):
        child = g.payload(i)
        assert len(child.spec.hidden) == len(spec.hidden) + 1


def test_build_local_graph_deterministic():
    spec, params = fresh()
    g1, a1 = sf.build_local_graph(spec, params, 6, None, None,
                                  np.random.default_rng(12))
    g2, a2 = sf.build_local_graph(spec, params, 6, None, None,
                                  np.random.default_rng(12))
    assert a1 == a2
    for i in range(1, 7):
        c1, c2 = g1.payload(i), g2.payload(i)
        assert c1.spec == c2.spec
        assert np.array_equal(c1.params, c2.params)


def test_build_local_graph_respects_constraints():
    spec, params = fresh(hidden=(8, 8))
    cons = sf.Constraints(max_layers=3, max_width=12, max_incoming=2,
                          max_params=800)
    g, audit = sf.build_local_graph(spec, params, 8, cons, None,
                                    np.random.default_rng(13))
    for i in range(1, 9):
        child = g.payload(i)
        assert len(child.spec.hidden) <= 3
        assert max(child.spec.hidden) <= 12
        assert sf.param_count(child.spec) <= 800
        assert len(child.params) == sf.param_count(child.spec)


def test_positive_children_match_incumbent_loss():
    spec, params = fresh()
    rng = np.random.default_rng(14)
    X = rng.normal(size=(32, 2))
    y = rng.integers(0, 3, 32)
    base = sf.loss_only(spec, params, X, y)
    g, audit = sf.build_local_graph(spec, params, 8, None, None,
                                    np.random.default_rng(15))
    positive = {"deepen", "widen", "add_skip"}
    for rec in audit:
        if rec["kind"] in positive:
            child = g.payload(rec["child_id"])
            assert abs(sf.loss_only(child.spec, child.params, X, y) - base) <= 1e-6
