import pytest

import semiflow as sf
from semiflow.errors import NonPositiveWeight, UnknownNode


def test_new_graph_single_node():
    g = sf.new_graph("payload")
    assert list(g) == [0]
    assert len(g) == 1
    assert g.payload(0) == "payload"


def test_center_self_weight_zero():
    g = sf.new_graph(None)
    assert g.kernel(0, 0) == 0.0


def test_add_node_sets_symmetric_weight():
    g = sf.new_graph(None)
    i = g.add_node("child", 1.0)
    assert g.kernel(0, i) == 1.0
    assert g.kernel(i, 0) == 1.0


def test_add_eight_nodes():
    g = sf.new_graph(None)
    for k in range(8):
        g.add_node(k, 1.0)
    assert len(g) == 9


def test_nonpositive_weight_rejected():
    g = sf.new_graph(None)
    with pytest.raises(NonPositiveWeight):
        g.add_node("x", 0.0)
    with pytest.raises(NonPositiveWeight):
        g.add_node("x", -1.0)
    with pytest.raises(NonPositiveWeight):
        g.add_node("x", float("nan"))
    with pytest.raises(NonPositiveWeight):
        g.add_node("x", float("inf"))


def test_star_neighbors():
    g = sf.star_graph(None, ["a", "b", "c"])
    assert g.neighbors(0) == [1, 2, 3]
    assert g.neighbors(2) == [0]


def test_unknown_node_rejected():
    g = sf.star_graph(None, ["a"])
    with pytest.raises(UnknownNode):
        g.neighbors(99)


def test_kernel_symmetry_complete():
    g = sf.complete_graph([None] * 5)
    for a in g:
        for b in g:
            assert g.kernel(a, b) == g.kernel(b, a)
            if a != b:
                assert g.kernel(a, b) == 1.0


def test_neighbors_order_ascending():
    g = sf.complete_graph([None] * 6)
    for a in g:
        ns = g.neighbors(a)
        assert ns == sorted(ns)
        assert a not in ns


def test_same_build_sequence_equal():
    def build():
        g = sf.new_graph("c")
        g.add_node("u", 1.0)
        g.add_node("v", 2.0)
        return g

    g1, g2 = build(), build()
    assert list(g1) == list(g2)
    for a in g1:
        assert g1.payload(a) == g2.payload(a)
        for b in g1:
            assert g1.kernel(a, b) == g2.kernel(a, b)


def test_unweighted_pair_has_zero_kernel():
    # star leaves are not connected to each other
    g = sf.star_graph(None, ["a", "b"])
    assert g.kernel(1, 2) == 0.0
    assert 2 not in g.neighbors(1)


# ---------------------------------------------------------------- dense kernel

def test_kernel_matrix_matches_kernel():
    g = sf.new_graph("c")
    for leaf, w in enumerate([0.5, 2.0, 1.0], start=1):
        g.add_node(leaf, w)
    g.connect(1, 2, 3.5)
    g.connect(2, 1, 0.25)
    k = g.kernel_matrix()
    assert k.shape == (4, 4)
    for a in g:
        assert k[a, a] == 0.0
        for b in g:
            assert k[a, b] == g.kernel(a, b)


def test_kernel_matrix_is_read_only():
    k = sf.star_graph(None, [None, None]).kernel_matrix()
    with pytest.raises(ValueError):
        k[0, 1] = 5.0


def test_kernel_matrix_follows_edits():
    g = sf.star_graph(None, [None, None])
    first = g.kernel_matrix()
    assert g.kernel_matrix() is first
    g.connect(1, 2, 2.0)
    second = g.kernel_matrix()
    assert second is not first
    assert second[1, 2] == second[2, 1] == 2.0
    assert first[1, 2] == 0.0
    g.add_node(None, 0.5)
    third = g.kernel_matrix()
    assert third.shape == (4, 4)
    assert third[0, 3] == third[3, 0] == 0.5
    assert third[1, 2] == 2.0
