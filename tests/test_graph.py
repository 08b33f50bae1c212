import numpy as np
import pytest

import semiflow as sf
from semiflow.errors import NonPositiveWeight, UnknownNode


def test_new_graph_single_node():
    g = sf.ArchGraph(["payload"], [[0.0]])
    assert list(g) == [0]
    assert len(g) == 1
    assert g.payload(0) == "payload"


def test_center_self_weight_zero():
    g = sf.ArchGraph([None], [[0.0]])
    assert g.kernel(0, 0) == 0.0


def test_add_node_sets_symmetric_weight():
    g = sf.ArchGraph([None, "child"], [[0.0, 1.0], [1.0, 0.0]])
    assert g.kernel(0, 1) == 1.0
    assert g.kernel(1, 0) == 1.0


def test_add_eight_nodes():
    g = sf.star_graph(None, list(range(8)))
    assert len(g) == 9


def test_nonpositive_weight_rejected():
    for w in (-1.0, float("nan"), float("inf")):
        with pytest.raises(NonPositiveWeight):
            sf.ArchGraph([None, "x"], [[0.0, w], [w, 0.0]])


def test_star_neighbors():
    g = sf.star_graph(None, ["a", "b", "c"])
    assert g.neighbors(0) == [1, 2, 3]
    assert g.neighbors(2) == [0]


def test_unknown_node_rejected():
    g = sf.star_graph(None, ["a"])
    with pytest.raises(UnknownNode):
        g.neighbors(99)
    with pytest.raises(UnknownNode):
        g.payload(-1)
    with pytest.raises(UnknownNode):
        g.payload("a")


def test_numpy_ids_accepted():
    g = sf.star_graph("c", ["a", "b"])
    assert np.int64(2) in g
    assert g.payload(np.int64(2)) == "b"
    assert g.kernel(np.int32(0), np.int64(1)) == 1.0
    assert g.neighbors(np.intp(0)) == [1, 2]


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
        return sf.ArchGraph(["c", "u", "v"],
                            [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])

    g1, g2 = build(), build()
    assert g1 == g2
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
    kernel = np.zeros((4, 4))
    kernel[0, 1:] = kernel[1:, 0] = [0.5, 2.0, 1.0]
    kernel[1, 2] = kernel[2, 1] = 0.25
    g = sf.ArchGraph(["c", 1, 2, 3], kernel)
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
    # A graph is immutable: an edited kernel makes a new graph.
    g = sf.star_graph(None, [None, None])
    edited = g.kernel_matrix().copy()
    edited[1, 2] = edited[2, 1] = 2.0
    second = sf.ArchGraph([None] * 3, edited).kernel_matrix()
    assert second[1, 2] == second[2, 1] == 2.0
    grown = np.pad(edited, ((0, 1), (0, 1)))
    grown[0, 3] = grown[3, 0] = 0.5
    third = sf.ArchGraph([None] * 4, grown).kernel_matrix()
    assert third.shape == (4, 4)
    assert third[0, 3] == third[3, 0] == 0.5
    assert third[1, 2] == 2.0
