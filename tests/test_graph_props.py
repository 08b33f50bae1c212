"""Random-input properties of the graph kernel and of the local-graph
builder's topology."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow.errors import DimensionMismatch, NonPositiveWeight, UnknownNode

weights = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)


@st.composite
def sparse_kernels(draw):
    """A node count and a symmetric kernel with a zero diagonal, each pair
    above it an edge of random weight or, about half the time, none."""
    n = draw(st.integers(1, 7))
    kernel = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            kernel[a, b] = kernel[b, a] = draw(st.one_of(st.just(0.0), weights))
    return n, kernel


@settings(max_examples=200, deadline=None)
@given(sparse_kernels())
def test_queries_agree_with_the_kernel_array(drawn):
    n, kernel = drawn
    source = kernel.copy()
    payloads = [f"p{g}" for g in range(n)]
    graph = sf.ArchGraph(payloads, source)
    source[...] = 7.0

    nodes = graph.nodes()
    assert nodes == list(graph) == list(range(n))
    assert len(graph) == n and graph.center == 0
    assert [graph.payload(g) for g in nodes] == payloads
    for a in nodes:
        for b in nodes:
            assert graph.kernel(a, b) == kernel[a, b]
        assert graph.neighbors(a) == [b for b in nodes if kernel[a, b] > 0.0]
    assert graph.edges() == [(a, b, kernel[a, b]) for a in nodes
                             for b in nodes if a < b and kernel[a, b] > 0.0]
    assert graph.kernel_matrix().tolist() == kernel.tolist()
    assert not graph.kernel_matrix().flags.writeable
    assert graph == sf.ArchGraph(payloads, kernel)
    if n > 1:
        other = kernel.copy()
        other[0, 1] = other[1, 0] = other[0, 1] + 1.0
        assert graph != sf.ArchGraph(payloads, other)


@settings(max_examples=100, deadline=None)
@given(sparse_kernels(), st.data())
def test_malformed_kernel_rejected(drawn, data):
    n, kernel = drawn
    flaw = data.draw(st.sampled_from(
        ["shape", "negative", "nan", "inf", "-inf", "asymmetric", "diagonal"]
    ))
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1).filter(lambda b: b != a)) if n > 1 else a
    bad = {"negative": -1.0, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
    error = NonPositiveWeight
    if flaw == "shape":
        kernel = np.zeros((n, n + 1))
        error = DimensionMismatch
    elif flaw == "diagonal":
        kernel[a, a] = 1.0
    elif n == 1:  # no pair off the diagonal: every flaw lands on it
        kernel[0, 0] = bad.get(flaw, 1.0)
    elif flaw == "asymmetric":
        kernel[a, b] += 1.0
    else:
        kernel[a, b] = kernel[b, a] = bad[flaw]
    with pytest.raises(error):
        sf.ArchGraph([None] * n, kernel)


def test_no_payloads_rejected():
    with pytest.raises(UnknownNode):
        sf.ArchGraph([], np.zeros((0, 0)))
    with pytest.raises(UnknownNode):
        sf.complete_graph([])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8))
def test_builders_equal_their_unit_kernels(n):
    star = np.zeros((n, n))
    star[0, 1:] = star[1:, 0] = 1.0
    payloads = list(range(n))
    assert sf.star_graph(0, payloads[1:]) == sf.ArchGraph(payloads, star)
    assert sf.complete_graph(payloads) == sf.ArchGraph(payloads, 1.0 - np.eye(n))


def test_unknown_ids_rejected_by_kernel():
    graph = sf.star_graph(None, ["a"])
    with pytest.raises(UnknownNode):
        graph.kernel(0, 5)
    with pytest.raises(UnknownNode):
        graph.kernel(5, 0)


@settings(max_examples=25, deadline=None)
@given(n_neigh=st.integers(1, 6), topology=st.sampled_from(["star", "complete"]),
       seed=st.integers(0, 2**16))
def test_local_graph_has_the_builder_topology(n_neigh, topology, seed):
    spec = sf.NetSpec(2, 2, (4,))
    params = sf.init_params(spec, np.random.default_rng(seed))
    graph, audit = sf.build_local_graph(
        spec, params, n_neigh, None, None, np.random.default_rng(seed),
        topology=topology,
    )
    if topology == "star":
        reference = sf.star_graph(None, [None] * n_neigh)
    else:
        reference = sf.complete_graph([None] * (n_neigh + 1))
    assert graph.nodes() == reference.nodes()
    assert graph.edges() == reference.edges()
    assert [rec["child_id"] for rec in audit] == list(range(1, n_neigh + 1))
    for rec in audit:
        assert graph.payload(rec["child_id"]).origin.kind == rec["kind"]
    assert graph.payload(graph.center).origin is None
