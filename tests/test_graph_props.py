"""Random-input properties of the graph kernel and of the local-graph
builder's topology."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow.errors import UnknownNode

weights = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)


@st.composite
def connect_runs(draw):
    """A node count, each leaf's weight to the center, then connect calls
    over few nodes, so that pairs are often written more than once."""
    n = draw(st.integers(1, 6))
    to_center = draw(st.lists(weights, min_size=n - 1, max_size=n - 1))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights)
    calls = draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=20)
                 if n > 1 else st.just([]))
    return n, to_center, calls


@settings(max_examples=200, deadline=None)
@given(connect_runs())
def test_kernel_rows_match_last_write(run):
    n, to_center, calls = run
    graph = sf.new_graph("c")
    last = {}
    for leaf, w in enumerate(to_center, start=1):
        graph.add_node(leaf, w)
        last[(0, leaf)] = w
    for a, b, w in calls:
        graph.connect(a, b, w)
        last[(min(a, b), max(a, b))] = w

    nodes = graph.nodes()
    assert nodes == list(range(n))
    for a in nodes:
        assert graph.kernel(a, a) == 0.0
        for b in nodes:
            k = graph.kernel(a, b)
            assert k == graph.kernel(b, a)
            assert k == last.get((min(a, b), max(a, b)), 0.0)
        ns = graph.neighbors(a)
        assert ns == sorted(ns)
        assert ns == [h for h in nodes if graph.kernel(a, h) > 0.0]
    assert graph.edges() == sorted((a, b, w) for (a, b), w in last.items())


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
