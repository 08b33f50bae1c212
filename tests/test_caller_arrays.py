"""Every entry point that trains must leave the arrays its caller passed in
unchanged: NodeState wraps arrays without copying them."""

import numpy as np

import semiflow as sf
from conftest import search_clock
from semiflow import search


def small_config(**kw):
    base = dict(mode="nasgd", seed=0, epochs_neigh=1, n_particles=20,
                n_steps=0.4, pretrain_epochs=1, final_budget=2, hidden=(8, 8),
                n_neigh=3)
    base.update(kw)
    return sf.SearchConfig(**base)


def test_pretrain_leaves_given_params_unchanged(blobs_small):
    spec = sf.NetSpec(2, 4, (8, 8))
    params = sf.init_params(spec, np.random.default_rng(0))
    before = params.copy()
    trained = sf.pretrain(spec, blobs_small, sf.SearchConfig(pretrain_epochs=1),
                          params)
    assert np.array_equal(params, before)
    assert not np.array_equal(trained, before)


def test_final_train_leaves_params_and_velocity_unchanged(blobs_small):
    spec = sf.NetSpec(2, 4, (8, 8))
    rng = np.random.default_rng(1)
    params = sf.init_params(spec, rng)
    velocity = rng.normal(0.0, 0.01, params.size)
    p0, v0 = params.copy(), velocity.copy()
    config = small_config()
    sf.final_train(spec, params, blobs_small, config, search_clock(blobs_small, config),
                   velocity=velocity)
    assert np.array_equal(params, p0)
    assert np.array_equal(velocity, v0)


def test_run_round_leaves_incumbent_unchanged(monkeypatch, blobs_small):
    # run_round hands every payload's arrays to the round uncopied, so the
    # round must not write any of them, the incumbent's or a child's.
    graphs = []
    build = search.build_local_graph

    def recording_build(*args, **kw):
        graph, audit = build(*args, **kw)
        snapshot = {g: (graph.payload(g).params.copy(), graph.payload(g).velocity.copy())
                    for g in graph}
        graphs.append((graph, snapshot))
        return graph, audit

    monkeypatch.setattr(search, "build_local_graph", recording_build)
    config = small_config()
    spec = sf.NetSpec(2, 4, config.hidden)
    rng = np.random.default_rng(2)
    params = sf.init_params(spec, rng)
    velocity = rng.normal(0.0, 0.01, params.size)
    incumbent = sf.Candidate(spec, params, velocity)
    p0, v0 = params.copy(), velocity.copy()
    _, stats, _ = sf.run_round(incumbent, config, blobs_small,
                               search_clock(blobs_small, config), budget_iters=3)
    assert stats.iterations >= 1
    assert np.array_equal(incumbent.params, p0)
    assert np.array_equal(incumbent.velocity, v0)
    [(graph, snapshot)] = graphs
    assert len(snapshot) == config.n_neigh + 1
    for g in graph:
        params0, velocity0 = snapshot[g]
        assert np.array_equal(graph.payload(g).params, params0)
        assert np.array_equal(graph.payload(g).velocity, velocity0)


def test_hill_climb_leaves_child_params_unchanged(monkeypatch, blobs_small):
    graphs = []
    build = search.build_local_graph

    def recording_build(*args, **kw):
        graph, audit = build(*args, **kw)
        snapshot = {g: graph.payload(g).params.copy() for g in graph}
        graphs.append((graph, snapshot))
        return graph, audit

    monkeypatch.setattr(search, "build_local_graph", recording_build)
    search.hill_climb_baseline(
        small_config(mode="hillclimb", n_steps=1.0, final_budget=0), blobs_small
    )
    assert len(graphs) == 1
    graph, snapshot = graphs[0]
    assert len(snapshot) > 1
    for g in graph:
        assert np.array_equal(graph.payload(g).params, snapshot[g])
