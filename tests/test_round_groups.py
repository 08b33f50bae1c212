"""A round's grouped kernel calls against the per-node loop they replaced.

dynamics_round binds every group of nodes that share a NetSpec once per
round, and trains and scores each group with one stacked kernel call per
clock tick, on batches its stacked streams gather in one draw. The reference
below is the round loop as it was before: per node and tick, one batch from
the node's own BatchStream, one loss_and_grad and one loss_only. On a
complete graph with repeated specs, both must write the same metrics rows
(train losses, tracker values, counts, potentials), end in the same states
bit for bit, and fail the same way.
"""

import math

import numpy as np
import pytest

import semiflow as sf
from semiflow import nn, search
from semiflow.errors import NonFiniteGradient, NonFiniteValue
from semiflow.search import GlobalClock, dynamics_round

# -- reference --------------------------------------------------------------


def reference_round(graph, specs, states, config, clock, rng, batches,
                    metrics, round_idx, budget_iters):
    """The per-node round loop: every node its own kernel calls."""
    dyn = config.dynamics()
    nodes = graph.nodes()
    center = graph.center
    ensemble = sf.seed_ensemble(graph, config.n_particles)
    tracker = sf.ValTracker(decay=config.val_decay)
    phi = {g: 0.0 for g in nodes}
    timeout_iters = max(
        1, round(config.round_timeout_factor * config.epochs_neigh * clock.iters_per_epoch)
    )
    stats = sf.RoundStats()
    v_train = {}
    while True:
        tau = clock.tau()
        for g in nodes:
            loss, grad_vec = sf.loss_and_grad(specs[g], states[g].x, *batches(g, "train"))
            v_train[g] = loss
            grad_vec = sf.clip_gradient(grad_vec, config.grad_clip)
            states[g] = sf.train_step(states[g], grad_vec, tau, gamma=config.damping)
        for g in nodes:
            sample = sf.loss_only(specs[g], states[g].x, *batches(g, "val"))
            if not math.isfinite(sample):
                raise NonFiniteValue(f"validation loss at node {g} is {sample}")
            tracker.update(g, sample)
        values = dict(tracker.running)

        step = search.particle_step(ensemble, phi, values, graph, dyn, tau, rng)
        ensemble, phi = step.ensemble, step.phi
        for amount in step.flows.values():
            stats.movers += amount
        stats.energy_trace.append(step.energy)
        for g in nodes:
            metrics.write_row(
                clock.k, round_idx, g, ensemble.counts[g],
                ensemble.counts[g] / ensemble.total, v_train[g], values[g],
                phi[g], tau, step.energy, step.out_flow[g],
            )
        metrics.flush()

        clock.advance()
        stats.iterations += 1

        children = [g for g in nodes if g != center]
        best = min(children, key=lambda g: (-ensemble.counts[g], g))
        if ensemble.counts[best] >= 2.0 * ensemble.counts[center]:
            stats.adopted = best
            break
        if stats.iterations >= budget_iters:
            stats.budget_exhausted = True
            break
        if stats.iterations >= timeout_iters:
            stats.timed_out = True
            stats.adopted = min(nodes, key=lambda g: (-ensemble.counts[g], g))
            break
    stats.final_counts = dict(ensemble.counts)
    return stats


# -- rig --------------------------------------------------------------------


def round_rig(data, mode, seed):
    """A complete 13-node graph around a 6-6 net, with its config and specs.
    At mobility 1 a round runs past an epoch of both streams (6 train and 2
    val batches) before it adopts or spends its 40 ticks."""
    config = sf.SearchConfig(mode=mode, seed=seed, n_neigh=12, topology="complete",
                             epochs_neigh=2, n_particles=50, s_x=64, s_y=32,
                             hidden=(6, 6), kappa=1.0)
    spec = sf.NetSpec(data.input_dim, data.n_classes, config.hidden)
    params = sf.init_params(spec, np.random.default_rng(seed))
    graph, _ = sf.build_local_graph(
        spec, params, config.n_neigh, config.constraints, config.mix,
        np.random.default_rng(seed), topology="complete",
    )
    specs = {g: graph.payload(g).spec for g in graph}
    return config, graph, specs


def node_streams(data, config, round_idx, nodes):
    """The reference's batches: each node's own train and val BatchStream,
    seeded as a round's group streams seed that node's row."""
    table = {}
    for g in nodes:
        for kind, (split, size) in enumerate(
            (("train", config.s_x), ("val", config.s_y))
        ):
            table[(g, split)] = sf.BatchStream(
                *data.split(split), size,
                search._stream_seed(config.seed, 5, round_idx, g, kind),
            )
    return lambda g, split: table[(g, split)].next_batch()


def fresh_states(graph, seed):
    """Each node's parameters, and a velocity drawn per node so that the
    momentum term differs between nodes of one spec from the first tick."""
    rng = np.random.default_rng(seed)
    return {
        g: sf.NodeState(graph.payload(g).params.copy(),
                        rng.normal(0.0, 0.1, graph.payload(g).params.size))
        for g in graph
    }


@pytest.mark.parametrize("mode", ["nasgd", "nasagd"])
@pytest.mark.parametrize("seed", [0, 1])
def test_grouped_round_matches_per_node_loop(blobs_small, tmp_path, mode, seed):
    config, graph, specs = round_rig(blobs_small, mode, seed)
    groups = {}
    for g in graph.nodes():
        groups.setdefault(specs[g], []).append(g)
    assert max(len(nodes) for nodes in groups.values()) >= 2
    assert len(groups) < len(graph.nodes())
    # A group of one trains 1-D, so both of the round's paths are compared.
    assert min(len(nodes) for nodes in groups.values()) == 1

    runs = {}
    for name, run in (("grouped", None), ("reference", reference_round)):
        states = fresh_states(graph, seed)
        ipe = sf.iters_per_epoch(blobs_small, config)
        clock = GlobalClock(ipe, config.epochs_neigh, config.lam_start, config.lam_final)
        rng = np.random.default_rng(seed)
        with sf.MetricsWriter(str(tmp_path / f"{name}.csv")) as metrics:
            if run is None:
                objective = sf.NetObjective(specs, blobs_small, config, 1)
                stats = dynamics_round(graph, objective, states, config,
                                       clock, rng, metrics, 1, 40)
            else:
                batches = node_streams(blobs_small, config, 1, graph.nodes())
                stats = run(graph, specs, states, config, clock, rng, batches,
                            metrics, 1, 40)
        runs[name] = (stats, states, clock.k, (tmp_path / f"{name}.csv").read_bytes())

    (stats, states, k, rows), (ref_stats, ref_states, ref_k, ref_rows) = (
        runs["grouped"], runs["reference"]
    )
    assert rows == ref_rows
    assert k == ref_k == stats.iterations
    # The compared ticks crossed an epoch end of both streams, where every
    # row reshuffles with its own rng.
    train, val = sf.NetObjective(specs, blobs_small, config, 1).streams((0,))
    assert stats.iterations > max(train.batches_per_epoch, val.batches_per_epoch)
    assert (stats.adopted, stats.iterations, stats.movers, stats.final_counts) == (
        ref_stats.adopted, ref_stats.iterations, ref_stats.movers, ref_stats.final_counts
    )
    assert stats.energy_trace == ref_stats.energy_trace
    assert sorted(states) == sorted(ref_states)
    for g in graph.nodes():
        for got, want in ((states[g].x, ref_states[g].x), (states[g].v, ref_states[g].v)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def run_net_round(data, config, graph, specs, states):
    ipe = sf.iters_per_epoch(data, config)
    clock = GlobalClock(ipe, config.epochs_neigh, config.lam_start, config.lam_final)
    return dynamics_round(graph, sf.NetObjective(specs, data, config, 1), states,
                          config, clock, np.random.default_rng(0), None, 1, 40)


def test_round_binds_each_group_once_and_draws_stacks(blobs_small, monkeypatch):
    # Per group and round: one bound network for training and one for
    # scoring. Per group and tick: one train draw and one val draw, never
    # one draw per node; a group of one draws (batch, d), a larger group
    # stacks (n, batch, d).
    config, graph, specs = round_rig(blobs_small, "nasgd", 0)
    groups = {}
    for g in graph.nodes():
        groups.setdefault(specs[g], []).append(g)
    built, drawn = [], []

    class CountedNet(nn.BoundNet):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    next_batch = sf.BatchStream.next_batch

    def counted_next_batch(stream):
        inputs, labels = next_batch(stream)
        drawn.append(inputs.shape)
        return inputs, labels

    monkeypatch.setattr(nn, "BoundNet", CountedNet)
    monkeypatch.setattr(sf.BatchStream, "next_batch", counted_next_batch)
    stats = run_net_round(blobs_small, config, graph, specs, fresh_states(graph, 0))
    assert stats.iterations > 1
    assert len(built) == 2 * len(groups)
    assert len(drawn) == 2 * len(groups) * stats.iterations
    sizes = [len(nodes) for nodes in groups.values()]
    assert min(sizes) == 1 and max(sizes) >= 2
    d = blobs_small.input_dim
    per_tick = [(batch, d) if n == 1 else (n, batch, d)
                for n in sizes for batch in (config.s_x, config.s_y)]
    assert sorted(drawn) == sorted(per_tick * stats.iterations)
    rows = sum(shape[0] if len(shape) == 3 else 1 for shape in drawn)
    assert rows == 2 * len(graph.nodes()) * stats.iterations


# -- failures ---------------------------------------------------------------


def quadratic_rig(dims, offsets=None, centers=None):
    """A star graph whose nodes have the given dimensions: nodes of one
    dimension form one group, so groups interleave in node order."""
    graph = sf.star_graph(None, [None] * (len(dims) - 1))
    centers = centers or {}
    obj = sf.QuadraticObjective(
        {g: centers.get(g, np.zeros(d)) for g, d in zip(graph.nodes(), dims)},
        offsets or {},
    )
    states = {g: sf.NodeState(np.ones(d), np.zeros(d)) for g, d in zip(graph.nodes(), dims)}
    config = sf.SearchConfig(mode="nasgd", seed=0, epochs_neigh=2, n_particles=50)
    return graph, obj, states, config


class RecordedObjective:
    """Records the shape of every x the round binds. With stack, binds
    every group as a stack, a group of one as (1, P): the round's path
    before a group of one was 1-D."""

    def __init__(self, objective, stack):
        self.objective, self.stack = objective, stack
        self.bound_shapes = []

    def group_key(self, g):
        return self.objective.group_key(g)

    def bind(self, group, x):
        self.bound_shapes.append(x.shape)
        if not self.stack:
            return self.objective.bind(group, x)
        bound = self.objective.bind(group, x.reshape(len(group), -1))

        def value_and_grad():
            values, grads = bound.value_and_grad()
            return values, grads.reshape(x.shape)

        return sf.BoundGroup(bound.value, value_and_grad)


def test_quadratic_round_with_a_group_of_one_matches_the_stacked_path():
    # Node 5 (dimension 5) is a group of one and is bound 1-D; the round
    # must end as the all-stacked path does, bit for bit. Mass reaches every
    # child over 19 ticks before node 5 doubles the center.
    dims = [2, 3, 2, 3, 2, 5]
    centers = {g: 1.0 + 0.3 * np.linspace(-1.0, 1.0, d) for g, d in enumerate(dims)}
    runs = []
    for stack in (False, True):
        graph, obj, states, config = quadratic_rig(dims, {0: 0.05}, centers)
        objective = RecordedObjective(obj, stack)
        stats = dynamics_round(graph, objective, states, config,
                               GlobalClock(4, 2, 0.05, 1e-7), np.random.default_rng(0))
        runs.append((stats, states, objective.bound_shapes))
    (stats, states, shapes), (ref_stats, ref_states, ref_shapes) = runs
    assert shapes == ref_shapes and (5,) in shapes and (3, 2) in shapes
    assert (stats.iterations, stats.adopted) == (19, 5)
    assert min(stats.final_counts.values()) > 1
    assert (stats.adopted, stats.iterations, stats.movers, stats.final_counts,
            stats.energy_trace) == (ref_stats.adopted, ref_stats.iterations,
                                    ref_stats.movers, ref_stats.final_counts,
                                    ref_stats.energy_trace)
    assert sorted(states) == sorted(ref_states)
    for g in states:
        for got, want in ((states[g].x, ref_states[g].x), (states[g].v, ref_states[g].v)):
            assert got.shape == (dims[g],)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("bad, named", [
    pytest.param({4}, 4, id="one-member"),
    # node 4 fails in the first group called, node 1 in the second
    pytest.param({4, 1}, 1, id="first-in-node-order"),
])
def test_nonfinite_validation_loss_names_first_node(bad, named):
    dims = [2, 3, 2, 3, 2, 3]
    graph, obj, states, config = quadratic_rig(dims, {g: math.nan for g in bad})
    assert [obj.group_key(g) for g in graph.nodes()] == [(d,) for d in dims]
    with pytest.raises(NonFiniteValue, match=f"at node {named} is nan") as info:
        dynamics_round(graph, obj, states, config, GlobalClock(4, 2, 0.05, 1e-7),
                       np.random.default_rng(0))
    assert info.value.node == named


def test_nonfinite_gradient_raises():
    graph, obj, states, config = quadratic_rig(
        [2, 2, 2, 2], centers={2: np.array([math.nan, 0.0])}
    )
    with pytest.raises(NonFiniteGradient):
        dynamics_round(graph, obj, states, config, GlobalClock(4, 2, 0.05, 1e-7),
                       np.random.default_rng(0))
    # The round puts every node's state back, however it ends.
    assert sorted(states) == graph.nodes()


def test_nonfinite_gradient_on_nets_restores_states(blobs_small):
    # One member of a multi-node group has NaN parameters: its row of the
    # group's stacked gradient is NaN, and the round raises
    # NonFiniteGradient with every node's state back in states.
    config, graph, specs = round_rig(blobs_small, "nasgd", 1)
    groups = {}
    for g in graph.nodes():
        groups.setdefault(specs[g], []).append(g)
    group = max(groups.values(), key=len)
    assert len(group) >= 2
    states = fresh_states(graph, 1)
    states[group[1]].x[:] = math.nan
    with pytest.raises(NonFiniteGradient):
        run_net_round(blobs_small, config, graph, specs, states)
    assert sorted(states) == graph.nodes()
    for g in graph.nodes():
        assert states[g].x.shape == states[g].v.shape == (sf.param_count(specs[g]),)
    assert np.isnan(states[group[1]].x).all()
    assert np.isfinite(states[group[0]].x).all()
