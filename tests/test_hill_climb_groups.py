"""The hill-climbing baseline against the child-by-child loop it replaced.

hill_climb_baseline trains the children of one spec as one stack. The
reference below is the loop as it was before: every child trained alone on
its own stream and a fresh clock, with the wallclock cap checked before each
child. Uncapped, both must pick the same incumbent, bit for bit, every cycle
and count the same architectures; capped, the baseline checks the cap before
each group of same-spec children and counts every child trained plus the one
at which the cap fired.
"""

import json
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow import search
from semiflow.dynamics import NodeState
from semiflow.morphisms import Candidate
from semiflow.search import GlobalClock, _fit, _stream_seed
from test_fit_props import KNOBS, reference_steps
from test_nn_layout import same_bits


def reference_hill_climb(config, data):
    """The child-by-child search loop, uncapped; returns architectures
    explored and the incumbent after the last cycle."""
    train_x, train_y = data.split("train")
    val_x, val_y = data.split("val")
    spec, params = search.start_network(config, data)
    params = search.pretrain(spec, data, config, params)
    incumbent = Candidate(spec, params, np.zeros_like(params), None)
    explored = 1
    for cycle in range(1, max(1, int(round(config.n_steps))) + 1):
        graph, _audit = search.build_local_graph(
            incumbent.spec, incumbent.params, config.n_neigh,
            config.constraints, config.mix, search._rng(config.seed, 2, cycle),
            topology=config.topology,
        )
        scored = [
            (sf.evaluate(incumbent.spec, incumbent.params, val_x, val_y)[0],
             incumbent.spec, incumbent.params)
        ]
        for g in graph:
            if g == graph.center:
                continue
            explored += 1
            child = graph.payload(g)
            stream = sf.BatchStream(
                train_x, train_y, config.s_x,
                _stream_seed(config.seed, 7, cycle, explored - 1),
            )
            clock = GlobalClock.for_search(config, stream.batches_per_epoch)
            params = np.asarray(child.params, dtype=float)
            *_, trained = _fit(
                child.spec, NodeState(params, np.zeros(params.size)),
                stream, clock, config.epochs_neigh,
                config, "baseline training",
            )
            scored.append(
                (sf.evaluate(child.spec, trained.x, val_x, val_y)[0],
                 child.spec, trained.x)
            )
        best = min(scored, key=lambda item: item[0])
        incumbent = Candidate(best[1], best[2], None, None)
    return explored, incumbent


def recording(monkeypatch):
    """Record the incumbent each cycle's local graph is built around, and
    the graph built."""
    seen = []
    build = search.build_local_graph

    def recording_build(spec, params, *args, **kw):
        graph, audit = build(spec, params, *args, **kw)
        seen.append((spec, np.array(params), graph))
        return graph, audit

    monkeypatch.setattr(search, "build_local_graph", recording_build)
    return seen


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 2**16),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(1, 2),
    st.sampled_from([(4,), (4, 4), (3, 5)]),
    st.sampled_from([8, 16, 32]),
)
# Stacks of 4 and 2, 2 beside singletons (as in tests/test_bench_hooks.py).
@example(0, 5, 2, 2, (4,), 32)
def test_baseline_matches_the_child_by_child_loop(seed, n_neigh, cycles, epochs,
                                                  hidden, s_x):
    config = sf.SearchConfig(
        mode="hillclimb", seed=seed, n_neigh=n_neigh, n_steps=float(cycles),
        epochs_neigh=epochs, hidden=hidden, s_x=s_x, pretrain_epochs=1,
        final_budget=0,
    )
    data = sf.make_blobs(200, seed=seed % 97)
    # One patch context per example: hypothesis runs many in one test call.
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = recording(monkeypatch)
        ref_explored, ref_last = reference_hill_climb(config, data)
        ref_seen, seen[:] = list(seen), []
        result = search.hill_climb_baseline(config, data)
    assert result.architectures_explored == ref_explored
    assert len(seen) == len(ref_seen) == cycles
    for (spec, params, _), (ref_spec, ref_params, _) in zip(seen, ref_seen):
        assert spec == ref_spec and same_bits(params, ref_params)
    assert result.best_spec == ref_last.spec
    assert same_bits(result.best_params, ref_last.params)


@pytest.mark.parametrize("knob", KNOBS)
def test_children_take_the_configs_step(monkeypatch, knob):
    # Each child of one cycle, stacked with its same-spec siblings or not,
    # trains as the reference loop with the config's damping trains it
    # alone on its own stream and a fresh clock.
    config = sf.SearchConfig(mode="hillclimb", seed=0, n_neigh=5, n_steps=1.0,
                             epochs_neigh=2, hidden=(4,), s_x=32,
                             pretrain_epochs=1, final_budget=0, **knob)
    data = sf.make_blobs(200, seed=0)
    seen = recording(monkeypatch)
    scored = []
    evaluate = search.evaluate

    def recorded(spec, params, *args):
        scored.append((spec, np.array(params)))
        return evaluate(spec, params, *args)

    monkeypatch.setattr(search, "evaluate", recorded)
    search.hill_climb_baseline(config, data)
    [(_, _, graph)] = seen
    children = [graph.payload(g) for g in graph if g != graph.center]
    assert len({child.spec for child in children}) < len(children)
    # scored: the start network, then each child in graph order.
    trained = scored[1:1 + len(children)]
    for i, (child, (spec, got)) in enumerate(zip(children, trained, strict=True)):
        stream = sf.BatchStream(*data.split("train"), config.s_x,
                                _stream_seed(config.seed, 7, 1, 1 + i))
        clock = GlobalClock.for_search(config, stream.batches_per_epoch)
        want = reference_steps(child.spec, child.params, stream, clock,
                               config.epochs_neigh, config)
        assert spec == child.spec and same_bits(got, want)


@pytest.mark.parametrize("between_cycles", [False, True],
                         ids=["inside-cycle-2", "between-cycles"])
def test_capped_baseline_counts_trained_children_and_the_cap(monkeypatch, tmp_path,
                                                            blobs_small, between_cycles):
    # The fake clock reads the number of _fit calls so far, so a cap of c
    # fires before the (c+1)-th group of same-spec children: inside cycle 2
    # at its second group, or just as cycle 2 would begin, which it then
    # does not.
    fits = []
    fit = search._fit

    def counted(*args, **kw):
        fits.append(args[1].x.shape)
        return fit(*args, **kw)

    monkeypatch.setattr(search, "_fit", counted)
    monkeypatch.setattr(search, "time",
                        types.SimpleNamespace(perf_counter=lambda: float(len(fits))))
    seen = recording(monkeypatch)
    config = sf.SearchConfig(mode="hillclimb", seed=0, n_neigh=5, n_steps=3.0,
                             epochs_neigh=1, hidden=(4,), pretrain_epochs=0,
                             final_budget=0)

    def groups(graph):
        by_spec = {}
        for g in graph:
            if g != graph.center:
                by_spec.setdefault(graph.payload(g).spec, []).append(g)
        return list(by_spec.values())

    search.hill_climb_baseline(config, blobs_small)
    first, second = groups(seen[0][2]), groups(seen[1][2])
    assert len(second) >= 2
    seen.clear()
    fits.clear()
    cap = len(first) + (not between_cycles)
    result = search.hill_climb_baseline(config, blobs_small, out_dir=str(tmp_path),
                                        wallclock_cap=cap)
    assert len(fits) == cap and len(seen) == 1 + (not between_cycles)
    # The start, cycle 1's children and, inside cycle 2, its first group
    # and the child at which the cap fired.
    inside = 0 if between_cycles else len(second[0]) + 1
    assert result.architectures_explored == 1 + config.n_neigh + inside
    assert result.rounds == 1 and result.test_metrics == {}
    # Every drawn cycle leaves its records, a capped one included, and
    # best.json holds the incumbent the capped run returns.
    with open(tmp_path / "morphisms.jsonl") as fh:
        rounds = [json.loads(line)["round"] for line in fh]
    assert rounds == [r for r, (*_, graph) in enumerate(seen, start=1)
                      for _ in range(len(graph) - 1)]
    spec, flat = sf.load_checkpoint(str(tmp_path / "best.json"))
    assert spec == result.best_spec and same_bits(flat, result.best_params)


@pytest.mark.parametrize("mode", ["nasgd", "nasagd"])
def test_baseline_refuses_a_particle_mode_before_writing(mode, tmp_path, blobs_small):
    # The files a run writes follow config.mode: a particle config once ran
    # hill-climb cycles and left a metrics.csv holding only its header.
    out_dir = tmp_path / "run"
    config = sf.SearchConfig(mode=mode, seed=0, n_neigh=2, n_steps=1.0,
                             epochs_neigh=1, hidden=(4,), pretrain_epochs=0,
                             final_budget=0)
    with pytest.raises(ValueError, match=f"needs mode hillclimb, got '{mode}'$"):
        search.hill_climb_baseline(config, blobs_small, out_dir=str(out_dir))
    assert not out_dir.exists()


def test_baseline_scores_its_incumbent_once(monkeypatch, blobs_small):
    # The incumbent is scored when the search phase starts and its loss is
    # carried from the cycle that picked it: before final training, one
    # evaluate for the start network and one per child trained.
    calls, at_final = [], []
    evaluate, final_train = search.evaluate, search.final_train

    def counted(*args, **kw):
        calls.append(args[0])
        return evaluate(*args, **kw)

    def recorded(*args, **kw):
        at_final.append(len(calls))
        return final_train(*args, **kw)

    monkeypatch.setattr(search, "evaluate", counted)
    monkeypatch.setattr(search, "final_train", recorded)
    config = sf.SearchConfig(mode="hillclimb", seed=0, n_neigh=4, n_steps=3.0,
                             epochs_neigh=1, hidden=(4,), pretrain_epochs=0,
                             final_budget=2)
    result = search.hill_climb_baseline(config, blobs_small)
    assert result.rounds == 3
    assert result.architectures_explored == 1 + 3 * config.n_neigh
    assert at_final == [result.architectures_explored]
