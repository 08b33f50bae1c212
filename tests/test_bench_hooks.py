"""The names the benchmark's tracer and phase marks wrap must keep resolving.

bench/layers.py replaces functions on semiflow.search and semiflow.cli and
methods on a few classes; bench/probe.py wraps search.pretrain and
search.final_train. A rename or removal there would break `--trace 1` or
the phase split without failing anything else, so this imports the tracer
as the bench does (bench/ on the path, nothing installed) and looks each
name up. bench/test_micro.py, outside the tier-1 paths, calls the dynamics
and network kernels directly; it runs here once, untimed.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import semiflow.cli as cli
import semiflow.morphisms as morphisms
import semiflow.search as search
from semiflow.data import BatchStream, make_blobs
from semiflow.search import SearchConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    return layers


def test_micro_cases_pass():
    argv = [sys.executable, "-m", "pytest", "bench/test_micro.py", "-q",
            "-p", "no:cacheprovider", "--benchmark-disable"]
    proc = subprocess.run(argv, cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "8 passed" in proc.stdout, proc.stdout


def test_search_spans_resolve(layers):
    for attr in layers.SEARCH_SPANS:
        assert callable(getattr(search, attr)), attr


def test_cli_names_resolve(layers):
    for attr in (*layers.CONFIG_NAMES, "run_search"):
        assert callable(getattr(cli, attr)), attr


def test_class_spans_resolve(layers):
    for cls, attr, _name in layers.CLASS_SPANS:
        assert callable(getattr(cls, attr)), (cls.__name__, attr)


def test_patched_hooks_resolve():
    assert callable(morphisms.draw_morphism)
    assert callable(BatchStream.__post_init__)
    assert callable(search.GlobalClock.advance)


@pytest.mark.parametrize("mode", ["nasgd", "nasagd", "hillclimb"])
def test_phase_marks_reach_the_search(monkeypatch, tmp_path, mode):
    # probe.py marks the phases by replacing the module attributes and then
    # runs cli.main, so every search must call pretrain and final_train
    # through them, once each and in that order. layers.py counts rounds at
    # run_round and spans the baseline at hill_climb_baseline, so a particle
    # search enters run_round once per round and a hill-climb search enters
    # hill_climb_baseline once.
    calls = []
    for attr in ("pretrain", "final_train", "run_round", "hill_climb_baseline"):
        fn = getattr(search, attr)

        def marked(*args, _fn=fn, _attr=attr, **kwargs):
            calls.append(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(search, attr, marked)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data.kind": "blobs", "data.n": 300, "search.n_neigh": 2,
        "search.epochs_neigh": 1, "search.n_steps": 1.0, "search.n_particles": 10,
        "pretrain.epochs": 1, "final.budget": 1,
    }))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["search", "--config", str(config), "--mode", mode,
                         "--out", str(tmp_path / "run")])
    assert code == 0
    rounds = json.loads(out.getvalue())["rounds"]
    if mode == "hillclimb":
        assert calls == ["hill_climb_baseline", "pretrain", "final_train"]
    else:
        assert rounds >= 1
        assert calls == ["pretrain", *["run_round"] * rounds, "final_train"]


def test_child_steps_count_once_each(monkeypatch):
    # The tracer counts search.candidate_steps at search.train_step, and
    # objective.clip_gradient at search.clip_gradient. Hill-climb children of
    # one spec train as one stack, so each step of each same-spec group
    # calls each of them exactly once.
    calls = {"train_step": 0, "clip_gradient": 0}
    for attr in calls:
        fn = getattr(search, attr)

        def counted(*args, _fn=fn, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(search, attr, counted)
    graphs = []
    build = search.build_local_graph

    def recording_build(*args, **kw):
        graph, audit = build(*args, **kw)
        graphs.append(graph)
        return graph, audit

    monkeypatch.setattr(search, "build_local_graph", recording_build)
    config = SearchConfig(mode="hillclimb", n_steps=2.0, n_neigh=5, epochs_neigh=2,
                          pretrain_epochs=0, final_budget=0, hidden=(4,))
    data = make_blobs(200, seed=0)
    result = search.run_search(config, data)
    groups = sum(
        len({graph.payload(g).spec for g in graph if g != graph.center})
        for graph in graphs
    )
    children = result.architectures_explored - 1
    steps = groups * config.epochs_neigh * search.iters_per_epoch(data, config)
    assert children == 10 and 1 < groups < children and steps > 0
    assert calls == {"train_step": steps, "clip_gradient": steps}


@pytest.mark.parametrize("argv", [["search", "--mode", "nasgd"],
                                  ["search", "--mode", "hillclimb"],
                                  ["graph-dump"]],
                         ids=["nasgd", "hillclimb", "graph-dump"])
def test_local_graphs_reach_the_search_name(monkeypatch, tmp_path, argv):
    # The tracer times morphisms.build_local_graph by replacing it on
    # semiflow.search, so every local graph, a search round's, a hill-climb
    # cycle's or graph-dump's, must be drawn through that name: one call per
    # round or cycle, and one for graph-dump.
    calls = []
    build = search.build_local_graph

    def counted(*args, **kw):
        calls.append(1)
        return build(*args, **kw)

    monkeypatch.setattr(search, "build_local_graph", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data.kind": "blobs", "data.n": 300, "search.n_neigh": 2,
        "search.epochs_neigh": 1, "search.n_steps": 2.0, "search.n_particles": 10,
        "pretrain.epochs": 1, "final.budget": 1,
    }))
    if argv[0] == "search":
        argv = [*argv, "--out", str(tmp_path / "run")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--config", str(config)])
    assert code == 0
    report = json.loads(out.getvalue())
    assert len(calls) == report.get("rounds", 1) >= 1
