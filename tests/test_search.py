"""Outer-loop behavior: rounds, budgets, baselines, final training."""

import math
import time
import types

import numpy as np
import pytest

import semiflow as sf
from conftest import search_clock
from semiflow import search
from semiflow.errors import RoundTimeout
from semiflow.search import DEFAULT_N_STEPS, GlobalClock, dynamics_round


def small_config(**kw):
    base = dict(mode="nasgd", seed=0, epochs_neigh=2, n_particles=20,
                n_steps=0.4, pretrain_epochs=2, final_budget=5, hidden=(8, 8))
    base.update(kw)
    return sf.SearchConfig(**base)


def incumbent_for(data, config):
    spec = sf.NetSpec(data.features.shape[1], data.n_classes, config.hidden)
    params = sf.init_params(spec, np.random.default_rng(0))
    return sf.Candidate(spec=spec, params=params)


# ---------------------------------------------------------------- global clock

@pytest.mark.parametrize("ipe, period, lam_start, lam_final", [
    pytest.param(4, 6, 0.05, 1e-7, id="search"),
    # pretrain's one arc: 20 epochs, 0.5 -> 1e-7, 21 batches per spirals epoch
    pytest.param(21, 20, 0.5, 1e-7, id="pretrain"),
    # a hill-climb child: one epochs_neigh cycle on a fresh clock
    pytest.param(21, 18, 0.05, 1e-7, id="hillclimb-child"),
])
def test_clock_matches_cosine_schedule(ipe, period, lam_start, lam_final):
    # The first cycle of the clock is one plain cosine arc, which is what
    # lets pretraining, child training and final training share one loop.
    clock = GlobalClock(ipe, period, lam_start, lam_final)
    for k in range(period * ipe):
        assert clock.tau() == sf.cosine_lr(k / ipe, period, lam_start, lam_final)
        clock.advance()
    for k in range(period * ipe, 2 * period * ipe + ipe):
        t = math.fmod(k / ipe, period)
        assert clock.tau() == sf.cosine_lr(t, period, lam_start, lam_final)
        clock.advance()


def test_clock_is_not_reset_between_cycles():
    # tick straight through a cycle boundary: value jumps back to the top
    # of the cosine but k keeps counting
    clock = GlobalClock(2, 1, 0.1, 0.0)
    vals = []
    for _ in range(5):
        vals.append(clock.tau())
        clock.advance()
    assert clock.k == 5
    assert vals[0] == 0.1
    assert vals[2] == 0.1
    assert vals[1] < vals[0]


# ---------------------------------------------------------------- config rules

def test_default_step_budgets_per_mode():
    assert DEFAULT_N_STEPS == {"nasgd": 0.89, "nasagd": 2.54, "hillclimb": 5.0}
    assert sf.SearchConfig(mode="nasgd").n_steps == 0.89
    assert sf.SearchConfig(mode="nasagd").n_steps == 2.54
    assert sf.SearchConfig(mode="hillclimb").n_steps == 5.0


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        sf.SearchConfig(mode="warp")
    with pytest.raises(ValueError):
        sf.SearchConfig(n_steps=0.0)
    with pytest.raises(ValueError):
        sf.SearchConfig(n_particles=0)
    with pytest.raises(ValueError):
        sf.SearchConfig(lam_start=1e-9, lam_final=0.05)


def test_dynamics_params_derived_from_mode():
    assert sf.SearchConfig(mode="nasgd").dynamics().mode == sf.FIRST_ORDER
    assert sf.SearchConfig(mode="nasagd").dynamics().mode == sf.SECOND_ORDER
    assert sf.SearchConfig(mode="hillclimb").dynamics().mode == sf.FIRST_ORDER


# ---------------------------------------------------------------- pretraining

def test_pretrain_reduces_loss(blobs_small):
    spec = sf.NetSpec(2, 4, (8, 8))
    params = sf.init_params(spec, np.random.default_rng(1))
    X, y = blobs_small.split("train")
    before = sf.loss_only(spec, params, X, y)
    out = sf.pretrain(spec, blobs_small, sf.SearchConfig(pretrain_epochs=5),
                      params.copy())
    assert sf.loss_only(spec, out, X, y) < before


def test_pretrain_zero_epochs_noop(blobs_small):
    spec = sf.NetSpec(2, 4, (8,))
    params = sf.init_params(spec, np.random.default_rng(3))
    out = sf.pretrain(spec, blobs_small, sf.SearchConfig(pretrain_epochs=0),
                      params.copy())
    assert np.array_equal(out, params)


def test_pretrain_deterministic(blobs_small):
    spec = sf.NetSpec(2, 4, (8,))
    params = sf.init_params(spec, np.random.default_rng(5))

    def run():
        return sf.pretrain(spec, blobs_small, sf.SearchConfig(pretrain_epochs=3),
                           params.copy())

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------- single rounds

def test_round_times_out_without_signal(blobs_small):
    # near-zero mobility: nobody can reach the doubling bar
    cfg = small_config(kappa=1e-9)
    cand = incumbent_for(blobs_small, cfg)
    ipe = sf.iters_per_epoch(blobs_small, cfg)
    new_cand, stats, audit = sf.run_round(cand, cfg, blobs_small,
                                          search_clock(blobs_small, cfg))
    assert stats.timed_out
    assert stats.iterations == int(cfg.round_timeout_factor * cfg.epochs_neigh * ipe)


def test_round_timeout_raises_when_asked(blobs_small):
    cfg = small_config(kappa=1e-9, strict=True)
    cand = incumbent_for(blobs_small, cfg)
    with pytest.raises(RoundTimeout):
        sf.run_round(cand, cfg, blobs_small, search_clock(blobs_small, cfg))


def test_round_budget_exhaustion(blobs_small):
    cfg = small_config(kappa=1e-9)
    cand = incumbent_for(blobs_small, cfg)
    new_cand, stats, audit = sf.run_round(cand, cfg, blobs_small,
                                          search_clock(blobs_small, cfg), budget_iters=5)
    assert stats.stop == "budget"
    assert stats.iterations == 5


def test_round_initializes_phi_to_zero(blobs_small):
    # second-order round on a graph with no usable signal: with phi starting
    # at zero and kappa zero, no mutation can fire on the first iteration
    cfg = small_config(mode="nasagd", kappa=1e-12, n_steps=2.54)
    cand = incumbent_for(blobs_small, cfg)
    new_cand, stats, audit = sf.run_round(cand, cfg, blobs_small,
                                          search_clock(blobs_small, cfg), budget_iters=3)
    assert stats.movers == 0


@pytest.mark.parametrize("mode", ["nasgd", "nasagd"])
def test_round_never_builds_a_per_node_law(monkeypatch, blobs_small, mode):
    # The mutation step draws from the rate matrix; laws[g] builds a dict.
    def no_dict(self, g):
        raise AssertionError(f"MoveLaw of node {g} built on the search path")

    monkeypatch.setattr(sf.MoveLaws, "__getitem__", no_dict)
    cfg = small_config(mode=mode)
    new_cand, stats, audit = sf.run_round(incumbent_for(blobs_small, cfg), cfg,
                                          blobs_small, search_clock(blobs_small, cfg),
                                          budget_iters=20)
    assert stats.movers > 0


# ---------------------------------------------------------------- particle step

SECOND = sf.DynamicsParams(mode=sf.SECOND_ORDER, rate_mode=sf.EXPECTED)


def second_order_step(phi, values):
    graph = sf.star_graph(None, [None])
    ensemble = sf.seed_ensemble(graph, 10)
    return search.particle_step(ensemble, phi, values, graph, SECOND, 0.05, None), graph


def test_particle_step_resets_a_blown_up_potential():
    phi, values = {0: -1e200, 1: 1e200}, {0: 0.0, 1: 0.0}
    step, graph = second_order_step(phi, values)
    # The squared outflow of the 2e200 gap overflows in update_potential.
    with pytest.raises(sf.NonFiniteValue):
        sf.update_potential(phi, step.ensemble, values, graph, SECOND, 0.05)
    assert step.reset
    assert step.phi == {0: 0.0, 1: 0.0}


def test_particle_step_resets_when_the_restart_fires():
    # phi draws mass from node 0 toward node 1, whose loss is higher.
    phi, values = {0: 0.0, 1: 1.0}, {0: 0.0, 1: 1.0}
    step, graph = second_order_step(phi, values)
    assert sf.restart_check(
        sf.update_potential(phi, step.ensemble, values, graph, SECOND, 0.05),
        values, graph, step.ensemble.marginal())
    assert step.reset
    assert step.phi == {0: 0.0, 1: 0.0}


def test_quiet_particle_step_keeps_the_updated_potential():
    phi, values = {0: 0.0, 1: 0.5}, {0: 1.0, 1: 0.0}
    step, graph = second_order_step(phi, values)
    assert not step.reset
    assert step.phi == sf.update_potential(phi, step.ensemble, values, graph, SECOND, 0.05)
    assert step.phi != {0: 0.0, 1: 0.0}


@pytest.mark.parametrize("rate_mode", [sf.EXPECTED, sf.SAMPLED])
@pytest.mark.parametrize("mode", [sf.FIRST_ORDER, sf.SECOND_ORDER])
def test_particle_step_scalars_are_floats_in_both_rate_modes(mode, rate_mode):
    # Expected moves are computed from numpy weights; every amount they feed
    # downstream must still be a plain float, as in sampled mode.
    graph = sf.complete_graph([None] * 5)
    dyn = sf.DynamicsParams(mode=mode, rate_mode=rate_mode)
    values = {g: 1.0 - 0.2 * g for g in graph}
    ensemble = sf.seed_ensemble(graph, 100, ghosts=False)
    phi = {g: 0.0 for g in graph}
    rng = np.random.default_rng(0)
    moved = False
    for _ in range(5):
        step = search.particle_step(ensemble, phi, values, graph, dyn, 0.05, rng)
        ensemble, phi = step.ensemble, step.phi
        moved = moved or bool(step.flows)
        scalars = [*ensemble.counts.values(), *step.flows.values(),
                   *step.out_flow.values(), *phi.values(), step.energy]
        assert [type(v) for v in scalars] == [float] * len(scalars)
    assert moved


# ---------------------------------------------------------------- rigged rounds

def rigged_round(mode, seed, margin=1.0, n_particles=1000):
    """Star graph with one planted low-loss child among noisy siblings."""
    g = sf.star_graph(None, [None] * 8)
    rng0 = np.random.default_rng(1000 + seed)
    offs = {}
    for i in g:
        if i == 0:
            offs[i] = 0.0
        elif i == 3:
            offs[i] = -margin
        else:
            offs[i] = float(rng0.normal(0.0, margin / 10))
    obj = sf.QuadraticObjective({i: np.zeros(2) for i in g}, offs)
    states = {i: sf.NodeState(np.zeros(2), np.zeros(2)) for i in g}
    cfg = sf.SearchConfig(mode=mode, seed=seed, epochs_neigh=6,
                          n_particles=n_particles)
    clock = GlobalClock(4, 6, 0.05, 1e-7)
    stats = dynamics_round(g, obj, states, cfg, clock,
                           np.random.default_rng(seed))
    return stats, offs


def test_rigged_round_adopts_planted_child():
    stats, _ = rigged_round("nasgd", 0)
    assert stats.adopted == 3
    assert not stats.timed_out
    assert stats.final_counts[3] >= 2 * stats.final_counts[0]


def test_rigged_round_loss_never_worse_than_incumbent():
    wins = 0
    for seed in range(20):
        stats, offs = rigged_round("nasgd", seed)
        if offs[stats.adopted] <= offs[0]:
            wins += 1
    assert wins >= 18


def test_identical_scores_time_out():
    g = sf.star_graph(None, [None] * 4)
    obj = sf.QuadraticObjective({i: np.zeros(2) for i in g},
                                {i: 1.0 for i in g})
    states = {i: sf.NodeState(np.zeros(2), np.zeros(2)) for i in g}
    cfg = sf.SearchConfig(mode="nasgd", seed=0, epochs_neigh=2, n_particles=50,
                          strict=True)
    clock = GlobalClock(4, 2, 0.05, 1e-7)
    with pytest.raises(RoundTimeout):
        dynamics_round(g, obj, states, cfg, clock, np.random.default_rng(0))


# ---------------------------------------------------------------- full searches

def test_size_threshold_skips_search(blobs_small):
    cfg = small_config(size_threshold=1)
    res = sf.run_search(cfg, blobs_small)
    assert res.rounds == 0
    assert res.architectures_explored == 1


def test_explored_matches_audit_log(tmp_path, blobs_small):
    cfg = small_config()
    res = sf.run_search(cfg, blobs_small, out_dir=str(tmp_path))
    with open(tmp_path / "morphisms.jsonl") as fh:
        lines = sum(1 for line in fh if line.strip())
    assert res.architectures_explored == lines + 1


def test_search_deterministic(blobs_small):
    cfg = small_config()
    a = sf.run_search(cfg, blobs_small)
    b = sf.run_search(cfg, blobs_small)
    assert a.architectures_explored == b.architectures_explored
    assert a.rounds == b.rounds
    assert a.test_metrics == b.test_metrics
    assert np.array_equal(a.best_params, b.best_params)


def test_hillclimb_round_count(blobs_small):
    cfg = small_config(mode="hillclimb", n_steps=3.0, n_neigh=4)
    res = sf.hill_climb_baseline(cfg, blobs_small)
    assert res.rounds == 3
    assert res.architectures_explored == 3 * 4 + 1


@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan])
def test_hillclimb_respects_wallclock_cap(blobs_small, cap):
    # A cycle begins only while the clock reads below the deadline, which
    # a NaN deadline never is.
    cfg = small_config(mode="hillclimb", n_steps=50.0, n_neigh=4)
    res = sf.hill_climb_baseline(cfg, blobs_small, wallclock_cap=cap)
    assert res.rounds == 0
    assert res.architectures_explored == 1
    assert res.test_metrics == {}


@pytest.mark.parametrize("mode, capped", [
    ("nasgd", False), ("nasagd", False), ("hillclimb", False), ("hillclimb", True),
], ids=["nasgd", "nasagd", "hillclimb", "hillclimb-capped"])
def test_search_counts_are_sums_over_round_records(monkeypatch, blobs_small, mode, capped):
    # _run takes every count from the RoundStats its mode yields. A particle
    # round explores its audit's children; a cycle, the children it trained
    # and, when the deadline cut it, the one at which the cap fired.
    records, trained = [], []
    for name in ("_particle_rounds", "_hill_climb_cycles"):
        def recorded(*args, _rounds=getattr(search, name), **kw):
            for incumbent, audit, stats in _rounds(*args, **kw):
                records.append((audit, stats))
                yield incumbent, audit, stats

        monkeypatch.setattr(search, name, recorded)
    train_fresh = search._train_fresh

    def counted(*args, **kw):
        nets = train_fresh(*args, **kw)
        trained.append(len(nets))
        return nets

    monkeypatch.setattr(search, "_train_fresh", counted)
    cfg = small_config(mode=mode, n_neigh=5, n_steps=2.0, round_timeout_factor=1.0,
                       pretrain_epochs=0, final_budget=0, hidden=(4,), epochs_neigh=1)
    if capped:
        # The clock reads the groups trained so far: cycle 2 trains its first
        # group of same-spec children, and the cap fires at its second.
        fits, fit = [], search._fit
        monkeypatch.setattr(search, "_fit", lambda *a, **kw: fits.append(a) or fit(*a, **kw))
        monkeypatch.setattr(search, "time",
                            types.SimpleNamespace(perf_counter=lambda: float(len(fits))))
        spec, params = search.start_network(cfg, blobs_small)
        graph, _ = search.local_graph(cfg, 1, spec, params)
        cap = len({graph.payload(g).spec for g in graph if g != graph.center}) + 1
        result = sf.hill_climb_baseline(cfg, blobs_small, wallclock_cap=cap)
        assert [stats.stop for _, stats in records] == ["cycle", "cap"]
    else:
        result = sf.run_search(cfg, blobs_small)
    rounds = [stats for _, stats in records]
    assert result.rounds == sum(stats.stop != "cap" for stats in rounds) >= 1
    assert result.architectures_explored == 1 + sum(stats.explored for stats in rounds)
    assert result.timed_out_rounds == sum(stats.timed_out for stats in rounds)
    if mode != "hillclimb":
        assert {stats.stop for stats in rounds} <= {"doubling", "timeout", "budget"}
        assert all(stats.explored == len(audit) for audit, stats in records)
        return
    assert len(trained) == len(rounds)
    for (audit, stats), n in zip(records, trained):
        if stats.stop == "cap":
            assert n < len(audit) and stats.explored == n + 1
        else:
            assert stats.stop == "cycle" and stats.explored == n == len(audit)


def test_hillclimb_cap_starts_after_pretraining(monkeypatch, blobs_small):
    # The cap bounds the search phase, which search_wallclock measures from
    # the end of pretraining: a cap shorter than pretraining still leaves
    # the baseline its search time.
    pretrain, fit = search.pretrain, search._fit

    def slow_pretrain(*args, **kw):
        time.sleep(0.5)
        return pretrain(*args, **kw)

    labels = []

    def counted_fit(*args, **kw):
        labels.append(args[6])
        return fit(*args, **kw)

    monkeypatch.setattr(search, "pretrain", slow_pretrain)
    monkeypatch.setattr(search, "_fit", counted_fit)
    cfg = small_config(mode="hillclimb", n_steps=50.0, n_neigh=4)
    res = sf.hill_climb_baseline(cfg, blobs_small, wallclock_cap=0.4)
    assert "baseline training" in labels
    assert res.architectures_explored > 1
    assert res.search_wallclock < res.wallclock - 0.5


@pytest.mark.parametrize("mode", ["nasgd", "nasagd", "hillclimb"])
def test_each_phase_runs_once_per_search(monkeypatch, blobs_small, mode):
    # Wrapping these two module names is how a search's phases get timed
    # from outside, so every search must enter each exactly once.
    calls = {"pretrain": 0, "final_train": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(search, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(search, name, counted)
    sf.run_search(small_config(mode=mode, n_neigh=4), blobs_small)
    assert calls == {"pretrain": 1, "final_train": 1}


# ---------------------------------------------------------------- final training

def test_final_train_zero_budget(blobs_small):
    spec = sf.NetSpec(2, 4, (8, 8))
    params = sf.init_params(spec, np.random.default_rng(7))
    cfg = sf.SearchConfig(final_budget=0)
    out, metrics = sf.final_train(spec, params, blobs_small, cfg,
                                  search_clock(blobs_small, cfg))
    assert np.array_equal(out, params)
    assert {"val_loss", "val_accuracy", "test_loss", "test_accuracy"} <= set(metrics)
    assert metrics["epochs"] == 0.0 and metrics["final_stop"] == "budget"


@pytest.mark.parametrize("budget", [0, 3])
def test_final_train_saves_what_it_returns(tmp_path, blobs_small, budget):
    # final_train writes the last best.json of a search: on every return,
    # the zero-budget one included, the checkpoint holds what it returns.
    spec = sf.NetSpec(2, 4, (8, 8))
    params = sf.init_params(spec, np.random.default_rng(7))
    path = str(tmp_path / "best.json")
    cfg = small_config(epochs_neigh=1, final_budget=budget)
    out, _ = sf.final_train(spec, params, blobs_small, cfg,
                            search_clock(blobs_small, cfg), checkpoint_path=path)
    saved_spec, saved = sf.load_checkpoint(path)
    assert saved_spec == spec and np.array_equal(saved, out)


def test_final_train_plateau_stops_early(blobs_small):
    cfg = small_config(epochs_neigh=1, plateau_cycles=3, final_budget=100)
    spec = sf.NetSpec(2, 4, (8, 8))
    params = sf.init_params(spec, np.random.default_rng(8))
    trained, m1 = sf.final_train(spec, params, blobs_small, cfg,
                                 search_clock(blobs_small, cfg))
    again, m2 = sf.final_train(spec, trained, blobs_small, cfg,
                               search_clock(blobs_small, cfg))
    # a converged start should exit on the plateau rule, well inside budget
    assert m2["epochs"] < 100


def test_final_train_improves_accuracy(blobs_small):
    spec = sf.NetSpec(2, 4, (8, 8))
    params = sf.init_params(spec, np.random.default_rng(9))
    X, y = blobs_small.split("test")
    _, acc0 = sf.evaluate(spec, params, X, y)
    cfg = sf.SearchConfig(final_budget=30)
    out, metrics = sf.final_train(spec, params, blobs_small, cfg,
                                  search_clock(blobs_small, cfg))
    assert metrics["test_accuracy"] > acc0
