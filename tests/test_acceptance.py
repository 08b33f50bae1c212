"""Acceptance gate: one test per release criterion.

Each test line in `pytest -v` output is the pass/fail verdict for that
criterion. Rigs are frozen: seeds and tolerances here are load-bearing.
"""

import csv
import filecmp
import math
import time

import numpy as np
import pytest

import semiflow as sf
from semiflow.search import GlobalClock, dynamics_round


def l1(f, oracle):
    return sum(abs(f[g] - oracle[g]) for g in oracle)


def marginal(ens):
    total = sum(ens.counts.values())
    return {g: ens.counts[g] / total for g in ens.counts}


# ---------------------------------------------------------------- criterion 1

def random_net(rng, force_equal_pair=False):
    n_hidden = int(rng.integers(1, 4)) if not force_equal_pair else int(rng.integers(2, 4))
    hidden = [int(rng.choice([4, 8, 12])) for _ in range(n_hidden)]
    if force_equal_pair:
        w = int(rng.choice([4, 8, 12]))
        i, j = sorted(rng.choice(n_hidden, 2, replace=False))
        hidden[i] = hidden[j] = w
    spec = sf.NetSpec(2, 3, tuple(hidden))
    return spec, sf.init_params(spec, rng)


def test_criterion_01_positive_morphisms_preserve_function():
    t0 = time.time()
    worst = 0.0
    for kind in ("deepen", "widen", "add_skip"):
        rng = np.random.default_rng(300)
        for _ in range(100):
            spec, params = random_net(rng, force_equal_pair=(kind == "add_skip"))
            n = len(spec.hidden)
            if kind == "deepen":
                m = sf.deepen(spec, params, int(rng.integers(1, n + 1)))
            elif kind == "widen":
                m = sf.widen(spec, params, int(rng.integers(1, n + 1)),
                             int(rng.integers(1, 4)), rng)
            else:
                widths = spec.widths()
                pairs = [(a, b) for a in range(len(widths))
                         for b in range(a + 1, len(widths))
                         if widths[a] == widths[b]]
                src, dst = pairs[int(rng.integers(0, len(pairs)))]
                m = sf.add_skip(spec, params, src, dst)
            X = rng.normal(size=(64, 2))
            dev = float(np.max(np.abs(sf.forward(spec, params, X)
                                      - sf.forward(m.spec, m.params, X))))
            worst = max(worst, dev)
    assert worst <= 1e-6
    assert time.time() - t0 < 30


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_backprop_matches_finite_differences():
    t0 = time.time()
    worst = 0.0
    for seed in (4000, 4001, 4002, 4003, 4004):
        rng = np.random.default_rng(seed)
        n_hidden = int(rng.integers(1, 4))
        hidden = tuple(int(rng.choice([4, 6, 8])) for _ in range(n_hidden))
        skips = ()
        widths = [3] + list(hidden)
        pairs = [(a, b) for a in range(len(widths))
                 for b in range(a + 1, len(widths)) if widths[a] == widths[b]]
        if pairs and rng.uniform() < 0.5:
            skips = (pairs[int(rng.integers(0, len(pairs)))],)
        spec = sf.NetSpec(3, 4, hidden, skips=skips)
        params = sf.init_params(spec, rng)
        X = rng.normal(size=(16, 3))
        y = rng.integers(0, 4, 16)
        _, grad = sf.loss_and_grad(spec, params, X, y)
        h = 1e-5
        for idx in rng.choice(len(params), 20, replace=False):
            p = params.copy()
            p[idx] += h
            up = sf.loss_only(spec, p, X, y)
            p[idx] -= 2 * h
            dn = sf.loss_only(spec, p, X, y)
            fd = (up - dn) / (2 * h)
            rel = abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), 1e-8)
            worst = max(worst, rel)
    assert worst <= 1e-4
    assert time.time() - t0 < 60


# ---------------------------------------------------------------- criterion 3

def stationary_instances():
    rng = np.random.default_rng(7)
    out = []
    for inst in range(10):
        m = int(rng.integers(2, 7))
        vals = {j: float(rng.uniform(0, 1)) for j in range(m)}
        beta = (1.0, 1.5, 2.0)[inst % 3]
        out.append((m, vals, beta))
    return out


def test_criterion_03_long_run_marginal_matches_oracle():
    t0 = time.time()
    params_tau = 0.05
    for m, vals, beta in stationary_instances():
        g = sf.complete_graph([None] * m)
        oracle = sf.stationary_oracle(vals, beta)
        dyn = sf.DynamicsParams(kappa=1.0, beta=beta, rate_mode=sf.EXPECTED)
        ens = sf.seed_ensemble(g, 1000, ghosts=False)
        dist = None
        for it in range(60000):
            f = marginal(ens)
            laws = sf.mutation_rates_first(f, vals, g, dyn, params_tau)
            ens = sf.apply_mutation(ens, laws, None)
            if it % 200 == 199:
                dist = l1(marginal(ens), oracle)
                if dist < 5e-7:
                    break
        assert dist is not None and dist <= 1e-6

    for inst in range(10):
        rng_v = np.random.default_rng(500 + inst)
        m = int(rng_v.integers(2, 7))
        vals = {j: float(rng_v.uniform(0, 1)) for j in range(m)}
        beta = (1.0, 1.5, 2.0)[inst % 3]
        g = sf.complete_graph([None] * m)
        oracle = sf.stationary_oracle(vals, beta)
        dyn = sf.DynamicsParams(kappa=1.0, beta=beta)
        ens = sf.seed_ensemble(g, 10**4, ghosts=False)
        rng = np.random.default_rng(900 + inst)
        avg = {j: 0.0 for j in range(m)}
        for it in range(2500):
            f = marginal(ens)
            laws = sf.mutation_rates_first(f, vals, g, dyn, 0.05)
            ens = sf.apply_mutation(ens, laws, rng)
            if it >= 2000:
                f = marginal(ens)
                for j in f:
                    avg[j] += f[j] / 500
        assert l1(avg, oracle) <= 0.05
    assert time.time() - t0 < 120


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_sampled_flows_match_rates():
    t0 = time.time()
    checked = 0
    for i in range(20):
        rng_cfg = np.random.default_rng(6000 + i)
        m = int(rng_cfg.integers(3, 7))
        g = sf.complete_graph([None] * m)
        counts = {j: int(rng_cfg.integers(500, 4001)) for j in g}
        vals = {j: float(rng_cfg.uniform(0, 1)) for j in g}
        beta = (1.0, 1.5, 2.0)[i % 3]
        kappa = float(rng_cfg.uniform(0.5, 3.0))
        ens = sf.ParticleEnsemble(dict(counts))
        f = marginal(ens)
        laws = sf.mutation_rates_first(f, vals, g, sf.DynamicsParams(kappa=kappa, beta=beta), 0.05)
        res = sf.apply_mutation_with_flows(ens, laws, np.random.default_rng(7000 + i))
        for a in g:
            law = laws[a]
            for b, share in law.dest.items():
                p = law.move_prob * share
                if p == 0.0:
                    continue
                n = counts[a]
                observed = res.flows.get((a, b), 0)
                sigma = math.sqrt(n * p * (1 - p))
                assert abs(observed - n * p) <= 3 * sigma + 1e-9
                checked += 1
    assert checked >= 50
    assert time.time() - t0 < 60


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_expected_mode_energy_descends():
    t0 = time.time()
    for inst in range(10):
        rng = np.random.default_rng(100 + inst)
        g = sf.complete_graph([None] * 5)
        vals = {j: float(rng.uniform(0, 1)) for j in g}
        beta = (1.0, 1.5, 2.0)[inst % 3]
        counts = {j: float(rng.uniform(0.1, 1.0)) for j in g}
        ens = sf.ParticleEnsemble(counts)
        dyn = sf.DynamicsParams(kappa=1.0, beta=beta, rate_mode=sf.EXPECTED)
        prev = sf.energy(ens, vals, beta=beta)
        for _ in range(500):
            laws = sf.mutation_rates_first(marginal(ens), vals, g, dyn, 0.01)
            ens = sf.apply_mutation(ens, laws, None)
            cur = sf.energy(ens, vals, beta=beta)
            assert cur <= prev + 1e-9
            prev = cur
    assert time.time() - t0 < 60


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_mass_conserved_and_ghosts_never_starve():
    g = sf.star_graph(None, [None] * 8)
    ens = sf.seed_ensemble(g, 100)
    total = sum(ens.counts.values())
    rng = np.random.default_rng(11)
    dyn = sf.DynamicsParams(kappa=2.0, beta=1.0)
    vals = {j: float(rng.uniform(0, 1)) for j in g}
    for it in range(10**4):
        if it % 500 == 0:
            vals = {j: float(rng.uniform(0, 1)) for j in g}
        laws = sf.mutation_rates_first(marginal(ens), vals, g, dyn, 0.05)
        ens = sf.apply_mutation(ens, laws, rng)
        assert sum(ens.counts.values()) == total
        for j in range(1, 9):
            assert ens.counts[j] >= 1


# ---------------------------------------------------------------- criterion 7

def rigged_round(mode, seed, margin=1.0, n_particles=1000):
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
    return dynamics_round(g, obj, states, cfg, clock,
                          np.random.default_rng(seed))


def test_criterion_07_planted_child_is_adopted():
    for mode in ("nasgd", "nasagd"):
        hits = 0
        for seed in range(20):
            t0 = time.time()
            stats = rigged_round(mode, seed)
            assert time.time() - t0 < 10
            if stats.adopted == 3 and not stats.timed_out:
                assert stats.final_counts[3] >= 2 * stats.final_counts[0]
                hits += 1
        assert hits >= 19


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_damped_training_converges():
    target = np.array([3.0, -2.0])
    obj = sf.QuadraticObjective({0: target}, {0: 0.0})
    state = sf.NodeState(np.zeros(2), np.zeros(2))
    for _ in range(10**4):
        state = sf.train_step(state, obj.grad(state.x, 0), 0.01, gamma=1.0)
    assert float(np.linalg.norm(state.x - target)) <= 1e-3


# ---------------------------------------------------------------- criterion 9

def check_search_run(run):
    assert run["summary"]["test_accuracy"] >= 0.95
    assert run["summary"]["architectures_explored"] >= 10
    assert run["wallclock"] <= 600
    assert run["summary"]["wallclock_seconds"] <= 600


def test_criterion_09_desk_scale_search_both_modes(nasgd_spirals_cli,
                                                   nasagd_spirals_cli):
    check_search_run(nasgd_spirals_cli)
    check_search_run(nasagd_spirals_cli)


# ---------------------------------------------------------------- criterion 10

def test_criterion_10_explores_3x_more_than_hillclimb(exploration_runs):
    ours = sum(res.architectures_explored for res, _ in exploration_runs)
    theirs = sum(hc.architectures_explored for _, hc in exploration_runs)
    assert ours >= 3 * theirs


# ---------------------------------------------------------------- criterion 11

def test_criterion_11_schedule_identities(nasgd_spirals_cli, spirals):
    assert sf.cosine_lr(0.0, 18.0, 0.05, 1e-7) == 0.05
    assert sf.cosine_lr(18.0, 18.0, 0.05, 1e-7) == 1e-7

    ipe = len(spirals.train_idx) // 64
    rows = list(csv.DictReader(open(nasgd_spirals_cli["out"] + "/metrics.csv")))
    assert rows
    mismatches = 0
    for row in rows:
        k = int(row["iter"])
        expected = sf.cosine_lr(math.fmod(k / ipe, 18.0), 18.0, 0.05, 1e-7)
        if float(row["tau_k"]) != expected:
            mismatches += 1
    assert mismatches == 0
    # several rounds share one contiguous clock: a reset at a round boundary
    # would break either the iter chain or the global formula above
    spans = {}
    for row in rows:
        r, k = int(row["round"]), int(row["iter"])
        lo, hi = spans.get(r, (k, k))
        spans[r] = (min(lo, k), max(hi, k))
    rounds = sorted(spans)
    assert len(rounds) >= 2
    for a, b in zip(rounds, rounds[1:]):
        assert spans[b][0] == spans[a][1] + 1


# ---------------------------------------------------------------- criterion 12

def test_criterion_12_identical_runs_byte_identical(tmp_path):
    data = sf.make_blobs(600, seed=3)

    def run(out):
        cfg = sf.SearchConfig(mode="nasgd", seed=5, epochs_neigh=4,
                              n_particles=50, pretrain_epochs=4,
                              final_budget=20)
        sf.run_search(cfg, data, out_dir=str(out))

    run(tmp_path / "a")
    run(tmp_path / "b")
    assert filecmp.cmp(str(tmp_path / "a" / "metrics.csv"),
                       str(tmp_path / "b" / "metrics.csv"), shallow=False)
    assert filecmp.cmp(str(tmp_path / "a" / "best.json"),
                       str(tmp_path / "b" / "best.json"), shallow=False)
