"""Hand-checked values for the particle dynamics primitives."""

import math

import numpy as np
import pytest

import semiflow as sf
from semiflow.errors import (
    DimensionMismatch,
    NonFiniteGradient,
    NonFiniteValue,
    OutOfPeriod,
)


def two_node_graph():
    return sf.star_graph(None, [None])


# ---------------------------------------------------------------- train step

def test_train_step_basic():
    st = sf.NodeState(np.array([0.0]), np.array([0.0]))
    out = sf.train_step(st, np.array([1.0]), 0.1)
    assert np.allclose(out.x, [0.0])
    assert np.allclose(out.v, [-0.1])


def test_train_step_fixed_point():
    st = sf.NodeState(np.array([1.0, 2.0]), np.zeros(2))
    out = sf.train_step(st, np.zeros(2), 0.1)
    assert np.array_equal(out.x, st.x)
    assert np.array_equal(out.v, st.v)


def test_train_step_coasting():
    st = sf.NodeState(np.array([1.0]), np.array([2.0]))
    out = sf.train_step(st, np.array([0.0]), 0.5)
    assert np.allclose(out.x, [2.0])
    assert np.allclose(out.v, [1.0])


def test_train_step_dimension_mismatch():
    st = sf.NodeState(np.zeros(2), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        sf.train_step(st, np.zeros(3), 0.1)


def test_train_step_nonfinite_gradient():
    st = sf.NodeState(np.zeros(1), np.zeros(1))
    with pytest.raises(NonFiniteGradient):
        sf.train_step(st, np.array([np.nan]), 0.1)


# ---------------------------------------------------------------- first-order rates

def test_first_order_rates_two_nodes():
    g = two_node_graph()
    f = {0: 0.5, 1: 0.5}
    vals = {0: 1.0, 1: 0.2}
    params = sf.DynamicsParams(kappa=1.0, beta=1.0)
    laws = sf.mutation_rates_first(f, vals, g, params, 0.1)
    assert laws[0].move_prob == pytest.approx(0.08)
    assert laws[0].dest == {1: 1.0}
    assert laws[1].move_prob == 0.0


def test_equal_scores_give_zero_rates():
    g = sf.complete_graph([None] * 4)
    f = {i: 0.25 for i in g}
    vals = {i: 0.7 for i in g}
    laws = sf.mutation_rates_first(f, vals, g, sf.DynamicsParams(), 0.1)
    assert all(law.move_prob == 0.0 for law in laws.values())


def test_move_prob_clipped_at_one():
    g = two_node_graph()
    f = {0: 0.5, 1: 0.5}
    vals = {0: 25.0, 1: 0.0}
    laws = sf.mutation_rates_first(f, vals, g, sf.DynamicsParams(kappa=1.0, beta=1.0), 0.1)
    assert laws[0].move_prob == 1.0


def test_rates_are_one_sided():
    # at most one direction active per edge
    rng = np.random.default_rng(5)
    g = sf.complete_graph([None] * 5)
    f = {i: 0.2 for i in g}
    for _ in range(20):
        vals = {i: float(rng.uniform(0, 1)) for i in g}
        laws = sf.mutation_rates_first(f, vals, g, sf.DynamicsParams(), 0.1)
        for a in g:
            for b in g.neighbors(a):
                fwd = laws[a].move_prob > 0 and laws[a].dest.get(b, 0.0) > 0
                bwd = laws[b].move_prob > 0 and laws[b].dest.get(a, 0.0) > 0
                assert not (fwd and bwd)


def test_dest_distribution_normalized():
    rng = np.random.default_rng(9)
    g = sf.complete_graph([None] * 6)
    f = {i: 1 / 6 for i in g}
    vals = {i: float(rng.uniform(0, 1)) for i in g}
    laws = sf.mutation_rates_first(f, vals, g, sf.DynamicsParams(beta=1.5), 0.05)
    for law in laws.values():
        if law.move_prob > 0:
            assert sum(law.dest.values()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- second-order rates

def test_second_order_rates_two_nodes():
    g = two_node_graph()
    phi = {0: 0.0, 1: -3.0}
    laws = sf.mutation_rates_second(phi, g, sf.DynamicsParams(kappa=1.0), 0.1)
    assert laws[0].move_prob == 0.0
    assert laws[1].move_prob == pytest.approx(0.3)
    assert laws[1].dest == {0: 1.0}


def test_second_order_constant_phi():
    g = sf.complete_graph([None] * 3)
    phi = {i: -1.7 for i in g}
    laws = sf.mutation_rates_second(phi, g, sf.DynamicsParams(), 0.1)
    assert all(law.move_prob == 0.0 for law in laws.values())


def test_second_order_clipped():
    g = two_node_graph()
    phi = {0: 0.0, 1: -1000.0}
    laws = sf.mutation_rates_second(phi, g, sf.DynamicsParams(kappa=1.0), 0.1)
    assert laws[1].move_prob == 1.0


def uniform(graph):
    return {g: 1.0 / len(graph) for g in graph}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rates", [
    lambda: sf.mutation_rates_second({0: -1e308, 1: 1e308}, two_node_graph(),
                                     sf.DynamicsParams(), 0.05),
    lambda: sf.mutation_rates_first(uniform(two_node_graph()), {0: 1e308, 1: -1e308},
                                    two_node_graph(), sf.DynamicsParams(), 0.05),
    # Each rate is finite; their sum is not.
    lambda: sf.mutation_rates_first(
        uniform(sf.complete_graph([None] * 3)), {0: 1.7e308, 1: 0.0, 2: 0.0},
        sf.complete_graph([None] * 3), sf.DynamicsParams(), 0.05),
], ids=["second-order-gap", "first-order-gap", "first-order-sum"])
def test_an_infinite_rate_row_raises(rates):
    # Such a row once moved nothing in expected mode, though its move
    # probability is 1, and failed numpy's multinomial in sampled mode.
    with pytest.raises(NonFiniteValue, match="^move rates at node 0 total inf$") as err:
        rates()
    assert err.value.node == 0


# ---------------------------------------------------------------- mutation application

def test_apply_mutation_no_rates_noop():
    g = sf.star_graph(None, [None] * 3)
    ens = sf.seed_ensemble(g, 50)
    laws = sf.MoveLaws(np.zeros((len(g), len(g))), 1.0)
    out = sf.apply_mutation(ens, laws, np.random.default_rng(0))
    assert out.counts == ens.counts


def test_apply_mutation_binomial_consistency():
    g = two_node_graph()
    ens = sf.ParticleEnsemble({0: 10**4, 1: 0})
    laws = sf.MoveLaws([[0.0, 1.0], [0.0, 0.0]], 0.08)
    out = sf.apply_mutation(ens, laws, np.random.default_rng(3))
    moved = out.counts[1]
    sigma = math.sqrt(10**4 * 0.08 * 0.92)
    assert abs(moved - 800) <= 3 * sigma


def test_ghost_never_moves():
    g = two_node_graph()
    ens = sf.ParticleEnsemble({0: 5, 1: 1}, ghost={1: 1})
    laws = sf.MoveLaws([[0.0, 0.0], [1.0, 0.0]], 1.0)
    out = sf.apply_mutation(ens, laws, np.random.default_rng(0))
    assert out.counts[1] >= 1


def test_mass_conserved_sampled():
    g = sf.complete_graph([None] * 4)
    ens = sf.seed_ensemble(g, 200)
    total = sum(ens.counts.values())
    rng = np.random.default_rng(8)
    vals = {i: float(rng.uniform(0, 1)) for i in g}
    f = {i: ens.counts[i] / total for i in g}
    for _ in range(50):
        laws = sf.mutation_rates_first(f, vals, g, sf.DynamicsParams(kappa=2.0), 0.1)
        ens = sf.apply_mutation(ens, laws, rng)
        assert sum(ens.counts.values()) == total
        f = {i: ens.counts[i] / total for i in g}


def test_expected_mode_fractional_and_conserved():
    g = two_node_graph()
    ens = sf.ParticleEnsemble({0: 10, 1: 0})
    laws = sf.MoveLaws([[0.0, 1.0], [0.0, 0.0]], 0.25)
    out = sf.apply_mutation(ens, laws, None)
    assert out.counts[0] == pytest.approx(7.5)
    assert out.counts[1] == pytest.approx(2.5)
    assert sum(out.counts.values()) == pytest.approx(10.0)


def test_mutation_flows_reported():
    g = two_node_graph()
    ens = sf.ParticleEnsemble({0: 100, 1: 0})
    laws = sf.MoveLaws([[0.0, 1.0], [0.0, 0.0]], 1.0)
    res = sf.apply_mutation_with_flows(ens, laws, np.random.default_rng(1))
    assert res.flows[(0, 1)] == 100
    assert res.ensemble.counts[1] == 100


def test_ghost_floor_is_invariant():
    with pytest.raises(ValueError):
        sf.ParticleEnsemble({0: 5, 1: 0}, ghost={1: 1})


def test_seed_ensemble_layout():
    g = sf.star_graph(None, [None] * 4)
    ens = sf.seed_ensemble(g, 100)
    assert ens.counts[0] == 100
    assert all(ens.counts[i] == 1 for i in range(1, 5))
    assert all(ens.ghost[i] == 1 for i in range(1, 5))
    free = sf.seed_ensemble(g, 100, ghosts=False)
    assert all(free.ghost[i] == 0 for i in range(1, 5))


# ---------------------------------------------------------------- potential

def test_update_potential_symmetric_case():
    g = sf.complete_graph([None] * 3)
    ens = sf.ParticleEnsemble({0: 1, 1: 1, 2: 1})
    phi = {i: 0.0 for i in g}
    # f uniform, constant values: score c = (1/3)^1 + 0.8 everywhere
    vals = {i: 0.8 for i in g}
    out = sf.update_potential(phi, ens, vals, g, sf.DynamicsParams(beta=1.0), 0.1)
    c = (1 / 3) + 0.8
    for i in g:
        assert out[i] == pytest.approx(-0.1 * c)


def test_update_potential_two_nodes():
    g = two_node_graph()
    ens = sf.ParticleEnsemble({0: 9, 1: 1})
    phi = {0: 0.0, 1: 0.0}
    vals = {0: 2.0, 1: 1.0}
    out = sf.update_potential(phi, ens, vals, g, sf.DynamicsParams(beta=1.0), 0.1)
    assert out[0] == pytest.approx(-0.29)
    assert out[1] == pytest.approx(-0.11)


# ---------------------------------------------------------------- restart rule

def test_restart_false_on_uniform_phi():
    g = two_node_graph()
    assert not sf.restart_check({0: 1.0, 1: 1.0}, {0: 5.0, 1: 0.0}, g, {0: 0.5, 1: 0.5})


def test_restart_false_when_flow_decreases_loss():
    g = two_node_graph()
    # flow goes 0 -> 1 (phi(1) higher); node 1 has the lower loss
    phi = {0: 0.0, 1: 2.0}
    vals = {0: 1.0, 1: 0.2}
    assert not sf.restart_check(phi, vals, g, {0: 0.5, 1: 0.5})


def test_restart_true_when_flow_increases_loss():
    g = two_node_graph()
    phi = {0: 0.0, 1: 2.0}
    vals = {0: 0.2, 1: 1.0}
    assert sf.restart_check(phi, vals, g, {0: 0.5, 1: 0.5})


def test_restart_false_when_signed_drift_nets_negative():
    # mixed flow: one pair raises loss a little, another lowers it a lot,
    # so the signed drift nets negative and no restart fires
    g = sf.star_graph(None, [None, None])
    phi = {0: 0.0, 1: 2.0, 2: 2.0}
    vals = {0: 1.0, 1: 1.1, 2: -4.0}
    f = {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}
    assert not sf.restart_check(phi, vals, g, f)


# ---------------------------------------------------------------- schedule

def test_cosine_endpoints_exact():
    assert sf.cosine_lr(0.0, 18.0, 0.05, 1e-7) == 0.05
    assert sf.cosine_lr(18.0, 18.0, 0.05, 1e-7) == 1e-7


def test_cosine_midpoint():
    assert sf.cosine_lr(9.0, 18.0, 0.05, 1e-7) == pytest.approx(0.02500005)


def test_cosine_monotone_nonincreasing():
    ts = np.linspace(0, 18, 100)
    vs = [sf.cosine_lr(float(t), 18.0, 0.05, 1e-7) for t in ts]
    assert all(a >= b for a, b in zip(vs, vs[1:]))


def test_cosine_out_of_period():
    with pytest.raises(OutOfPeriod):
        sf.cosine_lr(19.0, 18.0, 0.05, 1e-7)
    with pytest.raises(OutOfPeriod):
        sf.cosine_lr(-0.5, 18.0, 0.05, 1e-7)


# ---------------------------------------------------------------- energy

def test_energy_single_node():
    ens = sf.ParticleEnsemble({0: 7})
    assert sf.energy(ens, {0: 3.0}, beta=1.0) == pytest.approx(3.5)


def test_energy_power_form_uniform():
    # m * (1/m)**(beta+1) / (beta+1) = m**-beta / (beta+1)
    for m in (2, 5, 8):
        ens = sf.ParticleEnsemble({i: 3 for i in range(m)})
        vals = {i: 0.0 for i in range(m)}
        assert sf.energy(ens, vals, beta=2.0) == pytest.approx(m**-2.0 / 3.0)


def test_energy_empty_node_adds_nothing():
    ens = sf.ParticleEnsemble({0: 4, 1: 0})
    val = sf.energy(ens, {0: 1.25, 1: 99.0})
    assert val == pytest.approx(0.5 + 1.25)


# ---------------------------------------------------------------- stationary oracle

def test_stationary_uniform_on_equal_values():
    for m in (2, 4, 6):
        vals = {i: 0.3 for i in range(m)}
        f = sf.stationary_oracle(vals, beta=1.0)
        for i in range(m):
            assert f[i] == pytest.approx(1 / m, abs=1e-10)


def test_stationary_linear_case():
    f = sf.stationary_oracle({0: 0.0, 1: 0.5}, beta=1.0)
    assert f[0] == pytest.approx(0.75, abs=1e-10)
    assert f[1] == pytest.approx(0.25, abs=1e-10)


def test_stationary_clamped_case():
    f = sf.stationary_oracle({0: 0.0, 1: 10.0}, beta=1.0)
    assert f[0] == pytest.approx(1.0, abs=1e-10)
    assert f[1] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 6.0])
def test_stationary_single_node_where_max_plus_one_rounds_down(beta):
    # (0.533579146588886 + 1.0) - 0.533579146588886 is 0.9999999999999999,
    # so the excess at max(value) + 1 is below 0 for every beta.
    assert sf.stationary_oracle({0: 0.533579146588886}, beta=beta) == {0: 1.0}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [{0: 1e308}, {0: -1e308, 1: 1e308}],
                         ids=["upper-end-overflows", "span-overflows"])
def test_stationary_raises_on_a_bracket_beyond_the_float_range(values):
    # These once returned NaN with a numpy RuntimeWarning.
    with pytest.raises(NonFiniteValue):
        sf.stationary_oracle(values, beta=2.0)


def test_stationary_sums_to_one():
    rng = np.random.default_rng(2)
    for beta in (0.5, 1.0, 2.0):
        vals = {i: float(rng.uniform(0, 1)) for i in range(5)}
        f = sf.stationary_oracle(vals, beta=beta)
        assert sum(f.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(v >= 0 for v in f.values())
