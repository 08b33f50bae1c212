"""The matrix form of the particle step against the per-edge loops it replaced.

The reference below walks every directed edge with `neighbors` and `kernel`
and sums in Python, as the dynamics did before they read `kernel_matrix()`.
On random weighted graphs (kernels of non-unit weights written pair by pair,
stars and complete graphs) and random potentials and values with ties, signed
zeros and extreme magnitudes, the rates, the potential update and the
restart test must match it bit for bit, signed zeros included, and a
non-finite input must be reported at the same node with the same message.
The mutation step, which draws from the rate matrix, must match the step
that drew from per-node destination dicts, draw for draw.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow.dynamics import (
    EXPECTED,
    ROUNDING_ULPS,
    SECOND_ORDER,
    DynamicsParams,
    MoveLaw,
    MutationResult,
    ParticleEnsemble,
)
from semiflow.errors import NonFiniteValue

# -- reference --------------------------------------------------------------


def ref_negative_part(a):
    return -a if a < 0.0 else 0.0


def ref_sum(xs):
    """Left to right, as sum() added floats up to Python 3.11 and still adds
    the numpy floats a search passes (3.12's sum compensates Python floats)."""
    total = 0
    for x in xs:
        total += x
    return total


def ref_finish_laws(raw, kappa, tau_k):
    laws = {}
    for g, out in raw.items():
        total = ref_sum(out.values())
        if not math.isfinite(total):
            raise NonFiniteValue(f"move rates at node {g} total {total}")
        if total <= 0.0:
            laws[g] = MoveLaw(0.0, {})
            continue
        prob = min(1.0, kappa * tau_k * total)
        laws[g] = MoveLaw(prob, {h: r / total for h, r in out.items()})
    return laws


def ref_rates_first(marginal, values, graph, params, tau_k):
    score = {}
    for g in graph:
        s = marginal[g] ** params.beta + values[g]
        if not math.isfinite(s):
            raise NonFiniteValue(f"score at node {g} is {s}")
        score[g] = s
    raw = {}
    for g in graph:
        out = {}
        for h in graph.neighbors(g):
            r = ref_negative_part(score[h] - score[g]) * graph.kernel(g, h)
            if r > 0.0:
                out[h] = r
        raw[g] = out
    return ref_finish_laws(raw, params.kappa, tau_k)


def ref_bracket(phi, g, h):
    return ref_negative_part(phi[g] - phi[h])


def ref_rates_second(phi, graph, params, tau_k):
    raw = {}
    for g in graph:
        if not math.isfinite(phi[g]):
            raise NonFiniteValue(f"potential at node {g} is {phi[g]}")
        out = {}
        for h in graph.neighbors(g):
            r = ref_bracket(phi, g, h) * graph.kernel(g, h)
            if r > 0.0:
                out[h] = r
        raw[g] = out
    return ref_finish_laws(raw, params.kappa, tau_k)


def ref_update_potential(phi, ensemble, values, graph, params, tau_k):
    f = ensemble.marginal()
    new = {}
    for g in graph:
        quad = 0.0
        for h in graph.neighbors(g):
            q = ref_bracket(phi, g, h) * graph.kernel(g, h)
            quad += q * q
        val = phi[g] - tau_k * quad - tau_k * (f[g] ** params.beta + values[g])
        if not math.isfinite(val):
            raise NonFiniteValue(f"potential update at node {g} gave {val}")
        new[g] = val
    return new


def ref_restart_total(phi, values, graph, marginal):
    """The drift sum itself; restart_check fires when it is > 0."""
    total = 0.0
    for g in graph:
        for h in graph.neighbors(g):
            bracket = ref_bracket(phi, g, h)
            if bracket <= 0.0:
                continue
            total += bracket * (values[h] - values[g]) * graph.kernel(g, h) * marginal[g]
    return total


def ref_apply_mutation_with_flows(ensemble, laws, rng=None):
    """The mutation step over a dict of MoveLaw, one per node."""
    counts = dict(ensemble.counts)
    flows = {}
    for g in sorted(laws):
        law = laws[g]
        if law.move_prob <= 0.0 or not law.dest:
            continue
        movable = ensemble.movable(g)
        if movable <= 0:
            continue
        dests = sorted(law.dest)
        weights = np.array([law.dest[h] for h in dests])
        weights = weights / weights.sum()
        if rng is None:
            moved = movable * law.move_prob
            for h, w in zip(dests, weights):
                amount = moved * w
                if amount > 0.0:
                    flows[(g, h)] = amount
        else:
            movers = int(rng.binomial(int(round(movable)), law.move_prob))
            if movers == 0:
                continue
            alloc = rng.multinomial(movers, weights)
            for h, k in zip(dests, alloc.tolist()):
                if k > 0:
                    flows[(g, h)] = float(k)
    for (g, h), amount in flows.items():
        counts[g] -= amount
        counts[h] += amount
    for g, before in ensemble.counts.items():
        floor = ensemble.ghost.get(g, 0)
        if floor - ROUNDING_ULPS * math.ulp(before) <= counts[g] < floor:
            counts[g] = float(floor)
    return MutationResult(ParticleEnsemble(counts, dict(ensemble.ghost)), flows)


# -- comparison -------------------------------------------------------------


def bits(x):
    return np.float64(x).tobytes()


def assert_same_floats(got, want):
    """Same keys in the same order, and the same float64 bits per key."""
    assert list(got) == list(want)
    for key in want:
        assert bits(got[key]) == bits(want[key]), (key, got[key], want[key])


def assert_same_laws(got, want):
    assert list(got) == list(want)
    for g in want:
        assert bits(got[g].move_prob) == bits(want[g].move_prob), g
        assert_same_floats(got[g].dest, want[g].dest)


def outcome(fn, *args, error=NonFiniteValue, **kw):
    """(result, None) or (None, message of the error raised)."""
    try:
        return fn(*args, **kw), None
    except error as exc:
        return None, str(exc)


# -- inputs -----------------------------------------------------------------

weights = st.one_of(
    st.just(1.0),
    st.floats(min_value=1e-300, max_value=1e300, allow_nan=False),
)
# Ties, signed zeros, moderate values, and the whole finite range, so that
# differences overflow to inf and products underflow to zero.
finite = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def graphs(draw, max_nodes=12):
    n = draw(st.integers(1, max_nodes))
    kind = draw(st.sampled_from(["star", "complete", "random"]))
    if kind == "star":
        return sf.star_graph("c", list(range(1, n)))
    if kind == "complete":
        return sf.complete_graph(list(range(n)))
    kernel = np.zeros((n, n))
    for leaf in range(1, n):
        kernel[0, leaf] = kernel[leaf, 0] = draw(weights)
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights)
        for a, b, w in draw(st.lists(pairs.filter(lambda p: p[0] != p[1]),
                                     max_size=12)):
            kernel[a, b] = kernel[b, a] = w
    return sf.ArchGraph(["c", *range(1, n)], kernel)


def node_map(draw, graph, elements):
    return {g: draw(elements) for g in graph}


@st.composite
def ensembles(draw, graph):
    counts = {g: float(draw(st.integers(0, 20))) for g in graph}
    counts[graph.center] += 1.0
    return ParticleEnsemble(counts)


@st.composite
def dyn_params(draw):
    return DynamicsParams(
        kappa=draw(st.floats(0.1, 5.0)),
        beta=draw(st.sampled_from([1.0, 2.0, 0.5])),
        mode=SECOND_ORDER,
    )


tau = st.floats(min_value=1e-4, max_value=2.0)

# -- properties -------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.data(), graphs(), dyn_params(), tau)
def test_second_order_rates_match_reference(data, graph, params, tau_k):
    phi = node_map(data.draw, graph, finite)
    want = outcome(ref_rates_second, phi, graph, params, tau_k)
    got = outcome(sf.mutation_rates_second, phi, graph, params, tau_k)
    assert got[1] == want[1]
    if want[0] is not None:
        assert_same_laws(got[0], want[0])


@settings(max_examples=300, deadline=None)
@given(st.data(), graphs(), dyn_params(), tau)
def test_first_order_rates_match_reference(data, graph, params, tau_k):
    values = node_map(data.draw, graph, finite)
    marginal = data.draw(ensembles(graph)).marginal()
    want = outcome(ref_rates_first, marginal, values, graph, params, tau_k)
    got = outcome(sf.mutation_rates_first, marginal, values, graph, params, tau_k)
    assert got[1] == want[1]
    if want[0] is not None:
        assert_same_laws(got[0], want[0])


@settings(max_examples=300, deadline=None)
@given(st.data(), graphs(), dyn_params(), tau)
def test_potential_update_matches_reference(data, graph, params, tau_k):
    phi = node_map(data.draw, graph, finite)
    values = node_map(data.draw, graph, st.floats(-10.0, 10.0))
    ensemble = data.draw(ensembles(graph))
    want = outcome(ref_update_potential, phi, ensemble, values, graph, params, tau_k)
    got = outcome(sf.update_potential, phi, ensemble, values, graph, params, tau_k)
    assert got[1] == want[1]
    if want[0] is not None:
        assert_same_floats(got[0], want[0])


@settings(max_examples=300, deadline=None)
@given(st.data(), graphs())
def test_restart_check_matches_reference(data, graph):
    phi = node_map(data.draw, graph, finite)
    values = node_map(data.draw, graph, finite)
    marginal = data.draw(ensembles(graph)).marginal()
    want = ref_restart_total(phi, values, graph, marginal) > 0.0
    assert sf.restart_check(phi, values, graph, marginal) is want


@settings(max_examples=200, deadline=None)
@given(st.data(), graphs(), dyn_params(), tau)
def test_non_finite_inputs_name_the_same_node(data, graph, params, tau_k):
    """NaN and inf potentials or values: the same node and message, or the
    same result where the reference tolerates them."""
    phi = node_map(data.draw, graph, st.one_of(finite, non_finite))
    values = node_map(data.draw, graph, st.one_of(st.floats(-10.0, 10.0), non_finite))
    ensemble = data.draw(ensembles(graph))

    want = outcome(ref_rates_second, phi, graph, params, tau_k)
    got = outcome(sf.mutation_rates_second, phi, graph, params, tau_k)
    assert got[1] == want[1]
    if want[0] is not None:
        assert_same_laws(got[0], want[0])

    want = outcome(ref_update_potential, phi, ensemble, values, graph, params, tau_k)
    got = outcome(sf.update_potential, phi, ensemble, values, graph, params, tau_k)
    assert got[1] == want[1]
    if want[0] is not None:
        assert_same_floats(got[0], want[0])

    marginal = ensemble.marginal()
    want = outcome(ref_rates_first, marginal, values, graph, params, tau_k)
    got = outcome(sf.mutation_rates_first, marginal, values, graph, params, tau_k)
    assert got[1] == want[1]
    if want[0] is not None:
        assert_same_laws(got[0], want[0])

    want = ref_restart_total(phi, values, graph, marginal) > 0.0
    assert sf.restart_check(phi, values, graph, marginal) is want


@settings(max_examples=300, deadline=None)
@given(st.data(), graphs(), dyn_params(), tau, st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_mutation_matches_the_dict_step(data, graph, params, tau_k, first, sampled,
                                        ghosts, seed):
    """From one seed, the same flows in the same order, the same counts and
    the same rng state after, bit for bit; or the same error, from the rates
    or from the step."""
    ghost = {g: int(ghosts and g != graph.center) for g in graph}
    amount = st.integers(0, 50).map(float) if sampled else st.floats(0.0, 50.0)
    counts = {g: ghost[g] + data.draw(amount) for g in graph}
    counts[graph.center] += 1.0
    ensemble = ParticleEnsemble(counts, ghost)
    if first:
        args = (ensemble.marginal(), node_map(data.draw, graph, finite), graph,
                params, tau_k)
        rates, ref_rates = sf.mutation_rates_first, ref_rates_first
    else:
        args = (node_map(data.draw, graph, finite), graph, params, tau_k)
        rates, ref_rates = sf.mutation_rates_second, ref_rates_second
    (laws, error), (ref_laws, ref_error) = outcome(rates, *args), outcome(ref_rates, *args)
    assert error == ref_error
    if error is not None:
        return
    rngs = [np.random.default_rng(seed) if sampled else None for _ in range(2)]
    got = outcome(sf.apply_mutation_with_flows, ensemble, laws, rngs[0],
                  error=ValueError)
    want = outcome(ref_apply_mutation_with_flows, ensemble, ref_laws, rngs[1],
                   error=ValueError)
    assert got[1] == want[1]
    if want[0] is not None:
        assert_same_floats(got[0].flows, want[0].flows)
        assert_same_floats(got[0].ensemble.counts, want[0].ensemble.counts)
        assert got[0].ensemble.ghost == want[0].ensemble.ghost
    if sampled:
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


# A center row whose pairwise sum (np.sum) differs from its left-to-right
# sum: 1 followed by many terms below half an ulp of 1.
LEAVES = [1.0] + [1e-16] * 16


def test_row_sums_add_left_to_right():
    assert float(np.sum(LEAVES)) != ref_sum(LEAVES)
    graph = sf.star_graph("c", LEAVES)
    params = DynamicsParams(kappa=1.0, mode=SECOND_ORDER, rate_mode=EXPECTED)
    phi = {0: 0.0, **{g: v for g, v in enumerate(LEAVES, start=1)}}
    assert_same_laws(sf.mutation_rates_second(phi, graph, params, 1e-3),
                     ref_rates_second(phi, graph, params, 1e-3))
    # The squared outflow of the center: brackets sqrt(LEAVES).
    phi = {0: 0.0, **{g: math.sqrt(v) for g, v in enumerate(LEAVES, start=1)}}
    ensemble = ParticleEnsemble({g: 1.0 for g in graph})
    values = {g: 0.0 for g in graph}
    assert_same_floats(sf.update_potential(phi, ensemble, values, graph, params, 1.0),
                       ref_update_potential(phi, ensemble, values, graph, params, 1.0))
    # A drift that is 0 summed left to right (each 2**-53 rounds away
    # against 1) and positive summed pairwise: the restart must not fire.
    drift = [1.0] + [2.0**-53] * 15 + [-1.0]
    values = {0: 0.0, **{g: v for g, v in enumerate(drift, start=1)}}
    phi = {0: 0.0, **{g: 1.0 for g in range(1, len(drift) + 1)}}
    graph = sf.star_graph("c", drift)
    marginal = {g: 1.0 for g in graph}
    assert float(np.sum(drift)) > 0.0
    assert ref_restart_total(phi, values, graph, marginal) == 0.0
    assert sf.restart_check(phi, values, graph, marginal) is False


def test_restart_counts_a_pair_whose_rate_underflows():
    # bracket * K underflows to 0, but the drift term multiplies the bracket
    # by the loss difference first, so the pair still counts.
    graph = sf.ArchGraph(["c", "x"], [[0.0, 0.5], [0.5, 0.0]])
    phi, values, marginal = {0: 0.0, 1: 5e-324}, {0: 0.0, 1: 1e300}, {0: 1.0, 1: 1.0}
    assert 5e-324 * 0.5 == 0.0
    assert ref_restart_total(phi, values, graph, marginal) > 0.0
    assert sf.restart_check(phi, values, graph, marginal) is True
