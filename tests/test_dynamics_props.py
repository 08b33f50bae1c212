"""Mutation-step invariants on random graphs, laws and step sizes.

On star and complete graphs of 2-12 nodes, with move laws from either rate
function, step sizes that often saturate the move probability at 1, and
both rate modes, every step must leave each count nonnegative and each ghost
node at one particle or more. Sampled mode moves whole particles, so it
conserves mass exactly; expected mode transports float amounts, so it
conserves mass to rounding.

The stationary oracle, on 1-49 nodes with tied values, beta 0.25-6 and
values of scale 1e-3, 1 or 10, returns a distribution whose occupied nodes
share one score f**beta + value and whose empty nodes score no lower.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow.dynamics import (
    EXPECTED,
    FIRST_ORDER,
    SAMPLED,
    SECOND_ORDER,
    DynamicsParams,
    ParticleEnsemble,
)


@st.composite
def setups(draw):
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        graph = sf.star_graph(None, [None] * (n - 1))
    else:
        graph = sf.complete_graph([None] * n)
    rate_mode = draw(st.sampled_from([SAMPLED, EXPECTED]))
    if rate_mode == SAMPLED:
        amount = st.integers(0, 500).map(float)
    else:
        amount = st.floats(0.0, 500.0)
    ghosts = draw(st.booleans())
    ghost = {g: int(ghosts and g != graph.center) for g in graph}
    counts = {g: ghost[g] + draw(amount) for g in graph}
    counts[graph.center] += draw(st.integers(1, 10000))
    params = DynamicsParams(
        kappa=draw(st.floats(1e-3, 1e3)),
        beta=draw(st.sampled_from([0.5, 1.0, 2.0])),
        mode=draw(st.sampled_from([FIRST_ORDER, SECOND_ORDER])),
        rate_mode=rate_mode,
    )
    values = {g: draw(st.floats(0.0, 5.0)) for g in graph}
    phi = {g: draw(st.floats(-5.0, 5.0)) for g in graph}
    tau = draw(st.floats(1e-3, 2.0))
    return graph, ParticleEnsemble(counts, ghost), params, values, phi, tau


@settings(max_examples=300, deadline=None)
@given(setups(), st.integers(0, 2**32 - 1))
def test_mutation_keeps_floors_and_mass(setup, seed):
    graph, ensemble, params, values, phi, tau = setup
    rng = np.random.default_rng(seed) if params.rate_mode == SAMPLED else None
    total = ensemble.total
    for _ in range(5):
        if params.mode == FIRST_ORDER:
            laws = sf.mutation_rates_first(
                ensemble.marginal(), values, graph, params, tau
            )
        else:
            laws = sf.mutation_rates_second(phi, graph, params, tau)
        ensemble = sf.apply_mutation(ensemble, laws, rng)
        for g, count in ensemble.counts.items():
            assert count >= 0.0
            assert count >= ensemble.ghost[g]
        if params.rate_mode == SAMPLED:
            assert ensemble.total == total
        else:
            assert abs(ensemble.total - total) <= 1e-12 * total


@st.composite
def oracle_inputs(draw):
    n = draw(st.integers(1, 49))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0]))
    # Fewer distinct values than nodes gives ties.
    pool = draw(st.lists(st.floats(0.0, scale), min_size=1, max_size=n))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return dict(enumerate(values)), draw(st.floats(0.25, 6.0))


@settings(max_examples=300, deadline=None)
@given(oracle_inputs())
# At c = 0.999**6 node 0 holds 0.999; node 1 needs c - value = 1e-18, less
# than one ulp, so no float level gives it its 0.001.
@example(({0: 0.0, 1: 0.999**6}, 6.0))
def test_stationary_oracle_equalizes_scores(case):
    values, beta = case
    f = sf.stationary_oracle(values, beta)
    assert sorted(f) == sorted(values)
    assert all(fg >= 0.0 for fg in f.values())
    assert abs(sum(f.values()) - 1.0) <= 1e-12
    if len(values) == 1:
        assert f == {0: 1.0}
    level = [f[g] ** beta + values[g] for g in f if f[g] > 0.0]
    assert max(level) - min(level) <= 1e-9
    assert all(values[g] >= max(level) - 1e-9 for g in f if f[g] == 0.0)
