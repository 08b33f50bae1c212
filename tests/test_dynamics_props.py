"""Mutation-step invariants on random graphs, laws and step sizes.

On star and complete graphs of 2-12 nodes, with move laws from either rate
function, step sizes that often saturate the move probability at 1, and
both rate modes, every step must leave each count nonnegative and each ghost
node at one particle or more. Sampled mode moves whole particles, so it
conserves mass exactly; expected mode transports float amounts, so it
conserves mass to rounding.
"""

import numpy as np
from hypothesis import given, settings
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
