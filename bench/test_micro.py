"""Per-layer micro cases, timed with pytest-benchmark.

    python3 -m pytest bench/test_micro.py --benchmark-only

`run.py --trace 1` runs these and reports each median as a per-layer metric.
Sizes follow the workloads: "small" is the 2-16-16-2 net with one skip that
nasgd-spirals starts from; "hill" is the 2-(16x7)-2 chain (1714 parameters)
that hillclimb-spirals trains most; 9 and 49 nodes are the star graph of the
default search and the complete graph of nasagd-dense.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from semiflow.data import two_spirals  # noqa: E402
from semiflow.dynamics import (  # noqa: E402
    SAMPLED,
    SECOND_ORDER,
    DynamicsParams,
    NodeState,
    apply_mutation_with_flows,
    mutation_rates_second,
    seed_ensemble,
    train_step,
    update_potential,
)
from semiflow.graph import complete_graph, star_graph  # noqa: E402
from semiflow.nn import NetSpec, init_params, loss_and_grad, loss_only  # noqa: E402
from semiflow.recording import MetricsWriter  # noqa: E402

SPECS = {
    "small": NetSpec(2, 2, (16, 16), ((1, 2),)),
    "hill": NetSpec(2, 2, (16,) * 7),
}


@pytest.fixture(scope="module")
def batch():
    features, labels = two_spirals(2000, 0.1, 0).split("train")
    return features[:64], labels[:64]


def net(size: str):
    spec = SPECS[size]
    return spec, init_params(spec, np.random.default_rng(0))


@pytest.mark.parametrize("size", SPECS)
def test_loss_and_grad(benchmark, batch, size):
    spec, params = net(size)
    loss, grad = benchmark(loss_and_grad, spec, params, *batch)
    assert np.isfinite(loss) and grad.shape == params.shape


@pytest.mark.parametrize("size", SPECS)
def test_loss_only(benchmark, batch, size):
    spec, params = net(size)
    assert np.isfinite(benchmark(loss_only, spec, params, *batch))


def test_train_step(benchmark, batch):
    spec, params = net("small")
    _, grad = loss_and_grad(spec, params, *batch)
    state = NodeState(params, np.zeros_like(params))
    out = benchmark(train_step, state, grad, 0.05)
    assert out.x.shape == params.shape


@pytest.mark.parametrize("nodes", (9, 49))
def test_dynamics_step(benchmark, nodes):
    """Second-order rates, one sampled mutation and the potential update."""
    rng = np.random.default_rng(nodes)
    graph = (star_graph(None, [None] * (nodes - 1)) if nodes == 9
             else complete_graph([None] * nodes))
    dyn = DynamicsParams(kappa=3.0, beta=2.0, mode=SECOND_ORDER, rate_mode=SAMPLED)
    ensemble = seed_ensemble(graph, 100)
    values = {g: float(v) for g, v in zip(graph.nodes(), rng.uniform(0.1, 1.0, nodes))}
    phi = {g: float(v) for g, v in zip(graph.nodes(), rng.normal(0.0, 0.1, nodes))}

    def step():
        laws = mutation_rates_second(phi, graph, dyn, 0.05)
        moved = apply_mutation_with_flows(ensemble, laws, rng)
        return update_potential(phi, moved.ensemble, values, graph, dyn, 0.05)

    assert len(benchmark(step)) == nodes


def test_write_row(benchmark):
    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    with MetricsWriter(str(out / "micro_metrics.csv")) as writer:
        benchmark(writer.write_row, 120, 2, 7, 13.0, 0.13, 0.4871234, 0.5012345,
                  -0.0123456, 0.0312345, 0.6123456, 3.0)
