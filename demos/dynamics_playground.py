"""Watch the graph marginal relax onto its predicted stationary profile.

Runs the first-order mutation dynamics with frozen parameters on a small
complete graph, in deterministic expected mode and in sampled mode, and
compares the long-run node occupancy with the closed-form fixed point.
Also prints the energy trace so the descent property is visible.

Usage: python3 demos/dynamics_playground.py [--beta 2.0] [--nodes 4]
"""

import argparse

import numpy as np

import semiflow as sf
from semiflow.search import particle_step


def run_expected(graph, vals, beta, tau, iters):
    dyn = sf.DynamicsParams(kappa=1.0, beta=beta, rate_mode=sf.EXPECTED)
    ens = sf.seed_ensemble(graph, 1000, ghosts=False)
    energies = []
    for _ in range(iters):
        step = particle_step(ens, {}, vals, graph, dyn, tau, None)
        ens = step.ensemble
        energies.append(step.energy)
    return ens.marginal(), energies


def run_sampled(graph, vals, beta, tau, iters, n, seed):
    dyn = sf.DynamicsParams(kappa=1.0, beta=beta)
    ens = sf.seed_ensemble(graph, n, ghosts=False)
    rng = np.random.default_rng(seed)
    tail = {g: 0.0 for g in graph}
    tail_len = iters // 4
    for it in range(iters):
        ens = particle_step(ens, {}, vals, graph, dyn, tau, rng).ensemble
        if it >= iters - tail_len:
            for g, share in ens.marginal().items():
                tail[g] += share / tail_len
    return tail


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--nodes", type=int, default=4)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--tau", type=float, default=0.05)
    ap.add_argument("--iters", type=int, default=4000)
    ap.add_argument("--particles", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    graph = sf.complete_graph([None] * args.nodes)
    vals = {g: float(rng.uniform(0, 1)) for g in graph}
    oracle = sf.stationary_oracle(vals, args.beta)

    expected, energies = run_expected(graph, vals, args.beta, args.tau, args.iters)
    sampled = run_sampled(graph, vals, args.beta, args.tau, args.iters,
                          args.particles, args.seed)

    print(f"complete graph, {args.nodes} nodes, beta={args.beta}")
    print(f"{'node':>4} {'loss':>8} {'oracle':>9} {'expected':>9} {'sampled':>9}")
    for g in graph:
        print(f"{g:>4} {vals[g]:>8.4f} {oracle[g]:>9.6f} "
              f"{expected[g]:>9.6f} {sampled[g]:>9.6f}")
    dev_e = sum(abs(expected[g] - oracle[g]) for g in graph)
    dev_s = sum(abs(sampled[g] - oracle[g]) for g in graph)
    print(f"L1 to oracle: expected {dev_e:.2e}, sampled {dev_s:.3f}")

    print("\nenergy trace (descent, expected mode):")
    marks = [0, 1, 2, 5, 10, 50, 200, len(energies) - 1]
    for m in marks:
        print(f"  iter {m:>5}: {energies[m]:.8f}")
    drops = sum(1 for a, b in zip(energies, energies[1:]) if b > a + 1e-9)
    print(f"iterations where energy rose: {drops}")


if __name__ == "__main__":
    main()
