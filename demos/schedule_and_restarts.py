"""Step-size schedule and the second-order potential's restart rule.

Part 1 prints the warm-restart cosine trace: the step size sweeps from
lam_start down to lam_final every period, and the global clock never
rewinds when a search round hands over to the next one.

Part 2 runs the second-order dynamics on a rigged star graph and logs the
potential of the incumbent and the planted best child, marking where the
drift check resets the potential to zero.

Usage: python3 demos/schedule_and_restarts.py
"""

import numpy as np

import semiflow as sf
from semiflow.search import GlobalClock, particle_step


def ascii_bar(x, lo, hi, width=40):
    fill = int((x - lo) / (hi - lo) * width)
    return "#" * fill


def part_schedule():
    print("cosine warm restarts: period 6 epochs, 4 iterations per epoch")
    clock = GlobalClock(4, 6, 0.05, 1e-7)
    for k in range(0, 52, 2):
        tau = clock.tau()
        cycle = int(clock.epochs_elapsed() // 6)
        print(f"  k={clock.k:>3} cycle={cycle} tau={tau:.5f} {ascii_bar(tau, 0, 0.05)}")
        clock.advance()
        clock.advance()
    print("the k counter is global: a new round continues, never rewinds\n")


def part_restarts():
    print("second-order round on a rigged star (child 3 planted 1.0 lower):")
    g = sf.star_graph(None, [None] * 8)
    vals = {i: 0.0 for i in g}
    vals[3] = -1.0
    phi = {i: 0.0 for i in g}
    ens = sf.seed_ensemble(g, 200)
    dyn = sf.DynamicsParams(kappa=3.0, beta=2.0, mode=sf.SECOND_ORDER)
    rng = np.random.default_rng(0)
    resets = 0
    for it in range(400):
        step = particle_step(ens, phi, vals, g, dyn, 0.05, rng)
        ens, phi = step.ensemble, step.phi
        resets += step.reset
        if it % 50 == 0 or ens.counts[3] >= 2 * ens.counts[0]:
            print(f"  it={it:>3} counts(incumbent)={ens.counts[0]:>3} "
                  f"counts(planted)={ens.counts[3]:>3} "
                  f"phi(planted)={phi[3]:+.3f} resets={resets}")
        if ens.counts[3] >= 2 * ens.counts[0]:
            print(f"  doubling: planted child holds twice the incumbent mass")
            break


def main():
    part_schedule()
    part_restarts()


if __name__ == "__main__":
    main()
