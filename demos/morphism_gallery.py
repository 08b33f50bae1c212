"""Apply every network operator once and report what it did.

Positive operators (deepen, widen, add_skip) must leave the computed
function unchanged at application time; negative ones shrink the network
and make no such promise. The table shows the shape change, parameter
delta, and the largest output deviation on a random batch.

Usage: python3 demos/morphism_gallery.py [--seed 0]
"""

import argparse

import numpy as np

import semiflow as sf


def describe(spec):
    base = "-".join(str(w) for w in spec.hidden)
    if spec.skips:
        base += " +skips" + str(list(spec.skips))
    return base


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    spec = sf.NetSpec(2, 3, (8, 8))
    params = sf.init_params(spec, rng)
    X = rng.normal(size=(64, 2))
    base_out = sf.forward(spec, params, X)

    cases = [
        ("deepen", lambda: sf.deepen(spec, params, 1)),
        ("widen", lambda: sf.widen(spec, params, 2, 3, rng)),
        ("add_skip", lambda: sf.add_skip(spec, params, 1, 2)),
        ("narrow", lambda: sf.narrow(spec, params, 1, 2)),
        ("remove_layer", lambda: sf.remove_layer(spec, params, 2)),
    ]

    print(f"incumbent: {describe(spec)}  ({sf.param_count(spec)} params)")
    print(f"{'operator':>12} {'result':>20} {'d_params':>9} {'max_dev':>10}")
    for name, apply in cases:
        m = apply()
        dev = float(np.max(np.abs(sf.forward(m.spec, m.params, X) - base_out)))
        delta = len(m.params) - len(params)
        print(f"{name:>12} {describe(m.spec):>20} {delta:>+9d} {dev:>10.2e}")

    # remove_skip needs a spec that has one; a fresh zero-scale skip is
    # exactly neutral, so its removal is too
    skipped = sf.add_skip(spec, params, 1, 2)
    m = sf.remove_skip(skipped.spec, skipped.params, 0)
    dev = float(np.max(np.abs(sf.forward(m.spec, m.params, X) - base_out)))
    delta = len(m.params) - len(params)
    print(f"{'remove_skip':>12} {describe(m.spec):>20} {delta:>+9d} {dev:>10.2e}")

    print("\nrandom draws as used during a search round")
    print("(invalid draws raise; the graph builder simply redraws):")
    for kind in sf.ALL_KINDS:
        src = skipped if kind == "remove_skip" else None
        s, p = (src.spec, src.params) if src else (spec, params)
        for _ in range(20):
            try:
                m = sf.draw_morphism(s, p, kind, rng)
            except (sf.ConstraintViolated, sf.DimensionMismatch,
                    sf.BadPosition) as err:
                print(f"{kind:>12} redraw: {err}")
                continue
            dev = float(np.max(np.abs(sf.forward(m.spec, m.params, X) - base_out)))
            print(f"{kind:>12} args={m.origin.args_dict()!s:<28} max_dev={dev:.2e}")
            break

    print("\nlocal graph around the incumbent (8 children, one operator each):")
    g, audit = sf.build_local_graph(spec, params, 8, None, None,
                                    np.random.default_rng(args.seed + 1))
    for rec in audit:
        print(f"  child {rec['child_id']}: {rec['kind']:<12} "
              f"preserved={rec['preserved']} dev={rec['dev']:.2e}")


if __name__ == "__main__":
    main()
