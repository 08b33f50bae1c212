"""Command-line front end.

Subcommands: search (full pipeline with run artifacts), eval (score a saved
checkpoint), pretrain (train the starting network only), dynamics-bench
(particle-dynamics convergence sweeps without any training), and graph-dump
(emit one local graph as JSON).

stdout carries exactly one JSON document per invocation; everything else
goes to stderr. Exit codes: 0 on success, 2 for configuration problems
(including unreadable checkpoints and data files, and constraints that no
morphism can meet), 3 when training or the particle dynamics diverge (a
non-finite loss, gradient or potential), 4 when a round times out under
--strict.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from . import __version__
from .config import (
    build_dataset,
    build_search_config,
    load_config,
    normalize,
)
from .dynamics import (
    EXPECTED,
    FIRST_ORDER,
    SAMPLED,
    SECOND_ORDER,
    DynamicsParams,
    seed_ensemble,
    stationary_oracle,
)
from .errors import (
    BadConfig,
    BadLabel,
    BadParams,
    ConstraintViolated,
    Divergence,
    MissingFile,
    NonFiniteGradient,
    NonFiniteValue,
    NonIntegerLabel,
    ParseError,
    RoundTimeout,
    SplitTooSmall,
)
from .graph import complete_graph
from .nn import (
    evaluate,
    load_checkpoint,
    loss_only,
    param_count,
    save_checkpoint,
    spec_digest,
)
from .recording import MetricsWriter, json_text, utc_now, write_atomic, write_manifest
from .search import (
    MODES,
    check_search,
    local_graph,
    particle_step,
    pretrain,
    run_files,
    run_search,
    start_network,
    _rng,
)

log = logging.getLogger("semiflow")

SEED_ENV = "SEMIFLOW_SEED"

CONFIG_ERRORS = (
    BadConfig,
    MissingFile,
    ParseError,
    BadParams,
    SplitTooSmall,
    NonIntegerLabel,
    BadLabel,
    ConstraintViolated,
)


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="semiflow",
        description="architecture search by interacting particle dynamics",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_data: bool = True) -> None:
        p.add_argument("--config", help="JSON config file (or a run manifest)")
        p.add_argument("--seed", type=int, help="overrides config and environment")
        if with_data:
            p.add_argument(
                "--data", choices=("blobs", "spirals", "csv"),
                help="shortcut for the data.kind config key",
            )
        p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("search", help="run the full search pipeline")
    common(p)
    p.add_argument("--mode", choices=MODES, help="overrides search.mode")
    p.add_argument("--n-steps", type=float, help="overrides search.n_steps")
    p.add_argument("--out", help="run directory (default semiflow_run_<mode>_s<seed>)")
    p.add_argument("--strict", action="store_true",
                   help="fail with exit 4 when a round times out")

    p = sub.add_parser("eval", help="score a checkpoint on a dataset split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")

    p = sub.add_parser("pretrain", help="train the starting network only")
    common(p)
    p.add_argument("--out", default="pretrained.json", help="checkpoint path")

    p = sub.add_parser("dynamics-bench",
                       help="particle-dynamics sweeps against the stationary law")
    common(p, with_data=False)
    p.add_argument("--out", default="bench_out")
    p.add_argument("--betas", default="1.0", help="comma-separated grid")
    p.add_argument("--kappas", default="1.0", help="comma-separated grid")
    p.add_argument("--nodes", type=int, default=5)
    p.add_argument("--particles", type=int, default=10000)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--order", type=int, choices=(1, 2), default=1)
    p.add_argument("--sampled", action="store_true",
                   help="integer-particle sampling instead of expected flows")

    p = sub.add_parser("graph-dump", help="emit one local graph as JSON")
    common(p)
    p.add_argument("--checkpoint", help="center the graph on this network")
    p.add_argument("--out", help="write JSON here instead of stdout")

    return top


def _seed(args) -> int | None:
    """The run seed: --seed, else $SEMIFLOW_SEED, else None."""
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV)
        if raw is None:
            return None
        try:
            seed = int(raw)
        except ValueError:
            raise BadConfig(f"{SEED_ENV} must be an integer, got {raw!r}")
    if seed < 0:
        raise BadConfig(f"seed must be nonnegative, got {seed}")
    return seed


def _load_table(args) -> dict:
    overrides = load_config(args.config) if args.config else {}
    table = normalize(overrides)
    if getattr(args, "data", None):
        table["data.kind"] = args.data
    if getattr(args, "mode", None):
        table["search.mode"] = args.mode
    if getattr(args, "n_steps", None) is not None:
        table["search.n_steps"] = args.n_steps
    seed = _seed(args)
    if seed is not None:
        table["search.seed"] = seed
    return table


def _emit(payload: dict) -> None:
    sys.stdout.write(json_text(payload))


def _cmd_search(args) -> int:
    table = _load_table(args)
    config = build_search_config(table)
    config.strict = bool(args.strict)
    data = build_dataset(table)
    check_search(config, data)
    out_dir = args.out or f"semiflow_run_{config.mode}_s{config.seed}"
    os.makedirs(out_dir, exist_ok=True)
    outputs = ["manifest.json", *run_files(config.mode)]
    manifest_path = os.path.join(out_dir, "manifest.json")
    started = utc_now()
    write_manifest(manifest_path, table, config.seed, __version__, outputs, started)
    log.info("run directory %s", out_dir)

    result = run_search(config, data, out_dir=out_dir)

    write_manifest(
        manifest_path, table, config.seed, __version__, outputs, started,
        ended=utc_now(),
    )
    summary = {
        "mode": config.mode,
        "seed": config.seed,
        "out_dir": out_dir,
        "rounds": result.rounds,
        "architectures_explored": result.architectures_explored,
        "param_count": param_count(result.best_spec),
        "wallclock_seconds": result.wallclock,
        "timed_out_rounds": result.timed_out_rounds,
    }
    summary.update(result.test_metrics)
    _emit(summary)
    return 0


def _cmd_eval(args) -> int:
    table = _load_table(args)
    spec, flat = load_checkpoint(args.checkpoint)
    data = build_dataset(table)
    if data.input_dim != spec.input_dim or data.n_classes != spec.output_dim:
        raise BadConfig(
            f"checkpoint expects {spec.input_dim} features and "
            f"{spec.output_dim} classes, dataset has {data.input_dim} "
            f"and {data.n_classes}"
        )
    features, labels = data.split(args.split)
    if labels.size == 0:
        raise SplitTooSmall(f"{args.split} split is empty")
    loss, acc = evaluate(spec, flat, features, labels)
    _emit({"loss": loss, "accuracy": acc, "split": args.split,
           "param_count": param_count(spec)})
    return 0


def _cmd_pretrain(args) -> int:
    table = _load_table(args)
    config = build_search_config(table)
    data = build_dataset(table)
    spec, params0 = start_network(config, data)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    params = pretrain(spec, data, config, params0)
    train_x, train_y = data.split("train")
    initial_loss = loss_only(spec, params0, train_x, train_y)
    final_loss = loss_only(spec, params, train_x, train_y)
    save_checkpoint(args.out, spec, params)
    _emit({"initial_loss": initial_loss, "final_loss": final_loss,
           "checkpoint": args.out, "param_count": param_count(spec)})
    return 0


def _grid(raw: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise BadConfig(f"--{name} wants comma-separated numbers, got {raw!r}")
    if not values:
        raise BadConfig(f"--{name} grid is empty")
    return values


def _bench_grid(args) -> list[DynamicsParams]:
    """The dynamics of every point of a bench sweep, its flags checked
    before anything is written."""
    betas = _grid(args.betas, "betas")
    kappas = _grid(args.kappas, "kappas")
    for name, low in (("nodes", 1), ("particles", 1), ("iters", 0)):
        if getattr(args, name) < low:
            raise BadConfig(f"--{name} must be >= {low}, got {getattr(args, name)}")
    if not 0 < args.tau < math.inf:
        raise BadConfig(f"--tau must be positive and finite, got {args.tau}")
    try:
        return [
            DynamicsParams(
                kappa=kappa, beta=beta,
                mode=SECOND_ORDER if args.order == 2 else FIRST_ORDER,
                rate_mode=SAMPLED if args.sampled else EXPECTED,
            )
            for beta in betas for kappa in kappas
        ]
    except ValueError as exc:
        raise BadConfig(str(exc)) from exc


def _bench_point(index, dyn, args, seed, out_dir):
    rng = _rng(seed, 40, index)
    values = {g: float(v) for g, v in enumerate(rng.uniform(0.0, 1.0, args.nodes))}
    graph = complete_graph([None] * args.nodes)
    # No floor: off-support mass must be free to drain toward the oracle.
    ensemble = seed_ensemble(graph, args.particles, ghosts=False)
    phi = {g: 0.0 for g in graph}
    move_rng = _rng(seed, 41, index)
    csv_path = os.path.join(out_dir, f"bench_{index:03d}.csv")
    with MetricsWriter(csv_path) as writer:
        for k in range(args.iters):
            step = particle_step(
                ensemble, phi, values, graph, dyn, args.tau, move_rng,
                restart=False,
            )
            ensemble, phi = step.ensemble, step.phi
            step.write_rows(writer, k, 1, values, values, args.tau)
    target = stationary_oracle(values, dyn.beta)
    marginal = ensemble.marginal()
    l1 = sum(abs(marginal[g] - target[g]) for g in graph)
    return {
        "beta": dyn.beta, "kappa": dyn.kappa,
        "l1_to_stationary": l1, "iterations": args.iters,
        "csv": os.path.basename(csv_path),
    }


def _cmd_bench(args) -> int:
    seed = _seed(args)
    if seed is None:
        seed = 0
    grid = _bench_grid(args)
    os.makedirs(args.out, exist_ok=True)
    points = []
    for index, dyn in enumerate(grid):
        log.info("bench point beta=%s kappa=%s", dyn.beta, dyn.kappa)
        points.append(_bench_point(index, dyn, args, seed, args.out))
    summary = {
        "points": points,
        "nodes": args.nodes,
        "particles": args.particles,
        "mode": "sampled" if args.sampled else "expected",
        "order": args.order,
        "seed": seed,
    }
    write_atomic(os.path.join(args.out, "summary.json"), json_text(summary))
    _emit(summary)
    return 0


def _cmd_graph_dump(args) -> int:
    table = _load_table(args)
    config = build_search_config(table)
    if args.checkpoint:
        spec, flat = load_checkpoint(args.checkpoint)
    else:
        spec, flat = start_network(config, build_dataset(table))
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    graph, _audit = local_graph(config, 1, spec, flat)
    payload = {
        "nodes": [
            {
                "id": g,
                "spec_digest": spec_digest(graph.payload(g).spec),
                "param_count": param_count(graph.payload(g).spec),
            }
            for g in graph.nodes()
        ],
        "edges": [
            {"a": a, "b": b, "w": w} for a, b, w in graph.edges()
        ],
    }
    if args.out:
        write_atomic(args.out, json_text(payload))
        _emit({"written": args.out, "nodes": len(payload["nodes"]),
               "edges": len(payload["edges"])})
    else:
        _emit(payload)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    # Set on every call, so -v holds per invocation even in one process.
    log.setLevel(logging.DEBUG if args.verbose else logging.INFO)
    handlers = {
        "search": _cmd_search,
        "eval": _cmd_eval,
        "pretrain": _cmd_pretrain,
        "dynamics-bench": _cmd_bench,
        "graph-dump": _cmd_graph_dump,
    }
    try:
        return handlers[args.command](args)
    except CONFIG_ERRORS as exc:
        log.error("%s", exc)
        return 2
    except (Divergence, NonFiniteValue, NonFiniteGradient) as exc:
        log.error("diverged: %s", exc)
        return 3
    except RoundTimeout as exc:
        log.error("round timed out: %s", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
