"""Outer search loops.

Every mode runs one loop (_run): pretrain an initial network, repeat rounds,
then train the last incumbent until the validation loss plateaus. The loop
owns the clock, the run's files, the checkpoint after each round and the
counts; each mode is a generator of rounds, which yields every round's
incumbent and records and ends when its own rule says so.

A particle round (nasgd, nasagd) builds a local graph (incumbent plus
one-edit children), drops N particles on the incumbent and a ghost on every
child, and runs the coupled train/mutate dynamics until some child holds
twice the incumbent's particles (doubling), the round's iteration cap
expires, or the global schedule budget runs dry. The winning node becomes
the next incumbent. The step-size clock keeps running across rounds and into
final training, with warm restarts every epochs_neigh epochs.

A hill-climb cycle (the baseline for exploration-throughput comparisons)
trains every child for epochs_neigh epochs and keeps the best.
"""

from __future__ import annotations

import logging
import math
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, NamedTuple

import numpy as np

from .dynamics import (
    FIRST_ORDER,
    SAMPLED,
    SECOND_ORDER,
    DynamicsParams,
    NodeState,
    ParticleEnsemble,
    apply_mutation_with_flows,
    cosine_lr,
    energy,
    mutation_rates_first,
    mutation_rates_second,
    restart_check,
    seed_ensemble,
    train_step,
    update_potential,
)
from .errors import (
    BadLabel,
    ConstraintViolated,
    Divergence,
    NonFiniteValue,
    RoundTimeout,
    SplitTooSmall,
)
from .graph import ArchGraph
from .morphisms import (
    Candidate,
    Constraints,
    build_local_graph,
    default_mix,
    draw_table,
)
from .nn import (
    NetSpec,
    bind,
    evaluate,
    init_params,
    # Not called here: bench/layers.py traces these names on this module.
    loss_and_grad,  # noqa: F401
    loss_only,  # noqa: F401
    param_count,
    save_checkpoint,
)
from .objective import (
    BoundGroup,
    ObjectiveHandle,
    ValTracker,
    clip_gradient,
    eval_val,
)
from .data import BatchStream, Dataset
from .knobs import check_fields, knob
from .recording import JsonlWriter, MetricsWriter

log = logging.getLogger(__name__)

MODES = ("nasgd", "nasagd", "hillclimb")
DEFAULT_N_STEPS = {"nasgd": 0.89, "nasagd": 2.54, "hillclimb": 5.0}


@dataclass
class SearchConfig:
    """Every knob of a search run; defaults follow the reference recipe
    (8 neighbors, 18-epoch schedule period, 0.05 to 1e-7 cosine).

    The config keys, their defaults and their type checks are read off these
    fields (see config.py), so a field's default is stated only here, and
    so is each numeric field's accepted interval, checked by knobs.py's one
    rule. What is not an interval is checked by hand: lam_start > lam_final
    in both schedules, the names, the hidden widths and the morphism mix.
    """

    mode: str = "nasgd"
    seed: int = knob(0, "[0, inf)")
    n_particles: int = knob(100, "[1, inf)")
    n_neigh: int = knob(8, "[1, inf)")
    epochs_neigh: int = knob(18, "[1, inf)")
    n_steps: float | None = knob(None, "(0, inf)")  # schedule budget in cycles
    lam_start: float = knob(0.05, "(0, inf)")
    lam_final: float = knob(1e-7, "[0, inf)")
    # Mobility 3.0 with quadratic mass entropy keeps the swarm moving during
    # the hot half of each cosine cycle without degenerating into a random
    # walk once the step size anneals; 3.5+/linear both lose held-out
    # accuracy on the spirals benchmark.
    kappa: float = knob(3.0, "(0, inf)")
    beta: float = knob(2.0, "(0, inf)")
    s_x: int = knob(64, "[1, inf)")
    s_y: int = knob(32, "[1, inf)")
    constraints: Constraints = field(default_factory=Constraints)
    size_threshold: int = knob(20000, "[-inf, inf]")  # parameter-count stop for growth
    hidden: tuple[int, ...] = (16, 16)
    mix: dict[str, float] = field(default_factory=default_mix)
    topology: str = "star"
    rate_mode: str = SAMPLED
    damping: float = knob(1.0, "[0, inf)")
    val_decay: float = knob(0.9, "(0, 1)")
    # grad_clip and plateau_tol take any number but NaN, which would turn
    # clipping off or count every final cycle a stall.
    grad_clip: float = knob(1.0, "[-inf, inf]")
    round_timeout_factor: float = knob(5.0, "(0, inf)")
    pretrain_epochs: int = knob(20, "[0, inf)")
    pretrain_lam_start: float = knob(0.5, "(0, inf)")
    pretrain_lam_final: float = knob(1e-7, "[0, inf)")
    final_budget: int = knob(300, "[0, inf)")
    plateau_cycles: int = knob(3, "[1, inf)")
    plateau_tol: float = knob(1e-4, "[-inf, inf]")
    strict: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_steps is None:
            self.n_steps = DEFAULT_N_STEPS[self.mode]
        check_fields(self)
        for prefix, start, final in (
            ("", self.lam_start, self.lam_final),
            ("pretrain_", self.pretrain_lam_start, self.pretrain_lam_final),
        ):
            if not start > final:
                raise ValueError(
                    f"need {prefix}lam_start > {prefix}lam_final, got {start}/{final}"
                )
        self.hidden = tuple(int(w) for w in self.hidden)
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")
        # A bad graph or dynamics knob raises here, not mid-run.
        draw_table(self.n_neigh, self.topology, self.mix)
        self.dynamics()

    def dynamics(self) -> DynamicsParams:
        """The particle-dynamics knobs; mode follows the search mode."""
        return DynamicsParams(
            kappa=self.kappa, beta=self.beta,
            mode=SECOND_ORDER if self.mode == "nasagd" else FIRST_ORDER,
            rate_mode=self.rate_mode,
        )


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _stream_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    """A group of same-spec vectors as a new float array: a group of one is
    1-D (P,), the shape of every lone network; more stack as (n, P)."""
    return np.array(rows[0] if len(rows) == 1 else rows, dtype=float)


def _seeds(seeds: list[int]) -> int | tuple[int, ...]:
    """A group's BatchStream seed by _stack's rule: an int or a tuple."""
    return seeds[0] if len(seeds) == 1 else tuple(seeds)


def _step(state: NodeState, grad: np.ndarray, tau: float, config: SearchConfig) -> None:
    """Every trainer's parameter update, in place: grad clipped at grad_clip,
    then train_step with the config's damping."""
    train_step(state, clip_gradient(grad, config.grad_clip), tau, gamma=config.damping)


@dataclass
class GlobalClock:
    """Warm-restart cosine schedule on a clock that is never reset."""

    iters_per_epoch: int
    period_epochs: float
    lam_start: float
    lam_final: float
    k: int = 0

    @classmethod
    def for_search(cls, config: SearchConfig, iters_per_epoch: int) -> GlobalClock:
        """The search schedule: cycles of epochs_neigh epochs from lam_start
        down to lam_final."""
        return cls(iters_per_epoch, config.epochs_neigh,
                   config.lam_start, config.lam_final)

    def epochs_elapsed(self) -> float:
        return self.k / self.iters_per_epoch

    def tau(self) -> float:
        t = math.fmod(self.epochs_elapsed(), self.period_epochs)
        return cosine_lr(t, self.period_epochs, self.lam_start, self.lam_final)

    def advance(self) -> None:
        self.k += 1


@dataclass
class RoundStats:
    iterations: int = 0
    adopted: int | None = None
    timed_out: bool = False
    budget_exhausted: bool = False
    movers: float = 0.0
    energy_trace: list[float] = field(default_factory=list)
    final_counts: dict[int, float] = field(default_factory=dict)

    @property
    def stop(self) -> str:
        """The rule that ended the round: "doubling", "timeout" or "budget"."""
        if self.timed_out:
            return "timeout"
        return "budget" if self.budget_exhausted else "doubling"


Round = tuple[Candidate, list[dict], int, str]  # one round, as a mode yields it to _run


@dataclass
class SearchResult:
    best_spec: NetSpec
    best_params: np.ndarray
    rounds: int
    architectures_explored: int
    wallclock: float
    search_wallclock: float = 0.0
    test_metrics: dict[str, Any] = field(default_factory=dict)
    timed_out_rounds: int = 0


class ParticleStep(NamedTuple):
    """What one particle step left: flows per edge, out_flow per source."""

    ensemble: ParticleEnsemble
    phi: dict[int, float]
    flows: dict[tuple[int, int], float]
    out_flow: dict[int, float]
    energy: float

    def write_rows(
        self,
        metrics: MetricsWriter,
        iter_k: int,
        round_idx: int,
        v_train: Mapping[int, float],
        v_val: Mapping[int, float],
        tau: float,
    ) -> None:
        """One metrics row per node for the tick this step ended."""
        total = self.ensemble.total
        phi, out_flow = self.phi, self.out_flow
        metrics.write_rows(iter_k, round_idx, tau, self.energy, [
            (g, count, count / total, v_train[g], v_val[g], phi[g], out_flow[g])
            for g, count in self.ensemble.counts.items()
        ])


def particle_step(
    ensemble: ParticleEnsemble,
    phi: dict[int, float],
    values: Mapping[int, float],
    graph: ArchGraph,
    dyn: DynamicsParams,
    tau: float,
    rng: np.random.Generator | None,
    restart: bool = True,
) -> ParticleStep:
    """One mutation step of the swarm at step size tau: rates, moves, the
    potential update (second order only) and the energy monitor.

    rng drives the moves in sampled rate mode and is ignored otherwise.
    """
    nodes = graph.nodes()
    if dyn.mode == FIRST_ORDER:
        laws = mutation_rates_first(ensemble.marginal(), values, graph, dyn, tau)
    else:
        laws = mutation_rates_second(phi, graph, dyn, tau)
    moved = apply_mutation_with_flows(
        ensemble, laws, rng if dyn.rate_mode == SAMPLED else None
    )
    ensemble = moved.ensemble
    out_flow = {g: 0.0 for g in nodes}
    for (g, _h), amount in moved.flows.items():
        out_flow[g] += amount

    # restart=False (dynamics-bench) runs the bare integrator against the
    # stationary law: no potential resets, so a blow-up surfaces as an error.
    if dyn.mode == SECOND_ORDER:
        try:
            phi = update_potential(phi, ensemble, values, graph, dyn, tau)
        except NonFiniteValue:
            if not restart:
                raise
            # The potential has a finite-time blow-up when a round runs
            # long with the drift check quiet; a reset is the same remedy
            # the restart rule applies, triggered at the integrator's limit.
            phi = {g: 0.0 for g in nodes}
        if restart and restart_check(phi, values, graph, ensemble.marginal()):
            phi = {g: 0.0 for g in nodes}

    e_now = energy(ensemble, values, dyn.beta)
    return ParticleStep(ensemble, phi, moved.flows, out_flow, e_now)


# A diverging candidate overflows on its way to the non-finite loss or value
# that the round reports; numpy's warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def dynamics_round(
    graph: ArchGraph,
    objective: ObjectiveHandle,
    states: dict[int, NodeState],
    config: SearchConfig,
    clock: GlobalClock,
    rng: np.random.Generator,
    metrics: MetricsWriter | None = None,
    round_idx: int = 1,
    budget_iters: int | None = None,
) -> RoundStats:
    """Run one round of particle dynamics on a prebuilt local graph.

    Stops when the doubling criterion fires (stats.adopted is the winning
    child), when the per-round cap of round_timeout_factor * epochs_neigh
    epochs expires (adopts the node with most particles, or raises
    RoundTimeout under config.strict), or when budget_iters run out
    (stats.adopted stays None: the caller keeps its incumbent).

    Each group of nodes with one objective.group_key is bound once on its
    parameters, 1-D or stacked by _stack (objective.bind). Each clock tick
    then trains (by _step) and scores every group with one call each, in
    place. states[g] holds each node's last x and v when the round ends.
    """
    dyn = config.dynamics()
    nodes = graph.nodes()
    center = graph.center
    ensemble = seed_ensemble(graph, config.n_particles)
    tracker = ValTracker(decay=config.val_decay)
    phi = {g: 0.0 for g in nodes}
    timeout_iters = max(
        1, round(config.round_timeout_factor * config.epochs_neigh * clock.iters_per_epoch)
    )
    stats = RoundStats()
    v_train: dict[int, float] = {}
    # One state per group of nodes that share a kernel call (_stack); row i
    # of a group's x and v is its i-th node's. states gets the rows back, as
    # views, however the round ends.
    by_key: dict = {}
    for g in nodes:
        by_key.setdefault(objective.group_key(g), []).append(g)
    groups = [tuple(group) for group in by_key.values()]
    stacked = [NodeState(_stack([states[g].x for g in group]),
                         _stack([states[g].v for g in group])) for group in groups]

    try:
        # train_step writes each group's state in place, so the bound
        # groups stay valid for the whole round.
        bound = [objective.bind(group, state.x) for group, state in zip(groups, stacked)]
        while True:
            tau = clock.tau()
            # Not _fit: all candidates take one step each per clock tick,
            # one call per group, and each train loss is recorded.
            for group, net, state in zip(groups, bound, stacked):
                losses, grads = net.value_and_grad()
                v_train.update(zip(group, np.atleast_1d(losses).tolist()))
                _step(state, grads, tau, config)
            # Every group is scored before a failure is raised, so a
            # non-finite loss names the first such node in node order.
            failures = []
            for group, net in zip(groups, bound):
                try:
                    eval_val(net, tracker, group)
                except NonFiniteValue as exc:
                    failures.append(exc)
            if failures:
                raise min(failures, key=lambda exc: exc.node)
            values = {g: tracker.value(g) for g in nodes}

            step = particle_step(ensemble, phi, values, graph, dyn, tau, rng)
            ensemble, phi = step.ensemble, step.phi
            for amount in step.flows.values():
                stats.movers += amount
            stats.energy_trace.append(step.energy)
            if metrics is not None:
                step.write_rows(metrics, clock.k, round_idx, v_train, values, tau)
                metrics.flush()

            clock.advance()
            stats.iterations += 1

            children = [g for g in nodes if g != center]
            if children:
                best = min(children, key=lambda g: (-ensemble.counts[g], g))
                if ensemble.counts[best] >= 2.0 * ensemble.counts[center]:
                    stats.adopted = best
                    break
            if budget_iters is not None and stats.iterations >= budget_iters:
                stats.budget_exhausted = True
                break
            if stats.iterations >= timeout_iters:
                stats.timed_out = True
                if config.strict:
                    raise RoundTimeout(
                        f"no doubling after {stats.iterations} iterations"
                    )
                stats.adopted = min(nodes, key=lambda g: (-ensemble.counts[g], g))
                break
    finally:
        for group, state in zip(groups, stacked):
            rows = zip(np.atleast_2d(state.x), np.atleast_2d(state.v))
            states.update(zip(group, (NodeState(x, v) for x, v in rows)))

    stats.final_counts = dict(ensemble.counts)
    return stats


class NetObjective:
    """ObjectiveHandle over per-node architectures trained on one dataset
    in one round of a search.

    Nodes of one NetSpec form a group. A bound group draws its batches from
    its train and val streams (streams) and runs them through two networks
    bound to its parameters, (P,) or (n, P) by _stack: one at s_x for
    training, one at s_y for scoring, each checked against its split once.
    """

    def __init__(self, specs: Mapping[int, NetSpec], data: Dataset,
                 config: SearchConfig, round_idx: int):
        self.specs = dict(specs)
        self.config = config
        self.round_idx = round_idx
        self.splits = (data.split("train"), data.split("val"))

    def group_key(self, g):
        return self.specs[g]

    def streams(self, group: tuple[int, ...]) -> tuple[BatchStream, BatchStream]:
        """The group's train and val streams for the round (seeded by
        _seeds); row i of each is node group[i]'s own seeded stream."""

        def stack(split, size, kind):
            seeds = [_stream_seed(self.config.seed, 5, self.round_idx, g, kind)
                     for g in group]
            return BatchStream(*split, size, _seeds(seeds))

        train, val = self.splits
        return stack(train, self.config.s_x, 0), stack(val, self.config.s_y, 1)

    def bind(self, group: tuple[int, ...], x: np.ndarray) -> BoundGroup:
        spec = self.specs[group[0]]
        train, val = self.streams(group)
        fit = bind(spec, x, train.features, train.labels, train.batch_size)
        score = bind(spec, x, val.features, val.labels, val.batch_size)
        return BoundGroup(
            value=lambda: score.loss(*val.next_batch()),
            value_and_grad=lambda: fit.loss_and_grad(*train.next_batch()),
        )


def _batches(dataset: Dataset, split: str, size: int) -> int:
    """Whole batches of size in the split; raises SplitTooSmall if none."""
    rows = getattr(dataset, f"{split}_idx").size
    if rows < size:
        raise SplitTooSmall(
            f"{split} split of {rows} rows cannot fill a batch of {size}"
        )
    return rows // size


def iters_per_epoch(dataset: Dataset, config: SearchConfig) -> int:
    return _batches(dataset, "train", config.s_x)


def local_graph(
    config: SearchConfig, round_idx: int, spec: NetSpec, params: np.ndarray,
    velocity: np.ndarray | None = None,
) -> tuple[ArchGraph, list[dict]]:
    """The local graph, and its audit records, that round (or hill-climb
    cycle) round_idx draws around spec and params, from its own rng. A
    velocity rides along into every child."""
    return build_local_graph(
        spec, params, config.n_neigh, config.constraints, config.mix,
        _rng(config.seed, 2, round_idx), velocity=velocity, topology=config.topology,
    )


def run_round(
    incumbent: Candidate,
    config: SearchConfig,
    data: Dataset,
    clock: GlobalClock | None = None,
    metrics: MetricsWriter | None = None,
    round_idx: int = 1,
    budget_iters: int | None = None,
) -> tuple[Candidate, RoundStats, list[dict]]:
    """One full search round on a real dataset.

    Builds the local graph around the incumbent, runs the dynamics, and
    returns (next incumbent, stats, audit records). The incumbent comes back
    unchanged when the budget ran out before any stopping rule fired.
    """
    if clock is None:
        clock = GlobalClock.for_search(config, iters_per_epoch(data, config))

    graph, audit = local_graph(
        config, round_idx, incumbent.spec, incumbent.params, incumbent.velocity
    )
    objective = NetObjective(
        {g: graph.payload(g).spec for g in graph}, data, config, round_idx
    )
    # No copies here: dynamics_round trains its own stacked copies, and
    # leaves every payload's arrays as they were.
    states = {}
    for g in graph:
        cand = graph.payload(g)
        vel = cand.velocity
        if vel is None:
            vel = np.zeros_like(cand.params)
        states[g] = NodeState(cand.params, np.asarray(vel, dtype=float))

    stats = dynamics_round(
        graph, objective, states, config, clock,
        _rng(config.seed, 3, round_idx), metrics, round_idx, budget_iters,
    )
    next_incumbent, adopted = incumbent, "none"
    if stats.adopted is not None:
        winner, state = graph.payload(stats.adopted), states[stats.adopted]
        next_incumbent = Candidate(winner.spec, state.x.copy(), state.v.copy(),
                                   winner.origin)
        adopted = "incumbent" if stats.adopted == graph.center else winner.origin.kind
    log.debug("round %d: %d iterations, stop %s, adopted %s",
              round_idx, stats.iterations, stats.stop, adopted)
    return next_incumbent, stats, audit


def _fit(
    spec: NetSpec,
    state: NodeState,
    stream: BatchStream,
    clock: GlobalClock,
    epochs: int,
    config: SearchConfig,
    what: str,
) -> Iterator[NodeState]:
    """Train one network, or a stack of networks of one spec, for epochs
    passes over the stream, one _step per batch at the clock's step size,
    yielding its state after each epoch.

    A stack's state is (n, P) and its stream stacks n seeds; each row trains
    bit for bit as its own network would on its own stream and clock.
    Trains copies of state's arrays, so the caller's stay as they were; the
    same copies are yielded every epoch and the next epoch writes them. The
    network is bound to its copy once, checked against the stream's whole
    split, and every step writes the copies in place. Raises Divergence,
    naming what was being trained, if any loss stops being finite or,
    checked after each epoch, any parameter does.
    """
    state = NodeState(state.x.copy(), state.v.copy())
    net = bind(spec, state.x, stream.features, stream.labels, stream.batch_size)
    finite = math.isfinite if state.x.ndim == 1 else lambda loss: np.isfinite(loss).all()
    for _ in range(epochs):
        # As in dynamics_round: a diverging fit is reported as Divergence.
        # Entered per epoch and left before the yield, so that the caller's
        # code between epochs runs under its own error state.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(stream.batches_per_epoch):
                loss, grad_vec = net.loss_and_grad(*stream.next_batch())
                if not finite(loss):
                    raise Divergence(f"{what} loss became {loss}")
                _step(state, grad_vec, clock.tau(), config)
                clock.advance()
        if not np.all(np.isfinite(state.x)):
            raise Divergence(f"{what} produced non-finite parameters")
        yield state


def pretrain(
    spec: NetSpec, data: Dataset, config: SearchConfig, params: np.ndarray
) -> np.ndarray:
    """Train params by _step from zero velocity, with one cosine arc over
    pretrain_epochs epochs from pretrain_lam_start to pretrain_lam_final, on
    batches of s_x.

    Returns the trained flat parameter vector. Raises Divergence if the loss
    or parameters stop being finite.
    """
    epochs = config.pretrain_epochs
    if epochs == 0:
        return np.asarray(params, dtype=float)
    x_feat, x_lab = data.split("train")
    stream = BatchStream(
        x_feat, x_lab, config.s_x, _stream_seed(config.seed, 5, 0, 0, 0)
    )
    # The first cycle of a warm-restart clock is exactly one cosine arc.
    clock = GlobalClock(
        stream.batches_per_epoch, epochs,
        config.pretrain_lam_start, config.pretrain_lam_final,
    )
    *_, state = _fit(
        spec, NodeState(params, np.zeros_like(params)), stream, clock, epochs,
        config, "pretraining",
    )
    return state.x


def start_network(config: SearchConfig, data: Dataset) -> tuple[NetSpec, np.ndarray]:
    """The network every search starts from, before pretraining: config.hidden
    on the data's shape, initialized from the config's seed.

    Raises BadLabel if the data has fewer than two classes, and
    ConstraintViolated if that network is over constraints.max_params.
    """
    if data.n_classes < 2:
        raise BadLabel(
            f"a classifier needs at least two classes, the data has {data.n_classes}"
        )
    spec = NetSpec(data.input_dim, data.n_classes, config.hidden)
    n_params, cap = param_count(spec), config.constraints.max_params
    if n_params > cap:
        raise ConstraintViolated(
            f"the start network has {n_params} parameters, over "
            f"constraints.max_params {cap}"
        )
    return spec, init_params(spec, _rng(config.seed, 1))


def check_search(config: SearchConfig, data: Dataset) -> None:
    """Raise, before anything trains, what a search would raise later on
    its start network, splits or batch sizes: ConstraintViolated for a start
    network over constraints.max_params, SplitTooSmall for an empty val or
    test split, a train split that cannot fill a batch of s_x or, in the
    particle modes, a val split that cannot fill one of s_y (the hill
    climber scores the whole val split)."""
    start_network(config, data)
    iters_per_epoch(data, config)
    for split in ("val", "test"):
        if getattr(data, f"{split}_idx").size == 0:
            raise SplitTooSmall(f"{split} split is empty")
    if config.mode != "hillclimb":
        _batches(data, "val", config.s_y)


def final_train(
    spec: NetSpec,
    params: np.ndarray,
    data: Dataset,
    config: SearchConfig,
    clock: GlobalClock | None = None,
    velocity: np.ndarray | None = None,
    checkpoint_path: str | None = None,
) -> tuple[np.ndarray, dict[str, Any]]:
    """Polish with warm-restart cosine training by _step until the
    validation loss stalls for plateau_cycles consecutive cycles or the
    final_budget of epochs ends.

    Returns the best parameters and their metrics, with the epochs trained
    and final_stop, the rule that ended training: "plateau" or "budget".
    With a checkpoint_path, the best parameters so far are saved there after
    every schedule cycle, and the returned ones on return.
    """
    x_feat, x_lab = data.split("train")
    val_x, val_y = data.split("val")
    test_x, test_y = data.split("test")
    params = np.asarray(params, dtype=float)
    stream = BatchStream(
        x_feat, x_lab, config.s_x, _stream_seed(config.seed, 6, 0)
    )
    if clock is None:
        clock = GlobalClock.for_search(config, stream.batches_per_epoch)
    vel = np.zeros_like(params) if velocity is None else np.asarray(velocity, dtype=float)
    best_val = evaluate(spec, params, val_x, val_y)[0]
    best_params = params.copy()
    stall = 0
    cycle_best = math.inf
    epochs = 0
    stop = "budget"

    for epochs, state in enumerate(_fit(
        spec, NodeState(params, vel), stream, clock, config.final_budget, config,
        "final training",
    ), start=1):
        val_loss = evaluate(spec, state.x, val_x, val_y)[0]
        cycle_best = min(cycle_best, val_loss)
        if val_loss < best_val:
            best_params = state.x.copy()
        if epochs % config.epochs_neigh == 0:
            if best_val - cycle_best >= config.plateau_tol:
                stall = 0
            else:
                stall += 1
            best_val = min(best_val, cycle_best)
            cycle_best = math.inf
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, spec, best_params)
            if stall >= config.plateau_cycles:
                stop = "plateau"
                break

    log.debug("final training: %d epochs, stop %s", epochs, stop)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, spec, best_params)
    val_loss, val_acc = evaluate(spec, best_params, val_x, val_y)
    test_loss, test_acc = evaluate(spec, best_params, test_x, test_y)
    return best_params, {
        "val_loss": val_loss,
        "val_accuracy": val_acc,
        "test_loss": test_loss,
        "test_accuracy": test_acc,
        "epochs": float(epochs),
        "final_stop": stop,
    }


def run_files(mode: str) -> list[str]:
    """The files a search in this mode writes to its out_dir, in manifest
    order: metrics.csv (per-node rows of the particle dynamics, so not in
    hillclimb mode), best.json and morphisms.jsonl."""
    files = ["best.json", "morphisms.jsonl"]
    return files if mode == "hillclimb" else ["metrics.csv", *files]


def _particle_rounds(config: SearchConfig, data: Dataset, incumbent: Candidate,
                     clock: GlobalClock, metrics: MetricsWriter | None) -> Iterator[Round]:
    """The particle modes' rounds for _run: one run_round on the run's clock
    per round, while the clock is inside the budget of n_steps cycles and
    the incumbent within size_threshold parameters."""
    budget_iters = round(config.n_steps * config.epochs_neigh * clock.iters_per_epoch)
    round_idx = 0
    while clock.k < budget_iters and param_count(incumbent.spec) <= config.size_threshold:
        round_idx += 1
        incumbent, stats, audit = run_round(incumbent, config, data, clock, metrics,
                                            round_idx, budget_iters - clock.k)
        yield incumbent, audit, len(audit), stats.stop


def _hill_climb_cycles(config: SearchConfig, data: Dataset, incumbent: Candidate,
                       deadline: float) -> Iterator[Round]:
    """The hill climber's rounds for _run: max(1, round(n_steps)) cycles,
    each begun only before the deadline, size_threshold unread. A cycle
    trains every child by _step for epochs_neigh epochs from zero velocity,
    on its own stream and a fresh clock; the best validation loss wins. The
    incumbent's loss is scored once, first, then carried from the cycle
    that picked it.

    Children of one spec train in one _fit, grouped by _stack and _seeds, in
    the order of each group's first child. They are scored in graph order,
    and one replaces the incumbent only on a strictly lower loss. A cycle
    stops as "cap", its last, at the first group begun past the deadline.
    """
    train_x, train_y = data.split("train")
    val_x, val_y = data.split("val")
    incumbent_loss = evaluate(incumbent.spec, incumbent.params, val_x, val_y)[0]
    explored = 1  # stream seeds number the children across all cycles
    for cycle in range(1, max(1, int(round(config.n_steps))) + 1):
        if not time.perf_counter() < deadline:
            return
        graph, audit = local_graph(config, cycle, incumbent.spec, incumbent.params)
        children = [graph.payload(g) for g in graph if g != graph.center]
        groups: dict[NetSpec, list[int]] = {}
        for i, child in enumerate(children):
            groups.setdefault(child.spec, []).append(i)
        trained: dict[int, np.ndarray] = {}
        added, stop = 0, "cycle"
        for spec, group in groups.items():
            if time.perf_counter() >= deadline:
                added, stop = added + 1, "cap"
                break
            added += len(group)
            x = _stack([children[i].params for i in group])
            seeds = [_stream_seed(config.seed, 7, cycle, explored + i) for i in group]
            stream = BatchStream(train_x, train_y, config.s_x, _seeds(seeds))
            # Every fresh clock has the same schedule, so one serves a stack.
            clock = GlobalClock.for_search(config, stream.batches_per_epoch)
            *_, fitted = _fit(
                spec, NodeState(x, np.zeros_like(x)), stream, clock,
                config.epochs_neigh, config, "baseline training",
            )
            trained.update(zip(group, np.atleast_2d(fitted.x)))
        # A tie or a NaN loss keeps the earlier network.
        kept = incumbent
        for i in sorted(trained):
            loss = evaluate(children[i].spec, trained[i], val_x, val_y)[0]
            if loss < incumbent_loss:
                incumbent_loss = loss
                incumbent = Candidate(children[i].spec, trained[i], None, None)
        log.debug("round %d: trained %d children, incumbent %s", cycle,
                  len(trained), "kept" if incumbent is kept else "replaced")
        explored += added
        yield incumbent, audit, added, stop


def _run(config: SearchConfig, data: Dataset, out_dir: str | None,
         wallclock_cap: float | None = None) -> SearchResult:
    """The one run loop of every mode: pretrain, rounds, final training.

    Each mode is a generator of rounds, picked by config.mode: particle
    rounds, or hill-climb cycles against a deadline wallclock_cap seconds
    after pretraining. A round yields (next incumbent, audit records,
    children explored, stop); stop is a RoundStats.stop, "cycle", or "cap"
    for the cycle the deadline cut short, which goes uncounted. After each
    round its records go to morphisms.jsonl and its incumbent to best.json.
    Final training runs on the loop's clock unless there is a wallclock_cap.
    """
    t_start = time.perf_counter()
    with ExitStack() as owned:
        metrics = audit_writer = best_path = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            if "metrics.csv" in run_files(config.mode):
                metrics = owned.enter_context(
                    MetricsWriter(os.path.join(out_dir, "metrics.csv"))
                )
            audit_writer = owned.enter_context(
                JsonlWriter(os.path.join(out_dir, "morphisms.jsonl"))
            )
            best_path = os.path.join(out_dir, "best.json")
        spec, params = start_network(config, data)
        params = pretrain(spec, data, config, params)
        incumbent = Candidate(spec, params, np.zeros_like(params), None)
        clock = GlobalClock.for_search(config, iters_per_epoch(data, config))
        t_search = time.perf_counter()
        if config.mode == "hillclimb":
            deadline = math.inf if wallclock_cap is None else t_search + wallclock_cap
            mode_rounds = _hill_climb_cycles(config, data, incumbent, deadline)
        else:
            mode_rounds = _particle_rounds(config, data, incumbent, clock, metrics)
        explored, rounds, timed_out = 1, 0, 0
        for incumbent, audit, added, stop in mode_rounds:
            if audit_writer is not None:
                for record in audit:
                    audit_writer.write({"round": rounds + 1, **record})
            explored += added
            rounds += stop != "cap"
            timed_out += stop == "timeout"
            if best_path is not None:
                save_checkpoint(best_path, incumbent.spec, incumbent.params)
        search_secs = time.perf_counter() - t_search

        best_params, test_metrics = incumbent.params, {}
        if wallclock_cap is None:
            best_params, test_metrics = final_train(
                incumbent.spec, incumbent.params, data, config,
                clock=clock, velocity=incumbent.velocity, checkpoint_path=best_path,
            )
        return SearchResult(
            best_spec=incumbent.spec,
            best_params=best_params,
            rounds=rounds,
            architectures_explored=explored,
            wallclock=time.perf_counter() - t_start,
            search_wallclock=search_secs,
            test_metrics=test_metrics,
            timed_out_rounds=timed_out,
        )


def run_search(
    config: SearchConfig,
    data: Dataset,
    out_dir: str | None = None,
) -> SearchResult:
    """Full pipeline in config.mode: _run's loop with particle-dynamics
    rounds, or hill_climb_baseline in hillclimb mode. With an out_dir,
    writes run_files(config.mode) there.
    """
    if config.mode == "hillclimb":
        return hill_climb_baseline(config, data, out_dir)
    return _run(config, data, out_dir)


def hill_climb_baseline(
    config: SearchConfig,
    data: Dataset,
    out_dir: str | None = None,
    wallclock_cap: float | None = None,
) -> SearchResult:
    """Sequential-training baseline: _run's loop with _hill_climb_cycles;
    n_steps is the number of cycles.

    With a wallclock_cap, no cycle or group of same-spec children starts once
    the search phase, which begins after pretraining as in run_search, has
    run that long, and final training is skipped; architectures_explored
    counts every child trained plus the one at which the cap fired.
    """
    if config.mode != "hillclimb":
        raise ValueError(f"hill_climb_baseline needs mode hillclimb, got {config.mode!r}")
    return _run(config, data, out_dir, wallclock_cap)
