"""Interacting particle dynamics on the product of a parameter space and a
finite weighted graph.

Two coupled mechanisms act on an ensemble of particles:

* a damped momentum training step on each node's shared parameter vector,
  and
* a mutation step that moves particles between nodes with one-sided (upwind)
  rates, so mass flows only in the descent direction of a per-node score.

The first-order flavor scores a node by ``f(g)**beta + V~(g)`` (particle
fraction raised to the entropy power, plus running validation loss). The
second-order flavor carries a per-node potential ``phi`` that plays the role
of momentum: rates read phi, and phi is in turn pushed down by mass and loss.

A cosine step-size schedule with warm restarts, an energy monitor, and a
stationary-distribution oracle (bisection on its level) round out the
toolbox.

The edge work of a step is done on whole matrices. Node values become one
array over ids 0..n-1; the one-sided brackets, the raw rates R = bracket * K
against the graph's dense `kernel_matrix()`, the squared outflow of the
potential and the restart drift are n x n array expressions, each term
multiplied in the order the per-edge formula gives. Sums over neighbours
add left to right in ascending id, as the per-edge loops did, so a step
gives the same bits as they did. Per-node work (scores, f**beta, finiteness
checks, the draws) stays scalar. The move laws stay that matrix (`MoveLaws`)
until the mutation step draws a node's moves from its row.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyGraph,
    NonFiniteGradient,
    NonFiniteValue,
    OutOfPeriod,
)
from .graph import ArchGraph
from .knobs import check, check_fields, knob

FIRST_ORDER = "first_order"
SECOND_ORDER = "second_order"
SAMPLED = "sampled"
EXPECTED = "expected"

# The accepted particle counts. Counts are float64, whole numbers only up to
# 2**53 (about 9.007e15): up to 1e15 a center's count stays exact with the
# ghosts added, and fits the C long the sampled moves' binomial draw takes.
N_PARTICLES = "[1, 1e15]"

# How far, in ulps of a node's pre-step count, float rounding of one
# expected-mode mutation step may take the count below its floor.
ROUNDING_ULPS = 1024


@dataclass
class NodeState:
    """Parameter vector and velocity shared by all particles on one node."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.x.shape != self.v.shape:
            raise DimensionMismatch(
                f"x has shape {self.x.shape}, v has shape {self.v.shape}"
            )


@dataclass(frozen=True)
class DynamicsParams:
    """Knobs of the particle dynamics.

    kappa scales all mutation probabilities and beta is the entropy power of
    the energy, so the node score is f(g)**beta + V~(g). mode picks the
    first- or second-order rates, rate_mode sampled or expected mutation.
    kappa and beta must be positive and finite, (0, inf).
    """

    kappa: float = knob(1.0, "(0, inf)")
    beta: float = knob(1.0, "(0, inf)")
    mode: str = FIRST_ORDER
    rate_mode: str = SAMPLED

    def __post_init__(self) -> None:
        check_fields(self)
        if self.mode not in (FIRST_ORDER, SECOND_ORDER):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.rate_mode not in (SAMPLED, EXPECTED):
            raise ValueError(f"unknown rate_mode {self.rate_mode!r}")


def train_step(
    state: NodeState,
    grad: np.ndarray,
    tau: float,
    gamma: float = 1.0,
) -> NodeState:
    """One damped momentum update at step size tau, written into state.x and
    state.v in place; returns state.

    x' = x + tau*v,  v' = v - tau*(gamma*v + grad).
    Nothing is written when a check fails.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.x.shape:
        raise DimensionMismatch(
            f"grad has shape {grad.shape}, x has shape {state.x.shape}"
        )
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("gradient contains NaN or inf")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    x, v = state.x, state.v
    x += tau * v
    # tau * (gamma*v + grad), built in one buffer.
    step = gamma * v
    step += grad
    step *= tau
    v -= step
    return state


@dataclass
class ParticleEnsemble:
    """Particle counts per node plus the immovable-ghost bookkeeping.

    counts includes ghosts. In sampled mode all counts are integers; the
    expected mode relaxes them to nonnegative reals. A node with ghost flag 1
    can never drop below one particle: the ghost itself never moves.
    """

    counts: dict[int, float]
    ghost: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for g, c in self.counts.items():
            if c < 0:
                raise ValueError(f"negative count {c} at node {g}")
            if self.ghost.get(g, 0) and c < 1:
                raise ValueError(f"ghost node {g} has count {c} < 1")

    @property
    def total(self) -> float:
        return sum(self.counts.values())

    def marginal(self) -> dict[int, float]:
        """Particle fraction f(g) per node; sums to 1."""
        t = self.total
        if t <= 0:
            raise EmptyGraph("ensemble carries no mass")
        return {g: c / t for g, c in self.counts.items()}

    def movable(self, g: int) -> float:
        return self.counts[g] - self.ghost.get(g, 0)


def seed_ensemble(
    graph: ArchGraph, n_particles: int, ghosts: bool = True
) -> ParticleEnsemble:
    """N particles on the center, one ghost pinned to every other node.

    ghosts=False seeds the same counts with no floor, for density-style
    (expected-mode) runs where off-center mass must be free to vanish.
    """
    check("n_particles", n_particles, N_PARTICLES)
    counts: dict[int, float] = {}
    ghost: dict[int, int] = {}
    for g in graph:
        if g == graph.center:
            counts[g] = float(n_particles)
            ghost[g] = 0
        else:
            counts[g] = 1.0
            ghost[g] = int(ghosts)
    return ParticleEnsemble(counts, ghost)


class MoveLaw(NamedTuple):
    """Per-node move probability and destination distribution."""

    move_prob: float
    dest: dict[int, float]


def _node_array(by_node: Mapping[int, float], n: int) -> np.ndarray:
    """by_node[0..n-1] as one float array, indexed like kernel_matrix()."""
    return np.fromiter(map(by_node.__getitem__, range(n)), float, n)


def _gap(u: np.ndarray, toward_high: bool) -> np.ndarray:
    """Matrix of u(h) - u(g) (toward_high) or u(g) - u(h) over pairs [g, h].

    Its positive part is the one-sided bracket of g -> h: (u(g) - u(h))^-
    or (u(g) - u(h))^+. np.fmax(x, 0.0) takes that part and maps NaN to 0,
    as the scalar comparisons did. The potential reads the first form and
    the first-order score the second; negating one for the other would
    flip the sign of a zero gap.
    """
    return u[None, :] - u[:, None] if toward_high else u[:, None] - u[None, :]


def _row_totals(m: np.ndarray) -> np.ndarray:
    """Each row of m summed left to right, as `total += x` adds; np.sum adds
    pairwise, which can round differently."""
    if m.size == 0:
        return np.zeros(len(m))
    return np.add.accumulate(m, axis=1)[:, -1]


class MoveLaws(Mapping):
    """The move laws of nodes 0..n-1, kept as arrays read off a raw rate
    matrix R: rates holds R's entries > 0 (fmax also clears the NaN of an
    infinite bracket times the zero kernel of a non-edge), totals its rows
    summed left to right, and move_prob = min(1, scale*totals), scale being
    kappa*tau_k. A mover from g goes to h with probability
    rates[g, h] / totals[g]. laws[g] builds g's MoveLaw on read; the
    mutation step reads the arrays. Raises NonFiniteValue, naming the node,
    for the first row whose total is not finite: it has no shares to draw.
    """

    # scale*totals can overflow to inf, or be NaN where an inf scale meets a
    # zero total (a row np.where drops); fmin takes both to 1, as min(1.0, x)
    # does.
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, raw, scale: float) -> None:
        self.rates = np.fmax(raw, 0.0)
        self.totals = _row_totals(self.rates)
        unbounded = np.flatnonzero(~np.isfinite(self.totals))
        if unbounded.size:
            g = int(unbounded[0])
            raise NonFiniteValue(f"move rates at node {g} total {self.totals[g]}", node=g)
        moving = self.totals > 0.0
        self.move_prob = np.where(moving, np.fmin(1.0, scale * self.totals), 0.0)

    def dests(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Node g's destinations, the positive rates of its row in ascending
        id, and each one's share of the row total. A share can underflow to
        0 and still names a destination."""
        row = self.rates[g]
        dests = np.flatnonzero(row > 0.0)
        return dests, row[dests] / self.totals[g]

    def __getitem__(self, g: int) -> MoveLaw:
        if not 0 <= g < len(self):
            raise KeyError(g)
        dests, shares = self.dests(g)
        dest = dict(zip(dests.tolist(), shares.tolist()))
        return MoveLaw(float(self.move_prob[g]), dest)

    def __iter__(self):
        return iter(range(len(self)))

    def __len__(self) -> int:
        return len(self.totals)


def _check_rate_inputs(graph: ArchGraph, tau_k: float) -> None:
    if len(graph) == 0:
        raise EmptyGraph("cannot compute rates on an empty graph")
    if not tau_k > 0:
        raise ValueError(f"tau_k must be positive, got {tau_k}")


# An infinite bracket overflows _gap, or meets a zero kernel; MoveLaws
# reports the row it leaves as NonFiniteValue, so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def mutation_rates_first(
    marginal: Mapping[int, float],
    values: Mapping[int, float],
    graph: ArchGraph,
    params: DynamicsParams,
    tau_k: float,
) -> MoveLaws:
    """First-order rates: mass flows toward strictly lower score.

    Score s(g) = f(g)**beta + V~(g); raw rate toward a neighbor is
    (s(g') - s(g))^- * K(g,g'), nonzero only when the neighbor scores lower.
    The move probability is min(1, kappa*tau_k*sum of raw rates).
    """
    _check_rate_inputs(graph, tau_k)
    score = []
    for g in graph:
        s = marginal[g] ** params.beta + values[g]
        if not math.isfinite(s):
            raise NonFiniteValue(f"score at node {g} is {s}", node=g)
        score.append(s)
    raw = _gap(np.array(score), False) * graph.kernel_matrix()
    return MoveLaws(raw, params.kappa * tau_k)


@np.errstate(over="ignore", invalid="ignore")
def mutation_rates_second(
    phi: Mapping[int, float],
    graph: ArchGraph,
    params: DynamicsParams,
    tau_k: float,
) -> MoveLaws:
    """Second-order rates read the potential instead of the score.

    The raw rate toward a neighbor is (phi(g) - phi(g'))^- * K(g,g'), so
    mass flows toward neighbors with larger phi.
    """
    _check_rate_inputs(graph, tau_k)
    potential = _node_array(phi, len(graph))
    for g, p in enumerate(potential.tolist()):
        if not math.isfinite(p):
            raise NonFiniteValue(f"potential at node {g} is {p}", node=g)
    gap = _gap(potential, True)
    return MoveLaws(gap * graph.kernel_matrix(), params.kappa * tau_k)


class MutationResult(NamedTuple):
    ensemble: ParticleEnsemble
    flows: dict[tuple[int, int], float]


def apply_mutation_with_flows(
    ensemble: ParticleEnsemble,
    laws: MoveLaws,
    rng: np.random.Generator | None = None,
) -> MutationResult:
    """One synchronous mutation step, reporting per-edge flows.

    All moves are decided from the pre-step counts and applied at once,
    node by node in ascending id. With an rng, each movable particle moves
    independently (binomial movers, multinomial destinations; counts stay
    integral). Without one, the expected fractional masses are transported
    instead.
    """
    counts = dict(ensemble.counts)
    flows: dict[tuple[int, int], float] = {}
    for g, prob in enumerate(laws.move_prob.tolist()):
        if prob <= 0.0:
            continue
        movable = ensemble.movable(g)
        if movable <= 0:
            continue
        dests, weights = laws.dests(g)
        dests = dests.tolist()
        weights = weights / weights.sum()
        if rng is None:
            moved = movable * prob
            for h, w in zip(dests, weights.tolist()):
                amount = moved * w
                if amount > 0.0:
                    flows[(g, h)] = amount
        else:
            movers = int(rng.binomial(int(round(movable)), prob))
            if movers == 0:
                continue
            alloc = rng.multinomial(movers, weights)
            for h, k in zip(dests, alloc.tolist()):
                if k > 0:
                    flows[(g, h)] = float(k)
    for (g, h), amount in flows.items():
        counts[g] -= amount
        counts[h] += amount
    # The expected amounts movable * p * w_h can add up to a few ulps more
    # than movable, leaving a source that far under its floor (the ghost,
    # or zero); such a count goes back onto the floor. A deficit beyond
    # rounding is left for ParticleEnsemble to reject.
    for g, before in ensemble.counts.items():
        floor = ensemble.ghost.get(g, 0)
        if floor - ROUNDING_ULPS * math.ulp(before) <= counts[g] < floor:
            counts[g] = float(floor)
    return MutationResult(ParticleEnsemble(counts, dict(ensemble.ghost)), flows)


def apply_mutation(
    ensemble: ParticleEnsemble,
    laws: MoveLaws,
    rng: np.random.Generator | None = None,
) -> ParticleEnsemble:
    """apply_mutation_with_flows without the flow report."""
    return apply_mutation_with_flows(ensemble, laws, rng).ensemble


# A potential that blows up overflows its squared outflow; the inf it leaves
# is reported as NonFiniteValue, so numpy need not warn as well.
@np.errstate(over="ignore", invalid="ignore")
def update_potential(
    phi: Mapping[int, float],
    ensemble: ParticleEnsemble,
    values: Mapping[int, float],
    graph: ArchGraph,
    params: DynamicsParams,
    tau_k: float,
) -> dict[int, float]:
    """Push the potential down by outflow, mass, and loss.

    phi'(g) = phi(g) - tau_k * sum_g' ((phi(g)-phi(g'))^- K(g,g'))^2
                     - tau_k * (f(g)**beta + V~(g))

    The squared bracket is the second-order rate's, and f**beta + V~ is the
    first variation of the energy `energy` monitors.
    """
    f = ensemble.marginal()
    gap = _gap(_node_array(phi, len(graph)), True)
    # fmax after the product also drops the NaN of inf * 0 across a non-edge.
    q = np.fmax(gap * graph.kernel_matrix(), 0.0)
    quads = _row_totals(q * q).tolist()
    beta = params.beta
    new = {}
    for g, quad in enumerate(quads):
        val = phi[g] - tau_k * quad - tau_k * (f[g] ** beta + values[g])
        if not math.isfinite(val):
            raise NonFiniteValue(f"potential update at node {g} gave {val}", node=g)
        new[g] = val
    return new


# Right after a blow-up the drift terms may overflow; inf and NaN then decide
# the comparison as they did in scalar code, without a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def restart_check(
    phi: Mapping[int, float],
    values: Mapping[int, float],
    graph: ArchGraph,
    marginal: Mapping[int, float],
) -> bool:
    """Decide whether the potential should be reset to zero.

    Signed drift R = sum over flowing pairs of
    rate_bracket(g,g') * (V~(g') - V~(g)) * K(g,g') * f(g); positive R means
    the current flow pushes mass toward higher loss, so restart.
    """
    n = len(graph)
    kernel = graph.kernel_matrix()
    bracket = np.fmax(_gap(_node_array(phi, n), True), 0.0)
    dv = _gap(_node_array(values, n), True)
    terms = bracket * dv * kernel * _node_array(marginal, n)[:, None]
    # Row-major order is the order the pairs were summed in.
    flowing = terms[np.fmin(bracket, kernel) > 0.0]
    return bool(_row_totals(flowing[None, :])[0] > 0.0)


def cosine_lr(
    t_cur: float, period: float, lam_start: float, lam_final: float
) -> float:
    """Cosine interpolation from lam_start (t=0) to lam_final (t=period).

    Endpoints are returned exactly; in between the value is
    lam_final + (lam_start - lam_final) * (1 + cos(pi*t/period)) / 2.
    """
    if not period > 0:
        raise OutOfPeriod(f"period must be positive, got {period}")
    if t_cur < 0 or t_cur > period:
        raise OutOfPeriod(f"t_cur {t_cur} outside [0, {period}]")
    if t_cur == 0:
        return lam_start
    if t_cur == period:
        return lam_final
    return lam_final + 0.5 * (lam_start - lam_final) * (
        1.0 + math.cos(math.pi * t_cur / period)
    )


def energy(
    ensemble: ParticleEnsemble,
    values: Mapping[int, float],
    beta: float = 1.0,
) -> float:
    """Monitor E(f) = sum_g f(g)**(beta+1) / (beta+1) + sum_g f(g) * value(g),
    the energy whose first variation f**beta + value the rates descend."""
    f = ensemble.marginal()
    ent = sum(fi ** (beta + 1.0) / (beta + 1.0) for fi in f.values())
    return ent + sum(fi * values[g] for g, fi in f.items())


# Values near the top of the float range overflow c - value or its power;
# the inf left orders the bisection as the exact value would, and an end
# that keeps it is reported as NonFiniteValue, so numpy need not warn.
@np.errstate(over="ignore")
def stationary_oracle(
    values: Mapping[int, float], beta: float = 1.0
) -> dict[int, float]:
    """Fixed point of the first-order dynamics with frozen parameters.

    Solves f(g) = max(0, c - value(g))**(1/beta) with sum_g f(g) = 1 for the
    level c. The excess sum_g f(g) - 1 is nondecreasing in c and is -1 at
    c = min(value); bisection from there and from an upper end checked to
    have excess >= 0 closes on c down to adjacent floats, and the profile
    between those two ends' profiles that sums to 1 is returned. At this
    profile every occupied node has equal score, so all one-sided rates
    vanish. Raises NonFiniteValue when the upper end's profile is not
    finite: values too close to the largest float, or spanning more than it.
    """
    if not values:
        raise EmptyGraph("no nodes given")
    check("beta", beta, "(0, inf)")
    ids = sorted(values)
    v = np.array([float(values[g]) for g in ids])
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue("values contain NaN or inf")

    def profile(c: float) -> np.ndarray:
        return np.clip(c - v, 0.0, None) ** (1.0 / beta)

    def excess(c: float) -> float:
        return float(np.sum(profile(c)) - 1.0)

    lo, hi = float(v.min()), float(v.max()) + 1.0
    # Every term at max(value) + 1 is 1 in exact arithmetic, but the sum
    # can round to just below 1, so hi moves up until its excess is >= 0.
    while excess(hi) < 0.0:
        hi += abs(hi) + 1.0
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    # A node whose c - value is a few ulps still jumps between adjacent
    # floats ((ulp)**(1/beta) is 2e-3 at beta 6), so neither end need sum
    # to 1. Each node's share of the point between them that does lies
    # between its two ends' shares, so its f**beta + value is in [lo, hi].
    ex_lo, ex_hi, f_lo = excess(lo), excess(hi), profile(lo)
    if not math.isfinite(ex_hi):
        raise NonFiniteValue(f"values {v.min()}..{v.max()} leave no finite level")
    f = f_lo + (-ex_lo / (ex_hi - ex_lo)) * (profile(hi) - f_lo)
    f /= f.sum()
    return {g: float(fi) for g, fi in zip(ids, f)}
