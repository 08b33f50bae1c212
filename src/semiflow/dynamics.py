"""Interacting particle dynamics on the product of a parameter space and a
finite weighted graph.

Two coupled mechanisms act on an ensemble of particles:

* a training step on each node's shared parameter vector (damped momentum by
  default, plain gradient descent behind a flag), and
* a mutation step that moves particles between nodes with one-sided (upwind)
  rates, so mass flows only in the descent direction of a per-node score.

The first-order flavor scores a node by ``f(g)**beta + V~(g)`` (particle
fraction raised to the entropy power, plus running validation loss). The
second-order flavor carries a per-node potential ``phi`` that plays the role
of momentum: rates read phi, and phi is in turn pushed down by mass and loss.

A cosine step-size schedule with warm restarts, an energy monitor, and a
closed-form stationary-distribution oracle round out the toolbox.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import (
    DimensionMismatch,
    EmptyGraph,
    NoSolution,
    NonFiniteGradient,
    NonFiniteValue,
    OutOfPeriod,
)
from .graph import ArchGraph

FIRST_ORDER = "first_order"
SECOND_ORDER = "second_order"
SAMPLED = "sampled"
EXPECTED = "expected"
TOWARD_HIGH_PHI = "toward_high_phi"
TOWARD_LOW_PHI = "toward_low_phi"


def negative_part(a: float) -> float:
    """max(0, -a)."""
    return -a if a < 0.0 else 0.0


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

    def copy(self) -> "NodeState":
        return NodeState(self.x.copy(), self.v.copy())


@dataclass(frozen=True)
class DynamicsParams:
    """Knobs of the particle dynamics.

    kappa scales all mutation probabilities, beta is the entropy power in the
    node score, gamma is the friction coefficient (used only by the flagged
    extra terms). The remaining fields select variants: sampled vs expected
    mutation, momentum vs pure-gradient training, flow orientation of the
    second-order rates, and the optional potential terms that are dropped by
    default.
    """

    kappa: float = 1.0
    beta: float = 1.0
    gamma: float = 0.0
    mode: str = FIRST_ORDER
    rate_mode: str = SAMPLED
    damping: float = 1.0
    pure_gradient: bool = False
    speed_penalty: bool = False
    friction_potential: bool = False
    flow: str = TOWARD_HIGH_PHI
    restart_literal: bool = False
    entropy: str = "power"

    def __post_init__(self) -> None:
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.mode not in (FIRST_ORDER, SECOND_ORDER):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.rate_mode not in (SAMPLED, EXPECTED):
            raise ValueError(f"unknown rate_mode {self.rate_mode!r}")
        if self.flow not in (TOWARD_HIGH_PHI, TOWARD_LOW_PHI):
            raise ValueError(f"unknown flow {self.flow!r}")
        if self.entropy not in ("power", "log"):
            raise ValueError(f"unknown entropy {self.entropy!r}")


def train_step(
    state: NodeState,
    grad: np.ndarray,
    tau: float,
    gamma: float = 1.0,
    momentum: bool = True,
) -> NodeState:
    """One parameter update at step size tau.

    Momentum form (default):  x' = x + tau*v,  v' = v - tau*(gamma*v + grad).
    Pure form (momentum=False): x' = x - tau*grad, v unchanged.
    """
    grad = np.asarray(grad, dtype=float)
    if grad.shape != state.x.shape:
        raise DimensionMismatch(
            f"grad has shape {grad.shape}, x has shape {state.x.shape}"
        )
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient contains NaN or inf")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if momentum:
        x = state.x + tau * state.v
        v = state.v - tau * (gamma * state.v + grad)
    else:
        x = state.x - tau * grad
        v = state.v.copy()
    return NodeState(x, v)


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

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(dict(self.counts), dict(self.ghost))


def seed_ensemble(
    graph: ArchGraph, n_particles: int, ghosts: bool = True
) -> ParticleEnsemble:
    """N particles on the center, one ghost pinned to every other node.

    ghosts=False seeds the same counts with no floor, for density-style
    (expected-mode) runs where off-center mass must be free to vanish.
    """
    if n_particles < 1:
        raise ValueError(f"need at least one particle, got {n_particles}")
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


def _finish_laws(
    raw: dict[int, dict[int, float]], kappa: float, tau_k: float
) -> dict[int, MoveLaw]:
    laws = {}
    for g, out in raw.items():
        total = sum(out.values())
        if total <= 0.0:
            laws[g] = MoveLaw(0.0, {})
            continue
        prob = min(1.0, kappa * tau_k * total)
        laws[g] = MoveLaw(prob, {h: r / total for h, r in out.items()})
    return laws


def _check_rate_inputs(graph: ArchGraph, tau_k: float) -> None:
    if len(graph) == 0:
        raise EmptyGraph("cannot compute rates on an empty graph")
    if not tau_k > 0:
        raise ValueError(f"tau_k must be positive, got {tau_k}")


def mutation_rates_first(
    marginal: Mapping[int, float],
    values: Mapping[int, float],
    graph: ArchGraph,
    params: DynamicsParams,
    tau_k: float,
) -> dict[int, MoveLaw]:
    """First-order rates: mass flows toward strictly lower score.

    Score s(g) = f(g)**beta + V~(g); raw rate toward a neighbor is
    (s(g') - s(g))^- * K(g,g'), nonzero only when the neighbor scores lower.
    The move probability is min(1, kappa*tau_k*sum of raw rates).
    """
    _check_rate_inputs(graph, tau_k)
    score = {}
    for g in graph:
        s = marginal[g] ** params.beta + values[g]
        if not math.isfinite(s):
            raise NonFiniteValue(f"score at node {g} is {s}")
        score[g] = s
    raw: dict[int, dict[int, float]] = {}
    for g in graph:
        out = {}
        for h in graph.neighbors(g):
            r = negative_part(score[h] - score[g]) * graph.kernel(g, h)
            if r > 0.0:
                out[h] = r
        raw[g] = out
    return _finish_laws(raw, params.kappa, tau_k)


def _bracket(
    phi: Mapping[int, float], g: int, h: int, toward_high: bool
) -> float:
    """One-sided potential difference across edge g -> h: (phi(g) - phi(h))^-
    toward higher phi, its positive part toward lower phi."""
    diff = phi[g] - phi[h]
    return negative_part(diff) if toward_high else max(0.0, diff)


def mutation_rates_second(
    phi: Mapping[int, float],
    graph: ArchGraph,
    params: DynamicsParams,
    tau_k: float,
) -> dict[int, MoveLaw]:
    """Second-order rates read the potential instead of the score.

    With the default orientation the raw rate is (phi(g) - phi(g'))^-, so
    mass flows toward neighbors with larger phi. The opposite orientation
    (positive part, flow toward smaller phi) is selectable via params.flow.
    """
    _check_rate_inputs(graph, tau_k)
    toward_high = params.flow == TOWARD_HIGH_PHI
    raw: dict[int, dict[int, float]] = {}
    for g in graph:
        if not math.isfinite(phi[g]):
            raise NonFiniteValue(f"potential at node {g} is {phi[g]}")
        out = {}
        for h in graph.neighbors(g):
            r = _bracket(phi, g, h, toward_high) * graph.kernel(g, h)
            if r > 0.0:
                out[h] = r
        raw[g] = out
    return _finish_laws(raw, params.kappa, tau_k)


class MutationResult(NamedTuple):
    ensemble: ParticleEnsemble
    flows: dict[tuple[int, int], float]


def apply_mutation_with_flows(
    ensemble: ParticleEnsemble,
    laws: Mapping[int, MoveLaw],
    rng: np.random.Generator | None = None,
) -> MutationResult:
    """One synchronous mutation step, reporting per-edge flows.

    All moves are decided from the pre-step counts and applied at once.
    With an rng, each movable particle moves independently (binomial movers,
    multinomial destinations; counts stay integral). Without one, the
    expected fractional masses are transported instead.
    """
    counts = dict(ensemble.counts)
    flows: dict[tuple[int, int], float] = {}
    for g in sorted(laws):
        law = laws[g]
        movable = ensemble.movable(g)
        if movable <= 0 or law.move_prob <= 0.0 or not law.dest:
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
            for h, k in zip(dests, alloc):
                if k > 0:
                    flows[(g, h)] = float(k)
    for (g, h), amount in flows.items():
        counts[g] -= amount
        counts[h] += amount
    return MutationResult(ParticleEnsemble(counts, dict(ensemble.ghost)), flows)


def apply_mutation(
    ensemble: ParticleEnsemble,
    laws: Mapping[int, MoveLaw],
    rng: np.random.Generator | None = None,
) -> ParticleEnsemble:
    """apply_mutation_with_flows without the flow report."""
    return apply_mutation_with_flows(ensemble, laws, rng).ensemble


def update_potential(
    phi: Mapping[int, float],
    ensemble: ParticleEnsemble,
    values: Mapping[int, float],
    graph: ArchGraph,
    params: DynamicsParams,
    tau_k: float,
    velocities: Mapping[int, np.ndarray] | None = None,
) -> dict[int, float]:
    """Push the potential down by outflow, mass, and loss.

    phi'(g) = phi(g) - tau_k * sum_g' ((phi(g)-phi(g'))^- K(g,g'))^2
                     - tau_k * (f(g)**beta + V~(g))
    plus two optional terms, both off by default: -tau_k*gamma*phi(g)
    (friction) and -tau_k*0.5*|v_g|^2 (kinetic penalty).

    The squared bracket follows the same orientation as the mutation flow.
    """
    toward_high = params.flow == TOWARD_HIGH_PHI
    f = ensemble.marginal()
    new = {}
    for g in graph:
        quad = 0.0
        for h in graph.neighbors(g):
            q = _bracket(phi, g, h, toward_high) * graph.kernel(g, h)
            quad += q * q
        val = phi[g] - tau_k * quad - tau_k * (f[g] ** params.beta + values[g])
        if params.friction_potential:
            val -= tau_k * params.gamma * phi[g]
        if params.speed_penalty and velocities is not None:
            v = np.asarray(velocities[g], dtype=float)
            val -= tau_k * 0.5 * float(v @ v)
        if not math.isfinite(val):
            raise NonFiniteValue(f"potential update at node {g} gave {val}")
        new[g] = val
    return new


def restart_check(
    phi: Mapping[int, float],
    values: Mapping[int, float],
    graph: ArchGraph,
    marginal: Mapping[int, float],
    literal: bool = False,
    flow: str = TOWARD_HIGH_PHI,
) -> bool:
    """Decide whether the potential should be reset to zero.

    Default: signed drift R = sum over flowing pairs of
    rate_bracket(g,g') * (V~(g') - V~(g)) * K(g,g') * f(g); positive R means
    the current flow pushes mass toward higher loss, so restart. The literal
    variant replaces the signed loss difference with its one-sided part
    (V~(g)-V~(g'))^-, giving a nonnegative quantity thresholded at zero.
    """
    toward_high = flow == TOWARD_HIGH_PHI
    total = 0.0
    for g in graph:
        for h in graph.neighbors(g):
            bracket = _bracket(phi, g, h, toward_high)
            if bracket <= 0.0:
                continue
            k = graph.kernel(g, h)
            if literal:
                total += bracket * negative_part(values[g] - values[h]) * k * marginal[g]
            else:
                total += bracket * (values[h] - values[g]) * k * marginal[g]
    return total > 0.0


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
    entropy: str = "power",
) -> float:
    """Monitor E(f) = entropy term + sum_g f(g) * value(g).

    Power form (default): sum_g f(g)**(beta+1) / (beta+1).
    Log form: sum_g f(g) * log f(g), with 0*log 0 = 0.
    """
    f = ensemble.marginal()
    if entropy == "power":
        ent = sum(fi ** (beta + 1.0) / (beta + 1.0) for fi in f.values())
    elif entropy == "log":
        ent = sum(fi * math.log(fi) for fi in f.values() if fi > 0.0)
    else:
        raise ValueError(f"unknown entropy {entropy!r}")
    return ent + sum(fi * values[g] for g, fi in f.items())


def stationary_oracle(
    values: Mapping[int, float], beta: float = 1.0
) -> dict[int, float]:
    """Fixed point of the first-order dynamics with frozen parameters.

    Solves f(g) = max(0, c - value(g))**(1/beta) with sum_g f(g) = 1 for the
    level c by bracketed root finding. At this profile every occupied node has
    equal score, so all one-sided rates vanish.
    """
    if not values:
        raise EmptyGraph("no nodes given")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    ids = sorted(values)
    v = np.array([float(values[g]) for g in ids])
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue("values contain NaN or inf")

    def excess(c: float) -> float:
        return float(np.sum(np.clip(c - v, 0.0, None) ** (1.0 / beta)) - 1.0)

    lo = float(v.min())        # excess = -1
    hi = float(v.max()) + 1.0  # every term >= 1, so excess >= 0
    try:
        c = brentq(excess, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    except ValueError as exc:  # pragma: no cover - bracket is sign-changing
        raise NoSolution(str(exc)) from exc
    f = np.clip(c - v, 0.0, None) ** (1.0 / beta)
    f /= f.sum()
    return {g: float(fi) for g, fi in zip(ids, f)}
