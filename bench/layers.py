"""Per-layer tracing of one semiflow search, installed from outside.

Each wrapper replaces the name its caller looks up: `semiflow.search` imports
`loss_and_grad`, `train_step` and friends into its own namespace, so those
are patched there, while methods (`ArchGraph.kernel`, `BatchStream.next_batch`)
are patched on their classes. Nothing under src/ knows it is being traced.
"""

from __future__ import annotations

import os

from measure import Tracer, percentile, summarize

import semiflow.cli as cli
import semiflow.morphisms as morphisms
import semiflow.search as search
from semiflow.data import BatchStream
from semiflow.errors import NonFiniteValue
from semiflow.graph import ArchGraph
from semiflow.recording import MetricsWriter

# semiflow.search attribute -> span name. Both rate laws are one
# "dynamics.rates" layer.
SEARCH_SPANS = {
    "hill_climb_baseline": "search.hill_climb",
    "run_round": "search.run_round",
    "dynamics_round": "search.dynamics_round",
    "pretrain": "search.pretrain",
    "final_train": "search.final_train",
    "build_local_graph": "morphisms.build_local_graph",
    "loss_and_grad": "nn.loss_and_grad",
    "loss_only": "nn.loss_only",
    "evaluate": "nn.evaluate",
    "save_checkpoint": "nn.save_checkpoint",
    "train_step": "dynamics.train_step",
    "mutation_rates_first": "dynamics.rates",
    "mutation_rates_second": "dynamics.rates",
    "apply_mutation_with_flows": "dynamics.mutation",
    "update_potential": "dynamics.potential",
    "restart_check": "dynamics.restart",
    "energy": "dynamics.energy",
    "clip_gradient": "objective.clip_gradient",
    "eval_val": "objective.eval_val",
}
CONFIG_NAMES = ("load_config", "normalize", "build_search_config", "build_dataset")
CLASS_SPANS = (
    (ArchGraph, "neighbors", "graph.neighbors"),
    (ArchGraph, "kernel", "graph.kernel"),
    (BatchStream, "next_batch", "data.next_batch"),
    (MetricsWriter, "write_row", "recording.write_row"),
    (MetricsWriter, "flush", "recording.flush"),
)
# Spans kept whole; the rest only feed per-name totals.
RECORDED = {"config.build", "search.run", "search.hill_climb", "search.run_round",
            "search.pretrain", "search.final_train", "nn.save_checkpoint",
            "morphisms.build_local_graph"}
SAMPLED = {"nn.loss_and_grad", "nn.loss_only"}


class Layers:
    """Installs the wrappers and collects counters for one process."""

    def __init__(self):
        self.tracer = Tracer()
        self.phase = "setup"
        self.counts = dict.fromkeys((
            "param_steps", "candidate_steps", "movers", "potential_resets",
            "restart_fires", "draws", "admissible_draws", "streams_built",
            "checkpoint_bytes", "rounds", "adopted_rounds", "timed_out_rounds",
        ), 0)
        self.iter_samples: list[float] = []
        self._iter_start: float | None = None

    def _hooks(self, orig: dict) -> dict:
        """Wrappers that read arguments or results; each calls the original."""
        counts = self.counts
        clock = self.tracer.clock

        def loss_and_grad(spec, params, *rest, **kw):
            counts["param_steps"] += params.size
            return orig["loss_and_grad"](spec, params, *rest, **kw)

        def train_step(*args, **kw):
            if self.phase == "search":
                counts["candidate_steps"] += 1
            return orig["train_step"](*args, **kw)

        def pretrain(*args, **kw):
            self.phase = "pretrain"
            try:
                return orig["pretrain"](*args, **kw)
            finally:
                self.phase = "search"

        def final_train(*args, **kw):
            self.phase = "final"
            return orig["final_train"](*args, **kw)

        def run_round(*args, **kw):
            result = orig["run_round"](*args, **kw)
            stats = result[1]
            counts["rounds"] += 1
            counts["adopted_rounds"] += int(stats.adopted is not None and not stats.timed_out)
            counts["timed_out_rounds"] += int(stats.timed_out)
            counts["movers"] += stats.movers
            return result

        def dynamics_round(*args, **kw):
            self._iter_start = clock()
            try:
                return orig["dynamics_round"](*args, **kw)
            finally:
                self._iter_start = None

        def update_potential(*args, **kw):
            try:
                return orig["update_potential"](*args, **kw)
            except NonFiniteValue:
                counts["potential_resets"] += 1
                raise

        def restart_check(*args, **kw):
            fired = orig["restart_check"](*args, **kw)
            counts["restart_fires"] += int(fired)
            return fired

        def save_checkpoint(path, *args, **kw):
            orig["save_checkpoint"](path, *args, **kw)
            counts["checkpoint_bytes"] += os.path.getsize(path)

        return {
            "loss_and_grad": loss_and_grad, "train_step": train_step,
            "pretrain": pretrain, "final_train": final_train,
            "run_round": run_round, "dynamics_round": dynamics_round,
            "update_potential": update_potential, "restart_check": restart_check,
            "save_checkpoint": save_checkpoint,
        }

    def install(self) -> None:
        def span(name, fn):
            return self.tracer.wrap(
                name, fn, samples=name in SAMPLED, record=name in RECORDED
            )

        orig = {attr: getattr(search, attr) for attr in SEARCH_SPANS}
        hooks = self._hooks(orig)
        for attr, name in SEARCH_SPANS.items():
            setattr(search, attr, span(name, hooks.get(attr, orig[attr])))
        for attr in CONFIG_NAMES:
            setattr(cli, attr, span("config.build", getattr(cli, attr)))
        cli.run_search = span("search.run", cli.run_search)
        for cls, attr, name in CLASS_SPANS:
            setattr(cls, attr, span(name, getattr(cls, attr)))

        counts = self.counts
        draw = morphisms.draw_morphism

        def draw_morphism(*args, **kw):
            counts["draws"] += 1
            result = draw(*args, **kw)  # raises on an inadmissible draw
            counts["admissible_draws"] += 1
            return result

        morphisms.draw_morphism = draw_morphism

        post_init = BatchStream.__post_init__

        def counted_post_init(stream):
            counts["streams_built"] += 1
            post_init(stream)

        BatchStream.__post_init__ = counted_post_init

        # A dynamics iteration ends where the global clock advances.
        advance = search.GlobalClock.advance
        clock = self.tracer.clock

        def timed_advance(gclock):
            advance(gclock)
            if self._iter_start is not None:
                now = clock()
                self.iter_samples.append(now - self._iter_start)
                self._iter_start = now

        search.GlobalClock.advance = timed_advance

    def report(self) -> dict:
        """Per-name span totals, counters, iteration times and the kept
        spans, as JSON data."""
        names = {}
        for name, st in self.tracer.stats.items():
            entry = {"calls": st.calls, "total_s": st.total, "self_s": st.self_time}
            if st.samples is not None:
                us = [s * 1e6 for s in st.samples]
                entry["us"] = dict(summarize(us), p99=percentile(us, 99.0))
            names[name] = entry
        return {
            "spans": names,
            "counts": self.counts,
            "iter_ms": [s * 1e3 for s in self.iter_samples],
            "kept": self.tracer.spans,
        }
