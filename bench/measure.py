"""The benchmark's own arithmetic: nested spans, percentiles, failure tally.

Kept free of semiflow imports so the tests in test_measure.py can check it
on hand-made inputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

# Percentiles tried for a tail, highest first. A tail is reported only where
# at least TAIL_BEYOND samples lie beyond it, so it is never one outlier.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1] (numpy's default method)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def _supported(n: int, pct: float) -> bool:
    """At least TAIL_BEYOND of n samples lie beyond the pct-th percentile."""
    return round(n * (100.0 - pct) / 100.0, 9) >= TAIL_BEYOND


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples
    beyond it; None when n is too small for any."""
    for pct in TAIL_LADDER:
        if _supported(n, pct):
            return pct
    return None


def percentile(values, pct: float) -> float | None:
    """The pct-th percentile, or None when fewer than TAIL_BEYOND samples
    lie beyond it."""
    if not _supported(len(values), pct):
        return None
    return quantile(values, pct / 100.0)


def summarize(values) -> dict:
    """Sample count, median and the highest well-supported tail."""
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "tail_pct": None, "tail": None}
    pct = tail_percentile(n)
    return {
        "n": n,
        "p50": median(values),
        "tail_pct": pct,
        "tail": quantile(values, pct / 100.0) if pct is not None else None,
    }


@dataclass
class Tally:
    """Attempted and failed runs, with the reason for each failure."""

    attempted: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> bool:
        """Count one attempt; it failed when any problem was found."""
        self.attempted += 1
        if problems:
            self.reasons.append("; ".join(problems))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.reasons)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class SpanStat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    samples: list[float] | None = None


class Tracer:
    """Nested spans kept in memory.

    A span's self time is its duration minus the time covered by the spans
    opened inside it. Every span feeds per-name totals; spans of names given
    with record=True are also kept whole (name, start, end, parent index),
    which is affordable for coarse layers but not for the millions of graph
    lookups a dense search makes.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStat] = {}
        self.spans: list[tuple[str, float, float, int | None]] = []
        self._stack: list[list] = []  # [child_time, recorded index or None]

    def stat(self, name: str, samples: bool = False) -> SpanStat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStat(samples=[] if samples else None)
        return st

    def wrap(self, name: str, fn, samples: bool = False, record: bool = False):
        """Return fn wrapped in a span called name."""
        st = self.stat(name, samples)
        stack = self._stack
        clock = self.clock
        spans = self.spans

        def traced(*args, **kwargs):
            # frame[1] is the index of the nearest kept span, this one or an
            # enclosing one, so kept spans link to kept parents.
            parent = stack[-1][1] if stack else None
            frame = [0.0, parent]
            if record:
                frame[1] = len(spans)
                spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                st.calls += 1
                st.total += duration
                st.self_time += duration - frame[0]
                if st.samples is not None:
                    st.samples.append(duration)
                if record:
                    spans[frame[1]] = (name, start, end, parent)

        traced.__wrapped__ = fn
        return traced
