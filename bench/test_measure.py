"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest bench/test_measure.py
"""

from __future__ import annotations

import json

import pytest

from checks import DigestBook, check_artifacts, read_summary
from measure import Tally, Tracer, percentile, quantile, summarize, tail_percentile


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    leaf = tracer.wrap("leaf", lambda: clock.tick(2.0))

    def middle():
        clock.tick(1.0)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle, record=True)

    def outer():
        clock.tick(0.5)
        middle()
        leaf()
        clock.tick(0.25)

    tracer.wrap("outer", outer, record=True)()

    stats = tracer.stats
    assert (stats["leaf"].calls, stats["leaf"].total, stats["leaf"].self_time) == (3, 6.0, 6.0)
    assert (stats["middle"].total, stats["middle"].self_time) == (5.0, 1.0)
    assert (stats["outer"].total, stats["outer"].self_time) == (7.75, 0.75)
    # Kept spans link to the nearest kept parent; leaf spans are not kept.
    assert tracer.spans == [("outer", 0.0, 7.75, None), ("middle", 0.5, 5.5, 0)]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fails():
        clock.tick(1.0)
        raise ValueError("boom")

    inner = tracer.wrap("inner", fails)

    def outer():
        with pytest.raises(ValueError):
            inner()
        clock.tick(1.0)

    tracer.wrap("outer", outer)()
    assert tracer.stats["inner"].calls == 1
    assert tracer.stats["outer"].self_time == 1.0


@pytest.mark.parametrize("n, pct", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_summarize_reports_median_and_tail():
    values = [float(v) for v in range(1, 1001)]
    out = summarize(list(reversed(values)))
    assert out["n"] == 1000
    assert out["p50"] == 500.5
    assert out["tail_pct"] == 99.0
    assert out["tail"] == pytest.approx(990.01)
    assert summarize([3.0]) == {"n": 1, "p50": 3.0, "tail_pct": None, "tail": None}
    assert summarize([])["p50"] is None


def test_fixed_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(999)), 99.0) is None
    assert percentile(list(range(1000)), 99.0) == quantile(list(range(1000)), 0.99)


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert tally.failed_share == 0.0
    assert tally.record([]) is True
    assert tally.record(["exit code 3"]) is False
    assert tally.record(["eval accuracy differs", "summary lacks epochs"]) is False
    assert tally.record([]) is True
    assert (tally.attempted, tally.failed, tally.failed_share) == (4, 2, 0.5)
    assert tally.reasons[1] == "eval accuracy differs; summary lacks epochs"


def test_summary_missing_a_field_is_a_problem():
    summary, problems = read_summary(json.dumps({"mode": "nasgd"}))
    assert summary == {"mode": "nasgd"}
    assert problems and "test_accuracy" in problems[0]
    assert read_summary("not json")[1]


def write_run(tmp_path, rows, children):
    with open(tmp_path / "metrics.csv", "w") as fh:
        fh.write("iter,round,node_id\n")
        fh.writelines(f"{k},{r},{g}\n" for k, r, g in rows)
    with open(tmp_path / "morphisms.jsonl", "w") as fh:
        for round_idx, n in children.items():
            fh.writelines(json.dumps({"round": round_idx}) + "\n" for _ in range(n))


def test_metrics_rows_cover_each_node_and_iteration(tmp_path):
    summary = {"architectures_explored": 4, "rounds": 2}
    rows = [(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1), (2, 2, 0), (2, 2, 1), (2, 2, 2)]
    write_run(tmp_path, rows, {1: 1, 2: 2})
    assert check_artifacts(str(tmp_path), summary, particles=True) == []

    write_run(tmp_path, rows[:-1], {1: 1, 2: 2})
    assert check_artifacts(str(tmp_path), summary, particles=True)
    write_run(tmp_path, rows + [(2, 2, 2)], {1: 1, 2: 2})
    assert check_artifacts(str(tmp_path), summary, particles=True)
    write_run(tmp_path, rows, {1: 1, 2: 1})
    assert check_artifacts(str(tmp_path), summary, particles=True)
    # hillclimb writes no metrics.csv at all
    write_run(tmp_path, rows, {1: 1, 2: 2})
    assert check_artifacts(str(tmp_path), summary, particles=False)


def test_digest_book_fails_a_repeat_that_differs(tmp_path):
    path = str(tmp_path / "digests.json")
    book = DigestBook(path, "src-a")
    first = {"metrics.csv": "1", "best.json": "2", "morphisms.jsonl": "3"}
    assert book.check("w/7", first) == []
    book.save()

    again = DigestBook(path, "src-a")
    assert again.check("w/7", dict(first)) == []
    assert again.check("w/7", dict(first, **{"best.json": "9"}))
    # A different source tree starts a new book.
    assert DigestBook(path, "src-b").check("w/7", {"best.json": "9"}) == []
