"""Checks on the outputs of one `semiflow search` run, and its artifact digests.

Each check returns a list of problems; an empty list means the run's outputs
are correct. Any problem makes the run count as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from collections import defaultdict

SUMMARY_FIELDS = (
    "mode", "seed", "out_dir", "rounds", "architectures_explored",
    "param_count", "wallclock_seconds", "timed_out_rounds", "epochs",
    "val_loss", "val_accuracy", "test_loss", "test_accuracy",
)
# The artifacts that must repeat byte for byte for a fixed config and seed.
DIGESTED = ("metrics.csv", "best.json", "morphisms.jsonl")


def read_summary(stdout: str) -> tuple[dict | None, list[str]]:
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not one JSON summary: {exc}"]
    missing = [name for name in SUMMARY_FIELDS if name not in summary]
    return summary, [f"summary lacks {', '.join(missing)}"] if missing else []


def check_eval(cli_main, eval_args: list[str], out_dir: str, summary: dict) -> list[str]:
    """`semiflow eval` on best.json must reproduce test_accuracy exactly."""
    argv = ["eval", *eval_args, "--checkpoint", os.path.join(out_dir, "best.json"),
            "--split", "test"]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    if code != 0:
        return [f"eval exited {code}"]
    accuracy = json.loads(buffer.getvalue())["accuracy"]
    if accuracy != summary["test_accuracy"]:
        return [f"eval accuracy {accuracy!r} != summary {summary['test_accuracy']!r}"]
    return []


def audit_rounds(out_dir: str) -> dict[int, int]:
    """Children per round, from morphisms.jsonl."""
    children: dict[int, int] = defaultdict(int)
    with open(os.path.join(out_dir, "morphisms.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            children[json.loads(line)["round"]] += 1
    return dict(children)


def check_artifacts(out_dir: str, summary: dict, particles: bool) -> list[str]:
    """morphisms.jsonl has one line per explored child; metrics.csv (particle
    modes only) has one row per node and iteration, iterations numbered
    0, 1, 2, ... across rounds."""
    children = audit_rounds(out_dir)
    problems = []
    if sum(children.values()) != summary["architectures_explored"] - 1:
        problems.append(
            f"morphisms.jsonl has {sum(children.values())} children, summary "
            f"explored {summary['architectures_explored']} architectures"
        )
    metrics_path = os.path.join(out_dir, "metrics.csv")
    if not particles:
        if os.path.exists(metrics_path):
            problems.append("hillclimb wrote a metrics.csv")
        return problems
    rows: dict[int, dict[int, set]] = defaultdict(lambda: defaultdict(set))
    count = 0
    with open(metrics_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rows[int(row["round"])][int(row["iter"])].add(int(row["node_id"]))
            count += 1
    expected_iter = 0
    for round_idx in sorted(rows):
        nodes = set(range(children.get(round_idx, 0) + 1))
        for iter_k in sorted(rows[round_idx]):
            if iter_k != expected_iter or rows[round_idx][iter_k] != nodes:
                problems.append(
                    f"metrics.csv round {round_idx} iteration {iter_k} is not "
                    f"one row for each of its {len(nodes)} nodes"
                )
                return problems
            expected_iter += 1
    if count != sum(len(rows[r]) * (children.get(r, 0) + 1) for r in rows):
        problems.append("metrics.csv repeats a (node, iteration) row")
    if sorted(rows) != list(range(1, summary["rounds"] + 1)):
        problems.append(f"metrics.csv rounds {sorted(rows)} != summary rounds {summary['rounds']}")
    return problems


def digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in DIGESTED:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class DigestBook:
    """Digests of every (workload, seed) run on one source tree.

    Kept in a JSON file between benchmark runs; a repeat whose digests differ
    is a failed run. The book starts over when the source tree changes.
    """

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.runs: dict[str, dict[str, str]] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                stored = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return
        if stored.get("source") == source:
            self.runs = stored["runs"]

    def check(self, key: str, found: dict[str, str]) -> list[str]:
        known = self.runs.setdefault(key, found)
        differ = [name for name in DIGESTED if known.get(name) != found.get(name)]
        return [f"{', '.join(differ)} differ from an earlier run of {key}"] if differ else []

    def save(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump({"source": self.source, "runs": self.runs}, fh, indent=1, sort_keys=True)
