"""Run artifacts: per-iteration metrics CSV, run manifest, audit log.

The metrics file holds one row per (iteration, node) and is flushed after
every iteration so a crashed run still leaves usable traces. Float cells are
written with repr's shortest round-trip form, which makes byte-identical
reproduction of a run meaningful. Wallclock never enters the CSV; it lives in
the manifest, which is written before any compute starts and rewritten with
the end timestamp on completion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import IO, Any

METRICS_COLUMNS = (
    "iter",
    "round",
    "node_id",
    "count",
    "f",
    "V_train",
    "V_val",
    "phi",
    "tau_k",
    "energy",
    "moved",
)


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


@dataclass
class MetricsWriter:
    path: str
    _fh: IO[str] | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self._fh = open(self.path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(METRICS_COLUMNS) + "\n")
        self._fh.flush()

    def write_row(
        self,
        iter_k: int,
        round_idx: int,
        node_id: int,
        count: float,
        f: float,
        v_train: float,
        v_val: float,
        phi: float,
        tau_k: float,
        energy: float,
        moved: float,
    ) -> None:
        cells = (
            iter_k, round_idx, node_id, count, f, v_train, v_val,
            phi, tau_k, energy, moved,
        )
        self._fh.write(",".join(_cell(c) for c in cells) + "\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JsonlWriter:
    """Append-only JSON-lines log, flushed per record."""

    path: str
    _fh: IO[str] | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self._fh = open(self.path, "w", encoding="utf-8", newline="\n")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(
    path: str,
    config: dict,
    seed: int,
    version: str,
    outputs: list[str],
    started: str,
    ended: str | None = None,
) -> None:
    """Config snapshot plus provenance; enough to rerun the job exactly."""
    payload = {
        "config": config,
        "seed": seed,
        "version": version,
        "started": started,
        "ended": ended,
        "outputs": outputs,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
