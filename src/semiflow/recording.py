"""Run artifacts: per-iteration metrics CSV, run manifest, audit log.

The metrics file holds one row per (iteration, node) and is flushed after
every iteration so a crashed run still leaves usable traces. Float cells,
numpy floats included, are written as repr's shortest round-trip form of a
Python float (integer-valued ones as ints), so every cell parses with
float() and byte-identical reproduction of a run is meaningful. Wallclock
never enters the CSV; it lives in the manifest, which is written before any
compute starts and rewritten with the end timestamp on completion.

The two line logs (metrics.csv, morphisms.jsonl) are LineFiles, appended to
and flushed as the run goes. Every whole JSON file is json_text written by
write_atomic, so it is replaced whole or not at all.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from typing import IO, Any, Iterable

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
    """One CSV cell: integer-valued floats below 1e15 as ints, other floats
    (numpy's included) in repr's shortest round-trip form of a Python
    float, ints and bools as integers."""
    if isinstance(value, float):
        if value.is_integer() and abs(value) < 1e15:
            return str(int(value))
        return repr(float(value))
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


class LineFile:
    """A text file opened once for writing line by line ("\n" line ends)
    and closed by close() or at the end of a with block; its writers
    flush after whole lines."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: IO[str] | None = open(path, "w", encoding="utf-8", newline="\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MetricsWriter(LineFile):
    """metrics.csv: the header, flushed on open, then one tick's rows per
    write_rows; a search flushes after every tick."""

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._fh.write(",".join(METRICS_COLUMNS) + "\n")
        self._fh.flush()

    def write_rows(
        self,
        iter_k: int,
        round_idx: int,
        tau_k: float,
        energy: float,
        rows: Iterable[tuple[int, float, float, float, float, float, float]],
    ) -> None:
        """One tick's rows, each (node_id, count, f, V_train, V_val, phi,
        moved): the cells every row of the tick shares are formatted once,
        and the rows go out in one write."""
        head = f"{_cell(iter_k)},{_cell(round_idx)},"
        tail = f",{_cell(tau_k)},{_cell(energy)},"
        self._fh.write("".join([
            f"{head}{','.join(map(_cell, row[:6]))}{tail}{_cell(row[6])}\n"
            for row in rows
        ]))

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
        self.write_rows(iter_k, round_idx, tau_k, energy,
                        [(node_id, count, f, v_train, v_val, phi, moved)])


class JsonlWriter(LineFile):
    """Append-only JSON-lines log, flushed per record."""

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def json_text(payload: Any) -> str:
    """The text of every whole JSON file and of the CLI's stdout: two-space
    indent, sorted keys, one closing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write text to path + ".tmp", then rename it onto path, so a write
    that fails or is killed leaves path as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
    write_atomic(path, json_text(payload))


def read_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
