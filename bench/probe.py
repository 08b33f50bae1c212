"""Run `semiflow <args>` in this process and report where its time went.

    python3 bench/probe.py REPORT.json MODE SEMIFLOW_ARGS...

The search itself is unchanged: this file imports semiflow from the checkout's
src/ and marks the entry and exit of pretraining and final training with
time.monotonic(), the clock the parent used to stamp the spawn. MODE 1 also
wraps every layer (see layers.py); MODE setup stops at the first call into
pretraining, to sample set-up time alone; MODE 0 does neither. The marks and
the trace are written to REPORT.json just before exit; the exit code is
semiflow's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class SetupDone(Exception):
    """Raised at the first call into pretraining in setup mode."""


def mark_phases(search, marks: dict, stop_at_pretrain: bool) -> None:
    """Stamp the first entry and the exit of pretrain and final_train."""
    for attr in ("pretrain", "final_train"):
        fn = getattr(search, attr)

        def marked(*args, _fn=fn, _attr=attr, **kwargs):
            marks.setdefault(f"{_attr}_start", time.monotonic())
            if stop_at_pretrain:
                raise SetupDone
            try:
                return _fn(*args, **kwargs)
            finally:
                marks[f"{_attr}_end"] = time.monotonic()

        setattr(search, attr, marked)


def main(argv: list[str]) -> int:
    report_path, mode, semiflow_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    started = time.monotonic()
    import semiflow.cli as cli
    import semiflow.search as search

    report = {"import_s": time.monotonic() - started, "marks": {}}
    layers = None
    if mode == "1":
        from layers import Layers

        layers = Layers()
        layers.install()
    mark_phases(search, report["marks"], stop_at_pretrain=mode == "setup")
    try:
        return cli.main(semiflow_args)
    except SetupDone:
        return 0
    finally:
        if layers is not None:
            report["trace"] = layers.report()
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
