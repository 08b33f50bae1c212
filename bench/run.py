"""The semiflow benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a series of `semiflow search` processes, one search per
process, closed loop (the next search starts when the previous one exits).
Each workload searches a fixed panel of search seeds 0..K-1, where
--seconds sets K through the workload's searches per 30 s, so two commits
compared at the same settings run exactly the same searches. The workload
seed sets the order of the panel, so a slow moment of the machine falls on a
different search in each run. The search seeds are fixed because one
search's work depends on its seed far more than on the code's speed (see
NOTES.md). Every search's outputs are checked (checks.py) and its artifact
digests compared with earlier runs of the same source tree. With --trace 1
the same seeds also run once more under the layer tracer (layers.py), and
the pytest-benchmark micro cases (test_micro.py) run.

Times are reported at a reference machine speed. The shared 2-core box this
was tuned on changes speed from second to second, so a fixed numpy/Python
loop (reference_speed) runs for 0.3 s before the first search and after each
one, and every search's times are scaled by the mean speed measured around
it over REFERENCE_SPEED. The raw seconds stay in the result file.

Prints one line per metric, then, as the last line, the JSON result:
{"correct", "attempted", "failed", "metrics"}. Full details go to
bench/.out/result-<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import DigestBook, check_artifacts, check_eval, digests, read_summary
from measure import Tally, median, percentile, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
RUN_LIMIT_S = 170.0     # every run must exit within 180 s
SETUP_SAMPLES = 5       # set-up is measured at least this often per run
REFERENCE_SPEED = 88_000.0  # median reference_speed() on that box
TIMES = ("total_s", "setup_s", "search_s", "final_s")


@dataclass(frozen=True)
class Workload:
    mode: str
    per_30s: int        # searches per 30 s of --seconds
    extra: tuple[str, ...] = ()
    config: str | None = None   # a config file next to this one

    def args(self) -> list[str]:
        config = ["--config", str(HERE / self.config)] if self.config else []
        return ["--mode", self.mode, *DATA_ARGS, *self.extra, *config]

    def definition(self) -> str:
        """Short digest of the arguments and config file, so that artifacts
        of a changed workload are never compared with old ones."""
        text = json.dumps([self.mode, self.extra,
                           (HERE / self.config).read_text() if self.config else None])
        return hashlib.sha256(text.encode()).hexdigest()[:12]


DATA_ARGS = ("--data", "spirals")
WORKLOADS = {
    "nasgd-spirals": Workload(
        "nasgd", 8,     # 3.6 s a search on a 2-core x86 box
    ),
    "nasagd-dense": Workload(
        "nasagd", 5,    # 7.5 s a search; more than 30 s, to average drift
        extra=("--n-steps", "0.5"), config="dense.json",
    ),
    "hillclimb-spirals": Workload(
        "hillclimb", 5,  # 6.5 s a search
    ),
}

E2E_UNITS = {
    "total_s": "s", "setup_s": "s", "search_s": "s", "final_s": "s",
    "test_accuracy": "fraction", "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics but not bounded (NOTES.md): at a fixed
# iteration budget archs_per_search_s counts doublings more than speed, and
# failed_share is 0 when all is well.
E2E_PRINTED = {"archs_per_search_s": "1/s", "failed_share": "fraction"}


def reference_speed(seconds: float = 0.3) -> float:
    """Iterations per second of a fixed loop shaped like semiflow's inner
    loop: small matrix products, a softmax-like reduction, a dict update."""
    import numpy as np

    rng = np.random.default_rng(0)
    inputs, weights = rng.normal(size=(64, 16)), rng.normal(size=(16, 16))
    sums: dict[int, float] = {}
    done = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        for i in range(50):
            h = np.maximum(inputs @ weights, 0.0)
            sums[i % 97] = sums.get(i % 97, 0.0) + float(np.exp(h - h.max()).sum())
        done += 50
    return done / (time.perf_counter() - started)


def panel(workload_seed: int, count: int) -> list[int]:
    """Search seeds 0..count-1, rotated by the workload seed."""
    start = workload_seed % count
    return [(start + i) % count for i in range(count)]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "semiflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is no git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(workload_seed: int, seeds: list[int]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            name: os.environ.get(name, "unset")
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "workload_seed": workload_seed,
        "search_seeds": seeds,
    }


def spawn(argv: list[str], stdout_path: Path, limit_s: float):
    """Run argv to its end; return (exit code, spawn time, exit time, peak
    RSS in MB, killed). The child is killed after limit_s seconds."""
    env = {k: v for k, v in os.environ.items() if k != "SEMIFLOW_SEED"}
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        guard = threading.Timer(max(limit_s, 1.0), proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            ended = time.monotonic()
            guard.cancel()
            guard.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    killed = proc.returncode < 0
    return proc.returncode, started, ended, usage.ru_maxrss / 1024.0, killed


class Bench:
    """One workload's searches in one run, with their checks and tallies."""

    def __init__(self, name: str, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.deadline = deadline
        self.out = OUT / name
        self.tally = Tally()
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import semiflow.cli
        from semiflow.nn import NetSpec, param_count

        self.cli_main = semiflow.cli.main
        # every workload searches spirals: 2 features, 2 classes
        self.start_params = lambda hidden: param_count(NetSpec(2, 2, tuple(hidden)))
        self.source = source_digest()
        self.book = DigestBook(str(OUT / "digests.json"), self.source)
        with open(HERE / "goldens.json", encoding="utf-8") as fh:
            self.golden = json.load(fh)["runs"]
        self.golden_seen = {"matched": 0, "differed": 0, "unknown": 0}
        self.speed = reference_speed()

    def search(self, seed: int, trace: bool = False, setup_only: bool = False) -> dict | None:
        """One search process; returns its row, or None when it failed."""
        tag = f"s{seed}{'-trace' if trace else ''}{'-setup' if setup_only else ''}"
        out_dir = self.out / tag
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        report_path = self.out / f"{tag}.probe.json"
        mode = "setup" if setup_only else str(int(trace))
        argv = [sys.executable, str(HERE / "probe.py"), str(report_path), mode,
                "search", *self.workload.args(), "--seed", str(seed),
                "--out", str(out_dir)]
        limit = self.deadline - time.monotonic()
        code, started, ended, rss_mb, killed = spawn(
            argv, self.out / f"{tag}.stdout", limit
        )
        speed_before, self.speed = self.speed, reference_speed()
        scale = (speed_before + self.speed) / 2.0 / REFERENCE_SPEED
        if setup_only:
            if code != 0:
                return None
            marks = json.loads(report_path.read_text())["marks"]
            return {"setup_s": (marks["pretrain_start"] - started) * scale}
        problems = [f"killed after {limit:.0f} s" if killed else f"exit code {code}"] if code else []
        summary = None
        if not problems:
            summary, problems = read_summary((self.out / f"{tag}.stdout").read_text())
        if not problems:
            problems = check_eval(
                self.cli_main, [*DATA_ARGS, "--seed", str(seed)], str(out_dir), summary
            )
            problems += check_artifacts(
                str(out_dir), summary, particles=self.workload.mode != "hillclimb"
            )
            found = digests(str(out_dir))
            digest_key = f"{self.name}/{self.workload.definition()}/{seed}"
            problems += self.book.check(digest_key, found)
            golden = self.golden.get(digest_key)
            verdict = "unknown" if golden is None else (
                "matched" if golden == found else "differed")
            self.golden_seen[verdict] += 1
        if not self.tally.record(problems):
            return None
        report = json.loads(report_path.read_text())
        marks = report["marks"]
        manifest = json.loads((out_dir / "manifest.json").read_text())["config"]
        raw = {
            "total_s": ended - started,
            "setup_s": marks["pretrain_start"] - started,
            "search_s": marks["final_train_start"] - marks["pretrain_end"],
            "final_s": marks["final_train_end"] - marks["final_train_start"],
        }
        row = {
            "seed": seed,
            **{key: value * scale for key, value in raw.items()},
            "raw": raw,
            "speed_scale": scale,
            "import_s": report["import_s"],
            "peak_rss_mb": rss_mb,
            "test_accuracy": summary["test_accuracy"],
            "architectures_explored": summary["architectures_explored"],
            "rounds": summary["rounds"],
            "timed_out_rounds": summary["timed_out_rounds"],
            "final_budget_share": summary["epochs"] / manifest["final.budget"],
            "start_params": self.start_params(manifest["net.hidden"]),
            "final_params": summary["param_count"],
            "recording_bytes": sum(
                (out_dir / name).stat().st_size
                for name in ("metrics.csv", "morphisms.jsonl")
                if (out_dir / name).exists()
            ),
        }
        if trace:
            row["trace"] = report["trace"]
        return row


def end_to_end(rows: list[dict], setup: list[float]) -> dict:
    """Means over the panel for what differs from search to search, medians
    for what every search repeats (set-up, memory)."""
    values = {  # fsum: the same panel in another order gives the same mean
        name: math.fsum(row[name] for row in rows) / len(rows)
        for name in ("total_s", "search_s", "final_s", "test_accuracy")
    }
    values["setup_s"] = median(setup)
    values["peak_rss_mb"] = median([row["peak_rss_mb"] for row in rows])
    return values


def per_layer(plain: list[dict], traced: list[dict], micro: dict) -> dict:
    """Per-layer metrics: per-search means over the traced searches, medians
    for per-call percentiles."""
    n = len(traced)
    traces = [row["trace"] for row in traced]

    def mean(fn) -> float:
        return sum(fn(t) for t in traces) / n

    def span(name: str, field: str = "self_s") -> float:
        return mean(lambda t: t["spans"].get(name, {}).get(field, 0))

    def count(name: str) -> float:
        return mean(lambda t: t["counts"][name])

    def pct(name: str, key: str) -> float:
        found = [t["spans"][name]["us"][key] for t in traces
                 if t["spans"].get(name, {}).get("us", {}).get(key) is not None]
        return median(found) if found else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "cli.import_s": median([row["import_s"] for row in traced]),
        "config.build_s": span("config.build", "total_s"),
        "nn.mean_params_per_step": ratio(count("param_steps"),
                                         span("nn.loss_and_grad", "calls")),
        "nn.save_checkpoint.bytes": count("checkpoint_bytes"),
        "dynamics.movers": count("movers"),
        "dynamics.potential_resets": count("potential_resets"),
        "dynamics.restart_fires": count("restart_fires"),
        "morphisms.draw_accept_ratio": ratio(count("admissible_draws"), count("draws")),
        "data.streams_built": count("streams_built"),
        "recording.bytes": sum(r["recording_bytes"] for r in traced) / n,
    }
    for name in ("nn.loss_and_grad", "nn.loss_only"):
        out[f"{name}.p50_us"] = pct(name, "p50")
        out[f"{name}.p99_us"] = pct(name, "p99")
    for name in ("nn.loss_and_grad", "nn.loss_only", "nn.evaluate", "nn.save_checkpoint",
                 "dynamics.train_step", "dynamics.rates", "dynamics.mutation",
                 "dynamics.potential", "dynamics.restart", "dynamics.energy",
                 "graph.neighbors", "graph.kernel", "objective.clip_gradient",
                 "objective.eval_val", "morphisms.build_local_graph",
                 "data.next_batch", "recording.write_row", "recording.flush"):
        out[f"{name}.calls"] = span(name, "calls")
        out[f"{name}.self_s"] = span(name)
    rounds = sum(row["rounds"] for row in traced)
    # Iteration times are pooled: one dense search has fewer iterations
    # than a p95 needs.
    iter_ms = [ms for t in traces for ms in t["iter_ms"]]
    iter_p95 = percentile(iter_ms, 95.0)
    out.update({
        "search.pretrain_s": span("search.pretrain", "total_s"),
        "search.rounds": rounds / n,
        "search.iterations": len(iter_ms) / n,
        "search.candidate_steps": count("candidate_steps"),
        "search.iter_p50_ms": median(iter_ms) if iter_ms else 0.0,
        "search.iter_p95_ms": iter_p95 if iter_p95 is not None else 0.0,
        "search.self_s": mean(lambda t: sum(
            v["self_s"] for k, v in t["spans"].items() if k.startswith("search."))),
        "search.adopt_share": ratio(sum(t["counts"]["adopted_rounds"] for t in traces),
                                    sum(t["counts"]["rounds"] for t in traces)),
        "search.timeout_share": ratio(sum(r["timed_out_rounds"] for r in traced), rounds),
        "search.final_budget_share": median([r["final_budget_share"] for r in traced]),
        "search.archs_per_search_s": archs_per_search_s(plain),
        "trace.overhead_s": trace_overhead(plain, traced),
    })
    out.update(micro)
    return out


def trace_overhead(plain: list[dict], traced: list[dict]) -> float:
    """Mean traced minus plain total_s over the seeds run both ways."""
    plain_total = {row["seed"]: row["total_s"] for row in plain}
    pairs = [(row["total_s"], plain_total[row["seed"]])
             for row in traced if row["seed"] in plain_total]
    return sum(t - p for t, p in pairs) / len(pairs) if pairs else 0.0


def archs_per_search_s(rows: list[dict]) -> float:
    return (sum(r["architectures_explored"] for r in rows)
            / sum(r["search_s"] for r in rows))


MICRO_METRICS = {
    "test_loss_and_grad[small]": "micro.loss_and_grad.small_us",
    "test_loss_and_grad[hill]": "micro.loss_and_grad.hill_us",
    "test_loss_only[small]": "micro.loss_only.small_us",
    "test_loss_only[hill]": "micro.loss_only.hill_us",
    "test_train_step": "micro.train_step_us",
    "test_dynamics_step[9]": "micro.dynamics_step.n9_us",
    "test_dynamics_step[49]": "micro.dynamics_step.n49_us",
    "test_write_row": "micro.write_row_us",
}


def run_micro(tally: Tally, limit_s: float) -> dict:
    """The pytest-benchmark cases, as median microseconds per call."""
    report = OUT / "micro.json"
    report.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "pytest", str(HERE / "test_micro.py"), "-q",
            "-p", "no:cacheprovider", "--benchmark-only",
            "--benchmark-max-time=0.5", f"--benchmark-json={report}",
            f"--benchmark-storage=file://{OUT / 'benchmarks'}"]
    code, *_ = spawn(argv, OUT / "micro.stdout", limit_s)
    if not tally.record([f"micro benchmarks exited {code}"] if code else []):
        return dict.fromkeys(MICRO_METRICS.values(), 0.0)
    cases = json.loads(report.read_text())["benchmarks"]
    return {MICRO_METRICS[c["name"]]: c["stats"]["median"] * 1e6 for c in cases}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    bench = Bench(name, started + RUN_LIMIT_S)
    count = bench.workload.per_30s * seconds / 30.0
    if trace:
        count /= 3.0    # a traced seed runs plain, then traced
    seeds = panel(seed, max(1, round(count)))

    plain, traced, setup = [], [], []
    for s in seeds:
        row = bench.search(s)
        if row is not None:
            plain.append(row)
            setup.append(row["setup_s"])
        if trace:
            row = bench.search(s, trace=True)
            if row is not None:
                traced.append(row)
    for i in range(SETUP_SAMPLES - len(seeds)):
        row = bench.search(seeds[i % len(seeds)], setup_only=True)
        if bench.tally.record([] if row else ["set-up probe failed"]):
            setup.append(row["setup_s"])
    micro = run_micro(bench.tally, bench.deadline - time.monotonic()) if trace else {}
    bench.book.save()

    result = {
        "workload": name,
        "provenance": provenance(seed, seeds),
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "failures": bench.tally.reasons,
        "golden": bench.golden_seen,
        "searches": plain,
        "traced": traced,
        "setup_samples": setup,
    }
    if plain:
        result["end_to_end"] = dict(end_to_end(plain, setup),
                                    archs_per_search_s=archs_per_search_s(plain),
                                    failed_share=bench.tally.failed_share)
        result["raw_medians"] = {
            key: median([row["raw"][key] for row in plain]) for key in TIMES
        }
        result["speed_scale"] = median([row["speed_scale"] for row in plain])
        result["timing_summary"] = {
            key: summarize([row[key] for row in plain])
            for key in ("total_s", "search_s", "final_s")
        }
    if traced:
        result["per_layer"] = per_layer(plain, traced, micro)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{name}-s{seed}-t{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_result(result: dict, trace: bool) -> dict | None:
    """Human-readable lines; returns the contract's result object."""
    name = result["workload"]
    n = len(result["searches"])
    print(f"# {name}: {n} searches, {result['attempted']} attempted, "
          f"{result['failed']} failed, golden digests {result['golden']}")
    for reason in result["failures"]:
        print(f"# failure: {reason}")
    if "end_to_end" not in result or (trace and "per_layer" not in result):
        return None
    print(f"# raw seconds {result['raw_medians']}, speed scale {result['speed_scale']:.3f}")
    units = dict(E2E_UNITS, **E2E_PRINTED)
    for key, value in result["end_to_end"].items():
        print(f"{name} {key} {value:.6g} {units[key]}")
    if trace:
        metrics = {key: {"value": value, "unit": unit_of(key)}
                   for key, value in result["per_layer"].items()}
        for key, entry in metrics.items():
            print(f"{name} {key} {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {key: {"value": result["end_to_end"][key], "unit": unit}
                   for key, unit in E2E_UNITS.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def unit_of(metric: str) -> str:
    if metric == "search.archs_per_search_s":
        return "1/s"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), (".bytes", "B")):
        if metric.endswith(suffix):
            return unit
    if metric.endswith(("_share", "_ratio")):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "semiflow" / "cli.py").is_file():
        print(f"no semiflow sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        outcome = print_result(
            measure(name, args.seed, args.seconds, bool(args.trace)), bool(args.trace)
        )
        if outcome is None:
            print(f"{name}: no search succeeded", file=sys.stderr)
            return 1
        outcomes[name] = outcome
    print(json.dumps(outcomes[names[0]] if len(names) == 1 else outcomes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
