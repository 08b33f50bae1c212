"""Subcommand behavior, exit codes, and artifact layout."""

import contextlib
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow import cli, search
from semiflow.recording import METRICS_COLUMNS, read_json
from conftest import SRC, run_cli


def run_cli_all(argv):
    """Like run_cli but also captures stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path, overrides):
    base = {"data.kind": "blobs", "data.n": 300, "search.mode": "nasgd",
            "search.seed": 1, "search.epochs_neigh": 2,
            "search.n_particles": 20, "search.n_steps": 0.3,
            "pretrain.epochs": 2, "final.budget": 5}
    base.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(base))
    return str(p)


def test_search_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, {})
    out_dir = str(tmp_path / "run")
    code, summary = run_cli(["search", "--config", cfg, "--out", out_dir])
    assert code == 0
    for name in ("manifest.json", "metrics.csv", "best.json", "morphisms.jsonl"):
        assert os.path.exists(os.path.join(out_dir, name))
    assert summary["mode"] == "nasgd"
    assert summary["architectures_explored"] >= 1
    manifest = read_json(os.path.join(out_dir, "manifest.json"), "manifest")
    assert manifest["ended"] is not None
    assert manifest["config"]["search.n_particles"] == 20


@pytest.mark.parametrize("mode", ["nasgd", "nasagd", "hillclimb"])
def test_rerun_summary_differs_only_in_out_dir_and_wallclock(tmp_path, mode):
    # Criterion 12's run, long enough for two rounds in every mode (the
    # first nasgd round times out).
    cfg = write_config(tmp_path, {
        "data.n": 600, "data.seed": 3, "search.mode": mode, "search.seed": 5,
        "search.epochs_neigh": 4, "search.n_particles": 50, "search.n_steps": 6,
        "pretrain.epochs": 4, "final.budget": 20})
    summaries = []
    for run in ("a", "b"):
        out_dir = str(tmp_path / run)
        code, summary = run_cli(["search", "--config", cfg, "--out", out_dir])
        assert code == 0
        assert summary.pop("out_dir") == out_dir
        assert summary.pop("wallclock_seconds") > 0
        summaries.append(summary)
    assert summaries[0]["rounds"] >= 2
    assert summaries[0] == summaries[1]


def test_search_hillclimb_artifacts(tmp_path):
    cfg = write_config(tmp_path, {"search.n_neigh": 3})
    out_dir = str(tmp_path / "run")
    code, summary = run_cli(["search", "--config", cfg, "--mode", "hillclimb",
                             "--out", out_dir])
    assert code == 0
    assert summary["mode"] == "hillclimb"
    outputs = ["manifest.json", "best.json", "morphisms.jsonl"]
    assert sorted(os.listdir(out_dir)) == sorted(outputs)
    manifest = read_json(os.path.join(out_dir, "manifest.json"), "manifest")
    assert manifest["outputs"] == outputs
    assert manifest["config"]["search.mode"] == "hillclimb"
    audit = Path(out_dir, "morphisms.jsonl").read_text().splitlines()
    assert len(audit) == summary["architectures_explored"] - 1
    code, report = run_cli(["eval", "--config", cfg,
                            "--checkpoint", os.path.join(out_dir, "best.json")])
    assert code == 0
    assert report["accuracy"] == summary["test_accuracy"]


@pytest.mark.parametrize("mode", ["nasgd", "nasagd", "hillclimb"])
def test_manifest_lists_exactly_the_files_written(mode, tmp_path):
    cfg = write_config(tmp_path, {"search.n_neigh": 3})
    out_dir = str(tmp_path / "run")
    code, summary = run_cli(["search", "--config", cfg, "--mode", mode,
                             "--out", out_dir])
    assert code == 0
    manifest = read_json(os.path.join(out_dir, "manifest.json"), "manifest")
    assert sorted(os.listdir(out_dir)) == sorted(manifest["outputs"])
    # One counting rule in every mode: each explored child but the start
    # network has one audit record, and the records number rounds 1..rounds.
    with open(os.path.join(out_dir, "morphisms.jsonl")) as fh:
        audit = [json.loads(line) for line in fh]
    assert len(audit) == summary["architectures_explored"] - 1
    assert {record["round"] for record in audit} == set(range(1, summary["rounds"] + 1))


def test_search_missing_data_kind(tmp_path, caplog):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"search.mode": "nasgd"}))
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(["search", "--config", str(p),
                                      "--out", str(tmp_path / "r")])
    assert code == 2
    assert "data.kind" in caplog.text


def test_search_unknown_key(tmp_path, caplog):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"data.kind": "blobs", "serach.mode": "nasgd"}))
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(["search", "--config", str(p),
                                      "--out", str(tmp_path / "r")])
    assert code == 2
    assert "serach.mode" in caplog.text


@pytest.mark.parametrize("key, value", [
    pytest.param("dynamics.gamma", 0.3, id="dynamics.gamma"),
    pytest.param("dynamics.friction_potential", True, id="dynamics.friction_potential"),
    pytest.param("dynamics.speed_penalty", True, id="dynamics.speed_penalty"),
    pytest.param("dynamics.restart_literal", True, id="dynamics.restart_literal"),
    pytest.param("dynamics.flow", "sideways", id="dynamics.flow"),
    pytest.param("dynamics.entropy", "shannon", id="dynamics.entropy"),
    pytest.param("dynamics.pure_gradient", True, id="dynamics.pure_gradient"),
])
def test_removed_dynamics_key_exits_2(key, value, tmp_path, caplog):
    # A manifest of an older run that still carries a removed key.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": {"data.kind": "blobs", key: value}}))
    out_dir = tmp_path / "run"
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(["search", "--config", str(manifest),
                                      "--out", str(out_dir)])
    assert code == 2
    assert out == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage() == f"unknown config key: {key}"
    assert not out_dir.exists()


NO_KINDS = {f"morphisms.p_{kind}": 0.0 for kind in sf.ALL_KINDS}


@pytest.mark.parametrize("overrides, message", [
    pytest.param(NO_KINDS, "no positive weights", id="all-weights-zero"),
    pytest.param({"morphisms.p_widen": float("inf")}, "widen", id="infinite-weight"),
    pytest.param({"morphisms.p_narrow": float("nan")}, "narrow", id="nan-weight"),
    pytest.param({"morphisms.p_deepen": -0.5}, "deepen", id="negative-weight"),
    pytest.param({"search.topology": "ring"}, "topology", id="topology"),
    pytest.param({"search.n_neigh": 0}, "n_neigh", id="n_neigh"),
    pytest.param({"dynamics.kappa": 0.0}, "kappa", id="kappa"),
    pytest.param({"dynamics.beta": 0.0}, "beta", id="beta"),
    pytest.param({"dynamics.rate_mode": "fast"}, "rate_mode", id="rate_mode"),
    pytest.param({"dynamics.val_decay": 1.5}, "val_decay", id="val_decay"),
    pytest.param({"net.hidden": [0]}, "hidden", id="hidden"),
    pytest.param({"search.s_x": 0}, "s_x", id="s_x"),
    pytest.param({"search.s_y": 0}, "s_y", id="s_y"),
    pytest.param({"final.budget": -1}, "final.budget", id="final_budget"),
    pytest.param({"search.round_timeout_factor": 0.0}, "round_timeout_factor",
                 id="round_timeout_factor"),
    pytest.param({"dynamics.damping": -1.0}, "damping", id="damping"),
    pytest.param({"search.n_steps": float("inf")}, "n_steps", id="infinite-n_steps"),
    pytest.param({"search.round_timeout_factor": float("inf")}, "round_timeout_factor",
                 id="infinite-round_timeout_factor"),
    pytest.param({"pretrain.lam_start": -1.0}, "pretrain.lam_start",
                 id="pretrain_lam_start"),
    pytest.param({"pretrain.epochs": -3}, "pretrain.epochs", id="pretrain_epochs"),
    pytest.param({"dynamics.kappa": 10**400}, "kappa", id="integer-beyond-float-kappa"),
    pytest.param({"dynamics.kappa": float("inf")}, "kappa", id="infinite-kappa"),
    pytest.param({"dynamics.beta": float("inf")}, "beta", id="infinite-beta"),
    pytest.param({"search.grad_clip": float("nan")}, "grad_clip", id="nan-grad_clip"),
    pytest.param({"final.plateau_tol": float("nan")}, "plateau_tol",
                 id="nan-plateau_tol"),
    # Each of these once trained (exit 3) or ran to exit 0, but for the NaN
    # spread, which exited 2 without naming the key.
    pytest.param({"dynamics.damping": float("inf")}, "damping must be in [0, inf)",
                 id="infinite-damping"),
    pytest.param({"search.lam_start": float("inf")}, "lam_start must be in (0, inf)",
                 id="infinite-lam_start"),
    # An interval error names the key as written, not the field it sets.
    pytest.param({"pretrain.lam_start": float("inf")},
                 "config key pretrain.lam_start must be in (0, inf), got inf",
                 id="infinite-pretrain_lam_start"),
    pytest.param({"final.plateau_cycles": 0},
                 "config key final.plateau_cycles must be in [1, inf), got 0",
                 id="zero-plateau_cycles"),
    pytest.param({"final.plateau_cycles": -2}, "plateau_cycles must be in [1, inf)",
                 id="negative-plateau_cycles"),
    pytest.param({"data.kind": "spirals", "data.noise": float("nan")},
                 "noise must be in [0, inf), got nan", id="nan-spirals-noise"),
    pytest.param({"data.spread": float("nan")}, "spread must be in [0, inf), got nan",
                 id="nan-blobs-spread"),
    # Each of these once ended in a numpy traceback, exit 1.
    pytest.param({"data.kind": "spirals", "data.seed": -1},
                 "config key data.seed must be in [0, inf), got -1",
                 id="negative-data-seed"),
    pytest.param({"data.kind": "spirals", "data.n": -4}, "n must be in [0, inf), got -4",
                 id="negative-spirals-n"),
    # Sizes numpy cannot represent, refused before anything is allocated.
    pytest.param({"data.kind": "spirals", "data.n": 1e300},
                 "features are more than numpy can hold", id="huge-spirals-n"),
    pytest.param({"data.kind": "blobs", "data.n": 1e300},
                 "features are more than numpy can hold", id="huge-blobs-n"),
    pytest.param({"data.kind": "blobs", "data.d": 1e300},
                 "features are more than numpy can hold", id="huge-blobs-d"),
    pytest.param({"data.kind": "spirals", "data.n": 4e18},
                 "4000000000000000000 rows of 2 features are more than numpy can hold",
                 id="spirals-n-past-the-array-size"),
    # Past a C long, the first sampled move draw raised an OverflowError.
    pytest.param({"search.n_particles": 10**31},
                 "n_particles must be in [1, 1e15], got 1.00000e+31",
                 id="n_particles-past-a-c-long"),
])
def test_bad_config_value_exits_2_before_running(overrides, message, tmp_path,
                                                 caplog):
    # Each of these once passed the config build and failed mid-run.
    out_dir = tmp_path / "run"
    argv = ["search", "--config", write_config(tmp_path, overrides),
            "--out", str(out_dir)]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(argv)
    assert code == 2
    assert out == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert message in record.getMessage()
    assert "\n" not in record.getMessage()
    assert not out_dir.exists()


@pytest.mark.parametrize("n, message", [
    pytest.param(1e300, "1.00000e+300 rows of 2 features are more than numpy can hold",
                 id="huge-n"),
    pytest.param(-1e300, "config key data.n must be in [0, inf), got -1.00000e+300",
                 id="huge-negative-n"),
])
def test_huge_integer_keeps_the_error_line_short(n, message, tmp_path, caplog):
    # data.n is coerced to a 301-digit int, which once went on the ERROR line
    # digit by digit.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data.kind": "spirals", "data.n": n}))
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(["graph-dump", "--config", str(config)])
    assert code == 2
    assert out == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage() == message
    assert len(record.getMessage()) < 80


SPIRALS_ONE_CLASS = {"data.kind": "spirals", "data.n": 200, "data.classes": 1}


@pytest.mark.parametrize("argv, overrides, key", [
    pytest.param(["graph-dump"], SPIRALS_ONE_CLASS, "data.classes", id="graph-dump"),
    pytest.param(["pretrain"], SPIRALS_ONE_CLASS, "data.classes", id="pretrain"),
    pytest.param(["eval", "--data", "blobs", "--checkpoint", "net.json"],
                 {"search.n_neigh": 0}, "search.n_neigh", id="eval"),
    pytest.param(["dynamics-bench", "--iters", "2"], {"dynamics.kappa": -1},
                 "dynamics.kappa", id="dynamics-bench"),
    pytest.param(["graph-dump", "--checkpoint", "net.json"],
                 {"data.kind": "spirals", "data.n": -4}, "data.n",
                 id="graph-dump-checkpoint"),
])
def test_every_command_judges_every_key(argv, overrides, key, tmp_path, monkeypatch,
                                        caplog):
    # Each of these once exited 0: the command never built the part of the
    # config that reads the key (spirals reads no data.classes, eval builds
    # no SearchConfig, dynamics-bench reads only search.seed, and graph-dump
    # on a checkpoint builds no dataset).
    monkeypatch.chdir(tmp_path)
    save_blobs_checkpoint("net.json")
    Path("config.json").write_text(json.dumps(overrides))
    before = sorted(os.listdir())
    argv = [*argv, "--config", "config.json"]
    if argv[0] != "eval":
        argv += ["--out", "out/out.json"]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(argv)
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert one_error(caplog).startswith(f"config key {key} must be in ")
    assert sorted(os.listdir()) == before


@pytest.mark.parametrize("overrides, message", [
    pytest.param({"search.topology": "ring"}, "unknown topology 'ring'", id="topology"),
    pytest.param({"dynamics.rate_mode": "fast"}, "unknown rate_mode 'fast'",
                 id="rate-mode"),
    pytest.param({"search.lam_start": 1e-9}, "need lam_start > lam_final, got 1e-09/1e-07",
                 id="lam"),
    pytest.param({"pretrain.lam_final": 0.5},
                 "need pretrain_lam_start > pretrain_lam_final, got 0.5/0.5",
                 id="pretrain-lam"),
    pytest.param({"net.hidden": [16, 0]}, "hidden widths must be positive, got (16, 0)",
                 id="hidden"),
    pytest.param({"morphisms.p_deepen": -1.0},
                 "morphism weight for deepen must be finite and nonnegative, got -1.0",
                 id="mix"),
])
@pytest.mark.parametrize("argv", [
    pytest.param(["eval", "--data", "spirals", "--checkpoint", "net.json"], id="eval"),
    pytest.param(["dynamics-bench", "--iters", "2", "--out", "out"], id="dynamics-bench"),
])
def test_every_command_judges_every_rule(argv, overrides, message, tmp_path, monkeypatch,
                                         caplog):
    # The rules that are not intervals once held only in the commands that
    # ran a search: eval and dynamics-bench exited 0 on each of these.
    monkeypatch.chdir(tmp_path)
    spec = sf.NetSpec(2, 2, (4,))
    sf.save_checkpoint("net.json", spec, sf.init_params(spec, np.random.default_rng(0)))
    Path("config.json").write_text(json.dumps(overrides))
    before = sorted(os.listdir())
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all([*argv, "--config", "config.json"])
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert one_error(caplog) == message
    assert sorted(os.listdir()) == before


def test_pretrain_refuses_a_short_train_split_before_its_out(tmp_path, caplog):
    # This once made new/sub, then exited 2 from pretraining with the
    # batch stream's wording; search refused it before its run directory.
    cfg = write_config(tmp_path, {"data.n": 40})
    out = tmp_path / "new" / "sub" / "p.json"
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all(["pretrain", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    assert one_error(caplog) == "train split of 28 rows cannot fill a batch of 64"
    assert not (tmp_path / "new").exists()


def test_pretrain_of_no_epochs_takes_a_short_train_split(tmp_path):
    cfg = write_config(tmp_path, {"data.n": 40, "pretrain.epochs": 0})
    out = tmp_path / "new" / "p.json"
    code, report = run_cli(["pretrain", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert report["checkpoint"] == str(out)
    assert report["final_loss"] == report["initial_loss"]
    spec, params = sf.load_checkpoint(str(out))
    assert len(params) == sf.param_count(spec) == report["param_count"]


@pytest.mark.parametrize("overrides", [
    # 388 is the start network's own count, so it passes the start check
    # and every deepened child is over the cap.
    pytest.param({**NO_KINDS, "morphisms.p_deepen": 1.0, "constraints.max_params": 388},
                 id="max_params"),
    pytest.param({**NO_KINDS, "morphisms.p_remove_skip": 1.0}, id="remove_skip-only"),
])
def test_no_admissible_morphism_exits_2(overrides, tmp_path, caplog):
    argv = ["search", "--config", write_config(tmp_path, overrides),
            "--out", str(tmp_path / "run")]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(argv)
    assert code == 2
    assert out == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert "no admissible morphism" in record.getMessage()


@pytest.mark.parametrize("command", ["search", "pretrain", "graph-dump"])
def test_start_network_over_max_params_exits_2(command, tmp_path, caplog):
    argv = [command, "--config", write_config(tmp_path, {"constraints.max_params": 387}),
            "--out", str(tmp_path / "out")]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(argv)
    assert code == 2
    assert out == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage() == (
        "the start network has 388 parameters, over constraints.max_params 387"
    )


@pytest.mark.parametrize("command", ["search", "pretrain", "graph-dump"])
def test_single_class_data_exits_2_before_its_output(command, tmp_path, caplog):
    # A NetSpec with one class once raised a ValueError traceback (exit 1).
    csv = tmp_path / "one_class.csv"
    csv.write_text("".join(f"{i * 0.1},{-i * 0.2},0\n" for i in range(60)))
    cfg = write_config(tmp_path, {"data.kind": "csv", "data.path": str(csv)})
    out = tmp_path / "out"
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all([command, "--config", cfg, "--out", str(out)])
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert "needs at least two classes" in record.getMessage()
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    pytest.param({"constraints.max_params": 100},
                 "the start network has 354 parameters, over constraints.max_params 100",
                 id="start-over-max_params"),
    pytest.param({"data.n": 40}, "train split of 28 rows cannot fill a batch of 64",
                 id="train-split-below-s_x"),
    pytest.param({"search.s_y": 500}, "val split of 300 rows cannot fill a batch of 500",
                 id="val-split-below-s_y"),
    # Six rows leave the val and test splits empty.
    pytest.param({"search.mode": "hillclimb", "data.n": 6, "search.s_x": 1},
                 "val split is empty", id="empty-val-split"),
    # Each of these once ran, and every child was over the limit too.
    pytest.param({"net.hidden": [100, 100], "constraints.max_params": 200000},
                 "the start network has a hidden layer of width 100, over "
                 "constraints.max_width 64", id="start-over-max_width"),
    pytest.param({"net.hidden": [8] * 9},
                 "the start network has 9 hidden layers, over constraints.max_layers 8",
                 id="start-over-max_layers"),
])
def test_search_start_errors_exit_2_before_the_run_directory(overrides, message,
                                                             tmp_path, caplog):
    # Each of these once exited 2 from inside the run (the s_y one after
    # pretraining), leaving a manifest with no end and empty artifacts; the
    # empty split once exited 0 and printed NaN losses, which is not JSON.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overrides))
    out_dir = tmp_path / "run"
    argv = ["search", "--data", "spirals", "--seed", "0", "--config", str(config),
            "--out", str(out_dir)]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(argv)
    assert code == 2
    assert out == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage() == message
    assert not out_dir.exists()


def test_hillclimb_ignores_s_y(tmp_path):
    # The hill climber scores the whole val split, so s_y never draws a
    # batch there: a val split smaller than s_y is no error.
    cfg = write_config(tmp_path, {"search.mode": "hillclimb", "search.s_y": 500,
                                  "search.n_steps": 1, "search.n_neigh": 2})
    code, summary = run_cli(["search", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == 0, summary
    assert summary["rounds"] == 1


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {})
    out_dir = str(tmp_path / "run")
    monkeypatch.setenv("SEMIFLOW_SEED", "77")
    code, summary = run_cli(["search", "--config", cfg, "--out", out_dir])
    assert code == 0
    assert summary["seed"] == 77
    manifest = read_json(os.path.join(out_dir, "manifest.json"), "manifest")
    assert manifest["seed"] == 77


def test_seed_flag_beats_env(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {})
    monkeypatch.setenv("SEMIFLOW_SEED", "77")
    code, summary = run_cli(["search", "--config", cfg, "--seed", "5",
                             "--out", str(tmp_path / "run")])
    assert code == 0
    assert summary["seed"] == 5


@pytest.mark.parametrize("command", ["search", "dynamics-bench"])
@pytest.mark.parametrize("raw, message", [
    pytest.param("abc", "SEMIFLOW_SEED must be an integer, got 'abc'",
                 id="not-int"),
    pytest.param("-1", "seed must be in [0, inf), got -1", id="negative"),
])
def test_bad_env_seed_is_config_error(command, raw, message, tmp_path,
                                      monkeypatch, caplog):
    # Every subcommand resolves and checks the seed the same way.
    monkeypatch.setenv("SEMIFLOW_SEED", raw)
    argv = [command, "--out", str(tmp_path / "run")]
    if command == "search":
        argv += ["--config", write_config(tmp_path, {})]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(argv)
    assert code == 2
    assert message in caplog.text
    assert out == ""


def test_strict_timeout_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"dynamics.kappa": 1e-9,
                                  "search.n_steps": 6.0,
                                  "data.n": 600})
    code, out, err = run_cli_all(["search", "--config", cfg, "--strict",
                                  "--out", str(tmp_path / "run")])
    assert code == 4


def test_timeout_tolerated_without_strict(tmp_path):
    cfg = write_config(tmp_path, {"dynamics.kappa": 1e-9,
                                  "search.n_steps": 6.0,
                                  "data.n": 600})
    code, summary = run_cli(["search", "--config", cfg,
                             "--out", str(tmp_path / "run")])
    assert code == 0
    assert summary["timed_out_rounds"] >= 1


@pytest.mark.parametrize("argv, extra, start", [
    pytest.param(["search", "--data", "spirals", "--seed", "0"], {"data.n": 400},
                 "diverged: ", id="search-step-too-large"),
    # Round 1 adopts a child after one step; its huge parameters overflow
    # round 2's morphism probe before the round reports the NaN.
    pytest.param(["search", "--data", "spirals", "--seed", "0"], {},
                 "diverged: validation loss", id="search-probe-overflow"),
    # The potential passes its update at -8.7e307, and at step 7 its gaps
    # add up to an infinite move-rate row.
    pytest.param(["dynamics-bench", "--order", "2", "--nodes", "6",
                  "--tau", "100"], {"data.n": 400}, "diverged: ", id="bench-rate-overflow"),
    # Pretraining keeps its own step size; the first cycle's children diverge.
    pytest.param(["search", "--mode", "hillclimb", "--data", "spirals", "--seed", "0"],
                 {"data.n": 400}, "diverged: baseline training",
                 id="hillclimb-child-step-too-large"),
    # Fifteen children of one spec train as one stack: the message names one.
    pytest.param(["search", "--mode", "hillclimb", "--data", "spirals", "--seed", "0"],
                 {"data.n": 400, "search.n_neigh": 48},
                 "diverged: baseline training of cycle 1 child ", id="hillclimb-stack-diverges"),
    # Clipped steps of 500 run 43 rounds; in round 44 a child's gradient
    # is no longer finite, and the round names that node.
    pytest.param(["search", "--data", "spirals", "--seed", "0"],
                 {"data.n": 400, "search.lam_start": 500, "search.grad_clip": 1,
                  "pretrain.epochs": 0},
                 "diverged: gradient at node ", id="search-round-gradient"),
])
def test_divergence_exits_3_with_one_line(argv, extra, start, tmp_path, caplog):
    # A non-finite loss (step size 50, no clipping) or move rate is a
    # divergence: exit 3 and one error line, never a traceback, and no
    # overflow escapes as a RuntimeWarning (the suite makes them errors).
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"search.lam_start": 50.0, "search.grad_clip": 0.0,
                                  **extra}))
    argv = argv + ["--config", str(config), "--out", str(tmp_path / "run")]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(argv)
    assert code == 3
    assert out == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage().startswith(start)
    assert "\n" not in record.getMessage()


def test_eval_matches_search_summary(tmp_path):
    cfg = write_config(tmp_path, {})
    out_dir = str(tmp_path / "run")
    code, summary = run_cli(["search", "--config", cfg, "--out", out_dir])
    assert code == 0
    code, report = run_cli(["eval", "--config", cfg,
                            "--checkpoint", os.path.join(out_dir, "best.json"),
                            "--split", "test"])
    assert code == 0
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["accuracy"] == pytest.approx(summary["test_accuracy"])
    assert report["loss"] == pytest.approx(summary["test_loss"])


def test_eval_corrupt_checkpoint(tmp_path):
    cfg = write_config(tmp_path, {})
    bad = tmp_path / "broken.json"
    bad.write_text("{\"spec\": [")
    code, out, err = run_cli_all(["eval", "--config", cfg,
                                  "--checkpoint", str(bad)])
    assert code == 2


def test_eval_missing_checkpoint(tmp_path):
    cfg = write_config(tmp_path, {})
    code, out, err = run_cli_all(["eval", "--config", cfg,
                                  "--checkpoint", str(tmp_path / "none.json")])
    assert code == 2


def test_eval_on_an_empty_split_exits_2(tmp_path, caplog):
    cfg = write_config(tmp_path, {"data.n": 6})
    data = sf.make_blobs(6, seed=0)
    spec = sf.NetSpec(data.input_dim, data.n_classes, (4,))
    checkpoint = tmp_path / "net.json"
    sf.save_checkpoint(str(checkpoint), spec, sf.init_params(spec, np.random.default_rng(0)))
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(["eval", "--config", cfg, "--checkpoint",
                                      str(checkpoint), "--split", "test"])
    assert code == 2
    assert out == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage() == "test split is empty"


def one_error(caplog):
    """The message of the one ERROR record a failed command logged."""
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    return record.getMessage()


def save_blobs_checkpoint(path, scale=1.0):
    """A checkpoint that fits write_config's blobs (2 features, 4 classes),
    with a skip so every descriptor field is present."""
    spec = sf.NetSpec(2, 4, (4, 4), ((1, 2),))
    params = sf.init_params(spec, np.random.default_rng(0)) * scale
    sf.save_checkpoint(str(path), spec, params)
    return str(path)


@pytest.mark.parametrize("where, bad", [
    pytest.param("--config", "folder", id="config-dir"),
    pytest.param("--checkpoint", "folder", id="checkpoint-dir"),
    pytest.param("--checkpoint", "latin1", id="checkpoint-not-utf8"),
    pytest.param("data.path", "folder", id="data-dir"),
    pytest.param("data.path", "latin1", id="csv-not-utf8"),
])
def test_unreadable_input_file_exits_2_with_one_line(where, bad, tmp_path, caplog):
    # Each of these once ended in an IsADirectoryError or UnicodeDecodeError
    # traceback (exit 1).
    (tmp_path / "folder").mkdir()
    (tmp_path / "latin1").write_bytes(b"\xff\xfe0.5,1.5,0\n")
    bad = str(tmp_path / bad)
    out = tmp_path / "run"
    if where == "data.path":
        cfg = write_config(tmp_path, {"data.kind": "csv", "data.path": bad})
        argv = ["search", "--config", cfg, "--out", str(out)]
    else:
        argv = ["eval", "--config", write_config(tmp_path, {}),
                "--checkpoint", save_blobs_checkpoint(tmp_path / "net.json")]
        argv[argv.index(where) + 1] = bad
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all(argv)
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    assert "\n" not in one_error(caplog)
    assert not out.exists()


def test_csv_field_over_the_csv_limit_exits_2_at_its_line(tmp_path, caplog):
    # The csv module's own error once escaped as a _csv.Error traceback
    # (exit 1). The long field sits on physical line 4, the third record.
    data = tmp_path / "long.csv"
    data.write_text('0.5,1.5,0\n"0.5\n",1.5,1\n0.5,' + "1" * 131073 + ",0\n")
    cfg = write_config(tmp_path, {"data.kind": "csv", "data.path": str(data)})
    out = tmp_path / "run"
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all(["search", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    assert one_error(caplog) == (
        "field larger than field limit (131072) (line 4, column 1)")
    assert not out.exists()


def test_csv_label_past_int64_exits_2_at_its_line(tmp_path, caplog):
    # This label once ended in an OverflowError traceback (exit 1).
    data = tmp_path / "big.csv"
    data.write_text("0.5,1.5,0\n0.5,1.5,1\n0.5,1.5,9223372036854775808\n")
    cfg = write_config(tmp_path, {"data.kind": "csv", "data.path": str(data)})
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all(["graph-dump", "--config", cfg])
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    assert one_error(caplog) == (
        "label 9223372036854775808 on line 3 is not in [0, 2**63)")


def test_every_exit_2_type_is_an_input_error():
    from semiflow import errors
    for kind in (errors.BadConfig, errors.MissingFile, errors.ParseError,
                 errors.BadParams, errors.SplitTooSmall, errors.NonIntegerLabel,
                 errors.BadLabel, errors.ConstraintViolated):
        assert issubclass(kind, errors.InputError), kind
    assert issubclass(errors.MissingFile, FileNotFoundError)


def set_flat(index, value):
    return lambda ck: ck["flat"].__setitem__(index, value)


def set_field(entry, key, value):
    return lambda ck: ck["spec"][entry].__setitem__(key, value)


@pytest.mark.parametrize("command", ["eval", "graph-dump"])
@pytest.mark.parametrize("mutate", [
    pytest.param(set_flat(0, "a"), id="string-in-flat"),
    pytest.param(set_flat(0, [0.5, 0.5]), id="nested-flat"),
    pytest.param(set_field(1, "width", -3), id="negative-width"),
    pytest.param(set_field(0, "dim", "x"), id="string-dim"),
    pytest.param(set_flat(3, float("nan")), id="nan-in-flat"),
    pytest.param(set_flat(3, True), id="bool-in-flat"),
    pytest.param(set_field(0, "dim", 2.5), id="fractional-dim"),
    pytest.param(set_field(0, "dim", "2"), id="numeric-string-dim"),
])
def test_malformed_checkpoint_exits_2(command, mutate, tmp_path, caplog):
    # Each of these once ended in a traceback (exit 1) or was read as some
    # other network and scored (exit 0).
    path = save_blobs_checkpoint(tmp_path / "net.json")
    checkpoint = json.loads(Path(path).read_text())
    mutate(checkpoint)
    Path(path).write_text(json.dumps(checkpoint))
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all([command, "--config", write_config(tmp_path, {}),
                                         "--checkpoint", path])
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    assert one_error(caplog)


@pytest.mark.parametrize("limit, cap, has", [
    pytest.param("max_params", 73, "74 parameters", id="max_params"),
    pytest.param("max_layers", 2, "3 hidden layers", id="max_layers"),
    pytest.param("max_width", 3, "a hidden layer of width 4", id="max_width"),
    pytest.param("max_incoming", 1, "a hidden layer with 2 incoming skips",
                 id="max_incoming"),
])
def test_graph_dump_refuses_a_checkpoint_over_a_limit(limit, cap, has, tmp_path,
                                                      caplog):
    # Each of these once drew a graph of children over the same limit.
    spec = sf.NetSpec(2, 4, (4, 4, 4), ((1, 3), (2, 3)))
    path = str(tmp_path / "net.json")
    sf.save_checkpoint(path, spec, sf.init_params(spec, np.random.default_rng(0)))
    out = tmp_path / "graph.json"
    argv = ["graph-dump", "--config",
            write_config(tmp_path, {f"constraints.{limit}": cap}),
            "--checkpoint", path, "--out", str(out)]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all(argv)
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    assert one_error(caplog) == (
        f"the checkpoint network has {has}, over constraints.{limit} {cap}")
    assert not out.exists()


def test_eval_with_a_non_finite_loss_exits_3(tmp_path, caplog):
    # Parameters scaled by 1e200 overflow the logits to a NaN loss, which
    # eval once printed as "loss": NaN (not JSON) with exit 0 and two
    # RuntimeWarnings; the suite turns any RuntimeWarning into an error.
    checkpoint = save_blobs_checkpoint(tmp_path / "net.json", scale=1e200)
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all(["eval", "--config", write_config(tmp_path, {}),
                                         "--checkpoint", checkpoint])
    assert code == 3
    assert stdout == "" and "Traceback" not in err
    assert one_error(caplog).startswith("diverged: ")


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


FUZZ_VALUES = st.sampled_from(["x", True, False, None, [0.5], [], float("nan"),
                               float("inf"), float("-inf"), 1e308, 2.5, -0.5])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), target=st.sampled_from(["flat", "spec", "truncate", "prefix"]))
def test_mutated_checkpoint_keeps_the_exit_contract(tmp_path_factory, data, target):
    # However a saved checkpoint is damaged, eval exits 0, 2 or 3 without an
    # exception, and on 0 prints strict JSON.
    folder = tmp_path_factory.mktemp("fuzz")
    cfg = write_config(folder, {})
    path = save_blobs_checkpoint(folder / "net.json")
    blob = Path(path).read_bytes()
    checkpoint = json.loads(blob)
    if target == "flat":
        index = data.draw(st.integers(0, len(checkpoint["flat"]) - 1))
        checkpoint["flat"][index] = data.draw(FUZZ_VALUES)
    elif target == "spec":
        entry = data.draw(st.sampled_from(
            [e for e in checkpoint["spec"] if set(e) - {"op"}]))
        entry[data.draw(st.sampled_from(sorted(set(entry) - {"op"})))] = (
            data.draw(FUZZ_VALUES))
    if target in ("flat", "spec"):
        blob = json.dumps(checkpoint).encode()
    elif target == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        blob = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])) + blob
    Path(path).write_bytes(blob)
    code, stdout, _ = run_cli_all(["eval", "--config", cfg, "--checkpoint", path])
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(stdout, parse_constant=reject_constant)


def test_pretrain_writes_checkpoint(tmp_path):
    cfg = write_config(tmp_path, {})
    ck = str(tmp_path / "pretrained.json")
    code, report = run_cli(["pretrain", "--config", cfg, "--out", ck])
    assert code == 0
    spec, params = sf.load_checkpoint(ck)
    assert len(params) == sf.param_count(spec)
    assert report["final_loss"] < report["initial_loss"]


def test_graph_dump_schema(tmp_path):
    cfg = write_config(tmp_path, {})
    out = str(tmp_path / "graph.json")
    code, _ = run_cli(["graph-dump", "--config", cfg, "--out", out])
    assert code == 0
    payload = json.loads(Path(out).read_text())
    assert len(payload["nodes"]) == 9
    assert len(payload["edges"]) == 8
    for node in payload["nodes"]:
        assert set(node) == {"id", "spec_digest", "param_count"}
    for edge in payload["edges"]:
        assert set(edge) == {"a", "b", "w"}
        assert edge["w"] == 1.0


@pytest.mark.parametrize("command, compute", [("pretrain", "pretrain"),
                                              ("graph-dump", "local_graph")])
def test_out_parent_directory_exists_before_compute(command, compute, tmp_path,
                                                    monkeypatch):
    cfg = write_config(tmp_path, {})
    out = tmp_path / "new" / "dir" / "out.json"
    seen = []
    fn = getattr(cli, compute)

    def checked(*args, **kw):
        seen.append(out.parent.is_dir())
        return fn(*args, **kw)

    monkeypatch.setattr(cli, compute, checked)
    code, _ = run_cli([command, "--config", cfg, "--out", str(out)])
    assert code == 0 and seen == [True]
    assert json.loads(out.read_text())


@pytest.mark.parametrize("command, compute, out", [
    ("search", "run_search", "file/run"),
    ("pretrain", "pretrain", "file/sub/out.json"),
    ("graph-dump", "local_graph", "file/out.json"),
    ("dynamics-bench", "_bench_point", "file/bench"),
    ("pretrain", "pretrain", "folder"),
])
def test_out_that_cannot_be_made_exits_2_before_compute(command, compute, out,
                                                        tmp_path, monkeypatch,
                                                        caplog):
    # A path under a regular file once ended in a FileExistsError or
    # NotADirectoryError traceback (exit 1); a directory as the checkpoint
    # path, in an IsADirectoryError after pretraining.
    (tmp_path / "file").write_text("not a directory")
    (tmp_path / "folder").mkdir()
    seen = []
    monkeypatch.setattr(cli, compute, lambda *a, **kw: seen.append(a))
    argv = [command, "--out", str(tmp_path / out), "--iters", "2"]
    if command != "dynamics-bench":
        argv = argv[:3] + ["--config", write_config(tmp_path, {})]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all(argv)
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    assert one_error(caplog)
    assert seen == []


@pytest.mark.parametrize("command, compute, taken", [
    ("search", "run_search", "manifest.json"),
    ("search", "run_search", "metrics.csv"),
    ("search", "run_search", "best.json"),
    ("search", "run_search", "morphisms.jsonl"),
    ("dynamics-bench", "_bench_point", "summary.json"),
    ("dynamics-bench", "_bench_point", "bench_000.csv"),
])
def test_output_file_taken_by_a_directory_exits_2_before_compute(
        command, compute, taken, tmp_path, monkeypatch, caplog):
    # Each of these once ended in an IsADirectoryError traceback (exit 1),
    # best.json after round 1 and summary.json after every grid point.
    out = tmp_path / "run"
    (out / taken).mkdir(parents=True)
    seen = []
    monkeypatch.setattr(cli, compute, lambda *a, **kw: seen.append(a))
    argv = [command, "--out", str(out)]
    if command == "search":
        argv += ["--config", write_config(tmp_path, {})]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all(argv)
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    assert one_error(caplog) == f"{out / taken} is a directory, not a file"
    assert seen == [] and os.listdir(out) == [taken]


@pytest.mark.parametrize("mode", ["nasgd", "nasagd", "hillclimb"])
def test_verbose_logs_one_debug_line_per_round(mode, tmp_path, caplog):
    cfg = write_config(tmp_path, {"search.n_neigh": 3})
    debug, artifacts = {}, {}
    for flags in ([], ["-v"]):
        out_dir = tmp_path / f"run{len(flags)}"
        caplog.clear()
        code, summary = run_cli(["search", "--config", cfg, "--mode", mode,
                                 "--out", str(out_dir), *flags])
        assert code == 0
        debug[bool(flags)] = [r.getMessage() for r in caplog.records
                              if r.levelname == "DEBUG"]
        artifacts[bool(flags)] = [(out_dir / name).read_bytes()
                                  for name in ("best.json", "morphisms.jsonl")]
    # One format in both modes, rounds numbered 1.. in order, a stop of the
    # mode's own rules, the explored counts that the summary sums, and the
    # stacks trained: at least one, at most one per node (a round's explored
    # children and its incumbent, or a cycle's trained children).
    line = re.compile(r"round (\d+): stop (\w+), (\d+) iterations, (\d+) explored, "
                      r"(\d+) stacks, adopted (\w+)$")
    rounds = [line.match(text) for text in debug[True] if text.startswith("round ")]
    assert all(rounds) and len(rounds) == summary["rounds"] >= 1
    assert [int(m[1]) for m in rounds] == list(range(1, summary["rounds"] + 1))
    stops = {"cycle", "cap"} if mode == "hillclimb" else {"doubling", "timeout", "budget"}
    assert {m[2] for m in rounds} <= stops
    nodes = [int(m[4]) + (mode != "hillclimb") for m in rounds]
    assert all(1 <= int(m[5]) <= n for m, n in zip(rounds, nodes))
    assert {m[6] for m in rounds} <= {*sf.ALL_KINDS, "incumbent", "none"}
    assert 1 + sum(int(m[4]) for m in rounds) == summary["architectures_explored"]
    assert debug[True][-1] == (f"final training: {summary['epochs']:.0f} epochs, "
                               f"stop {summary['final_stop']}")
    assert debug[False] == []
    assert artifacts[True] == artifacts[False]


def test_bench_writes_grid(tmp_path):
    out_dir = str(tmp_path / "bench")
    code, report = run_cli(["dynamics-bench", "--out", out_dir,
                            "--betas", "1.0", "--kappas", "1.0",
                            "--nodes", "2",
                            "--particles", "500", "--iters", "300",
                            "--tau", "0.05"])
    assert code == 0
    files = [f for f in os.listdir(out_dir) if f.endswith(".csv")]
    assert len(files) == 1
    body = Path(out_dir, files[0]).read_text().splitlines()
    assert body[0].startswith("iter,")
    assert len(body) > 1


@pytest.mark.parametrize("flags", [[], ["--sampled"]], ids=["expected", "sampled"])
def test_bench_order_two_runs_the_search_step(flags, tmp_path):
    # The bench's rows are those of search.particle_step, restarts and
    # potential resets included, on the bench's seeded values and moves.
    code, report = run_cli(["dynamics-bench", "--out", str(tmp_path / "b"),
                            "--order", "2", "--nodes", "5", "--iters", "200",
                            *flags])
    assert code == 0
    dyn = sf.DynamicsParams(mode=sf.SECOND_ORDER,
                            rate_mode=sf.SAMPLED if flags else sf.EXPECTED)
    values = {g: float(v) for g, v in
              enumerate(sf.data.seeded_rng(0, 40, 0).uniform(0.0, 1.0, 5))}
    graph = sf.complete_graph([None] * 5)
    ensemble = sf.seed_ensemble(graph, 10000, ghosts=False)
    phi = {g: 0.0 for g in graph}
    move_rng = sf.data.seeded_rng(0, 41, 0)
    resets = 0
    with sf.MetricsWriter(str(tmp_path / "loop.csv")) as writer:
        for k in range(200):
            step = search.particle_step(ensemble, phi, values, graph, dyn, 0.05,
                                        move_rng)
            ensemble, phi = step.ensemble, step.phi
            resets += step.reset
            step.write_rows(writer, k, 1, values, values, 0.05)
    assert resets > 0
    assert ((tmp_path / "b" / report["points"][0]["csv"]).read_bytes()
            == (tmp_path / "loop.csv").read_bytes())


def test_bench_missing_config_exits_2_before_out(tmp_path, caplog):
    # The bench once never opened its --config, and exited 0.
    out, config = tmp_path / "b", tmp_path / "none.json"
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all(["dynamics-bench", "--config", str(config),
                                         "--out", str(out), "--iters", "3"])
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    assert one_error(caplog).startswith(f"cannot read config file {config}")
    assert not out.exists()


def test_bench_seed_resolves_from_the_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"search.seed": 7}))
    small = ["--iters", "20", "--nodes", "3", "--particles", "10", "--sampled"]
    runs = {}
    for name, flags in [("flag", ["--seed", "7"]),
                        ("config", ["--config", str(config)]),
                        ("both", ["--config", str(config), "--seed", "5"]),
                        ("seed-5", ["--seed", "5"])]:
        out = tmp_path / name
        code, report = run_cli(["dynamics-bench", "--out", str(out), *small, *flags])
        assert code == 0
        runs[name] = (report["seed"], (out / "bench_000.csv").read_bytes())
    assert runs["config"] == runs["flag"] and runs["flag"][0] == 7
    assert runs["both"] == runs["seed-5"] and runs["both"][0] == 5
    assert runs["flag"][1] != runs["seed-5"][1]


def test_bench_saturated_expected_moves_complete(tmp_path):
    # kappa 10 saturates the move probability; the expected amounts then
    # add up to a few ulps more than a node holds, which must not end the
    # run with a negative count.
    code, report = run_cli(["dynamics-bench", "--out", str(tmp_path / "b"),
                            "--kappas", "10", "--nodes", "8",
                            "--iters", "500"])
    assert code == 0
    assert report["points"][0]["iterations"] == 500


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--nodes", "0"], "--nodes", id="no-nodes"),
    pytest.param(["--nodes=-1"], "--nodes", id="negative-nodes"),
    pytest.param(["--particles", "0"], "--particles", id="no-particles"),
    pytest.param(["--iters=-2"], "--iters", id="negative-iters"),
    pytest.param(["--tau", "0"], "--tau", id="zero-tau"),
    pytest.param(["--tau=-1"], "--tau", id="negative-tau"),
    pytest.param(["--tau", "nan"], "--tau", id="nan-tau"),
    pytest.param(["--betas", "inf"], "beta", id="infinite-beta"),
    # Past a C long, the first sampled move draw raised an OverflowError.
    pytest.param(["--sampled", "--particles", "10000000000000000000"],
                 "--particles must be in [1, 1e15]", id="particles-past-a-c-long"),
])
def test_bad_bench_flag_exits_2_before_out(flags, message, tmp_path, caplog):
    # Each of these once ended in a traceback (exit 1) or, --iters -2, in a
    # report of -2 iterations.
    out = tmp_path / "bench"
    with caplog.at_level("ERROR", logger="semiflow"):
        code, stdout, err = run_cli_all(["dynamics-bench", "--out", str(out),
                                         "--iters", "5", *flags])
    assert code == 2
    assert stdout == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert message in record.getMessage()
    assert not out.exists()


KNOB_VALUES = st.sampled_from(["0", "-1", "nan", "inf", "0.05", "1"])


@settings(max_examples=60, deadline=None)
@given(iters=st.integers(-2, 3), particles=st.integers(-2, 20),
       nodes=st.integers(-2, 4), tau=KNOB_VALUES, betas=KNOB_VALUES,
       kappas=KNOB_VALUES, order=st.sampled_from(["1", "2"]),
       sampled=st.booleans())
# A divergence the draws above cannot reach: the move-rate row overflows at
# step 7 (with 20 particles the same flags exit 0).
@example(iters=8, particles=10000, nodes=6, tau="100", betas="1", kappas="1",
         order="2", sampled=False)
def test_bench_flags_keep_the_exit_contract(tmp_path_factory, iters, particles,
                                            nodes, tau, betas, kappas, order,
                                            sampled):
    # Any mix of flags exits 0, 2 (bad flag) or 3 (divergence), never with
    # an exception; a divergence logs one line.
    out = tmp_path_factory.mktemp("bench")
    argv = ["dynamics-bench", "--out", str(out), f"--iters={iters}",
            f"--particles={particles}", f"--nodes={nodes}", f"--tau={tau}",
            f"--betas={betas}", f"--kappas={kappas}", "--order", order]
    records = []
    errors = logging.Handler(logging.ERROR)
    errors.emit = records.append
    logging.getLogger("semiflow").addHandler(errors)
    try:
        code, _, err = run_cli_all(argv + ["--sampled"] * sampled)
    finally:
        logging.getLogger("semiflow").removeHandler(errors)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 3:
        [record] = records
        assert record.getMessage().startswith("diverged: ")
        assert "\n" not in record.getMessage()


def interval_ends(key):
    """Each finite end of key's interval and the first value past it."""
    interval = sf.SCHEMA[key][4]
    if interval is None:
        return []
    whole = sf.SCHEMA[key][0] in ("int", "opt_int")
    values = []
    for end, way in zip((float(e) for e in interval[1:-1].split(",")), (-1, 1)):
        if math.isfinite(end):
            values += ([int(end), int(end) + way] if whole
                       else [end, math.nextafter(end, way * math.inf)])
    return values


SCHEMA_VALUES = [None, True, False, "x", [1], {"a": 1},
                 float("nan"), float("inf"), float("-inf")]


# More examples than there are (key, value) pairs (485), so hypothesis, which
# skips a pair it has run, runs each one.
@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_any_value_of_any_key_keeps_the_exit_contract(tmp_path_factory, data):
    # A wrong type, a non-finite number or an interval end (or just past
    # it) for any one config key exits 0 or 2, never with an exception.
    key = data.draw(st.sampled_from(sorted(sf.SCHEMA)))
    value = data.draw(st.sampled_from(SCHEMA_VALUES + interval_ends(key)))
    config = tmp_path_factory.mktemp("fuzz") / "config.json"
    config.write_text(json.dumps({"data.kind": "spirals", "data.n": 200, key: value}))
    code, _, _ = run_cli_all(["graph-dump", "--config", str(config)])
    assert code in (0, 2)


def assert_cells_parse(path):
    """Every cell of a metrics.csv is a plain number that float() reads."""
    rows = Path(path).read_text().splitlines()
    assert rows[0].split(",") == list(METRICS_COLUMNS)
    assert len(rows) > 1
    for row in rows[1:]:
        cells = row.split(",")
        assert len(cells) == len(METRICS_COLUMNS), row
        for cell in cells:
            float(cell)


@pytest.mark.parametrize("rate_mode", ["sampled", "expected"])
def test_search_metrics_cells_parse(rate_mode, tmp_path):
    cfg = write_config(tmp_path, {"dynamics.rate_mode": rate_mode})
    out_dir = str(tmp_path / "run")
    code, _ = run_cli(["search", "--config", cfg, "--out", out_dir])
    assert code == 0
    assert_cells_parse(os.path.join(out_dir, "metrics.csv"))


@pytest.mark.parametrize("flags", [[], ["--sampled"]], ids=["expected", "sampled"])
def test_bench_metrics_cells_parse(flags, tmp_path):
    out_dir = str(tmp_path / "bench")
    code, report = run_cli(["dynamics-bench", "--out", out_dir,
                            "--nodes", "5", "--iters", "50", *flags])
    assert code == 0
    for point in report["points"]:
        assert_cells_parse(os.path.join(out_dir, point["csv"]))


def test_bench_single_node_never_moves(tmp_path):
    out_dir = str(tmp_path / "bench1")
    code, report = run_cli(["dynamics-bench", "--out", out_dir,
                            "--betas", "1.0", "--kappas", "2.0",
                            "--nodes", "1",
                            "--particles", "100", "--iters", "200",
                            "--tau", "0.05", "--sampled"])
    assert code == 0
    rows = Path(out_dir, report["points"][0]["csv"]).read_text().splitlines()
    moved = rows[0].split(",").index("moved")
    assert all(row.split(",")[moved] == "0" for row in rows[1:])


def test_bench_single_node_reaches_its_oracle(tmp_path):
    # Seed 2's one value is 0.533579146588886, where value + 1.0 - value
    # rounds to just under 1: the oracle's upper bracket end must be checked.
    code, out, err = run_cli_all(["dynamics-bench", "--out", str(tmp_path / "b"),
                                  "--nodes", "1", "--seed", "2", "--iters", "10"])
    assert code == 0 and "Traceback" not in err
    [point] = json.loads(out)["points"]
    assert point["l1_to_stationary"] == 0.0


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        run_cli(["frobnicate"])


def test_package_runs_on_numpy_alone(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable the
    # package imports, the oracle solves and dynamics-bench exits 0.
    src = os.path.dirname(os.path.dirname(sf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import semiflow, semiflow.cli\n"
        "assert semiflow.stationary_oracle({0: 0.0, 1: 0.5}) == {0: 0.75, 1: 0.25}\n"
        "sys.exit(semiflow.cli.main(['dynamics-bench', '--nodes', '2',\n"
        f"                             '--iters', '5', '--out', {str(tmp_path)!r}]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["nodes"] == 2


def test_each_call_logs_to_its_own_stderr(tmp_path):
    # Two calls in one fresh interpreter, each under its own stderr buffer:
    # each call's log lines land in the buffer current at that call.
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (
        "import contextlib, io, json\n"
        "from semiflow import cli\n"
        "logs = []\n"
        "for run in ('a', 'b'):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(err):\n"
        "        cli.main(['dynamics-bench', '--nodes', '2', '--iters', '1',\n"
        f"                  '--out', {str(tmp_path)!r} + '/' + run])\n"
        "    logs.append(err.getvalue())\n"
        "print(json.dumps(logs))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    line = "INFO semiflow: bench point beta=1.0 kappa=1.0\n"
    assert json.loads(out.stdout) == [line, line]


def test_import_leaves_out_hashlib():
    # Only graph-dump hashes, so importing the CLI does not load OpenSSL.
    env = dict(os.environ, PYTHONPATH=SRC)

    def loads_hashlib(module):
        code = f"import sys, {module}; print('_hashlib' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() == "True"

    if loads_hashlib("numpy"):
        pytest.skip("numpy alone loads _hashlib")
    assert not loads_hashlib("semiflow.cli")


@pytest.mark.parametrize("n", [400, 2000])
def test_divergence_prints_no_numpy_warning(tmp_path, n):
    # The diverging search overflows on its way to the NaN loss it reports;
    # stderr carries the one diverged: line and no RuntimeWarning. At 2000
    # rows the overflow comes in round 2's morphism probe.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data.n": n, "search.lam_start": 50.0,
                                  "search.grad_clip": 0.0}))
    src = os.path.dirname(os.path.dirname(sf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "semiflow.cli", "search", "--data", "spirals",
         "--seed", "0", "--config", str(config), "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 3
    assert "RuntimeWarning" not in out.stderr
    assert [line for line in out.stderr.splitlines() if "diverged: " in line]


def test_diverging_pretraining_exits_3_without_numpy_warning(tmp_path, caplog):
    # Pretraining trains through a generator, whose error state must cover
    # each epoch's steps: under the suite's error::RuntimeWarning filter an
    # overflow it let through would end in a traceback, not exit 3.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data.n": 400, "pretrain.lam_start": 50.0,
                                  "search.grad_clip": 0.0}))
    argv = ["search", "--data", "spirals", "--seed", "0", "--config", str(config),
            "--out", str(tmp_path / "run")]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(argv)
    assert code == 3
    assert out == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage().startswith("diverged: pretraining ")


@pytest.mark.parametrize("final, stop, epochs", [
    pytest.param({"final.budget": 3}, "budget", 3.0, id="budget"),
    # A tolerance no cycle can beat: the first cycle end (epochs_neigh 2)
    # stalls, and one stalled cycle is a plateau.
    pytest.param({"final.budget": 50, "final.plateau_cycles": 1,
                  "final.plateau_tol": 1e9}, "plateau", 2.0, id="plateau"),
])
def test_search_summary_says_why_final_training_stopped(tmp_path, final, stop,
                                                        epochs):
    cfg = write_config(tmp_path, final)
    out_dir = tmp_path / "run"
    code, summary = run_cli(["search", "--config", cfg, "--out", str(out_dir)])
    assert code == 0
    assert (summary["final_stop"], summary["epochs"]) == (stop, epochs)
    for name in ("best.json", "metrics.csv", "morphisms.jsonl"):
        assert "final_stop" not in (out_dir / name).read_text()
