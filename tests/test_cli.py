"""Subcommand behavior, exit codes, and artifact layout."""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow import cli
from semiflow.recording import METRICS_COLUMNS
from conftest import run_cli


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
    manifest = sf.read_manifest(os.path.join(out_dir, "manifest.json"))
    assert manifest["ended"] is not None
    assert manifest["config"]["search.n_particles"] == 20


def test_search_hillclimb_artifacts(tmp_path):
    cfg = write_config(tmp_path, {"search.n_neigh": 3})
    out_dir = str(tmp_path / "run")
    code, summary = run_cli(["search", "--config", cfg, "--mode", "hillclimb",
                             "--out", out_dir])
    assert code == 0
    assert summary["mode"] == "hillclimb"
    outputs = ["manifest.json", "best.json", "morphisms.jsonl"]
    assert sorted(os.listdir(out_dir)) == sorted(outputs)
    manifest = sf.read_manifest(os.path.join(out_dir, "manifest.json"))
    assert manifest["outputs"] == outputs
    assert manifest["config"]["search.mode"] == "hillclimb"
    audit = open(os.path.join(out_dir, "morphisms.jsonl")).read().splitlines()
    assert len(audit) == summary["architectures_explored"] - 1
    code, report = run_cli(["eval", "--config", cfg,
                            "--checkpoint", os.path.join(out_dir, "best.json")])
    assert code == 0
    assert report["accuracy"] == summary["test_accuracy"]


@pytest.mark.parametrize("mode", ["nasgd", "nasagd", "hillclimb"])
def test_manifest_lists_exactly_the_files_written(mode, tmp_path):
    cfg = write_config(tmp_path, {"search.n_neigh": 3})
    out_dir = str(tmp_path / "run")
    code, _ = run_cli(["search", "--config", cfg, "--mode", mode, "--out", out_dir])
    assert code == 0
    manifest = sf.read_manifest(os.path.join(out_dir, "manifest.json"))
    assert sorted(os.listdir(out_dir)) == sorted(manifest["outputs"])


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
    pytest.param({"final.budget": -1}, "final_budget", id="final_budget"),
    pytest.param({"search.round_timeout_factor": 0.0}, "round_timeout_factor",
                 id="round_timeout_factor"),
    pytest.param({"dynamics.damping": -1.0}, "damping", id="damping"),
    pytest.param({"search.n_steps": float("inf")}, "n_steps", id="infinite-n_steps"),
    pytest.param({"search.round_timeout_factor": float("inf")}, "round_timeout_factor",
                 id="infinite-round_timeout_factor"),
    pytest.param({"pretrain.lam_start": -1.0}, "pretrain_lam_start",
                 id="pretrain_lam_start"),
    pytest.param({"pretrain.epochs": -3}, "pretrain_epochs", id="pretrain_epochs"),
    pytest.param({"dynamics.kappa": 10**400}, "kappa", id="integer-beyond-float-kappa"),
    pytest.param({"dynamics.kappa": float("inf")}, "kappa", id="infinite-kappa"),
    pytest.param({"dynamics.beta": float("inf")}, "beta", id="infinite-beta"),
    pytest.param({"search.grad_clip": float("nan")}, "grad_clip", id="nan-grad_clip"),
    pytest.param({"final.plateau_tol": float("nan")}, "plateau_tol",
                 id="nan-plateau_tol"),
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
    manifest = sf.read_manifest(os.path.join(out_dir, "manifest.json"))
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
    pytest.param("-1", "seed must be nonnegative, got -1", id="negative"),
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


# The diverging search overflows its activations on the way to a NaN loss.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("argv", [
    pytest.param(["search", "--data", "spirals", "--seed", "0"],
                 id="search-step-too-large"),
    pytest.param(["dynamics-bench", "--order", "2", "--nodes", "5",
                  "--iters", "200"], id="bench-potential-blowup"),
    pytest.param(["dynamics-bench", "--order", "2", "--nodes", "5",
                  "--iters", "200", "--sampled"],
                 id="bench-potential-blowup-sampled"),
])
def test_divergence_exits_3_with_one_line(argv, tmp_path, caplog):
    # A non-finite loss (step size 50, no clipping) or potential blow-up is
    # a divergence: exit 3 and one error line, never a traceback.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data.n": 400, "search.lam_start": 50.0,
                                  "search.grad_clip": 0.0}))
    argv = argv + ["--config", str(config), "--out", str(tmp_path / "run")]
    with caplog.at_level("ERROR", logger="semiflow"):
        code, out, err = run_cli_all(argv)
    assert code == 3
    assert out == "" and "Traceback" not in err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage().startswith("diverged: ")
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
    payload = json.load(open(out))
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
    rounds = [line for line in debug[True] if line.startswith("round ")]
    assert len(rounds) == summary["rounds"] >= 1
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
    body = open(os.path.join(out_dir, files[0])).read().splitlines()
    assert body[0].startswith("iter,")
    assert len(body) > 1


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
def test_bench_flags_keep_the_exit_contract(tmp_path_factory, iters, particles,
                                            nodes, tau, betas, kappas, order,
                                            sampled):
    # Any mix of flags exits 0, 2 (bad flag) or 3 (divergence), never with
    # an exception.
    out = tmp_path_factory.mktemp("bench")
    argv = ["dynamics-bench", "--out", str(out), f"--iters={iters}",
            f"--particles={particles}", f"--nodes={nodes}", f"--tau={tau}",
            f"--betas={betas}", f"--kappas={kappas}", "--order", order]
    code, _, _ = run_cli_all(argv + ["--sampled"] * sampled)
    assert code in (0, 2, 3)


def assert_cells_parse(path):
    """Every cell of a metrics.csv is a plain number that float() reads."""
    rows = open(path).read().splitlines()
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
    rows = open(os.path.join(out_dir, report["points"][0]["csv"])).read().splitlines()
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


def test_divergence_prints_no_numpy_warning(tmp_path):
    # The diverging search overflows on its way to the NaN loss it reports;
    # stderr carries the one diverged: line and no RuntimeWarning.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data.n": 400, "search.lam_start": 50.0,
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
