import builtins
import json
import os
from pathlib import Path

import numpy as np
import pytest

import semiflow as sf
from semiflow.recording import METRICS_COLUMNS, read_json, utc_now
from conftest import run_cli


def test_metrics_header_and_row(tmp_path):
    path = str(tmp_path / "m.csv")
    w = sf.MetricsWriter(path)
    w.write_row(0, 1, 2, 100.0, 0.5, 1.25, 1.5, 0.0, 0.05, 3.5, 4)
    w.close()
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "iter,round,node_id,count,f,V_train,V_val,phi,tau_k,energy,moved"
    assert lines[1].startswith("0,1,2,100")
    assert tuple(lines[0].split(",")) == METRICS_COLUMNS


def test_metrics_flush_makes_rows_visible(tmp_path):
    # rows must be on disk after flush, while the writer is still open
    path = str(tmp_path / "m.csv")
    w = sf.MetricsWriter(path)
    assert Path(path).read_text().startswith("iter,")
    w.write_row(7, 1, 0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.01, 0.0, 0)
    w.flush()
    assert "7,1,0" in Path(path).read_text()
    w.close()


def test_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "a.jsonl")
    w = sf.JsonlWriter(path)
    recs = [{"child_id": 1, "kind": "widen", "dev": 0.0},
            {"child_id": 2, "kind": "deepen", "dev": 1e-8}]
    for r in recs:
        w.write(r)
    w.close()
    back = [json.loads(line) for line in Path(path).read_text().splitlines()]
    assert back == recs


def test_manifest_roundtrip(tmp_path):
    path = str(tmp_path / "manifest.json")
    cfg = sf.normalize({"search.mode": "nasgd"})
    sf.write_manifest(path, cfg, seed=5, version="0.1.0",
                      outputs={"metrics": "metrics.csv"}, started=utc_now())
    m = read_json(path, "manifest")
    assert m["seed"] == 5
    assert m["config"] == cfg
    assert m["outputs"] == {"metrics": "metrics.csv"}
    assert m["ended"] is None
    sf.write_manifest(path, cfg, seed=5, version="0.1.0",
                      outputs={"metrics": "metrics.csv"},
                      started=m["started"], ended=utc_now())
    m2 = read_json(path, "manifest")
    assert m2["ended"] is not None
    assert m2["started"] == m["started"]


def test_manifest_config_rebuilds_run(tmp_path):
    path = str(tmp_path / "manifest.json")
    cfg = sf.normalize({"search.mode": "nasagd", "dynamics.beta": 1.5})
    sf.write_manifest(path, cfg, seed=1, version="0.1.0", outputs={},
                      started=utc_now())
    reread = sf.load_config(path)
    assert sf.build_search_config(sf.normalize(reread)).beta == 1.5


class HalfWrite:
    """A text file whose write stores half its text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "name", ["best.json", "manifest.json", "summary.json", "graph.json"])
def test_an_interrupted_write_leaves_the_previous_file(tmp_path, name):
    # A run rewrites best.json after every round and manifest.json at its
    # end; dynamics-bench writes summary.json and graph-dump --out its file
    # (graph.json here) through the CLI. A write that fails halfway must
    # leave the last whole file, which still loads, and no temporary file
    # beside it.
    path = str(tmp_path / name)
    spec = sf.NetSpec(2, 3, (4,))
    params = [sf.init_params(spec, np.random.default_rng(s)) for s in (0, 1)]

    def write(version):
        if name == "best.json":
            sf.save_checkpoint(path, spec, params[version])
        elif name == "manifest.json":
            sf.write_manifest(path, {"search.seed": 0}, 0, "v", [name], "t0",
                              ended=[None, "t1"][version])
        elif name == "summary.json":
            assert run_cli(["dynamics-bench", "--out", str(tmp_path), "--nodes", "2",
                            "--particles", "100", "--iters", str(3 + version)])[0] == 0
        else:
            assert run_cli(["graph-dump", "--data", "blobs", "--seed", str(version),
                            "--out", path])[0] == 0

    write(0)
    before = (tmp_path / name).read_bytes()
    files = sorted(os.listdir(tmp_path))
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kw):
        fh = real_open(file, mode, *args, **kw)
        hit = "w" in mode and os.path.basename(file).startswith(name)
        return HalfWrite(fh) if hit else fh

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError, match="No space left"):
            write(1)
    assert (tmp_path / name).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == files
    if name == "best.json":
        loaded_spec, loaded = sf.load_checkpoint(path)
        assert loaded_spec == spec and np.array_equal(loaded, params[0])
    elif name == "manifest.json":
        assert read_json(path, "manifest")["ended"] is None
    elif name == "summary.json":
        assert json.loads(before)["points"][0]["iterations"] == 3
    else:
        assert len(json.loads(before)["nodes"]) == 9
