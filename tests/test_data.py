"""Dataset generators, CSV ingestion, splits, and batch streams."""

import numpy as np
import pytest

import semiflow as sf
from semiflow import search
from semiflow.data import SPIRAL_INNER, SPIRAL_OUTER
from semiflow.errors import (
    BadParams,
    MissingFile,
    NonIntegerLabel,
    ParseError,
    SplitTooSmall,
)
from conftest import fit_linear_softmax, linear_accuracy


def test_blobs_balanced():
    ds = sf.make_blobs(1000, n_classes=4, seed=0)
    counts = np.bincount(ds.labels, minlength=4)
    assert all(abs(c - 250) <= 1 for c in counts)


def test_blobs_deterministic():
    a = sf.make_blobs(500, seed=9)
    b = sf.make_blobs(500, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.train_idx, b.train_idx)


def test_blobs_tight_clusters_linearly_separable():
    ds = sf.make_blobs(400, spread=0.01, seed=1)
    W = fit_linear_softmax(ds.features, ds.labels, 4)
    assert linear_accuracy(W, ds.features, ds.labels) == 1.0


def test_blobs_rejects_tiny_n():
    with pytest.raises(BadParams):
        sf.make_blobs(3, n_classes=4)


def test_spirals_noiseless_on_curve():
    ds = sf.two_spirals(200, 0.0, seed=2)
    for point, label in zip(ds.features, ds.labels):
        r = float(np.linalg.norm(point))
        t = (r - SPIRAL_INNER) / (SPIRAL_OUTER - SPIRAL_INNER)
        exact = sf.spiral_arm(np.array([t]), int(label))[0]
        assert np.allclose(point, exact, atol=1e-9)


def test_spirals_defeat_linear_classifier():
    ds = sf.two_spirals(2000, 0.1, seed=0)
    W = fit_linear_softmax(ds.features, ds.labels, 2)
    assert linear_accuracy(W, ds.features, ds.labels) <= 0.65


def test_spirals_deterministic():
    a = sf.two_spirals(300, 0.1, seed=4)
    b = sf.two_spirals(300, 0.1, seed=4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_spirals_odd_n_rejected():
    with pytest.raises(BadParams):
        sf.two_spirals(201, 0.1)


def test_split_disjoint_and_sized():
    ds = sf.make_blobs(1000, seed=5)
    tr, va, te = set(ds.train_idx), set(ds.val_idx), set(ds.test_idx)
    assert not (tr & va or tr & te or va & te)
    assert len(tr) + len(va) + len(te) == 1000
    assert len(tr) == 700
    assert len(va) == 150


def test_split_accessor():
    ds = sf.make_blobs(200, seed=6)
    X, y = ds.split("val")
    assert len(X) == len(ds.val_idx)
    assert np.array_equal(X, ds.features[ds.val_idx])
    assert np.array_equal(y, ds.labels[ds.val_idx])


def test_load_csv_roundtrip(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,0\n3.5,-1.25,1\n0.0,0.5,1\n-2.0,4.0,0\n"
                 "1.5,1.5,1\n2.5,0.25,0\n0.75,3.0,1\n")
    ds = sf.load_csv(str(p))
    assert ds.features.shape == (7, 2)
    assert list(ds.labels) == [0, 1, 1, 0, 1, 0, 1]


def test_load_csv_header_flag(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n")
    ds = sf.load_csv(str(p), has_header=True)
    assert ds.features.shape == (2, 2)


def test_load_csv_reports_bad_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(ParseError) as err:
        sf.load_csv(str(p))
    assert "2" in str(err.value)


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        sf.load_csv(str(p))


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        sf.load_csv(str(tmp_path / "absent.csv"))


def test_load_csv_fractional_label(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1.0,2.0,0.5\n")
    with pytest.raises(NonIntegerLabel):
        sf.load_csv(str(p))


def index_of_rows(ds):
    return {tuple(row): i for i, row in enumerate(ds.features)}


def test_stream_epoch_is_permutation():
    ds = sf.make_blobs(300, seed=7)
    lookup = index_of_rows(ds)
    stream = sf.BatchStream(*ds.split("train"), batch_size=32, seed=1)
    n_batches = len(ds.train_idx) // 32
    seen = []
    for _ in range(n_batches):
        X, y = stream.next_batch()
        assert len(X) == 32
        seen.extend(lookup[tuple(row)] for row in X)
    # one epoch never repeats an example
    assert len(seen) == len(set(seen))
    assert set(seen) <= set(ds.train_idx)


def test_stream_reshuffles_across_epochs():
    ds = sf.make_blobs(300, seed=7)
    stream = sf.BatchStream(*ds.split("train"), batch_size=32, seed=1)
    n_batches = len(ds.train_idx) // 32
    first = [stream.next_batch()[0] for _ in range(n_batches)]
    second = [stream.next_batch()[0] for _ in range(n_batches)]
    assert not all(np.array_equal(a, b) for a, b in zip(first, second))


def test_stream_deterministic():
    ds = sf.make_blobs(300, seed=7)
    s1 = sf.BatchStream(*ds.split("train"), batch_size=16, seed=3)
    s2 = sf.BatchStream(*ds.split("train"), batch_size=16, seed=3)
    for _ in range(30):
        X1, y1 = s1.next_batch()
        X2, y2 = s2.next_batch()
        assert np.array_equal(X1, X2)
        assert np.array_equal(y1, y2)


def test_streams_disjoint_sources():
    # A round's per-node streams: train batches only from the train split,
    # val batches only from the val split.
    ds = sf.make_blobs(1000, seed=8)
    config = sf.SearchConfig(seed=0)
    batches = search._node_streams(ds, config, 1, [0, 1, 2])
    lookup = index_of_rows(ds)
    train_set, val_set = set(ds.train_idx), set(ds.val_idx)
    for _ in range(20):
        for g in (0, 1, 2):
            bx, _ = batches(g, "train")
            by, _ = batches(g, "val")
            assert len(bx) == config.s_x and len(by) == config.s_y
            assert {lookup[tuple(r)] for r in bx} <= train_set
            assert {lookup[tuple(r)] for r in by} <= val_set


def test_streams_too_small():
    ds = sf.make_blobs(40, seed=0)
    config = sf.SearchConfig(seed=0)
    with pytest.raises(SplitTooSmall):
        sf.iters_per_epoch(ds, config)
    with pytest.raises(SplitTooSmall):
        sf.BatchStream(*ds.split("train"), batch_size=config.s_x, seed=0)
