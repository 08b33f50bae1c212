"""Dataset generators, CSV ingestion, splits, and batch streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow import search
from semiflow.data import SPIRAL_INNER, SPIRAL_OUTER
from semiflow.errors import (
    BadLabel,
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


@pytest.mark.parametrize("label", [0.5, float("nan"), float("inf")])
def test_dataset_refuses_a_label_that_is_not_a_whole_number(label):
    # 0.5 was once truncated to 0 without a word, and NaN raised numpy's
    # cast warning before the error named negative labels.
    labels = np.array([0.0, 1.0, label, 1.0])
    with pytest.raises(BadLabel, match=f"whole numbers, got {label}$"):
        sf.Dataset(np.zeros((4, 2)), labels, np.array([0, 1]), np.array([2]),
                   np.array([3]))
    kept = sf.Dataset(np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]),
                      np.array([0, 1]), np.array([2]), np.array([3]))
    assert kept.labels.tolist() == [0, 1, 0, 1]


@pytest.mark.parametrize("labels, shown", [
    pytest.param(np.array([0.0, 1.0, 1e19, 1.0]), "1e+19", id="float-1e19"),
    pytest.param(np.array([0, 1, 2**63, 1], dtype=np.uint64), str(2**63),
                 id="uint64-2**63"),
    pytest.param([0, 1, 2**64, 1], str(2**64), id="int-2**64"),
])
def test_dataset_refuses_a_label_past_int64(labels, shown):
    # These once warned and failed as negative labels, or overflowed.
    with pytest.raises(BadLabel) as err:
        sf.Dataset(np.zeros((4, 2)), labels, np.array([0, 1]), np.array([2]),
                   np.array([3]))
    assert str(err.value) == f"labels must lie in [0, 2**63), got {shown}"


@pytest.mark.parametrize("head, has_header", [
    ('0.5,1.5,0\n"0.5\n",1.5,1\n', False),  # a data cell spans lines 2-3
    ('"a\nb",c,label\n0.5,1.5,0\n', True),  # the header spans lines 1-2
], ids=["multi-line-cell", "multi-line-header"])
@pytest.mark.parametrize("bad_row, error, message", [
    ("0.5,x,0", ParseError, "not a number: 'x' (line 4, column 2)"),
    ("0.5,1.5,0.5", NonIntegerLabel, "label '0.5' on line 4 is not an integer"),
    ("0.5,1.5", ParseError, "expected 3 columns, found 2 (line 4, column 2)"),
], ids=["not-a-number", "non-integer-label", "column-count"])
def test_load_csv_errors_name_the_physical_line(tmp_path, head, has_header,
                                                bad_row, error, message):
    # A quoted cell may span lines, and such a row is valid data; the bad
    # row after it sits on physical line 4, its file's third record.
    p = tmp_path / "d.csv"
    p.write_text(head + bad_row + "\n")
    with pytest.raises(error) as err:
        sf.load_csv(str(p), has_header=has_header)
    assert str(err.value) == message


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
    # A round's stacked group streams: every row's train batches come only
    # from the train split, its val batches only from the val split.
    ds = sf.make_blobs(1000, seed=8)
    config = sf.SearchConfig(seed=0)
    train, val = search.NetObjective({}, ds, config, 1).streams((0, 1, 2))
    lookup = index_of_rows(ds)
    train_set, val_set = set(ds.train_idx), set(ds.val_idx)
    for _ in range(20):
        (bx, lx), (by, ly) = train.next_batch(), val.next_batch()
        assert bx.shape == (3, config.s_x, ds.input_dim) and lx.shape == (3, config.s_x)
        assert by.shape == (3, config.s_y, ds.input_dim) and ly.shape == (3, config.s_y)
        for rows_x, rows_y in zip(bx, by):
            assert {lookup[tuple(r)] for r in rows_x} <= train_set
            assert {lookup[tuple(r)] for r in rows_y} <= val_set


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 40),
    data=st.data(),
    n=st.integers(1, 4),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=4),
)
def test_stacked_stream_rows_match_own_streams(rows, data, n, seeds):
    # Each row of a stacked stream draws what that node's own stream draws,
    # through at least three reshuffles of every row.
    batch = data.draw(st.one_of(st.just(rows), st.integers(1, rows)))
    rng = np.random.default_rng(rows)
    features = rng.normal(size=(rows, 3))
    labels = rng.integers(0, 5, rows)
    seeds = tuple(seeds[:n])
    stack = sf.BatchStream(features, labels, batch, seeds)
    own = [sf.BatchStream(features, labels, batch, seed) for seed in seeds]
    for _ in range(3 * stack.batches_per_epoch + 1):
        inputs, targets = stack.next_batch()
        assert inputs.shape == (n, batch, 3) and targets.shape == (n, batch)
        for i, stream in enumerate(own):
            want_x, want_y = stream.next_batch()
            assert np.array_equal(inputs[i], want_x)
            assert np.array_equal(targets[i], want_y)


def test_streams_too_small():
    ds = sf.make_blobs(40, seed=0)
    config = sf.SearchConfig(seed=0)
    with pytest.raises(SplitTooSmall):
        sf.iters_per_epoch(ds, config)
    with pytest.raises(SplitTooSmall):
        sf.BatchStream(*ds.split("train"), batch_size=config.s_x, seed=0)
