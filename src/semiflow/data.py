"""Datasets and mini-batch streams.

Two synthetic generators (Gaussian blobs and interleaved spirals), a CSV
loader, and seeded 70/15/15 splits. Training and validation batches come
from disjoint index sets by construction: the training stream reads only the
train split, the validation stream only the val split. Each stream reshuffles
its split every epoch and drops the final partial batch. One stream may stack
the streams of several nodes, each with its own seed, and draw all their
batches at once.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BadLabel,
    BadParams,
    NonIntegerLabel,
    ParseError,
    ShapeMismatch,
    SplitTooSmall,
)
from .knobs import check, check_fields, knob, shown
from .recording import read_text

SPIRAL_TURNS = 1.5
SPIRAL_INNER = 0.2
SPIRAL_OUTER = 2.0
LABEL_END = 2**63  # labels are int64, so each lies in [0, LABEL_END)


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if labels.dtype.kind == "f":
            fractional = ~np.isfinite(labels) | (labels != np.trunc(labels))
            if fractional.any():
                raise BadLabel(
                    f"labels must be whole numbers, got {labels[fractional][0]}"
                )
        # Judged before the cast, which wraps, warns or overflows outside it.
        outside = (labels < 0) | (labels >= LABEL_END)
        if outside.any():
            raise BadLabel(f"labels must lie in [0, 2**63), got {labels[outside][0]}")
        self.labels = np.asarray(labels, dtype=int)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ShapeMismatch(
                f"features {self.features.shape} vs labels {self.labels.shape}"
            )
        if np.any(~np.isfinite(self.features)):
            raise BadParams("features contain NaN or inf")
        n = self.features.shape[0]
        all_idx = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if len(set(all_idx.tolist())) != all_idx.size:
            raise BadParams("splits overlap")
        if all_idx.size and (all_idx.min() < 0 or all_idx.max() >= n):
            raise BadParams("split indices out of range")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        idx = {"train": self.train_idx, "val": self.val_idx, "test": self.test_idx}[name]
        return self.features[idx], self.labels[idx]

    def standardized(self) -> "Dataset":
        """Per-feature standardization fit on the train split only."""
        mu = self.features[self.train_idx].mean(axis=0)
        sd = self.features[self.train_idx].std(axis=0)
        sd[sd == 0.0] = 1.0
        return Dataset(
            (self.features - mu) / sd,
            self.labels,
            self.train_idx,
            self.val_idx,
            self.test_idx,
        )


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of every seeded draw: the child of seed at spawn key
    key. search.py's module docstring lists the keys in use."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded 70/15/15 permutation split; the remainder goes to train."""
    rng = seeded_rng(seed, 90)
    perm = rng.permutation(n)
    n_val = int(0.15 * n)
    n_test = int(0.15 * n)
    n_train = n - n_val - n_test
    return (
        np.sort(perm[:n_train]),
        np.sort(perm[n_train:n_train + n_val]),
        np.sort(perm[n_train + n_val:]),
    )


def _check_size(rows: int, cols: int) -> None:
    """BadParams for a rows x cols float array too large for numpy to
    represent (more bytes than an index can count)."""
    if rows * cols * 8 > np.iinfo(np.intp).max:
        raise BadParams(
            f"{shown(rows)} rows of {shown(cols)} features are more than numpy can hold"
        )


def make_blobs(
    n: int, d: int = 2, n_classes: int = 4, spread: float = 0.6, seed: int = 0
) -> Dataset:
    """Balanced Gaussian clusters around well-separated fixed centers."""
    if n < n_classes:
        raise BadParams(f"need n >= n_classes, got {n} < {n_classes}")
    check("d", d, "[1, inf)", BadParams)
    check("n_classes", n_classes, "[2, inf)", BadParams)
    check("spread", spread, "[0, inf)", BadParams)
    _check_size(n, d)
    rng = seeded_rng(seed, 91)
    centers = np.zeros((n_classes, d))
    if d == 1:
        centers[:, 0] = 5.0 * (np.arange(n_classes) - (n_classes - 1) / 2.0)
    else:
        angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
        centers[:, 0] = 5.0 * np.cos(angles)
        centers[:, 1] = 5.0 * np.sin(angles)
    base, extra = divmod(n, n_classes)
    counts = [base + (1 if c < extra else 0) for c in range(n_classes)]
    feats, labels = [], []
    for c, cnt in enumerate(counts):
        feats.append(centers[c] + spread * rng.normal(size=(cnt, d)))
        labels.append(np.full(cnt, c))
    features = np.vstack(feats)
    labels = np.concatenate(labels)
    order = rng.permutation(n)
    return Dataset(features[order], labels[order], *_split_indices(n, seed))


def spiral_arm(t: np.ndarray, label: int) -> np.ndarray:
    """Noise-free spiral coordinates at curve parameter t in [0, 1]."""
    radius = SPIRAL_INNER + (SPIRAL_OUTER - SPIRAL_INNER) * t
    angle = 2.0 * np.pi * SPIRAL_TURNS * t + math.pi * label
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


def two_spirals(n: int, noise: float = 0.1, seed: int = 0) -> Dataset:
    """Two interleaved spiral arms, one per class."""
    check("n", n, "[0, inf)", BadParams)
    if n % 2 != 0:
        raise BadParams(f"n must be even, got {n}")
    check("noise", noise, "[0, inf)", BadParams)
    _check_size(n, 2)
    rng = seeded_rng(seed, 92)
    half = n // 2
    feats, labels = [], []
    for label in (0, 1):
        t = rng.uniform(0.0, 1.0, size=half)
        pts = spiral_arm(t, label)
        if noise > 0:
            pts = pts + noise * rng.normal(size=pts.shape)
        feats.append(pts)
        labels.append(np.full(half, label))
    features = np.vstack(feats)
    labels = np.concatenate(labels)
    order = rng.permutation(n)
    return Dataset(features[order], labels[order], *_split_indices(n, seed))


def load_csv(
    path: str,
    label_column: int = -1,
    has_header: bool = False,
    split_seed: int = 0,
) -> Dataset:
    """Numeric CSV with one integer label column; row order kept pre-split.
    A quoted cell may span lines, so errors name the reader's physical line."""
    reader = csv.reader(io.StringIO(read_text(path, "data file"), newline=""))
    feats, labels = [], []
    n_cols = None
    try:
        if has_header:
            next(reader, None)
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            if n_cols is None:
                n_cols = len(row)
                if n_cols < 2:
                    raise ParseError("need at least two columns", line_no, 1)
                lc = label_column if label_column >= 0 else n_cols + label_column
                if not 0 <= lc < n_cols:
                    raise BadParams(
                        f"label column {label_column} out of range for {n_cols} columns"
                    )
            if len(row) != n_cols:
                raise ParseError(
                    f"expected {n_cols} columns, found {len(row)}",
                    line_no,
                    len(row),
                )
            vals = []
            for col_no, cell in enumerate(row, start=1):
                if col_no - 1 == lc:
                    continue
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"not a number: {cell!r}", line_no, col_no
                    ) from None
            cell = row[lc].strip()
            try:
                label = int(cell)
            except ValueError:
                raise NonIntegerLabel(
                    f"label {cell!r} on line {line_no} is not an integer"
                ) from None
            if not 0 <= label < LABEL_END:
                raise NonIntegerLabel(
                    f"label {label} on line {line_no} is not in [0, 2**63)"
                )
            feats.append(vals)
            labels.append(label)
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num, 1) from None
    if not feats:
        raise ParseError("no data rows", 1, 1)
    features = np.asarray(feats, dtype=float)
    labels_arr = np.asarray(labels, dtype=int)
    return Dataset(
        features, labels_arr, *_split_indices(features.shape[0], split_seed)
    )


@dataclass
class DataConfig:
    """The data.* config keys; a None seed is the run's, checked once resolved."""

    kind: str | None = None
    n: int = knob(2000, "[0, inf)")
    noise: float = knob(0.1, "[0, inf)")
    spread: float = knob(0.6, "[0, inf)")
    d: int = knob(2, "[1, inf)")
    classes: int = knob(4, "[2, inf)")
    path: str | None = None
    label_column: int = knob(-1, "[-inf, inf]")
    has_header: bool = False
    seed: int | None = knob(None, "[0, inf)")
    standardize: bool = False

    def __post_init__(self) -> None:
        check_fields(self if self.seed is not None else replace(self, seed=0))


@dataclass
class BatchStream:
    """Cursor over one split: seeded per-epoch reshuffle, partial batch dropped.

    seed is one int, or a tuple of ints for a stack of streams that share
    the split and the batch size. Row i of a stack keeps its own order and
    draws, bit for bit, what BatchStream(features, labels, batch_size,
    seed[i]) draws: all rows reach an epoch's end on the same batch, and
    then each reshuffles with its own rng, in row order. next_batch returns
    inputs (batch, d) and labels (batch,) for one seed, (n, batch, d) and
    (n, batch) for n seeds, gathered by one take from the split.
    """

    features: np.ndarray
    labels: np.ndarray
    batch_size: int
    seed: int | tuple[int, ...]
    _rngs: list[np.random.Generator] = field(init=False, repr=False)
    _orders: np.ndarray = field(init=False, repr=False)
    _pos: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        check("batch_size", self.batch_size, "[1, inf)", BadParams)
        if n < self.batch_size:
            raise SplitTooSmall(
                f"split has {n} rows, batch size is {self.batch_size}"
            )
        seeds = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        if not seeds:
            raise BadParams("a stack of streams needs at least one seed")
        self._rngs = [seeded_rng(s, 93) for s in seeds]
        self._orders = np.array([rng.permutation(n) for rng in self._rngs])
        self._pos = 0

    @property
    def batches_per_epoch(self) -> int:
        return self.features.shape[0] // self.batch_size

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        orders = self._orders
        if self._pos + self.batch_size > orders.shape[1]:
            for order, rng in zip(orders, self._rngs):
                order[:] = rng.permutation(order.size)
            self._pos = 0
        idx = orders[:, self._pos:self._pos + self.batch_size]
        self._pos += self.batch_size
        if not isinstance(self.seed, tuple):
            idx = idx[0]
        return self.features.take(idx, axis=0), self.labels.take(idx)
