"""Miniature fully-connected classifiers with exact backpropagation.

Architectures are chains of ReLU layers with optional additive skip
connections. A skip (src, dst) feeds the post-activation output of layer
``src`` (0 means the raw input), scaled by a learnable scalar, into the
pre-activation of hidden layer ``dst``; source and destination widths must
match. Keeping every hidden output a ReLU image is what lets an identity
layer be inserted anywhere without changing the function.

All parameters live in one flat float64 vector with a fixed layout: per
layer W then b, the output layer last, then one scale per skip.
layout(spec) is the only code that walks it. It compiles the offsets and
shapes of every block, and the skips into each layer, once per spec.
_views(layout, buffer) is the only code that cuts a buffer into those
blocks, as NetParts(weights, biases, scales) with the output layer last:
unflatten, flatten, init_params and the kernels all take their blocks there.

The kernel body is BoundNet: a network bound to its flat vector holds W and
b as views into it, and writes the gradient straight into views of one
gradient vector. bind and every public kernel check their arguments with
one function, _check_call, under one label rule. A kernel then binds and
runs the body once; a training loop, or a search round for each stack of
networks it trains, binds once (bind), so its whole split is checked then,
and runs the body every step, updating the bound vector in place.

The kernels take a leading stack axis: params (..., P), inputs
(..., batch, input_dim) and labels (..., batch) train or score a stack of
networks of one spec in one call, so a search round pays numpy's per-call
cost once per architecture instead of once per candidate. Each row comes
out bit for bit as its own call would give it: a stacked matmul makes the
same per-matrix BLAS call, and every sum runs per row over the same
contiguous data in the same order. A single network is the 1-D case of the
same code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BadLabel,
    BadParams,
    DimensionMismatch,
    ShapeMismatch,
)
from .recording import read_json, write_atomic


@dataclass(frozen=True)
class NetSpec:
    """Architecture description: widths of the hidden chain plus skips.

    Activation index 0 is the input; index i (1-based) is the output of
    hidden layer i. Skips are (src, dst) pairs with src < dst, dst >= 1.
    """

    input_dim: int
    output_dim: int
    hidden: tuple[int, ...]
    skips: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.output_dim < 2:
            raise ValueError(
                f"need input_dim >= 1 and output_dim >= 2, got "
                f"{self.input_dim}/{self.output_dim}"
            )
        if len(self.hidden) < 1 or any(w < 1 for w in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        object.__setattr__(
            self, "skips", tuple((int(s), int(d)) for s, d in self.skips)
        )
        widths = self.widths()
        seen = set()
        for s, d in self.skips:
            if not (0 <= s < d <= len(self.hidden)) or d < 1:
                raise ValueError(f"skip ({s},{d}) out of range")
            if (s, d) in seen:
                raise ValueError(f"duplicate skip ({s},{d})")
            seen.add((s, d))
            if widths[s] != widths[d]:
                raise DimensionMismatch(
                    f"skip ({s},{d}) joins widths {widths[s]} and {widths[d]}"
                )

    def widths(self) -> list[int]:
        """Activation widths indexed 0 (input) through len(hidden)."""
        return [self.input_dim, *self.hidden]

    def incoming(self, dst: int) -> int:
        """Number of skips targeting hidden layer dst."""
        return sum(1 for _, d in self.skips if d == dst)


class LayerSlots(NamedTuple):
    """Where layer i's W (shape w_shape) and b sit in the flat vector, and
    the skips into it as (index of the skip's scale, source activation), in
    spec order."""

    w: slice
    w_shape: tuple[int, int]
    b: slice
    skips: tuple[tuple[int, int], ...]


class Layout(NamedTuple):
    """The compiled parameter layout of one NetSpec: layers[-1] is the
    output layer, which no skip enters."""

    layers: tuple[LayerSlots, ...]
    scales: slice
    n_params: int


@lru_cache(maxsize=256)
def layout(spec: NetSpec) -> Layout:
    """Walk the flat layout once: per layer W then b, the output layer
    last, then one scale per skip.

    Every other function reads the layout from here. It is cached per spec
    (NetSpec is frozen and hashable) and holds only immutable values.
    """
    end = 0

    def take(size: int) -> slice:
        nonlocal end
        end += size
        return slice(end - size, end)

    widths = [*spec.widths(), spec.output_dim]
    layers = []
    for i in range(1, len(widths)):
        h, p = widths[i], widths[i - 1]
        w, b = take(h * p), take(h)
        into = tuple((k, s) for k, (s, d) in enumerate(spec.skips) if d == i)
        layers.append(LayerSlots(w, (h, p), b, into))
    scales = take(len(spec.skips))
    return Layout(tuple(layers), scales, end)


def param_count(spec: NetSpec) -> int:
    return layout(spec).n_params


@dataclass
class NetParts:
    """Structured view of the flat parameter vector."""

    weights: list[np.ndarray]   # per layer, shape (h_i, h_{i-1}); output last
    biases: list[np.ndarray]    # per layer, shape (h_i,); output last
    scales: np.ndarray          # one scalar per skip, spec order


def _views(lay: Layout, buf: np.ndarray) -> NetParts:
    """NetParts of views into buf (..., P), each block with buf's leading
    axes: writing to a part writes to buf."""
    lead = buf.shape[:-1]
    return NetParts(
        [buf[..., layer.w].reshape(lead + layer.w_shape) for layer in lay.layers],
        [buf[..., layer.b] for layer in lay.layers],
        buf[..., lay.scales],
    )


def unflatten(spec: NetSpec, flat: np.ndarray) -> NetParts:
    """NetParts of views into flat: writing to a part writes to flat."""
    lay = layout(spec)
    flat = np.asarray(flat, dtype=float)
    if flat.ndim != 1 or flat.size != lay.n_params:
        raise BadParams(f"expected {lay.n_params} parameters, got shape {flat.shape}")
    return _views(lay, flat)


def flatten(spec: NetSpec, parts: NetParts) -> np.ndarray:
    lay = layout(spec)
    flat = np.empty(lay.n_params)
    dest = _views(lay, flat)
    if len(parts.weights) != len(dest.weights) or len(parts.biases) != len(dest.biases):
        raise BadParams(
            f"parts hold {len(parts.weights)} weight and {len(parts.biases)} "
            f"bias blocks, spec has {len(dest.weights)} layers"
        )
    for slot, piece in zip([*dest.weights, *dest.biases, dest.scales],
                           [*parts.weights, *parts.biases, parts.scales]):
        piece = np.asarray(piece, dtype=float)
        if piece.size != slot.size:
            raise BadParams(
                f"a part holds {piece.size} parameters where the spec wants "
                f"{slot.size}"
            )
        if piece.shape != slot.shape:
            raise BadParams(
                f"a part has shape {piece.shape} where the spec wants {slot.shape}"
            )
        slot[...] = piece
    return flat


def init_params(spec: NetSpec, rng: np.random.Generator) -> np.ndarray:
    """He-scaled weights (std sqrt(2/fan_in)), zero biases and skip scales."""
    flat = np.zeros(param_count(spec))
    for w in _views(layout(spec), flat).weights:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
    return flat


def _check_call(
    spec: NetSpec, params: np.ndarray, inputs: np.ndarray,
    labels: np.ndarray | None = None, lead: tuple[int, ...] | None = None,
) -> tuple[Layout, np.ndarray, np.ndarray, np.ndarray | None]:
    """The layout, params (..., P), inputs (..., batch, input_dim) and
    labels (..., batch) of one call, checked once: the only check of a
    network call. The leading stack shape of inputs is params' own unless
    lead is given: a split that a stack's batches are drawn from (bind) has
    none. Labels must have an integer dtype, since the kernel indexes with
    them, and lie in [0, output_dim) (BadLabel otherwise)."""
    lay = layout(spec)
    params = np.asarray(params, dtype=float)
    if params.ndim < 1 or params.shape[-1] != lay.n_params:
        raise BadParams(
            f"expected {lay.n_params} parameters, got shape {params.shape}"
        )
    inputs = np.asarray(inputs, dtype=float)
    if lead is None:
        lead = params.shape[:-1]
    if (inputs.ndim != len(lead) + 2 or inputs.shape[:-2] != lead
            or inputs.shape[-1] != spec.input_dim):
        raise ShapeMismatch(
            f"inputs shape {inputs.shape}, expected "
            f"({', '.join(map(str, lead + ('batch',)))}, {spec.input_dim})"
        )
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != inputs.shape[:-1]:
            raise ShapeMismatch(
                f"labels shape {labels.shape} does not match inputs "
                f"{inputs.shape[:-1]}"
            )
        if labels.dtype.kind not in "iu":
            raise BadLabel(f"labels must have an integer dtype, got {labels.dtype}")
        if labels.size and (labels.min() < 0 or labels.max() >= spec.output_dim):
            raise BadLabel(
                f"labels must lie in [0, {spec.output_dim}), got "
                f"[{labels.min()}, {labels.max()}]"
            )
    return lay, params, inputs, labels


class BoundNet:
    """A network, or a stack of networks of one spec, bound to its parameter
    buffer for steps on batches of a fixed size.

    Holds the layout's views of params (..., P), so the kernel body finds
    every weight block without walking the layout, and, once a gradient is
    asked for, one gradient buffer of the same shape with the same views.
    The buffer is reused: every call overwrites all of it and returns it.
    Writing params in place (train_step) is what the next call sees.

    Nothing is checked here: the public kernels check each call, and a
    training loop checks its whole split once (bind).
    """

    def __init__(self, lay: Layout, params: np.ndarray, batch: int):
        self.lay = lay
        self.params = params
        self.lead = lead = params.shape[:-1]
        views = _views(lay, params)
        self.weights, self.scales = views.weights, views.scales
        # (skips, W, b with a batch axis) per hidden layer, zipped only once.
        self.hidden = [(layer.skips, w, b[..., None, :]) for layer, w, b
                       in zip(lay.layers[:-1], views.weights, views.biases)]
        self.head = (views.weights[-1], views.biases[-1][..., None, :])
        # Where each batch row's logits start in the flattened (stack,
        # batch, classes) logits: row r's label logit is at starts[r] + label.
        n_classes = lay.layers[-1].w_shape[0]
        self.starts = np.arange(0, math.prod(lead) * batch * n_classes, n_classes)
        self.grad: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Returns (post-activations a_0..a_L, logits).

        The ReLU is taken in place: a_i > 0 exactly where the pre-activation
        is, so the backward pass needs no pre-activations.
        """
        acts = [inputs]
        # A contiguous W.T copy per call speeds up small products, but BLAS
        # then takes another path and the bits change, so the view stays.
        for skips, w, b in self.hidden:
            z = acts[-1] @ w.mT
            z += b
            for k, s in skips:
                z += self.scales[..., k, None, None] * acts[s]
            acts.append(np.maximum(z, 0.0, out=z))
        w, b = self.head
        return acts, acts[-1] @ w.mT + b

    def loss(self, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Mean cross-entropy of each network."""
        return _cross_entropy(self.forward(inputs)[1], labels, self.starts)[0]

    def loss_and_grad(
        self, inputs: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean cross-entropy of each network and its gradient, written into
        the bound gradient buffer, which is returned."""
        if self.grad is None:
            self.grad = np.empty(self.params.shape)
            self.d_parts = _views(self.lay, self.grad)
        d, lead, scales, weights = self.d_parts, self.lead, self.scales, self.weights
        acts, z = self.forward(inputs)

        loss, dlogits, sums, picks = _cross_entropy(z, labels, self.starts)
        dlogits /= sums[..., None]
        dlogits.reshape(-1)[picks] -= 1.0
        dlogits /= inputs.shape[-2]

        np.matmul(dlogits.mT, acts[-1], out=d.weights[-1])
        np.add.reduce(dlogits, axis=-2, out=d.biases[-1])

        d.scales[...] = 0.0
        # Activation gradients start as the float 0.0 and become arrays at
        # their first contribution; 0.0 + c keeps the signed zeros a
        # zero-filled accumulator would. The input's gradient (index 0) is
        # never read, so it is never formed.
        n_hidden = len(self.hidden)
        d_acts: list = [0.0] * n_hidden
        d_acts.append(dlogits @ weights[-1])
        for i in range(n_hidden, 0, -1):
            dz = d_acts[i]
            dz *= acts[i] > 0.0
            # No lower layer reads this layer's activation or its gradient.
            acts[i] = d_acts[i] = None
            np.matmul(dz.mT, acts[i - 1], out=d.weights[i - 1])
            np.add.reduce(dz, axis=-2, out=d.biases[i - 1])
            if i > 1:
                d_acts[i - 1] += dz @ weights[i - 1]
            for k, s in self.hidden[i - 1][0]:
                d.scales[..., k] += (dz * acts[s]).reshape(lead + (-1,)).sum(axis=-1)
                if s > 0:
                    d_acts[s] += scales[..., k, None, None] * dz
        return loss, self.grad


def bind(
    spec: NetSpec, params: np.ndarray, features: np.ndarray,
    labels: np.ndarray, batch: int,
) -> BoundNet:
    """Bind params (P,) or a stack (..., P) for steps on batches of `batch`
    rows drawn from one split, features (rows, input_dim) and labels
    (rows,), checking params and the whole split once instead of every
    batch. A stack's batches are (..., batch, input_dim) and (..., batch).
    params must be a float array: the bound network reads it, and sees
    in-place writes to it. Labels follow the kernels' rule (_check_call)."""
    lay, params, _, _ = _check_call(spec, params, features, labels, lead=())
    return BoundNet(lay, params, batch)


def logits(spec: NetSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    lay, params, inputs, _ = _check_call(spec, params, inputs)
    return BoundNet(lay, params, inputs.shape[-2]).forward(inputs)[1]


def forward(spec: NetSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Class probabilities, rows summing to 1."""
    return softmax(logits(spec, params, inputs))


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# Below this many classes numpy's sum over a contiguous axis is a plain left
# fold (its pairwise summation starts at 8 elements), so adding the class
# columns one by one gives the same bits without a short-axis reduction.
_FOLD_CLASSES = 8


def _cross_entropy(
    z: np.ndarray, labels: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy of each network's logits z (..., batch, classes),
    with the logsumexp pieces exp(z - max) and their row sums, from which
    the softmax follows, and the flat index starts + labels of each row's
    label logit in z.reshape(-1) (z and exp(z - max) are contiguous)."""
    n_classes = z.shape[-1]
    # A running maximum over the class columns is the row max (max is
    # exact), without a reduction's per-row cost over a short axis.
    m = z[..., 0]
    for c in range(1, n_classes):
        m = np.maximum(m, z[..., c])
    e = np.exp(z - m[..., None])
    if n_classes < _FOLD_CLASSES:
        sums = e[..., 0] + e[..., 1]
        for c in range(2, n_classes):
            sums += e[..., c]
    else:
        sums = e.sum(axis=-1)
    lse = m + np.log(sums)
    picks = starts + labels.ravel()
    picked = z.reshape(-1)[picks].reshape(labels.shape)
    # A per-row sum over contiguous rows is the pairwise sum a single
    # network's sum() takes; / batch is the arithmetic of np.mean.
    loss = (lse - picked).sum(axis=-1) / z.shape[-2]
    return loss, e, sums, picks


def _per_net(values: np.ndarray, params: np.ndarray):
    """One float for a single network, the array of values for a stack."""
    return values if params.ndim > 1 else float(values)


def loss_only(
    spec: NetSpec,
    params: np.ndarray,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> float | np.ndarray:
    """Mean cross-entropy without the gradient (one per network of a
    stack; see loss_and_grad)."""
    lay, params, inputs, labels = _check_call(spec, params, inputs, labels)
    loss = BoundNet(lay, params, inputs.shape[-2]).loss(inputs, labels)
    return _per_net(loss, params)


def loss_and_grad(
    spec: NetSpec,
    params: np.ndarray,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy and its gradient in the flat parameter vector.

    A stack of networks of one spec takes one call: params (..., P), inputs
    (..., batch, input_dim) and labels (..., batch) give one loss per
    network (an array) and gradients (..., P), each network's bit for bit
    what its own call gives.
    """
    lay, params, inputs, labels = _check_call(spec, params, inputs, labels)
    net = BoundNet(lay, params, inputs.shape[-2])
    loss, grad = net.loss_and_grad(inputs, labels)
    return _per_net(loss, params), grad


def evaluate(
    spec: NetSpec,
    params: np.ndarray,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) on the given arrays, from one forward
    pass."""
    lay, params, inputs, labels = _check_call(spec, params, inputs, labels)
    net = BoundNet(lay, params, inputs.shape[-2])
    z = net.forward(inputs)[1]
    loss = _cross_entropy(z, labels, net.starts)[0]
    acc = np.mean(np.argmax(z, axis=-1) == labels, axis=-1)
    return _per_net(loss, params), _per_net(acc, params)


# -- serialization --------------------------------------------------------

def spec_to_descriptors(spec: NetSpec) -> list:
    out: list = [{"op": "input", "dim": spec.input_dim}]
    for w in spec.hidden:
        out.append({"op": "dense", "width": w})
        out.append({"op": "relu"})
    out.append({"op": "output", "width": spec.output_dim})
    for s, d in spec.skips:
        out.append({"op": "skip", "src": s, "dst": d})
    return out


def _json_int(item: dict, key: str) -> int:
    value = item[key]
    if type(value) is not int:
        raise BadParams(f"descriptor {key} must be an integer, got {value!r}")
    return value


def spec_from_descriptors(items: Sequence) -> NetSpec:
    """The NetSpec of a descriptor list as read from JSON: dim, width, src
    and dst must be JSON integers, and a list that is malformed or that
    NetSpec refuses raises BadParams."""
    try:
        if not items or items[0].get("op") != "input":
            raise BadParams("descriptor list must start with an input entry")
        input_dim = _json_int(items[0], "dim")
        hidden: list[int] = []
        skips: list[tuple[int, int]] = []
        i = 1
        while i < len(items) and items[i].get("op") == "dense":
            if i + 1 >= len(items) or items[i + 1].get("op") != "relu":
                raise BadParams("dense entry not followed by relu")
            hidden.append(_json_int(items[i], "width"))
            i += 2
        if i >= len(items) or items[i].get("op") != "output":
            raise BadParams("missing output entry")
        output_dim = _json_int(items[i], "width")
        i += 1
        for item in items[i:]:
            if item.get("op") != "skip":
                raise BadParams(f"unexpected trailing entry {item!r}")
            skips.append((_json_int(item, "src"), _json_int(item, "dst")))
    except (AttributeError, KeyError, TypeError) as exc:
        raise BadParams(f"malformed architecture descriptors: {exc}") from exc
    try:
        return NetSpec(input_dim, output_dim, tuple(hidden), tuple(skips))
    except ValueError as exc:  # DimensionMismatch included
        raise BadParams(f"descriptors of no valid architecture: {exc}") from exc


def spec_digest(spec: NetSpec) -> str:
    """Short stable hash of the architecture (not the parameters)."""
    import hashlib  # here, so that only graph-dump loads OpenSSL

    blob = json.dumps(spec_to_descriptors(spec), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def save_checkpoint(path: str, spec: NetSpec, params: np.ndarray) -> None:
    """Write {"spec": [...], "flat": [...]} with exact float round-trip,
    atomically (write_atomic).

    Floats are printed with 17 significant digits, enough to reproduce the
    binary values bit for bit on load.
    """
    params = np.asarray(params, dtype=float)
    if params.size != param_count(spec):
        raise BadParams(
            f"params have {params.size} entries, spec wants {param_count(spec)}"
        )
    if not np.all(np.isfinite(params)):
        raise BadParams("refusing to save non-finite parameters")
    # '.17g' prints -0.0 as "-0", which JSON reads back as the integer 0.
    flat = ", ".join(
        "-0.0" if s == "-0" else s for s in (format(v, ".17g") for v in params)
    )
    blob = '{"spec": %s, "flat": [%s]}' % (
        json.dumps(spec_to_descriptors(spec)),
        flat,
    )
    write_atomic(path, blob + "\n")


def load_checkpoint(path: str) -> tuple[NetSpec, np.ndarray]:
    """The architecture and parameters of a checkpoint file, checked as
    outside input: "flat" must be a flat list of finite JSON numbers that
    fits the spec, else BadParams."""
    payload = read_json(path, "checkpoint")
    if not isinstance(payload, dict) or "spec" not in payload or "flat" not in payload:
        raise BadParams("checkpoint must hold 'spec' and 'flat'")
    spec = spec_from_descriptors(payload["spec"])
    flat = payload["flat"]
    if not isinstance(flat, list) or any(type(v) not in (int, float) for v in flat):
        raise BadParams("checkpoint 'flat' must be a flat list of numbers")
    try:
        flat = np.array(flat, dtype=float)
    except OverflowError as exc:  # a JSON integer past the float range
        raise BadParams(f"checkpoint parameter out of range: {exc}") from exc
    if not np.all(np.isfinite(flat)):
        raise BadParams("checkpoint has non-finite parameters")
    if flat.size != param_count(spec):
        raise BadParams(
            f"checkpoint has {flat.size} parameters, spec wants {param_count(spec)}"
        )
    return spec, flat
