"""Miniature fully-connected classifiers with exact backpropagation.

Architectures are chains of ReLU layers with optional additive skip
connections. A skip (src, dst) feeds the post-activation output of layer
``src`` (0 means the raw input), scaled by a learnable scalar, into the
pre-activation of hidden layer ``dst``; source and destination widths must
match. Keeping every hidden output a ReLU image is what lets an identity
layer be inserted anywhere without changing the function.

All parameters live in one flat float64 vector with a fixed layout:
per hidden layer W then b, then the output layer, then one scale per skip.
layout(spec) is the only code that walks it. It compiles the offsets and
shapes of every block, and the skips into each layer, once per spec.
param_count, unflatten, flatten, init_params and the kernels all read it.

The kernel body is BoundNet: a network bound to its flat vector holds W and
b as views into it, and writes the gradient straight into slices of one
gradient vector. bind and every public kernel check their arguments with
one function, _check_call, under one label rule. A kernel then binds and
runs the body once; a training loop, or a search round for each stack of
networks it trains, binds once (bind), so its whole split is checked then,
and runs the body every step, updating the bound vector in place.
NetParts is for code that edits architectures (morphisms); the training
path never builds one.

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

import hashlib
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
    MissingFile,
    ShapeMismatch,
)
from .recording import write_atomic


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
    """Where hidden layer i's W (shape w_shape) and b sit in the flat vector,
    and the skips into it as (index of the skip's scale, source
    activation), in spec order."""

    w: slice
    w_shape: tuple[int, int]
    b: slice
    skips: tuple[tuple[int, int], ...]


class Layout(NamedTuple):
    """The compiled parameter layout of one NetSpec."""

    layers: tuple[LayerSlots, ...]
    w_out: slice
    w_out_shape: tuple[int, int]
    b_out: slice
    scales: slice
    n_params: int


@lru_cache(maxsize=256)
def layout(spec: NetSpec) -> Layout:
    """Walk the flat layout once: per hidden layer W then b, then the
    output layer, then one scale per skip.

    Every other function reads the layout from here. It is cached per spec
    (NetSpec is frozen and hashable) and holds only immutable values.
    """
    end = 0

    def take(size: int) -> slice:
        nonlocal end
        end += size
        return slice(end - size, end)

    widths = spec.widths()
    layers = []
    for i in range(1, len(widths)):
        h, p = widths[i], widths[i - 1]
        w, b = take(h * p), take(h)
        into = tuple((k, s) for k, (s, d) in enumerate(spec.skips) if d == i)
        layers.append(LayerSlots(w, (h, p), b, into))
    out, h_last = spec.output_dim, widths[-1]
    w_out, b_out = take(out * h_last), take(out)
    scales = take(len(spec.skips))
    return Layout(tuple(layers), w_out, (out, h_last), b_out, scales, end)


def param_count(spec: NetSpec) -> int:
    return layout(spec).n_params


@dataclass
class NetParts:
    """Structured view of the flat parameter vector."""

    weights: list[np.ndarray]   # per hidden layer, shape (h_i, h_{i-1})
    biases: list[np.ndarray]    # per hidden layer, shape (h_i,)
    w_out: np.ndarray           # (output_dim, h_L)
    b_out: np.ndarray           # (output_dim,)
    scales: np.ndarray          # one scalar per skip, spec order


def _check_params(lay: Layout, flat: np.ndarray) -> np.ndarray:
    flat = np.asarray(flat, dtype=float)
    if flat.ndim != 1 or flat.size != lay.n_params:
        raise BadParams(
            f"expected {lay.n_params} parameters, got shape {flat.shape}"
        )
    return flat


def unflatten(spec: NetSpec, flat: np.ndarray) -> NetParts:
    """NetParts of views into flat: writing to a part writes to flat."""
    lay = layout(spec)
    flat = _check_params(lay, flat)
    return NetParts(
        [flat[layer.w].reshape(layer.w_shape) for layer in lay.layers],
        [flat[layer.b] for layer in lay.layers],
        flat[lay.w_out].reshape(lay.w_out_shape),
        flat[lay.b_out],
        flat[lay.scales],
    )


def flatten(spec: NetSpec, parts: NetParts) -> np.ndarray:
    lay = layout(spec)
    n_layers = len(lay.layers)
    if len(parts.weights) != n_layers or len(parts.biases) != n_layers:
        raise BadParams(
            f"parts hold {len(parts.weights)} weight and {len(parts.biases)} "
            f"bias blocks, spec has {n_layers} hidden layers"
        )
    slots = [s for layer in lay.layers for s in (layer.w, layer.b)]
    pieces = [p for wb in zip(parts.weights, parts.biases) for p in wb]
    slots += [lay.w_out, lay.b_out, lay.scales]
    pieces += [parts.w_out, parts.b_out, parts.scales]
    flat = np.empty(lay.n_params)
    for slot, piece in zip(slots, pieces):
        piece = np.asarray(piece, dtype=float)
        if piece.size != slot.stop - slot.start:
            raise BadParams(
                f"a part holds {piece.size} parameters where the spec wants "
                f"{slot.stop - slot.start}"
            )
        flat[slot] = piece.ravel()
    return flat


def init_params(spec: NetSpec, rng: np.random.Generator) -> np.ndarray:
    """He-scaled weights (std sqrt(2/fan_in)), zero biases and skip scales."""
    lay = layout(spec)
    flat = np.zeros(lay.n_params)
    slots = [(layer.w, layer.w_shape) for layer in lay.layers]
    for w, shape in slots + [(lay.w_out, lay.w_out_shape)]:
        fan_in = shape[1]
        flat[w] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).ravel()
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
        self.weights = [params[..., layer.w].reshape(lead + layer.w_shape)
                        for layer in lay.layers]
        self.biases = [params[..., None, layer.b] for layer in lay.layers]
        self.w_out = params[..., lay.w_out].reshape(lead + lay.w_out_shape)
        self.b_out = params[..., None, lay.b_out]
        self.scales = params[..., lay.scales]
        # Where each batch row's logits start in the flattened (stack,
        # batch, classes) logits: row r's label logit is at starts[r] + label.
        n_classes = lay.w_out_shape[0]
        self.starts = np.arange(0, math.prod(lead) * batch * n_classes, n_classes)
        self.grad: np.ndarray | None = None

    def _bind_grad(self) -> None:
        lead, lay = self.lead, self.lay
        self.grad = out = np.empty(self.params.shape)
        self.d_weights = [out[..., layer.w].reshape(lead + layer.w_shape)
                          for layer in lay.layers]
        self.d_biases = [out[..., layer.b] for layer in lay.layers]
        self.d_w_out = out[..., lay.w_out].reshape(lead + lay.w_out_shape)
        self.d_b_out = out[..., lay.b_out]
        self.d_scales = out[..., lay.scales]

    def forward(self, inputs: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Returns (post-activations a_0..a_L, logits).

        The ReLU is taken in place: a_i > 0 exactly where the pre-activation
        is, so the backward pass needs no pre-activations.
        """
        acts = [inputs]
        # A contiguous W.T copy per call speeds up small products, but BLAS
        # then takes another path and the bits change, so the view stays.
        for layer, w, b in zip(self.lay.layers, self.weights, self.biases):
            z = acts[-1] @ w.mT
            z += b
            for k, s in layer.skips:
                z += self.scales[..., k, None, None] * acts[s]
            acts.append(np.maximum(z, 0.0, out=z))
        logits = acts[-1] @ self.w_out.mT + self.b_out
        return acts, logits

    def loss(self, inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Mean cross-entropy of each network."""
        return _cross_entropy(self.forward(inputs)[1], labels, self.starts)[0]

    def loss_and_grad(
        self, inputs: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean cross-entropy of each network and its gradient, written into
        the bound gradient buffer, which is returned."""
        if self.grad is None:
            self._bind_grad()
        lay, lead, scales = self.lay, self.lead, self.scales
        acts, z = self.forward(inputs)

        loss, dlogits, sums, picks = _cross_entropy(z, labels, self.starts)
        dlogits /= sums[..., None]
        dlogits.reshape(-1)[picks] -= 1.0
        dlogits /= inputs.shape[-2]

        np.matmul(dlogits.mT, acts[-1], out=self.d_w_out)
        np.add.reduce(dlogits, axis=-2, out=self.d_b_out)

        d_scales = self.d_scales
        d_scales[...] = 0.0
        # Activation gradients start as the float 0.0 and become arrays at
        # their first contribution; 0.0 + c keeps the signed zeros a
        # zero-filled accumulator would. The input's gradient (index 0) is
        # never read, so it is never formed.
        n_hidden = len(lay.layers)
        d_acts: list = [0.0] * n_hidden
        d_acts.append(dlogits @ self.w_out)
        for i in range(n_hidden, 0, -1):
            layer = lay.layers[i - 1]
            dz = d_acts[i]
            dz *= acts[i] > 0.0
            # No lower layer reads this layer's activation or its gradient.
            acts[i] = d_acts[i] = None
            np.matmul(dz.mT, acts[i - 1], out=self.d_weights[i - 1])
            np.add.reduce(dz, axis=-2, out=self.d_biases[i - 1])
            if i > 1:
                d_acts[i - 1] += dz @ self.weights[i - 1]
            for k, s in layer.skips:
                d_scales[..., k] += (dz * acts[s]).reshape(lead + (-1,)).sum(axis=-1)
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


def predict(spec: NetSpec, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    return np.argmax(logits(spec, params, inputs), axis=-1)


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


def spec_from_descriptors(items: Sequence) -> NetSpec:
    try:
        if not items or items[0].get("op") != "input":
            raise BadParams("descriptor list must start with an input entry")
        input_dim = int(items[0]["dim"])
        hidden: list[int] = []
        skips: list[tuple[int, int]] = []
        output_dim = None
        i = 1
        while i < len(items) and items[i].get("op") == "dense":
            if i + 1 >= len(items) or items[i + 1].get("op") != "relu":
                raise BadParams("dense entry not followed by relu")
            hidden.append(int(items[i]["width"]))
            i += 2
        if i >= len(items) or items[i].get("op") != "output":
            raise BadParams("missing output entry")
        output_dim = int(items[i]["width"])
        i += 1
        for item in items[i:]:
            if item.get("op") != "skip":
                raise BadParams(f"unexpected trailing entry {item!r}")
            skips.append((int(item["src"]), int(item["dst"])))
    except (AttributeError, KeyError, TypeError) as exc:
        raise BadParams(f"malformed architecture descriptors: {exc}") from exc
    return NetSpec(input_dim, output_dim, tuple(hidden), tuple(skips))


def spec_digest(spec: NetSpec) -> str:
    """Short stable hash of the architecture (not the parameters)."""
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise MissingFile(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise BadParams(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "spec" not in payload or "flat" not in payload:
        raise BadParams("checkpoint must hold 'spec' and 'flat'")
    spec = spec_from_descriptors(payload["spec"])
    flat = np.asarray(payload["flat"], dtype=float)
    if flat.size != param_count(spec):
        raise BadParams(
            f"checkpoint has {flat.size} parameters, spec wants {param_count(spec)}"
        )
    return spec, flat
