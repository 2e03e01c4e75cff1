"""From-scratch stacked LSTM/GRU networks with exact backpropagation.

Everything is float64 numpy, time-major [T, B, ...]. The stack is a list
of recurrent layers with optional inverted dropout after configured
layers, topped by a width-1 dense head with a sigmoid, linear or tanh
activation applied at every timestep.

A recurrent layer keeps its G gates fused (G = 4 for LSTM, 3 for GRU;
Appleyard, Kocisky & Blunsom, arXiv 1604.01946): W [in, G*H], U [H, G*H]
and b [G*H], one column block of width H per gate. The forward pass
projects x W + b for all timesteps in one GEMM, so each step only adds
h_prev U; BPTT keeps every step's gate deltas and forms dW, dU, db and dx
after the time loop with one GEMM or reduction each. Within the loops the
gates are stacked time-major, [T, G, B, H], so each step reads and writes
one contiguous [G, B, H] slab: a ufunc over several gates (the tanh over
all of them; BPTT's scaling of a step's deltas) walks one block, not G
blocks 8*T*B*H bytes apart. Against a gate-major layout (one [T, B, H]
slab per gate) this cut the train-mode forward of the default 4x16 stack by a
fifth to a quarter (B = 32, T <= 50, one BLAS thread); BPTT stays level,
because its whole-sequence passes now read each gate as a strided view.
Padding never shares a GEMM with real steps: the projection of trailing
all-padding steps (t >= lengths.max()) runs on its own, and BPTT stops
at the last step the loss mask selects.

Every step loop (_lstm_steps, _gru_steps and the reversed loops of
_bptt_lstm and _bptt_gru) zips over time-axis views built once per layer
call (the slab, its gate rows, h_seq and c_seq; in BPTT, the deltas and
their gate rows), with U's gate blocks and BPTT's scratch
sub-views split once and the ufuncs bound to locals. A step is then only
its ufunc calls, about 15 us per GRU forward step on [32, 16] slabs.
Against indexing act[t], a[:2], u3[:2] and h_seq[t] per step this made a
5-epoch GRU `train` 4-9% faster (perfbench `train_gru`, two sets of 10
alternating pairs, 2-vCPU VM, one BLAS thread), bit for bit. The rest of
a layer is whole-sequence work: the input GEMM is about 20% of a GRU
layer's forward over [50, 32], and the local-derivative passes and
gradient GEMMs about two thirds of its BPTT.

Every gate but the last (LSTM i, f, o; GRU z, r) is a sigmoid, and
sigmoid(x) = 0.5 * (1 + tanh(x / 2)). The forward therefore runs on
pre-halved gates: it scales those gates' columns of W, U and b by 0.5
once per layer call, so one tanh over a step's whole slab, then *= 0.5
and += 0.5 on the sigmoid rows, gives every gate activation. Scaling by
a power of two commutes with rounding (subnormals aside), so the
activations are the same bits as sigmoid() of the unscaled
pre-activation, for complex-step probes too. BPTT differentiates the
unscaled parameters.

Only a train-mode forward keeps a ForwardCache, one record per layer,
without what BPTT rebuilds bit for bit by the forward's own elementwise
op: tanh(c), which an LSTM step writes to a scratch row, float dropout
masks (the boolean draw is kept) and layer inputs (the output below
times its mask). A 1-epoch default `train` (synth n=200) peaks at 8.16
MB against 10.15 with them (LSTM; GRU 6.43 against 7.61, tracemalloc).
Eval mode keeps no cache; a layer's buffers are freed once the next
layer has its input.

LSTM cell, column blocks (i, f, o | g):
    i = sigmoid(x W_i + h_prev U_i + b_i)      input gate
    f = sigmoid(x W_f + h_prev U_f + b_f)      forget gate
    o = sigmoid(x W_o + h_prev U_o + b_o)      output gate
    g = tanh(x W_g + h_prev U_g + b_g)         cell candidate
    c = f * c_prev + i * g
    h = o * tanh(c)

GRU cell (note the update-gate convention), column blocks (z, r, h):
    z = sigmoid(x W_z + h_prev U_z + b_z)      update gate
    r = sigmoid(x W_r + h_prev U_r + b_r)      reset gate
    hc = tanh(x W_h + (r * h_prev) U_h + b_h)  candidate
    h = z * h_prev + (1 - z) * hc
"""

from __future__ import annotations

import io
import json
import math
import numbers
import zipfile
import zlib
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np
from numpy.lib import format as _npy_format

from .data import HEADS, NUM_INPUT_FEATURES, NormalizationSpec


class CellKind(Enum):
    LSTM = "lstm"
    GRU = "gru"

    @property
    def num_gates(self) -> int:
        return 4 if self is CellKind.LSTM else 3


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture of the stacked recurrent network."""

    cell_kind: CellKind
    layer_widths: tuple = (16, 16, 16, 16)
    dropout_rate: float = 0.5
    dropout_after_layers: tuple = (2, 4)  # 1-based layer indices
    output_activation: str = "sigmoid"
    input_width: int = NUM_INPUT_FEATURES

    def __post_init__(self):
        kind = self.cell_kind
        object.__setattr__(self, "cell_kind",
                           CellKind(kind.lower() if isinstance(kind, str) else kind))
        for name in ("layer_widths", "dropout_after_layers", "input_width"):
            value = getattr(self, name)
            items = (value,) if name == "input_width" else tuple(value)
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                       for v in items):
                raise ValueError(f"{name} must hold integers, got {value!r}")
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        object.__setattr__(self, "dropout_after_layers",
                           tuple(sorted(set(int(i) for i in self.dropout_after_layers))))
        object.__setattr__(self, "input_width", int(self.input_width))
        if not self.layer_widths or any(w < 1 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        rate = self.dropout_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
            raise ValueError(f"dropout_rate must be a real number, got {rate!r}")
        try:
            object.__setattr__(self, "dropout_rate", float(rate))
        except OverflowError as exc:
            raise ValueError(f"dropout_rate: {exc}") from exc
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        n = len(self.layer_widths)
        if any(not 1 <= i <= n for i in self.dropout_after_layers):
            raise ValueError(f"dropout layer indices must lie in 1..{n}")
        if self.output_activation not in HEADS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")
        if self.input_width < 1:
            raise ValueError("input_width must be positive")

    @property
    def num_layers(self) -> int:
        return len(self.layer_widths)


@dataclass
class LayerParams:
    """One recurrent layer, gates fused into column blocks of width hidden
    (LSTM i, f, o, g; GRU z, r, h)."""

    w: np.ndarray  # input weights [in, gates * hidden]
    u: np.ndarray  # recurrent weights [hidden, gates * hidden]
    b: np.ndarray  # bias [gates * hidden]


def param_layout(config: NetworkConfig) -> tuple:
    """(name, shape) of every parameter leaf in arena and checkpoint order:
    layers[i].w, .u and .b from the bottom layer up, then w_out, b_out."""
    widths, layout = (config.input_width, *config.layer_widths), []
    for i, (in_width, hidden) in enumerate(zip(widths, widths[1:])):
        width = config.cell_kind.num_gates * hidden
        layout += [(f"layers[{i}].w", (in_width, width)),
                   (f"layers[{i}].u", (hidden, width)),
                   (f"layers[{i}].b", (width,))]
    return (*layout, ("w_out", (1, widths[-1])), ("b_out", (1,)))


class NetworkParams:
    """Every parameter of one stack in one contiguous 1-D vector.

    layers[i].w/.u/.b, w_out and b_out are reshaped views into vector in
    layout order, so a write through a view changes the vector and one
    ufunc on the vector reaches every parameter. leaves lists each
    (name, view) in that order. vector defaults to zeros.
    """

    def __init__(self, layout: tuple, vector=None):
        size = sum(math.prod(shape) for _, shape in layout)
        self.vector = np.zeros(size) if vector is None else vector
        if self.vector.shape != (size,):
            raise ValueError(f"layout needs {size} entries, got {self.vector.shape}")
        self.layout, self.leaves, end = layout, [], 0
        for name, shape in layout:
            start, end = end, end + math.prod(shape)
            self.leaves.append((name, self.vector[start:end].reshape(shape)))
        views = [view for _, view in self.leaves]
        self.layers = [LayerParams(*views[k:k + 3])
                       for k in range(0, len(views) - 2, 3)]
        self.w_out, self.b_out = views[-2:]


@dataclass
class ForwardCache:
    """What the backward pass needs from one train-mode forward call.

    layers holds one record per layer, bottom up: "act", its gate
    activations [T, G, B, H]; for LSTM "c" [T, B, H]; "h", its output
    [T, B, H]; and "mask", the boolean dropout draw after it [T, B, H]
    (True where a unit is kept) or None. BPTT rebuilds each layer's input,
    and the head's, from inputs or the record below.
    """

    cell_kind: CellKind
    layers: list
    inputs: np.ndarray  # [T, B, features], the batch's
    predictions: np.ndarray  # [T, B]


# ---------------------------------------------------------------------------
# activations

def sigmoid(x):
    """Logistic function as 0.5 * (1 + tanh(x / 2)): stable for any x,
    without branches."""
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


# head -> (activation, map from dloss/dpred to dloss/dpre given pred p)
_HEADS = {
    "sigmoid": (sigmoid, lambda d, p: d * p * (1.0 - p)),
    "linear": (lambda x: x, lambda d, p: d),
    "tanh": (np.tanh, lambda d, p: d * (1.0 - p * p)),
}


# ---------------------------------------------------------------------------
# initialization

def _glorot(rng, shape):
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _init_layer(rng, kind: CellKind, p: LayerParams) -> None:
    """Draw each gate's (w, u) pair in the order LSTM i, f, g, o / GRU z, r,
    h, then write the transposed blocks into p in the layer's column order."""
    in_width, hidden = p.w.shape[0], p.u.shape[0]
    draws = [(_glorot(rng, (hidden, in_width)).T, _orthogonal(rng, hidden).T)
             for _ in range(kind.num_gates)]
    if kind is CellKind.LSTM:
        draws = [draws[k] for k in (0, 1, 3, 2)]
        p.b[hidden:2 * hidden] = 1.0  # forget gate starts open
    np.concatenate([w for w, _ in draws], axis=1, out=p.w)
    np.concatenate([u for _, u in draws], axis=1, out=p.u)


def init_params(config: NetworkConfig, seed: int) -> NetworkParams:
    """Glorot-uniform input weights, orthogonal recurrent weights, zero
    biases except the LSTM forget gate which starts at 1.0."""
    rng = np.random.default_rng(seed)
    params = NetworkParams(param_layout(config))
    for layer in params.layers:
        _init_layer(rng, config.cell_kind, layer)
    params.w_out[...] = _glorot(rng, params.w_out.shape)
    return params


def validate_params(params: NetworkParams, config: NetworkConfig) -> None:
    """Raise if the parameters do not have the configuration's layout."""
    if params.layout != param_layout(config):
        raise ValueError(f"parameters do not fit a {config.cell_kind.value} "
                         f"stack of widths {config.layer_widths} over "
                         f"{config.input_width} inputs")


# ---------------------------------------------------------------------------
# cells: a layer's step loop takes act = x W + b as [T, G, B, H], with the
# sigmoid gates' rows pre-halved, adds h_prev U (pre-halved the same way) at
# each step and leaves the gate activations in act

def _by_gate(a, hidden):
    """[G, rows, hidden] view of a fused [rows, G * hidden] array."""
    return a.reshape(a.shape[0], -1, hidden).transpose(1, 0, 2)


def _lstm_steps(u3, act, h, c, h_seq, c_seq):
    """Run the cell over act from the state (h, c) into h_seq and c_seq;
    returns the last (h, c)."""
    tanh, multiply, matmul = np.tanh, np.multiply, np.matmul
    tc = np.empty_like(c)  # one step's i * g, then its tanh(c)
    for a, ifo, i, f, o, g, h_t, c_t in zip(
            act, act[:, :3], act[:, 0], act[:, 1], act[:, 2], act[:, 3],
            h_seq, c_seq):
        a += matmul(h, u3)
        tanh(a, a)
        ifo *= 0.5
        ifo += 0.5
        multiply(f, c, c_t)
        multiply(i, g, tc)
        c_t += tc
        tanh(c_t, tc)
        multiply(tc, o, h_t)
        h, c = h_t, c_t
    return h, c


def _gru_steps(u3, act, h, h_seq):
    """Run the cell over act from the state h into h_seq; returns the last h."""
    u_zr, u_h = u3[:2], u3[2]
    tanh, multiply, matmul = np.tanh, np.multiply, np.matmul
    for zr, z, r, hc, h_t in zip(act[:, :2], act[:, 0], act[:, 1], act[:, 2],
                                 h_seq):
        zr += matmul(h, u_zr)
        tanh(zr, zr)
        zr *= 0.5
        zr += 0.5
        hc += matmul(r * h, u_h)
        tanh(hc, hc)
        multiply(z, h, h_t)
        h_t += (1.0 - z) * hc
        h = h_t
    return h


# ---------------------------------------------------------------------------
# network forward

def _forward_layer(kind: CellKind, p: LayerParams, x_seq, t_real):
    """Run one layer over [T, B, in]; returns its record (see ForwardCache).

    x W + b, with the sigmoid gates' columns halved, is one GEMM over the
    steps before t_real and one over the all-padding steps after it; the
    step loop turns it into the gate activations [T, G, B, H] in place,
    one contiguous [G, B, H] slab per step. Buffers take the dtype of
    x_seq and p, so a complex-step probe stays complex and a float64 run
    stays float64.
    """
    t_max, batch, in_width = x_seq.shape
    gates, hidden = kind.num_gates, p.u.shape[0]
    half = np.full(gates * hidden, 0.5)
    half[-hidden:] = 1.0  # the last gate is the tanh one
    w = p.w * half
    dtype = np.result_type(x_seq, w)
    act = np.empty((t_max, gates, batch, hidden), dtype)
    for lo, hi in ((0, t_real), (t_real, t_max)):
        if hi > lo:
            proj = x_seq[lo:hi].reshape(-1, in_width) @ w
            act[lo:hi] = proj.reshape(hi - lo, batch, gates,
                                      hidden).transpose(0, 2, 1, 3)
    act += (p.b * half).reshape(gates, 1, hidden)
    u3 = np.ascontiguousarray(_by_gate(p.u * half, hidden))
    h_seq = np.empty((t_max, batch, hidden), dtype)
    h = np.zeros((batch, hidden), dtype)
    record = {"act": act, "h": h_seq, "mask": None}
    if kind is CellKind.LSTM:
        c_seq = record["c"] = np.empty((t_max, batch, hidden), dtype)
        _lstm_steps(u3, act, h, np.zeros((batch, hidden), dtype), h_seq,
                    c_seq)
    else:
        _gru_steps(u3, act, h, h_seq)
    return record


def network_forward(params: NetworkParams, config: NetworkConfig, batch,
                    mode: str = "eval", rng=None):
    """Run the stack over a padded batch; returns (predictions, cache).

    Train mode samples a fresh inverted-dropout mask per element per
    timestep after each configured layer; each dropout site draws from
    its own child rng stream so masks on real timesteps do not depend on
    how much padding the batch carries. It keeps every layer's record and
    the batch's inputs for network_backward. Eval mode applies no
    dropout, is fully deterministic and returns None for the cache: a
    layer's buffers are freed once the next layer has its input, so only
    one layer's are alive at a time.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    validate_params(params, config)
    if batch.inputs.shape[2] != config.input_width:
        raise ValueError(f"batch has {batch.inputs.shape[2]} features, "
                         f"config expects {config.input_width}")
    use_dropout = (mode == "train" and config.dropout_rate > 0.0
                   and config.dropout_after_layers)
    streams = {}
    if use_dropout:
        if rng is None:
            raise ValueError("train mode with dropout needs an rng")
        children = rng.spawn(len(config.dropout_after_layers))
        streams = dict(zip(config.dropout_after_layers, children))

    inputs = x_seq = np.asarray(batch.inputs, dtype=np.float64)
    t_real = int(np.max(batch.lengths))
    layers = []
    for idx, layer in enumerate(params.layers, start=1):
        record = _forward_layer(config.cell_kind, layer, x_seq, t_real)
        x_seq = record["h"]
        if idx in streams:
            record["mask"] = streams[idx].random(x_seq.shape) >= config.dropout_rate
            x_seq = x_seq * _dropout_factors(record["mask"], config.dropout_rate)
        if mode == "train":
            layers.append(record)
        del record  # in eval mode, frees act and c before the next layer

    pre = np.squeeze(x_seq @ params.w_out.T, axis=2) + params.b_out[0]
    predictions = _HEADS[config.output_activation][0](pre)
    return predictions, (ForwardCache(config.cell_kind, layers, inputs, predictions)
                         if mode == "train" else None)


def _dropout_factors(keep, rate):
    """Inverted dropout's factor per unit of a boolean draw: 0 or 1 / (1 - rate)."""
    return keep.astype(np.float64) / (1.0 - rate)


# ---------------------------------------------------------------------------
# network backward (BPTT)

def network_backward(params: NetworkParams, config: NetworkConfig,
                     cache: ForwardCache, dloss_dpred, mask) -> NetworkParams:
    """Exact gradients of the masked loss w.r.t. every parameter, in an
    arena of the parameters' layout.

    Steps after the last one the mask selects carry exactly zero
    gradient, so every sum over time stops there. cache comes from a
    train-mode forward with the same config.
    """
    validate_params(params, config)
    if not isinstance(cache, ForwardCache):
        raise ValueError("network_backward needs the cache of a train-mode "
                         f"forward, got {type(cache).__name__}")
    if cache.cell_kind is not config.cell_kind:
        raise ValueError("cache was produced with a different cell kind")
    if len(cache.layers) != config.num_layers:
        raise ValueError("cache layer count does not match the configuration")
    dloss_dpred = np.asarray(dloss_dpred, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if dloss_dpred.shape != cache.predictions.shape or mask.shape != dloss_dpred.shape:
        raise ValueError("dloss_dpred and mask must match the predictions")
    grads = NetworkParams(params.layout)
    selected = np.flatnonzero(mask.any(axis=1))
    if selected.size == 0:
        return grads
    t_real = int(selected[-1]) + 1

    dpred = dloss_dpred[:t_real] * mask[:t_real]
    dz = _HEADS[config.output_activation][1](dpred, cache.predictions[:t_real])
    dh_above = dz[:, :, None] * params.w_out[0]
    below, rate = [{"h": cache.inputs, "mask": None}, *cache.layers], config.dropout_rate

    def layer_input(idx):  # layer idx's input, rebuilt; the head's past the top
        h, keep = below[idx]["h"][:t_real], below[idx]["mask"]
        return h if keep is None else h * _dropout_factors(keep[:t_real], rate)

    bptt = _bptt_lstm if config.cell_kind is CellKind.LSTM else _bptt_gru
    for idx in reversed(range(config.num_layers)):
        p, g, keep = params.layers[idx], grads.layers[idx], below[idx + 1]["mask"]
        if keep is not None:
            dh_above = dh_above * _dropout_factors(keep[:t_real], rate)
        # one GEMM or reduction each over the gate deltas' fused rows
        d2, x_seq = bptt(p, g, cache.layers[idx], dh_above), layer_input(idx)
        g.w[...] = x_seq.reshape(-1, x_seq.shape[2]).T @ d2
        g.b[...] = d2.sum(axis=0)
        dh_above = (d2 @ p.w.T).reshape(x_seq.shape) if idx else None
        del d2, x_seq  # before the next layer's BPTT
    x_seq = layer_input(config.num_layers)
    grads.w_out[...] = dz.reshape(1, -1) @ x_seq.reshape(-1, x_seq.shape[2])
    grads.b_out[0] = np.sum(dz)
    return grads


def _previous(seq):
    """seq shifted one step later in time, zeros at t = 0."""
    return np.concatenate([np.zeros_like(seq[:1]), seq[:-1]])


def _fused_rows(delta):
    """Time-major deltas [T, G, B, H] as fused rows [T * B, G * H]."""
    _, gates, _, hidden = delta.shape
    return delta.transpose(0, 2, 1, 3).reshape(-1, gates * hidden)


def _bptt_lstm(p: LayerParams, grads, record, dh_seq):
    """BPTT through one LSTM layer over the T steps of dh_seq; writes the
    layer's dU into grads and returns its gate deltas as fused rows."""
    t_real, batch, n = dh_seq.shape
    act = record["act"][:t_real]
    i, f, o, g = act[:, 0], act[:, 1], act[:, 2], act[:, 3]
    c_seq = record["c"][:t_real]
    tc = np.tanh(c_seq)  # the bits the forward's step computed
    # delta holds each gate's local derivative until step t scales it by
    # dc (i, f, g) or dh (o)
    delta = np.empty_like(act)
    delta[:, 0] = g * i * (1.0 - i)
    delta[:, 1] = _previous(c_seq) * f * (1.0 - f)
    delta[:, 2] = tc * o * (1.0 - o)
    delta[:, 3] = i * (1.0 - g * g)
    dc_dh = o * (1.0 - tc * tc)
    del tc
    u3t = np.ascontiguousarray(_by_gate(p.u, n).transpose(0, 2, 1))
    # scale is (dc, dc, dh, dc), so one multiply scales the step's slab
    scale = np.empty(delta.shape[1:])
    dc, dh, dc_fg = scale[0], scale[2], scale[1::2]
    dh_rec, dc_rec = np.zeros((batch, n)), np.zeros((batch, n))
    dh_by_gate = np.empty_like(scale)
    add, multiply, matmul, reduce = np.add, np.multiply, np.matmul, np.add.reduce
    # each step's d is a view, so its scaling lands in delta
    for dh_t, d, dc_dh_t, f_t in zip(dh_seq[::-1], delta[::-1], dc_dh[::-1],
                                     f[::-1]):
        add(dh_t, dh_rec, dh)
        multiply(dh, dc_dh_t, dc)
        dc += dc_rec
        dc_fg[...] = dc
        d *= scale
        multiply(dc, f_t, dc_rec)
        matmul(d, u3t, dh_by_gate)
        reduce(dh_by_gate, 0, out=dh_rec)
    del dc_dh, dc_dh_t  # before the fused-row copy, where a backward peaks
    d2 = _fused_rows(delta)
    grads.u[...] = record["h"][:t_real - 1].reshape(-1, n).T @ d2[batch:]
    return d2


def _bptt_gru(p: LayerParams, grads, record, dh_seq):
    """BPTT through one GRU layer over the T steps of dh_seq; writes the
    layer's dU into grads and returns its gate deltas as fused rows."""
    t_real, batch, n = dh_seq.shape
    act = record["act"][:t_real]
    z, r, hc = act[:, 0], act[:, 1], act[:, 2]
    h_prev = _previous(record["h"][:t_real])
    # local derivatives until step t scales them by dh (z, h) or d(r*h) (r)
    delta = np.empty_like(act)
    rh = r * h_prev
    delta[:, 0] = (h_prev - hc) * z * (1.0 - z)
    delta[:, 1] = rh * (1.0 - r)
    delta[:, 2] = (1.0 - z) * (1.0 - hc * hc)
    u3t = np.ascontiguousarray(_by_gate(p.u, n).transpose(0, 2, 1))
    # dh_rec sums the terms d_z U_z', d_r U_r', dh z and d(r*h) r, in that
    # order; (dh, d(r*h)) times (z, r) is one multiply
    dh_drh = np.empty((2, batch, n))
    dh, drh = dh_drh
    terms = np.empty((4, batch, n))
    by_u, by_gate = terms[:2], terms[2:]
    u3t_zr, u3t_h = u3t[:2], u3t[2]
    dh_rec = np.zeros((batch, n))
    add, multiply, matmul, reduce = np.add, np.multiply, np.matmul, np.add.reduce
    back = delta[::-1]  # a step's gate rows are views, so scaling lands in delta
    for dh_t, d_zh, d_r, d_h, d_zr, zr in zip(dh_seq[::-1], back[:, ::2],
                                              back[:, 1], back[:, 2],
                                              back[:, :2], act[::-1, :2]):
        add(dh_t, dh_rec, dh)
        multiply(d_zh, dh, d_zh)
        matmul(d_h, u3t_h, drh)
        multiply(d_r, drh, d_r)
        matmul(d_zr, u3t_zr, by_u)
        multiply(dh_drh, zr, by_gate)
        reduce(terms, 0, out=dh_rec)
    d2 = _fused_rows(delta)
    grads.u[:, :2 * n] = h_prev.reshape(-1, n).T @ d2[:, :2 * n]
    grads.u[:, 2 * n:] = rh.reshape(-1, n).T @ d2[:, 2 * n:]
    return d2


# ---------------------------------------------------------------------------
# complex-step oracle

COMPLEX_STEP = 1e-30  # the step h of every complex-step derivative


def numerical_gradient(params: NetworkParams, loss_fn,
                       epsilon: float = COMPLEX_STEP) -> NetworkParams:
    """Complex-step gradient Im loss_fn(x + i epsilon e_k) / epsilon of
    loss_fn(params) per entry k of a complex128 copy of the arena (Martins,
    Sturdza & Alonso, ACM TOMS 29(3), 2003): nothing is subtracted, so it
    is exact to rounding. loss_fn must keep imaginary parts, as mse_loss
    does for a complex prediction. params is not modified.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    probe = NetworkParams(params.layout, params.vector.astype(np.complex128))
    grads = NetworkParams(params.layout)
    for k in range(grads.vector.size):
        probe.vector[k] += 1j * epsilon
        grads.vector[k] = np.imag(loss_fn(probe)) / epsilon
        probe.vector[k] = params.vector[k]
    return grads


# ---------------------------------------------------------------------------
# checkpoints

_CHECKPOINT_META = "meta.json"
_CHECKPOINT_FORMAT = "pournet-checkpoint-v2"


def save_checkpoint(path, params: NetworkParams, config: NetworkConfig,
                    norm: NormalizationSpec) -> None:
    """Write a deterministic npz-compatible checkpoint.

    The container is a stored (uncompressed) zip with fixed entry
    timestamps so identical inputs produce byte-identical files. Layer i
    is stored fused, as layers[i].w, layers[i].u and layers[i].b. The
    file is built in memory and read back as load_checkpoint reads it, so
    anything the loader would refuse (a non-finite weight, norm's mode
    other than the config's output activation, an input width other than
    norm's) raises ValueError naming path before the file is created.
    """
    meta = {f.name: getattr(config, f.name) for f in fields(NetworkConfig)}
    meta.update(format=_CHECKPOINT_FORMAT, cell_kind=config.cell_kind.value,
                output_width=1, norm_mode=norm.mode,
                norm_target_min=norm.target_min, norm_target_max=norm.target_max)
    entries = [("norm_input_mean", norm.input_mean),
               ("norm_input_std", norm.input_std)]
    entries.extend(params.leaves)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        info = zipfile.ZipInfo(_CHECKPOINT_META, date_time=(1980, 1, 1, 0, 0, 0))
        zf.writestr(info, json.dumps(meta, sort_keys=True))
        for name, arr in entries:
            npy = io.BytesIO()
            _npy_format.write_array(npy, np.ascontiguousarray(arr))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, npy.getvalue())
    _open_checkpoint(path, buf)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path):
    """Read a checkpoint; returns (params, config, normalization spec).

    Raises ValueError naming the file for content it cannot read or that
    is incomplete or invalid; every array must be finite float64 of its
    expected shape, and the message names a bad one.
    """
    return _open_checkpoint(path, path)


def _open_checkpoint(path, source):
    """_read_checkpoint of the zip in source, the file at path or its
    bytes; raises ValueError naming path for what a damaged file raises."""
    try:
        with zipfile.ZipFile(source, "r") as zf:
            return _read_checkpoint(zf)
    except (zipfile.BadZipFile, zlib.error, EOFError, OSError, RuntimeError,
            OverflowError, LookupError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {str(exc) or type(exc).__name__}") from exc


def _read_checkpoint(zf: zipfile.ZipFile):
    """Settings come only from meta.json and arrays only from the .npy
    entries, so neither can stand in for the other. Only the entries the
    settings name are read, each header before its data."""
    if _CHECKPOINT_META not in zf.namelist():
        raise ValueError(f"checkpoint has no {_CHECKPOINT_META}")
    meta = json.loads(zf.read(_CHECKPOINT_META).decode("utf-8"))
    found = meta.get("format") if isinstance(meta, dict) else None
    if found != _CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint format {found!r} is not "
                         f"{_CHECKPOINT_FORMAT!r}")

    def need(key):
        if key not in meta:
            raise ValueError(f"checkpoint is missing {key!r}")
        return meta[key]

    def need_array(name, shape):
        if name + ".npy" not in zf.namelist():
            raise ValueError(f"checkpoint is missing {name!r}")
        with zf.open(name + ".npy") as fh:
            version = _npy_format.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"checkpoint array {name} is .npy {version}")
            stored, fortran, dtype = (_npy_format.read_array_header_1_0(fh)
                                      if version == (1, 0) else
                                      _npy_format.read_array_header_2_0(fh))
            if dtype != np.float64 or stored != shape:
                raise ValueError(f"checkpoint array {name} is {dtype} "
                                 f"{stored}, not float64 {shape}")
            data = fh.read(8 * math.prod(shape))  # a short entry fails below
        arr = np.frombuffer(data).reshape(shape, order="F" if fortran else "C")
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint array {name} is not finite")
        return arr

    if need("output_width") != 1:
        raise ValueError(f"checkpoint output_width {meta['output_width']!r} "
                         f"is not 1, the width of the dense head")
    config = NetworkConfig(**{f.name: need(f.name) for f in fields(NetworkConfig)})
    if need("norm_mode") != config.output_activation:
        raise ValueError(f"checkpoint norm_mode {meta['norm_mode']!r} does not "
                         f"match its output_activation {config.output_activation!r}")
    norm = NormalizationSpec(
        mode=config.output_activation, target_min=need("norm_target_min"),
        target_max=need("norm_target_max"),
        input_mean=need_array("norm_input_mean", (NUM_INPUT_FEATURES,)),
        input_std=need_array("norm_input_std", (NUM_INPUT_FEATURES,)))
    if config.input_width != len(norm.input_mean):
        raise ValueError(f"checkpoint input_width {config.input_width} does "
                         f"not match the {len(norm.input_mean)} features of "
                         f"norm_input_mean")
    # every leaf's shape is checked before the vector is allocated, so
    # widths in meta.json alone cannot ask for a huge vector
    layout = param_layout(config)
    leaves = [need_array(name, shape).ravel() for name, shape in layout]
    return NetworkParams(layout, np.concatenate(leaves)), config, norm
