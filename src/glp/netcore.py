"""Micro recurrent network with hand-derived gradients.

Architecture
------------
Encoder ("LIBC", longitudinal iterative block): a 5-hidden-unit LSTM run over
the 12-month window in both directions, the two per-month hidden states
concatenated (10), passed through ReLU, then an affine condensing map back to
5 channels followed by ReLU. Output shape equals input shape, so the block
can be iterated autoregressively: the value channel of one application's
output feeds the next application's input while age/gender are held, the
real-flag channel is zeroed (everything generated is an estimate) and the
discrete channel is recomputed from the denormalized value.

Regressor: affine 5->2, ReLU, affine 2->2, ReLU, affine 2->1. Its scalar
output is the normalized-value forecast one month past the current window.

Parameters
----------
A model's 516 weights live in one float64 vector, `GlpModel.vector`, in
`PARAM_LAYOUT` order. `GlpModel.libc` and `GlpModel.regressor` hold named
views into that vector made by `param_views`, so writing through either side
changes the other, the optimizer updates the vector in place, and gradients
accumulate into views of one flat buffer of the same layout. Pickling would
copy the views apart from the vector, so a model pickles as its vector alone
and rebuilds the views when it is unpickled (as it is on return from a
worker process).

A (M, 516) vector is a stack of M models: its views carry the leading M axis,
and its `parameter` carries one lab parameter per model, a tuple of M (one
parameter alone stands for all M); a stack's `certain` is not read.
The forward functions (`libc_forward`, `regressor_forward`, `next_input`,
`rollout_forward`) run all M at once, on one shared (B, 12, 5) input batch or
on one (M, B, 12, 5) batch per model, giving outputs with a leading M axis.
The backward functions, `rollout_loss_and_grads` and `adam_step` take the
same leading axis: each model's gradient goes into its own row of an (M, 516)
buffer, and each model keeps its own Adam moments and step count. Every
product keeps the 2-D shapes and strides of a single-model call, so each
model of a stack computes exactly the bits it would alone.

Training graphs
---------------
`rollout_loss_and_grads` computes batch-mean MSE and its exact gradient for
both graphs: gap = 0 is the single-pass supervised path, gap = g > 0 unrolls
g encoder applications and always backpropagates through all of them (the
discrete recomputation and the held channels are constants, so between
applications gradient flows through the value channel only). Gradients are
verified against central finite differences in the test suite. The optimizer
is Adam with the published constants `ADAM_BETA1`, `ADAM_BETA2` and
`ADAM_EPSILON` (Kingma & Ba 2015); only the learning rate is configurable.

Weight file format ("GLP1", version 1)
--------------------------------------
Little-endian: magic "GLP1", u16 format version, u8 parameter id (index into
`PARAMETER_ORDER`), u8 certainty threshold, then 516 IEEE-754 float64 values
in `PARAM_LAYOUT` order, then u32 CRC-32 of all preceding bytes. Recurrent
weight matrices are stored with the direction axis first (0 = forward scan,
1 = backward scan) and gate rows ordered input, forget, cell, output; all
arrays are row-major.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .cohort import PARAMETER_ORDER, LabParameter
from .encoding import discrete_codes
from .errors import IntegrityError, TrainingError

HIDDEN = 5
CHANNELS = 5
GATE_ROWS = 4 * HIDDEN  # gate order: input, forget, cell, output


@dataclass
class LibcParams:
    w_x: np.ndarray  # (2, 20, 5) input weights, per direction
    w_h: np.ndarray  # (2, 20, 5) recurrent weights
    b: np.ndarray    # (2, 20) gate biases
    w_c: np.ndarray  # (5, 10) condensing map
    b_c: np.ndarray  # (5,)


@dataclass
class RegressorParams:
    w1: np.ndarray  # (2, 5)
    b1: np.ndarray  # (2,)
    w2: np.ndarray  # (2, 2)
    b2: np.ndarray  # (2,)
    w3: np.ndarray  # (1, 2)
    b3: np.ndarray  # (1,)


PARAM_LAYOUT: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("libc.w_x", (2, GATE_ROWS, CHANNELS)),
    ("libc.w_h", (2, GATE_ROWS, HIDDEN)),
    ("libc.b", (2, GATE_ROWS)),
    ("libc.w_c", (HIDDEN, 2 * HIDDEN)),
    ("libc.b_c", (HIDDEN,)),
    ("regressor.w1", (2, 5)),
    ("regressor.b1", (2,)),
    ("regressor.w2", (2, 2)),
    ("regressor.b2", (2,)),
    ("regressor.w3", (1, 2)),
    ("regressor.b3", (1,)),
)


def _layout_slots() -> tuple[tuple[str, str, slice, tuple[int, ...]], ...]:
    slots, offset = [], 0
    for path, shape in PARAM_LAYOUT:
        group, name = path.split(".")
        size = int(np.prod(shape))
        slots.append((group, name, slice(offset, offset + size), shape))
        offset += size
    return tuple(slots)


_LAYOUT_SLOTS = _layout_slots()  # (group, name, flat slice, shape), computed once
_N_PARAMETERS = _LAYOUT_SLOTS[-1][2].stop


def n_parameters() -> int:
    return _N_PARAMETERS


def param_views(buf: np.ndarray) -> tuple[LibcParams, RegressorParams]:
    """Named views of a (..., 516) parameter buffer in `PARAM_LAYOUT` order;
    leading axes carry through to every view."""
    lead = buf.shape[:-1]
    groups: dict[str, dict[str, np.ndarray]] = {"libc": {}, "regressor": {}}
    for group, name, flat, shape in _LAYOUT_SLOTS:
        groups[group][name] = buf[..., flat].reshape(lead + shape)
    return LibcParams(**groups["libc"]), RegressorParams(**groups["regressor"])


@dataclass
class GlpModel:
    parameter: LabParameter | tuple[LabParameter, ...]  # a stack's: one per model
    certain: int
    vector: np.ndarray  # (516,) float64, the only storage of the weights
    libc: LibcParams = field(init=False, repr=False, compare=False)
    regressor: RegressorParams = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.libc, self.regressor = param_views(self.vector)

    def __reduce__(self):
        # pickling the views would copy them apart from `vector`; rebuild them
        return GlpModel, (self.parameter, self.certain, self.vector)


def vector_to_model(vec: np.ndarray, parameter: LabParameter, certain: int) -> GlpModel:
    if vec.shape != (n_parameters(),):
        raise IntegrityError(f"expected {n_parameters()} parameters, got {vec.shape}")
    return GlpModel(parameter, certain, np.array(vec, dtype=np.float64))


def init_model(parameter: LabParameter, certain: int, seed: int) -> GlpModel:
    """Uniform +-sqrt(6/(fan_in+fan_out)) per affine map and gate block;
    forget-gate bias starts at 1."""
    rng = np.random.default_rng(seed)

    def block(fan_in, fan_out, shape):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    model = GlpModel(parameter, certain, np.zeros(n_parameters()))
    libc, reg = model.libc, model.regressor
    for d in range(2):
        for gate in range(4):
            rows = slice(gate * HIDDEN, (gate + 1) * HIDDEN)
            libc.w_x[d, rows] = block(CHANNELS, HIDDEN, (HIDDEN, CHANNELS))
            libc.w_h[d, rows] = block(HIDDEN, HIDDEN, (HIDDEN, HIDDEN))
    libc.b[:, HIDDEN : 2 * HIDDEN] = 1.0
    libc.w_c[...] = block(2 * HIDDEN, HIDDEN, (HIDDEN, 2 * HIDDEN))
    reg.w1[...] = block(5, 2, (2, 5))
    reg.w2[...] = block(2, 2, (2, 2))
    reg.w3[...] = block(2, 1, (1, 2))
    return model


# ---------------------------------------------------------------------------
# forward


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form cannot overflow
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass
class LibcTrace:
    xs: np.ndarray        # (..., 2, B, 12, 5) scan-order inputs
    gate_i: np.ndarray    # (..., 2, B, 12, 5)
    gate_f: np.ndarray
    gate_g: np.ndarray
    gate_o: np.ndarray
    c_prev: np.ndarray    # (..., 2, B, 12, 5)
    tanh_c: np.ndarray
    h_prev: np.ndarray
    concat: np.ndarray    # (..., B, 12, 10) aligned pre-ReLU
    pre: np.ndarray       # (..., B, 12, 5) pre-ReLU condensed


def libc_forward(p: LibcParams, x: np.ndarray, need_trace: bool = False):
    """Run the encoder over a (..., B, 12, 5) batch; returns (out, trace).
    Leading axes of `p` and `x` broadcast, so a stack of models runs at once."""
    if not np.all(np.isfinite(x)):
        raise TrainingError("non-finite encoder input")
    B, T, _ = x.shape[-3:]
    xs = np.stack([x, x[..., ::-1, :]], axis=-4)  # direction 0 reads months forward, 1 backward
    # transposed views, not contiguous copies: a copy changes the BLAS path and the bits
    w_x_t = np.swapaxes(p.w_x, -1, -2)  # (..., 2, 5, 20)
    w_h_t = np.swapaxes(p.w_h, -1, -2)  # (..., 2, 5, 20)
    xz = xs.reshape(xs.shape[:-3] + (B * T, CHANNELS)) @ w_x_t
    xz = xz.reshape(xz.shape[:-2] + (B, T, GATE_ROWS)) + p.b[..., None, None, :]
    h = np.zeros(xz.shape[:-2] + (HIDDEN,))
    c = np.zeros_like(h)
    hs = np.empty(xz.shape[:-1] + (HIDDEN,))
    if need_trace:
        tr = LibcTrace(
            xs=xs,
            gate_i=np.empty_like(hs), gate_f=np.empty_like(hs),
            gate_g=np.empty_like(hs), gate_o=np.empty_like(hs),
            c_prev=np.empty_like(hs), tanh_c=np.empty_like(hs),
            h_prev=np.empty_like(hs), concat=None, pre=None,
        )
    for t in range(T):
        z = xz[..., t, :] + h @ w_h_t
        gi_gf = _sigmoid(z[..., 0:10])
        gi = gi_gf[..., 0:5]
        gf = gi_gf[..., 5:10]
        gg = np.tanh(z[..., 10:15])
        go = _sigmoid(z[..., 15:20])
        if need_trace:
            tr.gate_i[..., t, :] = gi
            tr.gate_f[..., t, :] = gf
            tr.gate_g[..., t, :] = gg
            tr.gate_o[..., t, :] = go
            tr.c_prev[..., t, :] = c
            tr.h_prev[..., t, :] = h
        c = gf * c + gi * gg
        tc = np.tanh(c)
        h = go * tc
        if need_trace:
            tr.tanh_c[..., t, :] = tc
        hs[..., t, :] = h
    # both directions aligned by month: (..., B, T, 10)
    concat = np.concatenate([hs[..., 0, :, :, :], hs[..., 1, :, ::-1, :]], axis=-1)
    act = np.maximum(concat, 0.0)
    # the inserted axis lines the model axes of w_c up with those of act, past B
    pre = act @ np.swapaxes(p.w_c, -1, -2)[..., None, :, :] + p.b_c[..., None, None, :]
    out = np.maximum(pre, 0.0)
    if need_trace:
        tr.concat = concat
        tr.pre = pre
        return out, tr
    return out, None


def libc_backward(p: LibcParams, tr: LibcTrace, d_out: np.ndarray, grads: LibcParams):
    """Add the gradient of a scalar loss wrt the encoder params, given d_out,
    into `grads`; returns the gradient wrt the input. Leading model axes of
    `p`, `tr`, `d_out` and `grads` carry through."""
    lead, (B, T) = d_out.shape[:-3], d_out.shape[-3:-1]
    act = np.maximum(tr.concat, 0.0)
    d_pre = d_out * (tr.pre > 0)
    grads.w_c += (np.swapaxes(d_pre.reshape(lead + (B * T, HIDDEN)), -1, -2)
                  @ act.reshape(lead + (B * T, 2 * HIDDEN)))
    grads.b_c += d_pre.sum(axis=(-3, -2))
    d_act = d_pre @ p.w_c[..., None, :, :]
    d_concat = d_act * (tr.concat > 0)
    # back to scan order per direction
    d_hs = np.stack([d_concat[..., :HIDDEN], d_concat[..., ::-1, HIDDEN:]], axis=-4)

    d_xs = np.empty_like(tr.xs)
    dz_all = np.empty(lead + (2, B, T, GATE_ROWS))
    dh_carry = np.zeros(lead + (2, B, HIDDEN))
    dc_carry = np.zeros_like(dh_carry)
    for t in range(T - 1, -1, -1):
        gi = tr.gate_i[..., t, :]
        gf = tr.gate_f[..., t, :]
        gg = tr.gate_g[..., t, :]
        go = tr.gate_o[..., t, :]
        tc = tr.tanh_c[..., t, :]
        dh = d_hs[..., t, :] + dh_carry
        do = dh * tc
        dc = dc_carry + dh * go * (1.0 - tc * tc)
        dc_carry = dc * gf
        dz = dz_all[..., t, :]
        dz[..., 0:5] = dc * gg * gi * (1 - gi)
        dz[..., 5:10] = dc * tr.c_prev[..., t, :] * gf * (1 - gf)
        dz[..., 10:15] = dc * gi * (1 - gg * gg)
        dz[..., 15:20] = do * go * (1 - go)
        d_xs[..., t, :] = dz @ p.w_x
        dh_carry = dz @ p.w_h
    # weight gradients accumulate over batch and time in two stacked matmuls
    dz_flat = np.swapaxes(dz_all.reshape(lead + (2, B * T, GATE_ROWS)), -1, -2)
    grads.w_x += dz_flat @ tr.xs.reshape(lead + (2, B * T, CHANNELS))
    grads.w_h += dz_flat @ tr.h_prev.reshape(lead + (2, B * T, HIDDEN))
    grads.b += dz_all.sum(axis=(-3, -2))
    return d_xs[..., 0, :, :, :] + d_xs[..., 1, :, ::-1, :]


@dataclass
class RegressorTrace:
    latent: np.ndarray
    z1: np.ndarray
    a1: np.ndarray
    z2: np.ndarray
    a2: np.ndarray


def regressor_forward(p: RegressorParams, latent: np.ndarray, need_trace: bool = False):
    """Forecast scalar from a (..., B, 5) latent batch; returns (pred (..., B), trace).
    Leading axes of `p` and `latent` broadcast, as in `libc_forward`."""
    if not np.all(np.isfinite(latent)):
        raise TrainingError("non-finite regressor input")
    z1 = latent @ np.swapaxes(p.w1, -1, -2) + p.b1[..., None, :]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ np.swapaxes(p.w2, -1, -2) + p.b2[..., None, :]
    a2 = np.maximum(z2, 0.0)
    y = (a2 @ np.swapaxes(p.w3, -1, -2) + p.b3[..., None, :])[..., 0]
    if need_trace:
        return y, RegressorTrace(latent, z1, a1, z2, a2)
    return y, None


def regressor_backward(p: RegressorParams, tr: RegressorTrace, d_y: np.ndarray,
                       grads: RegressorParams):
    """Add the regressor's parameter gradient into `grads`; returns the
    gradient wrt the latent. Leading model axes carry through."""
    d_y2 = d_y[..., None]
    grads.w3 += np.swapaxes(d_y2, -1, -2) @ tr.a2
    grads.b3 += d_y.sum(axis=-1, keepdims=True)
    d_a2 = d_y2 @ p.w3
    d_z2 = d_a2 * (tr.z2 > 0)
    grads.w2 += np.swapaxes(d_z2, -1, -2) @ tr.a1
    grads.b2 += d_z2.sum(axis=-2)
    d_a1 = d_z2 @ p.w2
    d_z1 = d_a1 * (tr.z1 > 0)
    grads.w1 += np.swapaxes(d_z1, -1, -2) @ tr.latent
    grads.b1 += d_z1.sum(axis=-2)
    return d_z1 @ p.w1


# ---------------------------------------------------------------------------
# rollout graph


def next_input(out: np.ndarray, x0: np.ndarray, parameter) -> np.ndarray:
    """Reproject an encoder output onto the frame-encoding manifold so it can
    feed the next application: age/gender held from the original frame, flag
    0 (estimated), discrete code recomputed from the denormalized value.
    `out` may carry a leading model axis over the (B, 12, 5) shape of `x0`:
    `parameter` is then one lab parameter for every model or a tuple naming
    each model's, and each parameter's models are coded on its thresholds."""
    nxt = np.empty_like(out)
    nxt[..., 0] = x0[..., 0:1, 0]
    nxt[..., 1] = x0[..., 0:1, 1]
    nxt[..., 2] = 0.0
    values = np.expm1(out[..., 4])
    if isinstance(parameter, LabParameter):
        nxt[..., 3] = discrete_codes(parameter, values)
    else:
        for own in dict.fromkeys(parameter):
            rows = np.array([p is own for p in parameter])
            nxt[rows, ..., 3] = discrete_codes(own, values[rows])
    nxt[..., 4] = out[..., 4]
    return nxt


def rollout_forward(model: GlpModel, x0: np.ndarray, gap: int, need_trace=False, at=None):
    """Apply the encoder max(gap, 1) times, then the regressor once.

    Returns (pred (B,), latents, libc_traces, regressor_trace). `at` is a
    sequence of (B,) application counts in 1..max(gap, 1); latents holds one
    (B, 5) array per entry, row b the final-month latent after application
    at[j][b], so memory does not grow with the gap. By default `at` is the
    last application for every row, so latents is that one latent. pred is
    the forecast from latents[-1]. A model whose vector is (M, 516) is a
    stack of M models, run on a shared (B, 12, 5) `x0` or on an (M, B, 12, 5)
    `x0`, one batch per model: pred is (M, B) and each latent (M, B, 5).

    Given `at`, a row leaves the batch after the last application it needs:
    the rows run ordered by that count, longest first, each application runs
    the prefix of rows still needed, and the latents come back in row order.
    The prefix keeps at least min(2, B) rows, because a 1-row batch takes
    another matmul path, whose bits differ from the same row's in a larger
    batch. Without `at` (training) every row runs every application.
    """
    applications = max(int(gap), 1)
    B = x0.shape[-3]
    live, order = [B] * applications, None
    if not at:
        at = [np.full(B, applications)]
    else:
        at = [np.asarray(apps) for apps in at]
        for apps in at:
            if apps.shape != (B,) or ((apps < 1) | (apps > applications)).any():
                raise TrainingError(f"rollout snapshots need (B,) counts in 1..{applications}")
        last = np.max(at, axis=0)
        order = np.argsort(-last, kind="stable")
        x0, at = x0[..., order, :, :], [apps[order] for apps in at]
        live = [max(int(np.count_nonzero(last >= k)), min(2, B))
                for k in range(1, applications + 1)]
    seq = x0
    latents = [np.empty(model.vector.shape[:-1] + (B, HIDDEN)) for _ in at]
    traces = [] if need_trace else None
    for k, rows in enumerate(live):
        if rows < seq.shape[-3]:
            seq, x0 = seq[..., :rows, :, :], x0[..., :rows, :, :]
        out, tr = libc_forward(model.libc, seq, need_trace)
        if need_trace:
            traces.append(tr)
        for latent, apps in zip(latents, at):
            np.copyto(latent[..., :rows, :], out[..., -1, :], where=(apps[:rows] == k + 1)[:, None])
        if k < applications - 1:
            seq = next_input(out, x0, model.parameter)
    if order is not None:
        for latent in latents:
            latent[..., order, :] = latent.copy()
    pred, rtr = regressor_forward(model.regressor, latents[-1], need_trace)
    return pred, latents, traces, rtr


def rollout_loss_and_grads(model: GlpModel, x0: np.ndarray, targets: np.ndarray, gap: int):
    """Batch-mean MSE and its exact gradient as a flat parameter vector.

    gap = 0 is the supervised single-pass graph; gap > 0 backpropagates
    through every unrolled application. A stack of M models takes one batch
    per model, x0 (M, B, 12, 5) and targets (M, B), and returns (M,) losses
    and an (M, 516) gradient.
    """
    B = x0.shape[-3]
    pred, _, traces, rtr = rollout_forward(model, x0, gap, need_trace=True)
    diff = pred - targets
    loss = np.mean(diff * diff, axis=-1)
    d_pred = 2.0 * diff / B

    grads = np.zeros(model.vector.shape)
    libc_grads, regressor_grads = param_views(grads)
    d_latent = regressor_backward(model.regressor, rtr, d_pred, regressor_grads)
    d_out = np.zeros_like(x0)
    d_out[..., -1, :] = d_latent

    for k in range(len(traces) - 1, -1, -1):
        d_x = libc_backward(model.libc, traces[k], d_out, libc_grads)
        if k > 0:
            d_out = np.zeros_like(x0)
            d_out[..., 4] = d_x[..., 4]
    return loss, grads


# ---------------------------------------------------------------------------
# Adam


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    m: np.ndarray     # (..., 516)
    v: np.ndarray     # (..., 516)
    step: np.ndarray  # (...) int, one step count per model
    learning_rate: float

    @classmethod
    def create(cls, shape, learning_rate=1e-3):
        m = np.zeros(shape)
        return cls(m, np.zeros(shape), np.zeros(m.shape[:-1], dtype=np.int64), learning_rate)


def _bias_correction(beta: float, steps: np.ndarray) -> np.ndarray:
    """1 - beta**t for each model's step t, as a Python float power (the
    bits of np.power on an int array are not guaranteed to match), shaped to
    broadcast over the parameter axis."""
    steps = np.asarray(steps)
    return np.array([1.0 - beta ** int(t) for t in steps.flat]).reshape(steps.shape + (1,))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One bias-corrected Adam update of every model of a (..., 516) stack;
    returns (new_params, new_state)."""
    if (params.shape != grads.shape or params.shape != state.m.shape
            or np.shape(state.step) != params.shape[:-1]):
        raise TrainingError("adam_step shape mismatch")
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / _bias_correction(ADAM_BETA1, t)
    v_hat = v / _bias_correction(ADAM_BETA2, t)
    new_params = params - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return new_params, replace(state, m=m, v=v, step=t)


# ---------------------------------------------------------------------------
# weight files

MAGIC = b"GLP1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBB")


def _payload(model: GlpModel) -> bytes:
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, PARAMETER_ORDER.index(model.parameter), model.certain)
    return head + model.vector.astype("<f8").tobytes()


def model_checksum(model: GlpModel) -> int:
    """CRC-32 over the serialized payload; stable fingerprint of the weights."""
    return zlib.crc32(_payload(model))


def save_weights(model: GlpModel, path) -> None:
    payload = _payload(model)
    with open(path, "wb") as fh:
        fh.write(payload + struct.pack("<I", zlib.crc32(payload)))


def load_weights(path) -> GlpModel:
    expected = _HEADER.size + n_parameters() * 8 + 4
    try:
        with open(path, "rb") as fh:
            blob = fh.read(expected + 1)  # one byte past the size tells an oversized file
    except OSError as exc:
        raise IntegrityError(f"{path}: unreadable ({exc.strerror})")
    if len(blob) != expected:
        raise IntegrityError(f"{path}: truncated or oversized ({len(blob)} bytes read, "
                             f"want {expected})")
    payload, (stored,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != stored:
        raise IntegrityError(f"{path}: checksum failure")
    magic, version, param_index, certain = _HEADER.unpack(payload[: _HEADER.size])
    if magic != MAGIC:
        raise IntegrityError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise IntegrityError(f"{path}: version mismatch ({version}, supported {FORMAT_VERSION})")
    if param_index >= len(PARAMETER_ORDER):
        raise IntegrityError(f"{path}: unknown parameter id {param_index}")
    if not 0 <= certain <= 5:
        raise IntegrityError(f"{path}: certainty threshold {certain} outside [0, 5]")
    vec = np.frombuffer(payload[_HEADER.size :], dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(vec)):
        raise IntegrityError(f"{path}: non-finite weights")
    return GlpModel(PARAMETER_ORDER[param_index], certain, vec)
