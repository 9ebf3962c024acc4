"""MCC_RCNN: LSTM feature extractor, gated convolution, max pool, softmax.

Forward pass for one T x k input matrix:

    H = LSTM(X)                       H is T x h
    G = (H * W + b) .* sigmoid(H * V + g)   width-w conv, T x c
    pooled[c] = max over time of G[:, c]
    probs = softmax(W_d pooled + b_d)

The LSTM is the standard formulation: gates f, i, o and candidate state
act on z_t = [x_t ; h_{t-1}] with sigmoid/tanh nonlinearities, h_0 = c_0
= 0.  Its parameters are one stacked weight W (4h x (k + h)) and bias b
(4h), with row blocks in the order f, i, o, c: the sigmoid acts on the
first 3h rows of W z_t + b and tanh on the last h.  The input part of W
is applied to all T steps in one matmul before the recurrence.  The
convolution zero-pads (w - 1) / 2 frames on both sides (odd w
only) so the time length is preserved.  Ablations are configuration, not
code: arch "lstm" pools the LSTM output directly, arch "gcnn" convolves
the raw input.

All gradients are hand-derived (BPTT through the LSTM, column unfolding
for the convolution, subgradient routed to the argmax for the pool) and
validated against central finite differences by gradient_check().  The
BPTT computes the gate-local derivatives of every step at once before
its time loop, which then carries only dh and dc back.
Everything is float64 and deterministic under a seed.  Public single
sample entry points accept (T, k) arrays; training internals batch to
(B, T, k) for speed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embedding import DivergedLoss
from .errors import EmptyTrainSet, PipelineError

log = logging.getLogger(__name__)


class EvenKernelWidth(PipelineError):
    """Symmetric padding needs an odd convolution width."""


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh identity cannot overflow for any finite x
    return 0.5 * (1.0 + np.tanh(x / 2.0))


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of a 2-D array, shifted by the row max."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class LstmParams:
    """Stacked gates: w is (4h, k + h) over z = [x ; h_prev], b is (4h,).

    Row blocks are f, i, o, c (h rows each); the sigmoid acts on the
    first 3h rows and tanh on the candidate block c.
    """

    w: np.ndarray
    b: np.ndarray

    @property
    def hidden(self) -> int:
        return self.w.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.w.shape[1] - self.hidden


@dataclass
class GatedConvParams:
    """Linear kernel w/b and gate kernel v/g, both (width, in, out)."""

    w: np.ndarray
    b: np.ndarray
    v: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if self.w.shape[0] % 2 == 0:
            raise EvenKernelWidth(f"kernel width {self.w.shape[0]} is even")

    @property
    def width(self) -> int:
        return self.w.shape[0]

    @property
    def in_channels(self) -> int:
        return self.w.shape[1]

    @property
    def out_channels(self) -> int:
        return self.w.shape[2]


@dataclass
class ModelParams:
    """Full parameter set; lstm or conv may be None for ablation archs."""

    lstm: LstmParams | None
    conv: GatedConvParams | None
    dense_w: np.ndarray  # (l, pooled dim)
    dense_b: np.ndarray  # (l,)

    @property
    def l(self) -> int:
        return self.dense_w.shape[0]

    @property
    def arch(self) -> str:
        if self.lstm is not None and self.conv is not None:
            return "mcc_rcnn"
        if self.lstm is not None:
            return "lstm"
        if self.conv is not None:
            return "gcnn"
        raise ValueError("model has neither an LSTM nor a convolution")

    @property
    def input_dim(self) -> int:
        if self.lstm is not None:
            return self.lstm.input_dim
        return self.conv.in_channels


@dataclass
class ModelConfig:
    """Architecture knobs; hidden size lives in TrainConfig."""

    arch: str = "mcc_rcnn"  # "mcc_rcnn" | "lstm" | "gcnn"
    conv_channels: int | None = None  # defaults to the hidden size
    kernel_width: int = 3


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 12
    hidden: int = 24
    batch_size: int = 16
    seed: int = 0
    optimizer: str = "adagrad"  # "adagrad" | "sgd"


def named_params(params: ModelParams) -> dict[str, np.ndarray]:
    """Flat name -> array view of every trainable tensor, fixed order."""
    out: dict[str, np.ndarray] = {}
    if params.lstm is not None:
        out["lstm.w"] = params.lstm.w
        out["lstm.b"] = params.lstm.b
    if params.conv is not None:
        out["conv.w"] = params.conv.w
        out["conv.b"] = params.conv.b
        out["conv.v"] = params.conv.v
        out["conv.g"] = params.conv.g
    out["dense.w"] = params.dense_w
    out["dense.b"] = params.dense_b
    return out


def init_params(model_cfg: ModelConfig, input_dim: int, classes: int,
                hidden: int, seed: int = 0) -> ModelParams:
    """Seeded init: weights uniform within +-1/sqrt(fan_in), biases zero."""
    if model_cfg.arch not in ("mcc_rcnn", "lstm", "gcnn"):
        raise ValueError(f"unknown arch {model_cfg.arch!r}")
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    lstm = None
    conv = None
    pooled_dim = None
    if model_cfg.arch in ("mcc_rcnn", "lstm"):
        z_dim = input_dim + hidden
        lstm = LstmParams(w=uniform((4 * hidden, z_dim), z_dim), b=np.zeros(4 * hidden))
        pooled_dim = hidden
    if model_cfg.arch in ("mcc_rcnn", "gcnn"):
        in_ch = hidden if model_cfg.arch == "mcc_rcnn" else input_dim
        out_ch = model_cfg.conv_channels or hidden
        width = model_cfg.kernel_width
        if width % 2 == 0:
            raise EvenKernelWidth(f"kernel width {width} is even")
        fan = width * in_ch
        conv = GatedConvParams(
            w=uniform((width, in_ch, out_ch), fan),
            b=np.zeros(out_ch),
            v=uniform((width, in_ch, out_ch), fan),
            g=np.zeros(out_ch),
        )
        pooled_dim = out_ch
    dense_w = uniform((classes, pooled_dim), pooled_dim)
    return ModelParams(lstm=lstm, conv=conv, dense_w=dense_w, dense_b=np.zeros(classes))


# ---------------------------------------------------------------- LSTM

def _lstm_forward_batch(p: LstmParams, x: np.ndarray):
    b, t, k = x.shape
    h = p.hidden
    # input projection of every step at once; the loop adds h_prev @ W_h
    xw = x @ p.w[:, :k].T + p.b
    w_h = np.ascontiguousarray(p.w[:, k:].T)
    gates = np.empty((b, t, 4 * h))  # activated f, i, o, candidate
    cs = np.empty((b, t, h))
    tcs = np.empty((b, t, h))
    hs = np.empty((b, t, h))
    h_prev = np.zeros((b, h))
    c_prev = np.zeros((b, h))
    for step in range(t):
        a = xw[:, step] + h_prev @ w_h
        g = gates[:, step]
        g[:, :3 * h] = _sigmoid(a[:, :3 * h])
        g[:, 3 * h:] = np.tanh(a[:, 3 * h:])
        c = g[:, :h] * c_prev + g[:, h:2 * h] * g[:, 3 * h:]
        tc = np.tanh(c)
        h_prev = g[:, 2 * h:3 * h] * tc
        c_prev = c
        cs[:, step] = c
        tcs[:, step] = tc
        hs[:, step] = h_prev
    cache = {"x": x, "gates": gates, "c": cs, "tc": tcs, "h": hs}
    return hs, cache


def _lstm_backward(p: LstmParams, cache: dict, dh_seq: np.ndarray):
    """BPTT. Returns (param grads dict with lstm.* keys, dX).

    Every factor that depends only on the forward cache is computed for
    all steps before the loop, time-major, so each step does the true
    recurrence only: carry dh and dc back and push da through W_h.
    """
    x = cache["x"]
    b, t, k = x.shape
    h = p.hidden
    gates = cache["gates"].transpose(1, 0, 2)  # (t, b, 4h) views
    c = cache["c"].transpose(1, 0, 2)
    tc = cache["tc"].transpose(1, 0, 2)
    sig = gates[:, :, :3 * h]
    f = gates[:, :, :h]
    i = gates[:, :, h:2 * h]
    o = gates[:, :, 2 * h:3 * h]
    cand = gates[:, :, 3 * h:]
    # da holds each step's local factors until the step overwrites them
    # with da = local * [dc, dc, dh, dc], block by block:
    # f: c_prev f(1-f)   i: cand i(1-i)   o: tanh(c) o(1-o)   c: i(1-cand^2)
    # Filled in place: more full-size arrays per call make the heap trim
    # and regrow at every training step, and the page faults cost more
    # than the hoisting saves.
    da = np.empty((t, b, 4 * h))  # pre-activation gradients, rows f, i, o, c
    np.subtract(1.0, sig, out=da[:, :, :3 * h])
    da[:, :, :3 * h] *= sig
    da[0, :, :h] = 0.0
    da[1:, :, :h] *= c[:-1]
    da[:, :, h:2 * h] *= cand
    da[:, :, 2 * h:3 * h] *= tc
    local_c = da[:, :, 3 * h:]
    np.multiply(cand, cand, out=local_c)
    np.subtract(1.0, local_c, out=local_c)
    local_c *= i
    dc_dh = np.empty((t, b, h))  # dc gets dh o(1 - tanh^2 c)
    np.multiply(tc, tc, out=dc_dh)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    dh_seq = dh_seq.transpose(1, 0, 2)
    w_h = p.w[:, k:]
    dh_next = np.zeros((b, h))
    dc_next = np.zeros((b, h))
    for step in range(t - 1, -1, -1):
        dh = dh_seq[step] + dh_next
        dc = dc_next + dh * dc_dh[step]
        d = da[step]
        np.multiply(d, np.concatenate((dc, dc, dh, dc), axis=1), out=d)
        dh_next = d @ w_h
        dc_next = dc * f[step]

    z = np.empty((t, b, k + h))  # [x_t ; h_{t-1}], time-major like da
    z[:, :, :k] = x.transpose(1, 0, 2)
    z[0, :, k:] = 0.0
    z[1:, :, k:] = cache["h"].transpose(1, 0, 2)[:-1]
    da = da.reshape(t * b, 4 * h)
    grads = {"lstm.w": da.T @ z.reshape(t * b, k + h), "lstm.b": da.sum(axis=0)}
    return grads, (da @ p.w[:, :k]).reshape(t, b, k).transpose(1, 0, 2)


def lstm_forward(p: LstmParams, x: np.ndarray):
    """Hidden state sequence for a (T, k) input, or (B, T, k) batch.

    Returns (H, cache); H matches the input's batching.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        hs, cache = _lstm_forward_batch(p, x[None])
        return hs[0], cache
    return _lstm_forward_batch(p, x)


# -------------------------------------------------------- gated conv

def _gconv_forward_batch(p: GatedConvParams, h: np.ndarray):
    b, t, c_in = h.shape
    width = p.width
    pad = (width - 1) // 2
    hp = np.zeros((b, t + width - 1, c_in))
    hp[:, pad:pad + t, :] = h
    cols = np.stack([hp[:, d:d + t, :] for d in range(width)], axis=2)
    cols = cols.reshape(b, t, width * c_in)
    w2 = p.w.reshape(width * c_in, -1)
    v2 = p.v.reshape(width * c_in, -1)
    lin = cols @ w2 + p.b
    gate_sig = _sigmoid(cols @ v2 + p.g)
    out = lin * gate_sig
    cache = {"cols": cols, "lin": lin, "gate_sig": gate_sig, "in_shape": (b, t, c_in)}
    return out, cache


def _gconv_backward(p: GatedConvParams, cache: dict, dout: np.ndarray):
    b, t, c_in = cache["in_shape"]
    width = p.width
    pad = (width - 1) // 2
    c_out = p.out_channels
    cols = cache["cols"]
    lin = cache["lin"]
    gate_sig = cache["gate_sig"]

    dlin = dout * gate_sig
    dgate = dout * lin * gate_sig * (1.0 - gate_sig)

    cols_flat = cols.reshape(-1, width * c_in)
    grads = {
        "conv.w": (cols_flat.T @ dlin.reshape(-1, c_out)).reshape(width, c_in, c_out),
        "conv.b": dlin.sum(axis=(0, 1)),
        "conv.v": (cols_flat.T @ dgate.reshape(-1, c_out)).reshape(width, c_in, c_out),
        "conv.g": dgate.sum(axis=(0, 1)),
    }
    w2 = p.w.reshape(width * c_in, -1)
    v2 = p.v.reshape(width * c_in, -1)
    dcols = (dlin @ w2.T + dgate @ v2.T).reshape(b, t, width, c_in)
    dhp = np.zeros((b, t + width - 1, c_in))
    for d in range(width):
        dhp[:, d:d + t, :] += dcols[:, :, d, :]
    return grads, dhp[:, pad:pad + t, :]


def gated_conv_forward(p: GatedConvParams, h: np.ndarray):
    """Gated linear unit over time for (T, c_in) or (B, T, c_in) input."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim == 2:
        out, cache = _gconv_forward_batch(p, h[None])
        return out[0], cache
    return _gconv_forward_batch(p, h)


# ------------------------------------------------------- full model

def max_pool_over_time(x: np.ndarray):
    """(B, T, C) -> (B, C) max plus argmax indices for backprop."""
    arg = x.argmax(axis=1)
    pooled = np.take_along_axis(x, arg[:, None, :], axis=1)[:, 0, :]
    return pooled, arg


def max_pool_backward(arg: np.ndarray, shape, dpooled: np.ndarray) -> np.ndarray:
    """Route the pooled gradient to the argmax positions, zero elsewhere."""
    dx = np.zeros(shape)
    np.put_along_axis(dx, arg[:, None, :], dpooled[:, None, :], axis=1)
    return dx


def _forward_batch(params: ModelParams, x: np.ndarray):
    cache: dict = {}
    cur = x
    if params.lstm is not None:
        cur, cache["lstm"] = _lstm_forward_batch(params.lstm, cur)
    if params.conv is not None:
        cur, cache["conv"] = _gconv_forward_batch(params.conv, cur)
    pooled, arg = max_pool_over_time(cur)
    cache["pool_arg"] = arg
    cache["pool_shape"] = cur.shape
    cache["pooled"] = pooled
    logits = pooled @ params.dense_w.T + params.dense_b
    probs = softmax_rows(logits)
    return probs, cache


def mcc_rcnn_forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class probability vector for one (T, k) input matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a single (T, k) matrix")
    probs, _ = _forward_batch(params, x[None])
    return probs[0]


def _stack_batch(params: ModelParams, batch):
    xs = []
    ys = []
    for x, label in batch:
        arr = np.asarray(x, dtype=np.float64)
        xs.append(arr)
        if not 1 <= label <= params.l:
            raise ValueError(f"label {label} outside 1..{params.l}")
        ys.append(label - 1)
    return np.stack(xs), np.array(ys, dtype=np.intp)


def batch_loss(params: ModelParams, batch) -> float:
    """Mean cross-entropy of a list of (matrix, label) pairs."""
    x, y = _stack_batch(params, batch)
    probs, _ = _forward_batch(params, x)
    return float(-np.mean(np.log(probs[np.arange(len(y)), y])))


def loss_and_gradients(params: ModelParams, batch):
    """Mean cross-entropy and gradients for every parameter tensor.

    Returns (loss, grads) where grads maps the named_params() keys to
    arrays of matching shape.
    """
    x, y = _stack_batch(params, batch)
    n = len(y)
    probs, cache = _forward_batch(params, x)
    loss = float(-np.mean(np.log(probs[np.arange(n), y])))

    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grads: dict[str, np.ndarray] = {
        "dense.w": dlogits.T @ cache["pooled"],
        "dense.b": dlogits.sum(axis=0),
    }
    dcur = max_pool_backward(
        cache["pool_arg"], cache["pool_shape"], dlogits @ params.dense_w
    )
    if params.conv is not None:
        conv_grads, dcur = _gconv_backward(params.conv, cache["conv"], dcur)
        grads.update(conv_grads)
    if params.lstm is not None:
        lstm_grads, _dx = _lstm_backward(params.lstm, cache["lstm"], dcur)
        grads.update(lstm_grads)
    return loss, grads


# ------------------------------------------------------------ training

def predict(params: ModelParams, matrices, batch_size: int = 64) -> np.ndarray:
    """Predicted labels (1-based) for a list of (T, k) matrices."""
    out = np.zeros(len(matrices), dtype=np.int64)
    for lo in range(0, len(matrices), batch_size):
        chunk = matrices[lo:lo + batch_size]
        x = np.stack([np.asarray(m, dtype=np.float64) for m in chunk])
        probs, _ = _forward_batch(params, x)
        out[lo:lo + len(chunk)] = probs.argmax(axis=1) + 1
    return out


def train(model_cfg: ModelConfig, dataset, cfg: TrainConfig, to_matrix=None):
    """Train on a LabeledDataset with seeded shuffled minibatches.

    ``to_matrix`` converts a record payload to its (T, k) input matrix
    (defaults to np.asarray as float64).  Returns (params,
    history) where history rows carry epoch, mean training loss, and
    post-epoch training accuracy.  Raises DivergedLoss on non-finite
    loss and EmptyTrainSet on an empty dataset.
    """
    if len(dataset) == 0:
        raise EmptyTrainSet("empty training dataset")
    if cfg.optimizer not in ("adagrad", "sgd"):
        raise ValueError(f"unknown optimizer {cfg.optimizer!r}")
    convert = to_matrix or (lambda p: np.asarray(p, dtype=np.float64))
    mats = [convert(p) for p in dataset.payloads()]
    labels = dataset.labels()
    input_dim = mats[0].shape[1]
    params = init_params(model_cfg, input_dim, dataset.l, cfg.hidden, cfg.seed)

    rng = np.random.default_rng(cfg.seed)
    acc_state = {name: np.zeros_like(arr) for name, arr in named_params(params).items()}
    tensors = named_params(params)
    history = []
    n = len(mats)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            batch = [(mats[i], labels[i]) for i in sel]
            loss, grads = loss_and_gradients(params, batch)
            if not np.isfinite(loss):
                raise DivergedLoss(f"training loss non-finite at epoch {epoch + 1}")
            total_loss += loss * len(sel)
            for name, grad in grads.items():
                if cfg.optimizer == "adagrad":
                    acc_state[name] += grad * grad
                    tensors[name] -= cfg.learning_rate * grad / (
                        np.sqrt(acc_state[name]) + 1e-8
                    )
                else:
                    tensors[name] -= cfg.learning_rate * grad
        preds = predict(params, mats, batch_size=max(cfg.batch_size, 32))
        accuracy = float(np.mean(preds == np.array(labels)))
        history.append({
            "epoch": epoch + 1,
            "loss": total_loss / n,
            "accuracy": accuracy,
        })
        log.debug("epoch %d loss %.5f acc %.4f", epoch + 1, total_loss / n, accuracy)
    return params, history


# ------------------------------------------------------ gradient check

def gradient_check(params: ModelParams, sample, step: float = 1e-5,
                   max_params: int | None = None, seed: int = 0,
                   grads: dict | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``sample`` is one (matrix, label) pair.  When the model has more than
    ``max_params`` scalars, a seeded subsample of at least that many
    coordinates is checked.  ``grads`` overrides the analytic gradients
    (used to prove the check catches corrupted ones).  The relative error
    denominator is floored at 1e-6 to keep 0/0 and finite-difference
    noise on near-zero gradients from dominating.
    """
    batch = [sample]
    _, analytic = loss_and_gradients(params, batch)
    if grads is not None:
        analytic = grads
    tensors = named_params(params)
    coords = [
        (name, idx)
        for name, arr in tensors.items()
        for idx in range(arr.size)
    ]
    if max_params is not None and len(coords) > max_params:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(coords), size=max_params, replace=False)
        coords = [coords[i] for i in sorted(chosen)]

    worst = 0.0
    for name, idx in coords:
        arr = tensors[name]
        orig = arr.flat[idx]
        arr.flat[idx] = orig + step
        up = batch_loss(params, batch)
        arr.flat[idx] = orig - step
        down = batch_loss(params, batch)
        arr.flat[idx] = orig
        numeric = (up - down) / (2.0 * step)
        ana = analytic[name].flat[idx]
        err = abs(numeric - ana) / max(abs(numeric), abs(ana), 1e-6)
        worst = max(worst, err)
    return worst
