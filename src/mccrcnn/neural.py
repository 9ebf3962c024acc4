"""MCC_RCNN: LSTM feature extractor, gated convolution, max pool, softmax.

Forward pass for one T x k input matrix:

    H = LSTM(X)                       H is T x h
    [L | A] = H * W + b               width-w conv, T x 2c
    G = L .* sigmoid(A)               T x c
    pooled[c] = max over time of G[:, c]
    probs = softmax(W_d pooled + b_d)

The LSTM is the standard formulation: gates f, i, o and candidate state
act on z_t = [x_t ; h_{t-1}] with sigmoid/tanh nonlinearities, h_0 = c_0
= 0.  Its parameters are one stacked weight W (4h x (k + h)) and bias b
(4h), with row blocks in the order f, i, o, c: the sigmoid acts on the
first 3h rows of W z_t + b and tanh on the last h.  The input part of W
is applied to all T steps in one matmul before the recurrence.  The
convolution is likewise one stacked kernel W (w x in x 2c) and bias b
(2c): the first c output columns are the linear half L, the last c the
gate A, so the forward is one matmul and the backward one per gradient.
It zero-pads (w - 1) / 2 frames on both sides (odd w only) so the time
length is preserved.  Ablations are configuration, not
code (ARCHS): arch "lstm" pools the LSTM output directly, arch "gcnn"
convolves the raw input.  Every forward first checks the input width.

All gradients are hand-derived (BPTT through the LSTM, column unfolding
for the convolution, subgradient routed to the argmax for the pool) and
validated against central finite differences by gradient_check().  The
BPTT computes the gate-local derivatives of every step at once before
its time loop, which then carries only dh and dc back.
The LSTM's time loop works in one set of gate-major step buffers per
call (the (4h, B) gates, the (h, B) c and tanh c), so every gate view is
a contiguous row block made once, and every step's gate and state math
is done in place.  Its output and cache are time-major (T, ., B) arrays
handed out as (B, T, .) views.
Inference keeps no backward cache: predict, mcc_rcnn_forward and
batch_loss hold only what the next layer reads.  Only
loss_and_gradients fills the cache (every step's gates, c and tanh c,
copied from the step buffers, and the conv columns and gate), as do the
public lstm_forward and gated_conv_forward, which return it.  Both paths
run the same loop and give the same bits.
Everything is float64 and deterministic under a seed.  A batch is one
(B, T, k) array with a vector of B 1-based labels; mcc_rcnn_forward and
gradient_check take a single (T, k) sample.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DivergedLoss, EmptyTrainSet, PipelineError, ShapeMismatch

log = logging.getLogger(__name__)

#: architecture names, ablations first, and each one's (LSTM, gated conv)
ARCHS = ("lstm", "gcnn", "mcc_rcnn")
_LAYERS = dict(zip(ARCHS, ((True, False), (False, True), (True, True))))
#: the AdaGrad step of train
LEARNING_RATE = 0.05


class EvenKernelWidth(PipelineError):
    """Symmetric padding needs an odd convolution width."""


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh identity cannot overflow for any finite x; one allocation,
    # and the same bits as 0.5 * (1 + tanh(x / 2)): scaling by a power of
    # two is exact, so x * 0.5 == x / 2, and + and * commute
    s = x * 0.5
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of a 2-D array, shifted by the row max."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(probs: np.ndarray, y_idx: np.ndarray):
    """Mean cross-entropy of softmax rows against 0-based labels.

    Returns (loss, dlogits), where dlogits = (probs - onehot) / n is the
    loss gradient with respect to the logits.
    """
    n = len(y_idx)
    loss = float(-np.mean(np.log(probs[np.arange(n), y_idx])))
    dlogits = probs.copy()
    dlogits[np.arange(n), y_idx] -= 1.0
    dlogits /= n
    return loss, dlogits


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
    """Stacked kernel: w is (width, in, 2 out), b is (2 out,).

    The first out columns are the linear kernel, the last out the gate.
    """

    w: np.ndarray
    b: np.ndarray

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
        return self.w.shape[2] // 2


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
    def input_dim(self) -> int:
        if self.lstm is not None:
            return self.lstm.input_dim
        return self.conv.in_channels


@dataclass
class ModelConfig:
    """Architecture knobs; hidden size lives in TrainConfig."""

    conv_channels: int
    kernel_width: int
    arch: str = "mcc_rcnn"  # a name in ARCHS


@dataclass
class TrainConfig:
    epochs: int
    hidden: int
    batch_size: int
    seed: int


def named_params(params: ModelParams) -> dict[str, np.ndarray]:
    """Flat name -> array view of every trainable tensor, fixed order."""
    out: dict[str, np.ndarray] = {}
    if params.lstm is not None:
        out["lstm.w"] = params.lstm.w
        out["lstm.b"] = params.lstm.b
    if params.conv is not None:
        out["conv.w"] = params.conv.w
        out["conv.b"] = params.conv.b
    out["dense.w"] = params.dense_w
    out["dense.b"] = params.dense_b
    return out


def init_params(model_cfg: ModelConfig, input_dim: int, classes: int,
                hidden: int, seed: int = 0) -> ModelParams:
    """Seeded init: weights uniform within +-1/sqrt(fan_in), biases zero."""
    if model_cfg.arch not in ARCHS:
        raise ValueError(f"unknown arch {model_cfg.arch!r}")
    use_lstm, use_conv = _LAYERS[model_cfg.arch]
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    lstm = None
    conv = None
    pooled_dim = None
    if use_lstm:
        z_dim = input_dim + hidden
        lstm = LstmParams(w=uniform((4 * hidden, z_dim), z_dim), b=np.zeros(4 * hidden))
        pooled_dim = hidden
    if use_conv:
        in_ch = hidden if use_lstm else input_dim
        out_ch = model_cfg.conv_channels
        width = model_cfg.kernel_width
        # the linear kernel's draw, then the gate kernel's, side by side
        kernels = uniform((2, width, in_ch, out_ch), width * in_ch)
        conv = GatedConvParams(w=np.concatenate(kernels, axis=2), b=np.zeros(2 * out_ch))
        pooled_dim = out_ch
    dense_w = uniform((classes, pooled_dim), pooled_dim)
    return ModelParams(lstm=lstm, conv=conv, dense_w=dense_w, dense_b=np.zeros(classes))


# ---------------------------------------------------------------- LSTM

def _lstm_forward_batch(p: LstmParams, x: np.ndarray, cache: dict | None = None):
    """Hidden state sequence of a (B, T, k) batch.

    Every step works in one set of contiguous gate-major buffers
    allocated per call: the (4h, B) gates, whose f, i, o, candidate and
    sigmoid views are contiguous row blocks made once, and the (h, B)
    cell state, i * cand and tanh c.  The recurrent product is the same
    BLAS call as on (B, 4h) buffers, h_prev^T @ W_h written through the
    gates' transpose.  The output and the cache are time-major, (T, ., B),
    so each step's hidden state is written straight into one contiguous
    block of the output, which is the next step's h_prev, and each cached
    step is one contiguous copy.  The sigmoid rows go through the same one
    tanh as the candidate, halved before and mapped to 0.5 (1 + tanh)
    after, which gives the bits of _sigmoid: halving (a multiply by 0.5)
    is exact and + and * commute.  With a ``cache`` dict, each step's
    gates, c and tanh c are copied into it for _lstm_backward.  The hidden states and the cached
    gates, c and tanh c are handed out as (B, T, .) transposed views.
    """
    b, t, k = x.shape
    h = p.hidden
    # input projection of every step at once, read per step as (4h, B);
    # the loop adds h_prev @ W_h
    xw = x @ p.w[:, :k].T
    xw += p.b
    xw = xw.transpose(1, 2, 0)
    w_h = np.ascontiguousarray(p.w[:, k:].T)
    # the large arrays first: allocated after the step buffers, they moved
    # where the heap is trimmed, and a training run took ~15% more page faults
    if cache is not None:
        gates = np.empty((t, 4 * h, b))
        cs = np.empty((t, h, b))
        tcs = np.empty((t, h, b))
    hs = np.empty((t, h, b))
    h_prev = np.zeros((h, b))
    g = np.empty((4 * h, b))  # pre-activations, then activated f, i, o, candidate
    sig, cand = g[:3 * h], g[3 * h:]
    f, i, o = g[:h], g[h:2 * h], g[2 * h:3 * h]
    c = np.zeros((h, b))
    ic = np.empty((h, b))
    tc = np.empty((h, b))
    for step in range(t):
        np.matmul(h_prev.T, w_h, out=g.T)
        g += xw[step]
        sig *= 0.5
        np.tanh(g, out=g)
        sig += 1.0
        sig *= 0.5
        c *= f
        np.multiply(i, cand, out=ic)
        c += ic
        np.tanh(c, out=tc)
        h_prev = hs[step]
        np.multiply(o, tc, out=h_prev)
        if cache is not None:
            gates[step] = g
            cs[step] = c
            tcs[step] = tc
    hs = hs.transpose(2, 0, 1)
    if cache is not None:
        cache.update(x=x, gates=gates.transpose(2, 0, 1), c=cs.transpose(2, 0, 1),
                     tc=tcs.transpose(2, 0, 1), h=hs)
    return hs


def _lstm_backward(p: LstmParams, cache: dict, dh_seq: np.ndarray):
    """BPTT. Returns the param grads dict with lstm.* keys.

    No input gradient is formed: the LSTM is always the first layer.

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
    return {"lstm.w": da.T @ z.reshape(t * b, k + h), "lstm.b": da.sum(axis=0)}


def lstm_forward(p: LstmParams, x: np.ndarray):
    """Hidden state sequence for a (T, k) input, or (B, T, k) batch.

    Returns (H, cache); H matches the input's batching.
    """
    x = np.asarray(x, dtype=np.float64)
    cache: dict = {}
    if x.ndim == 2:
        return _lstm_forward_batch(p, x[None], cache)[0], cache
    return _lstm_forward_batch(p, x, cache), cache


# -------------------------------------------------------- gated conv

def _gconv_forward_batch(p: GatedConvParams, h: np.ndarray, cache: dict | None = None):
    """Gated linear unit of a (B, T, c_in) batch; a ``cache`` dict, when
    given, is filled with what _gconv_backward reads."""
    b, t, c_in = h.shape
    width = p.width
    pad = (width - 1) // 2
    # window d of step s is h[s + d - pad], zero outside 0..t-1
    cols = np.zeros((b, t, width, c_in))
    for d in range(width):
        lo, hi = max(0, pad - d), min(t, t + pad - d)
        if lo < hi:
            cols[:, lo:hi, d, :] = h[:, lo + d - pad:hi + d - pad, :]
    cols = cols.reshape(b, t, width * c_in)
    c_out = p.out_channels
    z = cols @ p.w.reshape(width * c_in, -1)  # [lin | gate]
    z += p.b
    lin = z[:, :, :c_out]
    gate_sig = _sigmoid(z[:, :, c_out:])
    if cache is None:
        lin *= gate_sig
        return lin
    cache.update(cols=cols, lin=lin, gate_sig=gate_sig, in_shape=(b, t, c_in))
    return lin * gate_sig


def _gconv_backward(p: GatedConvParams, cache: dict, dout: np.ndarray):
    """Stacked-kernel gradients and the input gradient, each one product
    or sum over the (B*T, 2c) slab [d(lin) | d(gate)]."""
    b, t, c_in = cache["in_shape"]
    width = p.width
    pad = (width - 1) // 2
    c_out = p.out_channels
    gate_sig = cache["gate_sig"]

    dz = np.empty((b, t, 2 * c_out))
    np.multiply(dout, gate_sig, out=dz[:, :, :c_out])
    dgate = dz[:, :, c_out:]  # dout lin sig (1 - sig), in that order
    np.multiply(dout, cache["lin"], out=dgate)
    dgate *= gate_sig
    dgate *= 1.0 - gate_sig
    dz = dz.reshape(-1, 2 * c_out)

    grads = {
        "conv.w": (cache["cols"].reshape(-1, width * c_in).T @ dz).reshape(p.w.shape),
        "conv.b": dz.sum(axis=0),
    }
    dcols = (dz @ p.w.reshape(width * c_in, -1).T).reshape(b, t, width, c_in)
    dhp = np.zeros((b, t + width - 1, c_in))
    for d in range(width):
        dhp[:, d:d + t, :] += dcols[:, :, d, :]
    return grads, dhp[:, pad:pad + t, :]


def gated_conv_forward(p: GatedConvParams, h: np.ndarray):
    """Gated linear unit over time for (T, c_in) or (B, T, c_in) input."""
    h = np.asarray(h, dtype=np.float64)
    cache: dict = {}
    if h.ndim == 2:
        return _gconv_forward_batch(p, h[None], cache)[0], cache
    return _gconv_forward_batch(p, h, cache), cache


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


def _forward_batch(params: ModelParams, x: np.ndarray, cache: dict | None = None):
    """Class probabilities of a (B, T, k) batch.

    Only a caller that backpropagates passes ``cache``; it is filled with
    each layer's activations and the pool's argmax.  Raises ShapeMismatch
    when the input width is not the model's.
    """
    if x.shape[-1] != params.input_dim:
        raise ShapeMismatch(f"input has {x.shape[-1]} columns, "
                            f"the model takes {params.input_dim}")
    cur = x
    if params.lstm is not None:
        sub = None if cache is None else cache.setdefault("lstm", {})
        cur = _lstm_forward_batch(params.lstm, cur, sub)
    if params.conv is not None:
        sub = None if cache is None else cache.setdefault("conv", {})
        cur = _gconv_forward_batch(params.conv, cur, sub)
    pooled, arg = max_pool_over_time(cur)
    if cache is not None:
        cache.update(pool_arg=arg, pool_shape=cur.shape, pooled=pooled)
    logits = pooled @ params.dense_w.T + params.dense_b
    return softmax_rows(logits)


def mcc_rcnn_forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Class probability vector for one (T, k) input matrix.

    Inference only: no backward cache is kept.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a single (T, k) matrix")
    return _forward_batch(params, x[None])[0]


def _class_index(params: ModelParams, y) -> np.ndarray:
    """0-based indices of 1-based labels; the ValueError names one outside 1..l."""
    y = np.asarray(y, dtype=np.intp)
    bad = (y < 1) | (y > params.l)
    if bad.any():
        raise ValueError(f"label {y[bad][0]} outside 1..{params.l}")
    return y - 1


def batch_loss(params: ModelParams, x: np.ndarray, y) -> float:
    """Mean cross-entropy of a (B, T, k) batch x against its 1-based labels y."""
    y_idx = _class_index(params, y)
    return cross_entropy(_forward_batch(params, x), y_idx)[0]


def loss_and_gradients(params: ModelParams, x: np.ndarray, y):
    """Mean cross-entropy of batch (x, y) and gradients for every parameter tensor.

    Returns (loss, grads) where grads maps the named_params() keys to
    arrays of matching shape.
    """
    y_idx = _class_index(params, y)
    cache: dict = {}
    loss, dlogits = cross_entropy(_forward_batch(params, x, cache), y_idx)
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
        grads.update(_lstm_backward(params.lstm, cache["lstm"], dcur))
    return loss, grads


# ------------------------------------------------------------ training

def predict(params: ModelParams, matrices, batch_size: int = 64,
            to_matrix=None) -> np.ndarray:
    """Predicted labels (1-based) of an (n, T, k) array or a list of (T, k) matrices.

    Each chunk is a slice, which np.asarray stacks only for a list.
    With ``to_matrix`` (as ``train`` takes it), ``matrices`` is a list of
    record payloads instead: each chunk's payloads are converted and
    stacked only when that chunk is reached, so one chunk of matrices is
    alive at a time, not the whole set.
    Inference only: no backward cache is kept.  The chunk sizes are
    fixed because they can change the probabilities in the last bits.
    With OpenBLAS 0.3.31 at one or two threads and the gate-major LSTM
    buffers, chunks of 2..100 rows gave the same bits as one 150-row
    batch (T = 48, k = 48, h = 24); only 1-row chunks differed (by
    ~5e-16), since one row goes through gemv, not gemm.  Other BLAS
    builds may block rows differently.
    """
    out = np.zeros(len(matrices), dtype=np.int64)
    for lo in range(0, len(matrices), batch_size):
        chunk = matrices[lo:lo + batch_size]  # frees the previous chunk's stack
        if to_matrix is not None:
            chunk = [to_matrix(p) for p in chunk]
        chunk = np.asarray(chunk, dtype=np.float64)
        out[lo:lo + len(chunk)] = _forward_batch(params, chunk).argmax(axis=1) + 1
    return out


def train(model_cfg: ModelConfig, dataset, cfg: TrainConfig, to_matrix=None, *,
          epoch_accuracy: bool = True):
    """Train on a LabeledDataset with AdaGrad over seeded shuffled minibatches.

    ``to_matrix`` converts a record payload to its (T, k) input matrix
    (defaults to np.asarray); the set is stacked once into an (n, T, k)
    array and a label vector.  Returns (params, history) where history
    rows carry epoch, mean training loss, and post-epoch training
    accuracy: after each epoch, ``predict`` runs over the whole training
    set.  With ``epoch_accuracy=False`` that pass is skipped and the rows
    carry only epoch and loss; the CV suites pass it, since they discard
    the history.  ``predict`` draws no random numbers and leaves the
    parameters alone, so both settings train the same bits.  Raises
    DivergedLoss on non-finite loss and EmptyTrainSet on an empty dataset.
    """
    if len(dataset) == 0:
        raise EmptyTrainSet("empty training dataset")
    convert = to_matrix or np.asarray
    x = np.stack([convert(p) for p in dataset.payloads()], dtype=np.float64)
    y = np.array(dataset.labels(), dtype=np.intp)
    params = init_params(model_cfg, x.shape[2], dataset.l, cfg.hidden, cfg.seed)
    _class_index(params, y)  # a bad label fails before the first step

    rng = np.random.default_rng(cfg.seed)
    acc_state = {name: np.zeros_like(arr) for name, arr in named_params(params).items()}
    tensors = named_params(params)
    history = []
    n = len(x)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        total_loss = 0.0
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo:lo + cfg.batch_size]
            loss, grads = loss_and_gradients(params, x[sel], y[sel])
            if not np.isfinite(loss):
                raise DivergedLoss(f"training loss non-finite at epoch {epoch + 1}")
            total_loss += loss * len(sel)
            for name, grad in grads.items():
                acc_state[name] += grad * grad
                tensors[name] -= LEARNING_RATE * grad / (
                    np.sqrt(acc_state[name]) + 1e-8
                )
        row = {"epoch": epoch + 1, "loss": total_loss / n}
        if epoch_accuracy:
            preds = predict(params, x, batch_size=max(cfg.batch_size, 32))
            row["accuracy"] = float(np.mean(preds == y))
            log.debug("epoch %d loss %.5f acc %.4f", row["epoch"], row["loss"],
                      row["accuracy"])
        else:
            log.debug("epoch %d loss %.5f", row["epoch"], row["loss"])
        history.append(row)
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
    x = np.asarray(sample[0], dtype=np.float64)[None]
    y = np.array([sample[1]])
    _, analytic = loss_and_gradients(params, x, y)
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
        up = batch_loss(params, x, y)
        arr.flat[idx] = orig - step
        down = batch_loss(params, x, y)
        arr.flat[idx] = orig
        numeric = (up - down) / (2.0 * step)
        ana = analytic[name].flat[idx]
        err = abs(numeric - ana) / max(abs(numeric), abs(ana), 1e-6)
        worst = max(worst, err)
    return worst
