"""LSTM, gated convolution, pooling, and the trained classifier."""

import math
import warnings
import weakref

import numpy as np
import pytest

from mccrcnn import neural
from mccrcnn.errors import DivergedLoss, PipelineError, ShapeMismatch
from mccrcnn.features import LabeledDataset
from mccrcnn.neural import (
    ARCHS,
    EmptyTrainSet,
    EvenKernelWidth,
    GatedConvParams,
    LstmParams,
    ModelConfig,
    TrainConfig,
    batch_loss,
    gated_conv_forward,
    gradient_check,
    init_params,
    loss_and_gradients,
    lstm_forward,
    max_pool_backward,
    max_pool_over_time,
    mcc_rcnn_forward,
    named_params,
    predict,
    train,
)
from mccrcnn.neural import (
    _forward_batch,
    _gconv_backward,
    _gconv_forward_batch,
    _lstm_backward,
    _lstm_forward_batch,
    _sigmoid,
)


def sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def tiny_lstm():
    # stacked rows f, i, o, c of one hidden unit over z = [x, h_prev]
    return LstmParams(
        w=np.array([[0.5, -0.3], [0.2, 0.4], [-0.1, 0.6], [0.7, -0.5]]),
        b=np.array([0.1, -0.2, 0.05, 0.0]),
    )


# -------------------------------------------------------------------- LSTM

def test_lstm_single_unit_matches_scalar_recurrence():
    p = tiny_lstm()
    x = np.array([[0.8], [-0.4]])
    hs, _ = lstm_forward(p, x)

    # step 1, h_prev = c_prev = 0, z = [0.8, 0]
    f1 = sig(0.5 * 0.8 + 0.1)
    i1 = sig(0.2 * 0.8 - 0.2)
    o1 = sig(-0.1 * 0.8 + 0.05)
    cand1 = math.tanh(0.7 * 0.8)
    c1 = i1 * cand1
    h1 = o1 * math.tanh(c1)
    assert hs[0, 0] == pytest.approx(h1, abs=1e-15)

    # step 2, z = [-0.4, h1]
    f2 = sig(0.5 * -0.4 + -0.3 * h1 + 0.1)
    i2 = sig(0.2 * -0.4 + 0.4 * h1 - 0.2)
    o2 = sig(-0.1 * -0.4 + 0.6 * h1 + 0.05)
    cand2 = math.tanh(0.7 * -0.4 + -0.5 * h1)
    c2 = f2 * c1 + i2 * cand2
    h2 = o2 * math.tanh(c2)
    assert hs[1, 0] == pytest.approx(h2, abs=1e-15)


def test_lstm_batch_agrees_with_single():
    rng = np.random.default_rng(0)
    params = init_params(ModelConfig(arch="lstm", conv_channels=4, kernel_width=3),
                         input_dim=3, classes=2,
                         hidden=4, seed=1).lstm
    xs = rng.normal(size=(5, 6, 3))
    batch_h, _ = lstm_forward(params, xs)
    for i in range(5):
        single_h, _ = lstm_forward(params, xs[i])
        assert np.allclose(batch_h[i], single_h, atol=1e-14)


def test_sigmoid_matches_logistic_and_saturates_quietly():
    x = np.linspace(-30.0, 30.0, 6001)
    assert np.max(np.abs(_sigmoid(x) - 1.0 / (1.0 + np.exp(-x)))) <= 1e-15
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        far = _sigmoid(np.array([-1e4, 1e4]))
    assert np.isfinite(far).all()
    assert ((far >= 0.0) & (far <= 1.0)).all()


def test_sigmoid_matches_the_halved_tanh_identity_bit_for_bit():
    """x * 0.5 is exact like x / 2, subnormals and signed zeros included."""
    smallest = np.finfo(np.float64).smallest_subnormal
    normal = np.finfo(np.float64).smallest_normal
    edges = np.array([-1e4, 1e4, 0.0, -0.0, smallest, -smallest, 3 * smallest,
                      -3 * smallest, normal / 3, -normal / 3, normal, -normal])
    x = np.concatenate([edges, np.random.default_rng(0).normal(scale=4.0, size=10_000)])
    assert np.array_equal(_sigmoid(x), 0.5 * (1.0 + np.tanh(x / 2.0)))


# A frozen copy of the four-gate LSTM (separate f, i, o, c weight and bias
# arrays, one matmul per gate per step) that the stacked layout replaced.

def four_gate_forward(gw, gb, x):
    b, t, k = x.shape
    h = gw["f"].shape[0]
    cache = {name: np.zeros((b, t, h)) for name in ("f", "i", "o", "c", "cand", "tc")}
    cache["z"] = np.zeros((b, t, k + h))
    hs = np.zeros((b, t, h))
    h_prev = np.zeros((b, h))
    c_prev = np.zeros((b, h))
    for step in range(t):
        z = np.concatenate([x[:, step, :], h_prev], axis=1)
        f = 1.0 / (1.0 + np.exp(-(z @ gw["f"].T + gb["f"])))
        i = 1.0 / (1.0 + np.exp(-(z @ gw["i"].T + gb["i"])))
        o = 1.0 / (1.0 + np.exp(-(z @ gw["o"].T + gb["o"])))
        cand = np.tanh(z @ gw["c"].T + gb["c"])
        c = f * c_prev + i * cand
        tc = np.tanh(c)
        h_prev, c_prev = o * tc, c
        for name, val in (("z", z), ("f", f), ("i", i), ("o", o), ("cand", cand),
                          ("c", c), ("tc", tc)):
            cache[name][:, step] = val
        hs[:, step] = h_prev
    return hs, cache


def four_gate_backward(gw, cache, dh_seq):
    b, t, h = dh_seq.shape
    k = cache["z"].shape[2] - h
    dw = {g: np.zeros_like(gw[g]) for g in "fioc"}
    db = {g: np.zeros(h) for g in "fioc"}
    dh_next = np.zeros((b, h))
    dc_next = np.zeros((b, h))
    for step in range(t - 1, -1, -1):
        z = cache["z"][:, step]
        f, i, o = cache["f"][:, step], cache["i"][:, step], cache["o"][:, step]
        cand, tc = cache["cand"][:, step], cache["tc"][:, step]
        c_prev = cache["c"][:, step - 1] if step > 0 else np.zeros((b, h))
        dh = dh_seq[:, step] + dh_next
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dgate = {
            "f": dc * c_prev * f * (1.0 - f),
            "i": dc * cand * i * (1.0 - i),
            "o": dh * tc * o * (1.0 - o),
            "c": dc * i * (1.0 - cand * cand),
        }
        dz = np.zeros((b, k + h))
        for g in "fioc":
            dw[g] += dgate[g].T @ z
            db[g] += dgate[g].sum(axis=0)
            dz += dgate[g] @ gw[g]
        dh_next = dz[:, k:]
        dc_next = dc * f
    return dw, db


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def head_loss_and_grad(params, out, labels):
    """The pool, dense and softmax head above a (B, T, C) layer output,
    written out: mean cross-entropy and its gradient by the output."""
    b = len(labels)
    y = np.array(labels) - 1
    pooled, arg = max_pool_over_time(out)
    logits = pooled @ params.dense_w.T + params.dense_b
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(probs[np.arange(b), y]))
    dlogits = probs.copy()
    dlogits[np.arange(b), y] -= 1.0
    dlogits /= b
    return loss, max_pool_backward(arg, out.shape, dlogits @ params.dense_w)


@pytest.mark.parametrize("b,t", [(1, 1), (1, 7), (5, 1), (5, 7)])
def test_stacked_lstm_matches_four_gate_reference(b, t):
    k, h = 3, 4
    params = init_params(ModelConfig(arch="lstm", conv_channels=h, kernel_width=3),
                         input_dim=k, classes=3,
                         hidden=h, seed=11)
    rng = np.random.default_rng(12)
    params.lstm.b[:] = rng.normal(scale=0.5, size=4 * h)  # nonzero biases
    gw = {g: params.lstm.w[n * h:(n + 1) * h] for n, g in enumerate("fioc")}
    gb = {g: params.lstm.b[n * h:(n + 1) * h] for n, g in enumerate("fioc")}
    x = rng.normal(size=(b, t, k))
    labels = [1 + n % 3 for n in range(b)]

    want_h, ref_cache = four_gate_forward(gw, gb, x)
    got_h, _ = lstm_forward(params.lstm, x)
    assert rel_err(got_h, want_h) <= 1e-12

    want_loss, dh_seq = head_loss_and_grad(params, want_h, labels)
    dw, db = four_gate_backward(gw, ref_cache, dh_seq)

    loss, grads = loss_and_gradients(params, x, labels)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert rel_err(grads["lstm.w"], np.vstack([dw[g] for g in "fioc"])) <= 1e-12
    assert rel_err(grads["lstm.b"], np.concatenate([db[g] for g in "fioc"])) <= 1e-12


# A frozen copy of the step-by-step BPTT that hoisting the gate-local
# factors out of the time loop replaced: every factor is formed inside
# the loop, batch-major.

def reference_lstm_backward(p, cache, dh_seq):
    x = cache["x"]
    b, t, k = x.shape
    h = p.hidden
    gates = cache["gates"]
    w_h = p.w[:, k:]
    da = np.empty((b, t, 4 * h))
    dh_next = np.zeros((b, h))
    dc_next = np.zeros((b, h))
    for step in range(t - 1, -1, -1):
        g = gates[:, step]
        f = g[:, :h]
        i = g[:, h:2 * h]
        o = g[:, 2 * h:3 * h]
        cand = g[:, 3 * h:]
        tc = cache["tc"][:, step]
        c_prev = cache["c"][:, step - 1] if step > 0 else 0.0
        dh = dh_seq[:, step] + dh_next
        dc = dc_next + dh * o * (1.0 - tc * tc)
        d = da[:, step]
        d[:, :h] = dc * c_prev * f * (1.0 - f)
        d[:, h:2 * h] = dc * cand * i * (1.0 - i)
        d[:, 2 * h:3 * h] = dh * tc * o * (1.0 - o)
        d[:, 3 * h:] = dc * i * (1.0 - cand * cand)
        dh_next = d @ w_h
        dc_next = dc * f
    h_prev = np.concatenate([np.zeros((b, 1, h)), cache["h"][:, :-1]], axis=1)
    z = np.concatenate([x, h_prev], axis=2).reshape(b * t, k + h)
    da_flat = da.reshape(b * t, 4 * h)
    return {"lstm.w": da_flat.T @ z, "lstm.b": da_flat.sum(axis=0)}


@pytest.mark.parametrize("dh_kind", ["dense", "max_pool"])
@pytest.mark.parametrize("b,t", [(1, 1), (1, 2), (1, 48), (16, 1), (16, 2), (16, 48)])
def test_lstm_backward_matches_step_by_step_reference(b, t, dh_kind):
    k, h = 48, 24  # the fused input width and hidden size the pipeline trains
    rng = np.random.default_rng(100 * b + t)
    params = init_params(ModelConfig(arch="lstm", conv_channels=h, kernel_width=3),
                         input_dim=k, classes=3,
                         hidden=h, seed=b + t).lstm
    params.b[:] = rng.normal(scale=0.5, size=4 * h)
    hs, cache = lstm_forward(params, rng.normal(size=(b, t, k)))
    if dh_kind == "dense":
        dh_seq = rng.normal(size=hs.shape)
    else:  # what the lstm arch's pool hands back: one step per unit
        _, arg = max_pool_over_time(hs)
        dh_seq = max_pool_backward(arg, hs.shape, rng.normal(size=(b, h)))

    want = reference_lstm_backward(params, cache, dh_seq)
    got = _lstm_backward(params, cache, dh_seq)
    assert rel_err(got["lstm.w"], want["lstm.w"]) <= 1e-12
    assert rel_err(got["lstm.b"], want["lstm.b"]) <= 1e-12


# A frozen copy of the hoisted BPTT as it was when the forward's step
# buffers became gate-major: the gate-local factors formed for every step
# before the loop, time-major (t, b, 4h), each step's d @ W_h on a
# (b, 4h) block and one da^T @ z product at the end.  Any change of
# summation order or of BLAS call (at h = 1 the loop's product is a gemv)
# moves the last bits, so the package's backward is pinned to it exactly.

def hoisted_lstm_backward(p, cache, dh_seq):
    x = cache["x"]
    b, t, k = x.shape
    h = p.hidden
    gates = cache["gates"].transpose(1, 0, 2)
    c = cache["c"].transpose(1, 0, 2)
    tc = cache["tc"].transpose(1, 0, 2)
    sig = gates[:, :, :3 * h]
    f = gates[:, :, :h]
    i = gates[:, :, h:2 * h]
    o = gates[:, :, 2 * h:3 * h]
    cand = gates[:, :, 3 * h:]
    da = np.empty((t, b, 4 * h))
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
    dc_dh = np.empty((t, b, h))
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
    z = np.empty((t, b, k + h))
    z[:, :, :k] = x.transpose(1, 0, 2)
    z[0, :, k:] = 0.0
    z[1:, :, k:] = cache["h"].transpose(1, 0, 2)[:-1]
    da = da.reshape(t * b, 4 * h)
    return {"lstm.w": da.T @ z.reshape(t * b, k + h), "lstm.b": da.sum(axis=0)}


@pytest.mark.parametrize("b", [1, 2, 16, 22, 32])
def test_lstm_backward_matches_frozen_hoisted_backward_bit_for_bit(b):
    rng = np.random.default_rng(1000 + b)
    for k in (7, 48):
        for t in (1, 2, 48):
            for h in (1, 6, 24):
                p = LstmParams(w=rng.normal(scale=0.6, size=(4 * h, k + h)),
                               b=rng.normal(scale=0.4, size=4 * h))
                cache = {}
                hs = _lstm_forward_batch(p, rng.normal(size=(b, t, k)), cache)
                dh_seq = rng.normal(size=hs.shape)
                want = hoisted_lstm_backward(p, cache, dh_seq)
                got = _lstm_backward(p, cache, dh_seq)
                for name in ("lstm.w", "lstm.b"):
                    assert np.array_equal(got[name], want[name]), (k, t, h, name)


def test_lstm_shapes():
    p = tiny_lstm()
    assert p.hidden == 1 and p.input_dim == 1
    hs, _ = lstm_forward(p, np.zeros((7, 1)))
    assert hs.shape == (7, 1)
    assert not hs.any()  # zero input, zero state: tanh(c)=0 everywhere


# -------------------------------------------------------------- gated conv

def stacked_conv(w, b, v, g):
    """GatedConvParams from a linear kernel w/b and a gate kernel v/g."""
    return GatedConvParams(w=np.concatenate((w, v), axis=2), b=np.concatenate((b, g)))


def test_width_one_conv_is_pointwise_glu():
    rng = np.random.default_rng(2)
    p = stacked_conv(
        w=rng.normal(size=(1, 3, 2)), b=rng.normal(size=2),
        v=rng.normal(size=(1, 3, 2)), g=rng.normal(size=2),
    )
    h = rng.normal(size=(5, 3))
    out, _ = gated_conv_forward(p, h)
    for t in range(5):
        for o in range(2):
            lin = float(h[t] @ p.w[0, :, o] + p.b[o])
            gate = sig(float(h[t] @ p.w[0, :, 2 + o] + p.b[2 + o]))
            assert out[t, o] == pytest.approx(lin * gate, abs=1e-14)


def test_width_three_conv_zero_pads_both_ends():
    rng = np.random.default_rng(3)
    p = stacked_conv(
        w=rng.normal(size=(3, 2, 2)), b=rng.normal(size=2),
        v=rng.normal(size=(3, 2, 2)), g=rng.normal(size=2),
    )
    h = rng.normal(size=(4, 2))
    out, _ = gated_conv_forward(p, h)
    assert out.shape == (4, 2)
    padded = np.vstack([np.zeros((1, 2)), h, np.zeros((1, 2))])
    for t in range(4):
        window = padded[t:t + 3]  # frames t-1, t, t+1 of the original
        for o in range(2):
            lin = float((window * p.w[:, :, o]).sum() + p.b[o])
            gate = sig(float((window * p.w[:, :, 2 + o]).sum() + p.b[2 + o]))
            assert out[t, o] == pytest.approx(lin * gate, abs=1e-13)


def test_even_kernel_width_rejected():
    with pytest.raises(EvenKernelWidth):
        GatedConvParams(w=np.zeros((2, 1, 2)), b=np.zeros(2))
    with pytest.raises(EvenKernelWidth):
        init_params(ModelConfig(arch="gcnn", kernel_width=4, conv_channels=3), input_dim=2,
                    classes=2, hidden=3)


# A frozen copy of the gated convolution from before its kernels were
# stacked: a linear kernel w/b and a gate kernel v/g, two products
# forward and four backward.

def two_kernel_forward(w, b, v, g, h):
    bsz, t, c_in = h.shape
    width = w.shape[0]
    pad = (width - 1) // 2
    hp = np.zeros((bsz, t + width - 1, c_in))
    hp[:, pad:pad + t, :] = h
    cols = np.stack([hp[:, d:d + t, :] for d in range(width)], axis=2)
    cols = cols.reshape(bsz, t, width * c_in)
    lin = cols @ w.reshape(width * c_in, -1) + b
    gate_sig = 1.0 / (1.0 + np.exp(-(cols @ v.reshape(width * c_in, -1) + g)))
    return lin * gate_sig, (cols, lin, gate_sig)


def two_kernel_backward(w, v, cache, dout):
    cols, lin, gate_sig = cache
    bsz, t, _ = dout.shape
    width, c_in, c_out = w.shape
    pad = (width - 1) // 2
    dlin = dout * gate_sig
    dgate = dout * lin * gate_sig * (1.0 - gate_sig)
    cols_flat = cols.reshape(-1, width * c_in)
    dw = (cols_flat.T @ dlin.reshape(-1, c_out)).reshape(w.shape)
    dv = (cols_flat.T @ dgate.reshape(-1, c_out)).reshape(v.shape)
    dcols = (dlin @ w.reshape(width * c_in, -1).T
             + dgate @ v.reshape(width * c_in, -1).T).reshape(bsz, t, width, c_in)
    dhp = np.zeros((bsz, t + width - 1, c_in))
    for d in range(width):
        dhp[:, d:d + t, :] += dcols[:, :, d, :]
    return dw, dlin.sum(axis=(0, 1)), dv, dgate.sum(axis=(0, 1)), dhp[:, pad:pad + t, :]


@pytest.mark.parametrize("width", [1, 3, 5])
@pytest.mark.parametrize("t", [1, 7])
@pytest.mark.parametrize("b", [1, 5, 16])
def test_stacked_gconv_matches_two_kernel_reference(b, t, width):
    k, c = 4, 3
    params = init_params(ModelConfig(arch="gcnn", conv_channels=c, kernel_width=width),
                         input_dim=k, classes=3, hidden=5, seed=21)
    rng = np.random.default_rng(22)
    params.conv.b[:] = rng.normal(scale=0.5, size=2 * c)  # nonzero biases
    w, v = params.conv.w[:, :, :c], params.conv.w[:, :, c:]
    bias, g = params.conv.b[:c], params.conv.b[c:]
    x = rng.normal(size=(b, t, k))
    labels = [1 + n % 3 for n in range(b)]

    want_out, ref_cache = two_kernel_forward(w, bias, v, g, x)
    got_out, cache = gated_conv_forward(params.conv, x)
    assert rel_err(got_out, want_out) <= 1e-12

    want_loss, dout = head_loss_and_grad(params, want_out, labels)
    dw, db, dv, dg, dx = two_kernel_backward(w, v, ref_cache, dout)

    loss, grads = loss_and_gradients(params, x, labels)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert rel_err(grads["conv.w"], np.concatenate((dw, dv), axis=2)) <= 1e-12
    assert rel_err(grads["conv.b"], np.concatenate((db, dg))) <= 1e-12
    _, got_dx = _gconv_backward(params.conv, cache, dout)
    assert rel_err(got_dx, dx) <= 1e-12


@pytest.mark.parametrize("b", [1, 16, 64])
def test_gconv_forward_matches_padded_copy_reference_bit_for_bit(b):
    """The shifted windows written into one zeroed array hold the padded
    copy's stacked views, value for value and in the same layout, so the
    product over them keeps its bits.  At width 5, t = 1 and 2 leave some
    windows wholly in the padding."""
    rng = np.random.default_rng(b)
    c_in, c = 6, 4
    for width in (1, 3, 5):
        p = GatedConvParams(w=rng.normal(scale=0.5, size=(width, c_in, 2 * c)),
                            b=rng.normal(scale=0.5, size=2 * c))
        for t in (1, 2, 7):
            h = rng.normal(size=(b, t, c_in))
            want, want_cache = reference_gconv_forward(p, h)
            assert np.array_equal(_gconv_forward_batch(p, h), want), (width, t)
            cache = {}
            assert np.array_equal(_gconv_forward_batch(p, h, cache), want), (width, t)
            assert cache.keys() == want_cache.keys()
            for key, value in want_cache.items():
                assert np.array_equal(cache[key], value), (width, t, key)
            assert cache["cols"].flags.c_contiguous


# ------------------------------------------------------------------- pool

def test_max_pool_takes_first_maximum():
    x = np.array([[[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]]])
    pooled, arg = max_pool_over_time(x)
    assert pooled[0].tolist() == [3.0, 5.0]
    assert arg[0].tolist() == [1, 0]  # ties keep the earliest time step


def test_max_pool_backward_routes_to_argmax_only():
    x = np.array([[[1.0, 5.0], [3.0, 5.0], [3.0, 2.0]]])
    _, arg = max_pool_over_time(x)
    dx = max_pool_backward(arg, x.shape, np.array([[10.0, 20.0]]))
    want = np.zeros_like(x)
    want[0, 1, 0] = 10.0
    want[0, 0, 1] = 20.0
    assert np.array_equal(dx, want)


# ----------------------------------------------------------- full forward

def test_forward_matches_scalar_reimplementation():
    params = init_params(ModelConfig(arch="mcc_rcnn", conv_channels=3,
                                     kernel_width=1),
                         input_dim=2, classes=3, hidden=2, seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 2))

    # independent scalar pass
    p = params.lstm
    h_prev = [0.0, 0.0]
    c_prev = [0.0, 0.0]
    hs = []
    for t in range(4):
        z = [x[t, 0], x[t, 1], h_prev[0], h_prev[1]]
        h_new, c_new = [], []
        for u in range(2):
            # stacked rows: f at u, i at 2 + u, o at 4 + u, c at 6 + u
            f = sig(sum(p.w[u][j] * z[j] for j in range(4)) + p.b[u])
            i = sig(sum(p.w[2 + u][j] * z[j] for j in range(4)) + p.b[2 + u])
            o = sig(sum(p.w[4 + u][j] * z[j] for j in range(4)) + p.b[4 + u])
            cand = math.tanh(sum(p.w[6 + u][j] * z[j] for j in range(4)) + p.b[6 + u])
            c = f * c_prev[u] + i * cand
            c_new.append(c)
            h_new.append(o * math.tanh(c))
        h_prev, c_prev = h_new, c_new
        hs.append(h_new)
    conv = params.conv
    pooled = []
    for o in range(3):
        vals = []
        for t in range(4):
            lin = sum(hs[t][u] * conv.w[0, u, o] for u in range(2)) + conv.b[o]
            gate = sig(sum(hs[t][u] * conv.w[0, u, 3 + o] for u in range(2)) + conv.b[3 + o])
            vals.append(lin * gate)
        pooled.append(max(vals))
    logits = [
        sum(params.dense_w[c][j] * pooled[j] for j in range(3)) + params.dense_b[c]
        for c in range(3)
    ]
    mx = max(logits)
    exps = [math.exp(v - mx) for v in logits]
    want = [e / sum(exps) for e in exps]

    got = mcc_rcnn_forward(params, x)
    assert got == pytest.approx(want, abs=1e-13)
    assert got.sum() == pytest.approx(1.0)


def test_zeroed_dense_layer_gives_uniform_probs():
    params = init_params(ModelConfig(arch="mcc_rcnn", conv_channels=5, kernel_width=3),
                         input_dim=3,
                         classes=4, hidden=5, seed=0)
    params.dense_w[:] = 0.0
    params.dense_b[:] = 0.0
    rng = np.random.default_rng(1)
    probs = mcc_rcnn_forward(params, rng.normal(size=(6, 3)))
    assert probs == pytest.approx([0.25] * 4)
    x = rng.normal(size=(8, 6, 3))
    assert batch_loss(params, x, 1 + np.arange(8) % 4) == pytest.approx(math.log(4))


def test_arch_property_and_ablation_shapes():
    full = init_params(ModelConfig(arch="mcc_rcnn", conv_channels=7, kernel_width=3),
                       input_dim=3, classes=2, hidden=4, seed=0)
    assert full.lstm is not None and full.conv is not None
    assert full.conv.in_channels == 4 and full.conv.out_channels == 7
    assert full.dense_w.shape == (2, 7)

    only_lstm = init_params(ModelConfig(arch="lstm", conv_channels=4, kernel_width=3), input_dim=3,
                            classes=2, hidden=4, seed=0)
    assert only_lstm.lstm is not None and only_lstm.conv is None
    assert only_lstm.dense_w.shape == (2, 4)

    only_conv = init_params(ModelConfig(arch="gcnn", conv_channels=5, kernel_width=3),
                            input_dim=3, classes=2, hidden=4, seed=0)
    assert only_conv.conv is not None and only_conv.lstm is None
    assert only_conv.conv.in_channels == 3  # convolves the raw input
    assert only_conv.input_dim == 3

    with pytest.raises(ValueError):
        init_params(ModelConfig(arch="rnn", conv_channels=4, kernel_width=3),
                    input_dim=3, classes=2, hidden=4)


def test_init_is_seeded_and_biases_zero():
    a = init_params(ModelConfig(conv_channels=4, kernel_width=3),
                    input_dim=3, classes=2, hidden=4, seed=5)
    b = init_params(ModelConfig(conv_channels=4, kernel_width=3),
                    input_dim=3, classes=2, hidden=4, seed=5)
    c = init_params(ModelConfig(conv_channels=4, kernel_width=3),
                    input_dim=3, classes=2, hidden=4, seed=6)
    assert np.array_equal(a.lstm.w, b.lstm.w)
    assert np.array_equal(a.dense_w, b.dense_w)
    assert not np.array_equal(a.lstm.w, c.lstm.w)
    assert a.lstm.w.shape == (16, 7) and a.lstm.b.shape == (16,)
    assert not a.lstm.b.any()
    assert not a.conv.b.any() and not a.dense_b.any()
    bound = 1.0 / math.sqrt(3 + 4)
    assert abs(a.lstm.w).max() <= bound
    # one stacked draw equals the four per-gate (h, k + h) draws, in order
    rng = np.random.default_rng(5)
    gates = [rng.uniform(-bound, bound, size=(4, 7)) for _ in "fioc"]
    assert np.array_equal(a.lstm.w, np.vstack(gates))
    # the stacked conv kernel equals the linear then the gate (3, 4, 4)
    # draws, side by side on the output axis
    bound = 1.0 / math.sqrt(3 * 4)
    kernels = [rng.uniform(-bound, bound, size=(3, 4, 4)) for _ in "wv"]
    assert a.conv.w.shape == (3, 4, 8) and a.conv.b.shape == (8,)
    assert np.array_equal(a.conv.w, np.concatenate(kernels, axis=2))


# ------------------------------------------- inference keeps no cache

# A frozen copy of the forward chain from before inference dropped the
# backward cache: every forward filled the per-step gates, c and tanh c
# and the conv temporaries, and the bias was added out of place.  Its conv
# reads the stacked kernel the way the training path does.

def reference_sigmoid(x):
    return 0.5 * (1.0 + np.tanh(x / 2.0))


def reference_lstm_forward(p, x):
    b, t, k = x.shape
    h = p.hidden
    xw = x @ p.w[:, :k].T + p.b
    w_h = np.ascontiguousarray(p.w[:, k:].T)
    gates = np.empty((b, t, 4 * h))
    cs = np.empty((b, t, h))
    tcs = np.empty((b, t, h))
    hs = np.empty((b, t, h))
    h_prev = np.zeros((b, h))
    c_prev = np.zeros((b, h))
    for step in range(t):
        a = xw[:, step] + h_prev @ w_h
        g = gates[:, step]
        g[:, :3 * h] = reference_sigmoid(a[:, :3 * h])
        g[:, 3 * h:] = np.tanh(a[:, 3 * h:])
        c = g[:, :h] * c_prev + g[:, h:2 * h] * g[:, 3 * h:]
        tc = np.tanh(c)
        h_prev = g[:, 2 * h:3 * h] * tc
        c_prev = c
        cs[:, step] = c
        tcs[:, step] = tc
        hs[:, step] = h_prev
    return hs, {"x": x, "gates": gates, "c": cs, "tc": tcs, "h": hs}


def reference_gconv_forward(p, h):
    b, t, c_in = h.shape
    width = p.width
    pad = (width - 1) // 2
    hp = np.zeros((b, t + width - 1, c_in))
    hp[:, pad:pad + t, :] = h
    cols = np.stack([hp[:, d:d + t, :] for d in range(width)], axis=2)
    cols = cols.reshape(b, t, width * c_in)
    z = cols @ p.w.reshape(width * c_in, -1) + p.b
    lin = z[:, :, :p.out_channels]
    gate_sig = reference_sigmoid(z[:, :, p.out_channels:])
    return lin * gate_sig, {"cols": cols, "lin": lin, "gate_sig": gate_sig,
                            "in_shape": (b, t, c_in)}


def reference_forward(params, x):
    cache = {}
    cur = x
    if params.lstm is not None:
        cur, cache["lstm"] = reference_lstm_forward(params.lstm, cur)
    if params.conv is not None:
        cur, cache["conv"] = reference_gconv_forward(params.conv, cur)
    arg = cur.argmax(axis=1)
    pooled = np.take_along_axis(cur, arg[:, None, :], axis=1)[:, 0, :]
    cache.update(pool_arg=arg, pool_shape=cur.shape, pooled=pooled)
    logits = pooled @ params.dense_w.T + params.dense_b
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True), cache


def reference_loss_and_gradients(params, x, y):
    """The head's backward over the reference forward's cache, with the
    package's layer backward functions."""
    n = len(y)
    probs, cache = reference_forward(params, x)
    loss = float(-np.mean(np.log(probs[np.arange(n), y])))
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grads = {"dense.w": dlogits.T @ cache["pooled"], "dense.b": dlogits.sum(axis=0)}
    dcur = max_pool_backward(cache["pool_arg"], cache["pool_shape"], dlogits @ params.dense_w)
    if params.conv is not None:
        conv_grads, dcur = _gconv_backward(params.conv, cache["conv"], dcur)
        grads.update(conv_grads)
    if params.lstm is not None:
        grads.update(_lstm_backward(params.lstm, cache["lstm"], dcur))
    return loss, grads


def busy_params(arch, k=12, hidden=6, seed=0):
    """Initialised params with every tensor, biases too, moved off init.

    The conv's noise is drawn half by half, linear kernel and bias, then
    gate kernel and bias, so the model is the one these tests used when
    the two halves were separate tensors.
    """
    params = init_params(ModelConfig(arch=arch, conv_channels=5, kernel_width=3), input_dim=k,
                         classes=3, hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name, arr in named_params(params).items():
        if name == "conv.w":
            for half in (slice(None, 5), slice(5, None)):
                arr[:, :, half] += rng.normal(scale=0.4, size=arr[:, :, half].shape)
                params.conv.b[half] += rng.normal(scale=0.4, size=5)
        elif name != "conv.b":
            arr += rng.normal(scale=0.4, size=arr.shape)
    return params


@pytest.mark.parametrize("arch", ["mcc_rcnn", "lstm", "gcnn"])
def test_inference_matches_frozen_cache_keeping_forward_bit_for_bit(arch):
    params = busy_params(arch)
    rng = np.random.default_rng(7)
    # a per-sample column offset spreads the pooled features over all classes
    mats = [rng.normal(loc=rng.normal(scale=2.0, size=12), size=(20, 12)) for _ in range(150)]
    for chunk in (64, 32):  # predict's default and the chunk train uses
        want_labels = []
        for lo in range(0, len(mats), chunk):
            x = np.stack(mats[lo:lo + chunk])
            want, _ = reference_forward(params, x)
            assert np.array_equal(_forward_batch(params, x), want)
            want_labels.extend(want.argmax(axis=1) + 1)
        got = predict(params, mats) if chunk == 64 else predict(params, mats, batch_size=chunk)
        assert np.array_equal(got, want_labels)
    assert len(set(want_labels)) > 1  # the labels are not constant

    want, _ = reference_forward(params, mats[0][None])
    assert np.array_equal(mcc_rcnn_forward(params, mats[0]), want[0])

    y = np.arange(16) % 3
    x = np.stack(mats[:16])
    want_loss, want_grads = reference_loss_and_gradients(params, x, y)
    assert batch_loss(params, x, y + 1) == want_loss
    loss, grads = loss_and_gradients(params, x, y + 1)
    assert loss == want_loss
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, want_grads[name]), name


@pytest.mark.parametrize("b", [1, 2, 6, 16, 22, 32, 64, 150])
def test_lstm_forward_matches_frozen_reference_at_every_shape(b):
    """Batch 1 takes gemv, the rest gemm; T = 1 never reads h_prev and
    h = 1 makes every gate view one row (or column) wide.  k = 48 is the
    fused input width, b = 150 a full-batch predict."""
    rng = np.random.default_rng(b)
    for k in (7, 48):
        for t in (1, 2, 48):
            for h in (1, 6, 24):
                p = LstmParams(w=rng.normal(scale=0.6, size=(4 * h, k + h)),
                               b=rng.normal(scale=0.4, size=4 * h))
                x = rng.normal(size=(b, t, k))
                want_hs, want_cache = reference_lstm_forward(p, x)
                assert np.array_equal(_lstm_forward_batch(p, x), want_hs), (t, h)
                cache = {}
                assert np.array_equal(_lstm_forward_batch(p, x, cache), want_hs), (t, h)
                assert cache.keys() == want_cache.keys()
                for key, want in want_cache.items():
                    assert np.array_equal(cache[key], want), (t, h, key)


def test_lstm_forward_writes_neither_its_input_nor_earlier_results():
    p = busy_params("lstm").lstm
    rng = np.random.default_rng(5)
    x = rng.normal(size=(16, 9, 12))
    x_before = x.copy()
    first_cache = {}
    earlier = [_lstm_forward_batch(p, x), _lstm_forward_batch(p, x, first_cache)]
    earlier += first_cache.values()
    kept = [a.copy() for a in earlier]
    second_cache = {}
    second = [_lstm_forward_batch(p, x[::-1] * 2.0), _lstm_forward_batch(p, -x, second_cache)]
    assert np.array_equal(x, x_before)
    for old, copy in zip(earlier, kept):
        assert np.array_equal(old, copy)
    for new in second + list(second_cache.values()):
        assert not any(np.shares_memory(new, old) for old in earlier)


class KeyLog(dict):
    """A dict that records which keys were read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_public_layer_forwards_return_every_key_backward_reads():
    params = busy_params("mcc_rcnn")
    x = np.random.default_rng(3).normal(size=(4, 9, 12))
    hs, cache = lstm_forward(params.lstm, x)
    want_hs, want_cache = reference_lstm_forward(params.lstm, x)
    assert np.array_equal(hs, want_hs)
    logged = KeyLog(want_cache)
    _lstm_backward(params.lstm, logged, np.ones_like(hs))
    assert logged.read <= cache.keys()
    for key in logged.read:
        assert np.array_equal(cache[key], want_cache[key]), key

    out, cache = gated_conv_forward(params.conv, hs)
    want_out, want_cache = reference_gconv_forward(params.conv, hs)
    assert np.array_equal(out, want_out)
    logged = KeyLog(want_cache)
    _gconv_backward(params.conv, logged, np.ones_like(out))
    assert logged.read <= cache.keys()
    for key in logged.read:
        assert np.array_equal(cache[key], want_cache[key]), key

    single, cache = lstm_forward(params.lstm, x[0])  # a (T, k) input keeps one too
    assert single.shape == (9, 6) and {"x", "gates", "c", "tc", "h"} <= cache.keys()


# --------------------------------------------------------------- gradients

def sample_for(params, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(6, params.input_dim)), 1 + seed % params.l)


@pytest.mark.parametrize("arch", ["mcc_rcnn", "lstm", "gcnn"])
def test_gradient_check_passes_every_arch(arch):
    for seed in (0, 1, 2):
        params = init_params(ModelConfig(arch=arch, conv_channels=5, kernel_width=3),
                             input_dim=3, classes=3, hidden=4, seed=seed)
        err = gradient_check(params, sample_for(params, seed))
        assert err <= 1e-4, (arch, seed, err)


def test_gradient_check_flags_corrupted_gradients():
    params = init_params(ModelConfig(arch="mcc_rcnn", conv_channels=4, kernel_width=3),
                         input_dim=3,
                         classes=3, hidden=4, seed=3)
    sample = sample_for(params, 3)
    _, grads = loss_and_gradients(params, sample[0][None], [sample[1]])
    grads = {k: v.copy() for k, v in grads.items()}
    grads["dense.w"][0, 0] += 0.05
    assert gradient_check(params, sample, grads=grads) > 1e-2


def test_gradient_check_subsampling_is_cheap_and_seeded():
    params = init_params(ModelConfig(arch="mcc_rcnn", conv_channels=4, kernel_width=3),
                         input_dim=3,
                         classes=3, hidden=4, seed=4)
    sample = sample_for(params, 4)
    e1 = gradient_check(params, sample, max_params=40, seed=9)
    e2 = gradient_check(params, sample, max_params=40, seed=9)
    assert e1 == e2 and e1 <= 1e-4


def test_named_params_covers_every_tensor():
    params = init_params(ModelConfig(arch="mcc_rcnn", conv_channels=4, kernel_width=3),
                         input_dim=3,
                         classes=2, hidden=4, seed=0)
    names = list(named_params(params))
    assert names == [
        "lstm.w", "lstm.b",
        "conv.w", "conv.b",
        "dense.w", "dense.b",
    ]
    # the dict holds live views: edits show up in the model
    named_params(params)["dense.b"][0] = 99.0
    assert params.dense_b[0] == 99.0


# ---------------------------------------------------------------- training

def separable_dataset(l=3, per_class=10, t=6, k=3, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for c in range(1, l + 1):
        for i in range(per_class):
            m = rng.normal(scale=0.2, size=(t, k))
            m[:, c - 1] += 2.0
            records.append((f"c{c}_{i}", m, c))
    return LabeledDataset(records=tuple(records), l=l)


def test_train_reaches_full_accuracy_on_separable_toy():
    ds = separable_dataset()
    params, history = train(
        ModelConfig(arch="mcc_rcnn", conv_channels=6, kernel_width=3), ds,
        TrainConfig(epochs=15, hidden=6, batch_size=8, seed=0),
    )
    assert history[-1]["accuracy"] == 1.0
    assert history[-1]["loss"] < history[0]["loss"]
    assert [row["epoch"] for row in history] == list(range(1, 16))
    mats = ds.payloads()
    assert predict(params, mats).tolist() == ds.labels()


def test_train_is_deterministic_under_seed():
    ds = separable_dataset(per_class=4)
    cfg = TrainConfig(epochs=3, hidden=4, batch_size=4, seed=2)
    p1, h1 = train(ModelConfig(arch="lstm", conv_channels=4, kernel_width=3), ds, cfg)
    p2, h2 = train(ModelConfig(arch="lstm", conv_channels=4, kernel_width=3), ds, cfg)
    assert h1 == h2
    for name, arr in named_params(p1).items():
        assert np.array_equal(arr, named_params(p2)[name]), name
    p3, _ = train(ModelConfig(arch="lstm", conv_channels=4, kernel_width=3), ds,
                  TrainConfig(epochs=3, hidden=4, batch_size=4, seed=3))
    assert not np.array_equal(p1.dense_w, p3.dense_w)


# A frozen copy of train from before it stacked its set once: every step
# built a list of (matrix, label) pairs and stacked it (_stack_batch),
# and each epoch's predict re-stacked the training matrices chunk by chunk.

def frozen_stack_batch(batch):
    xs = []
    ys = []
    for x, label in batch:
        xs.append(np.asarray(x, dtype=np.float64))
        ys.append(label)
    return np.stack(xs), np.array(ys, dtype=np.intp)


def frozen_predict(params, matrices, batch_size):
    out = np.zeros(len(matrices), dtype=np.int64)
    for lo in range(0, len(matrices), batch_size):
        chunk = matrices[lo:lo + batch_size]
        x = np.stack([np.asarray(m, dtype=np.float64) for m in chunk])
        out[lo:lo + len(chunk)] = _forward_batch(params, x).argmax(axis=1) + 1
    return out


def frozen_train(model_cfg, dataset, cfg, learning_rate=0.05):
    mats = [np.asarray(p, dtype=np.float64) for p in dataset.payloads()]
    labels = dataset.labels()
    params = init_params(model_cfg, mats[0].shape[1], dataset.l, cfg.hidden, cfg.seed)
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
            loss, grads = loss_and_gradients(params, *frozen_stack_batch(batch))
            total_loss += loss * len(sel)
            for name, grad in grads.items():
                acc_state[name] += grad * grad
                tensors[name] -= learning_rate * grad / (
                    np.sqrt(acc_state[name]) + 1e-8
                )
        preds = frozen_predict(params, mats, batch_size=max(cfg.batch_size, 32))
        accuracy = float(np.mean(preds == np.array(labels)))
        history.append({
            "epoch": epoch + 1,
            "loss": total_loss / n,
            "accuracy": accuracy,
        })
    return params, history


@pytest.mark.parametrize("batch_size", [1, 5, 16])
@pytest.mark.parametrize("arch", ARCHS)
def test_train_matches_frozen_list_batch_train_bit_for_bit(arch, batch_size):
    """36 samples: batches of 5 and 16 leave a partial last batch, and the
    epoch predict runs a chunk of 32 and one of 4."""
    ds = separable_dataset(per_class=12, t=7, k=4, seed=3)
    model_cfg = ModelConfig(arch=arch, conv_channels=3, kernel_width=3)
    cfg = TrainConfig(epochs=3, hidden=4, batch_size=batch_size, seed=5)
    params, history = train(model_cfg, ds, cfg)
    want_params, want_history = frozen_train(model_cfg, ds, cfg)
    assert history == want_history
    for name, arr in named_params(params).items():
        assert np.array_equal(arr, named_params(want_params)[name]), name


@pytest.mark.parametrize("batch_size", [1, 5, 16])
@pytest.mark.parametrize("arch", ARCHS)
def test_train_without_epoch_accuracy_trains_the_same_bits(arch, batch_size, monkeypatch):
    """The post-epoch predict only reads the parameters, so skipping it
    drops the accuracy column and changes no trained bit and no loss."""
    ds = separable_dataset(per_class=12, t=7, k=4, seed=3)
    model_cfg = ModelConfig(arch=arch, conv_channels=3, kernel_width=3)
    cfg = TrainConfig(epochs=3, hidden=4, batch_size=batch_size, seed=5)
    params, history = train(model_cfg, ds, cfg)

    def no_predict(*_args, **_kwargs):
        raise AssertionError("predict called with epoch_accuracy=False")

    monkeypatch.setattr(neural, "predict", no_predict)
    lean_params, lean_history = train(model_cfg, ds, cfg, epoch_accuracy=False)
    assert [set(row) for row in lean_history] == [{"epoch", "loss"}] * cfg.epochs
    assert lean_history == [{"epoch": r["epoch"], "loss": r["loss"]} for r in history]
    for name, arr in named_params(lean_params).items():
        assert np.array_equal(arr, named_params(params)[name]), name


def test_train_diverges_with_absurd_rate(monkeypatch):
    monkeypatch.setattr(neural, "LEARNING_RATE", 1e6)
    ds = separable_dataset(per_class=4)
    with pytest.raises(DivergedLoss):
        with np.errstate(all="ignore"):
            train(ModelConfig(arch="lstm", conv_channels=4, kernel_width=3), ds,
                  TrainConfig(epochs=6, hidden=4, batch_size=16, seed=0))


def test_train_rejects_bad_inputs():
    with pytest.raises(EmptyTrainSet):
        train(ModelConfig(conv_channels=24, kernel_width=3), LabeledDataset(records=(), l=2),
              TrainConfig(epochs=12, hidden=24, batch_size=16, seed=0))
    params = init_params(ModelConfig(conv_channels=3, kernel_width=3),
                         input_dim=3, classes=2, hidden=3)
    with pytest.raises(ValueError, match="label 5 outside 1..2"):
        batch_loss(params, np.zeros((1, 4, 3)), [5])


@pytest.mark.parametrize("arch", ARCHS)
def test_every_forward_refuses_a_wrong_input_width(arch):
    """The model checks its input width itself, before any matmul, so
    every entry point fails with a typed error, not numpy's ValueError."""
    params = init_params(ModelConfig(arch=arch, conv_channels=3, kernel_width=3),
                         input_dim=4, classes=2, hidden=3, seed=0)
    assert (params.lstm is None) == (arch == "gcnn") and (params.conv is None) == (arch == "lstm")
    assert params.input_dim == 4
    assert issubclass(ShapeMismatch, PipelineError)
    rng = np.random.default_rng(0)
    for width in (3, 5):  # one column too narrow, one too wide
        mats = [rng.normal(size=(6, width)) for _ in range(2)]
        x, y = np.stack(mats), [1, 1]
        for call in (lambda: predict(params, mats), lambda: mcc_rcnn_forward(params, mats[0]),
                     lambda: loss_and_gradients(params, x, y), lambda: batch_loss(params, x, y)):
            with pytest.raises(ShapeMismatch, match=f"input has {width} columns, "
                                                    "the model takes 4"):
                call()
    ok = [rng.normal(size=(6, 4)) for _ in range(2)]
    assert predict(params, ok).shape == (2,)


def test_predict_is_one_based_and_batch_invariant():
    params = init_params(ModelConfig(arch="gcnn", conv_channels=4, kernel_width=3),
                         input_dim=2, classes=3, hidden=3, seed=1)
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(5, 2)) for _ in range(9)]
    big = predict(params, mats, batch_size=64)
    small = predict(params, mats, batch_size=2)
    assert np.array_equal(big, small)
    assert set(big.tolist()) <= {1, 2, 3}
    assert big.min() >= 1


def spread_matrices(n, seed=7):
    """(20, 12) matrices whose per-sample column offset spreads busy_params'
    predictions over all classes."""
    rng = np.random.default_rng(seed)
    return [rng.normal(loc=rng.normal(scale=2.0, size=12), size=(20, 12)) for _ in range(n)]


def recorded_forward(monkeypatch, record):
    """Route predict's forward through ``record(x, probs)``."""
    forward = neural._forward_batch

    def recording(params, x):
        probs = forward(params, x)
        record(x, probs)
        return probs

    monkeypatch.setattr(neural, "_forward_batch", recording)


@pytest.mark.parametrize("batch_size", [4, 32, 64])
def test_predict_of_payloads_matches_the_list_form_bit_for_bit(monkeypatch, batch_size):
    """150 samples leave a partial last chunk at every size."""
    params = busy_params("mcc_rcnn")
    mats = spread_matrices(150)
    probs = []
    recorded_forward(monkeypatch, lambda _x, out: probs.append(out))
    want = predict(params, mats, batch_size=batch_size)
    want_probs, probs[:] = list(probs), []
    payloads = [("sample", i) for i in range(150)]
    got = predict(params, payloads, batch_size=batch_size, to_matrix=lambda p: mats[p[1]])
    assert np.array_equal(got, want) and len(set(want.tolist())) > 1
    assert len(probs) == len(want_probs) == -(-150 // batch_size)
    for got_chunk, want_chunk in zip(probs, want_probs):
        assert np.array_equal(got_chunk, want_chunk)


def test_predict_converts_one_chunk_at_a_time(monkeypatch):
    """No earlier chunk's matrix, nor its stacked batch, is alive when
    predict converts a payload of the next chunk."""
    params = busy_params("mcc_rcnn")
    mats = spread_matrices(150)
    made: list[tuple[int, weakref.ref]] = []
    stacks: list[weakref.ref] = []
    alive_at_convert = []

    def to_matrix(i):
        alive = [j for j, ref in made if ref() is not None and j // 32 != i // 32]
        alive += ["stack" for ref in stacks if ref() is not None]
        alive_at_convert.append(alive)
        matrix = mats[i].copy()
        made.append((i, weakref.ref(matrix)))
        return matrix

    recorded_forward(monkeypatch, lambda x, _out: stacks.append(weakref.ref(x)))
    got = predict(params, list(range(150)), batch_size=32, to_matrix=to_matrix)
    assert len(stacks) == 5 and [i for i, _ref in made] == list(range(150))
    assert alive_at_convert == [[]] * 150
    assert np.array_equal(got, predict(params, mats, batch_size=32))
