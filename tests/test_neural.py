"""LSTM, gated convolution, pooling, and the trained classifier."""

import math
import warnings

import numpy as np
import pytest

from mccrcnn.embedding import DivergedLoss
from mccrcnn.features import LabeledDataset
from mccrcnn.neural import (
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
from mccrcnn.neural import _lstm_backward, _sigmoid


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
    params = init_params(ModelConfig(arch="lstm"), input_dim=3, classes=2,
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
    dx = np.zeros((b, t, k))
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
        dx[:, step] = dz[:, :k]
        dh_next = dz[:, k:]
        dc_next = dc * f
    return dw, db, dx


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("b,t", [(1, 1), (1, 7), (5, 1), (5, 7)])
def test_stacked_lstm_matches_four_gate_reference(b, t):
    k, h = 3, 4
    params = init_params(ModelConfig(arch="lstm"), input_dim=k, classes=3,
                         hidden=h, seed=11)
    rng = np.random.default_rng(12)
    params.lstm.b[:] = rng.normal(scale=0.5, size=4 * h)  # nonzero biases
    gw = {g: params.lstm.w[n * h:(n + 1) * h] for n, g in enumerate("fioc")}
    gb = {g: params.lstm.b[n * h:(n + 1) * h] for n, g in enumerate("fioc")}
    x = rng.normal(size=(b, t, k))
    labels = [1 + n % 3 for n in range(b)]

    want_h, ref_cache = four_gate_forward(gw, gb, x)
    got_h, cache = lstm_forward(params.lstm, x)
    assert rel_err(got_h, want_h) <= 1e-12

    # the head above the LSTM, written out to get dL/dH for the reference
    pooled, arg = max_pool_over_time(want_h)
    logits = pooled @ params.dense_w.T + params.dense_b
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    want_loss = -np.mean(np.log(probs[np.arange(b), np.array(labels) - 1]))
    dlogits = probs.copy()
    dlogits[np.arange(b), np.array(labels) - 1] -= 1.0
    dlogits /= b
    dh_seq = max_pool_backward(arg, want_h.shape, dlogits @ params.dense_w)
    dw, db, want_dx = four_gate_backward(gw, ref_cache, dh_seq)

    loss, grads = loss_and_gradients(params, list(zip(x, labels)))
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert rel_err(grads["lstm.w"], np.vstack([dw[g] for g in "fioc"])) <= 1e-12
    assert rel_err(grads["lstm.b"], np.concatenate([db[g] for g in "fioc"])) <= 1e-12
    _, got_dx = _lstm_backward(params.lstm, cache, dh_seq)
    assert rel_err(got_dx, want_dx) <= 1e-12


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
    grads = {"lstm.w": da_flat.T @ z, "lstm.b": da_flat.sum(axis=0)}
    return grads, da @ p.w[:, :k]


@pytest.mark.parametrize("dh_kind", ["dense", "max_pool"])
@pytest.mark.parametrize("b,t", [(1, 1), (1, 2), (1, 48), (16, 1), (16, 2), (16, 48)])
def test_lstm_backward_matches_step_by_step_reference(b, t, dh_kind):
    k, h = 48, 24  # the fused input width and hidden size the pipeline trains
    rng = np.random.default_rng(100 * b + t)
    params = init_params(ModelConfig(arch="lstm"), input_dim=k, classes=3,
                         hidden=h, seed=b + t).lstm
    params.b[:] = rng.normal(scale=0.5, size=4 * h)
    hs, cache = lstm_forward(params, rng.normal(size=(b, t, k)))
    if dh_kind == "dense":
        dh_seq = rng.normal(size=hs.shape)
    else:  # what the lstm arch's pool hands back: one step per unit
        _, arg = max_pool_over_time(hs)
        dh_seq = max_pool_backward(arg, hs.shape, rng.normal(size=(b, h)))

    want, want_dx = reference_lstm_backward(params, cache, dh_seq)
    got, got_dx = _lstm_backward(params, cache, dh_seq)
    assert rel_err(got["lstm.w"], want["lstm.w"]) <= 1e-12
    assert rel_err(got["lstm.b"], want["lstm.b"]) <= 1e-12
    assert got_dx.shape == want_dx.shape
    assert rel_err(got_dx, want_dx) <= 1e-12


def test_lstm_shapes():
    p = tiny_lstm()
    assert p.hidden == 1 and p.input_dim == 1
    hs, _ = lstm_forward(p, np.zeros((7, 1)))
    assert hs.shape == (7, 1)
    assert not hs.any()  # zero input, zero state: tanh(c)=0 everywhere


# -------------------------------------------------------------- gated conv

def test_width_one_conv_is_pointwise_glu():
    rng = np.random.default_rng(2)
    p = GatedConvParams(
        w=rng.normal(size=(1, 3, 2)), b=rng.normal(size=2),
        v=rng.normal(size=(1, 3, 2)), g=rng.normal(size=2),
    )
    h = rng.normal(size=(5, 3))
    out, _ = gated_conv_forward(p, h)
    for t in range(5):
        for o in range(2):
            lin = float(h[t] @ p.w[0, :, o] + p.b[o])
            gate = sig(float(h[t] @ p.v[0, :, o] + p.g[o]))
            assert out[t, o] == pytest.approx(lin * gate, abs=1e-14)


def test_width_three_conv_zero_pads_both_ends():
    rng = np.random.default_rng(3)
    p = GatedConvParams(
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
            gate = sig(float((window * p.v[:, :, o]).sum() + p.g[o]))
            assert out[t, o] == pytest.approx(lin * gate, abs=1e-13)


def test_even_kernel_width_rejected():
    with pytest.raises(EvenKernelWidth):
        GatedConvParams(w=np.zeros((2, 1, 1)), b=np.zeros(1),
                        v=np.zeros((2, 1, 1)), g=np.zeros(1))
    with pytest.raises(EvenKernelWidth):
        init_params(ModelConfig(arch="gcnn", kernel_width=4), input_dim=2,
                    classes=2, hidden=3)


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
            gate = sig(sum(hs[t][u] * conv.v[0, u, o] for u in range(2)) + conv.g[o])
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
    params = init_params(ModelConfig(arch="mcc_rcnn"), input_dim=3,
                         classes=4, hidden=5, seed=0)
    params.dense_w[:] = 0.0
    params.dense_b[:] = 0.0
    rng = np.random.default_rng(1)
    probs = mcc_rcnn_forward(params, rng.normal(size=(6, 3)))
    assert probs == pytest.approx([0.25] * 4)
    batch = [(rng.normal(size=(6, 3)), 1 + i % 4) for i in range(8)]
    assert batch_loss(params, batch) == pytest.approx(math.log(4))


def test_arch_property_and_ablation_shapes():
    full = init_params(ModelConfig(arch="mcc_rcnn", conv_channels=7),
                       input_dim=3, classes=2, hidden=4, seed=0)
    assert full.arch == "mcc_rcnn"
    assert full.conv.in_channels == 4 and full.conv.out_channels == 7
    assert full.dense_w.shape == (2, 7)

    only_lstm = init_params(ModelConfig(arch="lstm"), input_dim=3,
                            classes=2, hidden=4, seed=0)
    assert only_lstm.arch == "lstm" and only_lstm.conv is None
    assert only_lstm.dense_w.shape == (2, 4)

    only_conv = init_params(ModelConfig(arch="gcnn", conv_channels=5),
                            input_dim=3, classes=2, hidden=4, seed=0)
    assert only_conv.arch == "gcnn" and only_conv.lstm is None
    assert only_conv.conv.in_channels == 3  # convolves the raw input
    assert only_conv.input_dim == 3

    with pytest.raises(ValueError):
        init_params(ModelConfig(arch="rnn"), input_dim=3, classes=2, hidden=4)


def test_init_is_seeded_and_biases_zero():
    a = init_params(ModelConfig(), input_dim=3, classes=2, hidden=4, seed=5)
    b = init_params(ModelConfig(), input_dim=3, classes=2, hidden=4, seed=5)
    c = init_params(ModelConfig(), input_dim=3, classes=2, hidden=4, seed=6)
    assert np.array_equal(a.lstm.w, b.lstm.w)
    assert np.array_equal(a.dense_w, b.dense_w)
    assert not np.array_equal(a.lstm.w, c.lstm.w)
    assert a.lstm.w.shape == (16, 7) and a.lstm.b.shape == (16,)
    assert not a.lstm.b.any()
    assert not a.conv.b.any() and not a.conv.g.any() and not a.dense_b.any()
    bound = 1.0 / math.sqrt(3 + 4)
    assert abs(a.lstm.w).max() <= bound
    # one stacked draw equals the four per-gate (h, k + h) draws, in order
    rng = np.random.default_rng(5)
    gates = [rng.uniform(-bound, bound, size=(4, 7)) for _ in "fioc"]
    assert np.array_equal(a.lstm.w, np.vstack(gates))


# --------------------------------------------------------------- gradients

def sample_for(params, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(6, params.input_dim)), 1 + seed % params.l)


@pytest.mark.parametrize("arch", ["mcc_rcnn", "lstm", "gcnn"])
def test_gradient_check_passes_every_arch(arch):
    for seed in (0, 1, 2):
        params = init_params(ModelConfig(arch=arch, conv_channels=5),
                             input_dim=3, classes=3, hidden=4, seed=seed)
        err = gradient_check(params, sample_for(params, seed))
        assert err <= 1e-4, (arch, seed, err)


def test_gradient_check_flags_corrupted_gradients():
    params = init_params(ModelConfig(arch="mcc_rcnn"), input_dim=3,
                         classes=3, hidden=4, seed=3)
    sample = sample_for(params, 3)
    _, grads = loss_and_gradients(params, [sample])
    grads = {k: v.copy() for k, v in grads.items()}
    grads["dense.w"][0, 0] += 0.05
    assert gradient_check(params, sample, grads=grads) > 1e-2


def test_gradient_check_subsampling_is_cheap_and_seeded():
    params = init_params(ModelConfig(arch="mcc_rcnn"), input_dim=3,
                         classes=3, hidden=4, seed=4)
    sample = sample_for(params, 4)
    e1 = gradient_check(params, sample, max_params=40, seed=9)
    e2 = gradient_check(params, sample, max_params=40, seed=9)
    assert e1 == e2 and e1 <= 1e-4


def test_named_params_covers_every_tensor():
    params = init_params(ModelConfig(arch="mcc_rcnn"), input_dim=3,
                         classes=2, hidden=4, seed=0)
    names = list(named_params(params))
    assert names == [
        "lstm.w", "lstm.b",
        "conv.w", "conv.b", "conv.v", "conv.g",
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
        ModelConfig(arch="mcc_rcnn"), ds,
        TrainConfig(learning_rate=0.05, epochs=15, hidden=6, batch_size=8, seed=0),
    )
    assert history[-1]["accuracy"] == 1.0
    assert history[-1]["loss"] < history[0]["loss"]
    assert [row["epoch"] for row in history] == list(range(1, 16))
    mats = ds.payloads()
    assert predict(params, mats).tolist() == ds.labels()


def test_train_is_deterministic_under_seed():
    ds = separable_dataset(per_class=4)
    cfg = TrainConfig(learning_rate=0.05, epochs=3, hidden=4, batch_size=4, seed=2)
    p1, h1 = train(ModelConfig(arch="lstm"), ds, cfg)
    p2, h2 = train(ModelConfig(arch="lstm"), ds, cfg)
    assert h1 == h2
    for name, arr in named_params(p1).items():
        assert np.array_equal(arr, named_params(p2)[name]), name
    p3, _ = train(ModelConfig(arch="lstm"), ds,
                  TrainConfig(learning_rate=0.05, epochs=3, hidden=4,
                              batch_size=4, seed=3))
    assert not np.array_equal(p1.dense_w, p3.dense_w)


def test_train_diverges_with_absurd_rate():
    ds = separable_dataset(per_class=4)
    with pytest.raises(DivergedLoss):
        with np.errstate(all="ignore"):
            train(ModelConfig(arch="lstm"), ds,
                  TrainConfig(learning_rate=1e6, epochs=6, hidden=4, seed=0,
                              optimizer="sgd"))


def test_train_rejects_bad_inputs():
    with pytest.raises(EmptyTrainSet):
        train(ModelConfig(), LabeledDataset(records=(), l=2), TrainConfig())
    ds = separable_dataset(per_class=2)
    with pytest.raises(ValueError):
        train(ModelConfig(), ds, TrainConfig(optimizer="rmsprop"))
    params = init_params(ModelConfig(), input_dim=3, classes=2, hidden=3)
    with pytest.raises(ValueError):
        batch_loss(params, [(np.zeros((4, 3)), 5)])


def test_predict_is_one_based_and_batch_invariant():
    params = init_params(ModelConfig(arch="gcnn", conv_channels=4),
                         input_dim=2, classes=3, hidden=3, seed=1)
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(5, 2)) for _ in range(9)]
    big = predict(params, mats, batch_size=64)
    small = predict(params, mats, batch_size=2)
    assert np.array_equal(big, small)
    assert set(big.tolist()) <= {1, 2, 3}
    assert big.min() >= 1
