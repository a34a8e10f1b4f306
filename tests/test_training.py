"""Unit tests for losses, schedules, the optimizer, and the fit loop."""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

from srnn.network import (
    LayerSpec,
    NetworkSpec,
    forward_sequence,
    init_network,
)
from srnn.surrogates import Gaussian, MultiGaussian
from srnn.training import (
    AdamState,
    GradientSet,
    LinearToZero,
    StepDecay,
    TrainingConfig,
    adam_step,
    backward,
    evaluate,
    fit,
    loss_classification,
    loss_streaming,
    lr_at,
    zero_grads,
)


def test_classification_loss_values():
    assert abs(loss_classification([0.25, 0.25, 0.5], 2) - math.log(2.0)) < 1e-12
    assert abs(loss_classification([1.0, 0.0], 0)) < 1e-12
    # a zero-probability label is floored, not infinite
    assert loss_classification([1.0, 0.0], 1) < 700.0


def test_classification_loss_validation():
    with pytest.raises(ValueError):
        loss_classification([0.5, -0.1, 0.6], 0)
    with pytest.raises(ValueError):
        loss_classification([0.2, 0.2], 0)


def test_streaming_loss_values():
    probs = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
    labels = [0, 1, 0]
    want = -math.log(0.5) - math.log(0.75) - math.log(1.0)
    assert abs(loss_streaming(probs, labels) - want) < 1e-12
    with pytest.raises(ValueError):
        loss_streaming(probs, [0, 1])


def test_learning_rate_schedules():
    assert lr_at(None, 0.1, 99) == 0.1
    sd = StepDecay(factor=0.5, every=20)
    assert lr_at(sd, 0.1, 0) == 0.1
    assert lr_at(sd, 0.1, 19) == 0.1
    assert lr_at(sd, 0.1, 20) == 0.05
    assert lr_at(sd, 0.1, 45) == 0.025
    lz = LinearToZero(total_epochs=100)
    assert lr_at(lz, 0.1, 0) == 0.1
    assert abs(lr_at(lz, 0.1, 50) - 0.05) < 1e-15
    assert lr_at(lz, 0.1, 100) == 0.0
    assert lr_at(lz, 0.1, 140) == 0.0
    with pytest.raises(ValueError):
        StepDecay(factor=0.0)
    with pytest.raises(ValueError):
        StepDecay(every=0)
    with pytest.raises(ValueError):
        LinearToZero(total_epochs=0)
    with pytest.raises(TypeError):
        lr_at(object(), 0.1, 0)


def small_spec(decode="spike_count", out_neuron="alif"):
    hid = dict(neuron="alif", recurrent=True, tau_m_init=(6.0, 1.0),
               tau_adp_init=(30.0, 4.0), b_0=0.3, beta=0.6)
    out = dict(tau_m_init=(6.0, 1.0), b_0=0.3, beta=0.6) \
        if out_neuron == "alif" else dict(tau_m_init=(6.0, 1.0))
    return NetworkSpec(
        input_size=4,
        layers=[LayerSpec(size=8, **hid),
                LayerSpec(size=3, neuron=out_neuron, **out)],
        decode=decode,
        seed=0,
    )


def toy_data(n=24, t=12, channels=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(0.0, 1.5, size=(n, t, channels))
    labels = rng.integers(0, classes, size=n)
    return SimpleNamespace(inputs=inputs, labels=labels)


def test_backward_rejects_mismatched_trace():
    net = init_network(small_spec(), seed=0)
    bidi_spec = NetworkSpec(
        input_size=4,
        layers=[LayerSpec(size=8, neuron="alif", recurrent=True, b_0=0.3, beta=0.6),
                LayerSpec(size=3, neuron="readout")],
        decode="membrane_softmax", bidirectional=True, seed=0)
    bn = init_network(bidi_spec, seed=0)
    x = np.zeros((5, 4))
    trace = forward_sequence(net, x)
    with pytest.raises(TypeError):
        backward(bn, trace, np.array([0]), MultiGaussian())


def test_batch_gradients_are_sums_over_samples():
    # vectorized batch backward must equal the sum of per-sample backwards
    net = init_network(small_spec(), seed=1)
    rng = np.random.default_rng(2)
    xa = rng.normal(0.0, 1.5, size=(1, 10, 4))
    xb = rng.normal(0.0, 1.5, size=(1, 10, 4))
    both = np.concatenate([xa, xb], axis=0)
    la, lb = np.array([1]), np.array([2])
    surrogate = Gaussian()
    ga = backward(net, forward_sequence(net, xa), la, surrogate)
    gb = backward(net, forward_sequence(net, xb), lb, surrogate)
    gab = backward(net, forward_sequence(net, both), np.array([1, 2]), surrogate)
    assert abs(gab.loss - (ga.loss + gb.loss)) < 1e-9
    for sep_a, sep_b, joint in zip(ga.layers, gb.layers, gab.layers):
        for name, arr in joint.arrays().items():
            if arr is None:
                continue
            want = sep_a.arrays()[name] + sep_b.arrays()[name]
            np.testing.assert_allclose(arr, want, atol=1e-10)


ALIF = dict(neuron="alif", tau_m_init=(4.0, 1.0), tau_adp_init=(30.0, 4.0),
            b_0=0.05, beta=0.1)
LIF = dict(neuron="lif", tau_m_init=(4.0, 1.0), theta=0.05)
RELU = dict(neuron="relu", tau_m_init=(6.0, 1.0))
READOUT = dict(neuron="readout", tau_m_init=(6.0, 1.0))

# Every neuron kind appears in each stack, recurrent and not; sequence
# labels for both decoders plus per-step labels for the streaming loss.
ADDITIVITY_CASES = {
    "spike_count": ([LayerSpec(size=7, recurrent=True, **ALIF),
                     LayerSpec(size=6, recurrent=True, **RELU),
                     LayerSpec(size=5, **READOUT),
                     LayerSpec(size=3, recurrent=True, **LIF)], False),
    "membrane_softmax": ([LayerSpec(size=7, recurrent=True, **LIF),
                          LayerSpec(size=6, **RELU),
                          LayerSpec(size=5, recurrent=True, **ALIF),
                          LayerSpec(size=3, recurrent=True, **READOUT)], False),
    "nll_streaming": ([LayerSpec(size=7, recurrent=True, **RELU),
                       LayerSpec(size=6, **LIF),
                       LayerSpec(size=5, recurrent=True, **ALIF),
                       LayerSpec(size=3, **READOUT)], True),
}


@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("case", sorted(ADDITIVITY_CASES))
def test_batch_backward_is_the_sum_of_single_sample_backwards(case, soft):
    # a reshape or transpose that mixes the batch axis breaks additivity;
    # 40 steps cross a block boundary of the reverse sweep
    layers, per_step = ADDITIVITY_CASES[case]
    decode = "membrane_softmax" if case == "nll_streaming" else case
    net = init_network(NetworkSpec(input_size=4, layers=layers, decode=decode,
                                   seed=0), seed=13)
    rng = np.random.default_rng(14)
    batch, t_steps = 5, 40
    x = rng.normal(0.0, 1.5, size=(batch, t_steps, 4))
    labels = rng.integers(0, 3, size=(batch, t_steps) if per_step else batch)
    surrogate = MultiGaussian()
    joint = backward(net, forward_sequence(net, x, soft=soft), labels, surrogate)
    total = zero_grads(net)
    for b in range(batch):
        total.add_(backward(net, forward_sequence(net, x[b:b + 1], soft=soft),
                            labels[b:b + 1], surrogate))
    assert abs(joint.loss - total.loss) <= 1e-12 * abs(total.loss)
    assert joint.correct == total.correct
    for i, (mine, want) in enumerate(zip(joint.layers, total.layers)):
        for name, ref in want.arrays().items():
            if ref is None:
                continue
            scale = float(np.abs(ref).max())
            assert scale > 0.0, f"layer {i} {name}: no gradient reached it"
            err = float(np.abs(mine.arrays()[name] - ref).max())
            assert err <= 1e-12 * scale, f"layer {i} {name}: rel err {err / scale:.2e}"


def test_frozen_time_constants_get_zero_gradients():
    net = init_network(small_spec(), seed=3)
    x = np.random.default_rng(4).normal(0.0, 1.5, size=(2, 10, 4))
    trace = forward_sequence(net, x)
    grads = backward(net, trace, np.array([0, 1]), MultiGaussian(),
                     train_tau_m=False, train_tau_adp=False)
    moved = 0.0
    for lg in grads.layers:
        np.testing.assert_array_equal(lg.tau_m, np.zeros_like(lg.tau_m))
        if lg.tau_adp is not None:
            np.testing.assert_array_equal(lg.tau_adp, np.zeros_like(lg.tau_adp))
        moved += float(np.abs(lg.w_in).sum())
    assert moved > 0.0  # weight gradients still flow


def test_gradient_set_arithmetic():
    net = init_network(small_spec(), seed=5)
    a = zero_grads(net)
    b = zero_grads(net)
    a.layers[0].w_in += 1.0
    b.layers[0].w_in += 2.0
    b.loss = 3.0
    b.correct = 2
    b.total_preds = 4
    a.add_(b)
    assert np.all(a.layers[0].w_in == 3.0)
    assert a.loss == 3.0 and a.correct == 2 and a.total_preds == 4
    a.scale_(0.5)
    assert np.all(a.layers[0].w_in == 1.5)


def test_adam_first_step_magnitude_is_lr():
    net = init_network(small_spec(), seed=6)
    state = AdamState.for_net(net)
    grads = zero_grads(net)
    grads.layers[-1].bias[:] = [4.0, -0.3, 0.002]
    before = net.layers[-1].bias.copy()
    adam_step(net, grads, state, lr=0.01)
    delta = net.layers[-1].bias - before
    # bias-corrected first step is -lr*sign(g) up to the eps softening
    np.testing.assert_allclose(delta, [-0.01, 0.01, -0.01], rtol=1e-5)
    assert state.t == 1


def test_adam_clamps_time_constants():
    net = init_network(small_spec(), seed=7)
    state = AdamState.for_net(net)
    grads = zero_grads(net)
    grads.layers[0].tau_m[:] = 1.0  # consistent positive gradient
    for _ in range(5000):
        adam_step(net, grads, state, lr=10.0)
    assert np.all(net.layers[0].tau_m >= 1.0)  # dt floor
    grads.layers[0].tau_m[:] = -1.0
    for _ in range(5000):
        adam_step(net, grads, state, lr=100.0)
    assert np.all(net.layers[0].tau_m <= 1e4)


def test_fit_is_deterministic_and_thread_invariant():
    data = toy_data()
    cfg = dict(epochs=3, lr=1e-2, minibatch=8, surrogate=MultiGaussian(),
               loss="ce", seed=9)
    net1, log1 = fit(small_spec(), data, TrainingConfig(**cfg), threads=1)
    net2, log2 = fit(small_spec(), data, TrainingConfig(**cfg), threads=4)
    assert log1.to_csv_text() == log2.to_csv_text()
    for la, lb in zip(net1.layers, net2.layers):
        np.testing.assert_array_equal(la.w_in, lb.w_in)
        np.testing.assert_array_equal(la.tau_m, lb.tau_m)
    net3, log3 = fit(small_spec(), data, TrainingConfig(**dict(cfg, seed=10)),
                     threads=1)
    assert log3.to_csv_text() != log1.to_csv_text()


def test_fit_zero_epochs_returns_untrained_network():
    data = toy_data()
    spec = small_spec()
    cfg = TrainingConfig(epochs=0)
    net, log = fit(spec, data, cfg)
    ref = init_network(spec)
    assert log.rows == []
    for la, lb in zip(net.layers, ref.layers):
        np.testing.assert_array_equal(la.w_in, lb.w_in)


def test_fit_accepts_prebuilt_network_and_trains_in_place():
    data = toy_data()
    net = init_network(small_spec(), seed=11)
    before = net.layers[0].w_in.copy()
    out, log = fit(net, data, TrainingConfig(epochs=2, minibatch=8, seed=0))
    assert out is net
    assert not np.array_equal(before, net.layers[0].w_in)
    assert len(log.rows) == 2


def test_fit_label_shape_must_match_loss():
    data = toy_data()
    streaming = SimpleNamespace(
        inputs=data.inputs,
        labels=np.zeros((data.inputs.shape[0], data.inputs.shape[1]), dtype=int))
    with pytest.raises(ValueError):
        fit(small_spec(), streaming, TrainingConfig(loss="ce"))
    with pytest.raises(ValueError):
        fit(small_spec(), data, TrainingConfig(loss="nll_streaming"))


def test_fit_raises_on_divergence():
    data = toy_data()
    spec = small_spec(decode="membrane_softmax", out_neuron="readout")
    # one optimizer step at this rate overflows the next forward pass
    cfg = TrainingConfig(epochs=3, lr=1e300, minibatch=24, seed=0)
    with pytest.raises(FloatingPointError):
        with np.errstate(all="ignore"):
            fit(spec, data, cfg)


def test_fit_stops_at_the_first_non_finite_parameter(monkeypatch):
    import srnn.training as training

    real_backward = training.backward

    def poisoned(*args, **kwargs):
        grads = real_backward(*args, **kwargs)
        grads.layers[0].tau_adp[0] = np.nan
        return grads

    monkeypatch.setattr(training, "backward", poisoned)
    # the first Adam step spoils tau_adp; the epoch's mean loss would only
    # show it one step later and could not name the family
    with pytest.raises(FloatingPointError, match=r"epoch 0: tau_adp of layer 0"):
        fit(small_spec(), toy_data(), TrainingConfig(epochs=2, minibatch=8, seed=0))


def test_fit_frozen_tau_stays_at_init():
    data = toy_data()
    spec = small_spec()
    ref = init_network(spec)
    net, _ = fit(spec, data, TrainingConfig(
        epochs=2, minibatch=8, seed=0, train_tau_m=False, train_tau_adp=False))
    for la, lb in zip(net.layers, ref.layers):
        np.testing.assert_array_equal(la.tau_m, lb.tau_m)
        if la.tau_adp is not None:
            np.testing.assert_array_equal(la.tau_adp, lb.tau_adp)


def test_metrics_csv_format():
    data = toy_data()
    _, log = fit(small_spec(), data,
                 TrainingConfig(epochs=2, minibatch=8, seed=0),
                 eval_data=data)
    text = log.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,split,loss,accuracy,mean_firing_rate,lr"
    assert len(lines) == 1 + 4  # train and eval row per epoch
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] in ("train", "eval")
        for cell in (cells[2], cells[3], cells[4], cells[5]):
            assert float(repr(float(cell))) == float(cell)  # repr round-trip


def test_evaluate_matches_manual_scoring():
    data = toy_data(n=16)
    net, _ = fit(small_spec(), data, TrainingConfig(epochs=1, minibatch=8, seed=0))
    rep = evaluate(net, data)
    # recompute with the public pieces: softmax over total spike counts
    correct = 0
    loss = 0.0
    for i in range(16):
        trace = forward_sequence(net, data.inputs[i])
        z = trace.layers[-1].y.sum(axis=0)[0]
        p = np.exp(z - z.max())
        p /= p.sum()
        loss += loss_classification(p, int(data.labels[i]))
        correct += int(np.argmax(z) == data.labels[i])
    assert abs(rep.loss - loss / 16) < 1e-9
    assert rep.accuracy == correct / 16
    assert rep.n_samples == 16
    assert 0.0 <= rep.firing_rate <= 1.0


def test_training_reduces_loss_on_learnable_task():
    # two well-separated drive patterns; a couple of epochs must cut the loss
    rng = np.random.default_rng(12)
    n, t = 24, 10
    inputs = np.zeros((n, t, 4))
    labels = np.zeros(n, dtype=int)
    for i in range(n):
        labels[i] = i % 3
        inputs[i, :, labels[i]] = 2.0
        inputs[i] += rng.normal(0.0, 0.05, size=(t, 4))
    data = SimpleNamespace(inputs=inputs, labels=labels)
    net, log = fit(small_spec(), data,
                   TrainingConfig(epochs=12, lr=2e-2, minibatch=8, seed=1))
    assert log.rows[-1]["loss"] < 0.7 * log.rows[0]["loss"]


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainingConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(minibatch=0)
    with pytest.raises(ValueError):
        TrainingConfig(chunk_size=0)
    with pytest.raises(ValueError):
        TrainingConfig(loss="mse")
