"""Unit tests for losses, schedules, the optimizer, and the fit loop."""

import copy
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from srnn.codecs import encode_dataset
from srnn.datasets import (
    gen_pattern_classification,
    gen_streaming_waveform,
    load_event_csv,
    save_event_csv,
)
from srnn.gradcheck import tape_gradients
from srnn.network import (
    LayerSpec,
    NetworkSpec,
    forward_sequence,
    forward_step,
    init_network,
    init_state,
    save_model,
)
from srnn.surrogates import Gaussian, MultiGaussian
from srnn.training import (
    AdamState,
    GradientSet,
    LinearToZero,
    Output,
    StepDecay,
    TrainingConfig,
    _cross_entropy,
    _sum_outer,
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


@pytest.mark.parametrize("y_hat", [[[0.5, 0.5], [0.2, 0.8]], 1.0], ids=["rows", "0-d"])
def test_classification_loss_takes_one_probability_vector(y_hat):
    # a (B, C) array once picked a row and a 0-d value had no length:
    # both raised TypeError
    with pytest.raises(ValueError, match=r"one probability vector, got shape \("):
        loss_classification(y_hat, 0)


def test_streaming_loss_values():
    probs = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
    labels = [0, 1, 0]
    want = -math.log(0.5) - math.log(0.75) - math.log(1.0)
    assert abs(loss_streaming(probs, labels) - want) < 1e-12
    with pytest.raises(ValueError):
        loss_streaming(probs, [0, 1])


def test_public_losses_are_the_output_rules_loss():
    # one clamp and one sum serve every cross-entropy, a zero-probability
    # label included
    rng = np.random.default_rng(12)
    counts = Output.of("spike_count", y=rng.random((9, 1, 4)) < 0.4)
    for label in range(4):
        assert (loss_classification(counts.probs[0, 0], label)
                == counts.loss(np.array([label])))
    membrane = Output.of("membrane_softmax", u=rng.normal(0.0, 3.0, size=(11, 1, 4)))
    labels = rng.integers(4, size=(1, 11))
    assert loss_streaming(membrane.probs[:, 0], labels[0]) == membrane.loss(labels)
    certain = np.array([[1.0, 0.0]])
    assert loss_streaming(certain, [1]) == _cross_entropy(0.0) == -math.log(1e-300)
    assert loss_classification(certain[0], 1) == _cross_entropy(0.0)


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


@pytest.mark.parametrize("label", [-1, 0.5, 3])
def test_fit_rejects_labels_the_head_cannot_score(label):
    # the head is 3 wide: a label -1 once trained as class 2, 0.5 as class 0,
    # and 3 raised IndexError
    data = toy_data()
    data.labels = np.where(np.arange(24) == 5, label, data.labels)
    with pytest.raises(ValueError, match=rf"label {label} is not an integer in \[0, 3\)"):
        fit(small_spec(), data, TrainingConfig(epochs=1, minibatch=8, seed=0))


@pytest.mark.parametrize("decode", ["spike_count", "membrane_softmax"])
def test_evaluate_and_backward_reject_a_label_past_the_head(decode):
    # a label equal to the head's width once raised IndexError
    net = init_network(small_spec(decode, "alif" if decode == "spike_count" else "readout"))
    data = toy_data(n=4)
    data.labels[2] = 3
    why = r"label 3 is not an integer in \[0, 3\)"
    with pytest.raises(ValueError, match=why):
        evaluate(net, data)
    trace = forward_sequence(net, data.inputs)
    with pytest.raises(ValueError, match=why):
        backward(net, trace, data.labels, MultiGaussian())
    if decode == "membrane_softmax":     # per-step labels meet the same check
        steps = np.zeros((4, 12), dtype=int)
        steps[1, 7] = 3
        with pytest.raises(ValueError, match=why):
            backward(net, trace, steps, MultiGaussian())


@pytest.mark.parametrize("label", [-1, 0.5, 3])
def test_public_losses_reject_labels_they_cannot_score(label):
    # a label -1 once scored the last class, 0.5 class 0, and the width
    # raised IndexError
    why = rf"label {label} is not an integer in \[0, 3\)"
    with pytest.raises(ValueError, match=why):
        loss_classification([0.2, 0.3, 0.5], label)
    with pytest.raises(ValueError, match=why):
        loss_streaming([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]], [0, label])


def _params(net):
    return [a.copy() for layer in net.all_layers for a in layer.param_arrays().values()
            if a is not None]


def _bad_set(case):
    data = toy_data()
    if case == "label-past-the-head":
        data.labels[23] = 5
    elif case == "nan-input":
        data.inputs[23, 4, 1] = np.nan
    elif case == "label-count":
        data.labels = data.labels[:23]
    else:
        data.inputs, data.labels = data.inputs[:0], data.labels[:0]
    return data


@pytest.mark.parametrize("case", ["label-past-the-head", "nan-input", "label-count", "empty"])
def test_fit_rejects_a_bad_set_before_any_step(case, monkeypatch):
    # each fault once raised only at the minibatch that held it, after
    # earlier Adam steps had changed the passed-in network (a label count
    # short by one raised IndexError, an empty set ZeroDivisionError)
    net = init_network(small_spec(), seed=0)
    before = _params(net)
    passes = []
    monkeypatch.setattr("srnn.training.forward_sequence",
                        lambda *a, **kw: passes.append(a) or forward_sequence(*a, **kw))
    with pytest.raises(ValueError):
        fit(net, _bad_set(case), TrainingConfig(epochs=1, minibatch=4, seed=0))
    assert passes == []
    for a, b in zip(before, _params(net), strict=True):
        np.testing.assert_array_equal(a, b)


def test_evaluate_rejects_an_empty_set():
    # a set of no samples once scored loss 0.0 and accuracy 0.0 and an
    # all-NaN anytime curve; sequences of no steps are rejected too
    net = init_network(small_spec("membrane_softmax", "readout"), seed=0)
    empty = _bad_set("empty")
    with pytest.raises(ValueError, match="with a sample or more"):
        evaluate(net, empty)
    stepless = toy_data(n=3, t=0)
    with pytest.raises(ValueError, match="no steps"):
        evaluate(net, stepless)


def test_fit_rejects_an_empty_eval_set_before_any_step(monkeypatch):
    net = init_network(small_spec(), seed=0)
    before = _params(net)
    steps = []
    monkeypatch.setattr("srnn.training.adam_step", lambda *a: steps.append(a))
    with pytest.raises(ValueError, match="with a sample or more"):
        fit(net, toy_data(), TrainingConfig(epochs=1, minibatch=4, seed=0),
            eval_data=_bad_set("empty"))
    assert steps == []
    for a, b in zip(before, _params(net), strict=True):
        np.testing.assert_array_equal(a, b)


def _fuzzed_labels(rng, n, t_steps):
    """A label array no head of width 3 can score for n sequences of
    t_steps: a wrong shape (ndim 0 to 3), a bad entry, or both."""
    shapes = [(), (n - 1,), (n + 1,), (0,), (1, n), (n, 1), (n, t_steps - 1),
              (n - 1, t_steps), (n, t_steps, 1), (1, n, t_steps), (n,), (n, t_steps)]
    bad = [0.5, -1, -0.5, 3, 10**30, 2**63, 1e300, np.nan, np.inf, "x", None]
    good = [0, 1, 2, True, False, 2.0]
    shape = shapes[rng.integers(len(shapes))]
    entries = [good[i] for i in rng.integers(len(good), size=math.prod(shape))]
    if entries and (shape in ((n,), (n, t_steps)) or rng.random() < 0.5):
        entries[rng.integers(len(entries))] = bad[rng.integers(len(bad))]
    return np.array(entries, dtype=object).reshape(shape).tolist()


@pytest.mark.parametrize("decode", ["spike_count", "membrane_softmax"])
def test_api_boundary_fuzz_raises_value_error(decode):
    # seeded label arrays of wrong shapes and entries, and a non-finite
    # input sample: fit, evaluate and backward raise ValueError, never
    # IndexError, TypeError or ZeroDivisionError, and fit leaves the
    # network as it was
    net = init_network(small_spec(decode, "alif" if decode == "spike_count" else "readout"))
    before = _params(net)
    data = toy_data(n=8, t=6)
    trace = forward_sequence(net, data.inputs)
    rng = np.random.default_rng(20)
    cases = [SimpleNamespace(inputs=data.inputs, labels=_fuzzed_labels(rng, 8, 6))
             for _ in range(120)]
    for value in (np.nan, np.inf, -np.inf):
        inputs = data.inputs.copy()
        inputs[rng.integers(8), rng.integers(6), rng.integers(4)] = value
        cases.append(SimpleNamespace(inputs=inputs, labels=data.labels))
    for case in cases:
        for loss in ("ce", "nll_streaming"):
            with pytest.raises(ValueError):
                fit(net, case, TrainingConfig(epochs=1, minibatch=4, loss=loss))
        with pytest.raises(ValueError):
            evaluate(net, case)
        if case.inputs is data.inputs:
            with pytest.raises(ValueError):
                backward(net, trace, case.labels, MultiGaussian())
    for a, b in zip(before, _params(net), strict=True):
        np.testing.assert_array_equal(a, b)


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
        for name, arr in joint.items():
            if arr is None:
                continue
            want = sep_a[name] + sep_b[name]
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
        for name, ref in want.items():
            if ref is None:
                continue
            scale = float(np.abs(ref).max())
            assert scale > 0.0, f"layer {i} {name}: no gradient reached it"
            err = float(np.abs(mine[name] - ref).max())
            assert err <= 1e-12 * scale, f"layer {i} {name}: rel err {err / scale:.2e}"


def _assert_keyed_like_params(net, layer_grads):
    assert len(layer_grads) == len(net.all_layers)
    for i, (layer, grads) in enumerate(zip(net.all_layers, layer_grads)):
        params = layer.param_arrays()
        assert list(grads) == list(params), f"layer {i}"
        for name, p in params.items():
            if p is None:
                assert grads[name] is None, f"layer {i} {name}"
            else:
                assert grads[name].shape == p.shape, f"layer {i} {name}"


@pytest.mark.parametrize("case", sorted(ADDITIVITY_CASES) + ["bidirectional"])
def test_every_gradient_has_the_shape_of_its_parameters(case):
    if case == "bidirectional":
        layers, per_step, bidirectional = ([LayerSpec(size=6, recurrent=True, **ALIF),
                                            LayerSpec(size=5, **RELU),
                                            LayerSpec(size=3, **READOUT)], False, True)
    else:
        (layers, per_step), bidirectional = ADDITIVITY_CASES[case], False
    decode = case if case == "spike_count" else "membrane_softmax"
    net = init_network(NetworkSpec(input_size=4, layers=layers, decode=decode,
                                   bidirectional=bidirectional, seed=0), seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(0.0, 1.5, size=(2, 5, 4))
    labels = rng.integers(0, 3, size=(2, 5) if per_step else 2)
    adam = AdamState.for_net(net)
    sets = [backward(net, forward_sequence(net, x), labels, MultiGaussian()).layers,
            zero_grads(net).layers, adam.m, adam.v]
    if not bidirectional:
        sets.append(tape_gradients(net, x, labels, MultiGaussian())[1].layers)
    for layer_grads in sets:
        _assert_keyed_like_params(net, layer_grads)


def test_frozen_time_constants_get_zero_gradients():
    net = init_network(small_spec(), seed=3)
    x = np.random.default_rng(4).normal(0.0, 1.5, size=(2, 10, 4))
    trace = forward_sequence(net, x)
    grads = backward(net, trace, np.array([0, 1]), MultiGaussian(),
                     train_tau_m=False, train_tau_adp=False)
    moved = 0.0
    for lg in grads.layers:
        np.testing.assert_array_equal(lg["tau_m"], np.zeros_like(lg["tau_m"]))
        if lg["tau_adp"] is not None:
            np.testing.assert_array_equal(lg["tau_adp"], np.zeros_like(lg["tau_adp"]))
        moved += float(np.abs(lg["w_in"]).sum())
    assert moved > 0.0  # weight gradients still flow


def test_gradient_set_arithmetic():
    net = init_network(small_spec(), seed=5)
    a = zero_grads(net)
    b = zero_grads(net)
    a.layers[0]["w_in"] += 1.0
    b.layers[0]["w_in"] += 2.0
    b.loss = 3.0
    b.correct = 2
    b.total_preds = 4
    a.add_(b)
    assert np.all(a.layers[0]["w_in"] == 3.0)
    assert a.loss == 3.0 and a.correct == 2 and a.total_preds == 4
    a.scale_(0.5)
    assert np.all(a.layers[0]["w_in"] == 1.5)


def test_adam_first_step_magnitude_is_lr():
    net = init_network(small_spec(), seed=6)
    state = AdamState.for_net(net)
    grads = zero_grads(net)
    grads.layers[-1]["bias"][:] = [4.0, -0.3, 0.002]
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
    grads.layers[0]["tau_m"][:] = 1.0  # consistent positive gradient
    for _ in range(5000):
        adam_step(net, grads, state, lr=10.0)
    assert np.all(net.layers[0].tau_m >= 1.0)  # dt floor
    grads.layers[0]["tau_m"][:] = -1.0
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
        grads.layers[0]["tau_adp"][0] = np.nan
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


@pytest.mark.parametrize("decode, out_neuron, step_labels", [
    ("spike_count", "alif", False),
    ("membrane_softmax", "readout", False),
    ("membrane_softmax", "readout", True),
])
def test_evaluate_loss_equals_backward_loss(decode, out_neuron, step_labels):
    # evaluate scores without forming gradient seeds; the loss must not move
    data = toy_data(n=40, seed=3)
    if step_labels:
        data.labels = np.random.default_rng(4).integers(0, 3, size=(40, 12))
    net = init_network(small_spec(decode, out_neuron), seed=0)
    rep = evaluate(net, data)
    grads = backward(net, forward_sequence(net, data.inputs), data.labels, MultiGaussian())
    assert rep.loss == grads.loss / 40
    assert rep.accuracy == grads.correct / grads.total_preds


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


def _spike_task(name, tmp_path):
    """A bool dataset, a network spec that reads it and the loss; the stacks
    cover every way a product reads the input: a hoisted spiking layer, a
    step-by-step relu layer, a head that reads the input itself, and a
    back stack that reads it time-reversed."""
    alif = dict(neuron="alif", recurrent=True, tau_m_init=(6.0, 1.0),
                tau_adp_init=(30.0, 4.0), b_0=0.05, beta=0.6)
    head = LayerSpec(size=3, neuron="readout", tau_m_init=(5.0, 1.0))
    if name == "encoded-streaming":
        wave = gen_streaming_waveform(3, 12, 3, 0.01, seed=2, n_samples=24)
        ds = encode_dataset(wave, 0.02, 0.02)
        return ds, NetworkSpec(input_size=2, layers=[head], decode="membrane_softmax",
                               seed=3), "nll_streaming"
    ds = gen_pattern_classification(3, 30, 12, 1.0, seed=4, n_samples=40)
    if name == "event-csv":
        save_event_csv(ds, tmp_path / "events.csv")
        ds = load_event_csv(tmp_path / "events.csv")
        layers = [LayerSpec(size=10, neuron="relu", recurrent=True), head]
        return ds, NetworkSpec(input_size=12, layers=layers, decode="membrane_softmax",
                               seed=3), "ce"
    if name == "pattern-bidirectional":
        return ds, NetworkSpec(input_size=12, layers=[LayerSpec(size=10, **alif), head],
                               decode="membrane_softmax", seed=3, bidirectional=True), "ce"
    layers = [LayerSpec(size=10, **alif), LayerSpec(size=3, **dict(alif, recurrent=False))]
    return ds, NetworkSpec(input_size=12, layers=layers, decode="spike_count", seed=3), "ce"


@pytest.mark.parametrize("name", ["pattern", "pattern-bidirectional", "event-csv",
                                  "encoded-streaming"])
def test_bool_inputs_train_and_score_like_their_float_copy(name, tmp_path):
    # a bool input is cast to float in blocks of samples, its float copy is
    # read as it is: every output must be the same bytes
    ds, spec, loss = _spike_task(name, tmp_path)
    assert ds.inputs.dtype == bool
    as_float = replace(ds, inputs=ds.inputs.astype(float))
    assert as_float.inputs.dtype == float

    def outputs(data, tag):
        out = []
        for threads in (1, 2):
            cfg = TrainingConfig(epochs=2, minibatch=8, chunk_size=3, loss=loss, seed=1)
            net, log = fit(spec, data, cfg, threads=threads)
            save_model(net, tmp_path / f"{tag}{threads}.json")
            out += [(tmp_path / f"{tag}{threads}.json").read_bytes(), log.to_csv_text()]
        rep = evaluate(net, data, chunk_size=7)
        if spec.layers[0].neuron == "alif":
            assert rep.firing_rate > 0.0
        out += [rep.loss.hex(), rep.accuracy, rep.firing_rate, rep.input_events,
                rep.anytime_correct.tolist(), rep.spikes.sample_steps,
                [None if c is None else c.tolist() for c in rep.spikes.per_neuron],
                None if rep.step_predictions is None else rep.step_predictions.tolist()]
        soft = forward_sequence(net, data.inputs[:5], soft=True)
        out += [lt.u.tobytes() for lt in soft.all_layers]
        if not spec.bidirectional:
            x = data.inputs[:2]
            states = init_state(net, batch=2)
            steps = []
            for t in range(data.t_steps):
                states, o = forward_step(net, x[:, t], states)
                steps.append(o[-1])
            assert np.array_equal(steps, forward_sequence(net, x).layers[-1].y)
            out.append(np.array(steps, dtype=float).tobytes())
        return out

    assert outputs(ds, "bool") == outputs(as_float, "float")


@pytest.mark.parametrize("layout", ["input", "reversed-input", "hidden"])
def test_weight_gradient_sums_cast_blocks_in_order(layout, monkeypatch):
    # the weight gradient reduces axis 0 of its layout, samples of a network
    # input and steps of a hidden trace, a block at a time: one block is the
    # bytes of one GEMM over the whole array, several agree with it, and bool
    # spikes give the bytes of their float copy at every block size
    rng = np.random.default_rng(5)
    t_steps, batch, width, n = 9, 5, 4, 3
    b = rng.standard_normal((t_steps, batch, n))
    # rows: the spikes in the layout that is blocked; b_rows: b aligned to it
    if layout == "hidden":
        rows, b_rows = rng.random((t_steps, batch, width)) < 0.4, b
    else:
        rows = rng.random((batch, t_steps, width)) < 0.4
        b_rows = (b[::-1] if layout == "reversed-input" else b).transpose(1, 0, 2)

    def view(r):
        if layout == "hidden":
            return r
        return np.swapaxes(r, 0, 1)[::-1 if layout == "reversed-input" else 1]

    whole = rows.astype(float).reshape(-1, width).T @ b_rows.reshape(-1, n)

    def reduce(a, entries):
        monkeypatch.setattr("srnn.network.CAST_BLOCK_ENTRIES", entries)
        return _sum_outer(a, b)

    row = rows[0].size
    assert reduce(view(rows), 10**6).tobytes() == whole.tobytes()
    for entries in (1, row, 2 * row, 3 * row - 1, 10**6):
        got = reduce(view(rows), entries)
        np.testing.assert_allclose(got, whole, rtol=1e-13, atol=0)
        assert got.tobytes() == reduce(view(rows.astype(float)), entries).tobytes()


@pytest.mark.parametrize("dtype", [bool, float])
def test_weight_gradient_of_no_steps_is_zero(dtype):
    # a T=1 recurrent layer reduces y[:-1] against dpre[1:], both empty
    y, dpre = np.ones((1, 4, 3), dtype=dtype), np.ones((1, 4, 3))
    got = _sum_outer(y[:-1], dpre[1:])
    assert got.shape == (3, 3) and not got.any()


@pytest.mark.parametrize("name", ["pattern", "pattern-bidirectional"])
def test_fit_over_several_cast_blocks_keeps_the_determinism_contract(name, tmp_path,
                                                                     monkeypatch):
    # with blocks of 64 entries every weight gradient of these stacks spans
    # several blocks; threads 1 and 2, and a bool set and its float copy,
    # must still train to the same bytes
    monkeypatch.setattr("srnn.network.CAST_BLOCK_ENTRIES", 64)
    ds, spec, loss = _spike_task(name, tmp_path)
    out = set()
    for data in (ds, replace(ds, inputs=ds.inputs.astype(float))):
        for threads in (1, 2):
            cfg = TrainingConfig(epochs=2, minibatch=8, chunk_size=3, loss=loss, seed=1)
            net, log = fit(spec, data, cfg, threads=threads)
            save_model(net, tmp_path / "model.json")
            out.add(((tmp_path / "model.json").read_bytes(), log.to_csv_text()))
    assert len(out) == 1


def test_backward_makes_no_float_copy_of_a_bool_chunk():
    # one chunk of 16 x 100 x 400 spikes is 5.12 MB as floats; over what
    # the trace already holds, backward may not hold that cast
    rng = np.random.default_rng(3)
    x = rng.random((16, 100, 400)) < 0.05
    spec = NetworkSpec(input_size=400, layers=[
        LayerSpec(size=8, neuron="alif", recurrent=True, b_0=0.05, beta=0.6),
        LayerSpec(size=4, neuron="readout")], decode="membrane_softmax", seed=0)
    net = init_network(spec)
    trace = forward_sequence(net, x)
    labels = rng.integers(4, size=16)
    tracemalloc.start()
    try:
        backward(net, trace, labels, MultiGaussian())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.size * 8, (peak, x.size * 8)


def test_fit_and_evaluate_make_no_float_copy_of_a_bool_set():
    # 64 x 200 x 100 spikes: 1.28 MB as bools, 10.24 MB as floats; neither
    # fit nor evaluate may hold a float copy of the whole set
    ds = gen_pattern_classification(4, 200, 100, 1.0, seed=2, n_samples=64)
    assert ds.inputs.dtype == bool
    whole_float = ds.inputs.size * 8
    spec = NetworkSpec(input_size=100, layers=[
        LayerSpec(size=8, neuron="alif", recurrent=True, b_0=0.05, beta=0.6),
        LayerSpec(size=4, neuron="readout")], decode="membrane_softmax", seed=0)
    net = init_network(spec)
    peaks = []
    tracemalloc.start()
    try:
        fit(net, ds, TrainingConfig(epochs=1, minibatch=32, chunk_size=16, seed=0))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        evaluate(net, ds, chunk_size=16)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < whole_float, (peaks, whole_float)


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
