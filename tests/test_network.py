"""Unit tests for network construction, the forward pass, and model files."""

import copy
import io
import json
import math
import re
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import srnn.jsondoc
import srnn.network
from srnn.accounting import SpikeCounts, firing_rate
from srnn.datasets import gen_pattern_classification
from srnn.network import (
    BLOCK_STEPS,
    LayerSpec,
    Network,
    NetworkSpec,
    cell,
    forward_sequence,
    forward_step,
    init_network,
    init_state,
    load_model,
    save_model,
)
from srnn.neurons import (
    AlifParams,
    AlifState,
    LifParams,
    LifState,
    alif_step,
    lif_step,
    readout_step,
    relu_step,
)
from srnn.surrogates import MultiGaussian
from srnn.training import AdamState, _score, adam_step, backward, evaluate, step_probs


def small_spec(**kw):
    args = dict(
        input_size=3,
        layers=[
            LayerSpec(size=5, neuron="alif", recurrent=True,
                      tau_m_init=(8.0, 2.0), tau_adp_init=(40.0, 5.0),
                      b_0=0.4, beta=0.9),
            LayerSpec(size=4, neuron="alif", recurrent=False,
                      tau_m_init=(8.0, 2.0), tau_adp_init=(40.0, 5.0),
                      b_0=0.4, beta=0.9),
        ],
        decode="spike_count",
        seed=0,
    )
    args.update(kw)
    return NetworkSpec(**args)


def test_init_is_deterministic_in_the_seed():
    a = init_network(small_spec(), seed=7)
    b = init_network(small_spec(), seed=7)
    c = init_network(small_spec(), seed=8)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.w_in, lb.w_in)
        np.testing.assert_array_equal(la.w_rec if la.w_rec is not None else 0,
                                      lb.w_rec if lb.w_rec is not None else 0)
        np.testing.assert_array_equal(la.tau_m, lb.tau_m)
        np.testing.assert_array_equal(la.u_init, lb.u_init)
    assert not np.array_equal(a.layers[0].w_in, c.layers[0].w_in)


def test_recurrent_weights_are_orthogonal():
    net = init_network(small_spec(), seed=1)
    w = net.layers[0].w_rec
    np.testing.assert_allclose(w @ w.T, np.eye(w.shape[0]), atol=1e-6)


def test_input_weights_xavier_bounded_and_bias_zero():
    net = init_network(small_spec(), seed=2)
    for layer, fan_in in zip(net.layers, (3, 5)):
        limit = math.sqrt(6.0 / (fan_in + layer.size))
        assert np.max(np.abs(layer.w_in)) <= limit
        np.testing.assert_array_equal(layer.bias, np.zeros(layer.size))


def test_time_constant_sample_mean():
    spec = NetworkSpec(
        input_size=1,
        layers=[LayerSpec(size=10000, neuron="lif", tau_m_init=(20.0, 5.0))],
        decode="spike_count", seed=0)
    net = init_network(spec, seed=3)
    assert 19.8 <= float(np.mean(net.layers[0].tau_m)) <= 20.2
    assert np.all(net.layers[0].tau_m >= 1.0)  # clamped to at least dt


def test_membrane_init_range():
    net = init_network(small_spec(), seed=4)
    for layer in net.layers:
        assert np.all(layer.u_init >= 0.0)
        assert np.all(layer.u_init <= layer.spec.b_0)
    net = init_network(small_spec(zero_init_membrane=True), seed=4)
    for layer in net.layers:
        np.testing.assert_array_equal(layer.u_init, np.zeros(layer.size))


@pytest.mark.parametrize("neuron, rest", [("alif", dict(b_0=-0.5)),
                                          ("lif", dict(u_r=-0.6, theta=-0.2))])
def test_membrane_init_below_a_negative_resting_threshold(neuron, rest):
    spec = small_spec(layers=[LayerSpec(size=6, neuron=neuron, recurrent=True, **rest)])
    u_init = init_network(spec, seed=4).layers[0].u_init
    resting_theta = rest.get("b_0", rest.get("theta"))
    assert np.all(u_init >= resting_theta) and np.all(u_init <= 0.0)
    assert np.unique(u_init).size == u_init.size


def test_zero_network_stays_silent():
    net = init_network(small_spec(zero_init_membrane=True), seed=5)
    for layer in net.layers:
        layer.w_in[:] = 0.0
        if layer.w_rec is not None:
            layer.w_rec[:] = 0.0
    states = init_state(net, batch=1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        states, outs = forward_step(net, rng.normal(size=3), states)
        for y in outs:
            np.testing.assert_array_equal(y, np.zeros_like(y))


def test_single_unit_pulse_reaches_threshold():
    # one fixed-threshold unit, unit input weight: a pulse of tau_m lands
    # the fresh membrane exactly on theta and fires immediately
    spec = NetworkSpec(
        input_size=1,
        layers=[LayerSpec(size=1, neuron="lif", tau_m_init=(20.0, 0.0))],
        decode="spike_count", seed=0, zero_init_membrane=True)
    net = init_network(spec, seed=0)
    net.layers[0].w_in[:] = 1.0
    trace = forward_sequence(net, np.array([[20.0], [0.0], [0.0]]))
    assert trace.layers[0].u[0, 0, 0] == 1.0
    assert trace.layers[0].y[0, 0, 0] == 1.0
    assert np.all(trace.layers[0].y[1:] == 0.0)


def test_self_excitation_at_critical_recurrent_weight():
    # recurrent weight theta*tau_m/r_m re-injects exactly one threshold's
    # worth of drive on the step after each spike
    tau, theta, r_m = 20.0, 1.0, 2.0
    spec = NetworkSpec(
        input_size=1,
        layers=[LayerSpec(size=1, neuron="lif", recurrent=True,
                          tau_m_init=(tau, 0.0), r_m=r_m)],
        decode="spike_count", seed=0, zero_init_membrane=True)
    net = init_network(spec, seed=0)
    net.layers[0].w_in[:] = 1.0
    net.layers[0].w_rec[:] = theta * tau / r_m
    x = np.zeros((12, 1))
    x[0, 0] = tau / r_m  # kick off the first spike
    trace = forward_sequence(net, x)
    np.testing.assert_array_equal(trace.layers[0].y[:, 0, 0], np.ones(12))


def test_empty_sequence_gives_empty_trace():
    net = init_network(small_spec(), seed=6)
    trace = forward_sequence(net, np.zeros((0, 3)))
    for lt in trace.layers:
        assert lt.y.shape[0] == 0


def test_constant_drive_converges_to_fixed_point():
    # sub-threshold leaky integration converges to r_m * I
    spec = NetworkSpec(
        input_size=1,
        layers=[LayerSpec(size=1, neuron="lif", tau_m_init=(10.0, 0.0),
                          r_m=1.5, theta=1e9)],
        decode="spike_count", seed=0, zero_init_membrane=True)
    net = init_network(spec, seed=0)
    net.layers[0].w_in[:] = 1.0
    drive = 0.37
    trace = forward_sequence(net, np.full((200, 1), drive))
    # geometric tail: |u_200 - u*| = u* * (1 - 1/tau)^200 < 1e-6
    assert abs(trace.layers[0].u[-1, 0, 0] - 1.5 * drive) < 1e-6


def test_forward_is_replay_deterministic():
    net = init_network(small_spec(), seed=7)
    x = np.random.default_rng(1).normal(size=(2, 15, 3))
    t1 = forward_sequence(net, x)
    t2 = forward_sequence(net, x)
    for a, b in zip(t1.layers, t2.layers):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.y, b.y)


def test_trace_matches_stepwise_replay():
    net = init_network(small_spec(), seed=8)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 3))
    trace = forward_sequence(net, x)
    states = init_state(net, batch=1)
    for t in range(10):
        states, outs = forward_step(net, x[t][None, :], states)
        for lt, y in zip(trace.layers, outs):
            np.testing.assert_array_equal(lt.y[t], y)


def _stack(decode, *layers):
    return NetworkSpec(input_size=3, layers=list(layers), decode=decode, seed=0)


STEP_STACKS = {
    "membrane_softmax": _stack(
        "membrane_softmax",
        LayerSpec(size=6, neuron="alif", recurrent=True, tau_m_init=(6.0, 1.0),
                  b_0=0.3, beta=0.5),
        LayerSpec(size=5, neuron="lif", tau_m_init=(6.0, 1.0), theta=0.3),
        LayerSpec(size=8, neuron="relu", recurrent=True),
        LayerSpec(size=3, neuron="readout")),
    "spike_count": _stack(
        "spike_count",
        LayerSpec(size=6, neuron="relu"),
        LayerSpec(size=5, neuron="lif", recurrent=True, tau_m_init=(6.0, 1.0),
                  theta=0.3),
        LayerSpec(size=4, neuron="alif", tau_m_init=(6.0, 1.0), b_0=0.3, beta=0.5)),
}


def _driven_net(stack, seed):
    net = init_network(STEP_STACKS[stack], seed=seed)
    for layer in net.layers:
        layer.w_in *= 3.0                   # so that every spiking layer fires
    return net


@pytest.mark.parametrize("stack", sorted(STEP_STACKS))
@pytest.mark.parametrize("batch", [1, 3])
def test_forward_step_equals_forward_sequence(batch, stack):
    # the online contract: streaming a batch step by step reproduces the
    # sequence trace's outputs bit for bit, membranes included where the
    # output is one (relu, readout); batch 1 streams (N,) steps
    net = _driven_net(stack, seed=31)
    x = np.random.default_rng(13).normal(size=(batch, 48, 3))
    trace = forward_sequence(net, x)
    states = init_state(net, batch=batch)
    for t in range(48):
        states, outs = forward_step(net, x[0, t] if batch == 1 else x[:, t], states)
        for lt, y in zip(trace.layers, outs):
            np.testing.assert_array_equal(lt.y[t].reshape(y.shape), y)
    for lt in trace.layers:
        if lt.spiking:
            assert 0.0 < lt.y.mean() < 1.0   # spikes and resets were exercised


def _stream(net, x, states):
    """Feed the rows of x to forward_step; returns (states, outputs per step)."""
    outs = []
    for x_t in x:
        states, o = forward_step(net, x_t, states)
        outs.append(o)
    return states, outs


def _assert_stream_matches(outs, trace, soft):
    for t, o in enumerate(outs):
        for lt, y in zip(trace.layers, o, strict=True):
            if soft:   # soft mode hoists every projection, so the last bits may move
                np.testing.assert_allclose(y, lt.y[t, 0], rtol=1e-12, atol=1e-12)
            else:
                np.testing.assert_array_equal(y, lt.y[t, 0])


@pytest.mark.parametrize("soft", [False, True])
def test_stream_keeps_the_parameters_it_started_with(soft):
    # a stream's weights and cells are fixed at init_state: an Adam step in
    # the middle of a stream reaches only the streams started after it
    net = _driven_net("membrane_softmax", seed=41)
    before = copy.deepcopy(net)
    x = np.random.default_rng(17).normal(size=(30, 3))
    states, head = _stream(net, x[:12], init_state(net, batch=1, soft=soft))
    grads = backward(net, forward_sequence(net, x), [1], MultiGaussian())
    adam_step(net, grads, AdamState.for_net(net), lr=0.05)
    for a, b in zip(before.layers, net.layers):
        for k, p in a.param_arrays().items():
            assert p is None or not np.array_equal(p, b.param_arrays()[k]), k
    _, tail = _stream(net, x[12:], states)
    old = forward_sequence(before, x, soft=soft)
    _assert_stream_matches(head + tail, old, soft)
    _, fresh = _stream(net, x, init_state(net, batch=1, soft=soft))
    new = forward_sequence(net, x, soft=soft)
    _assert_stream_matches(fresh, new, soft)
    assert not np.allclose(new.head.y, old.head.y, rtol=1e-6, atol=0)


def test_forward_step_needs_one_state_per_layer():
    net = _driven_net("spike_count", seed=3)
    states = init_state(net, batch=1)
    for wrong in (states[:-1], states + states[:1], []):
        with pytest.raises(ValueError, match="one state per layer"):
            forward_step(net, np.zeros(3), wrong)


def _paper_net():
    """700 -> 256r -> 256r alif -> 20 readout, the SHD-like shape."""
    alif = dict(neuron="alif", recurrent=True, tau_m_init=(20.0, 5.0),
                tau_adp_init=(200.0, 50.0), b_0=0.01, beta=1.8)
    return init_network(NetworkSpec(
        input_size=700,
        layers=[LayerSpec(size=256, **alif), LayerSpec(size=256, **alif),
                LayerSpec(size=20, neuron="readout")],
        decode="membrane_softmax", seed=5))


def test_forward_step_checks_the_input_width():
    # the event product reads columns by index, so a narrower input would
    # otherwise be read without complaint
    for net in (_paper_net(), _driven_net("spike_count", seed=3)):
        n = net.spec.input_size
        states = init_state(net, batch=1)
        for bad in (np.zeros(n - 1), np.zeros((1, n + 1))):
            with pytest.raises(ValueError,
                               match=f"expected {n} input channels, got {bad.shape[-1]}"):
                forward_step(net, bad, states)


@pytest.mark.parametrize("soft", [False, True])
def test_wide_spiking_layers_stream_from_active_rows(soft, monkeypatch):
    # the hidden layers' weights are wide enough for the event product, the
    # readout's output is its membrane and stays on the dense product
    net = _paper_net()
    taken, event_product = [], srnn.network._event_product
    monkeypatch.setattr(srnn.network, "_event_product",
                        lambda inp, w: taken.append(w) or event_product(inp, w))
    states = init_state(net, batch=1, soft=soft)
    forward_step(net, np.ones(700), states)
    wide = [w for st in states[:2] for w in (st.layer.w_in, st.layer.w_rec)]
    assert len(taken) == len(wide) and all(a is b for a, b in zip(taken, wide))
    x = gen_pattern_classification(4, 60, 700, 1.0, seed=3, n_samples=5).inputs
    x[1, 7] = 0.0                                    # a step without events
    dense = np.random.default_rng(5).standard_normal((1, 60, 700))
    # two sequences at batch 1, a batch of 3, and an input too dense for events
    for batch in (x[:1], x[1:2], x[2:], dense):
        trace = forward_sequence(net, batch, soft=soft)
        states = init_state(net, batch=len(batch), soft=soft)
        for t in range(batch.shape[1]):
            x_t = batch[0, t] if len(batch) == 1 else batch[:, t]
            states, outs = forward_step(net, x_t, states)
            for lt, y in zip(trace.layers, outs, strict=True):
                want = lt.y[t, 0] if len(batch) == 1 else lt.y[t]
                if soft:
                    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)
                else:
                    np.testing.assert_array_equal(y, want)
        if batch is not dense:   # the hidden layers fired, mostly below the guard
            for lt in trace.layers[:2]:
                assert 0.0 < np.mean(lt.y > 0) < 0.5


def _assert_traces_close(got, want, batch=slice(None)):
    """Spike trains equal, every other trace array within 1e-12."""
    for field in ("u", "y", "eta"):
        a, b = getattr(got, field), getattr(want, field)
        if b is None:
            assert a is None
        elif field == "y" and want.spiking:
            np.testing.assert_array_equal(a, b[:, batch])
        else:
            np.testing.assert_allclose(a, b[:, batch], rtol=0, atol=1e-12)


def _batch_layouts(x):
    """The same (B, T, N) batch in batch-major and in time-major memory."""
    return x, np.swapaxes(np.ascontiguousarray(np.swapaxes(x, 0, 1)), 0, 1)


def test_input_layouts_give_the_same_trace():
    # the network input is projected in its own layout: a (B, T, N) batch
    # in either memory order, a (T, N) sequence in either memory order and
    # a one-sample batch all agree with the matching slice of the batch
    net = _driven_net("membrane_softmax", seed=32)
    x, x_time_major = _batch_layouts(np.random.default_rng(14).normal(size=(4, 30, 3)))
    batched = forward_sequence(net, x)
    for lb, lt in zip(batched.layers, forward_sequence(net, x_time_major).layers):
        _assert_traces_close(lt, lb)
    for b in range(4):
        for xb in (x[b], np.asfortranarray(x[b]), x[b:b + 1]):
            for lb, ls in zip(batched.layers, forward_sequence(net, xb).layers):
                _assert_traces_close(ls, lb, batch=slice(b, b + 1))


@pytest.mark.parametrize("layout", ["sequence", "batch", "time_major_batch"])
def test_bidirectional_backward_stack_reads_reversed_time(layout):
    # the backward stack projects a time-reversed view of the input; it
    # must match a plain forward pass over a reversed copy
    spec = bidi_spec(layers=[
        LayerSpec(size=5, neuron="alif", recurrent=True, tau_m_init=(6.0, 1.0),
                  b_0=0.3, beta=0.5),
        LayerSpec(size=4, neuron="lif", tau_m_init=(6.0, 1.0), theta=0.3),
        LayerSpec(size=3, neuron="readout")])
    bn = init_network(spec, seed=33)
    x = np.random.default_rng(15).normal(size=(3, 25, 3))
    x = x[0] if layout == "sequence" else _batch_layouts(x)[layout != "batch"]
    trace = forward_sequence(bn, x)
    hidden = NetworkSpec(input_size=3, layers=spec.layers[:-1], decode="spike_count")
    back = Network(spec=hidden, layers=bn.back)
    x_rev = np.ascontiguousarray(x[::-1] if layout == "sequence" else x[:, ::-1])
    for got, want in zip(trace.back, forward_sequence(back, x_rev).layers):
        _assert_traces_close(got, want)
    assert 0.0 < trace.back[0].y.mean() < 1.0


def test_causality_under_input_perturbation():
    net = init_network(small_spec(), seed=9)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 3))
    base = forward_sequence(net, x)
    x2 = x.copy()
    x2[7] += 5.0
    bumped = forward_sequence(net, x2)
    for a, b in zip(base.layers, bumped.layers):
        np.testing.assert_array_equal(a.y[:7], b.y[:7])
        np.testing.assert_array_equal(a.u[:7], b.u[:7])


def test_unreachable_threshold_silences_spikes():
    spec = small_spec()
    for ls in spec.layers:
        ls.b_0 = 1e9
    net = init_network(spec, seed=10)
    x = np.random.default_rng(4).normal(size=(30, 3))
    trace = forward_sequence(net, x)
    for lt in trace.layers:
        assert np.sum(lt.y) == 0.0


def test_readout_follows_pure_leaky_filter():
    spec = NetworkSpec(
        input_size=2,
        layers=[LayerSpec(size=3, neuron="readout", tau_m_init=(10.0, 0.0))],
        decode="membrane_softmax", seed=0)
    net = init_network(spec, seed=11)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(25, 2))
    trace = forward_sequence(net, x)
    u = np.zeros(3)
    for t in range(25):
        pre = x[t] @ net.layers[0].w_in + net.layers[0].bias
        u = u * (1.0 - 1.0 / 10.0) + pre / 10.0
        np.testing.assert_allclose(trace.layers[0].u[t, 0], u, atol=1e-12)


def _neuron_step(layer, state, drive):
    """One step of the layer's kind through srnn.neurons: (state', y, u)."""
    s = layer.spec
    if s.neuron == "alif":
        p = AlifParams(tau_m=layer.tau_m, tau_adp=layer.tau_adp, b_0=s.b_0,
                       beta=s.beta, r_m=s.r_m, dt=s.dt)
        state, y = alif_step(state, drive, p)
        return state, y, state.u
    p = LifParams(tau_m=layer.tau_m, r_m=s.r_m, u_r=s.u_r, theta=s.theta, dt=s.dt)
    if s.neuron == "lif":
        state, y = lif_step(state, drive, p)
    elif s.neuron == "relu":
        state, y = relu_step(state, drive, p)
    else:
        state = readout_step(state, drive, p)
        y = state.u
    return state, y, state.u


@pytest.mark.parametrize("recurrent", [False, True])
@pytest.mark.parametrize("kind", ["lif", "alif", "relu", "readout"])
def test_forward_matches_neuron_step_oracle(kind, recurrent):
    # the network's shared recursion against a time loop over the
    # closed-form single-step functions, with the drive formed here
    batch, t_steps, n = 3, 40, 5
    spec = NetworkSpec(
        input_size=4,
        layers=[LayerSpec(size=n, neuron=kind, recurrent=recurrent,
                          tau_m_init=(4.0, 1.0), theta=0.3, u_r=-0.1,
                          b_0=0.2, beta=0.5, r_m=1.3),
                LayerSpec(size=2, neuron="readout")],
        decode="membrane_softmax", seed=0)
    net = init_network(spec, seed=21)
    layer = net.layers[0]
    x = 1.5 * np.random.default_rng(12).normal(size=(batch, t_steps, 4))
    trace = forward_sequence(net, x).layers[0]

    u0 = np.broadcast_to(layer.u_init, (batch, n))
    y = np.zeros((batch, n))
    state = (AlifState(u=u0, eta=np.zeros((batch, n)), s_prev=y) if kind == "alif"
             else LifState(u=u0, s_prev=y))
    for t in range(t_steps):
        drive = x[:, t] @ layer.w_in + layer.bias
        if recurrent:
            drive = drive + y @ layer.w_rec
        state, y, u = _neuron_step(layer, state, drive)
        np.testing.assert_allclose(trace.u[t], u, rtol=0, atol=1e-12)
        if kind in ("lif", "alif"):
            np.testing.assert_array_equal(trace.y[t], y)
        else:
            np.testing.assert_allclose(trace.y[t], y, rtol=0, atol=1e-12)
    if kind in ("lif", "alif"):
        assert 0.0 < trace.y.mean() < 1.0   # spikes and resets were exercised


@pytest.mark.parametrize("kind", ["lif", "alif", "relu", "readout"])
def test_cell_time_constant_derivatives(kind):
    # decay_tau and rho_tau against central differences of decay and rho
    spec = NetworkSpec(input_size=2, layers=[LayerSpec(size=6, neuron=kind),
                                             LayerSpec(size=2, neuron="readout")],
                       decode="membrane_softmax")
    layer = init_network(spec, seed=5).layers[0]
    c = cell(layer)
    for tau, coeff, deriv in (("tau_m", "decay", c.decay_tau),
                              ("tau_adp", "rho", c.rho_tau)):
        if getattr(layer, tau) is None:
            assert deriv is None and getattr(c, coeff) is None
            continue
        base = getattr(layer, tau).copy()
        h = 1e-4 * base
        quotients = []
        for sign in (1.0, -1.0):
            setattr(layer, tau, base + sign * h)
            quotients.append(getattr(cell(layer), coeff))
        setattr(layer, tau, base)
        np.testing.assert_allclose(deriv, (quotients[0] - quotients[1]) / (2 * h),
                                   rtol=1e-7)


def bidi_spec(**kw):
    args = dict(
        input_size=3,
        layers=[
            LayerSpec(size=5, neuron="alif", recurrent=True,
                      tau_m_init=(8.0, 2.0), b_0=0.4, beta=0.9),
            LayerSpec(size=4, neuron="readout", tau_m_init=(10.0, 0.0)),
        ],
        decode="membrane_softmax",
        bidirectional=True,
        seed=0,
    )
    args.update(kw)
    return NetworkSpec(**args)


def test_the_head_reads_merged_without_a_copy():
    x = np.random.default_rng(6).normal(size=(2, 7, 3))
    trace = forward_sequence(init_network(small_spec(), seed=4), x)
    assert trace.merged is trace.layers[-2].y
    head_only = init_network(NetworkSpec(
        input_size=3, layers=[LayerSpec(size=2, neuron="readout")],
        decode="membrane_softmax"))
    trace = forward_sequence(head_only, x)
    assert trace.merged is trace.inputs


@pytest.mark.parametrize("soft", [False, True])
def test_a_trace_keeps_no_drive(soft):
    # the drive is formed in u and not kept. Per step and unit a hard lif
    # or alif trace holds u (8 bytes) and its spikes as bools (1 byte), an
    # alif trace adds one eta mark per BLOCK_STEPS steps; a relu trace
    # holds u and y, a readout trace u with y = u, and soft mode a float y
    net = init_network(NetworkSpec(
        input_size=3, decode="membrane_softmax",
        layers=[LayerSpec(size=5, neuron="alif", recurrent=True),
                LayerSpec(size=4, neuron="lif", recurrent=True),
                LayerSpec(size=6, neuron="relu"),
                LayerSpec(size=2, neuron="readout", recurrent=True)]), seed=1)
    t_steps, batch = 37, 2
    trace = forward_sequence(net, np.random.default_rng(2).normal(size=(batch, t_steps, 3)),
                             soft=soft)
    spike = np.dtype(float if soft else bool)
    layouts = {"alif": (("eta_marks", "u", "y"), spike), "lif": (("u", "y"), spike),
               "relu": (("u", "y"), np.dtype(float)), "readout": (("u", "y"), np.dtype(float))}
    for lt in trace.layers:
        held, y_dtype = layouts[lt.cell.kind]
        arrays = {k: a for k, a in vars(lt).items() if isinstance(a, np.ndarray) and a.ndim == 3}
        assert sorted(arrays) == list(held)
        assert lt.u.dtype == float and lt.y.dtype == y_dtype
        assert (lt.y is lt.u) == (lt.cell.kind == "readout")
        unit_steps = t_steps * batch * lt.u.shape[2]
        kept = {id(a): a for a in arrays.values()}.values()
        marks = math.ceil(t_steps / BLOCK_STEPS) * batch * lt.u.shape[2] * 8
        assert sum(a.nbytes for a in kept) == (
            unit_steps * (8 + (0 if lt.y is lt.u else y_dtype.itemsize))
            + (marks if lt.cell.kind == "alif" else 0))


ALIF_STACK = NetworkSpec(
    input_size=3, decode="spike_count",
    layers=[LayerSpec(size=6, neuron="alif", recurrent=True, tau_m_init=(6.0, 1.0),
                      tau_adp_init=(8.0, 2.0), b_0=0.3, beta=0.5),
            LayerSpec(size=3, neuron="alif", tau_m_init=(6.0, 1.0),
                      tau_adp_init=(8.0, 2.0), b_0=0.3, beta=0.5)])


@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("t_steps", [1, 15, 16, 17, 37])
def test_trace_eta_replays_the_forward_eta(t_steps, soft):
    # a trace keeps eta only at block starts and replays the rest from its
    # spikes; the replay must give, bit for bit, the eta that the forward
    # pass and an online stream compute step by step
    net = init_network(ALIF_STACK, seed=5)
    for layer in net.layers:
        layer.w_in *= 3.0
    x = np.random.default_rng(t_steps).normal(size=(2, t_steps, 3))
    trace = forward_sequence(net, x, soft=soft)
    replayed = [lt.eta for lt in trace.layers]
    states = init_state(net, batch=2, soft=soft)
    for t in range(t_steps):
        states, _ = forward_step(net, x[:, t], states)
        for eta, st in zip(replayed, states, strict=True):
            if soft:  # soft mode hoists every projection, so the last bits may move
                np.testing.assert_allclose(eta[t], st.eta, rtol=1e-12, atol=1e-12)
            else:
                np.testing.assert_array_equal(eta[t], st.eta)
    for layer, lt in zip(net.layers, trace.layers, strict=True):
        # an independent run of eta_t = rho * eta_{t-1} + (1 - rho) * y_{t-1}
        # over the trace's own outputs, and the marks at every block start
        rho = np.exp(-layer.spec.dt / layer.tau_adp)
        eta, y_prev, want = np.zeros((2, lt.u.shape[2])), lt.y_init, []
        for y in lt.y:
            eta = rho * eta + (1.0 - rho) * y_prev
            want.append(eta)
            y_prev = y
        np.testing.assert_array_equal(lt.eta, np.reshape(want, lt.u.shape))
        starts = np.arange(0, t_steps, BLOCK_STEPS)
        assert lt.eta_marks.shape == (len(starts), 2, lt.u.shape[2])
        np.testing.assert_array_equal(lt.eta_marks[0], 0.0)
        np.testing.assert_array_equal(lt.eta_marks[1:], lt.eta[starts[1:] - 1])
        if t_steps > 1 and not soft:
            assert 0 < lt.y.sum() < lt.y.size     # spikes and silences were exercised


def _float_spikes(trace):
    """The trace with every bool y, and a bool merged, replaced by a float copy."""
    def floated(lts):
        return [replace(lt, y=lt.y.astype(float)) if lt.y.dtype == bool else lt for lt in lts]
    layers = floated(trace.layers)
    merged = layers[-2].y if trace.merged is trace.layers[-2].y else trace.merged
    return replace(trace, layers=layers, back=floated(trace.back), merged=merged)


def test_bool_spikes_read_as_numbers():
    # numpy's bool arithmetic is a logical one (True + True is True): every
    # consumer of a bool spike trace must give the numbers of a float one
    bn = init_network(bidi_spec(zero_init_membrane=True), seed=23)
    for layer in bn.all_layers:
        layer.w_in *= 3.0
    trace = forward_sequence(bn, np.random.default_rng(9).normal(size=(3, 20, 3)))
    fwd, back = trace.layers[-2].y, trace.back[-1].y[::-1]
    assert fwd.dtype == back.dtype == bool and (fwd & back).any()
    assert trace.merged.dtype == float
    np.testing.assert_array_equal(trace.merged, 0.5 * (fwd.astype(float) + back))
    net = init_network(ALIF_STACK, seed=6)
    for layer in net.layers:
        layer.w_in *= 3.0
    trace = forward_sequence(net, np.random.default_rng(10).normal(size=(4, 30, 3)))
    as_float = _float_spikes(trace)
    assert trace.head.y.dtype == bool and as_float.head.y.dtype == float
    for a, b in zip(SpikeCounts.of(trace).per_neuron, SpikeCounts.of(as_float).per_neuron,
                    strict=True):
        assert a.dtype.kind == "i"
        np.testing.assert_array_equal(a, b)
    fr, fr_float = firing_rate(trace), firing_rate(as_float)
    assert 0 < fr.mean < 1 and fr.mean == fr_float.mean
    for a, b in zip(fr.per_layer, fr_float.per_layer, strict=True):
        np.testing.assert_array_equal(a, b)
    probs = step_probs(trace, "spike_count")
    np.testing.assert_array_equal(probs, step_probs(as_float, "spike_count"))
    labels = np.array([0, 1, 2, 1])
    got, want = _score("spike_count", trace.head, labels), _score("spike_count", as_float.head,
                                                               labels)
    assert got[:3] == want[:3]
    np.testing.assert_array_equal(got[3], want[3])
    # and the reverse sweep, whose weight gradients are products with spikes
    for a, b in zip(backward(net, trace, labels, MultiGaussian()).layers,
                    backward(net, as_float, labels, MultiGaussian()).layers, strict=True):
        for k, g in a.items():
            np.testing.assert_array_equal(g, b[k], err_msg=k)


@pytest.mark.parametrize("layout", ["input", "reversed-input", "hidden"])
def test_bool_projection_casts_in_blocks_of_samples(layout, monkeypatch):
    # a network input is the swapped axes of a (B, T, N) array, a hidden
    # layer's spikes are time-major; every block size gives the floats of
    # one whole cast, which for an input are those of its float copy
    rng = np.random.default_rng(4)
    t_steps, batch, width = 9, 5, 4
    if layout == "hidden":
        x = rng.random((t_steps, batch, width)) < 0.4
    else:
        x = np.swapaxes(rng.random((batch, t_steps, width)) < 0.4, 0, 1)
    if layout == "reversed-input":
        x = x[::-1]
    w = rng.standard_normal((width, 3))

    def project(inp, entries):
        monkeypatch.setattr(srnn.network, "CAST_BLOCK_ENTRIES", entries)
        out = np.empty((t_steps, batch, 3))
        srnn.network._project(inp, w, out)
        return out.tobytes()

    whole = np.empty((t_steps, batch, 3))
    np.matmul(x.transpose(1, 0, 2), w, out=whole.transpose(1, 0, 2))
    if layout != "hidden":
        assert project(x.astype(float), 1) == whole.tobytes()
    for entries in (1, 2 * t_steps * width, 10**6):
        assert project(x, entries) == whole.tobytes()


def test_bidirectional_palindrome_symmetry():
    bn = init_network(bidi_spec(zero_init_membrane=True), seed=13)
    rng = np.random.default_rng(7)
    half = rng.normal(size=(6, 3))
    x = np.concatenate([half, half[::-1]], axis=0)  # palindrome in time
    # run the forward stack against itself so both directions share weights;
    # both directions then see the identical input stream and their traces
    # agree step for step (in each direction's own time)
    shared = Network(bn.spec, bn.layers, back=bn.layers[:-1])
    trace = forward_sequence(shared, x)
    for f, b in zip(trace.layers[:-1], trace.back):
        np.testing.assert_array_equal(f.y, b.y)
        np.testing.assert_array_equal(f.u, b.u)


def test_bidirectional_zero_backward_halves_the_merge():
    bn = init_network(bidi_spec(zero_init_membrane=True), seed=14)
    for layer in bn.back:
        layer.w_in[:] = 0.0
        if layer.w_rec is not None:
            layer.w_rec[:] = 0.0
    x = np.random.default_rng(8).normal(size=(10, 3))
    trace = forward_sequence(bn, x)
    np.testing.assert_array_equal(trace.merged, 0.5 * trace.layers[-2].y)


def test_bidirectional_matches_naive_two_pass_reference():
    bn = init_network(bidi_spec(), seed=15)
    spec = bn.spec
    x = np.random.default_rng(9).normal(size=(14, 3))
    trace = forward_sequence(bn, x)

    hidden_spec = NetworkSpec(input_size=3, layers=[spec.layers[0]],
                              decode="spike_count", seed=0)
    f_net = Network(spec=hidden_spec, layers=bn.layers[:-1])
    b_net = Network(spec=hidden_spec, layers=bn.back)
    yf = forward_sequence(f_net, x).layers[-1].y
    yb = forward_sequence(b_net, x[::-1]).layers[-1].y
    merged = 0.5 * (yf + yb[::-1])
    np.testing.assert_array_equal(trace.merged, merged)

    head = bn.layers[-1]
    u = np.broadcast_to(head.u_init, (1, head.size)).copy()
    for t in range(14):
        pre = merged[t] @ head.w_in + head.bias
        u = u * (1.0 - 1.0 / head.tau_m) + pre / head.tau_m
        np.testing.assert_allclose(trace.head.u[t], u, atol=1e-12)


def test_model_file_round_trip(tmp_path):
    net = init_network(small_spec(), seed=16)
    path = tmp_path / "model.json"
    save_model(net, path)
    back = load_model(path)
    assert back.spec == net.spec
    for la, lb in zip(net.layers, back.layers):
        np.testing.assert_array_equal(la.w_in, lb.w_in)
        np.testing.assert_array_equal(la.w_rec, lb.w_rec)
        np.testing.assert_array_equal(la.bias, lb.bias)
        np.testing.assert_array_equal(la.tau_m, lb.tau_m)
        np.testing.assert_array_equal(la.tau_adp, lb.tau_adp)
        np.testing.assert_array_equal(la.u_init, lb.u_init)
    x = np.random.default_rng(10).normal(size=(9, 3))
    np.testing.assert_array_equal(forward_sequence(net, x).layers[-1].y,
                                  forward_sequence(back, x).layers[-1].y)


def test_bidirectional_model_round_trip(tmp_path):
    bn = init_network(bidi_spec(), seed=17)
    path = tmp_path / "bidi.json"
    save_model(bn, path)
    back = load_model(path)
    assert len(back.back) == len(bn.back)
    x = np.random.default_rng(11).normal(size=(8, 3))
    a = forward_sequence(bn, x)
    b = forward_sequence(back, x)
    np.testing.assert_array_equal(a.head.y, b.head.y)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["plain", "bidirectional"])
def test_model_files_keep_their_format(name, tmp_path):
    # files written by an earlier release: loading and saving again must
    # reproduce them byte for byte, with the same stack keys and outputs
    path = DATA / f"{name}_model.json"
    net = load_model(path)
    save_model(net, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    stacks = {"forward_layers", "backward_layers"} if name == "bidirectional" \
        else {"layers"}
    assert set(json.loads(path.read_text())) == {"format", "spec"} | stacks
    ref = json.loads((DATA / "forward_outputs.json").read_text())
    u = forward_sequence(net, np.array(ref["inputs"])).head.u
    np.testing.assert_allclose(u, ref[name], rtol=1e-12, atol=1e-12)
    # each file holds the draw of init_network from its spec's seed
    fresh = init_network(net.spec)
    for a, b in zip(fresh.all_layers, net.all_layers, strict=True):
        for k, arr in a.param_arrays().items():
            np.testing.assert_array_equal(arr, b.param_arrays()[k])
        np.testing.assert_array_equal(a.u_init, b.u_init)


def _list_form(net):
    """A network's model document with every array as nested lists."""
    def layer(l):
        return {"spec": asdict(l.spec), **{k: None if a is None else a.tolist()
                                           for k, a in vars(l).items() if k != "spec"}}
    front, back = ("forward_layers", "backward_layers") if net.spec.bidirectional \
        else ("layers", None)
    doc = {"format": "srnn-model/1", "spec": asdict(net.spec),
           front: [layer(l) for l in net.layers]}
    if back:
        doc[back] = [layer(l) for l in net.back]
    return doc


def test_model_writer_emits_the_bytes_of_json_dump(tmp_path):
    # save_model streams its own text; json.dump(indent=1, sort_keys=True)
    # of the list form is the reference it must match byte for byte
    spiking = dict(recurrent=True, tau_m_init=(8.0, 2.0), b_0=0.4, beta=0.9)
    specs = {
        "alif": small_spec(),
        "lif": small_spec(layers=[LayerSpec(size=4, neuron="lif", **spiking),
                                  LayerSpec(size=2, neuron="lif")]),
        "relu": small_spec(layers=[LayerSpec(size=4, neuron="relu", recurrent=True),
                                   LayerSpec(size=3, neuron="readout")],
                           decode="membrane_softmax"),
        "head-only": small_spec(layers=[LayerSpec(size=2, neuron="readout")],
                                decode="membrane_softmax"),
        "bidirectional": bidi_spec(),
    }
    nets = {name: init_network(spec, seed=23) for name, spec in specs.items()}
    odd = copy.deepcopy(nets["alif"])
    odd.layers[0].w_in.flat[:8] = [-0.0, 5e-324, 1e-5, 1e16, 1e300, math.nan,
                                   math.inf, -2.5e-308]
    odd.layers[1].bias[:2] = [-0.0, math.nan]
    nets["odd entries"] = odd
    for name, net in nets.items():
        save_model(net, tmp_path / "model.json")
        with open(tmp_path / "reference.json", "w") as f:
            json.dump(_list_form(net), f, indent=1, sort_keys=True)
            f.write("\n")
        assert (tmp_path / "model.json").read_bytes() == \
            (tmp_path / "reference.json").read_bytes(), name
    # empty containers, arrays with no entries, strings that need escapes
    doc = {"b": {}, "a": [], "c": [np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3))],
           "é\"q": ("x\n", 1, True, None, -0.0, [[]], {"z": np.arange(3.0)})}
    listed = json.loads(json.dumps(doc, default=lambda a: a.tolist()))
    out = io.StringIO()
    srnn.jsondoc._write_json(out, doc)
    assert out.getvalue() == json.dumps(listed, indent=1, sort_keys=True)


def test_online_api_rejects_bidirectional_networks():
    bn = init_network(bidi_spec(), seed=21)
    why = "a bidirectional network needs the whole sequence"
    with pytest.raises(ValueError, match=why):
        init_state(bn, 1)
    states = init_state(Network(bn.spec, bn.layers), 1)
    with pytest.raises(ValueError, match=why):
        forward_step(bn, np.zeros(3), states)


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other/9", "layers": []}))
    with pytest.raises(ValueError):
        load_model(path)


def test_load_names_the_missing_key(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"format": "srnn-model/1"}))
    with pytest.raises(ValueError, match="'spec'"):
        load_model(path)
    save_model(init_network(small_spec(), seed=19), path)
    doc = json.loads(path.read_text())
    del doc["layers"][1]["w_in"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="'w_in'"):
        load_model(path)


def test_load_rejects_arrays_that_contradict_the_spec(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_network(small_spec(), seed=20), path)
    plain = json.loads(path.read_text())
    save_model(init_network(bidi_spec(), seed=20), path)
    bidi = json.loads(path.read_text())

    def edit(doc, key, i, field, value):
        doc = json.loads(json.dumps(doc))
        doc[key][i][field] = value
        return doc

    cases = [
        (edit(plain, "layers", 0, "tau_m", [-5.0] * 5), "layers[0].tau_m: below dt"),
        (edit(plain, "layers", 0, "tau_m", [8.0] * 4 + [2e4]),
         "layers[0].tau_m: above 10000 * dt"),
        (edit(plain, "layers", 1, "tau_adp", [math.nan] * 4),
         "layers[1].tau_adp: not finite"),
        (edit(plain, "layers", 0, "w_in", [[1.0]]),
         "layers[0].w_in: expected shape (3, 5), got shape (1, 1)"),
        (edit(plain, "layers", 1, "w_in", [[0.0] * 4] * 3),
         "layers[1].w_in: expected shape (5, 4), got shape (3, 4)"),
        (edit(plain, "layers", 1, "w_rec", [[0.0] * 4] * 4),
         "layers[1].w_rec: expected null, got shape (4, 4)"),
        (edit(plain, "layers", 0, "tau_adp", None), "layers[0].tau_adp: expected shape"),
        (edit(plain, "layers", 0, "u_init", [0.0]), "layers[0].u_init: expected"),
        (edit(bidi, "forward_layers", 1, "w_in", [[0.0] * 4] * 3),
         "forward_layers[1].w_in: expected shape (5, 4)"),
        (edit(bidi, "backward_layers", 0, "bias", [0.0] * 2), "backward_layers[0].bias"),
        (edit(plain, "layers", 0, "bias", ["x"] + [0.0] * 4),
         "layers[0].bias: expected numbers, got 'x'"),
        (edit(plain, "layers", 1, "tau_m", [8.0, True, 8.0, 8.0]),
         "layers[1].tau_m: expected numbers, got True"),
        (edit(plain, "layers", 0, "u_init", [0.0, None, 0.0, 0.0, 0.0]),
         "layers[0].u_init: expected numbers, got None"),
        (edit(plain, "layers", 0, "bias", [10**400] + [0.0] * 4),
         "layers[0].bias: an integer beyond float range"),
        (edit(plain, "layers", 0, "w_in", [[0.0] * 5, [0.0] * 4, [0.0] * 5]),
         "layers[0].w_in: ragged rows"),
        (edit(plain, "layers", 0, "w_rec", [[0.0] * 5] * 4 + [0.0]),
         "layers[0].w_rec: ragged rows"),
        (edit(plain, "layers", 1, "w_in", [[[0.0] * 4]] * 5),
         "layers[1].w_in: nested 3 lists deep"),
        (edit(plain, "layers", 1, "w_in", [[0.0, "1.5", 0.0, 0.0]] * 5),
         "layers[1].w_in: expected numbers, got '1.5'"),
        (edit(plain, "layers", 1, "tau_adp", "x"),
         "layers[1].tau_adp: expected numbers, got 'x'"),
    ]
    short = json.loads(json.dumps(plain))
    del short["layers"][1]
    cases.append((short, "layers holds 1 layers, the spec 2"))
    for doc, why in cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(why)):
            load_model(path)
    # an integer within float range is a number, as in srnn.jsondoc
    path.write_text(json.dumps(edit(plain, "layers", 0, "bias", [0, 1, -2, 0, 3])))
    np.testing.assert_array_equal(load_model(path).layers[0].bias, [0, 1, -2, 0, 3])


def test_forward_input_validation():
    net = init_network(small_spec(), seed=18)
    with pytest.raises(ValueError):
        forward_sequence(net, np.zeros((5, 4)))  # wrong channel count
    bad = np.zeros((5, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        forward_sequence(net, bad)
    with pytest.raises(ValueError):
        forward_sequence(net, np.zeros((2, 2, 2, 2)))


def test_bidirectional_input_validation():
    bn = init_network(bidi_spec(), seed=19)
    x = np.zeros((2, 5, 4))                   # built for 3 channels
    why = "expected 3 input channels, got 4"
    with pytest.raises(ValueError, match=why):
        forward_sequence(bn, x)
    with pytest.raises(ValueError, match=why):
        evaluate(bn, SimpleNamespace(inputs=x, labels=np.zeros((2, 5), dtype=int)))
    bad = np.zeros((5, 3))
    bad[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        forward_sequence(bn, bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(size=0)
    with pytest.raises(ValueError):
        LayerSpec(size=3, neuron="izhikevich")
    with pytest.raises(ValueError):
        # the former alias of the adaptive unit is no longer a kind
        LayerSpec(size=3, neuron="spiking_output")
    with pytest.raises(ValueError):
        LayerSpec(size=3, tau_m_init=(0.0, 1.0))
    with pytest.raises(ValueError):
        LayerSpec(size=3, neuron="lif", theta=0.0, u_r=0.5)
    with pytest.raises(ValueError, match="beta must be non-negative"):
        # neurons.AlifParams refuses the same unit
        LayerSpec(size=3, beta=-0.1)
    with pytest.raises(ValueError):
        NetworkSpec(input_size=0, layers=[LayerSpec(size=2)])
    with pytest.raises(ValueError):
        NetworkSpec(input_size=2, layers=[])
    with pytest.raises(ValueError):
        NetworkSpec(input_size=2, layers=[LayerSpec(size=2)], decode="argmax")
    with pytest.raises(ValueError):
        # spike-count decoding needs a spiking output layer
        NetworkSpec(input_size=2, layers=[LayerSpec(size=2, neuron="readout")],
                    decode="spike_count")
    with pytest.raises(ValueError):
        NetworkSpec(input_size=2, layers=[LayerSpec(size=2, neuron="alif")],
                    decode="membrane_softmax")
    with pytest.raises(ValueError):
        # bidirectional networks end in a readout integrator
        NetworkSpec(input_size=2, layers=[LayerSpec(size=2, neuron="alif")],
                    bidirectional=True)
    with pytest.raises(ValueError):
        NetworkSpec(input_size=2,
                    layers=[LayerSpec(size=2, neuron="readout")],
                    decode="membrane_softmax", bidirectional=True)


def test_default_adaptation_constants_fill_in():
    ls = LayerSpec(size=2, neuron="alif")
    assert ls.tau_adp_init == (150.0, 10.0)
    ls = LayerSpec(size=2, neuron="lif")
    assert ls.tau_adp_init is None
