"""Unit tests for network construction, the forward pass, and model files."""

import json
import math

import numpy as np
import pytest

from srnn.network import (
    BidirectionalNetwork,
    LayerSpec,
    Network,
    NetworkSpec,
    forward_bidirectional,
    forward_sequence,
    forward_step,
    init_network,
    init_state,
    load_model,
    save_model,
)


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


def test_spiking_output_alias_matches_adaptive_unit():
    a = small_spec()
    b = small_spec()
    b.layers[-1].neuron = "spiking_output"
    net_a = init_network(a, seed=12)
    net_b = init_network(b, seed=12)
    x = np.random.default_rng(6).normal(size=(15, 3))
    ta = forward_sequence(net_a, x)
    tb = forward_sequence(net_b, x)
    np.testing.assert_array_equal(ta.layers[-1].y, tb.layers[-1].y)


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


def test_bidirectional_palindrome_symmetry():
    bn = init_network(bidi_spec(zero_init_membrane=True), seed=13)
    rng = np.random.default_rng(7)
    half = rng.normal(size=(6, 3))
    x = np.concatenate([half, half[::-1]], axis=0)  # palindrome in time
    # run the forward stack against itself so both directions share weights;
    # both directions then see the identical input stream and their traces
    # agree step for step (in each direction's own time)
    trace = forward_bidirectional(bn.forward_net, bn.forward_net, x)
    for f, b in zip(trace.fwd_layers, trace.bwd_layers):
        np.testing.assert_array_equal(f.y, b.y)
        np.testing.assert_array_equal(f.u, b.u)


def test_bidirectional_zero_backward_halves_the_merge():
    bn = init_network(bidi_spec(zero_init_membrane=True), seed=14)
    for layer in bn.backward_net.layers:
        layer.w_in[:] = 0.0
        if layer.w_rec is not None:
            layer.w_rec[:] = 0.0
    x = np.random.default_rng(8).normal(size=(10, 3))
    trace = forward_bidirectional(bn.forward_net, bn.backward_net, x)
    np.testing.assert_array_equal(trace.merged, 0.5 * trace.fwd_layers[-1].y)


def test_bidirectional_matches_naive_two_pass_reference():
    bn = init_network(bidi_spec(), seed=15)
    spec = bn.spec
    x = np.random.default_rng(9).normal(size=(14, 3))
    trace = forward_bidirectional(bn.forward_net, bn.backward_net, x)

    hidden_spec = NetworkSpec(input_size=3, layers=[spec.layers[0]],
                              decode="spike_count", seed=0)
    f_net = Network(spec=hidden_spec, layers=bn.forward_net.layers[:-1])
    b_net = Network(spec=hidden_spec, layers=bn.backward_net.layers)
    yf = forward_sequence(f_net, x).layers[-1].y
    yb = forward_sequence(b_net, x[::-1]).layers[-1].y
    merged = 0.5 * (yf + yb[::-1])
    np.testing.assert_array_equal(trace.merged, merged)

    head = bn.forward_net.layers[-1]
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
    assert isinstance(back, BidirectionalNetwork)
    x = np.random.default_rng(11).normal(size=(8, 3))
    a = forward_bidirectional(bn.forward_net, bn.backward_net, x)
    b = forward_bidirectional(back.forward_net, back.backward_net, x)
    np.testing.assert_array_equal(a.head.y, b.head.y)


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


def test_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(size=0)
    with pytest.raises(ValueError):
        LayerSpec(size=3, neuron="izhikevich")
    with pytest.raises(ValueError):
        LayerSpec(size=3, tau_m_init=(0.0, 1.0))
    with pytest.raises(ValueError):
        LayerSpec(size=3, neuron="lif", theta=0.0, u_r=0.5)
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
