"""Unit tests for the spike encoders, decoders, and anytime curves."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from srnn.codecs import (
    SpikeRaster,
    anytime_csv_text,
    anytime_curve,
    decode_membrane,
    decode_spike_count,
    encode_dataset,
    level_crossing_encode,
    sliding_window,
)
from srnn.datasets import Dataset
from srnn.network import LayerSpec, NetworkSpec, init_network


def test_level_crossing_worked_example():
    raster = level_crossing_encode([0.0, 0.35, 0.20, -0.20], up=0.3, down=0.3)
    np.testing.assert_array_equal(raster.data[:, 0], [0, 1, 0, 0])  # up channel
    np.testing.assert_array_equal(raster.data[:, 1], [0, 0, 0, 1])  # down channel


def test_level_crossing_constant_series_is_silent():
    raster = level_crossing_encode(np.full(50, 3.7))
    np.testing.assert_array_equal(raster.data, np.zeros((50, 2)))


def test_level_crossing_channels_are_exclusive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(0.0, 1.0, size=80)
        raster = level_crossing_encode(x, up=0.2, down=0.4)
        both = raster.data[:, 0] * raster.data[:, 1]
        assert np.sum(both) == 0.0


def test_level_crossing_translation_invariance():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = rng.normal(0.0, 1.0, size=30)
        c = float(rng.normal(0.0, 100.0))
        a = level_crossing_encode(x)
        b = level_crossing_encode(x + c)
        np.testing.assert_array_equal(a.data, b.data)


def test_level_crossing_multichannel_interleave():
    x = np.zeros((3, 2))
    x[1, 0] = 1.0    # rise on channel 0 at t=1
    x[2, 1] = -1.0   # drop on channel 1 at t=2
    raster = level_crossing_encode(x)
    assert raster.channels == 4
    assert raster.data[1, 0] == 1.0   # channel 0 up
    assert raster.data[2, 3] == 1.0   # channel 1 down
    assert raster.data.sum() == 3.0   # plus the channel-0 fall back to 0


def test_level_crossing_validation():
    with pytest.raises(ValueError):
        level_crossing_encode([0.0, 1.0], up=0.0)
    with pytest.raises(ValueError):
        level_crossing_encode([0.0, 1.0], down=-0.3)
    with pytest.raises(ValueError):
        level_crossing_encode([0.0, np.nan, 1.0])
    with pytest.raises(ValueError):
        level_crossing_encode(np.zeros((0, 2)))
    single = level_crossing_encode([5.0])
    np.testing.assert_array_equal(single.data, np.zeros((1, 2)))


def test_raster_validation_and_rate():
    with pytest.raises(ValueError):
        SpikeRaster(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        SpikeRaster(np.array([[0.0, 0.5]]))
    raster = SpikeRaster(np.array([[0.0, 1.0], [1.0, 1.0]]))
    assert raster.t_steps == 2
    assert raster.channels == 2
    assert raster.firing_rate() == 0.75


def test_sliding_window_frame_counts():
    series = np.arange(784.0)
    frames = sliding_window(series, size=4, stride=1)
    assert frames.shape == (781, 4)
    np.testing.assert_array_equal(frames[0], [0, 1, 2, 3])
    np.testing.assert_array_equal(frames[-1], [780, 781, 782, 783])
    single = sliding_window(np.array([1.0, 2.0, 3.0, 4.0]), size=4)
    np.testing.assert_array_equal(single, [[1.0, 2.0, 3.0, 4.0]])
    with pytest.raises(ValueError):
        sliding_window(np.array([1.0, 2.0, 3.0]), size=4)
    with pytest.raises(ValueError):
        sliding_window(np.arange(10.0), size=0)


def test_sliding_window_stride_and_channels():
    x = np.arange(12.0).reshape(6, 2)
    frames = sliding_window(x, size=2, stride=2)
    assert frames.shape == (3, 4)
    np.testing.assert_array_equal(frames[0], [0, 1, 2, 3])  # time-major flatten
    np.testing.assert_array_equal(frames[1], [4, 5, 6, 7])


def test_decode_spike_count_values():
    probs = decode_spike_count(np.array([3.0, 1.0, 0.0]))
    np.testing.assert_allclose(probs, [0.843795, 0.114195, 0.042010], atol=1e-6)
    np.testing.assert_allclose(decode_spike_count(np.zeros(4)), np.full(4, 0.25),
                               atol=1e-12)
    np.testing.assert_array_equal(decode_spike_count(np.zeros((5, 1))), [1.0])
    # non-finite counts once gave all-NaN probabilities
    for bad in ([-3.0, np.nan], [[1.0, np.inf]], [np.inf, np.inf]):
        with pytest.raises(ValueError, match="spike counts must be finite"):
            decode_spike_count(bad)


def test_decode_spike_count_sums_raster_and_ignores_step_order():
    rng = np.random.default_rng(2)
    raster = (rng.uniform(size=(20, 5)) < 0.3).astype(float)
    base = decode_spike_count(raster)
    shuffled = raster[rng.permutation(20)]
    np.testing.assert_allclose(decode_spike_count(shuffled), base, atol=1e-12)
    np.testing.assert_allclose(decode_spike_count(raster.sum(axis=0)), base,
                               atol=1e-12)


def test_decode_membrane_values():
    np.testing.assert_allclose(decode_membrane([[0.0, 0.0]]), [[0.5, 0.5]],
                               atol=1e-12)
    np.testing.assert_allclose(decode_membrane([[1.0, 0.0]]),
                               [[0.731059, 0.268941]], atol=1e-6)
    rng = np.random.default_rng(3)
    u = rng.normal(0.0, 2.0, size=(10, 6))
    probs = decode_membrane(u)
    shifted = decode_membrane(u + 13.7)
    np.testing.assert_allclose(probs, shifted, atol=1e-12)
    assert np.all(probs >= 0.0)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-9)
    # a non-finite membrane once gave all-NaN probabilities
    for bad in ([[np.inf, 0.0]], [[0.0, 1.0], [np.nan, 0.0]], [[-np.inf, -np.inf]]):
        with pytest.raises(ValueError, match="membranes must be finite"):
            decode_membrane(bad)


def readout_passthrough_net(channels):
    # tau_m = dt makes the readout membrane equal its per-step drive
    spec = NetworkSpec(
        input_size=channels,
        layers=[LayerSpec(size=channels, neuron="readout", tau_m_init=(1.0, 0.0))],
        decode="membrane_softmax", seed=0)
    net = init_network(spec, seed=0)
    net.layers[0].w_in[:] = np.eye(channels)
    return net


def test_anytime_curve_perfect_predictor_is_flat():
    net = readout_passthrough_net(2)
    inputs = np.zeros((8, 6, 2))
    inputs[:, :, 0] = 1.0  # class 0 always dominates
    data = SimpleNamespace(inputs=inputs, labels=np.zeros(8, dtype=int))
    curve = anytime_curve(net, data)
    np.testing.assert_array_equal(curve, np.ones(6))
    data_wrong = SimpleNamespace(inputs=inputs, labels=np.ones(8, dtype=int))
    np.testing.assert_array_equal(anytime_curve(net, data_wrong), np.zeros(6))


def test_anytime_curve_steps_up_when_evidence_arrives():
    net = readout_passthrough_net(2)
    t_steps = 10
    inputs = np.zeros((4, t_steps, 2))
    inputs[:, : t_steps // 2, 1] = 2.0   # first half points at class 1
    inputs[:, t_steps // 2:, 0] = 2.0    # second half points at class 0
    data = SimpleNamespace(inputs=inputs, labels=np.zeros(4, dtype=int))
    curve = anytime_curve(net, data)
    np.testing.assert_array_equal(curve[: t_steps // 2], np.zeros(5))
    np.testing.assert_array_equal(curve[t_steps // 2:], np.ones(5))


def test_anytime_curve_random_labels_sit_at_chance():
    rng = np.random.default_rng(4)
    spec = NetworkSpec(
        input_size=3,
        layers=[LayerSpec(size=8, neuron="alif", recurrent=True, b_0=0.3,
                          beta=0.6, tau_m_init=(5.0, 1.0)),
                LayerSpec(size=4, neuron="readout", tau_m_init=(5.0, 0.0))],
        decode="membrane_softmax", seed=1)
    net = init_network(spec, seed=1)
    inputs = rng.normal(0.0, 1.5, size=(1000, 6, 3))
    labels = rng.integers(0, 4, size=1000)  # independent of the inputs
    curve = anytime_curve(net, SimpleNamespace(inputs=inputs, labels=labels))
    assert np.all(np.abs(curve - 0.25) < 0.06)


def test_anytime_curve_per_step_labels():
    net = readout_passthrough_net(2)
    inputs = np.zeros((3, 4, 2))
    inputs[:, :, 1] = 1.0  # predicts class 1 at every step
    labels = np.array([[1, 1, 0, 1]] * 3)
    curve = anytime_curve(net, SimpleNamespace(inputs=inputs, labels=labels))
    np.testing.assert_array_equal(curve, [1.0, 1.0, 0.0, 1.0])


def test_anytime_curve_rejects_empty_dataset():
    net = readout_passthrough_net(2)
    empty = SimpleNamespace(inputs=np.zeros((0, 4, 2)),
                            labels=np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        anytime_curve(net, empty)


def test_encode_dataset_wraps_every_sample():
    rng = np.random.default_rng(5)
    inputs = rng.normal(0.0, 1.0, size=(6, 20, 2))
    ds = Dataset(inputs=inputs, labels=rng.integers(0, 3, size=6),
                 kind="sequence-classification", n_classes=3)
    enc = encode_dataset(ds, up=0.25, down=0.25)
    assert enc.inputs.shape == (6, 20, 4)
    np.testing.assert_array_equal(enc.labels, ds.labels)
    assert enc.n_classes == 3
    one = level_crossing_encode(inputs[2], up=0.25, down=0.25)
    np.testing.assert_array_equal(enc.inputs[2], one.data)


def test_anytime_csv_round_trip():
    curve = np.array([0.25, 1.0 / 3.0, 0.8125])
    text = anytime_csv_text(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "step,accuracy"
    for t, line in enumerate(lines[1:]):
        step, acc = line.split(",")
        assert int(step) == t
        assert float(acc) == curve[t]  # repr round-trips exactly
