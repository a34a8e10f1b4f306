"""Unit tests for operation counting and the theoretical energy model."""

import numpy as np
import pytest

from srnn.accounting import (
    ArchDescription,
    ArchEntry,
    ann_cost_per_step,
    cost_report,
    efficiency_ratio,
    energy_per_step,
    firing_rate,
    snn_cost_per_step,
    sop_count,
)
from srnn.network import (
    LayerSpec,
    NetworkSpec,
    forward_sequence,
    init_network,
)


def speech_arch():
    # 700 input channels, two recurrent adaptive layers of 128, 20 outputs
    return ArchDescription(layers=[
        ArchEntry(kind="alif", fan_in=700, size=128, recurrent=True),
        ArchEntry(kind="alif", fan_in=128, size=128, recurrent=True),
        ArchEntry(kind="readout", fan_in=128, size=20),
    ])


def test_speech_architecture_mac_per_step():
    mac, ac = snn_cost_per_step(speech_arch(), fr=0.0)
    assert mac == 788
    assert ac == 0.0


def test_speech_architecture_synapse_count():
    assert speech_arch().total_synapses == 141312


def test_radar_architecture_mac_per_step():
    arch = ArchDescription(layers=[
        ArchEntry(kind="alif", fan_in=512, size=512),
        ArchEntry(kind="alif", fan_in=512, size=512, recurrent=True),
        ArchEntry(kind="readout", fan_in=512, size=12),
    ])
    mac, _ = snn_cost_per_step(arch)
    assert mac == 3084
    assert round(mac, -2) == 3100  # i.e. 3.1k within rounding


def test_energy_reference_point():
    assert abs(energy_per_step(788, 10700) - 3512.8) < 1e-9
    # linear in both op counts
    assert energy_per_step(0, 0) == 0.0
    assert abs(energy_per_step(20, 40) - (3.1 * 20 + 0.1 * 40)) < 1e-12
    assert abs(energy_per_step(2 * 788, 2 * 10700) - 2 * 3512.8) < 1e-9
    with pytest.raises(ValueError):
        energy_per_step(-1, 0)
    with pytest.raises(ValueError):
        energy_per_step(0, -5)


def test_recurrent_analog_reference_stack():
    # bidirectional two-level LSTM with two dense heads
    arch = ArchDescription(layers=[
        ArchEntry(kind="lstm", fan_in=700, size=128, copies=2),
        ArchEntry(kind="lstm", fan_in=256, size=128, copies=2),
        ArchEntry(kind="dense", fan_in=256, size=100),
        ArchEntry(kind="dense", fan_in=100, size=20),
    ])
    assert ann_cost_per_step(arch) == 1270736
    ratio = ann_cost_per_step(arch) / 788
    assert 1700 * 0.7 <= ratio <= 1700 * 1.3


def test_analog_cell_formulas():
    assert ann_cost_per_step(ArchDescription(
        [ArchEntry(kind="dense", fan_in=7, size=5)])) == 35
    assert ann_cost_per_step(ArchDescription(
        [ArchEntry(kind="vanilla_rnn", fan_in=7, size=5)])) == 60
    assert ann_cost_per_step(ArchDescription(
        [ArchEntry(kind="gru", fan_in=7, size=5)])) == 3 * 60 + 15
    assert ann_cost_per_step(ArchDescription(
        [ArchEntry(kind="lstm", fan_in=7, size=5)])) == 4 * 60 + 20


def test_heartbeat_energy_ratio():
    # analog point (1900 MAC, no AC) against spiking point (90 MAC, 500 AC)
    ratio = energy_per_step(1900, 0) / energy_per_step(90, 500)
    assert abs(ratio - 17.8) <= 0.25 * 17.8
    assert abs(ratio - 5890.0 / 329.0) < 1e-12


def test_kind_mismatches_are_rejected():
    spiking = speech_arch()
    with pytest.raises(ValueError):
        ann_cost_per_step(spiking)
    analog = ArchDescription([ArchEntry(kind="lstm", fan_in=4, size=4)])
    with pytest.raises(ValueError):
        snn_cost_per_step(analog)
    with pytest.raises(ValueError):
        snn_cost_per_step(spiking, fr=1.5)
    with pytest.raises(ValueError):
        snn_cost_per_step(spiking, fr=-0.1)


def test_arch_entry_synapses():
    assert ArchEntry(kind="alif", fan_in=10, size=4).synapses == 40
    assert ArchEntry(kind="alif", fan_in=10, size=4, recurrent=True).synapses == 56
    assert ArchEntry(kind="lstm", fan_in=10, size=4, copies=2).synapses == 80
    with pytest.raises(ValueError):
        ArchEntry(kind="conv", fan_in=3, size=3)
    with pytest.raises(ValueError):
        ArchEntry(kind="alif", fan_in=0, size=3)
    with pytest.raises(ValueError):
        ArchDescription(layers=[])


def test_arch_description_round_trip():
    arch = ArchDescription(layers=[
        ArchEntry(kind="alif", fan_in=6, size=4, recurrent=True),
        ArchEntry(kind="dense", fan_in=4, size=2, copies=3),
    ])
    back = ArchDescription.from_dict(arch.to_dict())
    assert back == arch


def spiking_net(seed=0, bidirectional=False):
    spec = NetworkSpec(
        input_size=3,
        layers=[
            LayerSpec(size=6, neuron="alif", recurrent=True, b_0=0.3,
                      beta=0.6, tau_m_init=(5.0, 1.0), tau_adp_init=(30.0, 3.0)),
            LayerSpec(size=5, neuron="lif", theta=0.4, tau_m_init=(5.0, 1.0)),
            LayerSpec(size=2, neuron="readout", tau_m_init=(5.0, 0.0)),
        ],
        decode="membrane_softmax", bidirectional=bidirectional, seed=seed)
    return init_network(spec, seed)


def test_from_network_maps_layer_kinds():
    net = spiking_net()
    arch = ArchDescription.from_network(net)
    assert [e.kind for e in arch.layers] == ["alif", "lif", "readout"]
    assert [e.fan_in for e in arch.layers] == [3, 6, 5]
    assert [e.recurrent for e in arch.layers] == [True, False, False]

    spec = NetworkSpec(
        input_size=3,
        layers=[LayerSpec(size=4, neuron="relu", recurrent=True,
                          tau_m_init=(5.0, 1.0)),
                LayerSpec(size=4, neuron="relu", tau_m_init=(5.0, 1.0)),
                LayerSpec(size=2, neuron="readout", tau_m_init=(5.0, 0.0))],
        decode="membrane_softmax", seed=0)
    arch = ArchDescription.from_network(init_network(spec, 0))
    assert [e.kind for e in arch.layers] == ["vanilla_rnn", "dense", "readout"]


def test_from_network_flattens_bidirectional():
    spec = NetworkSpec(
        input_size=3,
        layers=[LayerSpec(size=5, neuron="alif", recurrent=True, b_0=0.3,
                          beta=0.6, tau_m_init=(5.0, 1.0)),
                LayerSpec(size=2, neuron="readout", tau_m_init=(5.0, 0.0))],
        decode="membrane_softmax", bidirectional=True, seed=0)
    bn = init_network(spec, 0)
    arch = ArchDescription.from_network(bn)
    # forward hidden + head, then the backward hidden stack
    assert [e.kind for e in arch.layers] == ["alif", "readout", "alif"]


def test_firing_rate_matches_trace_spikes():
    net = spiking_net(1)
    x = np.random.default_rng(2).normal(0.0, 2.0, size=(4, 30, 3))
    trace = forward_sequence(net, x)
    rates = firing_rate(trace)
    assert len(rates.per_layer) == 2  # readout layer carries no spikes
    spikes = trace.layers[0].y.sum() + trace.layers[1].y.sum()
    count = trace.layers[0].y.size + trace.layers[1].y.size
    assert abs(rates.mean - spikes / count) < 1e-12
    manual0 = trace.layers[0].y.sum(axis=(0, 1)) / (30 * 4)
    np.testing.assert_allclose(rates.per_layer[0], manual0, atol=1e-12)
    assert all(np.all((0 <= r) & (r <= 1)) for r in rates.per_layer)


def test_firing_rate_rejects_soft_traces():
    net = spiking_net(3)
    x = np.random.default_rng(4).normal(size=(1, 10, 3))
    with pytest.raises(ValueError):
        firing_rate(forward_sequence(net, x, soft=True))


def test_sop_count_against_bruteforce():
    net = spiking_net(5)
    arch = ArchDescription.from_network(net)
    x = np.random.default_rng(6).normal(0.0, 2.0, size=(3, 12, 3))
    x[np.abs(x) < 0.5] = 0.0  # give the input genuine zeros
    trace = forward_sequence(net, x)
    total, per_step = sop_count(trace, arch)

    manual = np.count_nonzero(trace.inputs) * arch.layers[0].size
    sizes = [e.size for e in arch.layers]
    for i, lt in enumerate(trace.layers):
        if not lt.spiking:
            continue
        fan_out = sizes[i] if arch.layers[i].recurrent else 0
        if i + 1 < len(sizes):
            fan_out += sizes[i + 1]
        manual += lt.y.sum() * fan_out
    assert total == manual
    assert abs(per_step - total / (12 * 3)) < 1e-12

    # bidirectional 3 -> 6r-alif -> 5-lif -> 2-readout: the input reaches
    # both first layers, and both lif layers feed the head
    bn = spiking_net(5, bidirectional=True)
    trace = forward_sequence(bn, x)
    total, per_step = sop_count(trace, ArchDescription.from_network(bn))
    manual = np.count_nonzero(x) * (6 + 6)
    for alif, lif in ((trace.layers[0], trace.layers[1]), (trace.back[0], trace.back[1])):
        assert alif.y.sum() > 0 and lif.y.sum() > 0
        manual += alif.y.sum() * (6 + 5) + lif.y.sum() * 2
    assert total == manual
    assert abs(per_step - total / (12 * 3)) < 1e-12


def test_sop_count_validation():
    net = spiking_net(7)
    arch = ArchDescription.from_network(net)
    x = np.random.default_rng(8).normal(size=(1, 8, 3))
    with pytest.raises(ValueError):
        sop_count(forward_sequence(net, x, soft=True), arch)
    short = ArchDescription(layers=arch.layers[:2])
    with pytest.raises(ValueError):
        sop_count(forward_sequence(net, x), short)


def test_cost_report_mixed_stack():
    arch = ArchDescription(layers=[
        ArchEntry(kind="alif", fan_in=10, size=8, recurrent=True),
        ArchEntry(kind="dense", fan_in=8, size=4),
    ])
    report = cost_report(arch, fr=0.25)
    assert report.mac_per_step == 3 * 8 + 32
    # accumulate charges apply to the spiking synapses only
    assert report.ac_per_step == 0.25 * (10 * 8 + 64)
    assert abs(report.energy_per_step_pj
               - energy_per_step(report.mac_per_step, report.ac_per_step)) < 1e-12
    assert [r["kind"] for r in report.rows] == ["alif", "dense"]
    csv = report.to_csv_text().strip().split("\n")
    assert csv[0] == "layer,kind,size,mac_per_step,synapses"
    assert len(csv) == 3
    assert "MAC/step" in report.to_text()


def test_cost_report_carries_sops():
    report = cost_report(speech_arch(), fr=0.1, sops=(1234.0, 5.6))
    assert report.sops_total == 1234.0
    assert report.sops_per_step == 5.6
    assert "SOPs total" in report.to_text()
    with pytest.raises(ValueError):
        cost_report(speech_arch(), fr=2.0)


def test_efficiency_ratio():
    a = cost_report(ArchDescription(
        [ArchEntry(kind="lstm", fan_in=100, size=50)]))
    b = cost_report(speech_arch(), fr=0.05)
    e_ratio, err_ratio, product = efficiency_ratio(a, b, err_a=0.10, err_b=0.08)
    assert abs(e_ratio - a.energy_per_step_pj / b.energy_per_step_pj) < 1e-12
    assert abs(err_ratio - 1.25) < 1e-12
    assert abs(product - e_ratio * 1.25) < 1e-12
    with pytest.raises(ValueError):
        efficiency_ratio(a, b, err_a=0.1, err_b=0.0)
