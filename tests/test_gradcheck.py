"""Unit tests for the gradient checkers.

Two independent oracles guard the vectorized backward pass: central
finite differences in the soft (kink-free) mode, and a scalar
reverse-accumulation tape that replays the exact forward graph node by
node in the hard spiking mode.
"""

import numpy as np
import pytest

import srnn.gradcheck
from srnn.gradcheck import _kink_margin, grad_check, tape_gradients
from srnn.network import (
    LayerSpec,
    NetworkSpec,
    forward_sequence,
    init_network,
)
from srnn.surrogates import Gaussian, Linear, MultiGaussian, SLayer
from srnn.training import backward


def spiking_spec(seed, decode="membrane_softmax", out_neuron="readout",
                 recurrent=True):
    hid = dict(neuron="alif", recurrent=recurrent, tau_m_init=(3.0, 0.5),
               tau_adp_init=(12.0, 2.0), b_0=0.2, beta=0.3)
    if out_neuron == "readout":
        out = LayerSpec(size=3, neuron="readout", tau_m_init=(5.0, 1.0))
    else:
        out = LayerSpec(size=3, neuron="alif", tau_m_init=(3.0, 0.5),
                        tau_adp_init=(12.0, 2.0), b_0=0.2, beta=0.3)
    return NetworkSpec(
        input_size=4,
        layers=[LayerSpec(size=6, **hid), LayerSpec(size=6, **hid), out],
        decode=decode,
        seed=seed,
    )


def relu_spec(seed):
    hid = dict(neuron="relu", recurrent=True, tau_m_init=(3.0, 0.5))
    return NetworkSpec(
        input_size=4,
        layers=[LayerSpec(size=6, **hid), LayerSpec(size=6, **hid),
                LayerSpec(size=3, neuron="readout", tau_m_init=(5.0, 1.0))],
        decode="membrane_softmax",
        seed=seed,
    )


def bidirectional_spec(seed, hidden):
    if hidden == "alif":
        hid = dict(neuron="alif", recurrent=True, tau_m_init=(3.0, 0.5),
                   tau_adp_init=(12.0, 2.0), b_0=0.2, beta=0.3)
    else:
        hid = dict(neuron="relu", recurrent=True, tau_m_init=(3.0, 0.5))
    return NetworkSpec(
        input_size=4,
        layers=[LayerSpec(size=4, **hid), LayerSpec(size=3, **hid),
                LayerSpec(size=3, neuron="readout", tau_m_init=(5.0, 1.0))],
        decode="membrane_softmax",
        bidirectional=True,
        seed=seed,
    )


def sample_case(spec, seed, t_steps=20, margin=1e-3, batch=1, h=1e-5):
    """Draw inputs/labels, resampling until the trace clears every kink."""
    for attempt in range(40):
        rng = np.random.default_rng([seed, attempt])
        net = init_network(spec, seed + attempt)
        x = 2.0 * rng.standard_normal((batch, t_steps, spec.input_size))
        labels = rng.integers(0, spec.layers[-1].size, size=batch)
        # the margin is checked first to spare finite differences on rejects
        if _kink_margin(forward_sequence(net, x, soft=True)) > margin:
            return net, x, labels, grad_check(net, x, labels, mode="relu_exact", h=h)
    raise AssertionError("could not find a kink-free sample")


def test_finite_differences_validate_soft_spiking_backward():
    worst = 0.0
    for seed in range(3):
        net, x, labels, report = sample_case(spiking_spec(seed), seed)
        assert report.checked > 0
        # every parameter family must actually be exercised
        for name in ("w_in", "w_rec", "bias", "tau_m", "tau_adp"):
            assert report.families[name].checked > 0
        worst = max(worst, report.max_rel_err)
    assert worst < 1e-4


def test_finite_differences_validate_relu_backward():
    worst = 0.0
    for seed in range(3):
        net, x, labels, report = sample_case(relu_spec(seed), seed)
        assert report.checked > 0
        worst = max(worst, report.max_rel_err)
    assert worst < 1e-4


@pytest.mark.parametrize("hidden", ["relu", "alif"])
def test_finite_differences_validate_bidirectional_backward(hidden):
    # Two samples put the backward stack's input in batch-major,
    # time-reversed layout; 34 steps cross a block of the reverse sweep.
    # Their summed loss is ~75 nats, whose rounding noise over a 1e-5 probe
    # (~1e-9) nears the bound on the smallest scored entries; a 1e-4 probe
    # keeps well inside the 1e-3 kink margin.
    worst = 0.0
    for seed in range(2):
        net, x, labels, report = sample_case(
            bidirectional_spec(seed, hidden), seed, t_steps=34, batch=2, h=1e-4)
        assert net.back
        families = ("w_in", "w_rec", "bias", "tau_m") + \
            (("tau_adp",) if hidden == "alif" else ())
        for name in families:
            assert report.families[name].checked > 0
        worst = max(worst, report.max_rel_err)
    assert worst < 1e-4


def test_fd_noise_bounds_the_error_of_a_long_summed_loss():
    # With h=1e-5 the 34-step, 2-sample alif stack above scores a max rel
    # err up to 8.1e-5 against the 1e-4 bound, on correct gradients. The
    # absolute error is rounding noise of the ~75-nat loss: it measured
    # 1.26x and 1.06x fd_noise = eps*|loss|/h (2.1e-9 and 1.8e-9).
    for seed in range(2):
        _, _, _, report = sample_case(
            bidirectional_spec(seed, "alif"), seed, t_steps=34, batch=2, h=1e-5)
        assert report.fd_noise == np.finfo(float).eps * abs(report.loss) / 1e-5
        assert 0.25 * report.fd_noise <= report.max_abs_err <= 3.0 * report.fd_noise


def test_tape_matches_vectorized_backward_in_hard_mode():
    for seed, surrogate in enumerate(
            (MultiGaussian(), Gaussian(), Linear(), SLayer())):
        spec = spiking_spec(seed, decode="spike_count", out_neuron="alif")
        net = init_network(spec, seed)
        rng = np.random.default_rng([7, seed])
        x = 2.0 * rng.standard_normal((1, 15, 4))
        labels = rng.integers(0, 3, size=1)
        report = grad_check(net, x, labels, mode="surrogate_consistency",
                            surrogate=surrogate)
        assert report.checked > 0
        assert report.max_abs_err < 1e-8
        assert report.fd_noise is None


def test_tape_gradients_agree_with_backward_directly():
    spec = spiking_spec(0, decode="membrane_softmax", out_neuron="readout")
    net = init_network(spec, 1)
    rng = np.random.default_rng(8)
    x = 2.0 * rng.standard_normal((1, 12, 4))
    labels = rng.integers(0, 3, size=1)
    surrogate = MultiGaussian()
    loss_tape, tape_set = tape_gradients(net, x, labels, surrogate, soft=False)
    trace = forward_sequence(net, x, soft=False)
    analytic = backward(net, trace, labels, surrogate)
    assert abs(loss_tape - analytic.loss) < 1e-10
    for tl, al in zip(tape_set.layers, analytic.layers):
        for name, ref in tl.items():
            if ref is None:
                continue
            np.testing.assert_allclose(al[name], ref, atol=1e-10)


def test_tape_handles_soft_mode_too():
    spec = spiking_spec(2, decode="membrane_softmax", out_neuron="readout")
    net = init_network(spec, 3)
    rng = np.random.default_rng(9)
    x = 2.0 * rng.standard_normal((1, 10, 4))
    labels = rng.integers(0, 3, size=1)
    surrogate = Gaussian()
    _, tape_set = tape_gradients(net, x, labels, surrogate, soft=True)
    trace = forward_sequence(net, x, soft=True)
    analytic = backward(net, trace, labels, surrogate)
    for tl, al in zip(tape_set.layers, analytic.layers):
        for name, ref in tl.items():
            if ref is None:
                continue
            np.testing.assert_allclose(al[name], ref, atol=1e-10)


@pytest.mark.parametrize("soft", [False, True])
def test_tape_agrees_across_blocks_of_the_reverse_sweep(soft):
    # 70 steps span several time blocks of the vectorized sweep, and every
    # neuron kind carries its adjoints across the block boundaries
    spec = NetworkSpec(
        input_size=3,
        layers=[LayerSpec(size=4, neuron="lif", recurrent=True,
                          tau_m_init=(3.0, 0.5), theta=0.3),
                LayerSpec(size=4, neuron="relu", recurrent=True,
                          tau_m_init=(3.0, 0.5)),
                LayerSpec(size=4, neuron="alif", recurrent=True,
                          tau_m_init=(3.0, 0.5), tau_adp_init=(12.0, 2.0),
                          b_0=0.2, beta=0.3),
                LayerSpec(size=3, neuron="readout", recurrent=True,
                          tau_m_init=(5.0, 1.0))],
        decode="membrane_softmax",
        seed=0,
    )
    net = init_network(spec, 6)
    rng = np.random.default_rng(12)
    t_steps = 70
    x = 2.0 * rng.standard_normal((2, t_steps, 3))
    step_labels = rng.integers(0, 3, size=(2, t_steps))
    surrogate = MultiGaussian()
    _, tape_set = tape_gradients(net, x, step_labels, surrogate, soft=soft)
    trace = forward_sequence(net, x, soft=soft)
    analytic = backward(net, trace, step_labels, surrogate)
    for tl, al in zip(tape_set.layers, analytic.layers):
        for name, ref in tl.items():
            if ref is None:
                continue
            assert np.abs(ref).max() > 0.0
            np.testing.assert_allclose(al[name], ref, rtol=1e-9, atol=1e-10)


SLOW_KINDS = {"alif": dict(neuron="alif", tau_adp_init=(12.0, 2.0), b_0=0.2, beta=0.3),
              "lif": dict(neuron="lif", theta=0.3),
              "relu": dict(neuron="relu"),
              "readout": dict(neuron="readout")}


@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("kind", sorted(SLOW_KINDS))
def test_tape_matches_tau_m_gradients_near_the_clip(kind, soft):
    # The sweep recovers held - r_m * pre from the trace as
    # (held - u - kick) / (1 - decay), which amplifies the rounding of u by
    # 1/(1 - decay) ~ 1e4 at tau_m near its 1e4*dt clip. Every layer runs
    # there, the readout head included; spiking membranes start on both
    # sides of the threshold, so soft-mode units fire too.
    slow = (0.9995e4, 2.0)
    spec = NetworkSpec(
        input_size=3,
        layers=[LayerSpec(size=4, recurrent=True, tau_m_init=slow, **SLOW_KINDS[kind]),
                LayerSpec(size=3, neuron="readout", recurrent=True, tau_m_init=slow)],
        decode="membrane_softmax")
    net = init_network(spec, 4)
    rng = np.random.default_rng(5)
    hidden = net.layers[0]
    if kind in ("alif", "lif"):
        rest = hidden.spec.b_0 if kind == "alif" else hidden.spec.theta
        hidden.u_init = rng.uniform(0.0, 2.0 * rest, size=hidden.size)
    assert all((l.tau_m > 0.999e4).all() for l in net.layers)
    x = 2.0 * rng.standard_normal((2, 20, 3))
    labels = rng.integers(0, 3, size=2)
    surrogate = MultiGaussian()
    _, tape_set = tape_gradients(net, x, labels, surrogate, soft=soft)
    analytic = backward(net, forward_sequence(net, x, soft=soft), labels, surrogate)
    for tl, al in zip(tape_set.layers, analytic.layers):
        for name, ref in tl.items():
            if ref is None:
                continue
            # tau_m gradients are ~1e-10 here: the absolute tolerance is
            # taken relative to the family's largest entry
            scale = np.abs(ref).max()
            assert scale > 0.0, name
            np.testing.assert_allclose(al[name], ref, rtol=1e-9, atol=1e-10 * scale)


@pytest.mark.parametrize("neuron, decode", [("readout", "membrane_softmax"),
                                             ("alif", "spike_count")])
def test_tape_matches_backward_on_a_head_only_net(neuron, decode):
    # with no hidden layer the head reads the network input directly
    head = LayerSpec(size=3, neuron=neuron, recurrent=True, tau_m_init=(3.0, 0.5),
                     tau_adp_init=(12.0, 2.0) if neuron == "alif" else None,
                     b_0=0.2, beta=0.3)
    net = init_network(NetworkSpec(input_size=4, layers=[head], decode=decode), 2)
    rng = np.random.default_rng(11)
    x = 2.0 * rng.standard_normal((2, 15, 4))
    labels = rng.integers(0, 3, size=2)
    surrogate = MultiGaussian()
    loss_tape, tape_set = tape_gradients(net, x, labels, surrogate)
    analytic = backward(net, forward_sequence(net, x), labels, surrogate)
    assert abs(loss_tape - analytic.loss) < 1e-8
    (tl,), (al,) = tape_set.layers, analytic.layers
    for name, ref in tl.items():
        if ref is None:
            assert al[name] is None
            continue
        assert np.abs(ref).max() > 0.0, name
        assert np.abs(al[name] - ref).max() < 1e-8, name


def test_streaming_labels_are_checked_too():
    spec = spiking_spec(4, decode="membrane_softmax", out_neuron="readout")
    net = init_network(spec, 5)
    rng = np.random.default_rng(10)
    t_steps = 10
    x = 2.0 * rng.standard_normal((1, t_steps, 4))
    step_labels = rng.integers(0, 3, size=(1, t_steps))
    report = grad_check(net, x, step_labels, mode="surrogate_consistency")
    assert report.checked > 0
    assert report.max_abs_err < 1e-8


def test_report_fields_are_populated():
    net, x, labels, report = sample_case(spiking_spec(11), 11)
    assert report.mode == "relu_exact"
    assert report.kink_margin > 1e-3
    assert np.isfinite(report.loss)
    assert report.checked == sum(f.checked for f in report.families.values())


def test_unknown_mode_is_rejected():
    net = init_network(spiking_spec(0), 0)
    with pytest.raises(ValueError):
        grad_check(net, np.zeros((1, 5, 4)), np.array([0]), mode="exhaustive")


def test_fd_verdict_allows_for_the_noise_of_a_large_summed_loss():
    # At 60 steps and 4 samples the summed loss is ~260 nats. Correct
    # gradients read a max rel err of 4e-4, above the 1e-4 bound, all of it
    # within a few fd_noise; the score that allows for fd_noise passes them
    # and still sees a 1e-3 relative error put into one gradient family.
    net = init_network(bidirectional_spec(0, "alif"), 0)
    rng = np.random.default_rng([0, 0])
    x = rng.standard_normal((4, 60, 4))
    labels = rng.integers(0, 3, size=4)
    report = grad_check(net, x, labels, mode="relu_exact")
    assert report.kink_margin > 1e-4 and report.loss > 250
    assert report.max_rel_err > 1e-4
    assert report.max_abs_err < 4 * report.fd_noise
    assert report.max_scored_rel_err < 1e-4

    def skewed(*args, **kw):
        grads = backward(*args, **kw)
        grads.layers[0]["w_rec"] *= 1.0 + 1e-3
        return grads

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(srnn.gradcheck, "backward", skewed)
        bad = grad_check(net, x, labels, mode="relu_exact")
    assert 5e-4 < bad.families["w_rec"].max_scored_rel_err < 2e-3
    assert bad.families["w_in"].max_scored_rel_err < 1e-4
