"""The bit ledger: sha256 digests of the outputs the determinism contract fixes.

tests/data/bit_ledger.json holds, for a grid of small cases, one digest
per array of the forward pass (u, y by value, replayed eta, merged and
spike counts), of every gradient family with tau training on and off,
of 20 hard forward_step outputs, and of a 2-epoch fit's model.json and
metrics.csv at threads 1 and 2. The grid covers every neuron kind, both
modes, plain, bidirectional and head-only nets, every decoder,
T in {1, 15, 16, 17, 37, 64}, a spiking layer on the event path and a bool
input whose weight gradient spans several cast blocks, each at least once. A failure names the case and the arrays whose digest moved.

Bits depend on the BLAS kernels, which OpenBLAS picks by CPU, so the file
records the numpy version and the digest of one fixed GEMM; where either
differs from this machine's the test skips and names both.

A change that moves bits on purpose regenerates the file,

    PYTHONPATH=src python tests/test_bit_ledger.py

and lists the moved entries in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from srnn.accounting import SpikeCounts
from srnn.datasets import gen_pattern_classification, gen_streaming_waveform, split
from srnn.network import (
    LayerSpec,
    NetworkSpec,
    forward_sequence,
    forward_step,
    init_network,
    init_state,
    save_model,
)
from srnn.surrogates import MultiGaussian
from srnn.training import TrainingConfig, backward, fit

LEDGER = Path(__file__).parent / "data" / "bit_ledger.json"

ALIF = dict(neuron="alif", recurrent=True, tau_m_init=(6.0, 1.0),
            tau_adp_init=(12.0, 3.0), b_0=0.3, beta=0.5)
LIF = dict(neuron="lif", recurrent=True, tau_m_init=(6.0, 1.0), theta=0.5)
RELU = dict(neuron="relu", recurrent=True, tau_m_init=(6.0, 1.0))
HEAD = LayerSpec(size=3, neuron="readout", tau_m_init=(5.0, 1.0))


def _spec(layers, decode="membrane_softmax", input_size=3, bidirectional=False):
    return NetworkSpec(input_size=input_size, layers=layers, decode=decode,
                       bidirectional=bidirectional, seed=7)


# name: (spec, t_steps, soft, input kind, per-step labels)
PASSES = {
    "alif-spike_count-hard-T16": (
        _spec([LayerSpec(size=6, **ALIF), LayerSpec(size=3, **dict(ALIF, recurrent=False))],
              "spike_count"), 16, False, "float", False),
    "alif-spike_count-soft-T17": (
        _spec([LayerSpec(size=6, **ALIF), LayerSpec(size=3, **dict(ALIF, recurrent=False))],
              "spike_count"), 17, True, "float", False),
    "lif-spike_count-hard-T15": (
        _spec([LayerSpec(size=6, **LIF), LayerSpec(size=3, **dict(LIF, recurrent=False))],
              "spike_count"), 15, False, "float", False),
    "lif-spike_count-soft-T37": (
        _spec([LayerSpec(size=6, **LIF), LayerSpec(size=3, **dict(LIF, recurrent=False))],
              "spike_count"), 37, True, "float", False),
    "relu-membrane_softmax-hard-T37": (
        _spec([LayerSpec(size=6, **RELU), LayerSpec(size=4, neuron="relu"), HEAD]),
        37, False, "float", True),
    "relu-membrane_softmax-soft-T1": (
        _spec([LayerSpec(size=6, **RELU), LayerSpec(size=4, neuron="relu"), HEAD]),
        1, True, "float", False),
    "alif-spiking_membrane_softmax-hard-T17": (
        _spec([LayerSpec(size=5, **ALIF), LayerSpec(size=3, **ALIF)],
              "spiking_membrane_softmax"), 17, False, "float", False),
    "alif-spiking_membrane_softmax-soft-T16": (
        _spec([LayerSpec(size=5, **ALIF), LayerSpec(size=3, **ALIF)],
              "spiking_membrane_softmax"), 16, True, "float", True),
    "mixed-bool-input-hard-T37": (
        _spec([LayerSpec(size=5, **LIF), LayerSpec(size=5, **dict(ALIF, recurrent=False)),
               HEAD], input_size=12), 37, False, "bool", True),
    "head-only-readout-hard-T15": (_spec([HEAD]), 15, False, "float", False),
    "head-only-alif-hard-T1": (
        _spec([LayerSpec(size=3, **ALIF)], "spike_count"), 1, False, "float", False),
    "bidirectional-hard-T16": (
        _spec([LayerSpec(size=5, **ALIF), HEAD], bidirectional=True), 16, False, "float",
        False),
    "bidirectional-soft-T37": (
        _spec([LayerSpec(size=5, **ALIF), LayerSpec(size=4, **LIF), HEAD],
              bidirectional=True), 37, True, "float", True),
    # w_in and w_rec of the hidden layer hold 200 * 200 >= EVENT_MIN_ENTRIES
    "event-path-hard-T16": (
        _spec([LayerSpec(size=200, **dict(ALIF, b_0=0.05)), HEAD], input_size=200),
        16, False, "bool", False),
    # BATCH * 64 * 700 input entries > CAST_BLOCK_ENTRIES: the w_in gradient
    # sums several cast blocks
    "wide-bool-input-hard-T64": (
        _spec([LayerSpec(size=6, **dict(ALIF, b_0=0.05)), HEAD], input_size=700),
        64, False, "bool", False),
}
FITS = ("fit-pattern-spike_count", "fit-pattern-bidirectional",
        "fit-streaming-frozen-tau")
BATCH = 3
STREAM_STEPS = 20


def _digest(a) -> str:
    """sha256 of an array's values as float64, shape included."""
    a = np.ascontiguousarray(a, dtype=float)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _inputs(rng, spec, t_steps, kind):
    shape = (BATCH, t_steps, spec.input_size)
    if kind == "bool":
        return rng.random(shape) < 0.1
    return rng.normal(0.5, 1.0, size=shape)


def _pass_case(name) -> dict:
    spec, t_steps, soft, kind, step_labels = PASSES[name]
    net = init_network(spec)
    for layer in net.all_layers:            # so that every spiking layer fires
        layer.w_in *= 3.0
    rng = np.random.default_rng(sum(map(ord, name)))
    x = _inputs(rng, spec, t_steps, kind)
    n_classes = spec.layers[-1].size
    labels = rng.integers(n_classes, size=(BATCH, t_steps) if step_labels else BATCH)
    out = {}
    trace = forward_sequence(net, x, soft=soft)
    for i, lt in enumerate(trace.all_layers):
        out[f"forward.u{i}"] = _digest(lt.u)
        out[f"forward.y{i}"] = _digest(lt.y)
        if lt.eta_marks is not None:
            out[f"forward.eta{i}"] = _digest(lt.eta)
    out["forward.merged"] = _digest(trace.merged)
    if not soft:
        for i, c in enumerate(SpikeCounts.of(trace).per_neuron):
            if c is not None:
                out[f"forward.spikes{i}"] = _digest(c)
    for tau in (True, False):
        grads = backward(net, trace, labels, MultiGaussian(),
                         train_tau_m=tau, train_tau_adp=tau)
        tag = f"grad.tau_{'on' if tau else 'off'}"
        out[f"{tag}.loss"] = grads.loss.hex()
        out[f"{tag}.correct"] = grads.correct
        for i, lg in enumerate(grads.layers):
            for family, g in lg.items():
                if g is not None:
                    out[f"{tag}.{i}.{family}"] = _digest(g)
    if not spec.bidirectional:
        stream = _inputs(rng, spec, STREAM_STEPS, kind)
        states = init_state(net, batch=BATCH)
        steps = []
        for t in range(STREAM_STEPS):
            states, outs = forward_step(net, stream[:, t], states)
            steps.append(outs)
        for i in range(len(net.layers)):
            out[f"stream.y{i}"] = _digest([o[i] for o in steps])
    return out


def _fit_case(name) -> dict:
    alif = dict(ALIF, b_0=0.05, beta=0.6)
    cfg = dict(epochs=2, minibatch=8, chunk_size=3, seed=1)
    if name == "fit-streaming-frozen-tau":
        ds = gen_streaming_waveform(3, 6, 3, 0.05, seed=2, n_samples=20)
        spec = _spec([LayerSpec(size=6, **RELU), HEAD], input_size=1)
        cfg.update(loss="nll_streaming", train_tau_m=False, train_tau_adp=False)
    else:
        ds = gen_pattern_classification(3, 20, 8, 1.0, seed=4, n_samples=30)
        if name == "fit-pattern-bidirectional":
            spec = _spec([LayerSpec(size=6, **alif), HEAD], input_size=8,
                         bidirectional=True)
        else:
            spec = _spec([LayerSpec(size=8, **alif),
                          LayerSpec(size=3, **dict(alif, recurrent=False))],
                         "spike_count", input_size=8)
    train, val, _ = split(ds, (0.7, 0.3, 0.0), seed=0)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for threads in (1, 2):
            net, log = fit(spec, train, TrainingConfig(**cfg), eval_data=val,
                           threads=threads)
            path = Path(tmp) / "model.json"
            save_model(net, path)
            out[f"threads{threads}.model.json"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
            out[f"threads{threads}.metrics.csv"] = hashlib.sha256(
                log.to_csv_text().encode()).hexdigest()
    return out


def _case(name) -> dict:
    return _fit_case(name) if name in FITS else _pass_case(name)


def _platform() -> dict:
    """The numpy version and the digest of one fixed GEMM on this machine."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((37, 300)), rng.standard_normal((300, 64))
    return {"numpy": np.__version__, "gemm": _digest(a @ b)}


def write_ledger(path=LEDGER) -> None:
    doc = dict(_platform(), cases={name: _case(name) for name in [*PASSES, *FITS]})
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def _ledger() -> dict:
    doc = json.loads(LEDGER.read_text())
    here = _platform()
    for key, value in here.items():
        if doc[key] != value:
            pytest.skip(f"the ledger was written with {key} {doc[key]}, "
                        f"this machine has {value}")
    return doc


def test_the_ledger_covers_every_case():
    assert sorted(_ledger()["cases"]) == sorted([*PASSES, *FITS])


@pytest.mark.parametrize("name", [*PASSES, *FITS])
def test_outputs_keep_their_bits(name):
    want = _ledger()["cases"][name]
    got = _case(name)
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{name}: digests moved for {moved}"


if __name__ == "__main__":
    write_ledger()
    print(f"wrote {LEDGER}")
