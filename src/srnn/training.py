"""Losses, the reverse-time gradient sweep, Adam, and the training loop.

The backward pass sweeps the head, whose input is `ForwardTrace.merged`
in every net, then each hidden stack from the top down. A sweep walks a
layer's recorded trace from the last step to the first, carrying adjoints
for the membrane and (on adaptive layers) the adaptation variable. One
sweep serves every neuron kind: the kind enters only through its partials
(see `_block_partials`) and, on adaptive layers, the eta chain, whose
threshold `Cell.threshold` forms from eta replayed block by block from
the trace's marks with `Cell.replay_eta`, bit for bit the forward's eta
(see srnn.network). At every spike
the configured surrogate stands in for the derivative of the threshold
test, so the membrane and adaptation chains stay differentiable while the
spikes themselves remain binary. The two explicitly non-differentiable
pathways, the post-spike reset factor and the threshold decrement, are
held constant during the sweep. Time constants receive gradients through
their decay coefficients, which the gain r_m*(1 - decay) follows:

    d u_t / d tau_m    = (held_t - r_m * pre_t) * d decay / d tau_m
                       = (held_t - u_t - theta_{t-1} * y_{t-1}) / (1 - decay)
                         * d decay / d tau_m
    d rho  / d tau_adp = rho * dt / tau_adp^2

The trace holds no drive pre_t, so the sweep takes the second form, which
follows from u_t = decay * held_t + gain * pre_t - theta_{t-1} * y_{t-1}
(the threshold kick on adaptive layers only) for every kind and mode.

In the soft evaluation mode (see srnn.network) nothing is detached and
the spike derivative is exact, which is what the finite-difference
checker relies on. The sweep reads the mode from each trace's Cell.

`check_targets` is the one rule for the labels a head can score. `fit`
and `evaluate` apply it to the whole set, with the input check, before
any forward pass or Adam step; `backward` to its own chunk. `Output` is
the one output rule: each decode mode's evidence, softmax, loss, seed and
predictions. Sequence accuracy reads the final spike count or the mean
membrane, the anytime curve each step's argmax.

Only the adjoint recursion and the eta replay run step by step. The
partials depend on the recorded trace alone and are evaluated for a
block of BLOCK_STEPS steps at once, and the time-constant sums are
reduced once per block. The adjoint step writes into three preallocated
(B, n) buffers, so it allocates nothing. A hard trace's spikes, and a
bool network input, are bool arrays, which the sweep casts to float once
per block. Weight gradients are sums over time x batch, (T*B, fan_in)^T
@ (T*B, n) for the input weights and the same over the shifted outputs
for the recurrent weights, reduced as GEMMs over blocks of steps (of
samples, for the network input) and summed in block order; a block casts
its own spikes, so no float copy of a whole spike array is made (see
`_sum_outer`). The gradient passed to the layer below is formed
like the forward pass's input projection, one T-row GEMM per sample, and
the network input's own gradient, which nothing consumes, is never formed.

Gradients returned by `backward` are sums over the batch axis, one dict
per layer keyed like `Layer.param_arrays()`; `fit` divides by the
minibatch size so the update uses the mean. Minibatches are processed in
fixed-size chunks reduced in index order, which keeps training
byte-reproducible for any worker-thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import ClassVar, Literal, Optional, Union, get_args

import numpy as np

from srnn.accounting import ArchDescription, SpikeCounts, synaptic_ops
from srnn.datasets import class_labels, csv_text, input_array
from srnn.network import (
    BLOCK_STEPS,
    Cell,
    ForwardTrace,
    Layer,
    LayerTrace,
    Network,
    NetworkSpec,
    TAU_MAX_DT,
    _cast_rows,
    _checked_input,
    _project,
    forward_sequence,
    init_network,
)
from srnn.surrogates import MultiGaussian, SurrogateKind, surrogate_grad

LossKind = Literal["ce", "nll_streaming"]
LOSS_KINDS = get_args(LossKind)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _cross_entropy(picked) -> float:
    """Summed -log p over the labels' probabilities, each clamped at 1e-300."""
    return float(-np.log(np.maximum(picked, 1e-300)).sum())


@dataclass
class Output:
    """The output rule: how a decode mode reads the head's (T, B, C) output.

    Under spike_count the evidence at step t is the running spike count.
    The loss reads the final count's softmax, its seed reaches every step's
    spikes (g_ext), and a sequence's prediction is the final count's argmax.
    Under the membrane decoders the evidence is the membrane: every step is
    scored, its seed enters its membrane (g_direct), and a sequence's
    prediction is the mean membrane's argmax. Per-step predictions, behind
    the anytime count, are the evidence's argmax. Labels are class indices
    from `check_targets`, one per sequence or (membranes only) per step.
    """

    evidence: np.ndarray
    counts: bool

    @classmethod
    def of(cls, decode: str, y=None, u=None) -> "Output":
        """The reading of a head's spikes y or membranes u, each (T, B, C)."""
        counts = cls.scores_count(decode)
        return cls(np.cumsum(y, axis=0) if counts else u, counts)

    @staticmethod
    def scores_count(decode: str) -> bool:
        """Whether the mode scores the final count alone, so no per-step labels."""
        return decode == "spike_count"

    @cached_property
    def probs(self) -> np.ndarray:
        """The softmax the loss reads: the final count's, (1, B, C), or each step's."""
        return _softmax(self.evidence[-1:] if self.counts else self.evidence)

    @cached_property
    def step_predictions(self) -> np.ndarray:
        """The evidence's argmax at every step, (T, B)."""
        return np.argmax(self.evidence, axis=2)

    def _at(self, labels):
        """The labels' entries of `probs`; C order keeps the loss sum's bits."""
        return (np.arange(len(self.probs))[:, None], np.arange(len(labels)),
                np.ascontiguousarray(labels.T))

    def loss(self, labels) -> float:
        return _cross_entropy(self.probs[self._at(labels)])

    def seeds(self, labels):
        """(g_ext, g_direct), the gradient of `loss`; one of them is None."""
        p = self.probs.copy()
        p[self._at(labels)] -= 1.0
        return (np.broadcast_to(p, self.evidence.shape), None) if self.counts else (None, p)

    def correct(self, labels) -> int:
        """How many sequence, or per-step, predictions equal the labels."""
        pred = (self.step_predictions if labels.ndim == 2 else np.argmax(
            self.evidence[-1] if self.counts else self.evidence.mean(axis=0), axis=1))
        return int((pred == labels.T).sum())


def _validate_probs(y_hat: np.ndarray) -> np.ndarray:
    y_hat = np.asarray(y_hat, dtype=float)
    if np.any(y_hat < 0):
        raise ValueError("probabilities must be non-negative")
    if not np.allclose(y_hat.sum(axis=-1), 1.0, atol=1e-6):
        raise ValueError("probabilities must sum to 1")
    return y_hat


def loss_classification(y_hat, label: int) -> float:
    """Cross-entropy -log y_hat[label] for one probability vector."""
    if np.ndim(y_hat) != 1:
        raise ValueError(f"y_hat must be one probability vector, got shape {np.shape(y_hat)}")
    y_hat = _validate_probs(y_hat)
    return _cross_entropy(y_hat[class_labels(label, len(y_hat))])


def loss_streaming(y_hat_seq, labels) -> float:
    """Summed per-step cross-entropy over a (T, C) probability sequence."""
    y_hat_seq = _validate_probs(y_hat_seq)
    labels = class_labels(labels, y_hat_seq.shape[-1])
    if labels.shape != y_hat_seq.shape[:1]:
        raise ValueError("one label per step is required")
    return _cross_entropy(y_hat_seq[np.arange(len(labels)), labels])


@dataclass
class StepDecay:
    kind: ClassVar[str] = "step_decay"
    factor: float = 0.5
    every: int = 20

    def __post_init__(self):
        if not (0 < self.factor <= 1) or self.every < 1:
            raise ValueError("factor must be in (0, 1], every at least 1")


@dataclass
class LinearToZero:
    kind: ClassVar[str] = "linear_to_zero"
    total_epochs: int

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be at least 1")


# A schedule's `kind` class attribute is its name in configs.
Schedule = Union[StepDecay, LinearToZero, None]


def lr_at(schedule: Schedule, base_lr: float, epoch: int) -> float:
    """Learning rate in force at a given epoch (0-based)."""
    if schedule is None:
        return base_lr
    if isinstance(schedule, StepDecay):
        return base_lr * schedule.factor ** (epoch // schedule.every)
    if isinstance(schedule, LinearToZero):
        return base_lr * max(0.0, 1.0 - epoch / schedule.total_epochs)
    raise TypeError(f"unknown schedule: {type(schedule).__name__}")


@dataclass
class GradientSet:
    """Per-layer gradients plus the loss/accuracy stats of the same pass.

    `layers[i]` holds the gradients of `net.all_layers[i]` in a dict with
    the keys and the None entries of that layer's `Layer.param_arrays()`.
    `loss` and `correct` are sums over the samples that produced the
    gradients; `total_preds` counts the label comparisons behind
    `correct` (samples for sequence labels, samples*steps for streaming).
    """

    layers: list[dict[str, Optional[np.ndarray]]]
    loss: float = 0.0
    correct: int = 0
    total_preds: int = 0

    def add_(self, other: "GradientSet") -> "GradientSet":
        for mine, theirs in zip(self.layers, other.layers):
            for name, arr in mine.items():
                if arr is not None:
                    arr += theirs[name]
        self.loss += other.loss
        self.correct += other.correct
        self.total_preds += other.total_preds
        return self

    def scale_(self, c: float) -> "GradientSet":
        for lg in self.layers:
            for arr in lg.values():
                if arr is not None:
                    arr *= c
        return self


def zero_grads(net: Network) -> GradientSet:
    return GradientSet(layers=[
        {k: None if a is None else np.zeros_like(a) for k, a in layer.param_arrays().items()}
        for layer in net.all_layers])


def _blocks(t_steps: int):
    """[t0, t1) time blocks of the reverse sweep, last block first.

    Trace-only factors and the time-constant sums are handled a block at a
    time, so their temporaries stay at a block's size however long the
    sequence is; an adaptive trace keeps eta at the start of each block.
    """
    for t0 in range((t_steps - 1) // BLOCK_STEPS * BLOCK_STEPS, -1, -BLOCK_STEPS):
        yield t0, min(t0 + BLOCK_STEPS, t_steps)


def _prev(seq: np.ndarray, init: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """seq[t - 1] for t in [t0, t1), with init standing in for seq[-1].

    Bool spikes come back as float, cast once for the products that read them.
    """
    if t0 > 0:
        return seq[t0 - 1:t1 - 1].astype(float, copy=False)
    return np.concatenate([init[None], seq[:t1 - 1]], axis=0)


def _sum_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over time t and sample i of outer(a[t, i], b[t, i]), as GEMMs over blocks.

    A time-major `a` reshapes for free. The network input is the swapped
    axes of a (B, T, N) array, possibly time-reversed; it is reduced in its
    own batch-major layout and the narrower `b` is the one that is copied.
    Axis 0 of that layout, steps or samples, is split into blocks of at
    most CAST_BLOCK_ENTRIES entries of `a` (`network._cast_rows`); each
    block is one GEMM, and the blocks are summed in order, the first
    assigned rather than added to zeros, so a single block is the bytes of
    one GEMM over the whole array. A bool block is cast to float in its own
    layout: the copy matmul would make is C-ordered, and for a narrow `b`
    BLAS then sums in another order than it does over the transposed view.
    Every dtype is blocked alike, so bool spikes give the bytes of their
    float copy.
    """
    if a.strides[0] < 0:
        a, b = a[::-1], b[::-1]
    if not a.flags.c_contiguous and a.transpose(1, 0, 2).flags.c_contiguous:
        a, b = a.transpose(1, 0, 2), b.transpose(1, 0, 2)
    width, n = a.shape[2], b.shape[2]
    step = _cast_rows(a.shape[1] * width)
    total = None
    for r in range(0, len(a), step):
        block = a[r:r + step]
        if block.dtype == bool:
            block = block.astype(float)
        part = block.reshape(-1, width).T @ b[r:r + step].reshape(-1, n)
        if total is None:
            total = part
        else:
            total += part
    return np.zeros((width, n)) if total is None else total


def _block_partials(c: Cell, tr: LayerTrace, t0: int, t1: int, eta: Optional[np.ndarray],
                    surrogate: SurrogateKind):
    """The kind's partials over steps [t0, t1): (carry, slope, dy_next).

    eta holds the block's replayed eta on adaptive layers. carry =
    d u_{t+1} / d u_t, an (n,) vector unless a reset to rest makes it
    step-dependent; slope = d y_t / d u_t, None for the readout (y = u);
    dy_next = d u_{t+1} / d y_t of the reset, None unless the cell is soft.
    """
    u = tr.u[t0:t1]
    if c.kind == "readout":
        return c.decay, None, None
    if c.kind == "relu":
        return c.decay, (u > 0).astype(float), None
    theta = c.threshold(eta)
    slope = (u >= theta).astype(float) if c.soft else surrogate_grad(surrogate, u, theta)
    if c.kind == "lif":
        reset = c.decay * (c.spec.u_r - u) if c.soft else None
        return c.decay * (1.0 - tr.y[t0:t1]), slope, reset
    return c.decay, slope, -theta if c.soft else None


def _layer_backward(layer: Layer, tr: LayerTrace, below_y: np.ndarray,
                    g_ext: Optional[np.ndarray], g_direct: Optional[np.ndarray],
                    surrogate: SurrogateKind, need_g_below: bool = True):
    """Reverse-time sweep over one layer. Returns (grads, g_below).

    grads is keyed like `layer.param_arrays()`, with the same None
    entries; g_below is None when need_g_below is false. During the sweep
    `dpre` holds the membrane adjoint lam_u; it becomes the drive adjoint
    d loss / d pre = lam_u * gain in one pass afterwards, so the
    recurrent path applies gain through `w_back` instead. The tau_m sum
    reads lam_u against held - u - kick and is divided by (1 - decay) once
    at the end (see the module docstring). Each step forms gy, q and their
    products in the buffers `gy`, `q` and `tmp`, in the order of
    gy = ext + rec + eta term + reset term; the first add is always taken,
    even onto `no_ext`, so the signs of zeros stay those of that sum. The
    per-unit factors the step multiplies by are spread to (B, n) rows
    first: numpy multiplies equal shapes faster than it broadcasts.
    """
    c = tr.cell
    t_steps, batch, n = tr.u.shape
    last = t_steps - 1
    dpre = np.empty((t_steps, batch, n))
    lam_u_next = np.zeros((batch, n))
    no_ext = np.zeros((batch, n))
    gy_buf, q_buf, tmp = (np.empty((batch, n)) for _ in range(3))
    w_back = c.gain[:, None] * layer.w_rec.T if layer.w_rec is not None else None
    acc_tau_m = np.zeros(n)
    adaptive = c.rho is not None
    eta = eta_prev = None
    if adaptive:
        block = min(BLOCK_STEPS, t_steps)
        lam_eta = np.empty((block, batch, n))
        lam_eta_next = np.zeros((batch, n))
        replay = np.empty((block + 1, batch, n))
        acc_tau_adp = np.zeros(n)
        rho, eta_gain = np.tile(c.rho, (batch, 1)), np.tile(c.eta_gain, (batch, 1))

    for t0, t1 in _blocks(t_steps):
        y_prev = _prev(tr.y, tr.y_init, t0, t1)
        if adaptive:
            c.replay_eta(tr.eta_marks[t0 // BLOCK_STEPS], y_prev, replay[:t1 - t0 + 1])
            eta_prev, eta = replay[:t1 - t0], replay[1:t1 - t0 + 1]
        carry, slope, dy_next = _block_partials(c, tr, t0, t1, eta, surrogate)
        if carry.ndim == 1:
            carry = np.tile(carry, (batch, 1))
        for t in range(t1 - 1, t0 - 1, -1):
            k = t - t0
            gy = no_ext if g_ext is None else g_ext[t]
            if w_back is not None and t < last:
                gy = np.add(gy, np.matmul(lam_u_next, w_back, out=tmp), out=gy_buf)
            if adaptive:
                gy = np.add(gy, np.multiply(eta_gain, lam_eta_next, out=tmp), out=gy_buf)
            if dy_next is not None:
                gy = np.add(gy, np.multiply(dy_next[k], lam_u_next, out=tmp), out=gy_buf)
            q = gy if slope is None else np.multiply(slope[k], gy, out=q_buf)
            lam_u = np.multiply(carry if carry.ndim == 2 else carry[k],
                                lam_u_next, out=dpre[t])
            lam_u += q
            if g_direct is not None:
                lam_u += g_direct[t]
            if adaptive:
                if c.soft:                     # theta_t also scales the reset at t+1
                    q = np.add(q, np.multiply(tr.y[t], lam_u_next, out=tmp), out=q_buf)
                np.multiply(rho, lam_eta_next, out=lam_eta[k])
                lam_eta[k] -= np.multiply(c.spec.beta, q, out=tmp)
                lam_eta_next = lam_eta[k]
            lam_u_next = lam_u
        drift = c.held(_prev(tr.u, tr.u_init, t0, t1), y_prev) - tr.u[t0:t1]
        if adaptive:
            drift -= c.threshold(eta_prev) * y_prev
            acc_tau_adp += np.einsum("tbn,tbn->n", lam_eta[:t1 - t0], eta_prev - y_prev)
        acc_tau_m += np.einsum("tbn,tbn->n", dpre[t0:t1], drift)

    dpre *= c.gain
    w_rec = None
    if layer.w_rec is not None:
        w_rec = tr.y_init.T @ dpre[0] + _sum_outer(tr.y[:-1], dpre[1:])
    grads = {"w_in": _sum_outer(below_y, dpre), "w_rec": w_rec,
             "bias": dpre.sum(axis=(0, 1)),
             "tau_m": acc_tau_m * (c.decay_tau / (1.0 - c.decay)),
             "tau_adp": acc_tau_adp * c.rho_tau if adaptive else None}
    g_below = None
    if need_g_below:
        g_below = np.empty((t_steps, batch, layer.fan_in))
        _project(dpre, layer.w_in.T, g_below)
    return grads, g_below


def check_targets(spec: NetworkSpec, labels, batch: int, t_steps: int,
                  loss: Optional[LossKind] = None) -> np.ndarray:
    """The labels as the head's class indices, or ValueError naming the fault:
    each is an integer in [0, head width) (`class_labels`), one per sequence,
    (batch,), or, under a membrane decoder, one per step, (batch, t_steps). A
    loss "ce" takes sequence labels, "nll_streaming" per-step ones."""
    if t_steps < 1:
        raise ValueError("sequences of no steps have no output to score")
    labels = class_labels(labels, spec.layers[-1].size)
    if labels.shape not in ((batch,), (batch, t_steps)):
        raise ValueError(f"labels must be ({batch},) or ({batch}, {t_steps}), "
                         f"got shape {labels.shape}")
    if labels.ndim == 2 and Output.scores_count(spec.decode):
        raise ValueError("got per-step labels, which spike_count decoding cannot score")
    if labels.ndim == 2 and loss == "ce":
        raise ValueError("per-step labels need loss='nll_streaming'")
    if labels.ndim == 1 and loss == "nll_streaming":
        raise ValueError("loss='nll_streaming' needs per-step labels")
    return labels


def _stack_backward(layers, traces, bottom_y, g_top, surrogate):
    """Gradients of a hidden stack whose top receives g_top; bottom_y gets none."""
    grads: list = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        below = traces[i - 1].y if i > 0 else bottom_y
        grads[i], g_top = _layer_backward(layers[i], traces[i], below, g_top, None,
                                          surrogate, need_g_below=i > 0)
    return grads


def backward(net: Network, trace: ForwardTrace, targets, surrogate: SurrogateKind,
             train_tau_m: bool = True, train_tau_adp: bool = True) -> GradientSet:
    """BPTT over a recorded trace. Gradients are sums over the batch.

    The gradients follow `net.all_layers`. The head's sweep hands the
    gradient of its input, `trace.merged`, to the top of each hidden
    stack; in a bidirectional net each top takes half of it, the back
    stack's in reversed time. Frozen time constants get zero gradients.
    """
    if len(net.back) != len(trace.back):
        raise TypeError("network and trace kinds do not match")
    t_steps, batch, _ = trace.head.u.shape
    labels = check_targets(net.spec, targets, batch, t_steps)
    out = Output.of(net.spec.decode, trace.head.y, trace.head.u)
    head, g_merged = _layer_backward(net.layers[-1], trace.head, trace.merged,
                                     *out.seeds(labels), surrogate,
                                     need_g_below=len(net.layers) > 1)
    if net.back:
        g_merged *= 0.5
    # The gradients of the forward and back stacks' tops. Once popped, a
    # stack's sweep holds the only reference, so it frees the (T, B, n)
    # array after its top layer rather than at the end of the stack.
    tops = [g_merged, g_merged[::-1] if net.back else None]
    del g_merged
    grads = (_stack_backward(net.layers[:-1], trace.layers[:-1], trace.inputs,
                             tops.pop(0), surrogate)
             + [head]
             + _stack_backward(net.back, trace.back, trace.inputs[::-1], tops.pop(0),
                               surrogate))
    for name, on in (("tau_m", train_tau_m), ("tau_adp", train_tau_adp)):
        for lg in grads:
            if not on and lg[name] is not None:
                lg[name].fill(0.0)
    return GradientSet(layers=grads, loss=out.loss(labels), correct=out.correct(labels),
                       total_preds=labels.size)


def step_probs(trace, decode: str) -> np.ndarray:
    """Per-step class probabilities (T, B, C): the softmax of `Output`'s evidence."""
    return _softmax(Output.of(decode, trace.head.y, trace.head.u).evidence)


@dataclass
class AdamState:
    m: list[dict]
    v: list[dict]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_net(cls, net) -> "AdamState":
        return cls(m=zero_grads(net).layers, v=zero_grads(net).layers)


def adam_step(net, grads: GradientSet, state: AdamState, lr: float):
    """One Adam update in place; time constants are clamped afterwards."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for layer, lg, m, v in zip(net.all_layers, grads.layers, state.m, state.v):
        params = layer.param_arrays()
        for name, p in params.items():
            g = lg[name]
            if p is None or g is None:
                continue
            m[name] = state.beta1 * m[name] + (1.0 - state.beta1) * g
            v[name] = state.beta2 * v[name] + (1.0 - state.beta2) * g * g
            m_hat = m[name] / bc1
            v_hat = v[name] / bc2
            p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
        lo, hi = layer.spec.dt, TAU_MAX_DT * layer.spec.dt
        np.clip(layer.tau_m, lo, hi, out=layer.tau_m)
        if layer.tau_adp is not None:
            np.clip(layer.tau_adp, lo, hi, out=layer.tau_adp)
    return net, state


@dataclass
class TrainingConfig:
    epochs: int = 10
    lr: float = 1e-2
    minibatch: int = 32
    surrogate: SurrogateKind = field(default_factory=MultiGaussian)
    schedule: Schedule = None
    loss: LossKind = "ce"
    seed: int = 0
    train_tau_m: bool = True
    train_tau_adp: bool = True
    chunk_size: int = 16

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.minibatch < 1 or self.chunk_size < 1:
            raise ValueError("minibatch and chunk_size must be at least 1")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class MetricsLog:
    rows: list[dict] = field(default_factory=list)

    COLUMNS = ("epoch", "split", "loss", "accuracy", "mean_firing_rate", "lr")

    def append(self, epoch: int, split: str, loss: float, accuracy: float,
               mean_firing_rate: float, lr: float) -> None:
        self.rows.append({"epoch": int(epoch), "split": split,
                          "loss": float(loss), "accuracy": float(accuracy),
                          "mean_firing_rate": float(mean_firing_rate),
                          "lr": float(lr)})

    def to_csv_text(self) -> str:
        return csv_text([self.COLUMNS, *([r[c] for c in self.COLUMNS] for r in self.rows)])


def _chunk_job(net, inputs, labels, config, chunk):
    """Gradients and spike counts of the samples `chunk` indexes.

    The job takes its own copy of the chunk's inputs, so no more chunk
    copies are alive at once than jobs run.
    """
    trace = forward_sequence(net, inputs[chunk])
    grads = backward(net, trace, labels[chunk], config.surrogate,
                     train_tau_m=config.train_tau_m,
                     train_tau_adp=config.train_tau_adp)
    return grads, SpikeCounts.of(trace)


def _batch_gradients(net, inputs, labels, idx, config, pool):
    """Summed gradients and spike counts over the samples in idx, in fixed order."""
    chunks = [idx[i:i + config.chunk_size] for i in range(0, len(idx), config.chunk_size)]
    job = partial(_chunk_job, net, inputs, labels, config)
    results = list(map(job, chunks) if pool is None else pool.map(job, chunks))
    total = zero_grads(net)
    spikes = SpikeCounts.zeros(net)
    for grads, counts in results:
        total.add_(grads)
        spikes.add_(counts)
    return total, spikes


def _check_finite(net, epoch: int) -> None:
    """Raise FloatingPointError naming the first non-finite parameter family."""
    for i, layer in enumerate(net.all_layers):
        for name, p in layer.param_arrays().items():
            if p is not None and not np.isfinite(p).all():
                raise FloatingPointError(f"training diverged at epoch {epoch}: "
                                         f"{name} of layer {i} is not finite")


def fit(spec, train_data, config: TrainingConfig, eval_data=None, threads: int = 1):
    """Train a network on a dataset. Returns (network, MetricsLog).

    `spec` may be a NetworkSpec (a fresh network is drawn from its seed) or
    an already-initialized network. `train_data` needs `.inputs` of shape
    (S, T, N), bool spikes or floats, and `.labels` of shape (S,) or
    (S, T). Bool inputs are never copied to float whole: each job slices
    its chunk, and the products that read it cast it to float (see
    srnn.network). The log gains one train row per epoch, plus an eval
    row when eval_data is given. Raises FloatingPointError as soon as an
    Adam step leaves a parameter non-finite or an epoch's mean loss is not
    finite, and ValueError before any work at a set of either kind that
    `_checked_set` rejects.
    """
    net = init_network(spec) if isinstance(spec, NetworkSpec) else spec
    inputs, labels = _checked_set(net, train_data, config.loss)
    if eval_data is not None:
        _checked_set(net, eval_data)
    n = inputs.shape[0]
    log = MetricsLog()
    if config.epochs == 0:
        return net, log
    adam = AdamState.for_net(net)
    rng = np.random.default_rng(config.seed)
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for epoch in range(config.epochs):
            lr = lr_at(config.schedule, config.lr, epoch)
            order = rng.permutation(n)
            ep_loss, ep_correct = 0.0, 0
            ep_spikes = SpikeCounts.zeros(net)
            for start in range(0, n, config.minibatch):
                batch_idx = np.sort(order[start:start + config.minibatch])
                grads, spikes = _batch_gradients(net, inputs, labels, batch_idx,
                                                 config, pool)
                ep_spikes.add_(spikes)
                ep_loss += grads.loss
                ep_correct += grads.correct
                grads.scale_(1.0 / len(batch_idx))
                adam_step(net, grads, adam, lr)
                _check_finite(net, epoch)
            mean_loss = ep_loss / n
            if not math.isfinite(mean_loss):
                raise FloatingPointError(f"training diverged at epoch {epoch}")
            log.append(epoch, "train", mean_loss, ep_correct / labels.size,
                       ep_spikes.mean_rate, lr)
            if eval_data is not None:
                rep = evaluate(net, eval_data)
                log.append(epoch, "eval", rep.loss, rep.accuracy, rep.firing_rate, lr)
    finally:
        if pool is not None:
            pool.shutdown()
    return net, log


@dataclass
class EvalReport:
    """What one pass of `evaluate` over a dataset measured.

    Besides the mean loss, the accuracy and the firing rate it holds what
    reports read from the same pass: each layer's spike counts and the
    number of input events (nonzero input entries), from which
    `sops` charges synaptic operations; the number of correct per-step
    predictions (`Output.step_predictions`) at every step (see `anytime`);
    and, for per-step labels, each step's prediction, (samples, t_steps).
    """

    loss: float
    accuracy: float
    firing_rate: float
    n_samples: int
    spikes: SpikeCounts
    input_events: int
    anytime_correct: np.ndarray
    step_predictions: Optional[np.ndarray] = None

    @property
    def anytime(self) -> np.ndarray:
        """Accuracy after consuming t steps, for every step t."""
        return self.anytime_correct / self.n_samples

    def sops(self, arch: ArchDescription):
        """(total, per step) synaptic operations; see accounting.synaptic_ops."""
        return synaptic_ops(arch, self.spikes, self.input_events)


def _checked_set(net, data, loss: Optional[LossKind] = None):
    """A set's inputs and labels, checked whole (`_checked_input`, `check_targets`)."""
    inputs = input_array(data.inputs)
    if inputs.ndim != 3 or not len(inputs):
        raise ValueError("inputs must be (samples, t_steps, channels) with a sample or more")
    t_steps, n, _ = _checked_input(inputs, net.spec.input_size).shape
    return inputs, check_targets(net.spec, data.labels, n, t_steps, loss)


def evaluate(net, data, chunk_size: int = 64) -> EvalReport:
    """Score a network on a dataset in one forward pass, chunk by chunk.

    `Output` reads each chunk's loss, accuracy and per-step predictions; a
    sequence label applies to every step of the anytime count. Bool input
    chunks stay bool, as in `fit`. `_checked_set` checks the set first.
    """
    inputs, labels = _checked_set(net, data)
    n, t_steps = inputs.shape[:2]
    loss_sum, correct, input_events = 0.0, 0, 0
    spikes = SpikeCounts.zeros(net)
    anytime = np.zeros(t_steps, dtype=int)
    step_pred = np.empty((n, t_steps), dtype=int)
    for start in range(0, n, chunk_size):
        sl = slice(start, min(start + chunk_size, n))
        trace = forward_sequence(net, inputs[sl])
        out = Output.of(net.spec.decode, trace.head.y, trace.head.u)
        loss_sum += out.loss(labels[sl])
        correct += out.correct(labels[sl])
        spikes.add_(SpikeCounts.of(trace))
        input_events += int(np.count_nonzero(inputs[sl]))
        anytime += (out.step_predictions == labels[sl].T).sum(axis=1)
        step_pred[sl] = out.step_predictions.T
    return EvalReport(loss=loss_sum / n, accuracy=correct / labels.size,
                      firing_rate=spikes.mean_rate, n_samples=n, spikes=spikes,
                      input_events=input_events, anytime_correct=anytime,
                      step_predictions=step_pred if labels.ndim == 2 else None)
