"""Losses, the reverse-time gradient sweep, Adam, and the training loop.

The backward pass walks each layer's recorded trace from the last step to
the first, carrying adjoints for the membrane and (on adaptive layers) the
adaptation variable. At every spike the configured surrogate stands in for
the derivative of the threshold test, so the membrane and adaptation
chains stay differentiable while the spikes themselves remain binary. The
two explicitly non-differentiable pathways, the post-spike reset factor
and the threshold decrement, are held constant during the sweep. Time
constants receive gradients through their decay coefficients:

    d alpha / d tau_m  = alpha * dt / tau_m^2
    d rho  / d tau_adp = rho  * dt / tau_adp^2

In the soft evaluation mode (see srnn.network) nothing is detached and
the spike derivative is exact, which is what the finite-difference
checker relies on.

Only the adjoint recursion itself runs step by step. Factors that depend
on the recorded trace alone (surrogate values, step masks, reset gains)
are evaluated for a block of steps at once, and the time-constant sums
are reduced once per block. Weight gradients are each a single GEMM over
time x batch: (T*B, fan_in)^T @ (T*B, n) for the input weights and the
same over the shifted outputs for the recurrent weights. The gradient
passed to the layer below is one flat GEMM, and the network input's own
gradient, which nothing consumes, is never formed.

Gradients returned by `backward` are sums over the batch axis; `fit`
divides by the minibatch size so the update uses the mean. Minibatches
are processed in fixed-size chunks reduced in index order, which keeps
training byte-reproducible for any worker-thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from srnn.network import (
    BidirectionalNetwork,
    BidirectionalTrace,
    ForwardTrace,
    Layer,
    LayerTrace,
    Network,
    NetworkSpec,
    dynamics_kind,
    forward_bidirectional,
    forward_sequence,
    init_network,
)
from srnn.surrogates import MultiGaussian, SurrogateKind, surrogate_grad

LOSS_KINDS = ("ce", "nll_streaming")


def _softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(z - np.max(z, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _validate_probs(y_hat: np.ndarray) -> np.ndarray:
    y_hat = np.asarray(y_hat, dtype=float)
    if np.any(y_hat < 0):
        raise ValueError("probabilities must be non-negative")
    if not np.allclose(y_hat.sum(axis=-1), 1.0, atol=1e-6):
        raise ValueError("probabilities must sum to 1")
    return y_hat


def loss_classification(y_hat, label: int) -> float:
    """Cross-entropy -log y_hat[label] for one probability vector."""
    y_hat = _validate_probs(y_hat)
    return float(-np.log(max(float(y_hat[int(label)]), 1e-300)))


def loss_streaming(y_hat_seq, labels) -> float:
    """Summed per-step cross-entropy over a (T, C) probability sequence."""
    y_hat_seq = _validate_probs(y_hat_seq)
    labels = np.asarray(labels, dtype=int)
    if y_hat_seq.shape[0] != labels.shape[0]:
        raise ValueError("one label per step is required")
    picked = y_hat_seq[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, 1e-300)).sum())


@dataclass
class StepDecay:
    factor: float = 0.5
    every: int = 20

    def __post_init__(self):
        if not (0 < self.factor <= 1) or self.every < 1:
            raise ValueError("factor must be in (0, 1], every at least 1")


@dataclass
class LinearToZero:
    total_epochs: int

    def __post_init__(self):
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be at least 1")


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
class LayerGrads:
    w_in: np.ndarray
    w_rec: Optional[np.ndarray]
    bias: np.ndarray
    tau_m: np.ndarray
    tau_adp: Optional[np.ndarray]

    def arrays(self):
        return {"w_in": self.w_in, "w_rec": self.w_rec, "bias": self.bias,
                "tau_m": self.tau_m, "tau_adp": self.tau_adp}


@dataclass
class GradientSet:
    """Per-layer gradients plus the loss/accuracy stats of the same pass.

    `loss` and `correct` are sums over the samples that produced the
    gradients; `total_preds` counts the label comparisons behind
    `correct` (samples for sequence labels, samples*steps for streaming).
    """

    layers: list[LayerGrads]
    loss: float = 0.0
    correct: int = 0
    total_preds: int = 0

    def add_(self, other: "GradientSet") -> "GradientSet":
        for mine, theirs in zip(self.layers, other.layers):
            for name, arr in mine.arrays().items():
                if arr is not None:
                    arr += theirs.arrays()[name]
        self.loss += other.loss
        self.correct += other.correct
        self.total_preds += other.total_preds
        return self

    def scale_(self, c: float) -> "GradientSet":
        for lg in self.layers:
            for arr in lg.arrays().values():
                if arr is not None:
                    arr *= c
        return self


def flat_layers(net) -> list[Layer]:
    """Trainable layers in canonical order (bidirectional nets flatten)."""
    if isinstance(net, BidirectionalNetwork):
        return list(net.forward_net.layers) + list(net.backward_net.layers)
    return list(net.layers)


def zero_grads(net) -> GradientSet:
    grads = []
    for layer in flat_layers(net):
        grads.append(LayerGrads(
            w_in=np.zeros_like(layer.w_in),
            w_rec=np.zeros_like(layer.w_rec) if layer.w_rec is not None else None,
            bias=np.zeros_like(layer.bias),
            tau_m=np.zeros_like(layer.tau_m),
            tau_adp=np.zeros_like(layer.tau_adp) if layer.tau_adp is not None else None,
        ))
    return GradientSet(layers=grads)


# Time steps per block of the reverse sweep. Trace-only factors and the
# time-constant sums are handled a block at a time, so their temporaries
# stay at a block's size however long the sequence is.
_BLOCK_STEPS = 16


def _blocks(t_steps: int):
    """[t0, t1) time blocks of the reverse sweep, last block first."""
    for t0 in range((t_steps - 1) // _BLOCK_STEPS * _BLOCK_STEPS, -1, -_BLOCK_STEPS):
        yield t0, min(t0 + _BLOCK_STEPS, t_steps)


def _prev(seq: np.ndarray, init: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """seq[t - 1] for t in [t0, t1), with init standing in for seq[-1]."""
    if t0 > 0:
        return seq[t0 - 1:t1 - 1]
    return np.concatenate([init[None], seq[:t1 - 1]], axis=0)


def _sum_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over time t and sample i of outer(a[t, i], b[t, i]), as one GEMM.

    A time-major `a` reshapes for free. The network input is the swapped
    axes of a (B, T, N) array, possibly time-reversed; it is reduced in its
    own batch-major layout and the narrower `b` is the one that is copied.
    """
    if a.strides[0] < 0:
        a, b = a[::-1], b[::-1]
    if not a.flags.c_contiguous and a.transpose(1, 0, 2).flags.c_contiguous:
        a, b = a.transpose(1, 0, 2), b.transpose(1, 0, 2)
    return a.reshape(-1, a.shape[2]).T @ b.reshape(-1, b.shape[2])


def _layer_backward(layer: Layer, tr: LayerTrace, below_y: np.ndarray,
                    g_ext: Optional[np.ndarray], g_direct: Optional[np.ndarray],
                    surrogate: SurrogateKind, soft: bool,
                    train_tau_m: bool, train_tau_adp: bool,
                    need_g_below: bool = True):
    """Reverse-time sweep over one layer. Returns (LayerGrads, g_below).

    g_below is None when need_g_below is false. During the sweep `dpre`
    holds the membrane adjoint lam_u; it becomes the drive adjoint
    d loss / d pre = lam_u * to_pre in one pass afterwards, so the
    recurrent path applies to_pre through `w_back` instead.
    """
    s = layer.spec
    kind = dynamics_kind(s.neuron)
    t_steps, batch, n = tr.u.shape
    last = t_steps - 1
    dpre = np.empty((t_steps, batch, n))
    lam_u_next = np.zeros((batch, n))
    d_tau_m = np.zeros(n)
    d_tau_adp = np.zeros(n) if layer.tau_adp is not None else None
    if kind in ("alif", "relu"):
        alpha = np.exp(-s.dt / layer.tau_m)
        to_pre = (1.0 - alpha) * s.r_m
    elif kind in ("lif", "readout"):
        leak = 1.0 - s.dt / layer.tau_m
        to_pre = s.r_m * s.dt / layer.tau_m
    else:
        raise ValueError(f"no backward rule for layer kind {kind!r}")
    w_back = to_pre[:, None] * layer.w_rec.T if layer.w_rec is not None else None
    no_ext = np.zeros((batch, n))

    if kind == "alif":
        rho = np.exp(-s.dt / layer.tau_adp)
        eta_gain = 1.0 - rho
        lam_eta = np.empty((min(_BLOCK_STEPS, t_steps), batch, n))
        lam_eta_next = np.zeros((batch, n))
        acc_alpha = np.zeros(n)
        acc_rho = np.zeros(n)
        for t0, t1 in _blocks(t_steps):
            theta = tr.theta[t0:t1]
            if soft:
                g = (tr.u[t0:t1] >= theta).astype(float)
            else:
                g = surrogate_grad(surrogate, tr.u[t0:t1], theta)
            for t in range(t1 - 1, t0 - 1, -1):
                k = t - t0
                gy = eta_gain * lam_eta_next
                if g_ext is not None:
                    gy += g_ext[t]
                if w_back is not None and t < last:
                    gy += lam_u_next @ w_back
                if soft:
                    gy -= theta[k] * lam_u_next
                q = g[k] * gy                      # = -lam_theta in hard mode
                lam_u = np.multiply(alpha, lam_u_next, out=dpre[t])
                lam_u += q
                if g_direct is not None:
                    lam_u += g_direct[t]
                if soft:
                    q += tr.y[t] * lam_u_next
                np.multiply(rho, lam_eta_next, out=lam_eta[k])
                lam_eta[k] -= s.beta * q
                lam_u_next, lam_eta_next = lam_u, lam_eta[k]
            lam_eta_next = lam_eta_next.copy()     # the buffer is reused
            drive = _prev(tr.u, tr.u_init, t0, t1) - s.r_m * tr.pre[t0:t1]
            acc_alpha += np.einsum("tbn,tbn->n", dpre[t0:t1], drive)
            adapt = _prev(tr.eta, tr.eta_init, t0, t1) - _prev(tr.y, tr.y_init, t0, t1)
            acc_rho += np.einsum("tbn,tbn->n", lam_eta[:t1 - t0], adapt)
        if train_tau_m:
            d_tau_m = acc_alpha * (alpha * s.dt / layer.tau_m ** 2)
        if train_tau_adp:
            d_tau_adp = acc_rho * (rho * s.dt / layer.tau_adp ** 2)

    elif kind == "lif":
        acc_tau = np.zeros(n)
        for t0, t1 in _blocks(t_steps):
            u = tr.u[t0:t1]
            if soft:
                g = (u >= s.theta).astype(float)
                reset = leak * (s.u_r - u)
            else:
                g = surrogate_grad(surrogate, u, s.theta)
            carry = leak * (1.0 - tr.y[t0:t1])
            for t in range(t1 - 1, t0 - 1, -1):
                k = t - t0
                gy = no_ext if g_ext is None else g_ext[t]
                if w_back is not None and t < last:
                    gy = gy + lam_u_next @ w_back
                if soft:
                    gy = gy + reset[k] * lam_u_next
                lam_u = np.multiply(carry[k], lam_u_next, out=dpre[t])
                lam_u += g[k] * gy
                if g_direct is not None:
                    lam_u += g_direct[t]
                lam_u_next = lam_u
            u_prev = _prev(tr.u, tr.u_init, t0, t1)
            y_prev = _prev(tr.y, tr.y_init, t0, t1)
            held = u_prev * (1.0 - y_prev) + s.u_r * y_prev
            acc_tau += np.einsum("tbn,tbn->n", dpre[t0:t1], held - s.r_m * tr.pre[t0:t1])
        if train_tau_m:
            d_tau_m = acc_tau * (s.dt / layer.tau_m ** 2)

    else:
        # relu: lam_u = (u > 0) * gy + alpha * lam_u_next
        # readout: lam_u = gy + leak * lam_u_next
        decay = alpha if kind == "relu" else leak
        acc = np.zeros(n)
        for t0, t1 in _blocks(t_steps):
            g = (tr.u[t0:t1] > 0).astype(float) if kind == "relu" else None
            for t in range(t1 - 1, t0 - 1, -1):
                gy = no_ext if g_ext is None else g_ext[t]
                if w_back is not None and t < last:
                    gy = gy + lam_u_next @ w_back
                lam_u = np.multiply(decay, lam_u_next, out=dpre[t])
                lam_u += gy if g is None else g[t - t0] * gy
                if g_direct is not None:
                    lam_u += g_direct[t]
                lam_u_next = lam_u
            drive = _prev(tr.u, tr.u_init, t0, t1) - s.r_m * tr.pre[t0:t1]
            acc += np.einsum("tbn,tbn->n", dpre[t0:t1], drive)
        if train_tau_m:
            scale = alpha * s.dt / layer.tau_m ** 2 if kind == "relu" \
                else s.dt / layer.tau_m ** 2
            d_tau_m = acc * scale

    dpre *= to_pre
    w_rec = None
    if layer.w_rec is not None:
        w_rec = tr.y_init.T @ dpre[0] + _sum_outer(tr.y[:-1], dpre[1:])
    grads = LayerGrads(
        w_in=_sum_outer(below_y, dpre),
        w_rec=w_rec,
        bias=dpre.sum(axis=(0, 1)),
        tau_m=d_tau_m,
        tau_adp=d_tau_adp,
    )
    g_below = None
    if need_g_below:
        g_below = (dpre.reshape(-1, n) @ layer.w_in.T).reshape(t_steps, batch, -1)
    return grads, g_below


def _loss_and_seeds(decode: str, last: LayerTrace, targets):
    """Loss, external/direct seeds for the top layer, and accuracy stats.

    Returns (loss_sum, g_ext, g_direct, correct, total_preds). Seeds are
    gradients of the summed-over-batch loss.
    """
    t_steps, batch, n_cls = last.u.shape
    targets = np.asarray(targets)
    if decode == "spike_count":
        labels = targets.reshape(-1).astype(int)
        if labels.shape[0] != batch:
            raise ValueError("spike_count decoding needs one label per sequence")
        z = last.y.sum(axis=0)
        p = _softmax(z)
        picked = p[np.arange(batch), labels]
        loss = float(-np.log(np.maximum(picked, 1e-300)).sum())
        dz = p.copy()
        dz[np.arange(batch), labels] -= 1.0
        g_ext = np.broadcast_to(dz, (t_steps, batch, n_cls))
        correct = int((np.argmax(z, axis=1) == labels).sum())
        return loss, g_ext, None, correct, batch

    # membrane decoders score every step
    probs = _softmax(last.u)
    if targets.ndim <= 1:
        labels = targets.reshape(-1).astype(int)
        if labels.shape[0] != batch:
            raise ValueError("one label per sequence is required")
        labels_tb = np.broadcast_to(labels, (t_steps, batch))
        pred = np.argmax(last.u.mean(axis=0), axis=1)
        correct = int((pred == labels).sum())
        total = batch
    else:
        if targets.shape != (batch, t_steps):
            raise ValueError(f"step labels must be (batch, t_steps)="
                             f"({batch}, {t_steps}), got {targets.shape}")
        labels_tb = np.ascontiguousarray(targets.T.astype(int))
        pred = np.argmax(last.u, axis=2)
        correct = int((pred == labels_tb).sum())
        total = batch * t_steps
    ti = np.arange(t_steps)[:, None]
    bi = np.arange(batch)[None, :]
    picked = probs[ti, bi, labels_tb]
    loss = float(-np.log(np.maximum(picked, 1e-300)).sum())
    g_direct = probs.copy()
    g_direct[ti, bi, labels_tb] -= 1.0
    return loss, None, g_direct, correct, total


def _stack_backward(layers, traces, bottom_y, g_ext_top, g_direct_top,
                    surrogate, soft, train_tau_m, train_tau_adp):
    """Gradients of a layer stack; the input's own gradient is never formed."""
    grads: list = [None] * len(layers)
    g_ext = g_ext_top
    g_direct = g_direct_top
    for i in range(len(layers) - 1, -1, -1):
        below = traces[i - 1].y if i > 0 else bottom_y
        grads[i], g_ext = _layer_backward(
            layers[i], traces[i], below, g_ext, g_direct, surrogate, soft,
            train_tau_m, train_tau_adp, need_g_below=i > 0)
        g_direct = None
    return grads


def backward(net, trace, targets, surrogate: SurrogateKind,
             train_tau_m: bool = True, train_tau_adp: bool = True) -> GradientSet:
    """BPTT over a recorded trace. Gradients are sums over the batch."""
    if isinstance(net, BidirectionalNetwork) != isinstance(trace, BidirectionalTrace):
        raise TypeError("network and trace kinds do not match")
    decode = net.spec.decode

    if isinstance(net, BidirectionalNetwork):
        loss, g_ext, g_dir, correct, total = _loss_and_seeds(decode, trace.head, targets)
        head = net.forward_net.layers[-1]
        head_grads, g_merged = _layer_backward(
            head, trace.head, trace.merged, g_ext, g_dir, surrogate, trace.soft,
            train_tau_m, train_tau_adp)
        fwd_hidden = net.forward_net.layers[:-1]
        bwd_hidden = net.backward_net.layers
        fwd_grads = _stack_backward(
            fwd_hidden, trace.fwd_layers, trace.inputs, 0.5 * g_merged, None,
            surrogate, trace.soft, train_tau_m, train_tau_adp)
        bwd_grads = _stack_backward(
            bwd_hidden, trace.bwd_layers, trace.inputs[::-1], 0.5 * g_merged[::-1],
            None, surrogate, trace.soft, train_tau_m, train_tau_adp)
        layers = fwd_grads + [head_grads] + bwd_grads
        return GradientSet(layers=layers, loss=loss, correct=correct,
                           total_preds=total)

    loss, g_ext, g_dir, correct, total = _loss_and_seeds(decode, trace.layers[-1], targets)
    grads = _stack_backward(net.layers, trace.layers, trace.inputs, g_ext, g_dir,
                               surrogate, trace.soft, train_tau_m, train_tau_adp)
    return GradientSet(layers=grads, loss=loss, correct=correct, total_preds=total)


def forward_any(net, x, soft: bool = False):
    if isinstance(net, BidirectionalNetwork):
        return forward_bidirectional(net.forward_net, net.backward_net, x, soft=soft)
    return forward_sequence(net, x, soft=soft)


def trace_firing_rate(trace) -> tuple[float, float]:
    """(spike sum, step*unit count) over the spiking layers of a trace."""
    if isinstance(trace, BidirectionalTrace):
        layer_traces = trace.fwd_layers + trace.bwd_layers
    else:
        layer_traces = trace.layers
    spikes = 0.0
    denom = 0.0
    for lt in layer_traces:
        if lt.spiking and not trace.soft:
            spikes += float(lt.y.sum())
            denom += lt.y.size
    return spikes, denom


def step_probs(trace, decode: str) -> np.ndarray:
    """Per-step class probabilities (T, B, C) under the given decoder.

    Spike counting uses the running cumulative count up to each step.
    """
    last = trace.head if isinstance(trace, BidirectionalTrace) else trace.layers[-1]
    if decode == "spike_count":
        return _softmax(np.cumsum(last.y, axis=0))
    return _softmax(last.u)


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
        m, v = [], []
        for layer in flat_layers(net):
            m.append({k: np.zeros_like(a) if a is not None else None
                      for k, a in layer.param_arrays().items()})
            v.append({k: np.zeros_like(a) if a is not None else None
                      for k, a in layer.param_arrays().items()})
        return cls(m=m, v=v)


def adam_step(net, grads: GradientSet, state: AdamState, lr: float):
    """One Adam update in place; time constants are clamped afterwards."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for layer, lg, m, v in zip(flat_layers(net), grads.layers, state.m, state.v):
        params = layer.param_arrays()
        for name, p in params.items():
            g = lg.arrays()[name]
            if p is None or g is None:
                continue
            m[name] = state.beta1 * m[name] + (1.0 - state.beta1) * g
            v[name] = state.beta2 * v[name] + (1.0 - state.beta2) * g * g
            m_hat = m[name] / bc1
            v_hat = v[name] / bc2
            p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
        lo, hi = layer.spec.dt, 1e4 * layer.spec.dt
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
    loss: str = "ce"
    seed: int = 0
    train_tau_m: bool = True
    train_tau_adp: bool = True
    chunk_size: int = 16
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.minibatch < 1 or self.chunk_size < 1:
            raise ValueError("minibatch and chunk_size must be at least 1")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}")


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
        lines = [",".join(self.COLUMNS)]
        for r in self.rows:
            lines.append(",".join([
                str(r["epoch"]), r["split"], repr(r["loss"]), repr(r["accuracy"]),
                repr(r["mean_firing_rate"]), repr(r["lr"])]))
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_csv_text())


def _chunk_job(net, inputs, targets, config):
    trace = forward_any(net, inputs)
    grads = backward(net, trace, targets, config.surrogate,
                     train_tau_m=config.train_tau_m,
                     train_tau_adp=config.train_tau_adp)
    spikes, denom = trace_firing_rate(trace)
    return grads, spikes, denom


def _batch_gradients(net, inputs, labels, idx, config, pool):
    """Summed gradients over the samples in idx, reduced in fixed order."""
    chunks = [idx[i:i + config.chunk_size] for i in range(0, len(idx), config.chunk_size)]
    jobs = [(net, inputs[c], labels[c], config) for c in chunks]
    if pool is None:
        results = [_chunk_job(*j) for j in jobs]
    else:
        results = list(pool.map(lambda j: _chunk_job(*j), jobs))
    total = zero_grads(net)
    spikes = 0.0
    denom = 0.0
    for grads, sp, dn in results:
        total.add_(grads)
        spikes += sp
        denom += dn
    return total, spikes, denom


def _check_finite(net, epoch: int) -> None:
    """Raise FloatingPointError naming the first non-finite parameter family."""
    for i, layer in enumerate(flat_layers(net)):
        for name, p in layer.param_arrays().items():
            if p is not None and not np.isfinite(p).all():
                raise FloatingPointError(f"training diverged at epoch {epoch}: "
                                         f"{name} of layer {i} is not finite")


def fit(spec, train_data, config: TrainingConfig, eval_data=None, threads: int = 1):
    """Train a network on a dataset. Returns (network, MetricsLog).

    `spec` may be a NetworkSpec (a fresh network is drawn from its seed) or
    an already-initialized network. `train_data` needs `.inputs` of shape
    (S, T, N) and `.labels` of shape (S,) or (S, T). The log gains one
    train row per epoch, plus an eval row when eval_data is given.
    Raises FloatingPointError as soon as an Adam step leaves a parameter
    non-finite, and when an epoch's mean loss is not finite.
    """
    net = init_network(spec) if isinstance(spec, NetworkSpec) else spec
    inputs = np.asarray(train_data.inputs, dtype=float)
    labels = np.asarray(train_data.labels)
    if labels.ndim == 2 and config.loss == "ce":
        raise ValueError("per-step labels need loss='nll_streaming'")
    if labels.ndim == 1 and config.loss == "nll_streaming":
        raise ValueError("loss='nll_streaming' needs per-step labels")
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
            order = rng.permutation(n) if config.shuffle else np.arange(n)
            ep_loss = 0.0
            ep_correct = 0
            ep_total = 0
            ep_spikes = 0.0
            ep_denom = 0.0
            for start in range(0, n, config.minibatch):
                batch_idx = np.sort(order[start:start + config.minibatch])
                grads, spikes, denom = _batch_gradients(
                    net, inputs, labels, batch_idx, config, pool)
                ep_loss += grads.loss
                ep_correct += grads.correct
                ep_total += grads.total_preds
                ep_spikes += spikes
                ep_denom += denom
                grads.scale_(1.0 / len(batch_idx))
                adam_step(net, grads, adam, lr)
                _check_finite(net, epoch)
            mean_loss = ep_loss / n
            if not math.isfinite(mean_loss):
                raise FloatingPointError(f"training diverged at epoch {epoch}")
            fr = ep_spikes / ep_denom if ep_denom else 0.0
            log.append(epoch, "train", mean_loss, ep_correct / max(ep_total, 1), fr, lr)
            if eval_data is not None:
                rep = evaluate(net, eval_data)
                log.append(epoch, "eval", rep.loss, rep.accuracy, rep.firing_rate, lr)
    finally:
        if pool is not None:
            pool.shutdown()
    return net, log


@dataclass
class EvalReport:
    loss: float
    accuracy: float
    firing_rate: float
    n_samples: int


def evaluate(net, data, chunk_size: int = 64) -> EvalReport:
    """Mean loss, accuracy and firing rate of a network on a dataset."""
    inputs = np.asarray(data.inputs, dtype=float)
    labels = np.asarray(data.labels)
    n = inputs.shape[0]
    decode = net.spec.decode
    loss_sum = 0.0
    correct = 0
    total = 0
    spikes = 0.0
    denom = 0.0
    for start in range(0, n, chunk_size):
        sl = slice(start, min(start + chunk_size, n))
        trace = forward_any(net, inputs[sl])
        last = trace.head if isinstance(trace, BidirectionalTrace) else trace.layers[-1]
        loss, _, _, c, tp = _loss_and_seeds(decode, last, labels[sl])
        loss_sum += loss
        correct += c
        total += tp
        sp, dn = trace_firing_rate(trace)
        spikes += sp
        denom += dn
    fr = spikes / denom if denom else 0.0
    return EvalReport(loss=loss_sum / max(n, 1), accuracy=correct / max(total, 1),
                      firing_rate=fr, n_samples=n)
