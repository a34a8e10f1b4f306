"""Multi-layer recurrent network assembly, forward passes, and model files.

A network is a stack of layers; at step t layer l receives the step-t
output of layer l-1 (the input vector for layer 1, injected as current)
plus, if the layer is recurrent, its own output from step t-1 through a
square recurrent matrix. Forward passes record a per-layer trace which
the trainer consumes: the membrane, the output (spikes as bytes) and, on
adaptive layers, marks from which the adaptation variable is replayed.

Every network is a hidden stack, possibly empty, and a head, the last of
`layers`, which reads `merged`: the last hidden output, or the input. A
bidirectional network (spec.bidirectional) keeps a second hidden stack
of the same shape in `back`, run on the time-reversed input, and merged_t
= (y_t of the last forward layer + y_t of the last back layer, re-aligned
to input time) / 2. Both stacks need the whole sequence, so the online
API rejects such a network. `layers + back` is the canonical order of
trainable layers; gradients, optimizer state and cost accounting follow it.

All four neuron kinds run one leaky membrane recursion,

    u_t = decay * held_t + gain * pre_t  [- theta_{t-1} * y_{t-1}]

    kind     decay            reset                  output y_t
    alif     exp(-dt/tau_m)   threshold decrement    H(u - theta)
    lif      1 - dt/tau_m     to u_r after a spike   H(u - theta)
    relu     exp(-dt/tau_m)   none                   max(0, u)
    readout  1 - dt/tau_m     none                   u

with gain = r_m * (1 - decay). Adaptive layers also carry
eta_t = rho * eta_{t-1} + (1 - rho) * y_{t-1} and fire against
theta_t = b_0 + beta * eta_t. A layer's `Cell` is the one home of these
rules: its coefficients and their derivatives in the time constants, its
threshold, its reset and its adaptation update. Forward passes, the
online step and the reverse sweep in srnn.training all read them from
there.

A sequence runs layer-major: each layer runs over all T steps before
the next starts, writing u and y straight into its trace. A hard-mode
lif or alif trace keeps its spikes as a bool array (one byte per
unit-step); relu and soft-mode layers keep a float y, and a readout's y
is its u. A bool network input (spike data) stays bool in the trace too.
The products that read bool spikes cast them to float: the projection a
block of samples at a time (`_project`), the weight gradient in
srnn.training a block of steps or samples at a time, both sized by
`_cast_rows`, and a step-by-step product a step at a time.
eta is a cheap recurrence over the spikes, so an adaptive trace keeps it
only at the start of every BLOCK_STEPS-step block of the reverse sweep:
eta_{t0-1} for t0 = 0, BLOCK_STEPS, 2*BLOCK_STEPS, ...
(`LayerTrace.eta_marks`). The sweep replays a block's eta from its mark
with `Cell.adapt`, the update the forward pass ran, so the replay is bit
for bit the forward's eta (after Gruslys et al. 2016, "Memory-Efficient
Backpropagation Through Time", arXiv 1606.03401). The drive
pre_t = x_t @ w_in + bias [+ y_{t-1} @ w_rec] is formed in the trace's
u_t, which the step then turns into the membrane; the trace keeps no
drive of its own (the reverse sweep recovers what it needs of it from u,
see srnn.training). Where the drive comes from depends on the kind:

    lif, alif      x @ w_in for all steps at once (one T-row GEMM per
                   sample), written into u; only the recurrent term is
                   added inside the time loop
    relu, readout  x_t @ w_in + bias step by step, as forward_step does

The reason is the online contract: forward_step at batch 1 must give
exactly the outputs of forward_sequence. At batch 1 BLAS computes the
per-step product as a GEMV, whose sums differ in the last bits from a
GEMM over many rows. A spike H(u - theta) absorbs that difference; a
relu or readout output is the membrane and would carry it. Readout heads
are a few units wide, so their per-step drive costs little. Soft mode
has no such contract and hoists every layer's projection.

Layers may also run in a "soft" evaluation mode where the spike
nonlinearity H(u - theta) is replaced by max(0, u - theta) and the reset
pathways act on that continuous output. Nothing in soft mode is
discontinuous, which makes it checkable against finite differences; it
exists for gradient verification, not for deployment. A pass sets its
mode once, in `forward_sequence` or `init_state`: `cell(layer, soft)`
records it on each Cell, where the step and the reverse sweep read it.

The online API streams a batch one step at a time. `init_state` starts a
stream: its LayerState for each layer holds the membrane, the last
output and, on adaptive layers, eta and the threshold theta_{t-1}, plus
a copy of the layer's weights and its Cell, built once in the stream's
mode. `forward_step` reuses that copy and that cell on every step, so a
stream's parameters and mode are fixed at `init_state`: an update of the
network (`adam_step`, `fit`) reaches only the streams started after it.

A stream's spiking layers are event-driven where their weights are wide.
`forward_step` forms a lif or alif layer's x @ w_in, and its y @ w_rec,
on the event path when the matrix has at least EVENT_MIN_ENTRIES entries
(2^15: with two n x n recurrent layers spiking at 2.5%, a step took
longer on the event path at n = 128 and 160 and less at n = 192 and
256). On that path it forms inp @ w as inp[:, r] @ w[r] over the rows r
whose input is nonzero anywhere in the batch, so a step reads only the
weight rows of the inputs that spiked. A call with more than half of the
rows active (dense analog input, a large batch) takes the dense product.
Below the constant the dense product is cheaper than the indexing. relu
and readout layers always take the dense product: their output is the
membrane, which must match forward_sequence bit for bit, while a spike
absorbs the last-bit difference of a sum taken over fewer terms, as it
absorbs the GEMV/GEMM difference above.

A model file (format srnn-model/1) is JSON: the spec, and each layer's
spec and arrays as nested lists, written and read by srnn.jsondoc (the
files in tests/data pin the bytes). `load_model` checks every array
entry (a number, not a bool; an integer within float range; rows of one
length) and every shape against the spec.
"""

from __future__ import annotations

import sys
from itertools import chain
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Literal, Optional, get_args

import numpy as np

from srnn.datasets import input_array
from srnn.jsondoc import dump, load, read

MODEL_FORMAT = "srnn-model/1"

NeuronKind = Literal["lif", "alif", "relu", "readout"]
NEURON_KINDS = get_args(NeuronKind)
SPIKING_KINDS = ("lif", "alif")
DecodeMode = Literal["spike_count", "membrane_softmax", "spiking_membrane_softmax"]
DECODE_MODES = get_args(DecodeMode)
# A spiking layer's weight matrix with at least this many entries takes the
# event product in online streams (see the module docstring).
EVENT_MIN_ENTRIES = 1 << 15
# Time constants stay within [dt, TAU_MAX_DT * dt]: draws are clipped into
# it, Adam steps clamp into it and model files outside it are rejected. The
# reverse sweep divides by 1 - decay, which this keeps from vanishing.
TAU_MAX_DT = 1e4
# Time steps per block of the reverse sweep in srnn.training, and the stride
# of an adaptive trace's eta marks (see the module docstring).
BLOCK_STEPS = 16
# Bool spikes are cast to float in blocks of whole rows of one axis holding
# at most this many entries (1 MiB of floats), and at least one row
# (`_cast_rows`): samples in `_project`, the reduced axis in the weight
# gradient of srnn.training.
CAST_BLOCK_ENTRIES = 1 << 17


@dataclass
class LayerSpec:
    size: int
    neuron: NeuronKind = "alif"
    recurrent: bool = False
    tau_m_init: tuple[float, float] = (20.0, 5.0)
    tau_adp_init: Optional[tuple[float, float]] = None
    theta: float = 1.0
    b_0: float = 1.0
    beta: float = 1.8
    r_m: float = 1.0
    u_r: float = 0.0
    dt: float = 1.0

    def __post_init__(self):
        if self.neuron not in NEURON_KINDS:
            raise ValueError(f"neuron must be one of {NEURON_KINDS}")
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if self.tau_m_init[0] <= 0 or self.tau_m_init[1] < 0:
            raise ValueError("tau_m_init needs positive mean and non-negative std")
        if self.neuron == "alif" and self.tau_adp_init is None:
            self.tau_adp_init = (150.0, 10.0)
        if self.tau_adp_init is not None:
            if self.tau_adp_init[0] <= 0 or self.tau_adp_init[1] < 0:
                raise ValueError("tau_adp_init needs positive mean and non-negative std")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.theta <= self.u_r:
            raise ValueError("theta must exceed u_r")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


@dataclass
class NetworkSpec:
    input_size: int
    layers: list[LayerSpec]
    decode: DecodeMode = "spike_count"
    bidirectional: bool = False
    seed: int = 0
    zero_init_membrane: bool = False

    def __post_init__(self):
        if self.input_size < 1:
            raise ValueError("input_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.layers:
            raise ValueError("at least one layer is required")
        if self.decode not in DECODE_MODES:
            raise ValueError(f"decode must be one of {DECODE_MODES}")
        last = self.layers[-1].neuron
        if self.decode == "spike_count" and last not in SPIKING_KINDS:
            raise ValueError("spike_count decoding needs a spiking output layer")
        if self.decode == "membrane_softmax" and last != "readout":
            raise ValueError("membrane_softmax decoding needs a readout output layer")
        if self.decode == "spiking_membrane_softmax" and last != "alif":
            raise ValueError("spiking_membrane_softmax needs an adaptive spiking output layer")
        if self.bidirectional:
            if last != "readout":
                raise ValueError("a bidirectional network ends in a readout integrator")
            if len(self.layers) < 2:
                raise ValueError("a bidirectional network needs at least one hidden layer")


@dataclass
class Layer:
    """Concrete weights and per-neuron time constants of one layer."""

    spec: LayerSpec
    w_in: np.ndarray                 # (fan_in, size)
    w_rec: Optional[np.ndarray]      # (size, size) or None
    bias: np.ndarray                 # (size,)
    tau_m: np.ndarray                # (size,)
    tau_adp: Optional[np.ndarray]    # (size,) or None
    u_init: np.ndarray               # (size,)

    @property
    def size(self) -> int:
        return self.spec.size

    @property
    def fan_in(self) -> int:
        return self.w_in.shape[0]

    def param_arrays(self) -> dict[str, Optional[np.ndarray]]:
        """The trainable arrays by name, None where absent; gradients are keyed alike."""
        return {"w_in": self.w_in, "w_rec": self.w_rec, "bias": self.bias,
                "tau_m": self.tau_m, "tau_adp": self.tau_adp}


@dataclass
class Network:
    spec: NetworkSpec
    layers: list[Layer]              # input to head; the forward stack if bidirectional
    back: list[Layer] = field(default_factory=list)   # reversed-time hidden stack

    @property
    def all_layers(self) -> list[Layer]:
        """Every trainable layer in canonical order."""
        return self.layers + self.back


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def _init_layer(rng: np.random.Generator, spec: LayerSpec, fan_in: int,
                zero_init_membrane: bool) -> Layer:
    limit = np.sqrt(6.0 / (fan_in + spec.size))
    w_in = rng.uniform(-limit, limit, size=(fan_in, spec.size))
    w_rec = _orthogonal(rng, spec.size) if spec.recurrent else None
    bias = np.zeros(spec.size)
    lo, hi = spec.dt, TAU_MAX_DT * spec.dt
    tau_m = np.clip(rng.normal(*spec.tau_m_init, size=spec.size), lo, hi)
    tau_adp = None
    if spec.neuron == "alif":
        tau_adp = np.clip(rng.normal(*spec.tau_adp_init, size=spec.size), lo, hi)
    if zero_init_membrane or spec.neuron not in SPIKING_KINDS:
        u_init = np.zeros(spec.size)
    else:
        resting_theta = spec.theta if spec.neuron == "lif" else spec.b_0
        u_init = rng.uniform(*sorted((0.0, resting_theta)), size=spec.size)
    return Layer(spec=spec, w_in=w_in, w_rec=w_rec, bias=bias,
                 tau_m=tau_m, tau_adp=tau_adp, u_init=u_init)


def init_network(spec: NetworkSpec, seed: Optional[int] = None):
    """Draw all weights and time constants; deterministic in the seed.

    Input weights are Xavier-uniform, recurrent weights orthogonal, biases
    zero. Time constants are normal draws clamped into [dt, 1e4*dt].
    Spiking membranes start uniform between 0 and the resting threshold,
    whatever its sign, unless the spec asks for zeros. Draws run over the
    hidden stack, the back stack if bidirectional, then the head.
    """
    rng = np.random.default_rng(spec.seed if seed is None else seed)

    def stack(specs: list[LayerSpec], fan_in: int) -> list[Layer]:
        layers = []
        for lspec in specs:
            layers.append(_init_layer(rng, lspec, fan_in, spec.zero_init_membrane))
            fan_in = lspec.size
        return layers

    hidden = spec.layers[:-1]
    fwd = stack(hidden, spec.input_size)
    back = stack(hidden, spec.input_size) if spec.bidirectional else []
    head = stack(spec.layers[-1:], fwd[-1].size if fwd else spec.input_size)
    return Network(spec=spec, layers=fwd + head, back=back)


@dataclass(slots=True)
class LayerState:
    """One layer of an online stream after some step (see init_state)."""

    u: np.ndarray                    # (B, n)
    y: np.ndarray                    # previous output, (B, n)
    eta: Optional[np.ndarray]        # (B, n) for adaptive layers
    theta: Optional[np.ndarray]      # (B, n) b_0 + beta*eta, for adaptive layers
    layer: Layer                     # the stream's copy of the layer's weights
    cell: Cell                       # cell(layer, soft), built by init_state


@dataclass
class LayerTrace:
    cell: Cell                       # the cell the trace was run with
    u: np.ndarray                    # (T, B, n) membrane after the update; holds
                                     # the drive pre_t until step t runs
    y: np.ndarray                    # (T, B, n) emitted output: bool spikes on a
                                     # hard lif/alif layer, u itself on a readout
    eta_marks: Optional[np.ndarray]  # (ceil(T / BLOCK_STEPS), B, n) on adaptive
                                     # layers: eta_{t0-1} for t0 = 0, BLOCK_STEPS, ...
    u_init: np.ndarray               # (B, n)
    y_init: np.ndarray               # (B, n)

    @property
    def spiking(self) -> bool:
        return self.cell.kind in SPIKING_KINDS

    @property
    def eta(self) -> Optional[np.ndarray]:
        """(T, B, n) adaptation replayed from the first mark; theta = b_0 + beta*eta."""
        if self.eta_marks is None:
            return None
        eta = np.empty((len(self.u) + 1,) + self.u.shape[1:])
        if len(self.u):                # an empty trace has no marks
            y_prev = np.concatenate([self.y_init[None], self.y[:-1]])
            self.cell.replay_eta(self.eta_marks[0], y_prev, eta)
        return eta[1:]


@dataclass
class ForwardTrace:
    inputs: np.ndarray               # (T, B, N), bool spikes or float
    layers: list[LayerTrace]         # one per layer of Network.layers
    merged: np.ndarray               # (T, B, n) every head's input (see forward_sequence)
    back: list[LayerTrace] = field(default_factory=list)  # in reversed input time

    @property
    def soft(self) -> bool:
        """The mode the pass ran in, as its cells record it."""
        return self.head.cell.soft

    @property
    def t_steps(self) -> int:
        return self.inputs.shape[0]

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[1]

    @property
    def head(self) -> LayerTrace:
        return self.layers[-1]

    @property
    def all_layers(self) -> list[LayerTrace]:
        """Layer traces in the order of Network.all_layers."""
        return self.layers + self.back


def _online(net: Network) -> None:
    if net.back:
        raise ValueError("a bidirectional network needs the whole sequence")


def init_state(net: Network, batch: int, soft: bool = False) -> list[LayerState]:
    """Start an online stream of `batch` samples: one LayerState per layer.

    Each state holds a copy of its layer's weights and time constants and
    its Cell in the given mode, built here once for every forward_step of
    the stream. So the stream's parameters and mode are fixed at this
    call: start a new stream to run an updated network.
    """
    _online(net)
    states = []
    for layer in net.layers:
        frozen = replace(layer, **{k: None if a is None else a.copy()
                                   for k, a in layer.param_arrays().items()})
        c = cell(frozen, soft)
        states.append(LayerState(*_initial(frozen, c, batch), frozen, c))
    return states


@dataclass(slots=True)
class Cell:
    """One layer's dynamics over a sequence, its kind's rules included."""

    kind: str                        # spec.neuron, read on every step
    spec: LayerSpec
    soft: bool                       # the pass's mode: max(0, u - theta) for H(u - theta)
    decay: np.ndarray                # (n,) d u_t / d held_t
    gain: np.ndarray                 # (n,) d u_t / d pre_t
    decay_tau: np.ndarray            # (n,) d decay / d tau_m; gain moves as -r_m times it
    rho: Optional[np.ndarray] = None       # (n,) eta retention on adaptive layers
    eta_gain: Optional[np.ndarray] = None  # (n,) 1 - rho, d eta_t / d y_{t-1}
    rho_tau: Optional[np.ndarray] = None   # (n,) d rho / d tau_adp

    def threshold(self, eta: Optional[np.ndarray]):
        """theta: spec.theta, or b_0 + beta * eta in a fresh array on adaptive layers."""
        if self.rho is None:
            return self.spec.theta
        theta = self.spec.beta * eta
        theta += self.spec.b_0
        return theta

    def held(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The membrane the next step decays from: a lif unit rests at u_r after a spike."""
        if self.kind == "lif":
            return u * (1.0 - y) + self.spec.u_r * y
        return u

    def adapt(self, eta: np.ndarray, kick: np.ndarray, out=None) -> np.ndarray:
        """eta_t = rho * eta_{t-1} + kick, with kick = eta_gain * y_{t-1}, into out."""
        out = np.multiply(self.rho, eta, out=out)
        out += kick
        return out

    def replay_eta(self, mark: np.ndarray, y_prev: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Replay eta from mark = eta_{t0-1} over the k rows y_prev = y_{t0-1..t0+k-2}.

        out, (k + 1, B, n), gets eta_{t0-1+i} in row i: the forward pass's
        `adapt` calls, bit for bit, with all k kicks formed in one product.
        """
        kick = self.eta_gain * y_prev
        out[0] = mark
        for i, kick_i in enumerate(kick):
            self.adapt(out[i], kick_i, out[i + 1])
        return out


def cell(layer: Layer, soft: bool = False) -> Cell:
    """The layer's Cell in the given mode (see the module docstring)."""
    s = layer.spec
    if s.neuron in ("alif", "relu"):
        decay = np.exp(-s.dt / layer.tau_m)
        gain = (1.0 - decay) * s.r_m
        decay_tau = decay * s.dt / layer.tau_m ** 2
    else:
        decay = 1.0 - s.dt / layer.tau_m
        gain = s.r_m * s.dt / layer.tau_m
        decay_tau = s.dt / layer.tau_m ** 2
    if layer.tau_adp is None:
        return Cell(s.neuron, s, soft, decay, gain, decay_tau)
    rho = np.exp(-s.dt / layer.tau_adp)
    return Cell(s.neuron, s, soft, decay, gain, decay_tau, rho, 1.0 - rho,
                rho * s.dt / layer.tau_adp ** 2)


def _initial(layer: Layer, c: Cell, batch: int) -> tuple:
    """The (u, y, eta, theta) a batch starts from; eta, theta None without adaptation.

    u is copied C-ordered: astype on the broadcast view gives F order,
    which can change BLAS's sum order in the products downstream.
    """
    shape = (batch, layer.size)
    u = np.broadcast_to(layer.u_init, shape).copy()
    eta = None if c.rho is None else np.zeros(shape)
    return u, np.zeros(shape), eta, None if eta is None else c.threshold(eta)


def _step_layer(c: Cell, pre: np.ndarray, prev: tuple,
                out: tuple = (None, None, None)) -> tuple:
    """Advance one layer one step. Returns the new (u, y, eta, theta).

    `pre` holds the step's whole drive, the recurrent term y_{t-1} @ w_rec
    included; it may be out's u itself, which the step overwrites. `prev`
    is the (u, y, eta, theta) the step starts from; eta and theta are None
    on layers without adaptation. The new u, y and eta are written into the
    arrays of `out` (rows of a trace; a bool y takes the spikes as they
    are), or into fresh arrays where `out` holds None; a readout's y is
    its u, and theta is always fresh, as the next step reads it for its
    threshold kick. The gain term comes first so that a drive held in u
    can be scaled in place; addition commutes, so u is bit for bit
    decay * held + gain * pre.
    """
    u0, y0, eta0, theta0 = prev
    u, y, eta = out
    u = np.multiply(c.gain, pre, out=u)
    u += c.decay * c.held(u0, y0)
    if c.rho is not None:
        u -= theta0 * y0
        eta = c.adapt(eta0, c.eta_gain * y0, out=eta)
    theta = c.threshold(eta)
    if c.kind == "readout":
        y = u
    elif c.kind == "relu":
        y = np.maximum(0.0, u, out=y)
    elif c.soft:
        y = np.maximum(0.0, np.subtract(u, theta, out=y), out=y)
    else:
        y = np.greater_equal(u, theta, out=np.empty_like(u) if y is None else y)
    return u, y, eta, None if c.rho is None else theta


def _event_product(inp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """inp @ w from the rows of w whose input is nonzero anywhere in the batch.

    A batch with more than half of the rows active takes the dense product.
    """
    r = inp.any(axis=0).nonzero()[0]
    if 2 * r.size > len(w):
        return inp @ w
    return inp.take(r, axis=1) @ w.take(r, axis=0)


def forward_step(net: Network, x_t: np.ndarray, states: list[LayerState]):
    """One synchronous step through the stack. Returns (states', outputs).

    `x_t` is one step of input, (N,) or (B, N). `states` comes from
    init_state or the previous forward_step of the same stream, one entry
    per layer of `net`. The step runs on the weights and cells those
    states carry, in their mode, all fixed when the stream started. A
    spiking layer's products with at least EVENT_MIN_ENTRIES weights take
    the event path (see the module docstring).
    """
    _online(net)
    if len(states) != len(net.layers):
        raise ValueError(f"expected one state per layer ({len(net.layers)}), "
                         f"got {len(states)}")
    x_t = np.asarray(x_t, dtype=float)
    squeeze = x_t.ndim == 1
    inp = x_t[None, :] if squeeze else x_t
    if inp.shape[-1] != net.spec.input_size:
        raise ValueError(f"expected {net.spec.input_size} input channels, "
                         f"got {inp.shape[-1]}")
    new_states, outputs = [], []
    for st in states:
        layer, c = st.layer, st.cell
        w_in, w_rec = layer.w_in, layer.w_rec
        wide = w_in.size >= EVENT_MIN_ENTRIES and c.kind in SPIKING_KINDS
        pre = _event_product(inp, w_in) if wide else inp @ w_in
        pre += layer.bias
        if w_rec is not None:
            wide = w_rec.size >= EVENT_MIN_ENTRIES and c.kind in SPIKING_KINDS
            pre += _event_product(st.y, w_rec) if wide else st.y @ w_rec
        u, y, eta, theta = _step_layer(c, pre, (st.u, st.y, st.eta, st.theta))
        new_states.append(LayerState(u, y, eta, theta, layer, c))
        outputs.append(y[0] if squeeze else y)
        inp = y
    return new_states, outputs


def _as_time_batch(x: np.ndarray) -> np.ndarray:
    x = input_array(x)
    if x.ndim == 2:          # (T, N) single sequence
        return x[:, None, :]
    if x.ndim == 3:          # (B, T, N) batch
        return np.swapaxes(x, 0, 1)
    raise ValueError("input must be (T, N) or (B, T, N)")


def _checked_input(x, width: int) -> np.ndarray:
    x_tbn = _as_time_batch(x)
    if x_tbn.shape[2] != width:
        raise ValueError(f"expected {width} input channels, got {x_tbn.shape[2]}")
    if x_tbn.dtype != bool and not np.all(np.isfinite(x_tbn)):
        raise ValueError("input contains non-finite values")
    return x_tbn


def _cast_rows(row_entries: int) -> int:
    """Rows per cast block, for rows of `row_entries` entries each."""
    return max(1, CAST_BLOCK_ENTRIES // max(1, row_entries))


def _project(inp: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """out[t] = inp[t] @ w for every step t, as one T-row GEMM per sample.

    Both arrays are read through their (B, T, .) transposes, which BLAS
    reads and writes in place for either memory order: the network input
    is the swapped axes of a (B, T, N) array, a deeper layer's input the
    time-major y of the layer below. A time-reversed view is flipped
    first, together with `out`. (With OpenBLAS, a single GEMM over all
    T*B rows of a time-major input is no faster and left up to 21 MiB
    more memory resident at T=250, B=64, n=256.) Bool spikes, of the
    network input or of a hard layer below, are cast to float a block of
    samples at a time (`_cast_rows`), into the C-ordered layout
    matmul would cast the whole array into, so each sample's GEMM reads
    the same floats and no float copy of a large input is made. (Casting
    one sample at a time took about 1.7 times as long at quickstart
    sizes, T=50, B=16.)
    """
    if inp.strides[0] < 0:
        inp, out = inp[::-1], out[::-1]
    if inp.dtype == bool:
        step = _cast_rows(inp.shape[0] * inp.shape[2])
        for b in range(0, inp.shape[1], step):
            block = np.ascontiguousarray(inp[:, b:b + step].transpose(1, 0, 2), dtype=float)
            np.matmul(block, w, out=out[:, b:b + step].transpose(1, 0, 2))
        return
    np.matmul(inp.transpose(1, 0, 2), w, out=out.transpose(1, 0, 2))


def _run_layers(layers: list[Layer], x_tbn: np.ndarray, soft: bool) -> list[LayerTrace]:
    """Run the stack layer by layer over the whole sequence; one trace each.

    Each step's drive is formed in the trace's u_t, which `_step_layer`
    then turns into the membrane in place. Spiking layers (every layer in
    soft mode) take their feed-forward drive for all steps from
    `_project`; the others form it step by step, as `forward_step` does
    (see the module docstring). Hard spiking layers write their spikes
    into a bool y, and the next step reads a float copy of them: numpy
    multiplies a float by a bool array at about half the speed of two
    float arrays. eta runs in two (B, n) buffers in turn, and the one a
    block starts from is copied into the trace's marks.
    """
    traces, inp = [], x_tbn
    for layer in layers:
        c = cell(layer, soft)
        prev = _initial(layer, c, inp.shape[1])
        shape = inp.shape[:2] + (layer.size,)
        u = np.empty(shape)
        spikes = None
        if c.kind == "readout":
            y = u
        elif c.kind in SPIKING_KINDS and not c.soft:
            y, spikes = np.empty(shape, dtype=bool), np.empty(shape[1:])
        else:
            y = np.empty(shape)
        marks = None
        if c.rho is not None:
            marks = np.empty(((shape[0] + BLOCK_STEPS - 1) // BLOCK_STEPS,) + shape[1:])
            etas = (np.empty(shape[1:]), np.empty(shape[1:]))
        tr = LayerTrace(cell=c, u=u, y=y, eta_marks=marks, u_init=prev[0], y_init=prev[1])
        hoisted = c.soft or c.kind in SPIKING_KINDS
        if hoisted:
            _project(inp, layer.w_in, u)
            u += layer.bias
        for t, pre in enumerate(u):
            if not hoisted:
                np.matmul(inp[t], layer.w_in, out=pre)
                pre += layer.bias
            if layer.w_rec is not None:
                pre += prev[1] @ layer.w_rec
            eta = None
            if marks is not None:
                if t % BLOCK_STEPS == 0:
                    marks[t // BLOCK_STEPS] = prev[2]
                eta = etas[t % 2]
            prev = _step_layer(c, pre, prev, (pre, y[t], eta))
            if spikes is not None:
                spikes[...] = prev[1]
                prev = (prev[0], spikes) + prev[2:]
        traces.append(tr)
        inp = y
    return traces


def forward_sequence(net: Network, x, soft: bool = False) -> ForwardTrace:
    """Run a full sequence (or batch of sequences) and record the trace.

    Accepts (T, N) for one sequence or (B, T, N) for a batch; the trace is
    always time-major with an explicit batch axis. Its `inputs` are bool
    spikes as given, one byte an entry, or else the input cast to float
    (see the module docstring). `merged` is the head's input: the last
    hidden y (not a copy, so bool spikes in hard mode), the input, or both
    tops' mean, a float array (bool + bool would be an OR).
    """
    x_tbn = _checked_input(x, net.spec.input_size)
    fwd = _run_layers(net.layers[:-1], x_tbn, soft)
    back = _run_layers(net.back, x_tbn[::-1], soft)
    merged = fwd[-1].y if fwd else x_tbn
    if back:
        merged = 0.5 * np.add(merged, back[-1].y[::-1], dtype=float)
    head = _run_layers(net.layers[-1:], merged, soft)
    return ForwardTrace(inputs=x_tbn, layers=fwd + head, merged=merged, back=back)


def _array_entry(v, where: str) -> np.ndarray:
    """A model-file array: a number, a row of numbers or equal rows of them.

    Raises ValueError naming `where` (layer and field) for an entry that is
    not a JSON number (a string, a bool, null, a list in a row), an integer
    beyond float range, rows of unequal length or nesting past two levels.
    """
    depth, probe = 0, v
    while type(probe) is list:
        depth += 1
        probe = probe[0] if probe else None
    if depth > 2:
        raise ValueError(f"{where}: nested {depth} lists deep, expected rows of numbers")
    rows = v if depth == 2 else [v] if depth else [[v]]
    if depth == 2 and any(type(r) is not list or len(r) != len(v[0]) for r in v):
        raise ValueError(f"{where}: ragged rows")
    if not set(map(type, chain.from_iterable(rows))) <= {float}:
        for x in chain.from_iterable(rows):
            if type(x) not in (float, int):
                raise ValueError(f"{where}: expected numbers, got {x!r}")
            if type(x) is int and abs(x) > sys.float_info.max:
                raise ValueError(f"{where}: an integer beyond float range")
    return np.array(v, dtype=float)


def _layer_from_dict(d: dict, stack: str, i: int) -> Layer:
    arrays = {f.name: None if d[f.name] is None
              else _array_entry(d[f.name], f"{stack}[{i}].{f.name}")
              for f in fields(Layer) if f.name != "spec"}
    return Layer(spec=read(LayerSpec, d["spec"], f"{stack}/{i}/spec", complete=True),
                 **arrays)


def _stack_keys(spec: NetworkSpec) -> tuple[str, Optional[str]]:
    """Model-file keys of the layer stacks (layers, back)."""
    return ("forward_layers", "backward_layers") if spec.bidirectional else ("layers", None)


def save_model(net: Network, path) -> None:
    """Write a network to a JSON model file (format srnn-model/1), every
    array as nested lists, with srnn.jsondoc.dump."""
    front, back = _stack_keys(net.spec)
    doc = {"format": MODEL_FORMAT, "spec": asdict(net.spec),
           front: [dict(vars(l), spec=asdict(l.spec)) for l in net.layers]}
    if back:
        doc[back] = [dict(vars(l), spec=asdict(l.spec)) for l in net.back]
    dump(doc, path)


def _check_stack(layers: list[Layer], specs: list[LayerSpec], fan_in: int,
                 name: str) -> None:
    """Raise ValueError naming the layer and field that contradict the spec."""
    if len(layers) != len(specs):
        raise ValueError(f"{name} holds {len(layers)} layers, the spec {len(specs)}")
    for i, (layer, spec) in enumerate(zip(layers, specs)):
        where, n = f"{name}[{i}]", spec.size
        if layer.spec != spec:
            raise ValueError(f"{where}.spec differs from the network spec")
        shapes = {"w_in": (fan_in, n), "w_rec": (n, n) if spec.recurrent else None,
                  "bias": (n,), "tau_m": (n,),
                  "tau_adp": (n,) if spec.neuron == "alif" else None, "u_init": (n,)}
        arrays = dict(layer.param_arrays(), u_init=layer.u_init)
        for field, shape in shapes.items():
            a = arrays[field]
            got = None if a is None else a.shape
            if got != shape:
                want, have = ("null" if v is None else f"shape {v}" for v in (shape, got))
                raise ValueError(f"{where}.{field}: expected {want}, got {have}")
            if a is None:
                continue
            if not np.isfinite(a).all():
                raise ValueError(f"{where}.{field}: not finite")
            if field.startswith("tau") and (a < spec.dt).any():
                raise ValueError(f"{where}.{field}: below dt = {spec.dt}")
            if field.startswith("tau") and (a > TAU_MAX_DT * spec.dt).any():
                raise ValueError(f"{where}.{field}: above {TAU_MAX_DT:g} * dt")
        fan_in = n


def load_model(path) -> Network:
    """Read a JSON model file written by save_model.

    A file that is not a well-formed model raises ValueError: a missing
    entry is named by its key, a spec is read by srnn.jsondoc with every
    field required and is named by its path, and an array that contradicts
    the spec (its shape, presence, finiteness, or a time constant outside
    [dt, TAU_MAX_DT * dt]) by its layer and field.
    """
    doc = load(path)
    if not isinstance(doc, dict):
        raise ValueError("model file is not a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format: {doc.get('format')!r}")
    try:
        spec = read(NetworkSpec, doc["spec"], "spec", complete=True)
        front, back = _stack_keys(spec)
        net = Network(spec=spec, layers=[_layer_from_dict(d, front, i)
                                         for i, d in enumerate(doc[front])])
        _check_stack(net.layers, spec.layers, spec.input_size, front)
        if back:
            net.back = [_layer_from_dict(d, back, i) for i, d in enumerate(doc[back])]
            _check_stack(net.back, spec.layers[:-1], spec.input_size, back)
    except KeyError as e:
        raise ValueError(f"model file lacks key {e.args[0]!r}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed model file: {e}") from None
    return net
