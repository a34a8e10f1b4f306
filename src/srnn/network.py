"""Multi-layer recurrent network assembly, forward passes, and model files.

A network is a stack of layers; at step t layer l receives the step-t
output of layer l-1 (the input vector for layer 1, injected as current)
plus, if the layer is recurrent, its own output from step t-1 through a
square recurrent matrix. Forward passes record a complete per-layer trace
(drive, membrane, output, and the adaptation variables) which the trainer
consumes.

Layers may also run in a "soft" evaluation mode where the spike
nonlinearity H(u - theta) is replaced by max(0, u - theta) and the reset
pathways act on that continuous output. Nothing in soft mode is
discontinuous, which makes it checkable against finite differences; it
exists for gradient verification, not for deployment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

MODEL_FORMAT = "srnn-model/1"

NEURON_KINDS = ("lif", "alif", "relu", "readout", "spiking_output")
SPIKING_KINDS = ("lif", "alif", "spiking_output")
DECODE_MODES = ("spike_count", "membrane_softmax", "spiking_membrane_softmax")


def dynamics_kind(neuron: str) -> str:
    """Collapse the spiking-output alias onto the adaptive dynamics."""
    return "alif" if neuron == "spiking_output" else neuron


@dataclass
class LayerSpec:
    size: int
    neuron: str = "alif"
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
        if dynamics_kind(self.neuron) == "alif" and self.tau_adp_init is None:
            self.tau_adp_init = (150.0, 10.0)
        if self.tau_adp_init is not None:
            if self.tau_adp_init[0] <= 0 or self.tau_adp_init[1] < 0:
                raise ValueError("tau_adp_init needs positive mean and non-negative std")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.theta <= self.u_r:
            raise ValueError("theta must exceed u_r")


@dataclass
class NetworkSpec:
    input_size: int
    layers: list[LayerSpec]
    decode: str = "spike_count"
    bidirectional: bool = False
    seed: int = 0
    zero_init_membrane: bool = False

    def __post_init__(self):
        if self.input_size < 1:
            raise ValueError("input_size must be at least 1")
        if not self.layers:
            raise ValueError("at least one layer is required")
        if self.decode not in DECODE_MODES:
            raise ValueError(f"decode must be one of {DECODE_MODES}")
        last = self.layers[-1].neuron
        if self.decode == "spike_count" and last not in SPIKING_KINDS:
            raise ValueError("spike_count decoding needs a spiking output layer")
        if self.decode == "membrane_softmax" and last != "readout":
            raise ValueError("membrane_softmax decoding needs a readout output layer")
        if self.decode == "spiking_membrane_softmax" and dynamics_kind(last) != "alif":
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
        return {"w_in": self.w_in, "w_rec": self.w_rec, "bias": self.bias,
                "tau_m": self.tau_m, "tau_adp": self.tau_adp}


@dataclass
class Network:
    spec: NetworkSpec
    layers: list[Layer]


@dataclass
class BidirectionalNetwork:
    """Two mirrored hidden stacks feeding one readout integrator."""

    spec: NetworkSpec
    forward_net: Network             # hidden stack + readout head
    backward_net: Network            # hidden stack only, runs on reversed time

    @property
    def head(self) -> Layer:
        return self.forward_net.layers[-1]


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
    lo, hi = spec.dt, 1e4 * spec.dt
    tau_m = np.clip(rng.normal(*spec.tau_m_init, size=spec.size), lo, hi)
    tau_adp = None
    if dynamics_kind(spec.neuron) == "alif":
        tau_adp = np.clip(rng.normal(*spec.tau_adp_init, size=spec.size), lo, hi)
    kind = dynamics_kind(spec.neuron)
    if zero_init_membrane or kind in ("relu", "readout"):
        u_init = np.zeros(spec.size)
    else:
        resting_theta = spec.theta if kind == "lif" else spec.b_0
        u_init = rng.uniform(0.0, resting_theta, size=spec.size)
    return Layer(spec=spec, w_in=w_in, w_rec=w_rec, bias=bias,
                 tau_m=tau_m, tau_adp=tau_adp, u_init=u_init)


def init_network(spec: NetworkSpec, seed: Optional[int] = None):
    """Draw all weights and time constants; deterministic in the seed.

    Input weights are Xavier-uniform, recurrent weights orthogonal, biases
    zero. Time constants are normal draws clamped into [dt, 1e4*dt].
    Spiking membranes start uniform in [0, resting threshold] unless the
    spec asks for zeros. Returns a BidirectionalNetwork when the spec says
    so, otherwise a Network.
    """
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    if not spec.bidirectional:
        layers = []
        fan_in = spec.input_size
        for lspec in spec.layers:
            layers.append(_init_layer(rng, lspec, fan_in, spec.zero_init_membrane))
            fan_in = lspec.size
        return Network(spec=spec, layers=layers)

    hidden, head_spec = spec.layers[:-1], spec.layers[-1]
    fwd_layers, fan_in = [], spec.input_size
    for lspec in hidden:
        fwd_layers.append(_init_layer(rng, lspec, fan_in, spec.zero_init_membrane))
        fan_in = lspec.size
    bwd_layers, fan_in = [], spec.input_size
    for lspec in hidden:
        bwd_layers.append(_init_layer(rng, lspec, fan_in, spec.zero_init_membrane))
        fan_in = lspec.size
    head = _init_layer(rng, head_spec, hidden[-1].size, spec.zero_init_membrane)
    fwd = Network(spec=spec, layers=fwd_layers + [head])
    bwd = Network(spec=spec, layers=bwd_layers)
    return BidirectionalNetwork(spec=spec, forward_net=fwd, backward_net=bwd)


@dataclass
class LayerState:
    u: np.ndarray                    # (B, n)
    y: np.ndarray                    # previous output, (B, n)
    eta: Optional[np.ndarray]        # (B, n) for adaptive layers


@dataclass
class LayerTrace:
    neuron: str                      # layer kind the trace came from
    pre: np.ndarray                  # (T, B, n) drive into the units
    u: np.ndarray                    # (T, B, n) membrane after the update
    y: np.ndarray                    # (T, B, n) emitted output
    eta: Optional[np.ndarray]        # (T, B, n) adaptation variable
    theta: Optional[np.ndarray]      # (T, B, n) threshold in force at each step
    u_init: np.ndarray               # (B, n)
    y_init: np.ndarray               # (B, n)
    eta_init: Optional[np.ndarray]   # (B, n)

    @property
    def spiking(self) -> bool:
        return dynamics_kind(self.neuron) in ("lif", "alif")


@dataclass
class ForwardTrace:
    inputs: np.ndarray               # (T, B, N)
    layers: list[LayerTrace]
    soft: bool = False

    @property
    def t_steps(self) -> int:
        return self.inputs.shape[0]

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[1]

    @property
    def outputs(self) -> np.ndarray:
        return self.layers[-1].y


@dataclass
class BidirectionalTrace:
    inputs: np.ndarray
    fwd_layers: list[LayerTrace]
    bwd_layers: list[LayerTrace]     # recorded in reversed input time
    merged: np.ndarray               # (T, B, n) head drive source
    head: LayerTrace
    soft: bool = False

    @property
    def t_steps(self) -> int:
        return self.inputs.shape[0]

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[1]


def init_state(net: Network, batch: int) -> list[LayerState]:
    states = []
    for layer in net.layers:
        u = np.broadcast_to(layer.u_init, (batch, layer.size)).copy()
        y = np.zeros((batch, layer.size))
        eta = np.zeros((batch, layer.size)) if layer.tau_adp is not None else None
        states.append(LayerState(u=u, y=y, eta=eta))
    return states


def _step_layer(layer: Layer, st: LayerState, inp: np.ndarray, soft: bool):
    """Advance one layer one step. Returns (state', y, pre, theta_or_None)."""
    s = layer.spec
    pre = inp @ layer.w_in + layer.bias
    if layer.w_rec is not None:
        pre = pre + st.y @ layer.w_rec
    kind = dynamics_kind(s.neuron)
    if kind == "alif":
        alpha = np.exp(-s.dt / layer.tau_m)
        rho = np.exp(-s.dt / layer.tau_adp)
        theta_prev = s.b_0 + s.beta * st.eta
        u = alpha * st.u + (1.0 - alpha) * s.r_m * pre - theta_prev * st.y
        eta = rho * st.eta + (1.0 - rho) * st.y
        theta = s.b_0 + s.beta * eta
        if soft:
            y = np.maximum(0.0, u - theta)
        else:
            y = np.where(u >= theta, 1.0, 0.0)
        return LayerState(u=u, y=y, eta=eta), y, pre, theta
    if kind == "lif":
        leak = 1.0 - s.dt / layer.tau_m
        gain = s.r_m * s.dt / layer.tau_m
        held = st.u * (1.0 - st.y) + s.u_r * st.y
        u = held * leak + gain * pre
        if soft:
            y = np.maximum(0.0, u - s.theta)
        else:
            y = np.where(u >= s.theta, 1.0, 0.0)
        return LayerState(u=u, y=y, eta=None), y, pre, None
    if kind == "relu":
        alpha = np.exp(-s.dt / layer.tau_m)
        u = alpha * st.u + (1.0 - alpha) * s.r_m * pre
        y = np.maximum(0.0, u)
        return LayerState(u=u, y=y, eta=None), y, pre, None
    # readout: exposed membrane is the output and the recurrence signal
    leak = 1.0 - s.dt / layer.tau_m
    gain = s.r_m * s.dt / layer.tau_m
    u = st.u * leak + gain * pre
    return LayerState(u=u, y=u, eta=None), u, pre, None


def forward_step(net: Network, x_t: np.ndarray, states: list[LayerState],
                 soft: bool = False):
    """One synchronous step through the stack. Returns (states', outputs)."""
    x_t = np.asarray(x_t, dtype=float)
    squeeze = x_t.ndim == 1
    inp = x_t[None, :] if squeeze else x_t
    new_states, outputs = [], []
    for layer, st in zip(net.layers, states):
        st, y, _, _ = _step_layer(layer, st, inp, soft)
        new_states.append(st)
        outputs.append(y[0] if squeeze else y)
        inp = y
    return new_states, outputs


def _as_time_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:          # (T, N) single sequence
        return x[:, None, :]
    if x.ndim == 3:          # (B, T, N) batch
        return np.swapaxes(x, 0, 1)
    raise ValueError("input must be (T, N) or (B, T, N)")


def _run_layers(layers: list[Layer], x_tbn: np.ndarray, soft: bool) -> list[LayerTrace]:
    t_steps, batch = x_tbn.shape[0], x_tbn.shape[1]
    traces = []
    states = []
    for layer in layers:
        u0 = np.broadcast_to(layer.u_init, (batch, layer.size)).astype(float).copy()
        eta0 = np.zeros((batch, layer.size)) if layer.tau_adp is not None else None
        states.append(LayerState(u=u0.copy(), y=np.zeros((batch, layer.size)), eta=eta0))
        adaptive = layer.tau_adp is not None
        traces.append(LayerTrace(
            neuron=layer.spec.neuron,
            pre=np.empty((t_steps, batch, layer.size)),
            u=np.empty((t_steps, batch, layer.size)),
            y=np.empty((t_steps, batch, layer.size)),
            eta=np.empty((t_steps, batch, layer.size)) if adaptive else None,
            theta=np.empty((t_steps, batch, layer.size)) if adaptive else None,
            u_init=u0,
            y_init=np.zeros((batch, layer.size)),
            eta_init=np.zeros((batch, layer.size)) if adaptive else None,
        ))
    for t in range(t_steps):
        inp = x_tbn[t]
        for i, layer in enumerate(layers):
            st, y, pre, theta = _step_layer(layer, states[i], inp, soft)
            states[i] = st
            tr = traces[i]
            tr.pre[t] = pre
            tr.u[t] = st.u
            tr.y[t] = y
            if tr.eta is not None:
                tr.eta[t] = st.eta
                tr.theta[t] = theta
            inp = y
    return traces


def forward_sequence(net: Network, x, soft: bool = False) -> ForwardTrace:
    """Run a full sequence (or batch of sequences) and record the trace.

    Accepts (T, N) for one sequence or (B, T, N) for a batch; the trace is
    always time-major with an explicit batch axis.
    """
    x_tbn = _as_time_batch(x)
    if x_tbn.shape[2] != net.spec.input_size:
        raise ValueError(f"expected {net.spec.input_size} input channels, "
                         f"got {x_tbn.shape[2]}")
    if not np.all(np.isfinite(x_tbn)):
        raise ValueError("input contains non-finite values")
    traces = _run_layers(net.layers, x_tbn, soft=soft)
    return ForwardTrace(inputs=x_tbn, layers=traces, soft=soft)


def forward_bidirectional(net_f: Network, net_b: Network, x,
                          soft: bool = False) -> BidirectionalTrace:
    """Run a forward and a backward stack over x and integrate their mean.

    net_f must end in a readout layer, which serves as the shared
    integrator; net_b contributes its hidden stack (a trailing readout on
    net_b is ignored). At each step the aligned hidden outputs of the two
    directions are averaged and fed through the integrator.
    """
    if net_f.layers[-1].spec.neuron != "readout":
        raise ValueError("net_f must end in a readout integrator")
    stack_f = net_f.layers[:-1]
    head = net_f.layers[-1]
    stack_b = net_b.layers[:-1] if net_b.layers[-1].spec.neuron == "readout" \
        else net_b.layers
    if not stack_f or not stack_b:
        raise ValueError("both directions need at least one hidden layer")
    if stack_f[-1].size != stack_b[-1].size:
        raise ValueError("directional stacks must end in the same width")

    x_tbn = _as_time_batch(x)
    if not np.all(np.isfinite(x_tbn)):
        raise ValueError("input contains non-finite values")
    fwd = _run_layers(stack_f, x_tbn, soft=soft)
    bwd = _run_layers(stack_b, x_tbn[::-1], soft=soft)
    merged = 0.5 * (fwd[-1].y + bwd[-1].y[::-1])
    head_trace = _run_layers([head], merged, soft=soft)[0]
    return BidirectionalTrace(inputs=x_tbn, fwd_layers=fwd, bwd_layers=bwd,
                              merged=merged, head=head_trace, soft=soft)


def _layer_spec_to_dict(s: LayerSpec) -> dict:
    return {"size": s.size, "neuron": s.neuron, "recurrent": s.recurrent,
            "tau_m_init": list(s.tau_m_init),
            "tau_adp_init": list(s.tau_adp_init) if s.tau_adp_init else None,
            "theta": s.theta, "b_0": s.b_0, "beta": s.beta,
            "r_m": s.r_m, "u_r": s.u_r, "dt": s.dt}


def _layer_to_dict(layer: Layer) -> dict:
    return {
        "spec": _layer_spec_to_dict(layer.spec),
        "w_in": layer.w_in.tolist(),
        "w_rec": layer.w_rec.tolist() if layer.w_rec is not None else None,
        "bias": layer.bias.tolist(),
        "tau_m": layer.tau_m.tolist(),
        "tau_adp": layer.tau_adp.tolist() if layer.tau_adp is not None else None,
        "u_init": layer.u_init.tolist(),
    }


def _layer_from_dict(d: dict) -> Layer:
    sd = dict(d["spec"])
    sd["tau_m_init"] = tuple(sd["tau_m_init"])
    if sd.get("tau_adp_init") is not None:
        sd["tau_adp_init"] = tuple(sd["tau_adp_init"])
    spec = LayerSpec(**sd)
    arr = lambda v: None if v is None else np.asarray(v, dtype=float)
    return Layer(spec=spec, w_in=arr(d["w_in"]), w_rec=arr(d["w_rec"]),
                 bias=arr(d["bias"]), tau_m=arr(d["tau_m"]),
                 tau_adp=arr(d["tau_adp"]), u_init=arr(d["u_init"]))


def _spec_to_dict(spec: NetworkSpec) -> dict:
    return {"input_size": spec.input_size, "decode": spec.decode,
            "bidirectional": spec.bidirectional, "seed": spec.seed,
            "zero_init_membrane": spec.zero_init_membrane,
            "layers": [_layer_spec_to_dict(ls) for ls in spec.layers]}


def _spec_from_dict(d: dict) -> NetworkSpec:
    layers = []
    for ld in d["layers"]:
        ld = dict(ld)
        ld["tau_m_init"] = tuple(ld["tau_m_init"])
        if ld.get("tau_adp_init") is not None:
            ld["tau_adp_init"] = tuple(ld["tau_adp_init"])
        layers.append(LayerSpec(**ld))
    return NetworkSpec(input_size=d["input_size"], layers=layers,
                       decode=d["decode"], bidirectional=d["bidirectional"],
                       seed=d["seed"], zero_init_membrane=d["zero_init_membrane"])


def save_model(net, path) -> None:
    """Write a network to a JSON model file (format srnn-model/1)."""
    if isinstance(net, BidirectionalNetwork):
        doc = {"format": MODEL_FORMAT,
               "spec": _spec_to_dict(net.spec),
               "forward_layers": [_layer_to_dict(l) for l in net.forward_net.layers],
               "backward_layers": [_layer_to_dict(l) for l in net.backward_net.layers]}
    else:
        doc = {"format": MODEL_FORMAT,
               "spec": _spec_to_dict(net.spec),
               "layers": [_layer_to_dict(l) for l in net.layers]}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_model(path):
    """Read a JSON model file written by save_model.

    A file that is not a well-formed model raises ValueError; a missing
    entry is named by its key.
    """
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("model file is not a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format: {doc.get('format')!r}")
    try:
        spec = _spec_from_dict(doc["spec"])
        if "layers" in doc:
            return Network(spec=spec, layers=[_layer_from_dict(d) for d in doc["layers"]])
        fwd = Network(spec=spec, layers=[_layer_from_dict(d) for d in doc["forward_layers"]])
        bwd = Network(spec=spec, layers=[_layer_from_dict(d) for d in doc["backward_layers"]])
    except KeyError as e:
        raise ValueError(f"model file lacks key {e.args[0]!r}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed model file: {e}") from None
    return BidirectionalNetwork(spec=spec, forward_net=fwd, backward_net=bwd)
