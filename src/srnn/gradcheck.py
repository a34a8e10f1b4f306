"""Independent gradient verification.

Two oracles against the vectorized backward pass in srnn.training:

1. A scalar tape. Every arithmetic step of the forward pass is replayed
   one multiply-add at a time onto a record of (value, parent, local
   derivative) nodes, and gradients come out of plain reverse
   accumulation over that record. It shares no code with the vectorized
   sweep, so agreement pins down the layer recursions edge by edge. Spike
   nodes carry the configured surrogate as their local derivative and the
   same pathways are held constant, which makes the tape an exact
   reference for the hard (binary spike) mode.

2. Central finite differences of the loss. These are only a valid oracle
   when the network is evaluated in the soft mode, where the spike
   nonlinearity is max(0, u - theta) and nothing is detached; there the
   analytic gradient must match difference quotients for every parameter
   family, the adaptation time constants included. This oracle perturbs
   every layer of `Network.all_layers` and reruns `forward_sequence`, so
   it covers bidirectional networks as well as plain stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional, get_args

import numpy as np

from srnn.network import Network, _as_time_batch, _checked_input, forward_sequence
from srnn.surrogates import MultiGaussian, SurrogateKind, surrogate_grad
from srnn.training import GradientSet, Output, backward, check_targets, zero_grads

CheckMode = Literal["relu_exact", "surrogate_consistency"]
CHECK_MODES = get_args(CheckMode)


class Node:
    """One recorded value; parents hold (node, d value / d parent)."""

    __slots__ = ("value", "parents", "grad")

    def __init__(self, value: float, parents=()):
        self.value = float(value)
        self.parents = parents
        self.grad = 0.0


class Tape:
    """Creation-ordered node record with reverse accumulation."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _push(self, value, parents=()) -> Node:
        node = Node(value, tuple(parents))
        self.nodes.append(node)
        return node

    def leaf(self, value) -> Node:
        return self._push(value)

    def combo(self, pairs, const: float = 0.0) -> Node:
        """Affine combination const + sum(coeff * node)."""
        value = const + sum(c * n.value for n, c in pairs)
        return self._push(value, pairs)

    def mul(self, a: Node, b: Node) -> Node:
        return self._push(a.value * b.value, [(a, b.value), (b, a.value)])

    def reciprocal(self, a: Node) -> Node:
        return self._push(1.0 / a.value, [(a, -1.0 / a.value ** 2)])

    def exp(self, a: Node) -> Node:
        v = math.exp(a.value)
        return self._push(v, [(a, v)])

    def log(self, a: Node) -> Node:
        return self._push(math.log(a.value), [(a, 1.0 / a.value)])

    def relu(self, a: Node) -> Node:
        return self._push(max(0.0, a.value), [(a, 1.0 if a.value > 0 else 0.0)])

    def spike(self, u: Node, theta, surrogate: Optional[SurrogateKind],
              soft: bool) -> Node:
        """Threshold crossing; theta may be a Node or a plain number."""
        theta_val = theta.value if isinstance(theta, Node) else float(theta)
        if soft:
            value = max(0.0, u.value - theta_val)
            g = 1.0 if u.value >= theta_val else 0.0
        else:
            value = 1.0 if u.value >= theta_val else 0.0
            g = float(surrogate_grad(surrogate, u.value, theta_val))
        parents = [(u, g)]
        if isinstance(theta, Node):
            parents.append((theta, -g))
        return self._push(value, parents)

    def backward(self, root: Node) -> None:
        for node in self.nodes:
            node.grad = 0.0
        root.grad = 1.0
        for node in reversed(self.nodes):
            if node.grad == 0.0:
                continue
            for parent, local in node.parents:
                parent.grad += node.grad * local


def _leaves(tape: Tape, a: np.ndarray):
    """Nested lists of leaf nodes, one per entry of a 1-D or 2-D array."""
    if a.ndim == 1:
        return [tape.leaf(v) for v in a]
    return [_leaves(tape, row) for row in a]


def _param_nodes(tape: Tape, net: Network):
    """Leaf nodes for every trainable array, keyed like `Layer.param_arrays()`."""
    return [{k: None if a is None else _leaves(tape, a)
             for k, a in layer.param_arrays().items()} for layer in net.layers]


def _drive(tape: Tape, params: dict, j: int, below, y_prev) -> Node:
    """Drive into unit j: per-edge products summed with the bias."""
    pairs = [(params["bias"][j], 1.0)]
    for i, x in enumerate(below):
        if isinstance(x, Node):
            pairs.append((tape.mul(x, params["w_in"][i][j]), 1.0))
        elif x != 0.0:
            pairs.append((params["w_in"][i][j], float(x)))
    if params["w_rec"] is not None:
        for k, y in enumerate(y_prev):
            pairs.append((tape.mul(y, params["w_rec"][k][j]), 1.0))
    return tape.combo(pairs)


def _tape_step(tape: Tape, layer, params: dict, state: dict, below,
               surrogate, soft: bool):
    """Advance one layer one step on the tape; mutates state in place."""
    s = layer.spec
    kind = s.neuron
    n = layer.size
    y_out = []
    for j in range(n):
        pre = _drive(tape, params, j, below, state["y"])
        if kind == "alif":
            alpha, rho = state["alpha"][j], state["rho"][j]
            u_prev, y_prev, eta_prev = state["u"][j], state["y"][j], state["eta"][j]
            scaled = tape.combo([(pre, s.r_m)])
            if soft:
                theta_prev = tape.combo([(eta_prev, s.beta)], const=s.b_0)
                dec = tape.mul(theta_prev, y_prev)
            else:
                # reset decrement held constant in the hard mode
                dec = tape.leaf((s.b_0 + s.beta * eta_prev.value) * y_prev.value)
            one_minus_alpha = tape.combo([(alpha, -1.0)], const=1.0)
            u = tape.combo([(tape.mul(alpha, u_prev), 1.0),
                            (tape.mul(one_minus_alpha, scaled), 1.0),
                            (dec, -1.0)])
            one_minus_rho = tape.combo([(rho, -1.0)], const=1.0)
            eta = tape.combo([(tape.mul(rho, eta_prev), 1.0),
                              (tape.mul(one_minus_rho, y_prev), 1.0)])
            theta = tape.combo([(eta, s.beta)], const=s.b_0)
            y = tape.spike(u, theta, surrogate, soft)
            state["u"][j], state["eta"][j] = u, eta
        elif kind == "lif":
            leak, gain = state["leak"][j], state["gain"][j]
            u_prev, y_prev = state["u"][j], state["y"][j]
            if soft:
                keep = tape.combo([(y_prev, -1.0)], const=1.0)
                held = tape.combo([(tape.mul(u_prev, keep), 1.0),
                                   (y_prev, s.u_r)])
            else:
                # reset factor held constant, membrane itself stays live
                held = tape.combo([(u_prev, 1.0 - y_prev.value)],
                                  const=s.u_r * y_prev.value)
            u = tape.combo([(tape.mul(held, leak), 1.0),
                            (tape.mul(gain, pre), 1.0)])
            y = tape.spike(u, s.theta, surrogate, soft)
            state["u"][j] = u
        elif kind == "relu":
            alpha = state["alpha"][j]
            one_minus_alpha = tape.combo([(alpha, -1.0)], const=1.0)
            scaled = tape.combo([(pre, s.r_m)])
            u = tape.combo([(tape.mul(alpha, state["u"][j]), 1.0),
                            (tape.mul(one_minus_alpha, scaled), 1.0)])
            y = tape.relu(u)
            state["u"][j] = u
        elif kind == "readout":
            leak, gain = state["leak"][j], state["gain"][j]
            u = tape.combo([(tape.mul(state["u"][j], leak), 1.0),
                            (tape.mul(gain, pre), 1.0)])
            y = u
            state["u"][j] = u
        else:
            raise ValueError(f"no tape rule for layer kind {kind!r}")
        y_out.append(y)
    state["y"] = y_out
    return y_out


def _init_tape_state(tape: Tape, layer, params: dict) -> dict:
    s = layer.spec
    kind = s.neuron
    n = layer.size
    state = {
        "u": [tape.leaf(layer.u_init[j]) for j in range(n)],
        "y": [tape.leaf(0.0) for _ in range(n)],
        "eta": None,
    }
    if kind in ("alif", "relu"):
        state["alpha"] = [tape.exp(tape.combo(
            [(tape.reciprocal(params["tau_m"][j]), -s.dt)])) for j in range(n)]
    else:
        inv = [tape.reciprocal(params["tau_m"][j]) for j in range(n)]
        state["leak"] = [tape.combo([(inv[j], -s.dt)], const=1.0) for j in range(n)]
        state["gain"] = [tape.combo([(inv[j], s.r_m * s.dt)]) for j in range(n)]
    if kind == "alif":
        state["eta"] = [tape.leaf(0.0) for _ in range(n)]
        state["rho"] = [tape.exp(tape.combo(
            [(tape.reciprocal(params["tau_adp"][j]), -s.dt)])) for j in range(n)]
    return state


def _log_sum_exp(tape: Tape, zs: list[Node]) -> Node:
    m = max(z.value for z in zs)
    exps = [tape.exp(tape.combo([(z, 1.0)], const=-m)) for z in zs]
    total = tape.combo([(e, 1.0) for e in exps])
    return tape.combo([(tape.log(total), 1.0)], const=m)


def _tape_loss(tape: Tape, decode: str, out_u, out_y, label) -> Node:
    """Loss of one sample; label is a class index or one per step."""
    t_steps = len(out_u)
    if decode == "spike_count":
        counts = [tape.combo([(out_y[t][c], 1.0) for t in range(t_steps)])
                  for c in range(len(out_y[0]))]
        lse = _log_sum_exp(tape, counts)
        return tape.combo([(lse, 1.0), (counts[label], -1.0)])
    terms = [tape.combo([(_log_sum_exp(tape, out_u[t]), 1.0), (out_u[t][c], -1.0)])
             for t, c in enumerate(np.broadcast_to(label, t_steps))]
    return tape.combo([(term, 1.0) for term in terms])


def tape_gradients(net: Network, inputs, targets, surrogate: SurrogateKind,
                   soft: bool = False):
    """Loss gradients via the scalar tape. Returns (loss, GradientSet).

    Gradients are sums over the batch, matching srnn.training.backward.
    Only plain (non-bidirectional) stacks are supported.
    """
    if net.back:
        raise ValueError("the tape oracle covers plain layer stacks only")
    x_tbn = _as_time_batch(inputs)
    t_steps, batch, _ = x_tbn.shape
    labels = check_targets(net.spec, targets, batch, t_steps)
    tape = Tape()
    params = _param_nodes(tape, net)
    sample_losses = []
    for b in range(batch):
        states = [_init_tape_state(tape, layer, params[i])
                  for i, layer in enumerate(net.layers)]
        out_u, out_y = [], []
        for t in range(t_steps):
            below = list(x_tbn[t, b])
            for i, layer in enumerate(net.layers):
                below = _tape_step(tape, layer, params[i], states[i], below,
                                   surrogate, soft)
            out_u.append(list(states[-1]["u"]))
            out_y.append(below)
        sample_losses.append(_tape_loss(tape, net.spec.decode, out_u, out_y, labels[b]))
    root = tape.combo([(l, 1.0) for l in sample_losses])
    tape.backward(root)

    def grab(nodes):
        if nodes is None:
            return None
        if isinstance(nodes[0], list):
            return np.array([[n.grad for n in row] for row in nodes])
        return np.array([n.grad for n in nodes])

    layers = [{k: grab(nodes) for k, nodes in p.items()} for p in params]
    return root.value, GradientSet(layers=layers, loss=root.value)


# max_scored_rel_err divides an entry's error by at least this many
# fd_noise: 4 / 1e-4, so at the default bound tol_rel = 1e-4 an entry passes
# when its error is within max(tol_rel * |g|, 4 * fd_noise). The error of
# correct gradients measured 0.3-1.3 fd_noise. A tighter bound shrinks the
# allowance with it, so an impossible bound still fails.
FD_NOISE_DENOM = 4e4


@dataclass
class FamilyCheck:
    max_abs_err: float = 0.0
    max_rel_err: float = 0.0
    max_scored_rel_err: float = 0.0
    checked: int = 0


@dataclass
class GradCheckReport:
    mode: str
    max_abs_err: float
    max_rel_err: float
    checked: int
    families: dict[str, FamilyCheck]
    kink_margin: float
    loss: float
    # eps * |loss| / h, the rounding floor of one central difference: the
    # loss carries error of order eps * |loss|, and (up - down) / 2h scales
    # it by 1/h. None for the tape, which takes no difference quotients.
    fd_noise: Optional[float] = None
    # max_rel_err with each denominator raised to at least
    # FD_NOISE_DENOM * fd_noise (max_rel_err itself for the tape). fd_noise
    # grows with the summed loss, so a relative bound on this score does
    # not tighten on larger t_steps or batch the way one on max_rel_err does.
    max_scored_rel_err: float = 0.0


def _compare(reference: GradientSet, candidate: GradientSet,
             floor: float = 1e-5, noise_denom: float = 0.0):
    """Elementwise comparison; rel err denominators below `floor` are skipped.

    A central difference of a loss of order one carries absolute noise of
    roughly 1e-10 per probe (observed up to ~6e-10 on wider nets), so a
    relative comparison at tolerance 1e-4 is only meaningful for entries
    above noise/tolerance ~ 1e-5. Relative errors are scored there;
    smaller entries still feed the absolute error. max_scored_rel_err
    divides by at least `noise_denom`.
    """
    families: dict[str, FamilyCheck] = {}
    for ref_l, cand_l in zip(reference.layers, candidate.layers):
        for name, ref in ref_l.items():
            if ref is None:
                continue
            cand = cand_l[name]
            fam = families.setdefault(name, FamilyCheck())
            diff = np.abs(ref - cand)
            denom = np.maximum(np.abs(ref), np.abs(cand))
            mask = denom > floor
            fam.checked += int(mask.sum())
            if diff.size:
                fam.max_abs_err = max(fam.max_abs_err, float(diff.max()))
            if mask.any():
                fam.max_rel_err = max(fam.max_rel_err,
                                      float((diff[mask] / denom[mask]).max()))
                scored = diff[mask] / np.maximum(denom[mask], noise_denom)
                fam.max_scored_rel_err = max(fam.max_scored_rel_err, float(scored.max()))
    max_abs = max((f.max_abs_err for f in families.values()), default=0.0)
    max_rel = max((f.max_rel_err for f in families.values()), default=0.0)
    max_scored = max((f.max_scored_rel_err for f in families.values()), default=0.0)
    checked = sum(f.checked for f in families.values())
    return max_abs, max_rel, max_scored, checked, families


def _soft_loss(net, trace, targets) -> float:
    t_steps, batch, _ = trace.head.u.shape
    labels = check_targets(net.spec, targets, batch, t_steps)
    return Output.of(net.spec.decode, trace.head.y, trace.head.u).loss(labels)


def _kink_margin(trace) -> float:
    """Distance from every unit-step state to its nearest nonlinearity kink."""
    margin = math.inf
    for lt in trace.all_layers:
        if lt.spiking:
            margin = min(margin, float(np.min(np.abs(lt.u - lt.cell.threshold(lt.eta)))))
        elif lt.cell.kind == "relu":
            margin = min(margin, float(np.min(np.abs(lt.u))))
    return margin


def _fd_gradients(net, inputs, targets, h: float) -> GradientSet:
    """Central differences of the soft-mode loss for every parameter."""
    def loss_now() -> float:
        return _soft_loss(net, forward_sequence(net, inputs, soft=True), targets)

    grads = zero_grads(net)
    for layer, lg in zip(net.all_layers, grads.layers):
        for name, p in layer.param_arrays().items():
            if p is None:
                continue
            out = lg[name]
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = p[idx]
                p[idx] = keep + h
                up = loss_now()
                p[idx] = keep - h
                down = loss_now()
                p[idx] = keep
                out[idx] = (up - down) / (2.0 * h)
    return grads


def grad_check(net, inputs, targets, mode: str = "relu_exact",
               surrogate: Optional[SurrogateKind] = None,
               h: float = 1e-5) -> GradCheckReport:
    """Check the vectorized backward pass against an independent oracle.

    mode="relu_exact" compares against central finite differences with the
    network evaluated in the soft mode, where the comparison is exact up
    to truncation error. mode="surrogate_consistency" compares the hard
    mode against the scalar tape under the given surrogate. The report's
    kink_margin tells how close the reference forward pass came to a
    nonlinearity kink; finite differences are only trustworthy when it
    comfortably exceeds the probe step h. The finite-difference mode also
    takes bidirectional networks; the tape covers plain stacks only. In
    the finite-difference mode the report's fd_noise is the rounding floor
    of one difference quotient, which max_abs_err cannot be expected to
    undercut, and max_scored_rel_err is the relative error that allows for
    it (see FD_NOISE_DENOM), which a verdict on a relative bound reads.
    """
    if mode not in CHECK_MODES:
        raise ValueError(f"mode must be one of {CHECK_MODES}")
    t_steps, batch, _ = _checked_input(inputs, net.spec.input_size).shape
    targets = check_targets(net.spec, targets, batch, t_steps)
    if surrogate is None:
        surrogate = MultiGaussian()

    soft = mode == "relu_exact"
    trace = forward_sequence(net, inputs, soft=soft)
    analytic = backward(net, trace, targets, surrogate)
    margin = _kink_margin(trace)
    if soft:
        loss = _soft_loss(net, trace, targets)
        if not math.isfinite(loss):
            raise FloatingPointError("soft-mode loss is not finite")
        reference = _fd_gradients(net, inputs, targets, h)
        fd_noise = float(np.finfo(float).eps * abs(loss) / h)
    else:
        loss, reference = tape_gradients(net, inputs, targets, surrogate)
        fd_noise = None

    max_abs, max_rel, max_scored, checked, families = _compare(
        reference, analytic, noise_denom=FD_NOISE_DENOM * fd_noise if soft else 0.0)
    return GradCheckReport(mode=mode, max_abs_err=max_abs, max_rel_err=max_rel,
                           checked=checked, families=families,
                           kink_margin=margin, loss=loss, fd_noise=fd_noise,
                           max_scored_rel_err=max_scored)
