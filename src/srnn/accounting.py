"""Operation counting and theoretical energy for spiking and analog layers.

Spiking layers are charged per step: a fixed number of multiply-accumulate
(MAC) operations per neuron for the state updates (3 for adaptive units:
membrane decay, threshold decay, threshold composition; 1 for plain and
readout integrators), plus accumulate-only (AC) operations for the
synaptic events, which scale with the firing rate. Analog layer types are
charged their standard dense-algebra MAC counts. `ArchEntry.mac` is the one
MAC rule; `snn_cost_per_step`, `ann_cost_per_step` and `cost_report` sum
it. Energy per step uses 45 nm CMOS costs: 3.1 pJ per MAC, 0.1 pJ per AC.

These are theoretical counts over the architecture description; no memory
traffic is modeled. Measured firing rates and synaptic operations (SOPs)
come from SpikeCounts: `firing_rate` and `sop_count` take them from one
trace, and `evaluate` adds them up chunk by chunk over a dataset.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Literal, Optional, get_args

import numpy as np

from srnn.datasets import csv_text
from srnn.jsondoc import read
from srnn.network import SPIKING_KINDS, ForwardTrace, Network

MAC_ENERGY_PJ = 3.1
AC_ENERGY_PJ = 0.1

ArchKind = Literal["lif", "alif", "readout", "dense", "vanilla_rnn", "gru", "lstm"]
ARCH_KINDS = get_args(ArchKind)

# state-update multiplies per neuron per step
SNN_MAC_COEFF = {"alif": 3, "lif": 1, "readout": 1}


@dataclass
class ArchEntry:
    """One layer of an architecture description.

    `copies` counts parallel instances sharing the same fan-in, which is
    how the two directions of a bidirectional layer are described.
    """

    kind: ArchKind
    fan_in: int
    size: int
    recurrent: bool = False
    copies: int = 1

    def __post_init__(self):
        if self.kind not in ARCH_KINDS:
            raise ValueError(f"kind must be one of {ARCH_KINDS}")
        if self.fan_in < 1 or self.size < 1 or self.copies < 1:
            raise ValueError("fan_in, size, and copies must be at least 1")

    @property
    def synapses(self) -> int:
        per_copy = self.fan_in * self.size
        if self.recurrent:
            per_copy += self.size * self.size
        return self.copies * per_copy

    @property
    def spiking(self) -> bool:
        return self.kind in SNN_MAC_COEFF

    @property
    def mac(self) -> int:
        """MACs per step: the state updates of a spiking kind
        (SNN_MAC_COEFF per neuron), the dense algebra of an analog one."""
        n, m = self.fan_in, self.size
        if self.spiking:
            return self.copies * SNN_MAC_COEFF[self.kind] * m
        return self.copies * {"dense": n * m, "vanilla_rnn": (n + m) * m,
                              "gru": 3 * (n + m) * m + 3 * m,
                              "lstm": 4 * (n + m) * m + 4 * m}[self.kind]


@dataclass
class ArchDescription:
    layers: list[ArchEntry]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("an architecture needs at least one layer")

    @classmethod
    def from_network(cls, net: Network) -> "ArchDescription":
        """Describe a network's topology for cost accounting.

        One entry per layer of `net.all_layers`, in that order. Analog
        recurrent layers are charged as vanilla RNN cells, analog
        feedforward layers as dense ones.
        """
        entries = []
        for layer in net.all_layers:
            kind = layer.spec.neuron
            if kind == "relu":
                kind = "vanilla_rnn" if layer.w_rec is not None else "dense"
            entries.append(ArchEntry(kind=kind, fan_in=layer.fan_in,
                                     size=layer.size,
                                     recurrent=layer.w_rec is not None))
        return cls(layers=entries)

    @property
    def total_synapses(self) -> int:
        return sum(e.synapses for e in self.layers)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ArchDescription":
        """Read an architecture file; raises ValueError naming the offending path."""
        return read(cls, doc)


@dataclass
class FiringRates:
    """Per-neuron spike probabilities for each spiking layer, plus the mean."""

    per_layer: list[np.ndarray]
    mean: float


@dataclass
class SpikeCounts:
    """Spikes of hard forward passes, summed over samples and steps.

    `per_neuron` has one entry per layer of `all_layers`: each unit's spike
    count on spiking layers, None on the others. `head` is the index of
    the readout head, which tells the forward stack from the back stack of
    a bidirectional net. `sample_steps` counts the samples times steps
    behind the counts. Counts are integer arrays (a hard trace's spikes
    are bools), so counts added over chunks equal those of one pass over
    the whole set.
    """

    per_neuron: list[Optional[np.ndarray]]
    head: int
    sample_steps: int = 0

    @classmethod
    def zeros(cls, net: Network) -> "SpikeCounts":
        return cls([np.zeros(layer.size, dtype=int)
                    if layer.spec.neuron in SPIKING_KINDS else None
                    for layer in net.all_layers], head=len(net.layers) - 1)

    @classmethod
    def of(cls, trace: ForwardTrace) -> "SpikeCounts":
        if trace.soft:
            raise ValueError("spikes, firing rates and SOPs are defined for hard "
                             "(binary) traces")
        return cls([lt.y.sum(axis=(0, 1)) if lt.spiking else None
                    for lt in trace.all_layers],
                   head=len(trace.layers) - 1,
                   sample_steps=trace.t_steps * trace.batch_size)

    def add_(self, other: "SpikeCounts") -> "SpikeCounts":
        for mine, theirs in zip(self.per_neuron, other.per_neuron, strict=True):
            if mine is not None:
                mine += theirs
        self.sample_steps += other.sample_steps
        return self

    @property
    def mean_rate(self) -> float:
        """Spikes per unit and step over the spiking layers; 0 without any."""
        counts = [c for c in self.per_neuron if c is not None]
        units = sum(c.size for c in counts) * self.sample_steps
        return sum(float(c.sum()) for c in counts) / units if units else 0.0


def firing_rate(trace: ForwardTrace) -> FiringRates:
    """Spike probability per neuron per step, from a recorded hard trace."""
    counts = SpikeCounts.of(trace)
    return FiringRates(per_layer=[c / counts.sample_steps for c in counts.per_neuron
                                  if c is not None],
                       mean=counts.mean_rate)


def synaptic_ops(arch: ArchDescription, spikes: SpikeCounts, input_events: int):
    """Synaptic operations caused by counted spikes and input events.

    Every emitted spike is charged the number of synapses it reaches: its
    layer's recurrent synapses plus the input synapses of the layer it
    feeds. Input events (nonzero input entries) are charged the synapses
    of the first layer. In a bidirectional net both stacks read the input
    and both last hidden layers feed the head. `arch` lists the layers in
    the order of `all_layers`. Returns (total, per step), the latter
    averaged over time and samples.
    """
    layers = spikes.per_neuron
    if len(arch.layers) != len(layers):
        raise ValueError("architecture and trace disagree on depth")
    head = spikes.head
    paths = [range(head + 1)]            # each path runs from the input to the head
    if head + 1 < len(layers):
        paths.append([*range(head + 1, len(layers)), head])
    total = 0.0
    for path in paths:
        total += float(input_events) * arch.layers[path[0]].size
        for i, fed in zip(path, [*path[1:], None]):
            if layers[i] is None:
                continue
            fan_out = arch.layers[i].size if arch.layers[i].recurrent else 0
            if fed is not None:
                fan_out += arch.layers[fed].size
            total += float(layers[i].sum()) * fan_out
    return total, total / spikes.sample_steps


def sop_count(trace: ForwardTrace, arch: ArchDescription):
    """Synaptic operations caused by the spikes in a trace (see synaptic_ops).

    Nonzero input entries count as events into the first layer.
    """
    return synaptic_ops(arch, SpikeCounts.of(trace), np.count_nonzero(trace.inputs))


def snn_cost_per_step(arch: ArchDescription, fr: float = 0.0):
    """(MAC, AC) per step for a spiking architecture at firing rate fr."""
    report = cost_report(arch, fr)
    if analog := [e.kind for e in arch.layers if not e.spiking]:
        raise ValueError(f"{analog[0]!r} is not a spiking layer kind")
    return report.mac_per_step, report.ac_per_step


def ann_cost_per_step(arch: ArchDescription) -> int:
    """Total MAC per step for an analog (non-spiking) architecture."""
    if spiking := [e.kind for e in arch.layers if e.spiking]:
        raise ValueError(f"{spiking[0]!r} is not an analog layer kind")
    return sum(e.mac for e in arch.layers)


def energy_per_step(mac: float, ac: float) -> float:
    """Theoretical energy in pJ for one step's operation counts."""
    if mac < 0 or ac < 0:
        raise ValueError("operation counts must be non-negative")
    return MAC_ENERGY_PJ * mac + AC_ENERGY_PJ * ac


@dataclass
class CostReport:
    mac_per_step: float
    ac_per_step: float
    energy_per_step_pj: float
    sops_total: Optional[float] = None
    sops_per_step: Optional[float] = None
    fr_mean: Optional[float] = None
    rows: list[dict] = field(default_factory=list)

    def to_text(self) -> str:
        header = f"{'layer':>6} {'kind':>12} {'size':>6} {'mac/step':>10} {'synapses':>10}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(f"{r['layer']:>6} {r['kind']:>12} {r['size']:>6} "
                         f"{r['mac_per_step']:>10} {r['synapses']:>10}")
        lines.append("-" * len(header))
        lines.append(f"MAC/step        {self.mac_per_step:.1f}")
        lines.append(f"AC/step         {self.ac_per_step:.1f}")
        lines.append(f"energy/step     {self.energy_per_step_pj:.1f} pJ")
        if self.fr_mean is not None:
            lines.append(f"mean firing rate {self.fr_mean:.4f}")
        if self.sops_total is not None:
            lines.append(f"SOPs total      {self.sops_total:.1f}")
            lines.append(f"SOPs/step       {self.sops_per_step:.3f}")
        return "\n".join(lines) + "\n"

    def to_csv_text(self) -> str:
        columns = ("layer", "kind", "size", "mac_per_step", "synapses")
        return csv_text([columns, *([r[c] for c in columns] for r in self.rows)])


def cost_report(arch: ArchDescription, fr: float = 0.0,
                sops: Optional[tuple] = None) -> CostReport:
    """Assemble the per-layer table and totals for an architecture.

    Spiking kinds are charged the SNN coefficients, analog kinds their
    dense-algebra counts; AC applies to the spiking synapses only.
    """
    if not 0.0 <= fr <= 1.0:
        raise ValueError("fr must lie in [0, 1]")
    rows = [{"layer": i, "kind": e.kind, "size": e.size, "mac_per_step": e.mac,
             "synapses": e.synapses} for i, e in enumerate(arch.layers)]
    mac_total = sum(e.mac for e in arch.layers)
    spiking_synapses = sum(e.synapses for e in arch.layers if e.spiking)
    ac = fr * spiking_synapses
    report = CostReport(mac_per_step=mac_total, ac_per_step=ac,
                        energy_per_step_pj=energy_per_step(mac_total, ac),
                        fr_mean=fr if spiking_synapses else None, rows=rows)
    if sops is not None:
        report.sops_total, report.sops_per_step = sops
    return report


def efficiency_ratio(report_a: CostReport, report_b: CostReport,
                     err_a: float, err_b: float):
    """(energy ratio, error ratio, their product) of architecture a over b."""
    if report_b.energy_per_step_pj <= 0 or err_b <= 0:
        raise ValueError("reference energy and error must be positive")
    energy_ratio = report_a.energy_per_step_pj / report_b.energy_per_step_pj
    error_ratio = err_a / err_b
    return energy_ratio, error_ratio, energy_ratio * error_ratio
