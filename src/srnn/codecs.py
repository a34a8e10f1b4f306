"""Spike encoders and output decoders.

The level-crossing encoder turns an analog series into paired up/down
spike channels: an up spike where the rise between consecutive samples
reaches the up threshold, a down spike where the drop reaches the down
threshold. It compares consecutive raw samples (not the last sample that
fired), so encodings are invariant to adding a constant to the series.

Decoders map a network's output layer onto class probabilities, either
from accumulated spike counts or from the readout membrane at each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from srnn.datasets import Dataset, input_array
from srnn.training import _softmax, evaluate


@dataclass
class SpikeRaster:
    """A binary (t_steps, channels) spike array, bool or float like
    `Dataset.inputs`."""

    data: np.ndarray

    def __post_init__(self):
        self.data = input_array(self.data)
        if self.data.ndim != 2:
            raise ValueError("a raster is a 2-d (t_steps, channels) array")
        if not np.all((self.data == 0) | (self.data == 1)):
            raise ValueError("raster entries must be 0 or 1")

    @property
    def t_steps(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[1]

    def firing_rate(self) -> float:
        return float(self.data.mean()) if self.data.size else 0.0


def level_crossing_encode(x, up: float = 0.3, down: float = 0.3) -> SpikeRaster:
    """Encode an analog series (T,) or (T, K) into 2K spike channels.

    Channel 2k carries the up spikes of input channel k, channel 2k+1 the
    down spikes. Step 0 has no predecessor and emits nothing. The raster
    is a bool array.
    """
    if up <= 0 or down <= 0:
        raise ValueError("thresholds must be positive")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("input must be (T,) or (T, K) with T >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    t_steps, k = x.shape
    out = np.zeros((t_steps, 2 * k), dtype=bool)
    if t_steps > 1:
        d = np.diff(x, axis=0)
        out[1:, 0::2] = d >= up
        out[1:, 1::2] = -d >= down
    return SpikeRaster(data=out)


def sliding_window(x, size: int = 4, stride: int = 1) -> np.ndarray:
    """Group a series into overlapping frames fed one frame per step.

    A (T,) or (T, K) series becomes (T - size + 1, size * K) under the
    default stride; each output row is the window flattened time-major.
    """
    if size < 1 or stride < 1:
        raise ValueError("size and stride must be at least 1")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("input must be (T,) or (T, K)")
    t_steps = x.shape[0]
    if t_steps < size:
        raise ValueError(f"series of length {t_steps} is shorter than "
                         f"window size {size}")
    starts = range(0, t_steps - size + 1, stride)
    return np.stack([x[s:s + size].reshape(-1) for s in starts])


def decode_spike_count(spikes) -> np.ndarray:
    """Class probabilities from total spike counts via softmax.

    Accepts a (T, C) spike record or an already-summed (C,) count vector.
    """
    spikes = np.asarray(spikes, dtype=float)
    if spikes.ndim == 2:
        spikes = spikes.sum(axis=0)
    if spikes.ndim != 1:
        raise ValueError("expected (T, C) spikes or (C,) counts")
    return _softmax(spikes)


def decode_membrane(u) -> np.ndarray:
    """Per-step class probabilities from readout membranes, softmax rows."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError("expected a (T, C) membrane record")
    return _softmax(u, axis=-1)


def anytime_curve(net, data, chunk_size: int = 64) -> np.ndarray:
    """Accuracy after consuming t steps, for every t, over a dataset.

    Spike-count decoding scores the running cumulative counts; membrane
    decoding scores each step's softmax. Sequence-level labels apply to
    every step, per-step labels are compared stepwise. This is the curve
    of `evaluate`'s pass (EvalReport.anytime); a caller that evaluates
    anyway reads it from the report instead.
    """
    if len(data.inputs) == 0:
        raise ValueError("dataset is empty")
    return evaluate(net, data, chunk_size).anytime


def encode_dataset(ds, up: float = 0.3, down: float = 0.3):
    """Level-crossing encode every sample of an analog dataset into bools."""
    rasters = np.stack([level_crossing_encode(ds.inputs[s], up, down).data
                        for s in range(ds.n_samples)])
    return Dataset(inputs=rasters, labels=ds.labels, kind=ds.kind,
                   n_classes=ds.n_classes)


def anytime_csv_text(curve) -> str:
    """Render an anytime accuracy curve as a two-column CSV."""
    lines = ["step,accuracy"]
    for t, acc in enumerate(np.asarray(curve, dtype=float)):
        lines.append(f"{t},{repr(float(acc))}")
    return "\n".join(lines) + "\n"
