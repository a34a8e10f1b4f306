"""Synthetic task generators, file-based loaders, and dataset splitting.

Datasets are immutable in spirit: a dense (samples, t_steps, channels)
input array plus either one label per sample (sequence classification) or
one label per step (streaming). Spike data is a bool array, one byte an
entry: the pattern generator, the event CSV loader and the level-crossing
encoder write bools, and `input_array` keeps them so. Analog data
(waveforms, IDX pixels, dense CSV) is float. Training and evaluation never
copy a bool set to float: the network casts its input to float piece by
piece, where a product needs it (see srnn.network). The generators are
pure functions of their arguments; the same call always returns the same
arrays.

The pattern task draws, once per channel, how many spike events that
channel carries, then gives each class its own event times. Every class
therefore shows the same per-channel spike counts and differs only in
when the events happen, so counting spikes cannot separate the classes;
their temporal order can. Generation costs one `choice` draw per (class,
channel) for the templates, then one label draw and one jitter draw per
sample; the same arguments give the same values as earlier versions,
now as bools.

File formats kept deliberately plain:
  dense CSV   one row per timestep: label,v0,...,v{N-1}
  event CSV   one row per spike: sample,t,channel,label
  IDX         big-endian images/labels with the standard magic numbers

The package's CSV rules live here: `csv_text` writes every table srnn
emits, and `read_csv` parses every CSV file it reads into float or int64
columns. Only `save_dense_csv` formats its values itself, once per
distinct value.
"""

from __future__ import annotations

import itertools
import os
import struct
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Literal, get_args

import numpy as np

from srnn.jsondoc import dump, load, read

DatasetKind = Literal["sequence-classification", "streaming"]
DATASET_KINDS = get_args(DatasetKind)
MANIFEST_FORMAT = "srnn-dataset/1"

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def input_array(x) -> np.ndarray:
    """Input data as it is stored: a bool array stays bool, anything else
    becomes float.

    Spikes kept as bools take one byte an entry instead of eight. Zeros
    and ones cast to float exactly, so a consumer that casts a slice gets
    the same floats as from a float copy of the whole set.
    """
    x = np.asarray(x)
    return x if x.dtype == bool else x.astype(float, copy=False)


def class_labels(labels, n_classes: int) -> np.ndarray:
    """labels as int class indices; ValueError names the first label that is
    not an integer in [0, n_classes), which is never cast into a class."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biuf":
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    bad = ~((labels >= 0) & (labels < n_classes) & (np.floor(labels) == labels))
    if bad.any():
        raise ValueError(f"label {labels[bad][0].item()!r} is not an integer "
                         f"in [0, {n_classes})")
    return labels.astype(int)


@dataclass
class Dataset:
    inputs: np.ndarray           # (samples, t_steps, channels), bool spikes or float
    labels: np.ndarray           # (samples,) or (samples, t_steps)
    kind: str
    n_classes: int

    def __post_init__(self):
        self.inputs = input_array(self.inputs)
        self.labels = class_labels(self.labels, self.n_classes)
        if self.inputs.ndim != 3:
            raise ValueError("inputs must be (samples, t_steps, channels)")
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"kind must be one of {DATASET_KINDS}")
        want = self.inputs.shape[:2 if self.kind == "streaming" else 1]
        if self.labels.shape != want:
            raise ValueError(f"{self.kind} labels must be {want}, got {self.labels.shape}")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def t_steps(self) -> int:
        return self.inputs.shape[1]

    @property
    def channels(self) -> int:
        return self.inputs.shape[2]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=int)
        return Dataset(inputs=self.inputs[idx], labels=self.labels[idx],
                       kind=self.kind, n_classes=self.n_classes)


def _pattern_events(n_classes: int, t_steps: int, channels: int, seed: int,
                    events_mean: float):
    """Each class template's event times, channel by channel.

    Returns (times, chans): times is (n_classes, n_events), every class's
    events in channel order with each channel's times ascending; chans is
    (n_events,), the channel of each event. Each channel's event count is
    1 + Poisson(events_mean), clipped to t_steps, drawn once and shared by
    all classes; each (class, channel) then draws its times without
    replacement, one `choice` call apiece, from default_rng([seed, 0]).
    """
    rng = np.random.default_rng([seed, 0])
    counts = np.minimum(1 + rng.poisson(events_mean, size=channels), t_steps)
    chans = np.repeat(np.arange(channels), counts)
    times = np.empty((n_classes, chans.size), dtype=int)  # a class count too large fails here
    for row in times:
        row[:] = np.concatenate([rng.choice(t_steps, size=k, replace=False) for k in counts])
    # sort within each channel's run: times are distinct within a channel
    return np.sort(times + t_steps * chans) - t_steps * chans, chans


def gen_pattern_classification(n_classes: int, t_steps: int, channels: int,
                               jitter_std: float, seed: int,
                               n_samples: int = 200,
                               events_mean: float = 3.0) -> Dataset:
    """Spike-timing classification: jittered copies of per-class templates.

    Each channel's event count is 1 + Poisson(events_mean), drawn once and
    shared by all classes; each class places those events at its own
    uniformly drawn times. A sample is its class template with every event
    time shifted by rounded Gaussian jitter, clipped to the sequence.

    Cost: one `choice` draw per (class, channel) for the templates, then
    per sample one label draw and one jitter draw for all of its events.
    Sample k draws from default_rng([seed, 1 + k]) alone, and the same
    arguments give the same values as earlier versions of this function,
    now as a bool array.
    """
    if n_classes < 2 or t_steps < 2 or channels < 1 or n_samples < 1:
        raise ValueError("need n_classes >= 2, t_steps >= 2, channels >= 1, "
                         "n_samples >= 1")
    if jitter_std < 0:
        raise ValueError("jitter_std must be non-negative")
    templates, chans = _pattern_events(n_classes, t_steps, channels, seed, events_mean)
    inputs = np.zeros((n_samples, t_steps, channels), dtype=bool)
    labels = np.zeros(n_samples, dtype=int)
    for k in range(n_samples):
        srng = np.random.default_rng([seed, 1 + k])
        labels[k] = srng.integers(n_classes)
        times = templates[labels[k]]
        if jitter_std > 0:
            # one draw of all events equals the per-channel draws in turn;
            # times are clipped as floats, so no jitter overflows the cast
            times = np.clip(times + np.rint(srng.normal(0.0, jitter_std, size=times.shape)),
                            0, t_steps - 1).astype(int)
        inputs[k, times, chans] = True
    return Dataset(inputs=inputs, labels=labels,
                   kind="sequence-classification", n_classes=n_classes)


def pattern_templates(n_classes: int, t_steps: int, channels: int, seed: int,
                      events_mean: float = 3.0) -> np.ndarray:
    """The jitter-free class rasters behind gen_pattern_classification.

    Returns float (n_classes, t_steps, channels); useful as a
    nearest-template reference classifier. The rasters stay float, unlike
    the samples, so `samples - templates` is a distance: numpy refuses to
    subtract one bool array from another.
    """
    times, chans = _pattern_events(n_classes, t_steps, channels, seed, events_mean)
    out = np.zeros((n_classes, t_steps, channels))
    out[np.arange(n_classes)[:, None], times, chans] = 1.0
    return out


def _waveform_library(k: int, segment_len: int) -> np.ndarray:
    """k distinct unit-amplitude segments: ramps, triangle, bump, steps."""
    t = np.linspace(0.0, 1.0, segment_len)
    shapes = [
        t,                                   # ramp up
        1.0 - t,                             # ramp down
        1.0 - np.abs(2.0 * t - 1.0),         # triangle
        np.exp(-((t - 0.5) / 0.15) ** 2),    # bump
        np.where(t < 0.5, 0.2, 0.9),         # step
        0.5 + 0.5 * np.sin(2.0 * np.pi * t), # one sine period
    ]
    if k > len(shapes):
        raise ValueError(f"at most {len(shapes)} waveform kinds are defined")
    return np.stack(shapes[:k])


def gen_streaming_waveform(k: int, segment_len: int, segments_per_sample: int,
                           noise_std: float, seed: int,
                           n_samples: int = 100) -> Dataset:
    """Streaming labeling: concatenated waveform segments, a label per step.

    Each sample chains segments_per_sample segments drawn uniformly from k
    waveform kinds, adds Gaussian noise, and labels every step with its
    segment's kind. Single analog channel.
    """
    if k < 2 or segment_len < 2 or segments_per_sample < 1 or n_samples < 1:
        raise ValueError("need k >= 2, segment_len >= 2, "
                         "segments_per_sample >= 1, n_samples >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    library = _waveform_library(k, segment_len)
    t_steps = segment_len * segments_per_sample
    inputs = np.zeros((n_samples, t_steps, 1))
    labels = np.zeros((n_samples, t_steps), dtype=int)
    for s in range(n_samples):
        srng = np.random.default_rng([seed, s])
        order = srng.integers(k, size=segments_per_sample)
        series = np.concatenate([library[c] for c in order])
        if noise_std > 0:
            series = series + srng.normal(0.0, noise_std, size=series.shape)
        inputs[s, :, 0] = series
        labels[s] = np.repeat(order, segment_len)
    return Dataset(inputs=inputs, labels=labels, kind="streaming", n_classes=k)


def csv_text(rows) -> str:
    """Rows as CSV text: each value as `str()` writes it (a float as its
    round-trip repr), commas between, every line ended by a newline."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _parse_error(path, line_no: int, why: str) -> ValueError:
    return ValueError(f"{path}:{line_no}: {why}")


def _parse(lines, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # no rows: the caller reports it
        # numpy before 2.0 reads "1.5" as the int 1, with this warning
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=dtype)


def _numbered_lines(path):
    """(line number, stripped text) of each non-blank line of a file."""
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            if line := line.strip():
                yield line_no, line


def _first_bad_row(path, n_fields: int, dtype) -> ValueError:
    """The error of the first line that is not `n_fields` finite `dtype` numbers."""
    for line_no, line in _numbered_lines(path):
        if (got := line.count(",") + 1) != n_fields:
            return _parse_error(path, line_no, f"expected {n_fields} fields, got {got}")
        try:
            row = _parse([line], dtype)
        except (ValueError, DeprecationWarning):
            return _parse_error(path, line_no, "non-numeric field" if dtype is float
                                else "non-integer field")
        if not np.isfinite(row).all():
            return _parse_error(path, line_no, "non-finite field")
    return ValueError(f"{path}: not a CSV of {n_fields} fields")


def _line_of(path, row: int) -> int:
    """The line number of the `row`-th non-blank line (from 0) of a file."""
    return next(itertools.islice(_numbered_lines(path), row, None))[0]


def read_csv(path, n_fields: int, dtype=float) -> np.ndarray:
    """The non-blank lines of a CSV file as an (n_rows, n_fields) array of
    finite floats or of int64s (digits, optional sign); empty if none.

    numpy parses the whole file; only if that fails is it scanned line by
    line, to name the file and line of the first bad row in a ValueError.
    """
    try:
        with open(path) as f:
            arr = _parse((line for line in map(str.strip, f) if line), dtype)
    except (ValueError, DeprecationWarning):
        raise _first_bad_row(path, n_fields, dtype) from None
    if arr.size and (arr.shape[1] != n_fields or not np.isfinite(arr).all()):
        raise _first_bad_row(path, n_fields, dtype)
    return arr


def _dense_rows(path, t_steps: int, channels: int):
    """(samples, t_steps, channels) inputs and (samples, t_steps) int labels of
    label,v0,...,v{N-1} rows; a non-finite or non-numeric field names its line."""
    arr = read_csv(path, channels + 1)
    n_rows = len(arr)
    if not n_rows or n_rows % t_steps != 0:
        raise ValueError(f"{path}: row count {n_rows} is not a multiple "
                         f"of t_steps={t_steps}")
    n = n_rows // t_steps
    label_col = arr[:, 0].reshape(n, t_steps)
    if np.any((label_col != np.rint(label_col)) | (np.abs(label_col) > 2**53)):
        raise ValueError(f"{path}: labels must be integers of magnitude at most 2**53")
    return arr[:, 1:].reshape(n, t_steps, channels), label_col.astype(int)


def load_dense_csv(path, t_steps: int, channels: int) -> Dataset:
    """Read label,v0,...,v{N-1} rows grouped into samples of t_steps rows.

    A constant label column within a sample means sequence classification;
    a varying one means streaming (applied uniformly over the file).
    """
    inputs, step_labels = _dense_rows(path, t_steps, channels)
    streaming = bool(np.any(step_labels != step_labels[:, :1]))
    return Dataset(inputs=inputs, labels=step_labels if streaming else step_labels[:, 0],
                   kind="streaming" if streaming else "sequence-classification",
                   n_classes=int(step_labels.max()) + 1)


def save_dense_csv(ds: Dataset, path) -> None:
    """Write a dataset in the dense CSV row format load_dense_csv reads.

    Every value is written as repr(float(v)), which reads back exactly.
    Each distinct value is formatted once: values are told apart by their
    bits, so -0.0 keeps its sign.
    """
    x = np.ascontiguousarray(ds.inputs, dtype=float).reshape(
        ds.n_samples * ds.t_steps, ds.channels)
    bits, which = np.unique(x.view(np.uint64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    cells = text[which.reshape(x.shape)].tolist()
    labels = ds.labels if ds.labels.ndim == 2 else ds.labels[:, None]
    labels = np.broadcast_to(labels, (ds.n_samples, ds.t_steps)).ravel().tolist()
    with open(path, "w") as f:
        f.writelines(f"{label},{','.join(row)}\n" for label, row in zip(labels, cells))


def load_event_csv(path) -> Dataset:
    """Read sample,t,channel,label spike events into a bool dataset.

    Every field is an int64 (see read_csv). Raises ValueError naming the
    file and line of a malformed or negative event, and of an event whose
    label differs from its sample's first one.
    """
    ev = read_csv(path, 4, np.int64)
    if not len(ev):
        raise ValueError(f"{path}: no events")
    negative = (ev < 0).any(axis=1).nonzero()[0]
    if negative.size:
        raise _parse_error(path, _line_of(path, negative[0]), "negative field")
    samples, first = np.unique(ev[:, 0], return_index=True)
    sample_label = ev[first[np.searchsorted(samples, ev[:, 0])], 3]
    clash = (ev[:, 3] != sample_label).nonzero()[0]
    if clash.size:
        i = clash[0]
        j = first[np.searchsorted(samples, ev[i, 0])]
        raise _parse_error(path, _line_of(path, i),
                           f"sample {ev[i, 0]} has label {ev[i, 3]} here but "
                           f"label {ev[j, 3]} on line {_line_of(path, j)}")
    n, t_steps, channels = ev[:, :3].max(axis=0) + 1
    inputs = np.zeros((n, t_steps, channels), dtype=bool)
    labels = np.zeros(n, dtype=int)
    inputs[ev[:, 0], ev[:, 1], ev[:, 2]] = True
    labels[ev[:, 0]] = ev[:, 3]
    return Dataset(inputs=inputs, labels=labels, kind="sequence-classification",
                   n_classes=int(ev[:, 3].max()) + 1)


def save_event_csv(ds: Dataset, path) -> None:
    """Write a binary classification dataset as sample,t,channel,label rows."""
    if ds.kind != "sequence-classification":
        raise ValueError("event CSV holds sequence-classification data")
    if not np.all((ds.inputs == 0) | (ds.inputs == 1)):
        raise ValueError("event CSV holds binary rasters only")
    s, t, ch = np.nonzero(ds.inputs)
    Path(path).write_text(csv_text(np.column_stack([s, t, ch, ds.labels[s]]).tolist()))


def _idx_body(f, path, header_bytes: int, claimed: int) -> bytes:
    """The `claimed` bytes after an IDX header, read once the file's size
    is known to match the claim, so a header cannot ask for more memory
    than the file holds."""
    end = header_bytes + claimed
    size = os.fstat(f.fileno()).st_size
    if size < end:
        raise ValueError(f"{path}: truncated data: the header claims {claimed} bytes, "
                         f"the data ends at byte {size} of {end}")
    if size > end:
        raise ValueError(f"{path}: {size - end} bytes past the claimed data, "
                         f"from byte {end}")
    return f.read(claimed)


def load_idx(images_path, labels_path) -> Dataset:
    """Read IDX image/label files into pixel sequences scaled to [0, 1].

    Each image becomes a (rows*cols, 1) sequence read row-major, one
    pixel per step. Each file must hold exactly the bytes its header
    claims; a shortfall or surplus raises ValueError naming the byte
    offset, before any data is read.
    """
    with open(images_path, "rb") as f:
        header = f.read(16)
        if len(header) != 16:
            raise ValueError(f"{images_path}: truncated header")
        magic, n, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"{images_path}: bad magic 0x{magic:08x}")
        raw = _idx_body(f, images_path, 16, n * rows * cols)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols, 1)
    with open(labels_path, "rb") as f:
        header = f.read(8)
        if len(header) != 8:
            raise ValueError(f"{labels_path}: truncated header")
        magic, n_labels = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(f"{labels_path}: bad magic 0x{magic:08x}")
        raw = _idx_body(f, labels_path, 8, n_labels)
    if n_labels != n:
        raise ValueError(f"image count {n} != label count {n_labels}")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(int)
    return Dataset(inputs=images.astype(float) / 255.0, labels=labels,
                   kind="sequence-classification",
                   n_classes=int(labels.max()) + 1 if n else 1)


def split(ds: Dataset, ratios=(0.72, 0.08, 0.20), seed: int = 0):
    """Shuffle and partition a dataset into (train, val, test).

    The first two sizes are floors of ratio * n; the remainder is test, so
    the three parts always cover every sample exactly once.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError("ratios must be three non-negative numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    n = ds.n_samples
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(ratios[0] * n)
    n_val = int(ratios[1] * n)
    return (ds.subset(order[:n_train]),
            ds.subset(order[n_train:n_train + n_val]),
            ds.subset(order[n_train + n_val:]))


@dataclass
class Manifest:
    """manifest.json of a dataset directory, read by srnn.jsondoc."""

    format: Literal["srnn-dataset/1"]
    kind: DatasetKind
    n_samples: int
    t_steps: int
    channels: int
    n_classes: int
    data: str

    def __post_init__(self):
        if min(self.t_steps, self.channels, self.n_classes) < 1 or self.n_samples < 0:
            raise ValueError("t_steps, channels and n_classes must be at least 1, "
                             "n_samples non-negative")


def save_dataset(ds: Dataset, out_dir) -> None:
    """Materialize a dataset as a manifest plus a dense CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(format=MANIFEST_FORMAT, kind=ds.kind, n_samples=ds.n_samples,
                        t_steps=ds.t_steps, channels=ds.channels,
                        n_classes=ds.n_classes, data="data.csv")
    dump(asdict(manifest), out / "manifest.json")
    save_dense_csv(ds, out / "data.csv")


def load_dataset(in_dir) -> Dataset:
    """Read a dataset directory written by save_dataset.

    The manifest sets the kind and the class count, so a label outside
    [0, n_classes) raises ValueError naming it. A manifest that is not JSON
    raises ValueError (srnn.jsondoc.load), one of another format raises
    ValueError naming that format, and one that does not fit `Manifest`
    raises srnn.jsondoc.SchemaError.
    """
    path = Path(in_dir) / "manifest.json"
    doc = load(path)
    if isinstance(doc, dict) and doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"unsupported dataset format: {doc.get('format')!r}")
    manifest = read(Manifest, doc)
    inputs, labels = _dense_rows(Path(in_dir) / manifest.data, manifest.t_steps,
                                 manifest.channels)
    if len(inputs) != manifest.n_samples:
        raise ValueError(f"{path}: manifest sample count mismatch")
    if manifest.kind == "sequence-classification":
        if np.any(labels != labels[:, :1]):
            raise ValueError(f"{path}: kind mismatch")
        labels = labels[:, 0]
    return Dataset(inputs=inputs, labels=labels, kind=manifest.kind,
                   n_classes=manifest.n_classes)
