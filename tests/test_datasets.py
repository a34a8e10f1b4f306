"""Unit tests for synthetic task generators, loaders, and splitting."""

import struct
import tracemalloc

import numpy as np
import pytest

from srnn.codecs import encode_dataset, level_crossing_encode
from srnn.datasets import (
    Dataset,
    gen_pattern_classification,
    gen_streaming_waveform,
    load_dataset,
    load_dense_csv,
    load_event_csv,
    load_idx,
    pattern_templates,
    save_dataset,
    save_dense_csv,
    save_event_csv,
    split,
)


def test_pattern_generator_is_deterministic():
    a = gen_pattern_classification(3, 30, 8, 1.0, seed=5, n_samples=40)
    b = gen_pattern_classification(3, 30, 8, 1.0, seed=5, n_samples=40)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    c = gen_pattern_classification(3, 30, 8, 1.0, seed=6, n_samples=40)
    assert not np.array_equal(a.inputs, c.inputs)


def test_pattern_generator_shapes_and_values():
    ds = gen_pattern_classification(4, 50, 20, 1.0, seed=0, n_samples=60)
    assert ds.inputs.shape == (60, 50, 20)
    assert ds.labels.shape == (60,)
    assert ds.kind == "sequence-classification"
    assert ds.n_classes == 4
    assert set(np.unique(ds.inputs)) <= {0.0, 1.0}
    assert ds.labels.min() >= 0 and ds.labels.max() < 4


def test_zero_jitter_samples_equal_their_templates():
    ds = gen_pattern_classification(3, 40, 10, 0.0, seed=9, n_samples=30)
    templates = pattern_templates(3, 40, 10, seed=9)
    for k in range(ds.n_samples):
        assert np.array_equal(ds.inputs[k], templates[ds.labels[k]])


def test_classes_share_per_channel_spike_counts():
    # spike counts are uninformative by construction; only timing separates
    templates = pattern_templates(5, 60, 12, seed=3)
    counts = templates.sum(axis=1)  # (classes, channels)
    assert np.array_equal(counts, np.broadcast_to(counts[0], counts.shape))
    assert not np.array_equal(templates[0], templates[1])


def test_nearest_template_oracle_recovers_labels():
    ds = gen_pattern_classification(4, 50, 20, 1.0, seed=11, n_samples=200)
    templates = pattern_templates(4, 50, 20, seed=11)
    dists = np.abs(ds.inputs[:, None] - templates[None]).sum(axis=(2, 3))
    pred = dists.argmin(axis=1)
    assert (pred == ds.labels).mean() >= 0.9


def reference_pattern_classification(n_classes, t_steps, channels, jitter_std, seed,
                                     n_samples, events_mean):
    """The per-channel loops the generator once ran: (inputs, labels, templates)."""
    rng = np.random.default_rng([seed, 0])
    counts = np.minimum(1 + rng.poisson(events_mean, size=channels), t_steps)
    events = [[np.sort(rng.choice(t_steps, size=counts[ch], replace=False))
               for ch in range(channels)] for _ in range(n_classes)]
    templates = np.zeros((n_classes, t_steps, channels))
    for c in range(n_classes):
        for ch in range(channels):
            templates[c, events[c][ch], ch] = 1.0
    inputs = np.zeros((n_samples, t_steps, channels))
    labels = np.zeros(n_samples, dtype=int)
    for k in range(n_samples):
        srng = np.random.default_rng([seed, 1 + k])
        labels[k] = int(srng.integers(n_classes))
        for ch in range(channels):
            times = events[labels[k]][ch]
            if jitter_std > 0:
                times = times + np.rint(
                    srng.normal(0.0, jitter_std, size=times.shape)).astype(int)
                times = np.clip(times, 0, t_steps - 1)
            inputs[k, times, ch] = 1.0
    return inputs, labels, templates


@pytest.mark.parametrize("n_classes, t_steps, channels, jitter_std, events_mean", [
    (4, 50, 20, 1.0, 3.0),     # the README shape
    (3, 40, 10, 0.0, 3.0),     # zero jitter
    (2, 12, 6, 30.0, 3.0),     # jitter that clips at both ends
    (3, 6, 5, 1.5, 40.0),      # counts clipped to t_steps
    (2, 30, 1, 1.0, 3.0),      # a single channel
    (20, 25, 8, 2.0, 3.0),     # many classes
])
def test_pattern_generator_matches_per_channel_reference(n_classes, t_steps, channels,
                                                         jitter_std, events_mean):
    for seed in (0, 7):
        ds = gen_pattern_classification(n_classes, t_steps, channels, jitter_std,
                                        seed=seed, n_samples=60, events_mean=events_mean)
        inputs, labels, templates = reference_pattern_classification(
            n_classes, t_steps, channels, jitter_std, seed, 60, events_mean)
        assert np.array_equal(ds.inputs, inputs)
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(pattern_templates(n_classes, t_steps, channels, seed,
                                                events_mean=events_mean), templates)
    if jitter_std >= t_steps:
        assert inputs[:, 0].any() and inputs[:, -1].any()
    if events_mean > t_steps:
        assert np.all(templates.sum(axis=1) == t_steps)


def test_pattern_generator_validation():
    with pytest.raises(ValueError):
        gen_pattern_classification(1, 30, 8, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_pattern_classification(3, 1, 8, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_pattern_classification(3, 30, 0, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_pattern_classification(3, 30, 8, -0.5, seed=0)


def test_streaming_generator_structure():
    ds = gen_streaming_waveform(3, 25, 4, 0.05, seed=7, n_samples=20)
    assert ds.inputs.shape == (20, 100, 1)
    assert ds.labels.shape == (20, 100)
    assert ds.kind == "streaming"
    assert ds.n_classes == 3
    # labels are constant within each segment block
    blocks = ds.labels.reshape(20, 4, 25)
    assert np.array_equal(blocks, np.broadcast_to(blocks[:, :, :1], blocks.shape))
    again = gen_streaming_waveform(3, 25, 4, 0.05, seed=7, n_samples=20)
    assert np.array_equal(ds.inputs, again.inputs)


def test_noiseless_streaming_segments_match_library():
    ds = gen_streaming_waveform(3, 20, 5, 0.0, seed=4, n_samples=10)
    t = np.linspace(0.0, 1.0, 20)
    library = np.stack([t, 1.0 - t, 1.0 - np.abs(2.0 * t - 1.0)])
    segs = ds.inputs[:, :, 0].reshape(10, 5, 20)
    labels = ds.labels.reshape(10, 5, 20)[:, :, 0]
    for s in range(10):
        for j in range(5):
            assert np.array_equal(segs[s, j], library[labels[s, j]])


def test_streaming_generator_validation():
    with pytest.raises(ValueError):
        gen_streaming_waveform(1, 20, 4, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_streaming_waveform(3, 20, 4, -0.1, seed=0)
    with pytest.raises(ValueError):
        gen_streaming_waveform(7, 20, 4, 0.0, seed=0)  # only 6 shapes exist


def test_split_sizes_and_coverage():
    ds = gen_pattern_classification(3, 10, 4, 0.0, seed=1, n_samples=1000)
    train, val, test = split(ds, seed=0)
    assert (train.n_samples, val.n_samples, test.n_samples) == (720, 80, 200)
    key = ds.inputs.reshape(1000, -1) @ np.random.default_rng(0).normal(size=40)
    seen = np.concatenate([
        part.inputs.reshape(part.n_samples, -1) @ np.random.default_rng(0).normal(size=40)
        for part in (train, val, test)])
    assert np.allclose(np.sort(seen), np.sort(key))
    t2, v2, s2 = split(ds, seed=0)
    assert np.array_equal(train.inputs, t2.inputs)
    t3, _, _ = split(ds, seed=1)
    assert not np.array_equal(train.inputs, t3.inputs)


def test_split_ratio_validation():
    ds = gen_pattern_classification(3, 10, 4, 0.0, seed=1, n_samples=50)
    with pytest.raises(ValueError):
        split(ds, ratios=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        split(ds, ratios=(0.9, -0.1, 0.2))
    with pytest.raises(ValueError):
        split(ds, ratios=(0.5, 0.5))


def test_dataset_validation():
    x = np.zeros((4, 6, 2))
    with pytest.raises(ValueError):
        Dataset(inputs=x, labels=np.zeros(4, dtype=int), kind="spiking",
                n_classes=2)
    with pytest.raises(ValueError):
        Dataset(inputs=x, labels=np.zeros((4, 6), dtype=int),
                kind="sequence-classification", n_classes=2)
    with pytest.raises(ValueError):
        Dataset(inputs=x, labels=np.zeros((4, 5), dtype=int), kind="streaming",
                n_classes=2)
    with pytest.raises(ValueError):
        Dataset(inputs=x, labels=np.full(4, 2), kind="sequence-classification",
                n_classes=2)
    with pytest.raises(ValueError):
        Dataset(inputs=np.zeros((4, 6)), labels=np.zeros(4, dtype=int),
                kind="sequence-classification", n_classes=2)


def test_dataset_rejects_non_integer_labels():
    # labels were cast to int: [0.5, 1.7] was stored as [0, 1]
    x = np.zeros((2, 6, 2))
    with pytest.raises(ValueError, match=r"label 0.5 is not an integer in \[0, 2\)"):
        Dataset(inputs=x, labels=[0.5, 1.7], kind="sequence-classification", n_classes=2)


def test_dense_csv_round_trip_classification(tmp_path):
    ds = gen_pattern_classification(3, 12, 5, 1.0, seed=2, n_samples=15)
    path = tmp_path / "dense.csv"
    save_dense_csv(ds, path)
    back = load_dense_csv(path, t_steps=12, channels=5)
    assert back.kind == "sequence-classification"
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)


def test_dense_csv_round_trip_streaming(tmp_path):
    ds = gen_streaming_waveform(3, 10, 3, 0.02, seed=8, n_samples=12)
    path = tmp_path / "stream.csv"
    save_dense_csv(ds, path)
    back = load_dense_csv(path, t_steps=30, channels=1)
    assert back.kind == "streaming"
    # repr round-trips floats exactly
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)


def _reference_dense_csv(ds, path):
    """The per-value writer save_dense_csv must match byte for byte."""
    with open(path, "w") as f:
        for s in range(ds.n_samples):
            for t in range(ds.t_steps):
                label = ds.labels[s] if ds.labels.ndim == 1 else ds.labels[s, t]
                vals = ",".join(repr(float(v)) for v in ds.inputs[s, t])
                f.write(f"{int(label)},{vals}\n")


@pytest.mark.parametrize("kind", ["sequence-classification", "streaming"])
def test_dense_csv_bytes_match_the_per_value_writer(tmp_path, kind):
    rng = np.random.default_rng(4)
    special = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300,
               -1.7976931348623157e308, 1e-300, 0.1, 1.0 / 3.0, 1e16, 123456789.0]
    x = rng.choice(special, size=(5, 7, 4))
    x[0] = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-320, 300, size=(7, 4))
    labels = (rng.integers(0, 3, size=5) if kind == "sequence-classification"
              else rng.integers(0, 3, size=(5, 7)))
    ds = Dataset(inputs=x, labels=labels, kind=kind, n_classes=3)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_dense_csv(ds, got)
    _reference_dense_csv(ds, want)
    assert got.read_bytes() == want.read_bytes()
    assert (np.signbit(x) & (x == 0)).any()     # -0.0 is written apart from 0.0
    back = load_dense_csv(got, t_steps=7, channels=4)
    assert np.array_equal(back.inputs.view(np.uint64), x.view(np.uint64))


def test_dense_csv_parse_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1.0,2.0\n0,1.0\n")
    with pytest.raises(ValueError, match="expected 3 fields"):
        load_dense_csv(bad, t_steps=2, channels=2)
    bad.write_text("0,1.0,x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_dense_csv(bad, t_steps=1, channels=2)
    bad.write_text("0,1.0,2.0\n0,1.0,2.0\n0,1.0,2.0\n")
    with pytest.raises(ValueError, match="multiple"):
        load_dense_csv(bad, t_steps=2, channels=2)
    bad.write_text("0.5,1.0,2.0\n")
    with pytest.raises(ValueError, match="integers"):
        load_dense_csv(bad, t_steps=1, channels=2)


def test_dense_csv_loads_without_per_value_objects(tmp_path):
    # one Python float per value made the peak about 6x the array itself
    ds = gen_pattern_classification(4, 50, 20, 1.0, seed=0, n_samples=1000)
    path = tmp_path / "quick.csv"
    save_dense_csv(ds, path)
    tracemalloc.start()
    try:
        back = load_dense_csv(path, t_steps=50, channels=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.inputs, ds.inputs)
    assert peak <= 3 * back.inputs.nbytes, (peak, back.inputs.nbytes)


def test_dense_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\n0,1.0,2.0\n   \n1,3.5,-4.0\n\n")
    ds = load_dense_csv(path, t_steps=2, channels=2)
    assert ds.kind == "streaming"
    assert np.array_equal(ds.inputs, [[[1.0, 2.0], [3.5, -4.0]]])
    path.write_text("0,1.0,2.0\n\n0,1.0\n")
    with pytest.raises(ValueError, match=r"blank\.csv:3: expected 3 fields, got 2"):
        load_dense_csv(path, t_steps=2, channels=2)
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="row count 0 is not a multiple"):
        load_dense_csv(path, t_steps=2, channels=2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dense_csv_rejects_a_label_past_the_int_range(tmp_path):
    # 1e300 was cast to int64 with a RuntimeWarning and named as a negative label
    path = tmp_path / "huge.csv"
    path.write_text("1e300,1.0\n1e300,2.0\n")
    with pytest.raises(ValueError, match=r"huge\.csv: labels must be integers"):
        load_dense_csv(path, t_steps=2, channels=1)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e400"])
def test_csv_loaders_reject_non_finite_fields(tmp_path, field):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"0,1.0,2.0\n0,{field},2.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: non-finite field"):
        load_dense_csv(bad, t_steps=2, channels=2)
    bad.write_text(f"0,0,0,1\n0,{field},0,1\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: non-integer field"):
        load_event_csv(bad)


def test_event_csv_round_trip(tmp_path):
    ds = gen_pattern_classification(3, 15, 6, 0.0, seed=12, n_samples=20)
    path = tmp_path / "events.csv"
    save_event_csv(ds, path)
    back = load_event_csv(path)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)


def _reference_event_csv(ds, path):
    """The per-event writer save_event_csv must match byte for byte."""
    with open(path, "w") as f:
        for s, t, ch in zip(*np.nonzero(ds.inputs)):
            f.write(f"{s},{t},{ch},{int(ds.labels[s])}\n")


def test_event_csv_bytes_match_the_per_event_writer(tmp_path):
    ds = gen_pattern_classification(12, 40, 30, 1.0, seed=5, n_samples=25)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_event_csv(ds, got)
    _reference_event_csv(ds, want)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_text().count("\n") == np.count_nonzero(ds.inputs) > 0


@pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff15", "9223372036854775808"])
def test_event_csv_fields_are_int64(tmp_path, field):
    # Python's int() reads each of these; numpy's int64 parser, and so the
    # event loader, reads none of them
    bad = tmp_path / "bad.csv"
    bad.write_text(f"0,1,2,1\n\n0,{field},2,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.csv:3: non-integer field"):
        load_event_csv(bad)


def test_event_csv_rejects_non_rasters(tmp_path):
    analog = gen_streaming_waveform(3, 10, 2, 0.0, seed=0, n_samples=5)
    with pytest.raises(ValueError):
        save_event_csv(analog, tmp_path / "x.csv")
    dense = Dataset(inputs=np.full((2, 4, 1), 0.5),
                    labels=np.zeros(2, dtype=int),
                    kind="sequence-classification", n_classes=2)
    with pytest.raises(ValueError):
        save_event_csv(dense, tmp_path / "y.csv")


def test_event_csv_parse_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1,2\n")
    with pytest.raises(ValueError, match="expected 4 fields"):
        load_event_csv(bad)
    bad.write_text("0,1,2,1.5\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_event_csv(bad)
    bad.write_text("0,1,2,1\n\n0,-1,2,1\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: negative field"):
        load_event_csv(bad)
    # one sample's events must agree on its label; the error names the
    # line of the first disagreeing event and both labels
    bad.write_text("1,0,0,2\n0,0,1,1\n0,3,2,1\n1,4,0,0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:4: sample 1 has label 0 here "
                                         r"but label 2 on line 1"):
        load_event_csv(bad)
    bad.write_text("")
    with pytest.raises(ValueError, match="no events"):
        load_event_csv(bad)


def _write_idx(tmp_path, images, labels):
    n, rows, cols = images.shape
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols)
                   + images.astype(np.uint8).tobytes())
    lp.write_bytes(struct.pack(">II", 0x00000801, n)
                   + labels.astype(np.uint8).tobytes())
    return ip, lp


def test_idx_loader(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 4, 3))
    labels = np.array([0, 1, 2, 1, 0])
    ip, lp = _write_idx(tmp_path, images, labels)
    ds = load_idx(ip, lp)
    assert ds.inputs.shape == (5, 12, 1)
    assert np.allclose(ds.inputs[:, :, 0], images.reshape(5, 12) / 255.0)
    assert np.array_equal(ds.labels, labels)
    assert ds.n_classes == 3


def test_idx_loader_errors(tmp_path):
    images = np.zeros((2, 3, 3), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    ip, lp = _write_idx(tmp_path, images, labels)

    short = tmp_path / "short.idx"
    short.write_bytes(b"\x00\x00")
    with pytest.raises(ValueError, match="truncated header"):
        load_idx(short, lp)

    wrong = tmp_path / "wrong.idx"
    wrong.write_bytes(struct.pack(">IIII", 0xdead, 2, 3, 3) + bytes(18))
    with pytest.raises(ValueError, match="bad magic"):
        load_idx(wrong, lp)

    cut = tmp_path / "cut.idx"
    cut.write_bytes(struct.pack(">IIII", 0x00000803, 2, 3, 3) + bytes(5))
    with pytest.raises(ValueError, match="truncated data"):
        load_idx(cut, lp)

    lp3 = tmp_path / "three.idx"
    lp3.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes(3))
    with pytest.raises(ValueError, match="count"):
        load_idx(ip, lp3)


def test_idx_header_claims_are_checked_before_reading(tmp_path):
    images = np.zeros((2, 3, 3), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    ip, lp = _write_idx(tmp_path, images, labels)
    # 2^31 images of 2^15 x 2^15 pixels: 2^61 bytes claimed by 16
    huge = tmp_path / "huge.idx"
    huge.write_bytes(struct.pack(">IIII", 0x00000803, 2**31, 2**15, 2**15))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"huge\.idx: truncated data: .* "
                                             r"ends at byte 16 of 2305843009213693968"):
            load_idx(huge, lp)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()

    cut = tmp_path / "cut.idx"
    cut.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(1))
    with pytest.raises(ValueError, match=r"cut\.idx: truncated data: .* ends at byte 9 of 10"):
        load_idx(ip, cut)

    # bytes past the claim fail too
    long = tmp_path / "long.idx"
    long.write_bytes(ip.read_bytes() + bytes(3))
    with pytest.raises(ValueError, match=r"long\.idx: 3 bytes past the claimed data, "
                                         r"from byte 34"):
        load_idx(long, lp)
    long.write_bytes(lp.read_bytes() + bytes(1))
    with pytest.raises(ValueError, match=r"long\.idx: 1 bytes past the claimed data, "
                                         r"from byte 10"):
        load_idx(ip, long)


def test_spike_data_is_bool_and_analog_data_float(tmp_path):
    pattern = gen_pattern_classification(3, 15, 6, 1.0, seed=12, n_samples=20)
    save_event_csv(pattern, tmp_path / "events.csv")
    events = load_event_csv(tmp_path / "events.csv")
    wave = gen_streaming_waveform(3, 10, 2, 0.05, seed=0, n_samples=6)
    encoded = encode_dataset(wave, 0.05, 0.05)
    for ds in (pattern, events, encoded):
        assert ds.inputs.dtype == bool
        assert all(part.inputs.dtype == bool
                   for part in (ds.subset([1, 0]), *split(ds, seed=3)))
    assert np.array_equal(events.inputs, pattern.inputs)
    assert level_crossing_encode(wave.inputs[0]).data.dtype == bool

    save_dense_csv(wave, tmp_path / "wave.csv")
    ip, lp = _write_idx(tmp_path, np.zeros((2, 3, 3)), np.zeros(2))
    analog = (wave, load_dense_csv(tmp_path / "wave.csv", 20, 1), load_idx(ip, lp),
              Dataset(inputs=np.ones((2, 4, 3), dtype=int), labels=np.zeros(2, dtype=int),
                      kind="sequence-classification", n_classes=1))
    for ds in analog:
        assert ds.inputs.dtype == float
    assert pattern_templates(3, 15, 6, seed=12).dtype == float

    # a bool set writes the bytes of its float copy
    as_float = Dataset(inputs=pattern.inputs.astype(float), labels=pattern.labels,
                       kind=pattern.kind, n_classes=pattern.n_classes)
    save_dense_csv(pattern, tmp_path / "bool.csv")
    save_dense_csv(as_float, tmp_path / "float.csv")
    assert (tmp_path / "bool.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()


def test_dataset_directory_round_trip(tmp_path):
    ds = gen_pattern_classification(3, 12, 4, 1.0, seed=6, n_samples=10)
    save_dataset(ds, tmp_path / "cls")
    back = load_dataset(tmp_path / "cls")
    assert back.kind == ds.kind and back.n_classes == ds.n_classes
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.labels, ds.labels)

    stream = gen_streaming_waveform(3, 10, 3, 0.01, seed=6, n_samples=8)
    save_dataset(stream, tmp_path / "stream")
    back = load_dataset(tmp_path / "stream")
    assert back.kind == "streaming"
    assert np.array_equal(back.labels, stream.labels)


def test_dataset_directory_constant_label_streaming(tmp_path):
    # a one-segment streaming set has constant per-sample labels; the dense
    # CSV alone would read as classification, the manifest restores the kind
    stream = gen_streaming_waveform(3, 12, 1, 0.01, seed=2, n_samples=6)
    save_dataset(stream, tmp_path / "flat")
    back = load_dataset(tmp_path / "flat")
    assert back.kind == "streaming"
    assert back.labels.shape == (6, 12)
    assert np.array_equal(back.labels, stream.labels)


def test_dataset_directory_format_check(tmp_path):
    ds = gen_pattern_classification(3, 6, 2, 0.0, seed=1, n_samples=4)
    save_dataset(ds, tmp_path / "d")
    manifest = (tmp_path / "d" / "manifest.json")
    manifest.write_text(manifest.read_text().replace("srnn-dataset/1", "x/9"))
    with pytest.raises(ValueError, match="unsupported dataset format"):
        load_dataset(tmp_path / "d")
