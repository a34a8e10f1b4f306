"""End-to-end tests for the command-line interface."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import srnn
import srnn.cli
from srnn.accounting import ArchDescription, cost_report
from srnn.cli import main
from srnn.datasets import Dataset, load_dataset, save_dataset
from srnn.gradcheck import _kink_margin
from srnn.jsondoc import read
from srnn.network import LayerSpec, NetworkSpec, forward_sequence, init_network, load_model, \
    save_model
from srnn.training import evaluate, fit


def write_config(path, doc):
    doc = {"format": "srnn-config/1", **doc}
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def pattern_config(tmp_path, out_name="run", epochs=2, **extra):
    hidden = {"size": 8, "neuron": "alif", "recurrent": True,
              "tau_m_init": [8.0, 2.0], "tau_adp_init": [40.0, 5.0],
              "b_0": 0.3, "beta": 0.6}
    readout = {"size": 2, "neuron": "alif",
               "tau_m_init": [8.0, 2.0], "tau_adp_init": [40.0, 5.0],
               "b_0": 0.3, "beta": 0.6}
    doc = {
        "network": {"input_size": 3, "layers": [hidden, readout],
                    "decode": "spike_count", "seed": 1},
        "training": {"epochs": epochs, "lr": 0.01, "minibatch": 8,
                     "surrogate": {"kind": "multi_gaussian"}, "loss": "ce",
                     "seed": 0},
        "task": {"kind": "pattern_classification", "n_classes": 2,
                 "t_steps": 8, "channels": 3, "jitter_std": 0.5,
                 "seed": 1, "n_samples": 20},
        "outputs": {"dir": str(tmp_path / out_name)},
    }
    doc.update(extra)
    return write_config(tmp_path / f"{out_name}.json", doc)


def streaming_config(tmp_path, out_name="stream"):
    doc = {
        "network": {"input_size": 2,
                    "layers": [{"size": 6, "neuron": "alif", "recurrent": True,
                                "tau_m_init": [5.0, 1.0],
                                "tau_adp_init": [30.0, 3.0],
                                "b_0": 0.2, "beta": 0.5},
                               {"size": 2, "neuron": "readout",
                                "tau_m_init": [5.0, 1.0]}],
                    "decode": "membrane_softmax", "seed": 2},
        "training": {"epochs": 1, "lr": 0.01, "minibatch": 8,
                     "loss": "nll_streaming", "seed": 0},
        "task": {"kind": "streaming_waveform", "k": 2, "segment_len": 10,
                 "segments_per_sample": 2, "noise_std": 0.02, "seed": 2,
                 "n_samples": 15, "encode": {"up": 0.05, "down": 0.05}},
        "outputs": {"dir": str(tmp_path / out_name)},
    }
    return write_config(tmp_path / f"{out_name}.json", doc)


def test_train_writes_artifacts(tmp_path, capsys):
    cfg = pattern_config(tmp_path)
    assert main(["train", "--config", cfg]) == 0
    out = tmp_path / "run"
    for name in ("model.json", "metrics.csv", "anytime.csv",
                 "cost_report.txt", "cost_report.csv"):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "test accuracy" in stdout
    metrics = (out / "metrics.csv").read_text().strip().split("\n")
    assert metrics[0] == "epoch,split,loss,accuracy,mean_firing_rate,lr"
    assert len(metrics) == 1 + 2 * 2  # train and eval rows per epoch
    model = json.loads((out / "model.json").read_text())
    assert model["format"] == "srnn-model/1"


def test_train_is_thread_invariant(tmp_path):
    cfg1 = pattern_config(tmp_path, out_name="t1")
    cfg4 = pattern_config(tmp_path, out_name="t4")
    assert main(["train", "--config", cfg1, "--threads", "1"]) == 0
    assert main(["train", "--config", cfg4, "--threads", "4"]) == 0
    assert ((tmp_path / "t1" / "metrics.csv").read_bytes()
            == (tmp_path / "t4" / "metrics.csv").read_bytes())
    assert ((tmp_path / "t1" / "model.json").read_bytes()
            == (tmp_path / "t4" / "model.json").read_bytes())


# The CSV tables as the f-string writers of earlier versions formatted them;
# every table srnn writes must keep these bytes.
def _reference_metrics_csv(rows):
    lines = ["epoch,split,loss,accuracy,mean_firing_rate,lr"]
    for r in rows:
        lines.append(",".join([
            str(r["epoch"]), r["split"], repr(r["loss"]), repr(r["accuracy"]),
            repr(r["mean_firing_rate"]), repr(r["lr"])]))
    return "\n".join(lines) + "\n"


def _reference_anytime_csv(curve):
    lines = ["step,accuracy"]
    for t, acc in enumerate(np.asarray(curve, dtype=float)):
        lines.append(f"{t},{repr(float(acc))}")
    return "\n".join(lines) + "\n"


def _reference_cost_csv(report):
    lines = ["layer,kind,size,mac_per_step,synapses"]
    for r in report.rows:
        lines.append(f"{r['layer']},{r['kind']},{r['size']},"
                     f"{r['mac_per_step']},{r['synapses']}")
    return "\n".join(lines) + "\n"


def _reference_predictions_csv(labels, pred):
    lines = ["sample,step,label,prediction"]
    for s in range(labels.shape[0]):
        for t in range(labels.shape[1]):
            lines.append(f"{s},{t},{labels[s, t]},{pred[s, t]}")
    return "\n".join(lines) + "\n"


def test_tables_keep_their_bytes(tmp_path):
    cfg = pattern_config(tmp_path, out_name="tb")
    config = srnn.cli._read_file(srnn.cli.Config, cfg, "config file")
    train, val, test = srnn.cli._build_task(config.task)
    net, log = fit(config.network, train, config.training, eval_data=val)
    rep = evaluate(net, test)
    report = cost_report(ArchDescription.from_network(net), fr=rep.firing_rate)
    want = {"metrics.csv": _reference_metrics_csv(log.rows),
            "anytime.csv": _reference_anytime_csv(rep.anytime),
            "cost_report.csv": _reference_cost_csv(report)}
    assert len(log.rows) == 4 and any(0 < a < 1 for a in rep.anytime)
    for threads in ("1", "2"):
        assert main(["train", "--config", cfg, "--threads", threads]) == 0
        for name, text in want.items():
            assert (tmp_path / "tb" / name).read_bytes() == text.encode(), (threads, name)

    assert main(["train", "--config", streaming_config(tmp_path)]) == 0
    assert main(["gen", "--config", streaming_config(tmp_path),
                 "--out", str(tmp_path / "sd")]) == 0
    model, data = tmp_path / "stream" / "model.json", tmp_path / "sd" / "test"
    assert main(["eval", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "ev")]) == 0
    data_set = load_dataset(data)
    pred = evaluate(load_model(model), data_set).step_predictions
    assert ((tmp_path / "ev" / "predictions.csv").read_bytes()
            == _reference_predictions_csv(data_set.labels, pred).encode())

    arch = {"layers": [
        {"kind": "alif", "fan_in": 700, "size": 128, "recurrent": True, "copies": 2},
        {"kind": "lif", "fan_in": 256, "size": 64},
        {"kind": "readout", "fan_in": 64, "size": 20},
        {"kind": "lstm", "fan_in": 20, "size": 33}, {"kind": "gru", "fan_in": 33, "size": 7},
        {"kind": "vanilla_rnn", "fan_in": 7, "size": 5}, {"kind": "dense", "fan_in": 5, "size": 3}]}
    (tmp_path / "arch.json").write_text(json.dumps(arch))
    assert main(["energy", "--arch", str(tmp_path / "arch.json"), "--fr", "0.1",
                 "--out", str(tmp_path / "en")]) == 0
    report = cost_report(ArchDescription.from_dict(arch), fr=0.1)
    assert (tmp_path / "en" / "cost_report.csv").read_bytes() == \
        _reference_cost_csv(report).encode()


def test_train_zero_epochs(tmp_path):
    cfg = pattern_config(tmp_path, out_name="zero", epochs=0)
    assert main(["train", "--config", cfg]) == 0
    assert (tmp_path / "zero" / "model.json").exists()


def test_train_without_validation_split(tmp_path):
    task = {"kind": "pattern_classification", "n_classes": 2, "t_steps": 8,
            "channels": 3, "jitter_std": 0.5, "seed": 1, "n_samples": 20,
            "split": [0.8, 0.0, 0.2]}
    cfg = pattern_config(tmp_path, out_name="noval", task=task)
    assert main(["train", "--config", cfg]) == 0
    rows = (tmp_path / "noval" / "metrics.csv").read_text().strip().split("\n")
    assert all(",eval," not in r for r in rows[1:])


def test_train_with_a_negative_resting_threshold(tmp_path):
    cfg = pattern_config(tmp_path, out_name="neg")
    doc = json.loads(Path(cfg).read_text())
    doc["network"]["layers"][0]["b_0"] = -0.5
    Path(cfg).write_text(json.dumps(doc))
    assert main(["train", "--config", cfg]) == 0


def test_out_of_memory_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    def fit_out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 763. MiB")

    monkeypatch.setattr(srnn.cli, "fit", fit_out_of_memory)
    assert main(["train", "--config", pattern_config(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 763. MiB\n"


def test_train_usage_errors(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["train", "--config", str(bad_json)]) == 2

    unknown_key = write_config(tmp_path / "unk.json", {
        "network": {"input_size": 3,
                    "layers": [{"size": 4}], "frobnicate": True}})
    assert main(["train", "--config", unknown_key]) == 2
    assert "schema violation" in capsys.readouterr().err

    aliased = write_config(tmp_path / "alias.json", {
        "network": {"input_size": 3,
                    "layers": [{"size": 4, "neuron": "spiking_output"}]}})
    assert main(["train", "--config", aliased]) == 2
    assert "schema violation at network/layers/0/neuron" in capsys.readouterr().err

    cfg = pattern_config(tmp_path, out_name="nosec")
    doc = json.loads((tmp_path / "nosec.json").read_text())
    del doc["training"]
    (tmp_path / "nosec.json").write_text(json.dumps(doc))
    assert main(["train", "--config", str(tmp_path / "nosec.json")]) == 2
    assert "'training' section" in capsys.readouterr().err


def test_train_channel_mismatch(tmp_path, capsys):
    task = {"kind": "pattern_classification", "n_classes": 2, "t_steps": 8,
            "channels": 5, "jitter_std": 0.5, "seed": 1, "n_samples": 20}
    cfg = pattern_config(tmp_path, out_name="mis", task=task)
    assert main(["train", "--config", cfg]) == 2
    assert "input channels" in capsys.readouterr().err


def test_train_checks_a_generated_task_before_drawing_it(tmp_path, monkeypatch, capsys):
    # a million classes took 46.6 s and 380 MiB to draw when the head was
    # only compared with the drawn dataset
    def no_draw(*args, **kwargs):
        raise AssertionError("the task was drawn before its check")

    monkeypatch.setattr(srnn.cli, "gen_pattern_classification", no_draw)
    monkeypatch.setattr(srnn.cli, "gen_streaming_waveform", no_draw)
    task = {"kind": "pattern_classification", "n_classes": 1000000, "t_steps": 8,
            "channels": 3, "jitter_std": 0.5, "seed": 1, "n_samples": 20}
    cfg = pattern_config(tmp_path, out_name="wide", task=task)
    assert main(["train", "--config", cfg]) == 2
    assert capsys.readouterr().err == ("error: the task has 1000000 classes but "
                                       "the network's head is 2 wide\n")
    # a streaming task is one analog channel until it is encoded into two
    doc = json.loads(Path(streaming_config(tmp_path)).read_text())
    del doc["task"]["encode"]
    assert main(["train", "--config", write_config(tmp_path / "raw.json", doc)]) == 2
    assert capsys.readouterr().err == ("error: the network expects 2 input channels "
                                       "but the task has 1\n")
    doc["task"]["k"] = 3
    doc["network"]["input_size"] = 1
    assert main(["train", "--config", write_config(tmp_path / "k3.json", doc)]) == 2
    assert capsys.readouterr().err == ("error: the task has 3 classes but the "
                                       "network's head is 2 wide\n")


def test_eval_and_energy_channel_mismatch(tmp_path, capsys):
    save_model(init_network(NetworkSpec(input_size=3, layers=[
        LayerSpec(size=4, neuron="alif", recurrent=True)])), tmp_path / "m.json")
    task = {"kind": "pattern_classification", "n_classes": 2, "t_steps": 8,
            "channels": 5, "jitter_std": 0.5, "seed": 1, "n_samples": 20}
    cfg = pattern_config(tmp_path, out_name="wide", task=task)
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "wide")]) == 0
    data = str(tmp_path / "wide" / "test")
    model = str(tmp_path / "m.json")
    for argv in (["eval", "--model", model, "--data", data],
                 ["energy", "--model", model, "--data", data]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "expects 3 input channels" in err[0], err
        assert "has 5" in err[0]


def test_streaming_train_and_eval(tmp_path, capsys):
    cfg = streaming_config(tmp_path)
    assert main(["train", "--config", cfg]) == 0
    assert (tmp_path / "stream" / "anytime.csv").exists()
    anytime = (tmp_path / "stream" / "anytime.csv").read_text().split("\n")
    assert anytime[0] == "step,accuracy"

    # materialize the same task, then run eval on its test split
    gen_cfg = streaming_config(tmp_path)
    assert main(["gen", "--config", gen_cfg, "--out", str(tmp_path / "data")]) == 0
    capsys.readouterr()
    code = main(["eval", "--model", str(tmp_path / "stream" / "model.json"),
                 "--data", str(tmp_path / "data" / "test"),
                 "--out", str(tmp_path / "evalout")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "accuracy" in stdout and "SOPs" in stdout
    pred = (tmp_path / "evalout" / "predictions.csv").read_text().split("\n")
    assert pred[0] == "sample,step,label,prediction"
    assert len(pred) >= 2


def test_eval_classification_and_errors(tmp_path, capsys):
    cfg = pattern_config(tmp_path, out_name="ev")
    assert main(["train", "--config", cfg]) == 0
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "gd")]) == 0
    capsys.readouterr()
    code = main(["eval", "--model", str(tmp_path / "ev" / "model.json"),
                 "--data", str(tmp_path / "gd" / "test")])
    assert code == 0
    assert "accuracy" in capsys.readouterr().out

    assert main(["eval", "--model", str(tmp_path / "nope.json"),
                 "--data", str(tmp_path / "gd" / "test")]) == 2
    assert main(["eval", "--model", str(tmp_path / "ev" / "model.json"),
                 "--data", str(tmp_path / "missing")]) == 2


def _record_forward_batches(monkeypatch):
    """Record the input batch of every forward_sequence call in the package."""
    batches = []
    real = srnn.network.forward_sequence

    def recording(net, x, soft=False):
        batches.append(np.array(x))
        return real(net, x, soft)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "srnn" and getattr(module, "forward_sequence", None) is real:
            monkeypatch.setattr(module, "forward_sequence", recording)
    return batches


def _assert_one_pass(batches, inputs):
    """The batches hold every sample of inputs exactly once, in chunks of <= 64."""
    assert len(batches) == math.ceil(len(inputs) / 64)
    assert all(len(b) <= 64 for b in batches)
    np.testing.assert_array_equal(np.concatenate(batches), inputs)


def test_cli_passes_the_test_set_through_the_network_once(tmp_path, monkeypatch, capsys):
    task = {"kind": "pattern_classification", "n_classes": 2, "t_steps": 8,
            "channels": 3, "jitter_std": 0.5, "seed": 1, "n_samples": 400}
    cfg = pattern_config(tmp_path, out_name="once", epochs=1, task=task)
    stream_cfg = streaming_config(tmp_path)
    doc = json.loads(Path(stream_cfg).read_text())
    doc["task"]["n_samples"] = 400
    Path(stream_cfg).write_text(json.dumps(doc))
    assert main(["train", "--config", stream_cfg]) == 0
    for c, out in ((cfg, "sets"), (stream_cfg, "stream_sets")):
        assert main(["gen", "--config", c, "--out", str(tmp_path / out)]) == 0
    batches = _record_forward_batches(monkeypatch)

    # train: every call after fit returns belongs to the test split
    real_fit, after_fit = srnn.cli.fit, []

    def fit_then_mark(*args, **kwargs):
        result = real_fit(*args, **kwargs)
        after_fit.append(len(batches))
        return result

    monkeypatch.setattr(srnn.cli, "fit", fit_then_mark)
    assert main(["train", "--config", cfg]) == 0
    test_inputs = load_dataset(tmp_path / "sets" / "test").inputs
    assert len(test_inputs) > 64
    _assert_one_pass(batches[after_fit[0]:], test_inputs)

    model = str(tmp_path / "once" / "model.json")
    stream_model = str(tmp_path / "stream" / "model.json")
    for argv, data in (
            (["eval", "--model", model], tmp_path / "sets" / "test"),
            (["eval", "--model", stream_model, "--out", str(tmp_path / "ev")],
             tmp_path / "stream_sets" / "test"),
            (["energy", "--model", model], tmp_path / "sets" / "test")):
        batches.clear()
        assert main([*argv, "--data", str(data)]) == 0
        _assert_one_pass(batches, load_dataset(data).inputs)


def test_gen_writes_split_directories(tmp_path, capsys):
    cfg = pattern_config(tmp_path, out_name="g")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "sets")]) == 0
    for name in ("train", "val", "test"):
        assert (tmp_path / "sets" / name / "manifest.json").exists()
        assert (tmp_path / "sets" / name / "data.csv").exists()
    files_task = {"kind": "files", "dir": str(tmp_path / "sets" / "train")}
    cfg2 = pattern_config(tmp_path, out_name="g2", task=files_task)
    assert main(["gen", "--config", cfg2, "--out", str(tmp_path / "x")]) == 2


GEN_DIGESTS = json.loads((Path(__file__).parent / "data" / "gen_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(GEN_DIGESTS["configs"]))
def test_gen_writes_the_pinned_bytes(tmp_path, capsys, name):
    # same seeds, same files, in every version: the digests were written by
    # an earlier version, so a change to the generators or the CSV writer
    # that moves one byte fails here
    cfg = write_config(tmp_path / "c.json", GEN_DIGESTS["configs"][name])
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "sets")]) == 0
    written = {f"{d.name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
               for d in (tmp_path / "sets").iterdir() for f in d.iterdir()}
    assert written == GEN_DIGESTS["sha256"][name]


def test_zscore_of_an_encoded_set_equals_that_of_its_float_copy():
    wave = srnn.gen_streaming_waveform(3, 10, 2, 0.02, seed=4, n_samples=6)
    enc = srnn.encode_dataset(wave, 0.05, 0.05)
    assert enc.inputs.dtype == bool
    z = srnn.cli._zscore(enc)
    ref = srnn.cli._zscore(dataclasses.replace(enc, inputs=enc.inputs.astype(float)))
    assert z.inputs.dtype == float and z.inputs.tobytes() == ref.inputs.tobytes()


def test_train_from_files_task(tmp_path):
    cfg = pattern_config(tmp_path, out_name="src")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "corpus")]) == 0
    files_task = {"kind": "files", "dir": str(tmp_path / "corpus" / "train"),
                  "split": [0.6, 0.2, 0.2]}
    cfg2 = pattern_config(tmp_path, out_name="fromfiles", task=files_task)
    assert main(["train", "--config", cfg2]) == 0
    assert (tmp_path / "fromfiles" / "model.json").exists()


def test_energy_from_model_and_arch(tmp_path, capsys):
    cfg = pattern_config(tmp_path, out_name="en")
    assert main(["train", "--config", cfg]) == 0
    model = str(tmp_path / "en" / "model.json")
    capsys.readouterr()

    assert main(["energy", "--model", model, "--fr", "0.1"]) == 0
    assert "energy/step" in capsys.readouterr().out

    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "ed")]) == 0
    capsys.readouterr()
    code = main(["energy", "--model", model,
                 "--data", str(tmp_path / "ed" / "test"),
                 "--out", str(tmp_path / "cost")])
    assert code == 0
    assert "SOPs" in capsys.readouterr().out
    assert (tmp_path / "cost" / "cost_report.csv").exists()

    arch = {"layers": [
        {"kind": "alif", "fan_in": 700, "size": 128, "recurrent": True},
        {"kind": "alif", "fan_in": 128, "size": 128, "recurrent": True},
        {"kind": "readout", "fan_in": 128, "size": 20}]}
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps(arch))
    assert main(["energy", "--arch", str(arch_path), "--fr", "0.0"]) == 0
    assert "788" in capsys.readouterr().out


def test_eval_and_energy_count_sops_of_bidirectional_models(tmp_path, capsys):
    network = {"input_size": 3, "bidirectional": True, "decode": "membrane_softmax",
               "seed": 1,
               "layers": [{"size": 8, "neuron": "alif", "recurrent": True,
                           "tau_m_init": [8.0, 2.0], "tau_adp_init": [40.0, 5.0],
                           "b_0": 0.3, "beta": 0.6},
                          {"size": 2, "neuron": "readout", "tau_m_init": [8.0, 2.0]}]}
    cfg = pattern_config(tmp_path, out_name="bd", network=network)
    assert main(["train", "--config", cfg]) == 0
    assert "SOPs" in (tmp_path / "bd" / "cost_report.txt").read_text()
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "bdd")]) == 0
    model, data = str(tmp_path / "bd" / "model.json"), str(tmp_path / "bdd" / "test")
    capsys.readouterr()
    assert main(["eval", "--model", model, "--data", data]) == 0
    assert "SOPs" in capsys.readouterr().out
    assert main(["energy", "--model", model, "--data", data]) == 0
    assert "SOPs" in capsys.readouterr().out


def test_energy_usage_errors(tmp_path):
    cfg = pattern_config(tmp_path, out_name="eu")
    assert main(["train", "--config", cfg]) == 0
    model = str(tmp_path / "eu" / "model.json")
    arch_path = tmp_path / "a.json"
    arch_path.write_text(json.dumps({"layers": [
        {"kind": "lif", "fan_in": 3, "size": 2}]}))

    assert main(["energy", "--model", model, "--arch", str(arch_path),
                 "--fr", "0.1"]) == 2
    assert main(["energy"]) == 2
    assert main(["energy", "--model", model]) == 2
    assert main(["energy", "--arch", str(arch_path)]) == 2
    assert main(["energy", "--model", model, "--fr", "1.5"]) == 2
    assert main(["energy", "--model", str(tmp_path / "no.json"),
                 "--fr", "0.1"]) == 2
    # conflicting flags are refused, not ignored
    assert main(["energy", "--arch", str(arch_path), "--fr", "0.1",
                 "--data", str(tmp_path / "nonexistent")]) == 2
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "sets")]) == 0
    assert main(["energy", "--model", model, "--data", str(tmp_path / "sets" / "test"),
                 "--fr", "0.3"]) == 2


def test_malformed_model_files_exit_2(tmp_path, capsys):
    cfg = pattern_config(tmp_path, out_name="mm")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "sets")]) == 0
    data = str(tmp_path / "sets" / "test")
    layerless = {"format": "srnn-model/1", "spec": {
        "input_size": 3, "decode": "membrane_softmax", "bidirectional": False,
        "seed": 0, "zero_init_membrane": False, "layers": []}}
    save_model(init_network(NetworkSpec(input_size=3, layers=[
        LayerSpec(size=4, neuron="alif", recurrent=True),
        LayerSpec(size=2, neuron="alif")])), tmp_path / "good.json")
    good = json.loads((tmp_path / "good.json").read_text())

    def edited(*edits):
        doc = json.loads(json.dumps(good))
        for i, field, value in edits:
            doc["layers"][i][field] = value
        return json.dumps(doc)

    aliased = json.loads(json.dumps(good))
    aliased["spec"]["layers"][1]["neuron"] = "spiking_output"
    undecoded = json.loads(json.dumps(good))
    del undecoded["spec"]["decode"]
    cases = {
        "bare.json": (json.dumps({"format": "srnn-model/1"}), "'spec'"),
        "truncated.json": ('{"format": "srnn-model/1", "spec": {', "Expecting"),
        "layerless.json": (json.dumps(layerless), "at least one layer"),
        "negative_tau.json": (edited((0, "tau_m", [-5.0, 20.0, 20.0, 20.0])),
                              "layers[0].tau_m: below dt"),
        "tiny_w_in.json": (edited((0, "w_in", [[1.0]])),
                           "layers[0].w_in: expected shape (3, 4), got shape (1, 1)"),
        "nan_tau.json": (edited((0, "tau_m", [math.nan] * 4)),
                         "layers[0].tau_m: not finite"),
        "below_dt.json": (edited((1, "tau_adp", [0.5, 150.0])),
                          "layers[1].tau_adp: below dt"),
        "stray_w_rec.json": (edited((1, "w_rec", [[0.0] * 2] * 2)),
                             "layers[1].w_rec: expected null"),
        "alias.json": (json.dumps(aliased), "neuron must be one of"),
        "undecoded.json": (json.dumps(undecoded), "missing key 'decode'"),
        "deep.json": ("[" * 100000 + "]" * 100000, "invalid JSON: maximum recursion"),
        "huge_bias.json": (edited((1, "bias", [10**400, 0.0])),
                           "layers[1].bias: an integer beyond float range"),
    }
    for name, (text, why) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        capsys.readouterr()
        for argv in (["eval", "--model", str(path), "--data", data],
                     ["energy", "--model", str(path), "--fr", "0.1"]):
            assert main(argv) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "bad model file: " in err[0], err
            assert why in err[0]


def gradcheck_config(tmp_path, name, check):
    doc = {
        "network": {"input_size": 2,
                    "layers": [{"size": 5, "neuron": "alif", "recurrent": True,
                                "tau_m_init": [3.0, 0.5],
                                "tau_adp_init": [12.0, 2.0],
                                "b_0": 0.2, "beta": 0.3},
                               {"size": 3, "neuron": "readout",
                                "tau_m_init": [5.0, 1.0]}],
                    "decode": "membrane_softmax", "seed": 0},
        "check": check,
    }
    return write_config(tmp_path / f"{name}.json", doc)


def test_gradcheck_passes(tmp_path, capsys):
    cfg = gradcheck_config(tmp_path, "gc", {
        "modes": ["relu_exact", "surrogate_consistency"], "t_steps": 8})
    assert main(["gradcheck", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.endswith("pass") for line in out] == [True, True]
    # the rounding floor of a difference quotient; the tape takes none
    assert "fd noise" in out[0] and "fd noise" not in out[1]


def test_gradcheck_covers_bidirectional_networks(tmp_path, capsys):
    doc = {
        "network": {"input_size": 2, "bidirectional": True,
                    "layers": [{"size": 4, "neuron": "relu", "recurrent": True,
                                "tau_m_init": [3.0, 0.5]},
                               {"size": 3, "neuron": "readout",
                                "tau_m_init": [5.0, 1.0]}],
                    "decode": "membrane_softmax", "seed": 0},
        "check": {"t_steps": 8},
    }
    cfg = write_config(tmp_path / "bidi.json", doc)
    assert main(["gradcheck", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("relu_exact:") and out.count("pass") == 1
    doc["check"]["modes"] = ["surrogate_consistency"]
    cfg = write_config(tmp_path / "bidi_tape.json", doc)
    assert main(["gradcheck", "--config", cfg]) == 2


def test_gradcheck_reports_failure(tmp_path, capsys):
    cfg = gradcheck_config(tmp_path, "gcf", {
        "modes": ["relu_exact"], "t_steps": 8, "tol_rel": 1e-18})
    assert main(["gradcheck", "--config", cfg]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_verdict_reads_the_score_that_allows_for_fd_noise(
        tmp_path, monkeypatch, capsys):
    # the verdict bounds max_scored_rel_err, the relative error that allows
    # for fd_noise, so a max_rel_err above tol_rel alone does not fail
    cfg = gradcheck_config(tmp_path, "gcn", {"modes": ["relu_exact"], "t_steps": 8})
    real = srnn.cli.grad_check
    for scored, code, verdict in ((5e-5, 0, "pass"), (2e-4, 1, "FAIL")):
        monkeypatch.setattr(srnn.cli, "grad_check", lambda *a, **kw: dataclasses.replace(
            real(*a, **kw), max_rel_err=4e-4, max_scored_rel_err=scored))
        assert main(["gradcheck", "--config", cfg]) == code
        out = capsys.readouterr().out
        assert f"scored rel err {scored:.3e}" in out and out.strip().endswith(verdict)


def test_gradcheck_checks_the_widest_draw_once_per_mode(tmp_path, monkeypatch, capsys):
    # At 60 steps of 4 samples no draw clears a 1e-3 kink margin. Each
    # draw's soft pass picks the one farthest from a kink, and each mode
    # runs one check on it, not one per draw.
    cfg = gradcheck_config(tmp_path, "gcw", {"t_steps": 60, "batch": 4})
    real, calls = srnn.cli.grad_check, []

    def counting(net, x, targets, mode, **kw):
        calls.append((mode, x))
        return real(net, x, targets, mode=mode, **kw)

    monkeypatch.setattr(srnn.cli, "grad_check", counting)
    assert main(["gradcheck", "--config", cfg]) == 0
    spec = read(NetworkSpec, json.loads(Path(cfg).read_text())["network"])
    margins, draws = [], []
    for attempt in range(8):
        rng = np.random.default_rng([0, attempt])
        x = rng.standard_normal((4, 60, 2))
        trace = forward_sequence(init_network(spec, seed=attempt), x, soft=True)
        margins.append(_kink_margin(trace))
        draws.append(x)
    assert max(margins) < 1e-3
    assert [mode for mode, _ in calls] == ["relu_exact", "surrogate_consistency"]
    widest = draws[int(np.argmax(margins))]
    assert all(np.array_equal(x, widest) for _, x in calls)
    assert f"kink margin {max(margins):.3e}" in capsys.readouterr().out.splitlines()[0]


def test_log_level_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SRNN_LOG", "chatty")
    assert main(["energy"]) == 2
    assert "SRNN_LOG" in capsys.readouterr().err
    monkeypatch.setenv("SRNN_LOG", "info")
    cfg = pattern_config(tmp_path, out_name="lg", epochs=0)
    assert main(["train", "--config", cfg]) == 0


RAW_1E400 = "@1e400@"  # written into the config text as the bare number 1e400

# Config mutations: (path of the value, new value, text the error must hold).
CONFIG_MUTATIONS = {
    "network-int-as-float": ("network/layers/0/size", 8.0, "network/layers/0/size"),
    "network-nan": ("network/layers/0/beta", math.nan, "network/layers/0/beta"),
    "network-infinity": ("network/layers/0/tau_m_init/0", math.inf,
                         "network/layers/0/tau_m_init/0"),
    "network-1e400": ("network/layers/0/b_0", RAW_1E400, "network/layers/0/b_0"),
    "training-int-as-float": ("training/epochs", 1.0, "training/epochs"),
    "training-nan": ("training/lr", math.nan, "training/lr"),
    "training-infinity": ("training/lr", math.inf, "training/lr"),
    "training-1e400": ("training/lr", RAW_1E400, "training/lr"),
    "task-int-as-float": ("task/n_samples", 20.0, "task/n_samples"),
    "task-nan": ("task/jitter_std", math.nan, "task/jitter_std"),
    "task-infinity": ("task/jitter_std", math.inf, "task/jitter_std"),
    "task-1e400": ("task/jitter_std", RAW_1E400, "task/jitter_std"),
    "check-int-as-float": ("check/t_steps", 8.0, "check/t_steps"),
    "check-nan": ("check/tol_rel", math.nan, "check/tol_rel"),
    "check-infinity": ("check/tol_abs", math.inf, "check/tol_abs"),
    "check-1e400": ("check/tol_rel", RAW_1E400, "check/tol_rel"),
    "surrogate-extra-key": ("training/surrogate", {"kind": "linear", "sigma": 1},
                            "unknown key 'sigma'"),
    "training-shuffle": ("training/shuffle", False, "unknown key 'shuffle'"),
    "network-negative-seed": ("network/seed", -1, "seed must be non-negative"),
    "training-negative-seed": ("training/seed", -1, "seed must be non-negative"),
    "check-negative-seed": ("check/seed", -1, "seed must be non-negative"),
    "one-sample": ("task/n_samples", 1, "train split holds no samples"),
    "empty-train-split": ("task/split", [0, 1, 0], "train split holds no samples"),
    "check-zero-steps": ("check/t_steps", 0, "at least 1"),
    "check-zero-batch": ("check/batch", 0, "at least 1"),
    "check-no-modes": ("check/modes", [], "at least one check"),
    "check-zero-tol-rel": ("check/tol_rel", 0.0, "tol_rel and tol_abs must be positive"),
    "check-negative-tol-abs": ("check/tol_abs", -1e-8,
                               "tol_rel and tol_abs must be positive"),
    "network-negative-beta": ("network/layers/0/beta", -0.1, "beta must be non-negative"),
    "pattern-task-nll-streaming": ("training/loss", "nll_streaming", "training/loss"),
    "task-more-classes-than-head": ("task/n_classes", 3, "head is 2 wide"),
    "task-unallocatable-classes": ("task/n_classes", 10**20,
                                   "bad task section: Maximum allowed dimension exceeded"),
}
# Cases run by `srnn gen`, which draws a task without comparing it with a
# network; `srnn train` rejects a class count wider than the head first.
GEN_CASES = {"task-unallocatable-classes"}

# Manifest mutations of a saved test split: (new manifest, text the error must hold).
MANIFEST_MUTATIONS = {
    "manifest-no-t-steps": (lambda m: {k: v for k, v in m.items() if k != "t_steps"},
                            "bad dataset: schema violation at (top level): "
                            "missing key 't_steps'"),
    "manifest-float-t-steps": (lambda m: {**m, "t_steps": 4.0},
                               "bad dataset: schema violation at t_steps"),
    "manifest-string-channels": (lambda m: {**m, "channels": "3"},
                                 "bad dataset: schema violation at channels"),
    "manifest-top-level-list": (lambda m: [m], "bad dataset: schema violation at "
                                               "(top level): expected an object"),
    "manifest-sample-count": (lambda m: {**m, "n_samples": m["n_samples"] + 1},
                              "bad dataset: {dir}/manifest.json: manifest sample "
                              "count mismatch"),
    "manifest-data-is-the-directory": (lambda m: {**m, "data": ""},
                                       "bad dataset: [Errno 21] Is a directory: '{dir}'"),
}

# Dense-CSV mutations of a saved test split: (new rows, None to delete data.csv;
# text the error must hold).
DATA_CSV_MUTATIONS = {
    "data-rows-cut": (lambda rows: rows[:-3], "bad dataset: {csv}: row count 37 is "
                                              "not a multiple of t_steps=8"),
    "data-extra-field": (lambda rows: [rows[0], rows[1] + ",0.0", *rows[2:]],
                         "bad dataset: {csv}:2: expected 4 fields, got 5"),
    "data-fractional-label": (lambda rows: ["0.5" + rows[0][1:], *rows[1:]],
                              "bad dataset: {csv}: labels must be integers"),
    "data-non-numeric": (lambda rows: [*rows[:2], rows[2].rsplit(",", 1)[0] + ",x",
                                       *rows[3:]],
                         "bad dataset: {csv}:3: non-numeric field"),
    "data-empty": (lambda rows: [], "bad dataset: {csv}: row count 0 is not a "
                                    "multiple of t_steps=8"),
    "data-missing": (None, "dataset not found: {csv}"),
}

ARCH_FILES = {
    "arch-missing-fan-in": ({"layers": [{"kind": "alif", "size": 4}]},
                            "missing key 'fan_in'"),
    "arch-missing-layers": ({}, "missing key 'layers'"),
    "arch-top-level-list": ([{"kind": "alif", "fan_in": 3, "size": 4}],
                            "expected an object"),
    "arch-unknown-kind": ({"layers": [{"kind": "conv", "fan_in": 3, "size": 4}]},
                          "kind must be one of"),
}


def boundary_argv(tmp_path, case):
    """The command line of one boundary case, plus the text its error holds."""
    cfg = pattern_config(tmp_path, out_name="b", check={"t_steps": 8})
    if case in CONFIG_MUTATIONS:
        path, value, why = CONFIG_MUTATIONS[case]
        doc = json.loads((tmp_path / "b.json").read_text())
        *parents, key = path.split("/")
        node = doc
        for p in parents:
            node = node[int(p)] if isinstance(node, list) else node[p]
        node[int(key) if isinstance(node, list) else key] = value
        text = json.dumps(doc).replace(f'"{RAW_1E400}"', "1e400")
        (tmp_path / "b.json").write_text(text)
        if case in GEN_CASES:
            return ["gen", "--config", cfg, "--out", str(tmp_path / "g")], why
        command = "gradcheck" if path.startswith("check/") else "train"
        return [command, "--config", cfg], why
    if case in ARCH_FILES:
        doc, why = ARCH_FILES[case]
        (tmp_path / "arch.json").write_text(json.dumps(doc))
        return ["energy", "--arch", str(tmp_path / "arch.json"), "--fr", "0.1"], why
    flags = {"train-negative-seed": (["train", "--seed", "-1"], "--seed"),
             "gradcheck-negative-seed": (["gradcheck", "--seed", "-1"], "--seed"),
             "zero-threads": (["train", "--threads", "0"], "--threads")}
    if case in flags:
        (command, *rest), why = flags[case]
        return [command, "--config", cfg, *rest], why
    if case in ("streaming-task-ce", "energy-step-labels-spike-count"):
        scfg = streaming_config(tmp_path)
        doc = json.loads(Path(scfg).read_text())
        doc["training"]["loss"] = "ce"
        Path(scfg).write_text(json.dumps(doc))
        if case == "streaming-task-ce":
            return ["train", "--config", scfg], "training/loss"
        assert main(["gen", "--config", scfg, "--out", str(tmp_path / "ss")]) == 0
        model = tmp_path / "m.json"
        save_model(init_network(NetworkSpec(input_size=2, layers=[
            LayerSpec(size=4, recurrent=True), LayerSpec(size=2)])), model)
        return (["energy", "--model", str(model), "--data", str(tmp_path / "ss" / "test")],
                "per-step labels, which spike_count decoding cannot score")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "sets")]) == 0
    data = tmp_path / "sets" / "test"
    model = tmp_path / "m.json"
    if case == "eval-more-classes-than-head":
        save_model(init_network(NetworkSpec(input_size=3, layers=[
            LayerSpec(size=4, recurrent=True), LayerSpec(size=1)])), model)
        return (["eval", "--model", str(model), "--data", str(data)],
                "the dataset has 2 classes but the network's head is 1 wide")
    save_model(init_network(NetworkSpec(input_size=3, layers=[
        LayerSpec(size=4, recurrent=True), LayerSpec(size=2)])), model)
    if case in MANIFEST_MUTATIONS:
        mutate, why = MANIFEST_MUTATIONS[case]
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps(mutate(json.loads(manifest.read_text()))))
        return ["eval", "--model", str(model), "--data", str(data)], why.format(dir=data)
    csv = data / "data.csv"
    if case in DATA_CSV_MUTATIONS:
        mutate, why = DATA_CSV_MUTATIONS[case]
        if mutate is None:
            csv.unlink()
        else:
            csv.write_text("".join(f"{row}\n" for row in mutate(csv.read_text().splitlines())))
        return ["eval", "--model", str(model), "--data", str(data)], why.format(csv=csv)
    rows = csv.read_text().split("\n")
    rows[2] = rows[2].rsplit(",", 1)[0] + ",nan"
    csv.write_text("\n".join(rows))
    argv = {"eval-nan-data": ["eval", "--model", str(model), "--data", str(data)],
            "energy-nan-data": ["energy", "--model", str(model), "--data", str(data)]}
    return argv[case], "data.csv:3: non-finite field"


@pytest.mark.parametrize("case", [*CONFIG_MUTATIONS, *ARCH_FILES, *MANIFEST_MUTATIONS,
                                  *DATA_CSV_MUTATIONS,
                                  "train-negative-seed", "gradcheck-negative-seed",
                                  "zero-threads", "eval-nan-data", "energy-nan-data",
                                  "streaming-task-ce", "energy-step-labels-spike-count",
                                  "eval-more-classes-than-head"])
def test_boundary_mutations_exit_2_with_one_line(tmp_path, capsys, case):
    argv, why = boundary_argv(tmp_path, case)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert why in err[0], err


def test_cli_imports_without_jsonschema():
    code = ("import sys; sys.modules['jsonschema'] = None; "
            "import srnn.cli; sys.exit(srnn.cli.main(['energy']) != 2)")
    src = str(Path(srnn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr


# The values each leaf of a document takes in the boundary fuzz.
FUZZ_VALUES = [0, -1, 1, 2**31, 10**6, 1e300, -1e300, 1e-300, 0.5, -0.5, True, "x", None,
               [], [1, -1], [0, 0], [1e300, 1]]


def _leaf_paths(doc, path=()):
    """Paths to every scalar, and every empty list, in decoded JSON."""
    if isinstance(doc, dict) or (isinstance(doc, list) and doc):
        for key, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaf_paths(v, path + (key,))
    else:
        yield path


def _with(doc, *edits):
    """A copy of decoded JSON with each (path, value) edit applied."""
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


def test_model_file_fuzz_loads_or_exits_2(tmp_path, capsys):
    # every fuzz value on every leaf of a tiny model file, then 60 seeded
    # pairs of such edits: load_model loads or raises ValueError, and
    # `srnn eval` exits 0, or 2 with one line
    save_model(init_network(NetworkSpec(
        input_size=2, layers=[LayerSpec(size=2, neuron="alif", recurrent=True),
                              LayerSpec(size=2, neuron="readout")],
        decode="membrane_softmax", seed=3)), tmp_path / "good.json")
    good = json.loads((tmp_path / "good.json").read_text())
    rng = np.random.default_rng(8)
    save_dataset(Dataset(rng.random((3, 5, 2)) < 0.4, [0, 1, 1], "sequence-classification", 2),
                 tmp_path / "data")
    leaves = list(_leaf_paths(good))
    edits = [(path, v) for path in leaves for v in FUZZ_VALUES]
    docs = [_with(good, e) for e in edits]
    docs += [_with(good, *(edits[i] for i in rng.choice(len(edits), 2, replace=False)))
             for _ in range(60)]
    texts = [json.dumps(doc) for doc in docs]
    texts.append(json.dumps(_with(good, (("layers", 0, "bias", 0), 10**400))))
    texts.append("[" * 100000 + "]" * 100000)
    model = tmp_path / "model.json"
    argv = ["eval", "--model", str(model), "--data", str(tmp_path / "data"),
            "--out", str(tmp_path / "eval")]
    loaded = 0
    for text in texts:
        model.write_text(text)
        try:
            load_model(model)
            loaded += 1
        except ValueError:
            pass
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 0 or (code == 2 and len(err) == 1), (text[:300], code, err)
    assert len(leaves) > 80 and 0 < loaded < len(texts)


def _exits_0_or_2_with_one_line(capsys, argv, what):
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 0 or (code == 2 and len(err) == 1), (what, code, err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_config_and_manifest_fuzz_exit_0_or_2(tmp_path, capsys):
    # every fuzz value on every leaf of the tiny train config, run through
    # `srnn gen`, which reads every section and draws the task; then on
    # every field of a dataset manifest, run through `srnn eval`. Sizes that
    # set the work of drawing the task (samples, steps, channels and one
    # template per class) stay small: a large one is real work, not a fault.
    cfg = pattern_config(tmp_path, out_name="fz")
    good = json.loads(Path(cfg).read_text())
    sized = {("task", k) for k in ("n_samples", "t_steps", "channels", "n_classes")}
    for path in _leaf_paths(good):
        for value in FUZZ_VALUES:
            if path in sized and value in (2**31, 10**6):
                continue
            Path(cfg).write_text(json.dumps(_with(good, (path, value))))
            _exits_0_or_2_with_one_line(
                capsys, ["gen", "--config", cfg, "--out", str(tmp_path / "g")], (path, value))
    model = tmp_path / "m.json"
    save_model(init_network(NetworkSpec(input_size=3, layers=[
        LayerSpec(size=4, recurrent=True), LayerSpec(size=2)])), model)
    Path(cfg).write_text(json.dumps(good))
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "sets")]) == 0
    data = tmp_path / "sets" / "test"
    manifest = json.loads((data / "manifest.json").read_text())
    for key in manifest:
        for value in FUZZ_VALUES:
            (data / "manifest.json").write_text(json.dumps({**manifest, key: value}))
            _exits_0_or_2_with_one_line(
                capsys, ["eval", "--model", str(model), "--data", str(data)], (key, value))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_config_fuzz_pairs_exit_0_or_2(tmp_path, capsys):
    # 60 seeded pairs of the single-leaf edits above, drawn as the model-file
    # fuzz draws them and with the same sizes left out, run through `srnn gen`
    cfg = pattern_config(tmp_path, out_name="fz")
    good = json.loads(Path(cfg).read_text())
    sized = {("task", k) for k in ("n_samples", "t_steps", "channels", "n_classes")}
    edits = [(path, v) for path in _leaf_paths(good) for v in FUZZ_VALUES
             if not (path in sized and v in (2**31, 10**6))]
    rng = np.random.default_rng(9)
    for _ in range(60):
        pair = [edits[i] for i in rng.choice(len(edits), 2, replace=False)]
        Path(cfg).write_text(json.dumps(_with(good, *pair)))
        _exits_0_or_2_with_one_line(
            capsys, ["gen", "--config", cfg, "--out", str(tmp_path / "g")], pair)


def test_eval_rejects_a_label_past_the_manifest_class_count(tmp_path, capsys):
    # the manifest's class count once grew to fit the data's labels
    save_dataset(Dataset(np.zeros((3, 4, 2)), [0, 1, 3], "sequence-classification", 4),
                 tmp_path / "data")
    manifest = tmp_path / "data" / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "n_classes": 2}))
    save_model(init_network(NetworkSpec(input_size=2, layers=[
        LayerSpec(size=4, recurrent=True), LayerSpec(size=4)])), tmp_path / "m.json")
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "m.json"),
                 "--data", str(tmp_path / "data")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [r"error: bad dataset: label 3 is not an integer in [0, 2)"]


def test_json_files_nested_too_deep_exit_2(tmp_path, capsys):
    # past the decoder's recursion limit, in a config, an architecture file
    # and a dataset manifest (model files are in test_malformed_model_files_exit_2)
    deep = "[" * 100000 + "]" * 100000
    (tmp_path / "deep.json").write_text(deep)
    (tmp_path / "deep_set").mkdir()
    (tmp_path / "deep_set" / "manifest.json").write_text(deep)
    model = tmp_path / "model.json"
    save_model(init_network(NetworkSpec(input_size=3, layers=[LayerSpec(size=2)])), model)
    for argv, why in [
            (["train", "--config", str(tmp_path / "deep.json")], "deep.json: invalid JSON"),
            (["gradcheck", "--config", str(tmp_path / "deep.json")],
             "deep.json: invalid JSON"),
            (["energy", "--arch", str(tmp_path / "deep.json"), "--fr", "0.1"],
             "deep.json: invalid JSON"),
            (["eval", "--model", str(model), "--data", str(tmp_path / "deep_set")],
             "bad dataset: invalid JSON")]:
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and why in err[0], err
