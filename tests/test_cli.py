"""End-to-end tests for the command-line interface."""

import json

import pytest

from srnn.cli import main


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


def test_gen_writes_split_directories(tmp_path, capsys):
    cfg = pattern_config(tmp_path, out_name="g")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "sets")]) == 0
    for name in ("train", "val", "test"):
        assert (tmp_path / "sets" / name / "manifest.json").exists()
        assert (tmp_path / "sets" / name / "data.csv").exists()
    files_task = {"kind": "files", "dir": str(tmp_path / "sets" / "train")}
    cfg2 = pattern_config(tmp_path, out_name="g2", task=files_task)
    assert main(["gen", "--config", cfg2, "--out", str(tmp_path / "x")]) == 2


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


def test_malformed_model_files_exit_2(tmp_path, capsys):
    cfg = pattern_config(tmp_path, out_name="mm")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "sets")]) == 0
    data = str(tmp_path / "sets" / "test")
    layerless = {"format": "srnn-model/1", "spec": {
        "input_size": 3, "decode": "membrane_softmax", "bidirectional": False,
        "seed": 0, "zero_init_membrane": False, "layers": []}}
    cases = {
        "bare.json": (json.dumps({"format": "srnn-model/1"}), "'spec'"),
        "truncated.json": ('{"format": "srnn-model/1", "spec": {', "Expecting"),
        "layerless.json": (json.dumps(layerless), "at least one layer"),
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
    out = capsys.readouterr().out
    assert out.count("pass") == 2


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


def test_log_level_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SRNN_LOG", "chatty")
    assert main(["energy"]) == 2
    assert "SRNN_LOG" in capsys.readouterr().err
    monkeypatch.setenv("SRNN_LOG", "info")
    cfg = pattern_config(tmp_path, out_name="lg", epochs=0)
    assert main(["train", "--config", cfg]) == 0
