"""Command-line entry point.

Subcommands: train, eval, energy, gradcheck, gen. Configuration is a JSON
document validated against the srnn-config/1 schema before any work
happens; unknown keys are rejected. Exit codes: 0 success, 1 numeric or
training failure, 2 usage or configuration error. The SRNN_LOG
environment variable (error, info, debug) sets verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from srnn.accounting import (
    ArchDescription,
    cost_report,
    firing_rate,
    sop_count,
)
from srnn.codecs import anytime_csv_text, anytime_curve, encode_dataset
from srnn.datasets import gen_pattern_classification, gen_streaming_waveform, \
    load_dataset, save_dataset, split
from srnn.gradcheck import CHECK_MODES, grad_check
from srnn.network import (
    DECODE_MODES,
    NEURON_KINDS,
    LayerSpec,
    NetworkSpec,
    forward_sequence,
    init_network,
    load_model,
    save_model,
)
from srnn.surrogates import SURROGATE_KINDS, surrogate_from_dict
from srnn.training import (
    LOSS_KINDS,
    LinearToZero,
    StepDecay,
    TrainingConfig,
    evaluate,
    fit,
    step_probs,
)

log = logging.getLogger("srnn")

CONFIG_FORMAT = "srnn-config/1"

_NUM = {"type": "number"}
_INT = {"type": "integer"}
_BOOL = {"type": "boolean"}
_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}

_LAYER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["size"],
    "properties": {
        "size": _INT,
        "neuron": {"enum": list(NEURON_KINDS)},
        "recurrent": _BOOL,
        "tau_m_init": _PAIR,
        "tau_adp_init": {"anyOf": [_PAIR, {"type": "null"}]},
        "theta": _NUM, "b_0": _NUM, "beta": _NUM,
        "r_m": _NUM, "u_r": _NUM, "dt": _NUM,
    },
}

_NETWORK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["input_size", "layers"],
    "properties": {
        "input_size": _INT,
        "layers": {"type": "array", "items": _LAYER_SCHEMA, "minItems": 1},
        "decode": {"enum": list(DECODE_MODES)},
        "bidirectional": _BOOL,
        "seed": _INT,
        "zero_init_membrane": _BOOL,
    },
}

_SURROGATE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(SURROGATE_KINDS)},
        "h": _NUM, "s": _NUM, "sigma": _NUM, "alpha": _NUM,
    },
}

_SCHEDULE_SCHEMA = {
    "anyOf": [
        {"type": "null"},
        {"type": "object", "additionalProperties": False,
         "required": ["kind"],
         "properties": {"kind": {"const": "step_decay"},
                        "factor": _NUM, "every": _INT}},
        {"type": "object", "additionalProperties": False,
         "required": ["kind", "total_epochs"],
         "properties": {"kind": {"const": "linear_to_zero"},
                        "total_epochs": _INT}},
    ]
}

_TRAINING_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "epochs": _INT, "lr": _NUM, "minibatch": _INT,
        "surrogate": _SURROGATE_SCHEMA,
        "schedule": _SCHEDULE_SCHEMA,
        "loss": {"enum": list(LOSS_KINDS)},
        "seed": _INT,
        "train_tau_m": _BOOL, "train_tau_adp": _BOOL,
        "chunk_size": _INT, "shuffle": _BOOL,
    },
}

_SPLIT_SCHEMA = {"type": "array", "items": _NUM, "minItems": 3, "maxItems": 3}

_TASK_SCHEMA = {
    "anyOf": [
        {"type": "object", "additionalProperties": False,
         "required": ["kind"],
         "properties": {
             "kind": {"const": "pattern_classification"},
             "n_classes": _INT, "t_steps": _INT, "channels": _INT,
             "jitter_std": _NUM, "seed": _INT, "n_samples": _INT,
             "split": _SPLIT_SCHEMA, "split_seed": _INT,
         }},
        {"type": "object", "additionalProperties": False,
         "required": ["kind"],
         "properties": {
             "kind": {"const": "streaming_waveform"},
             "k": _INT, "segment_len": _INT, "segments_per_sample": _INT,
             "noise_std": _NUM, "seed": _INT, "n_samples": _INT,
             "split": _SPLIT_SCHEMA, "split_seed": _INT,
             "zscore": _BOOL,
             "encode": {"anyOf": [
                 {"type": "null"},
                 {"type": "object", "additionalProperties": False,
                  "properties": {"up": _NUM, "down": _NUM}}]},
         }},
        {"type": "object", "additionalProperties": False,
         "required": ["kind", "dir"],
         "properties": {
             "kind": {"const": "files"},
             "dir": {"type": "string"},
             "split": _SPLIT_SCHEMA, "split_seed": _INT,
         }},
    ]
}

_CHECK_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "modes": {"type": "array",
                  "items": {"enum": list(CHECK_MODES)},
                  "minItems": 1},
        "tol_rel": _NUM, "tol_abs": _NUM,
        "t_steps": _INT, "batch": _INT, "seed": _INT,
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["format", "network"],
    "properties": {
        "format": {"const": CONFIG_FORMAT},
        "network": _NETWORK_SCHEMA,
        "training": _TRAINING_SCHEMA,
        "task": _TASK_SCHEMA,
        "outputs": {"type": "object", "additionalProperties": False,
                    "required": ["dir"],
                    "properties": {"dir": {"type": "string"}}},
        "check": _CHECK_SCHEMA,
    },
}


class UsageError(Exception):
    """Configuration or invocation problem; maps to exit code 2."""


def _load_config(path) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}: invalid JSON: {e}") from None
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as e:
        where = "/".join(str(p) for p in e.absolute_path) or "(top level)"
        raise UsageError(f"{path}: schema violation at {where}: {e.message}") from None
    return doc


def _network_spec(d: dict, seed_override=None) -> NetworkSpec:
    try:
        layers = []
        for ld in d["layers"]:
            ld = dict(ld)
            if "tau_m_init" in ld:
                ld["tau_m_init"] = tuple(ld["tau_m_init"])
            if ld.get("tau_adp_init") is not None:
                ld["tau_adp_init"] = tuple(ld["tau_adp_init"])
            layers.append(LayerSpec(**ld))
        return NetworkSpec(
            input_size=d["input_size"], layers=layers,
            decode=d.get("decode", "spike_count"),
            bidirectional=d.get("bidirectional", False),
            seed=d.get("seed", 0) if seed_override is None else seed_override,
            zero_init_membrane=d.get("zero_init_membrane", False))
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad network section: {e}") from None


def _schedule_from_dict(d):
    if d is None:
        return None
    if d["kind"] == "step_decay":
        return StepDecay(factor=d.get("factor", 0.5), every=d.get("every", 20))
    return LinearToZero(total_epochs=d["total_epochs"])


def _training_config(d: dict, seed_override=None) -> TrainingConfig:
    try:
        kwargs = dict(d)
        if "surrogate" in kwargs:
            kwargs["surrogate"] = surrogate_from_dict(kwargs["surrogate"])
        if "schedule" in kwargs:
            kwargs["schedule"] = _schedule_from_dict(kwargs["schedule"])
        if seed_override is not None:
            kwargs["seed"] = seed_override
        return TrainingConfig(**kwargs)
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad training section: {e}") from None


def _zscore(ds):
    from srnn.datasets import Dataset
    mean = ds.inputs.mean()
    std = ds.inputs.std()
    if std == 0:
        raise UsageError("cannot z-score a constant dataset")
    return Dataset(inputs=(ds.inputs - mean) / std, labels=ds.labels,
                   kind=ds.kind, n_classes=ds.n_classes)


def _build_task(task: dict):
    """Materialize the configured dataset; returns (train, val, test)."""
    kind = task["kind"]
    ratios = tuple(task.get("split", (0.72, 0.08, 0.20)))
    split_seed = task.get("split_seed", 0)
    if kind == "pattern_classification":
        try:
            ds = gen_pattern_classification(
                n_classes=task.get("n_classes", 4),
                t_steps=task.get("t_steps", 50),
                channels=task.get("channels", 20),
                jitter_std=task.get("jitter_std", 1.0),
                seed=task.get("seed", 0), n_samples=task.get("n_samples", 200))
        except ValueError as e:
            raise UsageError(f"bad task section: {e}") from None
    elif kind == "streaming_waveform":
        try:
            ds = gen_streaming_waveform(
                k=task.get("k", 3), segment_len=task.get("segment_len", 25),
                segments_per_sample=task.get("segments_per_sample", 4),
                noise_std=task.get("noise_std", 0.02),
                seed=task.get("seed", 0), n_samples=task.get("n_samples", 100))
            if task.get("zscore", False):
                ds = _zscore(ds)
            enc = task.get("encode")
            if enc is not None:
                ds = encode_dataset(ds, up=enc.get("up", 0.3),
                                    down=enc.get("down", 0.3))
        except ValueError as e:
            raise UsageError(f"bad task section: {e}") from None
    else:
        try:
            ds = load_dataset(task["dir"])
        except FileNotFoundError as e:
            raise UsageError(f"dataset not found: {e.filename}") from None
        except ValueError as e:
            raise UsageError(f"bad dataset: {e}") from None
    try:
        return split(ds, ratios, seed=split_seed)
    except ValueError as e:
        raise UsageError(f"bad task split: {e}") from None


def _require(doc: dict, section: str, command: str):
    if section not in doc:
        raise UsageError(f"'{command}' needs a '{section}' section in the config")
    return doc[section]


def _write_cost_report(net, data, out_dir: Path) -> None:
    trace = forward_sequence(net, data.inputs)
    arch = ArchDescription.from_network(net)
    report = cost_report(arch, fr=firing_rate(trace).mean, sops=sop_count(trace, arch))
    (out_dir / "cost_report.txt").write_text(report.to_text())
    (out_dir / "cost_report.csv").write_text(report.to_csv_text())


def cmd_train(args) -> int:
    doc = _load_config(args.config)
    net_spec = _network_spec(doc["network"], seed_override=args.seed)
    tc = _training_config(_require(doc, "training", "train"),
                          seed_override=args.seed)
    train_ds, val_ds, test_ds = _build_task(_require(doc, "task", "train"))
    if train_ds.channels != net_spec.input_size:
        raise UsageError(f"network expects {net_spec.input_size} input "
                         f"channels but the task provides {train_ds.channels}")
    out_dir = Path(_require(doc, "outputs", "train")["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    eval_ds = val_ds if val_ds.n_samples else None
    log.info("training for %d epochs on %d samples", tc.epochs, train_ds.n_samples)
    net, metrics = fit(net_spec, train_ds, tc, eval_data=eval_ds,
                       threads=args.threads)
    save_model(net, out_dir / "model.json")
    metrics.to_csv(out_dir / "metrics.csv")
    if test_ds.n_samples:
        curve = anytime_curve(net, test_ds)
        (out_dir / "anytime.csv").write_text(anytime_csv_text(curve))
        _write_cost_report(net, test_ds, out_dir)
        rep = evaluate(net, test_ds)
        print(f"test accuracy {rep.accuracy:.4f}  loss {rep.loss:.4f}  "
              f"firing rate {rep.firing_rate:.4f}")
    print(f"wrote {out_dir}/model.json and metrics.csv")
    return 0


def _load_model_file(path):
    if not os.path.exists(path):
        raise UsageError(f"model file not found: {path}")
    try:
        return load_model(path)
    except ValueError as e:
        raise UsageError(f"bad model file: {e}") from None


def _load_data_for(net, path):
    """Load a dataset directory and check its width against the model's input."""
    try:
        data = load_dataset(path)
    except FileNotFoundError as e:
        raise UsageError(f"dataset not found: {e.filename}") from None
    except ValueError as e:
        raise UsageError(f"bad dataset: {e}") from None
    if data.channels != net.spec.input_size:
        raise UsageError(f"model expects {net.spec.input_size} input channels "
                         f"but the dataset has {data.channels}")
    return data


def cmd_eval(args) -> int:
    net = _load_model_file(args.model)
    data = _load_data_for(net, args.data)
    rep = evaluate(net, data)
    line = (f"samples {rep.n_samples}  accuracy {rep.accuracy:.4f}  "
            f"loss {rep.loss:.4f}  firing rate {rep.firing_rate:.4f}")
    trace = forward_sequence(net, data.inputs)
    total, per_step = sop_count(trace, ArchDescription.from_network(net))
    line += f"  SOPs {total:.0f} ({per_step:.1f}/step)"
    print(line)
    if data.kind == "streaming":
        out_dir = Path(args.out or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        pred = np.argmax(step_probs(trace, net.spec.decode), axis=2)
        lines = ["sample,step,label,prediction"]
        for s in range(data.n_samples):
            for t in range(data.t_steps):
                lines.append(f"{s},{t},{data.labels[s, t]},{pred[t, s]}")
        (out_dir / "predictions.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote {out_dir}/predictions.csv")
    return 0


def cmd_energy(args) -> int:
    if bool(args.model) == bool(args.arch):
        raise UsageError("give exactly one of --model or --arch")
    sops = None
    if args.model:
        net = _load_model_file(args.model)
        arch = ArchDescription.from_network(net)
        if args.data:
            data = _load_data_for(net, args.data)
            trace = forward_sequence(net, data.inputs)
            fr = firing_rate(trace).mean
            sops = sop_count(trace, arch)
        elif args.fr is not None:
            fr = args.fr
        else:
            raise UsageError("--model needs --data (to measure fr) or --fr")
    else:
        if args.fr is None:
            raise UsageError("--arch needs an explicit --fr")
        if not os.path.exists(args.arch):
            raise UsageError(f"architecture file not found: {args.arch}")
        with open(args.arch) as f:
            arch = ArchDescription.from_dict(json.load(f))
        fr = args.fr
    if not 0.0 <= fr <= 1.0:
        raise UsageError(f"firing rate must lie in [0, 1], got {fr}")
    report = cost_report(arch, fr=fr, sops=sops)
    print(report.to_text(), end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "cost_report.txt").write_text(report.to_text())
        (out_dir / "cost_report.csv").write_text(report.to_csv_text())
    return 0


def cmd_gradcheck(args) -> int:
    doc = _load_config(args.config)
    check = doc.get("check", {})
    seed = args.seed if args.seed is not None else check.get("seed", 0)
    net_spec = _network_spec(doc["network"], seed_override=seed)
    modes = check.get("modes", ["relu_exact"] if net_spec.bidirectional
                      else ["relu_exact", "surrogate_consistency"])
    if net_spec.bidirectional and "surrogate_consistency" in modes:
        raise UsageError("surrogate_consistency covers plain stacks only; "
                         "check a bidirectional network with relu_exact")
    tol_rel = check.get("tol_rel", 1e-4)
    tol_abs = check.get("tol_abs", 1e-8)
    t_steps = check.get("t_steps", 12)
    batch = check.get("batch", 1)
    surrogate = None
    if "training" in doc and "surrogate" in doc["training"]:
        surrogate = surrogate_from_dict(doc["training"]["surrogate"])
    n_classes = net_spec.layers[-1].size
    ok = True
    for mode in modes:
        report = None
        for attempt in range(8):
            rng = np.random.default_rng([seed, attempt])
            net = init_network(net_spec, seed=seed + attempt)
            x = rng.standard_normal((batch, t_steps, net_spec.input_size))
            targets = rng.integers(n_classes, size=batch)
            try:
                report = grad_check(net, x, targets, mode=mode,
                                    surrogate=surrogate)
            except FloatingPointError:
                continue
            if mode != "relu_exact" or report.kink_margin > 1e-3:
                break
        if report is None:
            print(f"{mode}: no usable sample found")
            ok = False
            continue
        passed = (report.max_rel_err < tol_rel if mode == "relu_exact"
                  else report.max_abs_err < tol_abs)
        ok = ok and passed
        print(f"{mode}: max rel err {report.max_rel_err:.3e}  "
              f"max abs err {report.max_abs_err:.3e}  "
              f"params checked {report.checked}  "
              f"{'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


def cmd_gen(args) -> int:
    doc = _load_config(args.config)
    task = _require(doc, "task", "gen")
    if task["kind"] == "files":
        raise UsageError("'gen' needs a generator task, not 'files'")
    train_ds, val_ds, test_ds = _build_task(task)
    out_dir = Path(args.out)
    for name, ds in (("train", train_ds), ("val", val_ds), ("test", test_ds)):
        if ds.n_samples:
            save_dataset(ds, out_dir / name)
            print(f"wrote {out_dir / name} ({ds.n_samples} samples)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srnn",
        description="Train, evaluate, and cost-audit spiking recurrent networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=None,
                   help="override the network and training seeds")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("energy", help="emit a cost report")
    p.add_argument("--model", default=None)
    p.add_argument("--arch", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--fr", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("gradcheck", help="verify gradients on a small net")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gen", help="materialize a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SRNN_LOG", "error").lower()
    if level not in ("error", "info", "debug"):
        print(f"SRNN_LOG must be error, info, or debug, not {level!r}",
              file=sys.stderr)
        return 2
    logging.basicConfig(level=getattr(logging, level.upper()))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FloatingPointError, ValueError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
