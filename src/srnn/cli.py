"""Command-line entry point.

Subcommands: train, eval, energy, gradcheck, gen. Configuration is a JSON
document read into `Config` (format srnn-config/1) by srnn.jsondoc before
any work happens: unknown keys, non-finite numbers and 1.0 for an integer
are rejected, and absent keys take the dataclasses' defaults. Exit codes:
0 success, 1 numeric or training failure, 2 usage or configuration error.
The SRNN_LOG environment variable (error, info, debug) sets verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Literal, Optional, Union

import numpy as np

from srnn.accounting import ArchDescription, cost_report
from srnn.codecs import anytime_csv_text, encode_dataset
from srnn.datasets import csv_text, gen_pattern_classification, gen_streaming_waveform, \
    load_dataset, save_dataset, split
from srnn.gradcheck import CheckMode, _kink_margin, _soft_loss, grad_check
from srnn.jsondoc import load, read
from srnn.network import NetworkSpec, forward_sequence, init_network, load_model, save_model
from srnn.training import TrainingConfig, check_targets, evaluate, fit

log = logging.getLogger("srnn")


@dataclass
class TaskSplit:
    """How a task's samples are shuffled into train, val and test."""

    split: tuple[float, float, float] = (0.72, 0.08, 0.20)
    split_seed: int = 0


@dataclass
class PatternTask(TaskSplit):
    """Spike-timing classification drawn by gen_pattern_classification."""

    kind: ClassVar[str] = "pattern_classification"
    n_classes: int = 4
    t_steps: int = 50
    channels: int = 20
    jitter_std: float = 1.0
    seed: int = 0
    n_samples: int = 200


@dataclass
class Encoding:
    """Level-crossing thresholds of encode_dataset."""

    up: float = 0.3
    down: float = 0.3


@dataclass
class StreamingTask(TaskSplit):
    """Per-step waveform labels drawn by gen_streaming_waveform."""

    kind: ClassVar[str] = "streaming_waveform"
    k: int = 3
    segment_len: int = 25
    segments_per_sample: int = 4
    noise_std: float = 0.02
    seed: int = 0
    n_samples: int = 100
    zscore: bool = False
    encode: Optional[Encoding] = None


@dataclass(kw_only=True)
class FilesTask(TaskSplit):
    """A dataset directory written by save_dataset (or `srnn gen`)."""

    kind: ClassVar[str] = "files"
    dir: str


@dataclass
class Outputs:
    dir: str


@dataclass
class CheckConfig:
    modes: Optional[list[CheckMode]] = None  # None: every mode the network takes
    tol_rel: float = 1e-4
    tol_abs: float = 1e-8
    t_steps: int = 12
    batch: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.modes == []:
            raise ValueError("modes must name at least one check")
        if self.tol_rel <= 0 or self.tol_abs <= 0:
            raise ValueError("tol_rel and tol_abs must be positive")
        if self.t_steps < 1 or self.batch < 1:
            raise ValueError("t_steps and batch must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class Config:
    """One srnn-config/1 document; a section left out is None."""

    format: Literal["srnn-config/1"]
    network: NetworkSpec
    training: Optional[TrainingConfig] = None
    task: Optional[Union[PatternTask, StreamingTask, FilesTask]] = None
    outputs: Optional[Outputs] = None
    check: CheckConfig = field(default_factory=CheckConfig)


class UsageError(Exception):
    """Configuration or invocation problem; maps to exit code 2."""


def _read_file(tp, path, what: str):
    """Read a JSON file into a `tp`; any fault in it is a UsageError."""
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    try:
        return read(tp, load(path))
    except ValueError as e:  # not JSON (jsondoc.load), or a SchemaError
        raise UsageError(f"{path}: {e}") from None


def _with_seed(section, seed):
    """The section with its seed replaced by --seed, when that flag is given."""
    if seed is None:
        return section
    try:
        return dataclasses.replace(section, seed=seed)
    except ValueError as e:
        raise UsageError(f"--seed: {e}") from None


def _zscore(ds):
    std = ds.inputs.std()
    if std == 0:
        raise UsageError("cannot z-score a constant dataset")
    return dataclasses.replace(ds, inputs=(ds.inputs - ds.inputs.mean()) / std)


def _read_dataset(path):
    try:
        return load_dataset(path)
    except FileNotFoundError as e:
        raise UsageError(f"dataset not found: {e.filename}") from None
    except (OSError, ValueError) as e:  # e.g. a manifest whose data names a directory
        raise UsageError(f"bad dataset: {e}") from None


def _build_task(task):
    """Materialize the configured dataset; returns (train, val, test)."""
    if isinstance(task, FilesTask):
        ds = _read_dataset(task.dir)
    else:
        try:
            if isinstance(task, PatternTask):
                ds = gen_pattern_classification(
                    n_classes=task.n_classes, t_steps=task.t_steps,
                    channels=task.channels, jitter_std=task.jitter_std,
                    seed=task.seed, n_samples=task.n_samples)
            else:
                ds = gen_streaming_waveform(
                    k=task.k, segment_len=task.segment_len,
                    segments_per_sample=task.segments_per_sample,
                    noise_std=task.noise_std, seed=task.seed,
                    n_samples=task.n_samples)
                if task.zscore:
                    ds = _zscore(ds)
                if task.encode is not None:
                    ds = encode_dataset(ds, up=task.encode.up, down=task.encode.down)
        except ValueError as e:
            raise UsageError(f"bad task section: {e}") from None
    try:
        return split(ds, task.split, seed=task.split_seed)
    except ValueError as e:
        raise UsageError(f"bad task split: {e}") from None


def _require(cfg: Config, section: str, command: str):
    value = getattr(cfg, section)
    if value is None:
        raise UsageError(f"'{command}' needs a '{section}' section in the config")
    return value


def _check_shape(spec: NetworkSpec, channels: int, n_classes: int, what: str) -> None:
    if channels != spec.input_size:
        raise UsageError(f"the network expects {spec.input_size} input channels "
                         f"but {what} has {channels}")
    n_out = spec.layers[-1].size
    if n_classes > n_out:
        raise UsageError(f"{what} has {n_classes} classes but the network's "
                         f"head is {n_out} wide")


def _check_task(spec: NetworkSpec, task) -> None:
    """Reject a generated task the network cannot read or score, before drawing it.

    A files task is checked once it is read, by `_check_labels`.
    """
    if isinstance(task, PatternTask):
        _check_shape(spec, task.channels, task.n_classes, "the task")
    elif isinstance(task, StreamingTask):
        # one analog channel, or its up and down spikes once encoded
        _check_shape(spec, 1 if task.encode is None else 2, task.k, "the task")


def _check_labels(spec: NetworkSpec, ds, what: str) -> None:
    """Reject data whose width or labels the network cannot read or score."""
    _check_shape(spec, ds.channels, ds.n_classes, what)
    try:
        check_targets(spec, ds.labels, ds.n_samples, ds.t_steps)
    except ValueError as e:
        raise UsageError(f"{what}: {e}") from None


def _write_cost_report(report, out_dir: Path) -> None:
    (out_dir / "cost_report.txt").write_text(report.to_text())
    (out_dir / "cost_report.csv").write_text(report.to_csv_text())


def cmd_train(args) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    cfg = _read_file(Config, args.config, "config file")
    net_spec = _with_seed(cfg.network, args.seed)
    tc = _with_seed(_require(cfg, "training", "train"), args.seed)
    task = _require(cfg, "task", "train")
    _check_task(net_spec, task)
    train_ds, val_ds, test_ds = _build_task(task)
    if not train_ds.n_samples:
        raise UsageError("the task's train split holds no samples")
    _check_labels(net_spec, train_ds, "the task")
    try:
        check_targets(net_spec, train_ds.labels, *train_ds.inputs.shape[:2], tc.loss)
    except ValueError as e:
        raise UsageError(f"{args.config}: training/loss: {e}") from None
    out_dir = Path(_require(cfg, "outputs", "train").dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    eval_ds = val_ds if val_ds.n_samples else None
    log.info("training for %d epochs on %d samples", tc.epochs, train_ds.n_samples)
    net, metrics = fit(net_spec, train_ds, tc, eval_data=eval_ds,
                       threads=args.threads)
    save_model(net, out_dir / "model.json")
    (out_dir / "metrics.csv").write_text(metrics.to_csv_text())
    if test_ds.n_samples:
        rep = evaluate(net, test_ds)
        (out_dir / "anytime.csv").write_text(anytime_csv_text(rep.anytime))
        arch = ArchDescription.from_network(net)
        _write_cost_report(cost_report(arch, fr=rep.firing_rate, sops=rep.sops(arch)),
                           out_dir)
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
    """Load a dataset directory and check it against the model's input and head."""
    data = _read_dataset(path)
    _check_labels(net.spec, data, "the dataset")
    return data


def cmd_eval(args) -> int:
    net = _load_model_file(args.model)
    data = _load_data_for(net, args.data)
    rep = evaluate(net, data)
    total, per_step = rep.sops(ArchDescription.from_network(net))
    print(f"samples {rep.n_samples}  accuracy {rep.accuracy:.4f}  "
          f"loss {rep.loss:.4f}  firing rate {rep.firing_rate:.4f}  "
          f"SOPs {total:.0f} ({per_step:.1f}/step)")
    if data.kind == "streaming":
        out_dir = Path(args.out or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        index = np.indices(data.labels.shape).reshape(2, -1)    # sample, step
        rows = np.column_stack([*index, data.labels.ravel(), rep.step_predictions.ravel()])
        (out_dir / "predictions.csv").write_text(
            csv_text([("sample", "step", "label", "prediction"), *rows.tolist()]))
        print(f"wrote {out_dir}/predictions.csv")
    return 0


def cmd_energy(args) -> int:
    if bool(args.model) == bool(args.arch):
        raise UsageError("give exactly one of --model or --arch")
    if args.arch and args.data:
        raise UsageError("--data measures fr on a --model; --arch takes --fr")
    if args.data and args.fr is not None:
        raise UsageError("give --data (to measure fr) or --fr, not both")
    sops = None
    if args.model:
        net = _load_model_file(args.model)
        arch = ArchDescription.from_network(net)
        if args.data:
            rep = evaluate(net, _load_data_for(net, args.data))
            fr, sops = rep.firing_rate, rep.sops(arch)
        elif args.fr is not None:
            fr = args.fr
        else:
            raise UsageError("--model needs --data (to measure fr) or --fr")
    else:
        if args.fr is None:
            raise UsageError("--arch needs an explicit --fr")
        arch = _read_file(ArchDescription, args.arch, "architecture file")
        fr = args.fr
    if not 0.0 <= fr <= 1.0:
        raise UsageError(f"firing rate must lie in [0, 1], got {fr}")
    report = cost_report(arch, fr=fr, sops=sops)
    print(report.to_text(), end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_cost_report(report, out_dir)
    return 0


def _widest_draw(spec: NetworkSpec, check: CheckConfig):
    """(net, inputs, targets) of the seeded draw, of 8, whose soft pass has
    a finite loss and the widest kink margin (None if no loss is finite),
    found by one soft pass a draw instead of one check a draw."""
    best, widest = None, -np.inf
    for attempt in range(8):
        rng = np.random.default_rng([check.seed, attempt])
        net = init_network(spec, seed=check.seed + attempt)
        x = rng.standard_normal((check.batch, check.t_steps, spec.input_size))
        targets = rng.integers(spec.layers[-1].size, size=check.batch)
        trace = forward_sequence(net, x, soft=True)
        margin = _kink_margin(trace)
        if np.isfinite(_soft_loss(net, trace, targets)) and margin > widest:
            best, widest = (net, x, targets), margin
    return best


def cmd_gradcheck(args) -> int:
    cfg = _read_file(Config, args.config, "config file")
    check = _with_seed(cfg.check, args.seed)
    net_spec = cfg.network
    modes = check.modes or (["relu_exact"] if net_spec.bidirectional
                            else ["relu_exact", "surrogate_consistency"])
    if net_spec.bidirectional and "surrogate_consistency" in modes:
        raise UsageError("surrogate_consistency covers plain stacks only; "
                         "check a bidirectional network with relu_exact")
    surrogate = cfg.training.surrogate if cfg.training else None
    draw = _widest_draw(net_spec, check)
    ok = draw is not None
    for mode in modes:
        if draw is None:
            print(f"{mode}: no usable sample found")
            continue
        report = grad_check(*draw, mode=mode, surrogate=surrogate)
        passed = (report.max_scored_rel_err < check.tol_rel if mode == "relu_exact"
                  else report.max_abs_err < check.tol_abs)
        ok = ok and passed
        noise = "" if report.fd_noise is None else (
            f"fd noise {report.fd_noise:.3e}  "
            f"scored rel err {report.max_scored_rel_err:.3e}  "
            f"kink margin {report.kink_margin:.3e}  ")
        print(f"{mode}: max rel err {report.max_rel_err:.3e}  "
              f"max abs err {report.max_abs_err:.3e}  {noise}"
              f"params checked {report.checked}  "
              f"{'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


def cmd_gen(args) -> int:
    task = _require(_read_file(Config, args.config, "config file"), "task", "gen")
    if isinstance(task, FilesTask):
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
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except (FloatingPointError, ValueError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
