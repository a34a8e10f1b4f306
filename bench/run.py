#!/usr/bin/env python3
"""Benchmark for the srnn package: three fixed synthetic workloads.

    python3 bench/run.py --workload quickstart --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload

Run from the root of a source checkout; the package is imported from its
`src/` directory and nothing is installed or built. Each run sets up the
data and network, trains with one `fit` call, evaluates and builds the
report a CLI user waits for, then streams held-out sequences through
`forward_step` one step at a time. With `--trace 0` the run interleaves
repetitions of the four phases until `--seconds` is used and reports each
end-to-end time as the median of its repetitions, scaled to a fixed speed
of a reference kernel timed alongside them (SpeedProbe). With
`--trace 1` the run times untraced `fit` calls, then makes one traced
pass and reports per-module metrics.
Output checks run in both modes, outside the timed regions.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. README.md in this
directory describes the workloads and every metric.
"""

from __future__ import annotations

import os

# BLAS runs single-threaded so that BLAS threads x fit threads fits the
# machine; this has to happen before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import ctypes
import json
import math
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
from tracer import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("quickstart", "paper_scale", "streaming")

# An untraced run interleaves repetitions of the phases until --seconds
# is used, always running next the phase furthest below its share of the
# time spent so far, so every phase's repetitions spread over the whole run.
PHASE_SHARE = {"setup": 0.10, "fit": 0.45, "eval": 0.10, "report": 0.20, "online": 0.15}
MIN_REPS = 3
# One online repetition streams whole held-out sequences until at least
# this many closed-loop steps ran; its median is one block p50.
ONLINE_BLOCK = 1000
# The traced run's online pass: 80 samples lie beyond the 99th percentile.
MIN_ONLINE_STEPS = 8000
ORACLE_ABS_TOL = 1e-8
EVAL_CHUNK = 64          # evaluate's default chunk size: one eval operation


def _import_srnn():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import srnn
    except ImportError as e:
        sys.exit(f"bench: cannot import srnn from {ROOT / 'src'}: {e}")
    if Path(srnn.__file__).resolve().parent != (ROOT / "src" / "srnn").resolve():
        sys.exit(f"bench: srnn was imported from {srnn.__file__}, "
                 f"not from this checkout's src/")
    return srnn


def blas_threads() -> tuple[int, str]:
    """BLAS thread count as OpenBLAS reports it, and where it came from."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter()), fn
    return int(os.environ["OPENBLAS_NUM_THREADS"]), "OPENBLAS_NUM_THREADS"


def steal_ticks():
    """Clock ticks the hypervisor ran something else on this VM's CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def machine_facts(fit_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    n_blas, source = blas_threads()
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": n_blas, "blas_threads_source": source,
            "fit_threads": fit_threads}


class Checks:
    """Counts operations attempted and failed; remembers failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def params_of(net) -> list:
    return [a for layer in net.layers for a in layer.param_arrays().values()
            if a is not None]


class Run:
    """One workload run: the four phases plus the output checks."""

    def __init__(self, srnn, w, seed: int, seconds: float):
        self.srnn = srnn
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.tracer = NullTracer()
        self.checks = Checks()
        self.samples: dict = {}
        self.eval_accuracy = None
        self.raw: dict[str, list] = {}
        self.next_seq = 0

    # -- phase 1 ---------------------------------------------------------
    def setup_once(self):
        srnn, tr = self.srnn, self.tracer
        t0 = time.perf_counter()
        train, val, heldout = self.w.make_data(self.seed, tr)
        with tr.span("network.init"):
            net0 = srnn.init_network(self.w.spec)
        return time.perf_counter() - t0, (train, val, heldout, net0)

    # -- phase 2 ---------------------------------------------------------
    def fit_once(self, net0, train, val):
        start_net = copy.deepcopy(net0)
        t0 = time.perf_counter()
        with self.tracer.span("training.fit"):
            net, log = self.srnn.fit(start_net, train, self.w.config, eval_data=val,
                                     threads=self.w.threads)
        elapsed = time.perf_counter() - t0
        self.checks.ops(self.w.config.epochs * math.ceil(train.n_samples
                                                          / self.w.config.minibatch))
        return elapsed, net, log

    def check_fit(self, net, log, reference) -> None:
        c = self.checks
        c.check(all(math.isfinite(r["loss"]) for r in log.rows),
                "every epoch's loss is finite")
        c.check(all(np.all(np.isfinite(p)) for p in params_of(net)),
                "every parameter is finite after fit")
        if reference is not None:
            ref_net, ref_csv = reference
            c.check(log.to_csv_text() == ref_csv
                    and all(np.array_equal(a, b)
                            for a, b in zip(params_of(net), params_of(ref_net))),
                    "repeated fits are identical")

    # -- phase 3 ---------------------------------------------------------
    def evaluate_once(self, net, heldout):
        t0 = time.perf_counter()
        with self.tracer.span("training.evaluate"):
            rep = self.srnn.evaluate(net, heldout)
        elapsed = time.perf_counter() - t0
        self.checks.ops(math.ceil(heldout.n_samples / EVAL_CHUNK))
        return elapsed, rep

    def check_eval(self, rep, heldout) -> None:
        c, floor = self.checks, self.w.floor
        self.eval_accuracy = rep.accuracy
        c.check(rep.n_samples == heldout.n_samples and math.isfinite(rep.loss),
                "evaluate scored every held-out sample with a finite loss")
        if floor is not None and floor.min_accuracy is not None:
            c.check(rep.accuracy >= floor.min_accuracy,
                    f"held-out accuracy {rep.accuracy:.3f} >= {floor.min_accuracy}")
        if floor is not None and floor.max_loss is not None:
            c.check(rep.loss <= floor.max_loss,
                    f"held-out loss {rep.loss:.3f} <= {floor.max_loss:.3f}")

    def report_once(self, net, heldout, model_path):
        srnn, tr = self.srnn, self.tracer
        t0 = time.perf_counter()
        with tr.span("network.save_model"):
            srnn.save_model(net, model_path)
        with tr.span("network.load_model"):
            loaded = srnn.load_model(model_path)
        with tr.span("codecs.anytime"):
            curve = srnn.anytime_curve(loaded, heldout)
        with tr.span("network.forward_sequence"):
            trace = srnn.forward_sequence(loaded, heldout.inputs)
        with tr.span("accounting.report"):
            arch = srnn.ArchDescription.from_network(loaded)
            fr = srnn.firing_rate(trace)
            sops = srnn.sop_count(trace, arch)
            cost = srnn.cost_report(arch, fr=fr.mean, sops=sops)
            cost.to_text()
            cost.to_csv_text()
        elapsed = time.perf_counter() - t0
        return elapsed, loaded, curve, fr, cost

    def check_report(self, net, rep, heldout, loaded, curve, fr, cost) -> None:
        c = self.checks
        c.check(all(np.array_equal(a, b) for a, b in zip(params_of(net), params_of(loaded))),
                "save_model -> load_model round trip is exact")
        c.check(curve.shape == (heldout.t_steps,) and np.all((curve >= 0) & (curve <= 1)),
                "anytime curve is a per-step accuracy")
        if net.spec.decode == "spike_count":
            c.check(curve[-1] == rep.accuracy,
                    "anytime accuracy at the last step equals evaluate's accuracy")
        if self.w.per_step_labels:
            c.check(abs(curve.mean() - rep.accuracy) <= 1e-12,
                    "mean anytime accuracy equals evaluate's per-step accuracy")
        c.check(math.isclose(fr.mean, rep.firing_rate, rel_tol=1e-9, abs_tol=1e-15),
                "firing_rate agrees with evaluate's firing rate")
        c.check(cost.sops_total is not None and cost.sops_total >= 0
                and math.isfinite(cost.energy_per_step_pj),
                "cost report has SOPs and a finite energy")

    # -- phase 4 ---------------------------------------------------------
    def online(self, net, heldout, min_steps, check=False):
        """Closed loop over held-out sequences at batch 1; ns per step.

        Streams whole sequences, starting after the ones streamed before,
        until at least min_steps steps ran. With check, also compares the
        first two streamed sequences with forward_sequence.
        """
        from srnn.network import init_state
        srnn = self.srnn
        seqs = heldout.inputs
        latencies: list[int] = []
        streamed = []
        while len(latencies) < min_steps:
            seq = seqs[self.next_seq % len(seqs)]
            self.next_seq += 1
            states = init_state(net, 1)
            outs = []
            for x in seq:
                t0 = time.perf_counter_ns()
                states, out = srnn.forward_step(net, x, states)
                latencies.append(time.perf_counter_ns() - t0)
                if check and len(streamed) < 2:
                    outs.append(out[-1])
            if check and len(streamed) < 2:
                streamed.append((seq, np.array(outs)))
        self.checks.ops(len(latencies))
        for seq, outs in streamed:
            ref = srnn.forward_sequence(net, seq).layers[-1].y[:, 0, :]
            self.checks.check(np.array_equal(outs, ref),
                              "forward_step outputs equal forward_sequence's")
        return np.asarray(latencies, dtype=float)

    # -- output check on the gradient ------------------------------------
    def check_oracle(self) -> None:
        from srnn.gradcheck import grad_check
        import workloads
        net = self.srnn.init_network(self.w.oracle_spec)
        x, targets = workloads.oracle_inputs(self.w, self.seed)
        rep = grad_check(net, x, targets, mode="surrogate_consistency",
                         surrogate=self.w.config.surrogate)
        self.checks.check(rep.checked > 0 and rep.max_abs_err <= ORACLE_ABS_TOL,
                          f"backward agrees with the tape oracle "
                          f"(max abs {rep.max_abs_err:.2e} <= {ORACLE_ABS_TOL})")


class SpeedProbe:
    """Times a fixed numpy reference kernel to track the core's speed.

    The machine this was sized on runs single-threaded code at two speeds
    up to 1.8x apart, switching between them within a second or staying at
    one for minutes (see README.md). `run` calls a repetition while a
    timer signal times a few reference iterations on the same thread
    every TICK_S, and also times the reference just before and after; the
    repetition is then scaled to what it would have taken with the
    reference at its nominal speed. The kernel is tanh(A @ x) with the
    workload's `speed_ref` shape, and uses no srnn code, so a change to the
    package cannot move it.
    """

    EDGE_S = 1.5e-3      # nominal reference work before and after a repetition
    TICK_WORK_S = 2e-4   # nominal reference work per timer tick
    TICK_S = 0.05

    def __init__(self, rows: int, cols: int, nominal_s: float):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((rows, cols)) / np.sqrt(cols)
        self.x = rng.standard_normal(cols)
        self.nominal_s = nominal_s
        self.edge_iters = max(1, round(self.EDGE_S / nominal_s))
        self.tick_iters = max(1, round(self.TICK_WORK_S / nominal_s))
        self.ticks: list[float] = []
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        self.last = self.measure(self.edge_iters)

    def measure(self, iters: int) -> float:
        """Seconds of this thread's CPU time per reference iteration.

        Two untimed iterations first bring A back into the cache the
        workload evicted it from, so the timing sees only the core's speed.
        """
        a, x = self.a, self.x
        np.tanh(a @ x)
        np.tanh(a @ x)
        t0 = time.thread_time_ns()
        for _ in range(iters):
            np.tanh(a @ x)
        return (time.thread_time_ns() - t0) / iters / 1e9

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.ticks.append(self.measure(self.tick_iters))
        self.paused += time.perf_counter() - t0

    def run(self, fn):
        """Call fn; return (its result, factor to reference speed, seconds paused).

        The seconds paused are those the timer signal took inside fn.
        """
        self.ticks, self.paused = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        before, self.last = self.last, self.measure(self.edge_iters)
        # Samples come evenly in time, so the work done at each speed is
        # proportional to the speed: average speeds, not iteration times.
        speed = float(np.mean(1.0 / np.array([before, self.last, *self.ticks])))
        return result, self.nominal_s * speed, self.paused


def run_untraced(run: Run) -> dict:
    """Interleave repetitions of the phases and summarise their timings.

    The first setup and fit give the data and the trained network every
    later repetition uses; set-up and training are deterministic, so
    repeating them gives the same data and, as checked, the same network.
    A repetition that would end past --seconds, going by the median of the
    phase's earlier ones, is not started once every phase ran MIN_REPS
    times. Every end-to-end time is the median of the phase's repetitions
    at the reference speed (SpeedProbe); the unscaled medians go to the
    result file.
    """
    times: dict[str, list] = {phase: [] for phase in PHASE_SHARE}      # as measured
    scaled: dict[str, list] = {phase: [] for phase in PHASE_SHARE}     # at reference speed
    took: dict[str, list] = {phase: [] for phase in PHASE_SHARE}       # wall s per repetition
    probe = SpeedProbe(*run.w.speed_ref)
    start = time.perf_counter()

    def timed(phase, fn):
        """Run one repetition; fn returns its time (or online p50) first."""
        t0 = time.perf_counter()
        (value, *result), factor, paused = probe.run(fn)
        if phase != "online":
            value -= paused
        times[phase].append(value)
        scaled[phase].append(value * factor)
        took[phase].append(time.perf_counter() - t0)
        return result

    (train, val, heldout, net0), = timed("setup", run.setup_once)
    net, log = timed("fit", lambda: run.fit_once(net0, train, val))
    run.check_fit(net, log, None)
    reference = (net, log.to_csv_text())
    model_path = OUT_DIR / f"model-{run.w.name}-{os.getpid()}.json"

    def fit():
        elapsed, again, again_log = run.fit_once(net0, train, val)
        run.check_fit(again, again_log, reference)
        return (elapsed,)

    def online():
        latencies = run.online(net, heldout, ONLINE_BLOCK, check=not times["online"])
        return float(np.percentile(latencies, 50)) / 1e3, len(latencies)

    rep = report_out = peak_mib = None
    online_steps = 0
    try:
        while True:
            short = [p for p in PHASE_SHARE if len(times[p]) < MIN_REPS]
            phase = min(short or PHASE_SHARE, key=lambda p: (sum(took[p]) / PHASE_SHARE[p], p))
            if not short and (time.perf_counter() - start + float(np.median(took[phase]))
                              > run.seconds):
                break
            if phase == "setup":
                timed(phase, run.setup_once)
            elif phase == "fit":
                timed(phase, fit)
            elif phase == "eval":
                rep, = timed(phase, lambda: run.evaluate_once(net, heldout))
            elif phase == "report":
                report_out = timed(phase, lambda: run.report_once(net, heldout, model_path))
            else:
                online_steps += timed(phase, online)[0]
            if peak_mib is None and all(times.values()):
                # The peak of one pass through the four phases, what a user
                # who trains and reports once needs. Repeated fits only add
                # allocator fragmentation, which moved the end-of-run peak
                # 579-683 MiB over ten paper_scale runs.
                peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        model_path.unlink(missing_ok=True)
    run.check_eval(rep, heldout)
    run.check_report(net, rep, heldout, *report_out)
    run.check_oracle()
    names = {"setup": "setup_s", "fit": "fit_s", "eval": "evaluate_s", "report": "report_s",
             "online": "online_block_p50_us"}
    run.raw = {names[p]: times[p] for p in PHASE_SHARE}
    run.raw.update({f"{names[p]}_scaled": scaled[p] for p in PHASE_SHARE})
    run.raw["unscaled_median"] = {names[p]: float(np.median(times[p])) for p in PHASE_SHARE}
    run.raw["peak_rss_mib_at_end"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.samples.update({phase: len(t) for phase, t in times.items()},
                       online_steps=online_steps)
    med = {p: float(np.median(scaled[p])) for p in PHASE_SHARE}
    return {
        "setup_s": (med["setup"], "s"),
        "train_samples_per_s": (run.w.config.epochs * train.n_samples / med["fit"], "samples/s"),
        "eval_samples_per_s": (heldout.n_samples / med["eval"], "samples/s"),
        "report_s": (med["report"], "s"),
        "online_step_p50_us": (med["online"], "us"),
        "peak_rss_mib": (peak_mib, "MiB"),
        "eval_loss": (rep.loss, "nats"),
    }


def run_traced(run: Run) -> dict:
    import srnn.training

    _, (train, val, heldout, net0) = run.setup_once()
    untraced = [run.fit_once(net0, train, val)[0] for _ in range(MIN_REPS)]
    train = val = heldout = net0 = None

    tracer = run.tracer = Tracer()
    _, (train, val, heldout, net0) = run.setup_once()

    def record_trace_bytes(trace, attrs):
        attrs["bytes"] = sum(a.nbytes for lt in trace.layers
                             for a in vars(lt).values() if hasattr(a, "nbytes"))

    tracer.patch(srnn.training, "forward_sequence", "network.forward", record_trace_bytes)
    tracer.patch(srnn.training, "backward", "training.backward")
    tracer.patch(srnn.training, "adam_step", "training.adam")
    tracer.patch(srnn.training, "surrogate_grad", "surrogates.grad")
    tracer.patch(srnn.training, "evaluate", "training.evaluate")
    model_path = OUT_DIR / f"model-{run.w.name}-{os.getpid()}.json"
    try:
        traced_fit, net, log = run.fit_once(net0, train, val)
        _, rep = run.evaluate_once(net, heldout)
        _, loaded, curve, fr, cost = run.report_once(net, heldout, model_path)
    finally:
        tracer.close()
        model_path.unlink(missing_ok=True)
    run.check_fit(net, log, None)
    run.check_eval(rep, heldout)
    run.check_report(net, rep, heldout, loaded, curve, fr, cost)
    lat = run.online(net, heldout, MIN_ONLINE_STEPS, check=True)
    run.check_oracle()

    spans_path = OUT_DIR / f"spans-{run.w.name}-seed{run.seed}.jsonl"
    tracer.write(spans_path)
    metrics, counts = layers.per_layer(tracer.spans, run.w, train.n_samples)
    fit_untraced = float(np.median(untraced))
    metrics["training.fit_ms_untraced"] = (1e3 * fit_untraced, "ms")
    metrics["training.fit_ms_traced"] = (1e3 * traced_fit, "ms")
    metrics["training.trace_overhead"] = (traced_fit / fit_untraced, "ratio")
    metrics["network.forward_step_p99_us"] = (float(np.percentile(lat, 99)) / 1e3, "us")
    run.samples.update(counts, untraced_fits=len(untraced), online_steps=len(lat))
    run.samples["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def run_one(args) -> int:
    srnn = _import_srnn()
    import workloads
    w = workloads.get(args.workload, tiny=args.tiny)
    facts = machine_facts(w.threads)
    if facts["blas_threads"] * w.threads > facts["nproc"]:
        sys.exit(f"bench: {facts['blas_threads']} BLAS threads x {w.threads} fit threads "
                 f"exceeds nproc={facts['nproc']}; refusing to run {w.name}")
    OUT_DIR.mkdir(exist_ok=True)
    run = Run(srnn, w, args.seed, args.seconds)
    steal0, t0 = steal_ticks(), time.perf_counter()
    metrics = run_traced(run) if args.trace else run_untraced(run)
    steal1, wall = steal_ticks(), time.perf_counter() - t0
    if steal0 is not None and steal1 is not None:
        ticks = os.sysconf("SC_CLK_TCK") * wall * facts["nproc"]
        facts["steal_share"] = (steal1 - steal0) / ticks
    c = run.checks
    facts.update(workload=w.name, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, tiny=args.tiny, samples=run.samples,
                 eval_accuracy=run.eval_accuracy,
                 error_rate=c.failed / c.attempted, failed_checks=c.failures)
    result = {"correct": c.failed == 0, "attempted": c.attempted, "failed": c.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"facts": facts, **result, "raw": run.raw}, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{w.name:12s} {name:32s} {value:14.6g} {unit}")
    print(f"{w.name:12s} {'error_rate':32s} {facts['error_rate']:14.6g} ratio "
          f"({c.failed} of {c.attempted} operations)")
    for failure in c.failures:
        print(f"{w.name:12s} FAILED CHECK: {failure}")
    print(json.dumps({"facts": facts}))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every size (smoke test only)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
