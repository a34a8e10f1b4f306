"""Per-module metrics from the spans of one traced run.

Span names are `<module>.<call>`. Training chunk spans are the
`network.forward` and `training.backward` spans whose parent is the
`training.fit` span (directly, or through the pool fallback in the
tracer); forward spans under `training.evaluate` or `codecs.anytime` are
read-only passes and are not counted as chunks.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from tracer import duration, self_time


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def _pct_ms(spans, q) -> float:
    return _ms(float(np.percentile([duration(s) for s in spans], q)))


def per_layer(spans: list[dict], w, n_train: int):
    """(metrics as {name: (value, unit)}, sample counts behind them)."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    roots = children[None]

    def root_total_ms(name):
        return _ms(sum(duration(s) for s in roots if s["name"] == name))

    (fit,) = [s for s in roots if s["name"] == "training.fit"]
    fit_kids = children[fit["id"]]
    fwd = [s for s in fit_kids if s["name"] == "network.forward"]
    bwd = [s for s in fit_kids if s["name"] == "training.backward"]
    adam = [s for s in fit_kids if s["name"] == "training.adam"]
    surrogate = {b["id"]: [s for s in children[b["id"]] if s["name"] == "surrogates.grad"]
                 for b in bwd}
    n_surrogate = sum(len(v) for v in surrogate.values())
    bwd_self_ms = [_ms(self_time(b, surrogate[b["id"]])) for b in bwd]

    cfg = w.config
    in_flight = min(w.threads, math.ceil(min(cfg.minibatch, n_train) / cfg.chunk_size))
    trace_mib = max(s["bytes"] for s in fwd) * in_flight / 2 ** 20
    fwd_p50, bwd_p50 = _pct_ms(fwd, 50), _pct_ms(bwd, 50)
    chunk_busy = sum(duration(s) for s in fwd + bwd)
    (evaluate,) = [s for s in roots if s["name"] == "training.evaluate"]

    metrics = {
        "datasets.generate_ms": (root_total_ms("datasets.generate"), "ms"),
        "datasets.split_ms": (root_total_ms("datasets.split"), "ms"),
        "codecs.encode_ms": (root_total_ms("codecs.encode"), "ms"),
        "codecs.anytime_ms": (root_total_ms("codecs.anytime"), "ms"),
        "network.init_ms": (root_total_ms("network.init"), "ms"),
        "network.forward_ms_p50": (fwd_p50, "ms"),
        "network.forward_ms_p90": (_pct_ms(fwd, 90), "ms"),
        "network.forward_calls": (len(fwd), "count"),
        "network.trace_mib": (trace_mib, "MiB"),
        "network.save_model_ms": (root_total_ms("network.save_model"), "ms"),
        "network.load_model_ms": (root_total_ms("network.load_model"), "ms"),
        "surrogates.grad_ms_per_chunk": (
            _ms(sum(duration(s) for v in surrogate.values() for s in v)) / len(bwd), "ms"),
        "surrogates.grad_calls": (n_surrogate, "count"),
        "training.backward_ms_p50": (bwd_p50, "ms"),
        "training.backward_ms_p90": (_pct_ms(bwd, 90), "ms"),
        "training.backward_self_ms_p50": (float(np.median(bwd_self_ms)), "ms"),
        "training.backward_over_forward": (bwd_p50 / fwd_p50, "ratio"),
        "training.adam_ms_p50": (_pct_ms(adam, 50), "ms"),
        "training.adam_calls": (len(adam), "count"),
        "training.fit_self_ms": (_ms(self_time(fit, fit_kids)), "ms"),
        "training.pool_busy_share": (chunk_busy / (duration(fit) * w.threads), "ratio"),
        "training.evaluate_ms": (_ms(duration(evaluate)), "ms"),
        "accounting.report_ms": (root_total_ms("accounting.report"), "ms"),
    }
    counts = {"forward_spans": len(fwd), "backward_spans": len(bwd),
              "adam_spans": len(adam), "surrogate_spans": n_surrogate,
              "chunks_in_flight": in_flight}
    return metrics, counts
