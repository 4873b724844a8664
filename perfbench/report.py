"""Turn a workload :class:`~workloads.Result` into metrics.

``end_to_end`` gives the untraced run's metrics; ``per_layer`` the
traced run's, computed from spans.  Both return ``{name: (value, unit)}``
with exactly the names listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import BACKEND_OF_SPAN, coverage, self_times
from workloads import percentile

NN_FUNCS = ("conv2d", "im2col", "fully_connected", "partitioned_gemm", "partitioned_matvec", "run_forward")
NN_FLOP_FUNCS = ("conv2d", "fully_connected", "partitioned_gemm", "partitioned_matvec")
BACKENDS = ("baseline", "gated", "cnv", "cnv2", "scnn")
SPAN_OF_BACKEND = {backend: span for span, backend in BACKEND_OF_SPAN.items()}


def end_to_end(result) -> dict:
    return {
        "setup_s": (float(np.median(result.setup_s)), "s"),
        "latency_p50_ms": (percentile(result.latencies, 50), "ms"),
        "latency_p95_ms": (percentile(result.latencies, 95), "ms"),
        "throughput_per_s": (result.throughput_per_s, "1/s"),
        "mem_mb": (result.mem_mb, "MB"),
    }


def _by_name(spans, selfs):
    calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
    flops = defaultdict(float)
    for span in spans:
        name = span["name"]
        calls[name] += 1
        self_s[name] += selfs[span["id"]]
        total_s[name] += span["end"] - span["start"]
        if span["info"] and "flops" in span["info"]:
            flops[name] += span["info"]["flops"]
    return calls, self_s, total_s, flops


def _backend_spans(spans):
    """Top-level simulator spans (not nested in another simulator span)."""
    by_id = {span["id"]: span for span in spans}
    out = defaultdict(list)
    for span in spans:
        backend = BACKEND_OF_SPAN.get(span["name"])
        if backend is None:
            continue
        parent = by_id.get(span["parent"])
        if parent is not None and parent["name"] in BACKEND_OF_SPAN:
            continue
        out[backend].append(span)
    return out


def per_layer(result, spans, untraced) -> dict:
    """Per-layer metrics of a traced run (``untraced`` is the same
    workload's untraced :class:`Result`, for the tracing overhead)."""
    start, end = result.window
    wall_ms = (end - start) * 1e3
    selfs = self_times(spans)
    calls, self_s, total_s, flops = _by_name(spans, selfs)
    m: dict = {}

    for fn in NN_FUNCS:
        m[f"nn.{fn}.calls"] = (calls[fn], "count")
        m[f"nn.{fn}.self_ms"] = (self_s[fn] * 1e3, "ms")
        m[f"nn.{fn}.wall_pct"] = (100.0 * self_s[fn] * 1e3 / wall_ms, "%")
    for fn in NN_FLOP_FUNCS:
        gflops = flops[fn] / total_s[fn] / 1e9 if total_s[fn] else 0.0
        m[f"nn.{fn}.gflops"] = (gflops, "GFLOP/s")

    top = _backend_spans(spans)
    for backend in BACKENDS:
        name = SPAN_OF_BACKEND[backend]
        outer = top.get(backend, [])
        m[f"backends.{backend}.calls"] = (calls[name], "count")
        m[f"backends.{backend}.self_ms"] = (self_s[name] * 1e3, "ms")
        m[f"backends.{backend}.ms_per_layer"] = (
            1e3 * sum(s["end"] - s["start"] for s in outer) / len(outer) if outer else 0.0,
            "ms",
        )
        m[f"backends.{backend}.ref_cycles"] = (
            sum(s["info"]["cycles"] for s in outer if s["phase"] == "reference" and s["info"]),
            "count",
        )

    for fn in ("network_timing", "prune_conv_weights"):
        m[f"backends.{fn}.calls"] = (calls[fn], "count")
        m[f"backends.{fn}.self_ms"] = (self_s[fn] * 1e3, "ms")

    counters = result.layer.get("counters", {})
    hits = int(counters.get("engine.cache.hits", 0))
    misses = int(counters.get("engine.cache.misses", 0))
    for fn in ("engine.run", "engine.run_stack"):
        m[f"{fn}.calls"] = (calls[fn], "count")
        m[f"{fn}.self_ms"] = (self_s[fn] * 1e3, "ms")
    m["engine.cache.hits"] = (hits, "count")
    m["engine.cache.misses"] = (misses, "count")
    m["engine.cache.lookups"] = (hits + misses, "count")
    m["engine.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")

    batches = [s for s in spans if s["name"] == "execute_batch"]
    sent = result.layer.get("sent", {})
    waits = [
        (span["start"] - sent[rid]) * 1e3
        for span in batches
        for rid in (span["rid"] or [])
        if rid in sent
    ]
    m["serve.execute_batch.calls"] = (len(batches), "count")
    m["serve.execute_batch.self_ms"] = (self_s["execute_batch"] * 1e3, "ms")
    m["serve.batch_size_mean"] = (
        float(np.mean([s["info"]["batch"] for s in batches if s["info"]])) if batches else 0.0,
        "count",
    )
    m["serve.queue_wait_p50_ms"] = (percentile(waits, 50), "ms")
    m["serve.queue_wait_p95_ms"] = (percentile(waits, 95), "ms")

    overhead = result.layer.get("router_overhead_ms", [])
    shards = result.layer.get("shard_requests", [])
    per_shard = np.bincount(shards) if shards else np.zeros(0)
    m["router.submit.calls"] = (calls["router.submit"], "count")
    m["router.overhead_p50_ms"] = (percentile(overhead, 50), "ms")
    m["router.overhead_p95_ms"] = (percentile(overhead, 95), "ms")
    m["router.shard_balance"] = (
        float(per_shard.max() / per_shard.mean()) if per_shard.size else 0.0, "ratio"
    )

    for fn, key in (
        ("init_weights", "init_weights"),
        ("calibrate_network", "calibrate_network"),
        ("artifact.load", "artifact_load"),
        ("artifact.store", "artifact_store"),
    ):
        m[f"experiments.{key}.calls"] = (calls[fn], "count")
        m[f"experiments.{key}.self_ms"] = (self_s[fn] * 1e3, "ms")
    m["experiments.artifact_hits"] = (int(counters.get("artifact.hits", 0)), "count")
    m["experiments.artifact_misses"] = (int(counters.get("artifact.misses", 0)), "count")

    m["loadgen.lateness_p95_ms"] = (percentile(result.layer.get("lateness_ms", []), 95), "ms")

    base = untraced.throughput_per_s
    m["trace.overhead_pct"] = (
        100.0 * (base / result.throughput_per_s - 1.0) if result.throughput_per_s else 0.0, "%"
    )
    m["trace.coverage_pct"] = (100.0 * coverage(spans, start, end), "%")
    m["trace.spans"] = (len(spans), "count")
    return m
