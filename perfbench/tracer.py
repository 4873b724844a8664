"""Outside-in span tracer for the traced benchmark run.

The tracer never edits the program: it replaces module and class
attributes with timing wrappers before a workload starts and puts the
originals back afterwards.  Each wrapped call records one span
``(id, parent, name, start, end, request id, thread, phase, info)``;
spans are kept in memory and written out when the workload ends.

A function must be wrapped where its *caller* looks it up.  A module
that did ``from repro.nn.inference import run_forward`` holds its own
binding, so every such binding is patched separately (see
:data:`LAYER_BINDINGS`).  A binding that is missed does not vanish from
the report: its time shows up as a gap in span coverage of wall time.

Parent links come from a :class:`contextvars.ContextVar`, so spans nest
correctly across asyncio tasks and across ``asyncio.to_thread`` (which
copies the caller's context into the worker thread).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

#: (current span id, current request id) of the running task/thread.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(0, None)
)


def _conv_flops(args, kwargs, result):
    weights = args[1] if len(args) > 1 else kwargs["weights"]
    return {"flops": 2 * result.size * int(np.prod(weights.shape[1:]))}


def _fc_flops(args, kwargs, result):
    weights = args[1] if len(args) > 1 else kwargs["weights"]
    return {"flops": 2 * result.size * weights.shape[1]}


def _gemm_flops(args, kwargs, result):
    cols = args[0] if args else kwargs["cols"]
    return {"flops": 2 * result.size * cols.shape[-1]}


def _matvec_flops(args, kwargs, result):
    weights = args[0] if args else kwargs["weights"]
    return {"flops": 2 * result.size * weights.shape[1]}


def _layer_cycles(args, kwargs, result):
    return {"cycles": int(result.cycles)}


def _batch_rids(args, kwargs, result):
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return {"batch": len(requests)}


def _request_rid(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs["request"]
    return request.id


def _batch_rid(args, kwargs):
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return [request.id for request in requests]


def _artifact_info(args, kwargs, result):
    return {"kind": args[1] if len(args) > 1 else kwargs.get("kind")}


#: (owner path, attribute, span name, info fn, request-id fn), grouped
#: by layer.  ``owner path`` is ``module`` or ``module:Class``.  Every binding a
#: caller uses is listed: re-exported names are patched in each module
#: that imported them by name.
LAYER_BINDINGS = [
    # nn: forward kernels (F.conv2d / F.fully_connected are looked up on
    # repro.nn.layers; im2col is a global of that module; zskip.* is
    # repro.nn.sparse; run_forward is imported by name in four modules).
    ("repro.nn.layers", "conv2d", "conv2d", _conv_flops, None),
    ("repro.nn.layers", "im2col", "im2col", None, None),
    ("repro.nn.layers", "fully_connected", "fully_connected", _fc_flops, None),
    ("repro.nn.sparse", "partitioned_gemm", "partitioned_gemm", _gemm_flops, None),
    ("repro.nn.sparse", "partitioned_matvec", "partitioned_matvec", _matvec_flops, None),
    ("repro.nn.inference", "run_forward", "run_forward", None, None),
    ("repro.nn.engine", "run_forward", "run_forward", None, None),
    ("repro.nn.calibration", "run_forward", "run_forward", None, None),
    ("repro.serve.models", "run_forward", "run_forward", None, None),
    # backends: per-layer simulators, in every module that calls them.
    ("repro.baseline.timing", "baseline_conv_timing", "baseline_conv_timing", _layer_cycles, None),
    ("repro.core.timing", "baseline_conv_timing", "baseline_conv_timing", _layer_cycles, None),
    ("repro.baseline.gated", "baseline_conv_timing", "baseline_conv_timing", _layer_cycles, None),
    ("repro.backends.cnv2", "baseline_conv_timing", "baseline_conv_timing", _layer_cycles, None),
    ("repro.core.timing", "cnv_conv_timing", "cnv_conv_timing", _layer_cycles, None),
    ("repro.baseline.gated", "gated_conv_timing", "gated_conv_timing", _layer_cycles, None),
    ("repro.backends.cnv2", "cnv2_conv_timing", "cnv2_conv_timing", _layer_cycles, None),
    ("repro.backends.scnn", "scnn_conv_timing", "scnn_conv_timing", _layer_cycles, None),
    # Whole-network simulation: the registry's dispatch, plus the two
    # network simulators imported by name where callers bypass it.
    ("repro.backends.registry:Backend", "network_timing", "network_timing", None, None),
    ("repro.serve.models", "baseline_network_timing", "network_timing", None, None),
    ("repro.serve.models", "cnv_network_timing", "network_timing", None, None),
    ("repro.experiments.context", "baseline_network_timing", "network_timing", None, None),
    ("repro.experiments.context", "cnv_network_timing", "network_timing", None, None),
    ("repro.experiments.fig14_pruning", "baseline_network_timing", "network_timing", None, None),
    ("repro.experiments.fig14_pruning", "cnv_network_timing", "network_timing", None, None),
    ("repro.experiments.context", "prune_conv_weights", "prune_conv_weights", None, None),
    # engine: the incremental forward engine's two entry points.
    ("repro.nn.engine:IncrementalForwardEngine", "run", "engine.run", None, None),
    ("repro.nn.engine:IncrementalForwardEngine", "run_stack", "engine.run_stack", None, None),
    # serve: the batch executor as the service binds it.
    ("repro.serve.service", "execute_batch", "execute_batch", _batch_rids, _batch_rid),
    # router: the sharded front end's submission coroutine.
    ("repro.serve.router:ShardedService", "submit", "router.submit", None, _request_rid),
    # experiments: calibration (imported by name into the context) and
    # the artifact cache.
    ("repro.experiments.context", "init_weights", "init_weights", None, None),
    ("repro.experiments.context", "calibrate_network", "calibrate_network", None, None),
    ("repro.experiments.manifest:ArtifactCache", "load", "artifact.load", _artifact_info, None),
    ("repro.experiments.manifest:ArtifactCache", "store", "artifact.store", _artifact_info, None),
]

#: Simulated-cycle attribution: top-level conv-timing span -> backend.
BACKEND_OF_SPAN = {
    "baseline_conv_timing": "baseline",
    "gated_conv_timing": "gated",
    "cnv_conv_timing": "cnv",
    "cnv2_conv_timing": "cnv2",
    "scnn_conv_timing": "scnn",
}


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans from wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        self.phase = "setup"

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn, name, info_fn, rid_fn):
        spans, ids, tracer = self.spans, self._ids, self

        def begin(args, kwargs):
            parent, parent_rid = _CURRENT.get()
            sid = next(ids)
            rid = rid_fn(args, kwargs) if rid_fn is not None else parent_rid
            return sid, parent, rid, _CURRENT.set((sid, rid))

        def end(sid, parent, rid, start, result, args, kwargs):
            stop = time.perf_counter()
            info = (
                info_fn(args, kwargs, result)
                if info_fn is not None and result is not None
                else None
            )
            spans.append((
                sid, parent, name, start, stop, rid,
                threading.get_ident(), tracer.phase, info,
            ))

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                sid, parent, rid, token = begin(args, kwargs)
                start, result = time.perf_counter(), None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    _CURRENT.reset(token)
                    end(sid, parent, rid, start, result, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                sid, parent, rid, token = begin(args, kwargs)
                start, result = time.perf_counter(), None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    _CURRENT.reset(token)
                    end(sid, parent, rid, start, result, args, kwargs)

        return functools.wraps(fn)(wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`restore` (originals kept)."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every binding in :data:`LAYER_BINDINGS`."""
        for path, attr, name, info_fn, rid_fn in LAYER_BINDINGS:
            owner = _resolve(path)
            self.patch(owner, attr, self._wrap(getattr(owner, attr), name, info_fn, rid_fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # forked workers (serving shards)
    # ------------------------------------------------------------------
    def shard_entry(self, run_shard, out_dir: Path):
        """A process target that records the child's spans to a file.

        Forked shards inherit the installed wrappers; their spans live
        in the child's memory, so the entry point writes them out when
        the shard returns from its serve loop.
        """
        tracer = self

        def entry(spec):
            tracer.spans.clear()
            try:
                run_shard(spec)
            finally:
                tracer.dump(out_dir / f"spans-shard{spec.index}-{os.getpid()}.json")

        return entry

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        pid = os.getpid()
        return [
            {
                "id": f"{pid}:{sid}",
                "parent": f"{pid}:{parent}" if parent else None,
                "name": name, "start": start, "end": end, "rid": rid,
                "pid": pid, "tid": tid, "phase": phase, "info": info,
            }
            for sid, parent, name, start, end, rid, tid, phase, info in self.spans
        ]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records()))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cursor = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> self seconds (duration minus the union of its children)."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = {}
    for span in spans:
        inner = [
            (max(s, span["start"]), min(e, span["end"]))
            for s, e in children.get(span["id"], [])
        ]
        covered = _union_length([iv for iv in inner if iv[1] > iv[0]])
        out[span["id"]] = max(0.0, span["end"] - span["start"] - covered)
    return out


def coverage(spans: list[dict], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by at least one span."""
    if end <= start:
        return 0.0
    clipped = [
        (max(s["start"], start), min(s["end"], end)) for s in spans
    ]
    return _union_length([iv for iv in clipped if iv[1] > iv[0]]) / (end - start)
