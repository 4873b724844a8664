"""The four benchmark workloads.

Each workload takes a :class:`Run` (seed, measured seconds, optional
tracer, scratch directory) and returns a :class:`Result` holding the
raw measurements; :mod:`report` turns those into metrics.  Every
workload builds its own inputs from the seed, works on fresh temporary
artifact caches, and checks the program's outputs outside the timed
phase.
"""

from __future__ import annotations

import asyncio
import ctypes
import dataclasses
import gc
import itertools
import os
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro import obs
from repro.backends import get_backend, iter_backends
from repro.core.stats import structural_speedup_bound
from repro.experiments.config import PaperConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.fig9_speedup import PAPER_SPEEDUPS
from repro.experiments.runner import run_all_with_manifest
from repro.hw.config import PAPER_CONFIG
from repro.nn.engine import slice_result
from repro.nn.shm import process_pss_kb
from repro.serve import router as router_mod
from repro.serve.loadgen import build_sweep_requests
from repro.serve.models import direct_response
from repro.serve.requests import ServeRequest, canonical_response_bytes
from repro.serve.router import ShardedService, ShardTierConfig
from repro.serve.service import InferenceService, ServeConfig

from drive import closed_loop, open_loop, stolen_s
from sizing import DESIGN_SWEEP, EXPERIMENT_COLD, SERVE_MIXED, SERVE_SWEEP, SETUP_REPEATS

NPROC = os.cpu_count() or 1
#: glibc's ``malloc_trim``; None with another C library.
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)

KINDS = ("classify", "zero_fraction", "timing")
TIMING_BACKENDS = (None, "cnv", "cnv2", "scnn")
#: Requests after which :func:`mixed_requests` has paired every kind,
#: network and timing backend.
MIXED_CYCLE = len(KINDS) * len(SERVE_MIXED["networks"]) * len(TIMING_BACKENDS)


@dataclass
class Run:
    seed: int
    seconds: float
    scratch: Path
    tracer: object = None

    def fresh_cache(self) -> Path:
        self.scratch.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name


@dataclass
class Result:
    """Raw measurements of one workload run.

    Timed work is split into consecutive windows (time slices of the
    serving loops, passes of the design sweep), and each window records
    the CPU time the hypervisor stole from the benchmark during it.
    Latencies and throughput are pooled over the quieter half of the
    windows (see :func:`quiet`), so a burst of steal from other tenants
    of the host moves the windows it hit rather than the whole run.
    """

    setup_s: list[float]
    #: Operation latencies in ms, pooled over the quieter windows.
    latencies: list[float]
    throughput_per_s: float
    mem_mb: float
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    #: Workload-specific named metrics: name -> (value, unit).
    named: dict = field(default_factory=dict)
    #: Inputs to the traced run's per-layer metrics.
    layer: dict = field(default_factory=dict)
    #: perf_counter window of the whole workload (setup to last check).
    window: tuple = (0.0, 0.0)


def _counters() -> dict:
    return dict(obs.get_metrics().snapshot()["counters"])


def _delta(before: dict, after: dict) -> dict:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def _pss_mb(pids) -> float:
    """Summed PSS after a collection and a ``malloc_trim``, so neither
    garbage awaiting gc nor heap the allocator kept after it was freed
    is counted (in this process; shards are not trimmed).  Retained heap
    made experiment-cold read 240-300 MB for 64 MB of live memory."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    return sum(process_pss_kb(pid) or 0 for pid in pids) / 1024.0


def quiet(stolen: list[float]) -> list[int]:
    """Indices of the windows whose stolen CPU time is at most the
    median window's: the quieter half, or every window where the host
    reports no steal."""
    cut = float(np.median(stolen))
    return [index for index, value in enumerate(stolen) if value <= cut]


def steal_pct(stolen: list[float], seconds: float) -> tuple:
    return (100.0 * sum(stolen) / seconds, "%")


def _windows(items, key, start: float, end: float, count: int) -> list[list]:
    """Split ``items`` into ``count`` equal time slices of [start, end) by
    ``key``; items outside the interval are dropped."""
    width = (end - start) / count
    out = [[] for _ in range(count)]
    for item in items:
        slot = int((key(item) - start) // width)
        if 0 <= slot < count:
            out[slot].append(item)
    return out


def _check_canonical(repo, outcomes, errors: list[str]) -> None:
    """Reply bytes must equal the unbatched reference path's bytes."""
    for outcome in outcomes:
        expected = canonical_response_bytes(direct_response(repo, outcome.request))
        if canonical_response_bytes(outcome.response) != expected:
            errors.append(f"reply {outcome.request.id} differs from direct_response")


def _serve_named(phase_open, phase_closed, windows: int) -> tuple:
    outcomes = phase_open.outcomes + phase_closed.outcomes
    failed = sum(1 for o in outcomes if not o.ok)
    lateness = [(o.sent - o.due) * 1e3 for o in phase_open.outcomes]
    start, end = phase_closed.start, phase_closed.start + phase_closed.seconds
    replies = sorted(phase_closed.ok, key=lambda o: o.done)
    slices = _windows(replies, lambda o: o.done, start, end, windows)
    slices = [slices[i] for i in quiet(phase_closed.stolen) if len(slices[i]) > 1]
    # Completions per second between each quiet window's first and last reply.
    capacity = sum(len(w) - 1 for w in slices) / sum(w[-1].done - w[0].done for w in slices)
    named = {
        "capacity_rps": (capacity, "1/s"),
        "steal_pct": steal_pct(
            phase_open.stolen + phase_closed.stolen, phase_open.seconds + phase_closed.seconds,
        ),
        "failed_frac": (failed / max(1, len(outcomes)), "ratio"),
        "open_loop_requests": (len(phase_open.outcomes), "count"),
        "closed_loop_requests": (len(phase_closed.outcomes), "count"),
        "loadgen_lateness_p95_ms": (percentile(lateness, 95), "ms"),
    }
    return outcomes, failed, capacity, named, lateness


def _quiet_latencies(phase, windows: int) -> list[float]:
    start = phase.start
    slices = _windows(phase.outcomes, lambda o: o.due, start, start + phase.seconds, windows)
    return [o.latency_ms for i in quiet(phase.stolen) for o in slices[i]]


def _serve_layer(outcomes, sent_log, lateness) -> dict:
    return {
        "sent": dict(sent_log),
        "lateness_ms": lateness,
        "router_overhead_ms": [
            (o.done - o.sent) * 1e3 - o.response.latency_ms
            for o in outcomes
            if o.ok and o.response.shard is not None
        ],
        "shard_requests": [o.response.shard for o in outcomes if o.response.shard is not None],
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def mixed_requests(seed: int):
    """Distinct inputs; kinds and networks cycle, and timing requests
    cycle the backends with a shift every 12 requests, so every backend
    meets every network and the first 12 requests name all four."""
    rng = np.random.default_rng(seed)
    nets = SERVE_MIXED["networks"]
    for index in itertools.count():
        kind = KINDS[index % len(KINDS)]
        backend = None
        if kind == "timing":
            backend = TIMING_BACKENDS[(index // 3 + index // 12) % len(TIMING_BACKENDS)]
        yield ServeRequest(
            id=f"m{index:06d}",
            kind=kind,
            network=nets[index % len(nets)],
            image_seed=int(rng.integers(0, 2**31)),
            backend=backend,
        )


async def _start_mixed(run: Run):
    """Build, start and warm an in-process service; seconds to ready."""
    spec = SERVE_MIXED
    start = time.perf_counter()
    service = InferenceService(
        ServeConfig(
            scale=spec["scale"], networks=spec["networks"], workers=spec["workers"],
        ),
        cache_dir=run.fresh_cache(),
    )
    await service.start()
    warm = [
        ServeRequest(id=f"warm-{net}", kind="timing", network=net, backend="scnn")
        for net in spec["networks"]
    ]
    replies = await asyncio.gather(*(service.submit(r) for r in warm))
    elapsed = time.perf_counter() - start
    bad = [r.id for r in replies if r.status != "ok"]
    if bad:
        raise RuntimeError(f"warm-up requests failed: {bad}")
    return service, elapsed


async def _serve_mixed(run: Run) -> Result:
    spec = SERVE_MIXED
    t0 = time.perf_counter()
    service, elapsed = await _start_mixed(run)
    setups = [elapsed]
    # Warm-up outside timing: one full cycle of kind x network x backend.
    # Without it the first request of each kind and network ran up to
    # twice as slow as later ones and set the run's p95.
    feed, sent_log = mixed_requests(run.seed), {}
    warm = [next(feed) for _ in range(MIXED_CYCLE)]
    for index in range(0, len(warm), NPROC):
        replies = await asyncio.gather(*(service.submit(r) for r in warm[index:index + NPROC]))
        if any(r.status != "ok" for r in replies):
            raise RuntimeError("serve-mixed warm-up requests failed")
    run.phase("timed")
    before = _counters()
    open_s = run.seconds * spec["open_share"]
    phase_open = await open_loop(service, feed, spec["rate_rps"], open_s, sent_log, spec["windows"])
    phase_closed = await closed_loop(
        service, feed, NPROC, run.seconds - open_s, sent_log, spec["windows"],
    )
    mem = _pss_mb([os.getpid()])
    run.phase("reference")
    outcomes, failed, capacity, named, lateness = _serve_named(phase_open, phase_closed, spec["windows"])
    errors: list[str] = []
    _check_canonical(service.repo, [o for o in phase_open.outcomes[: spec["sample"]] if o.ok], errors)
    await service.stop()
    layer = _serve_layer(outcomes, sent_log, lateness)
    layer["counters"] = _delta(before, _counters())
    del service
    run.phase("setup")
    for _ in range(SETUP_REPEATS - 1):
        extra, elapsed = await _start_mixed(run)
        setups.append(elapsed)
        await extra.stop()
    return Result(
        setup_s=setups,
        latencies=_quiet_latencies(phase_open, spec["windows"]),
        throughput_per_s=capacity,
        mem_mb=mem,
        attempted=len(outcomes),
        failed=failed,
        errors=errors,
        named=named,
        layer=layer,
        window=(t0, time.perf_counter()),
    )


def serve_mixed(run: Run) -> Result:
    return asyncio.run(_serve_mixed(run))


# ----------------------------------------------------------------------
# serve-sweep
# ----------------------------------------------------------------------
def sweep_requests(seed: int, count: int):
    """Repeat probe traffic over K (network, threshold) groups.

    The seed picks the threshold ladder's base value and where in the
    group cycle the stream starts.  Timing probes cycle the backends,
    shifted once per pass over the groups, so that ``count`` = groups x
    kinds x backends requests time every group on every backend.
    """
    spec = SERVE_SWEEP
    rng = np.random.default_rng(seed)
    base = float(rng.choice([0.01, 0.015, 0.02, 0.025, 0.03]))
    groups = len(spec["networks"]) * spec["variants_per_network"]
    offset = int(rng.integers(0, groups))
    layout = build_sweep_requests(
        count + offset, list(spec["networks"]),
        variants_per_network=spec["variants_per_network"],
        base_threshold=base,
    )[offset:]
    out = []
    for index, request in enumerate(layout):
        backend = None
        if request.kind == "timing":
            shift = index // (groups * len(KINDS))
            backend = TIMING_BACKENDS[(index // len(KINDS) + shift) % len(TIMING_BACKENDS)]
        out.append(dataclasses.replace(request, id=f"s{index:06d}", backend=backend))
    return out


def _sweep_service(run: Run) -> ShardedService:
    spec = SERVE_SWEEP
    return ShardedService(
        ServeConfig(scale=spec["scale"], networks=spec["networks"], workers=1),
        ShardTierConfig(shards=spec["shards"], engine_cache_mb=spec["engine_cache_mb"]),
        cache_dir=run.fresh_cache(),
    )


async def _start_sweep(run: Run, probe: ServeRequest):
    start = time.perf_counter()
    service = _sweep_service(run)
    await service.start()
    reply = await service.submit(probe)
    elapsed = time.perf_counter() - start
    if reply.status != "ok":
        await service.stop()
        raise RuntimeError(f"sweep set-up probe failed: {reply.payload}")
    return service, elapsed


async def _serve_sweep(run: Run) -> Result:
    spec = SERVE_SWEEP
    t0 = time.perf_counter()
    groups = len(spec["networks"]) * spec["variants_per_network"]
    cycle = groups * len(KINDS) * len(TIMING_BACKENDS)
    pool = sweep_requests(run.seed, cycle)
    service, elapsed = await _start_sweep(run, dataclasses.replace(pool[0], id="setup0"))
    setups = [elapsed]
    try:
        # Warm every group, kind and backend outside timing.
        warm = await asyncio.gather(*(
            service.submit(dataclasses.replace(r, id=f"w{r.id}")) for r in pool
        ))
        if any(r.status != "ok" for r in warm):
            raise RuntimeError("sweep warm-up requests failed")
        # Shards ship their counters on request; pull what set-up and
        # warm-up produced so the delta below covers timing and checks.
        await service.collect_obs()
        before = _counters()
        run.phase("timed")
        feed = (
            dataclasses.replace(pool[i % cycle], id=f"t{i:06d}") for i in itertools.count()
        )
        sent_log: dict = {}
        open_s = run.seconds * spec["open_share"]
        phase_open = await open_loop(service, feed, spec["rate_rps"], open_s, sent_log, spec["windows"])
        phase_closed = await closed_loop(
            service, feed, NPROC, run.seconds - open_s, sent_log, spec["windows"],
        )
        mem = _pss_mb([os.getpid(), *service.shard_pids().values()])
        run.phase("reference")
        outcomes, failed, capacity, named, lateness = _serve_named(phase_open, phase_closed, spec["windows"])
        errors: list[str] = []
        _check_canonical(service.repo, [o for o in phase_open.outcomes[: spec["sample"]] if o.ok], errors)
    finally:
        await service.stop()
    layer = _serve_layer(outcomes, sent_log, lateness)
    layer["counters"] = _delta(before, _counters())
    del service
    run.phase("setup")
    for repeat in range(1, SETUP_REPEATS):
        extra, elapsed = await _start_sweep(run, dataclasses.replace(pool[0], id=f"setup{repeat}"))
        setups.append(elapsed)
        await extra.stop()
    return Result(
        setup_s=setups,
        latencies=_quiet_latencies(phase_open, spec["windows"]),
        throughput_per_s=capacity,
        mem_mb=mem,
        attempted=len(outcomes),
        failed=failed,
        errors=errors,
        named=named,
        layer=layer,
        window=(t0, time.perf_counter()),
    )


def serve_sweep(run: Run) -> Result:
    if run.tracer is not None:
        run.tracer.patch(
            router_mod, "run_shard",
            run.tracer.shard_entry(router_mod.run_shard, run.scratch / "spans"),
        )
    result = asyncio.run(_serve_sweep(run))
    # Publishing the shared weight arena started multiprocessing's
    # resource tracker; stop it and wait for it, like the shards.
    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()
    return result


# ----------------------------------------------------------------------
# experiment-cold
# ----------------------------------------------------------------------
def _experiment_config(run: Run) -> PaperConfig:
    spec = EXPERIMENT_COLD
    return PaperConfig(
        scale=spec["scale"], seed=run.seed, networks=list(spec["networks"]),
        cache_dir=run.fresh_cache(), smallcnn=False,
    )


def fig9_error_pct(results) -> float:
    """Mean |simulated CNV speed-up / paper value - 1| over networks, in %."""
    fig9 = next(r for r in results if r.experiment == "fig9")
    errors = [
        abs(row["CNV"] / PAPER_SPEEDUPS[row["network"]] - 1.0)
        for row in fig9.rows
        if row["network"] != "average"
    ]
    return 100.0 * float(np.mean(errors))


def experiment_cold(run: Run) -> Result:
    spec = EXPERIMENT_COLD
    t0 = time.perf_counter()
    latencies, units, failed, errors, fig9_err, mem = [], 0, 0, [], None, None
    before = _counters()
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < run.seconds:
        # The first cold run is the deterministic reference unit.
        run.phase("timed" if latencies else "reference")
        call = time.perf_counter()
        results, manifest = run_all_with_manifest(
            _experiment_config(run), only=spec["only"], verbose=False, jobs=1,
        )
        latencies.append((time.perf_counter() - call) * 1e3)
        units += len(manifest.units)
        bad = [u.unit for u in manifest.units if u.status != "ok"]
        failed += len(bad)
        if bad:
            errors.append(f"experiment units failed: {bad}")
        if fig9_err is None:
            fig9_err = fig9_error_pct(results)
        if mem is None:
            # After the first run, which does the same work on every run of
            # the benchmark; how many runs fit in --seconds varies.  The
            # pause is not timed.
            paused = time.perf_counter()
            mem = _pss_mb([os.getpid()])
            start += time.perf_counter() - paused
        del results, manifest
    wall = time.perf_counter() - start
    counters = _delta(before, _counters())
    # Set-up: everything a cold experiment must build before its first
    # figure, i.e. the calibrated networks on a fresh artifact cache.
    run.phase("setup")
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ctx = ExperimentContext(_experiment_config(run))
        for name in spec["networks"]:
            ctx.network_ctx(name)
        setups.append(time.perf_counter() - start)
        del ctx
    return Result(
        setup_s=setups,
        latencies=latencies,
        throughput_per_s=units / wall,
        mem_mb=mem,
        attempted=units,
        failed=failed,
        errors=errors,
        named={
            "experiment_s": (float(np.median(latencies)) / 1e3, "s"),
            "fig9_err_pct": (fig9_err, "%"),
            "experiments_run": (len(latencies), "count"),
        },
        layer={"counters": counters},
        window=(t0, time.perf_counter()),
    )


# ----------------------------------------------------------------------
# design-sweep
# ----------------------------------------------------------------------
def _design_inputs(run: Run):
    """Calibrated networks, their recorded conv inputs and pruned weights."""
    spec = DESIGN_SWEEP
    ctx = ExperimentContext(PaperConfig(
        scale=spec["scale"], seed=run.seed, networks=list(spec["networks"]),
        cache_dir=run.fresh_cache(),
    ))
    inputs = {}
    for name in spec["networks"]:
        network = ctx.network_ctx(name).network
        result = ctx.engine(name).run(collect_conv_inputs=True)
        images = [
            slice_result(result, index).conv_inputs
            for index in range(ctx.engine(name).batch)
        ]
        pruned = ctx.pruned_conv_weights(name)
        store = ctx.network_ctx(name).store
        dense = {layer: store.weights[layer] for layer in pruned}
        inputs[name] = (network, images, pruned, dense)
    return inputs


def _imbalanced(network, layer: str, conv_inputs, config) -> bool:
    """Whether the layer shape leaves CNV lanes structurally idle.

    EXPERIMENTS.md documents that brick-interleaved lane assignment makes
    CNV slower than the dense baseline when a window's brick count does
    not fill the lanes (nin's 96-deep 1x1 layers: 6 bricks on 16 lanes);
    :func:`repro.core.stats.structural_speedup_bound` is below 1 there.
    """
    spec = network.layers[network.index_of(layer)]
    depth = conv_inputs[layer].shape[0] // spec.groups
    bricks = -(-depth // config.brick_size)
    return structural_speedup_bound(spec.kernel, bricks, config.neuron_lanes) < 1.0


def _design_check(inputs, ladder, first_pass, errors: list[str]) -> int:
    """Per layer: cnv <= baseline, cnv2 <= cnv, cnv2 == cnv on dense weights.

    ``first_pass`` maps (backend, network, config index, image index) to
    the timed first pass's cycles per layer.  ``cnv <= baseline`` is
    enforced on every layer whose shape fills the lanes; layers with
    documented structural lane imbalance are counted instead, and the
    count is returned so the report keeps it visible.
    """
    cnv2 = get_backend("cnv2")
    slower_imbalanced = 0
    for name, (network, images, _, dense) in inputs.items():
        for c, config in enumerate(ladder):
            for i, conv_inputs in enumerate(images):
                base, cnv, sparse = (first_pass[(b, name, c, i)] for b in ("baseline", "cnv", "cnv2"))
                on_dense = cnv2.network_timing(network, conv_inputs, config, dense).cycles_by_layer()
                for layer in conv_inputs:
                    where = f"{name}/{layer} brick {config.brick_size} empty {config.empty_brick_cycles}"
                    if cnv[layer] > base[layer]:
                        if _imbalanced(network, layer, conv_inputs, config):
                            slower_imbalanced += 1
                        else:
                            errors.append(f"{where}: cnv {cnv[layer]} > baseline {base[layer]}")
                    if sparse[layer] > cnv[layer]:
                        errors.append(f"{where}: cnv2 {sparse[layer]} > cnv {cnv[layer]}")
                    if on_dense[layer] != cnv[layer]:
                        errors.append(f"{where}: cnv2 on dense weights {on_dense[layer]} != cnv {cnv[layer]}")
    return slower_imbalanced


def design_sweep(run: Run) -> Result:
    spec = DESIGN_SWEEP
    t0 = time.perf_counter()
    inputs = _design_inputs(run)
    setups = [time.perf_counter() - t0]
    ladder = [PAPER_CONFIG.with_(**step) for step in spec["ladder"]]
    plan = [
        (backend, name, c, i)
        for backend in iter_backends()
        for name in spec["networks"]
        for c in range(len(ladder))
        for i in range(len(inputs[name][1]))
    ]
    latencies, passes_done, stolen, first_pass = [], [], [], {}
    before = _counters()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < run.seconds:
        latencies.append([])
        pass_start, pass_layers, pass_stolen = time.perf_counter(), 0, stolen_s()
        # The first pass is the deterministic reference unit: its cycles
        # feed the checks and the traced run's per-backend cycle counts.
        run.phase("reference" if passes == 0 else "timed")
        for backend, name, c, i in plan:
            network, images, pruned, _ = inputs[name]
            weights = pruned if backend.needs_weights else None
            call = time.perf_counter()
            timing = backend.network_timing(network, images[i], ladder[c], weights)
            latencies[-1].append((time.perf_counter() - call) * 1e3)
            pass_layers += len(images[i])
            if passes == 0:
                first_pass[(backend.name, name, c, i)] = timing.cycles_by_layer()
        passes_done.append((pass_layers, time.perf_counter() - pass_start))
        stolen.append(stolen_s() - pass_stolen)
        passes += 1
    wall = time.perf_counter() - start
    kept = quiet(stolen)
    rate = sum(passes_done[i][0] for i in kept) / sum(passes_done[i][1] for i in kept)
    mem = _pss_mb([os.getpid()])
    counters = _delta(before, _counters())
    run.phase("check")
    errors: list[str] = []
    slower = _design_check(inputs, ladder, first_pass, errors)
    plan = inputs = None  # release this set-up's arrays before the next
    run.phase("setup")
    for _ in range(SETUP_REPEATS - 1):
        start = time.perf_counter()
        _design_inputs(run)
        setups.append(time.perf_counter() - start)
    named = {
        "sim_layers_per_s": (rate, "1/s"),
        "cnv_slower_imbalanced_layers": (slower, "count"),
        "sweep_passes": (passes, "count"),
        "steal_pct": steal_pct(stolen, wall),
    }
    for (backend, *_), cycles in first_pass.items():
        key = f"cycles_per_pass.{backend}"
        named[key] = (named.get(key, (0, ""))[0] + sum(cycles.values()), "count")
    return Result(
        setup_s=setups,
        latencies=[ms for i in kept for ms in latencies[i]],
        throughput_per_s=rate,
        mem_mb=mem,
        attempted=sum(len(window) for window in latencies),
        failed=0,
        errors=errors,
        named=named,
        layer={"counters": counters},
        window=(t0, time.perf_counter()),
    )


WORKLOADS = {
    "serve-mixed": serve_mixed,
    "serve-sweep": serve_sweep,
    "experiment-cold": experiment_cold,
    "design-sweep": design_sweep,
}
