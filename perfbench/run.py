"""The repository benchmark: one command, four workloads.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload once untraced and once with every layer
wrapped (see ``tracer.py``), and reports per-layer metrics, span
coverage of wall time and the tracing overhead between the two runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check still prints that line (with ``"correct": false``)
and exits 1.  Results with their ``env`` block, and the traced run's
spans, are written under ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from sizing import SIZING

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: AF_UNIX socket paths are limited to 107 bytes; shard sockets live
#: under TMPDIR, so a deep checkout keeps the system temp directory.
_SOCKET_PATH_ROOM = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SIZING, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metrics(title: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {title:<9} {name:<36} {value:>14.4f} {unit}")


def _check_names(reported: dict, section: str) -> None:
    """The reported metrics must be exactly those BENCHMARK.json lists."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return
    listed = [m["name"] for m in json.loads(spec.read_text())[section]]
    if listed != list(reported):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {section}: "
            f"{sorted(set(listed) ^ set(reported))}"
        )


def _run_one(args) -> int:
    spec = SIZING[args.workload]
    blas_threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas_threads)
    # One CPU for the process, its threads and forked shards: on a shared
    # host, wake-ups across CPUs halved serve-sweep capacity in busy
    # periods and made it the least steady workload.  ``idlespin`` keeps
    # that CPU from halting between requests.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    if len(str(scratch)) <= _SOCKET_PATH_ROOM:
        os.environ["TMPDIR"] = str(scratch)
    sys.path.insert(0, str(SRC))

    import envinfo
    import idlespin
    import report
    from tracer import Tracer
    from workloads import WORKLOADS, Run

    env = envinfo.env_block(ROOT, blas_threads, spec["scale"], args.seed)
    env["idle_spinner"] = "SCHED_IDLE on cpus_used"
    workload = WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        with idlespin.running():
            untraced = workload(Run(args.seed, args.seconds, scratch / "untraced"))
            if args.trace:
                tracer = Tracer()
                with tracer.installed():
                    traced = workload(Run(args.seed, args.seconds, scratch / "traced", tracer))
        results = {"untraced": untraced}
        metrics = report.end_to_end(untraced)
        if args.trace:
            spans = tracer.records()
            for path in sorted((scratch / "traced" / "spans").glob("*.json")):
                spans.extend(json.loads(path.read_text()))
            results["traced"] = traced
            layer_metrics = report.per_layer(traced, spans, untraced)
            (OUT / f"{args.workload}-seed{args.seed}.spans.json").write_text(json.dumps(spans))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    _print_metrics("e2e", metrics)
    _print_metrics("named", untraced.named)
    if args.trace:
        _print_metrics("layer", layer_metrics)
    errors = [e for r in results.values() for e in r.errors]
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    print(f"  checks: {'ok' if not errors else f'{len(errors)} failed'}")
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    correct = not errors
    reported = layer_metrics if args.trace else metrics
    _check_names(reported, "per_layer" if args.trace else "end_to_end")
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": env, "correct": correct, "errors": errors,
        "end_to_end": metrics, "named": untraced.named,
        "per_layer": layer_metrics if args.trace else None,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in SIZING:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:  # the workload crashed before its result line
            result = None
        if proc.returncode != 0 or result is None:
            status = 1
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    started = time.perf_counter()
    status = _run_all(args) if args.workload == "all" else _run_one(args)
    print(f"total {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
