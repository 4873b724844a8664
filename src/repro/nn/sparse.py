"""Sparse-aware GEMM/matvec kernels exploiting ZFNAf-style zero skipping.

The paper's premise is that ineffectual (zero) neurons need not be
multiplied; the numpy golden model nevertheless multiplied every one of
them, so the simulated Fig. 9 speedup never appeared in wall-clock
seconds.  This module makes the skip real while preserving the repo's
bit-identity contracts.

Canonical partitioned kernel
----------------------------
OpenBLAS accumulates in a shape-dependent order, so naively compressing
the zero rows/columns out of a GEMM changes the last ulp of every output
— which would break the golden, engine-cache and serving differential
guarantees.  Instead, *every* mode runs the same canonical computation
derived from the data:

1. Partition the im2col patch matrix's k-columns into *live* (some
   non-zero entry) and *dead* (entirely zero) sets, and its rows
   (windows) likewise.
2. Compute the live x live block with one GEMM.  Dead columns multiply
   exact zeros, so their contribution is exactly ``±0.0``; dead rows
   produce exactly-``±0.0`` outputs.
3. ``dense`` mode honestly multiplies the dead parts too (the DaDianNao
   baseline burning cycles on ineffectual neurons); ``sparse`` mode
   skips them and zero-fills.  An unconditional bias add in the caller
   normalizes the only possible difference, the sign of zero.

Because both modes issue the *identical* live-block BLAS call on the
identical buffer, their outputs are byte-identical — the mode changes
speed, never bits.  When no dead columns exist the kernel degenerates to
the single full GEMM the golden model always used.  The per-layer choice
is a density-threshold heuristic (``auto``), overridable per process via
the ``CNVLUTIN_SPARSE`` environment variable or per call site.

Weight transposes
-----------------
The partition gathers rows of the *transposed* weight matrix ``(K, N)``
— contiguous row gathers instead of strided column gathers of the
``(N, K)`` layout, which profiling showed dominating small-``M`` layers.
Transposes are derived once per weight array and group count through
the shared :mod:`repro.weight_memo` (the same memo holds the ABFT
checksums and the weight-sparse backends' weight state), whose entries
die with their array.

Fault injection
---------------
The sparse path exposes a ``sparse:gemm`` fault site (``CNVLUTIN_FAULTS``
grammar, see :mod:`repro.reliability.faults`).  An injected fault makes
the kernel fall back to the dense canonical path — byte-identical output,
one ``engine.sparse.fallbacks`` counter — so chaos runs complete with
correct results while the injection remains visible in the manifest.

Integrity (ABFT) verification
-----------------------------
Every kernel return path runs through an epilogue that (1) fires the
``mem:activations`` fault site — a ``corrupt`` rule perturbs one element
of the freshly computed product in place, modelling a bad store of a
layer output — and then (2) verifies the Huang-Abraham column-checksum
invariant under the ``CNVLUTIN_INTEGRITY`` policy (see
:mod:`repro.reliability.integrity`).  Verification is read-only, so a
verified run stays byte-identical to an unverified one; a violation
raises :class:`~repro.reliability.integrity.IntegrityError`, which the
serving retry policy treats like any transient failure — a recompute on
clean data heals it bit-exactly, a persistent failure escalates to the
shard quarantine path.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.reliability import integrity
from repro.reliability.faults import FaultInjector, InjectedFault
from repro.weight_memo import weight_memo

__all__ = [
    "MODES",
    "MODE_ENV",
    "CUTOFF_ENV",
    "DEFAULT_CUTOFF",
    "MEM_ACTIVATIONS_SITE",
    "GemmRecord",
    "resolve_mode",
    "resolve_cutoff",
    "transposed_weights",
    "partitioned_gemm",
    "partitioned_matvec",
    "pop_records",
    "summarize_records",
]

#: Valid values of the mode override.
MODES = ("auto", "always", "never")

#: Environment variable selecting the compute path (``auto|always|never``).
MODE_ENV = "CNVLUTIN_SPARSE"

#: Environment variable overriding the ``auto`` dead-fraction cutoff.
CUTOFF_ENV = "CNVLUTIN_SPARSE_CUTOFF"

#: Default ``auto`` cutoff: skip the dead part when at least this
#: fraction of the reduction dimension is dead.  Below it the savings do
#: not cover the gather overhead, so ``auto`` stays on the dense path.
DEFAULT_CUTOFF = 0.05


def resolve_mode(mode: str | None = None) -> str:
    """The effective mode: explicit argument, else ``CNVLUTIN_SPARSE``.

    Unknown values raise for explicit arguments but fall back to
    ``auto`` for the environment variable — a typo in the environment
    must never make a forward pass fail.
    """
    if mode is not None:
        if mode not in MODES:
            raise ValueError(f"sparse mode must be one of {MODES}, got {mode!r}")
        return mode
    env = os.environ.get(MODE_ENV, "auto").strip().lower()
    return env if env in MODES else "auto"


def resolve_cutoff() -> float:
    """The ``auto`` dead-fraction cutoff, from ``CNVLUTIN_SPARSE_CUTOFF``.

    A non-numeric, non-finite, or out-of-[0, 1] value falls back to the
    default *with a warning* (mirroring ``CNVLUTIN_ENGINE_CACHE_MB``):
    a bad environment variable must never make a forward pass raise,
    but it must not be silently swallowed either.
    """
    import math
    import warnings

    raw = os.environ.get(CUTOFF_ENV)
    if raw is None:
        return DEFAULT_CUTOFF
    try:
        cutoff = float(raw)
    except ValueError:
        cutoff = float("nan")
    if not math.isfinite(cutoff) or not 0.0 <= cutoff <= 1.0:
        warnings.warn(
            f"ignoring invalid {CUTOFF_ENV}={raw!r} "
            f"(expected a number in [0, 1]); using the default "
            f"{DEFAULT_CUTOFF:g}",
            RuntimeWarning,
            stacklevel=3,
        )
        return DEFAULT_CUTOFF
    return cutoff


# ----------------------------------------------------------------------
# per-GEMM decision records (consumed by the engine for span attributes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GemmRecord:
    """What one partitioned GEMM/matvec decided and skipped."""

    kind: str  # "conv" | "fc"
    path: str  # "sparse" | "dense"
    dead_fraction: float  # dead share of the reduction dimension
    dead_rows: float  # dead share of the output rows (conv windows)
    macs_total: int
    macs_skipped: int
    fallback: bool = False


_tls = threading.local()


def _records() -> list[GemmRecord]:
    records = getattr(_tls, "records", None)
    if records is None:
        records = _tls.records = []
    return records


#: Safety bound so standalone layer calls (tests, notebooks) that never
#: pop cannot grow the record list without limit.
_MAX_RECORDS = 256


def _record(record: GemmRecord) -> None:
    records = _records()
    records.append(record)
    if len(records) > _MAX_RECORDS:
        del records[: len(records) - _MAX_RECORDS]
    obs.counter_add(f"engine.sparse.gemms.{record.path}")
    obs.counter_add("engine.sparse.macs.total", record.macs_total)
    obs.counter_add("engine.sparse.macs.skipped", record.macs_skipped)
    if record.fallback:
        obs.counter_add("engine.sparse.fallbacks")


def pop_records() -> list[GemmRecord]:
    """Drain the calling thread's accumulated GEMM records."""
    records = _records()
    out = list(records)
    records.clear()
    return out


def summarize_records(records: list[GemmRecord]) -> dict:
    """Aggregate records of one layer into span-attribute material."""
    if not records:
        return {"sparse": "none", "dead_fraction": 0.0}
    paths = {record.path for record in records}
    path = paths.pop() if len(paths) == 1 else "mixed"
    total = sum(record.macs_total for record in records)
    skipped = sum(record.macs_skipped for record in records)
    dead = (
        sum(record.dead_fraction * record.macs_total for record in records) / total
        if total
        else 0.0
    )
    return {
        "sparse": path,
        "dead_fraction": round(dead, 4),
        "macs_total": total,
        "macs_skipped": skipped,
    }


# ----------------------------------------------------------------------
# memoised contiguous weight transposes
# ----------------------------------------------------------------------
def transposed_weights(weights: np.ndarray, groups: int) -> list[np.ndarray]:
    """Per-group contiguous ``(K, group_filters)`` transposed weights.

    ``weights`` is the 4-D conv filter bank ``(N, depth/groups, Fy, Fx)``.
    Memoised per array and ``groups`` (see :mod:`repro.weight_memo`).
    """
    def build(w: np.ndarray) -> list[np.ndarray]:
        group_filters = w.shape[0] // groups
        # copy(), not ascontiguousarray(): a 1-filter group's transpose
        # is already contiguous, and a view would pin ``w`` in the memo.
        return [
            w[g * group_filters : (g + 1) * group_filters]
            .reshape(group_filters, -1)
            .T.copy()
            for g in range(groups)
        ]

    return weight_memo(weights, ("transposed", groups), build)


# ----------------------------------------------------------------------
# fault-injection plumbing
# ----------------------------------------------------------------------
_injector_lock = threading.Lock()
_injector_spec: str | None = None
_injector: FaultInjector | None = None

#: The fault site the sparse GEMM path fires (``CNVLUTIN_FAULTS`` rules).
FAULT_SITE = "sparse:gemm"

#: Fault site modelling a corrupted layer-output store: a ``corrupt``
#: rule perturbs one element of the product before verification.
MEM_ACTIVATIONS_SITE = "mem:activations"


def _current_injector() -> FaultInjector:
    """A process-wide injector rebuilt whenever ``CNVLUTIN_FAULTS`` changes.

    Hit counters persist across calls (like the long-lived injectors of
    the pipeline and the serving layer) as long as the spec is stable.
    """
    global _injector_spec, _injector
    spec = os.environ.get("CNVLUTIN_FAULTS", "")
    with _injector_lock:
        if _injector is None or spec != _injector_spec:
            _injector = FaultInjector.from_env()
            _injector_spec = spec
        return _injector


def _sparse_path_survives_faults() -> bool:
    """Fire ``sparse:gemm``; False means fall back to the dense path."""
    injector = _current_injector()
    if not injector.enabled:
        return True
    try:
        injector.fire(FAULT_SITE)
    except InjectedFault:
        return False
    return True


def _maybe_corrupt_output(result: np.ndarray) -> None:
    """Fire ``mem:activations``; a ``corrupt`` action perturbs one element.

    The perturbation is deterministic (middle element, magnitude far
    above any ABFT tolerance) and happens *before* verification, so an
    active ``CNVLUTIN_INTEGRITY`` policy must catch it while an ``off``
    policy lets the corrupted block flow downstream — the difference the
    chaos suite measures.
    """
    injector = _current_injector()
    if not injector.enabled:
        return
    if injector.fire(MEM_ACTIVATIONS_SITE) != "corrupt":
        return
    flat = result.reshape(-1)
    index = flat.size // 2
    flat[index] += (1.0 + abs(float(flat[index]))) * 1e6


def _gemm_epilogue(
    cols: np.ndarray, wt: np.ndarray, result: np.ndarray, kind: str
) -> np.ndarray:
    """Shared exit of every :func:`partitioned_gemm` path.

    The checksum invariant holds for the *full* GEMM on every path: dead
    columns contribute exact zeros to both sides and dead rows sum to
    exact zero, so one verification covers the degenerate, row-live and
    row-partitioned variants alike.
    """
    _maybe_corrupt_output(result)
    if integrity.should_verify():
        integrity.verify_gemm(cols, wt, result, kind=kind)
    return result


def _matvec_epilogue(
    weights: np.ndarray, flat: np.ndarray, result: np.ndarray
) -> np.ndarray:
    """Shared exit of every :func:`partitioned_matvec` path."""
    _maybe_corrupt_output(result)
    if integrity.should_verify():
        integrity.verify_matvec(weights, flat, result)
    return result


# ----------------------------------------------------------------------
# the canonical partitioned kernels
# ----------------------------------------------------------------------
def _choose_skip(mode: str, dead_fraction: float, cutoff: float) -> bool:
    if mode == "always":
        return True
    if mode == "never":
        return False
    return dead_fraction >= cutoff


def partitioned_gemm(
    cols: np.ndarray,
    wt: np.ndarray,
    mode: str,
    cutoff: float,
    kind: str = "conv",
) -> np.ndarray:
    """Canonical partitioned ``cols @ w.T`` — see module docstring.

    Parameters
    ----------
    cols:
        The ``(M, K)`` patch matrix (one im2col'd image/group).
    wt:
        Contiguous ``(K, N)`` transposed weight matrix.
    mode, cutoff:
        Resolved mode and ``auto`` cutoff (see :func:`resolve_mode`).

    Returns the ``(M, N)`` product.  The caller must add the bias (or a
    literal ``0.0``) unconditionally afterwards: that add normalizes the
    sign of the exactly-zero entries the two paths produce differently.
    """
    rows, width = cols.shape
    filters = wt.shape[1]
    nonzero = cols != 0.0
    live_col_mask = nonzero.any(axis=0)
    dead_cols = int(width - np.count_nonzero(live_col_mask))
    macs_total = rows * width * filters
    if dead_cols == 0:
        # Degenerate case: nothing to skip; identical to the historical
        # single-GEMM path.
        _record(
            GemmRecord(
                kind=kind, path="dense", dead_fraction=0.0, dead_rows=0.0,
                macs_total=macs_total, macs_skipped=0,
            )
        )
        return _gemm_epilogue(cols, wt, cols @ wt, kind)

    dead_fraction = dead_cols / width
    skip = _choose_skip(mode, dead_fraction, cutoff)
    fallback = False
    if skip and not _sparse_path_survives_faults():
        skip, fallback = False, True

    live_cols = np.flatnonzero(live_col_mask)
    dead_col_idx = np.flatnonzero(~live_col_mask)
    live_row_mask = nonzero.any(axis=1)
    live_wt = wt[live_cols]

    if live_row_mask.all():
        live_block = cols[:, live_cols]
        product = live_block @ live_wt
        if skip:
            result = product
            skipped = dead_cols * rows * filters
        else:
            result = product + cols[:, dead_col_idx] @ wt[dead_col_idx]
            skipped = 0
        _record(
            GemmRecord(
                kind=kind, path="sparse" if skip else "dense",
                dead_fraction=dead_fraction, dead_rows=0.0,
                macs_total=macs_total, macs_skipped=skipped, fallback=fallback,
            )
        )
        return _gemm_epilogue(cols, wt, result, kind)

    # Some windows saw only zeros: partition the rows as well, so the
    # sparse path can skip them while both paths keep issuing the same
    # live-block BLAS call (a row *subset* GEMM is not bit-equal to the
    # same rows of a full GEMM on OpenBLAS).
    live_rows = np.flatnonzero(live_row_mask)
    dead_rows = np.flatnonzero(~live_row_mask)
    result = np.zeros((rows, filters), dtype=np.result_type(cols, wt))
    live_block = cols[np.ix_(live_rows, live_cols)]
    product = live_block @ live_wt
    if skip:
        result[live_rows] = product
        skipped = macs_total - live_rows.size * live_cols.size * filters
    else:
        dead_wt = wt[dead_col_idx]
        result[live_rows] = product + cols[np.ix_(live_rows, dead_col_idx)] @ dead_wt
        if dead_rows.size:
            # Dead windows: every input is exactly zero, so this computes
            # exact ±0.0 — the honest baseline work.
            result[dead_rows] = (
                cols[np.ix_(dead_rows, live_cols)] @ live_wt
                + cols[np.ix_(dead_rows, dead_col_idx)] @ dead_wt
            )
        skipped = 0
    _record(
        GemmRecord(
            kind=kind, path="sparse" if skip else "dense",
            dead_fraction=dead_fraction,
            dead_rows=dead_rows.size / rows,
            macs_total=macs_total, macs_skipped=skipped, fallback=fallback,
        )
    )
    return _gemm_epilogue(cols, wt, result, kind)


def partitioned_matvec(
    weights: np.ndarray,
    flat: np.ndarray,
    mode: str,
    cutoff: float,
) -> np.ndarray:
    """Canonical partitioned ``weights @ flat`` for FC layers.

    ``weights`` is the ``(out, in)`` FC matrix, ``flat`` the flattened
    input vector.  Zero input elements are the dead set (FC inputs are
    post-ReLU, so element-level sparsity is all there is — there is no
    window structure to exploit).  Orientation and partitioning follow
    the same canonical-call rules as :func:`partitioned_gemm`; with no
    zero inputs this is exactly the historical ``weights @ flat``.
    """
    width = flat.size
    out_features = weights.shape[0]
    live_mask = flat != 0.0
    dead = int(width - np.count_nonzero(live_mask))
    macs_total = width * out_features
    if dead == 0:
        _record(
            GemmRecord(
                kind="fc", path="dense", dead_fraction=0.0, dead_rows=0.0,
                macs_total=macs_total, macs_skipped=0,
            )
        )
        return _matvec_epilogue(weights, flat, weights @ flat)

    dead_fraction = dead / width
    skip = _choose_skip(mode, dead_fraction, cutoff)
    fallback = False
    if skip and not _sparse_path_survives_faults():
        skip, fallback = False, True

    live = np.flatnonzero(live_mask)
    product = np.take(weights, live, axis=1) @ flat[live]
    if skip:
        result = product
        skipped = dead * out_features
    else:
        dead_idx = np.flatnonzero(~live_mask)
        result = product + np.take(weights, dead_idx, axis=1) @ flat[dead_idx]
        skipped = 0
    _record(
        GemmRecord(
            kind="fc", path="sparse" if skip else "dense",
            dead_fraction=dead_fraction, dead_rows=0.0,
            macs_total=macs_total, macs_skipped=skipped, fallback=fallback,
        )
    )
    return _matvec_epilogue(weights, flat, result)
