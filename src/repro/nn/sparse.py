"""Host GEMM/matvec kernels of the forward pass.

The conv layers' ``cols @ wt`` GEMM and the FC layers' ``W @ x`` GEMV
run here as one plain BLAS call each, followed by a shared epilogue that
fires the ``mem:activations`` fault site and runs the ABFT verification.

The zero skipping of the paper lives in the cycle simulators
(:mod:`repro.backends`), not here.  In Cnvlutin hardware the previous
layer's encoder emits the ZFNAf offsets for free.  A numpy host has to
find and gather the live operands first, and at every measured layer
that gather cost more than the multiplies it saved, so the host path is
plain BLAS.  The module keeps its name, and the kernels keep theirs,
because the benchmark's span tracer binds to ``partitioned_gemm`` and
``partitioned_matvec`` of this module.

Weight transposes
-----------------
The conv GEMM multiplies by the *transposed* weight matrix ``(K, N)``.
Transposes are derived once per weight array and group count through
the shared :mod:`repro.weight_memo` (the same memo holds the ABFT
checksums and the weight-sparse backends' weight state), whose entries
die with their array.

Integrity (ABFT) verification
-----------------------------
Every kernel returns through an epilogue that (1) fires the
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

import numpy as np

from repro.reliability import integrity
from repro.reliability.faults import FaultInjector
from repro.weight_memo import weight_memo

__all__ = [
    "MEM_ACTIVATIONS_SITE",
    "transposed_weights",
    "partitioned_gemm",
    "partitioned_matvec",
]


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


# ----------------------------------------------------------------------
# the kernels
# ----------------------------------------------------------------------
def partitioned_gemm(cols: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """``cols @ wt`` for one image and conv group, then the epilogue.

    ``cols`` is the ``(M, K)`` patch matrix (one im2col'd image/group),
    ``wt`` the contiguous ``(K, N)`` transposed weights of that group
    (see :func:`transposed_weights`).  Returns the ``(M, N)`` product.
    """
    result = cols @ wt
    _maybe_corrupt_output(result)
    if integrity.should_verify():
        integrity.verify_gemm(cols, wt, result)
    return result


def partitioned_matvec(weights: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``weights @ flat`` for one FC layer and image, then the epilogue.

    ``weights`` is the ``(out, in)`` FC matrix, ``flat`` the flattened
    input vector.
    """
    result = weights @ flat
    _maybe_corrupt_output(result)
    if integrity.should_verify():
        integrity.verify_matvec(weights, flat, result)
    return result
