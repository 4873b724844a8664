"""Weight memo: quantities derived from a weight array, computed once.

Several consumers derive fixed quantities from a weight array and reuse
them on every call: the host conv kernel's per-group transposes
(:func:`repro.nn.sparse.transposed_weights`), the ABFT checksum vectors
(:mod:`repro.reliability.integrity`) and the weight-side state of the
weight-sparse cycle models (:mod:`repro.backends`: SCNN's per-group
filter counts, CNV2's per-pass offset unions).  :func:`weight_memo`
stores each such value under its weight array *and* an explicit key
naming the quantity and every parameter it depends on, so two
derivations of one array (``groups=1`` vs ``groups=2``, ``axis=0`` vs
``axis=1``) never alias each other.

Entries live exactly as long as their array: a :func:`weakref.finalize`
on the array drops them when it is collected, so the memo never holds a
weight bank alive and never outgrows the live weights.  For the same
reason a derived value must own its data — a view of the weights would
keep its own array alive through the memo.

Contract: replace, don't mutate
-------------------------------
A memoised value is derived on first use and trusted afterwards, so a
weight array must not be edited in place once it has been used.  The
repo replaces weight arrays wholesale
(:class:`~repro.nn.inference.WeightStore`, the training loop), and the
pruning helpers in :mod:`repro.backends.weights` return read-only
arrays, so an accidental in-place edit raises instead of leaving a
stale entry.  The ABFT
checksums turn the contract into a detector: a bit flipped in a live
array no longer matches the sums memoised before the flip.

This module imports only numpy and the standard library, so every
layer of the package can use it without import cycles.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Hashable
from typing import Any

import numpy as np

__all__ = ["weight_memo", "memo_size"]

#: ``id(array) -> {key: derived value}``; one finalizer per array.
_memo: dict[int, dict[Hashable, Any]] = {}


def weight_memo(
    weights: np.ndarray, key: Hashable, build: Callable[[np.ndarray], Any]
) -> Any:
    """``build(weights)``, computed once per ``(weights, key)``.

    ``key`` names the derived quantity and every parameter ``build``
    depends on besides ``weights`` itself.
    """
    ident = id(weights)
    slot = _memo.get(ident)
    if slot is None:
        weakref.finalize(weights, _memo.pop, ident, None)
        slot = _memo.setdefault(ident, {})
    # Racing threads may both build a value; the values are equal, so
    # keeping either is correct and no lock is needed.
    if key not in slot:
        slot[key] = build(weights)
    return slot[key]


def memo_size() -> int:
    """Number of live weight arrays holding memoised values."""
    return len(_memo)
