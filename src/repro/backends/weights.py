"""Deterministic magnitude pruning of conv weights.

The weight-sparse backends (Cnvlutin2, SCNN) skip *ineffectual weights* —
weights that are exactly zero.  The calibrated paper networks carry
He-initialized Gaussian weights with no exact zeros, so weight sparsity
is induced the way the pruning literature does: zero the smallest-
magnitude fraction of each conv layer's weights.  The cut is a per-layer
quantile of ``|w|``, so the derivation is a pure function of the weights
themselves — every process (experiment worker, serving shard, direct
reference path) derives bit-identical masks, which is what lets the
serving differential tests demand byte-equal timing payloads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_WEIGHT_SPARSITY",
    "prune_weights",
    "prune_input_channels",
    "prune_conv_weights",
]

#: Fraction of each conv layer's weights zeroed for the weight-sparse
#: backends when no explicit sparsity is requested (CNV2's offset streams
#: and SCNN's compressed weights both presume a pruned model).
DEFAULT_WEIGHT_SPARSITY = 0.5


def prune_weights(weights: np.ndarray, fraction: float) -> np.ndarray:
    """Zero the smallest-magnitude ``fraction`` of ``weights``.

    The threshold is the ``fraction``-quantile of ``|weights|``; ties at
    the cut prune together (deterministic, order-independent).  The
    result is read-only (see :mod:`repro.weight_memo`).  ``fraction <= 0``
    returns the input itself (no copy).
    """
    if fraction <= 0.0:
        return weights
    if not fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    magnitudes = np.abs(weights)
    cutoff = np.quantile(magnitudes, fraction)
    pruned = weights.copy()
    pruned[magnitudes <= cutoff] = 0.0
    pruned.flags.writeable = False
    return pruned


def prune_input_channels(weights: np.ndarray, fraction: float) -> np.ndarray:
    """Zero the lowest-energy ``fraction`` of *input channels*, all filters.

    Channel-structured pruning: the channels with the smallest summed
    |w| across every filter are zeroed everywhere.  Because the zeros
    align across filters, CNV2's pass-wide offset union actually thins —
    this is the sparsity structure under which CNV2 beats CNV *strictly*
    (unstructured magnitude pruning leaves the union dense for any
    realistic filter count: an offset is skippable only when every
    filter of the pass is zero there).  ``weights`` is a conv filter
    bank ``(filters, depth, Ky, Kx)``; the result is read-only, like
    :func:`prune_weights`'s.
    """
    if fraction <= 0.0:
        return weights
    if not fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    energy = np.abs(weights).sum(axis=(0, 2, 3))
    cutoff = np.quantile(energy, fraction)
    pruned = weights.copy()
    pruned[:, energy <= cutoff, :, :] = 0.0
    pruned.flags.writeable = False
    return pruned


def prune_conv_weights(
    network, weights: dict[str, np.ndarray], fraction: float
) -> dict[str, np.ndarray]:
    """Per-conv-layer pruned weights for ``network``.

    Only conv layers are returned — the analytic backend models consume
    exactly one weight array per :class:`~repro.baseline.workload.ConvWork`.
    """
    return {
        layer.name: prune_weights(weights[layer.name], fraction)
        for layer in network.conv_layers
    }
