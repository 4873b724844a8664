"""Analytic timing model of an SCNN-style compressed-sparse accelerator.

SCNN (Parashar et al., ISCA 2017) stores both weights and activations
compressed and computes the *Cartesian product* of the non-zero weight
vector and non-zero activation vector of each input channel: every
multiplication performed is effectual (both operands non-zero), and
output coordinates are reconstructed from the operand indices, with
products scattered into a banked accumulator array.

This model keeps the node budget of the repo's other backends —
``num_units`` PEs, ``multipliers_per_unit`` multipliers each (at the
paper config 16 x 256 = 4096 multipliers, identical to DaDianNao's
array) — and computes, per conv layer:

* **Effectual products** ``E``: for every kernel position (fy, fx) and
  input channel z, (# filters with a non-zero weight at (z, fy, fx)) x
  (# *valid* output positions whose input activation at that offset is
  non-zero).  Valid-output pairs only: products that would land outside
  the output plane (the halo SCNN discards) are not counted, so ``E``
  never exceeds the dense work and ``mults == E`` exactly — the counter
  the conformance suite and fig9_backends cross-validate against an
  independent brute-force/analytic count.
* **PE tiling**: output positions are split into ``num_units``
  contiguous row-major chunks (SCNN's planar tiling); each PE's
  multiplier-limited time is ``ceil(P_pe / multipliers_per_unit)``.
* **Accumulator-bank contention**: each PE has ``2 x
  multipliers_per_unit`` accumulator banks (SCNN provisions 2x to keep
  scatter conflicts rare); position ``p`` maps to bank ``p mod B`` and
  needs ``ceil(products(p) / F_live)`` serialized accumulations, where
  ``F_live = min(filters_per_group, filters_per_unit)`` output channels
  absorb products in parallel.  A PE's time is the max of its
  multiplier-limited and most-loaded-bank time; the layer (per group)
  takes the slowest PE.

Unlike CNV/CNV2 the model has no first-layer special case: compressed
weights skip their zeros against the dense image just as well.  Groups
run sequentially, like every other backend here.

Known honest corner: on tiny output planes (fewer output positions than
PEs — 1x1 outputs at toy scales) most PEs idle and SCNN can lose to the
dense baseline; the conformance suite documents and avoids that regime,
matching the paper's own observation that SCNN underutilizes on small
spatial dimensions.
"""

from __future__ import annotations

import numpy as np

from repro.baseline.other_layers import other_layers_timing
from repro.baseline.timing import conv_works_from_inputs
from repro.baseline.workload import ConvWork, group_activations
from repro.hw.config import ArchConfig
from repro.hw.counters import ActivityCounters
from repro.hw.timing_types import LayerTiming, NetworkTiming
from repro.nn.network import Network
from repro.weight_memo import weight_memo

__all__ = [
    "effectual_pair_count",
    "scnn_conv_timing",
    "scnn_network_timing",
]

ARCHITECTURE = "scnn"


def _strided_plane(slab: np.ndarray, fy: int, fx: int, stride: int,
                   out_y: int, out_x: int) -> np.ndarray:
    """Activations feeding kernel tap (fy, fx) of every valid window.

    ``slab`` is the spatially padded ``(depth, Y, X)`` group slab; output
    position (oy, ox) reads ``slab[:, oy*stride + fy, ox*stride + fx]``.
    """
    return slab[:, fy::stride, fx::stride][:, :out_y, :out_x]


def _filter_counts(weights: np.ndarray, filters_per_group: int) -> np.ndarray:
    """# filters with a non-zero weight per (group, depth, fy, fx), memoised.

    Int64 array ``(groups, group_depth, Ky, Kx)``; the weights never
    change between calls, so it is derived once per weight bank.
    """
    def build(w: np.ndarray) -> np.ndarray:
        nonzero = (w != 0.0).reshape(-1, filters_per_group, *w.shape[1:])
        return nonzero.sum(axis=1, dtype=np.int64)

    return weight_memo(weights, ("scnn.filter_counts", filters_per_group), build)


def effectual_pair_count(work: ConvWork, weights: np.ndarray) -> int:
    """Exact count of effectual (non-zero weight x non-zero activation)
    products for ``work``, channel-sum form.

    Computed as sum over (fy, fx, z) of weight-filter counts times valid
    non-zero activation counts — deliberately a *different* accumulation
    order than the per-output-position product map the timing model
    builds, so the two serve as independent cross-checks of each other.
    """
    geom = work.geometry
    kernel = geom["kernel"]
    stride = geom["stride"]
    out_y, out_x = geom["out_y"], geom["out_x"]
    counts = _filter_counts(weights, work.filters_per_group)
    total = 0
    for group in range(work.num_groups):
        slab = group_activations(work, group)
        for fy in range(kernel):
            for fx in range(kernel):
                act_nnz = (
                    _strided_plane(slab, fy, fx, stride, out_y, out_x) != 0.0
                ).sum(axis=(1, 2)).astype(np.int64)
                total += int(counts[group, :, fy, fx] @ act_nnz)
    return total


def _product_map(slab: np.ndarray, counts: np.ndarray, stride: int,
                 out_y: int, out_x: int) -> np.ndarray:
    """Effectual products landing on each valid output position.

    Tap ``(ry + stride*a, rx + stride*b)`` reads only the ``(ry, rx)``
    stride phase of the slab, so per phase one GEMM contracts the depth
    axis for all of the phase's taps at once — ``planes[a, b] =
    counts[:, fy, fx] @ (phase != 0)`` — and each plane is then shifted
    onto the output grid.  Every term is an integer-valued float64, so
    the sums are exact in any order.
    """
    depth = slab.shape[0]
    kernel_y, kernel_x = counts.shape[1:]
    mask = slab != 0.0
    product_map = np.zeros((out_y, out_x), dtype=np.float64)
    for ry in range(min(stride, kernel_y)):
        for rx in range(min(stride, kernel_x)):
            phase = mask[:, ry::stride, rx::stride]
            taps = counts[:, ry::stride, rx::stride]
            rows, cols = taps.shape[1:]
            planes = (
                taps.reshape(depth, -1).T.astype(np.float64)
                @ phase.reshape(depth, -1).astype(np.float64)
            ).reshape(rows, cols, *phase.shape[1:])
            for a in range(rows):
                for b in range(cols):
                    product_map += planes[a, b, a : a + out_y, b : b + out_x]
    return product_map


def scnn_conv_timing(
    work: ConvWork, config: ArchConfig, weights: np.ndarray
) -> LayerTiming:
    """Cycles and activity for one conv layer on the SCNN-style dataflow."""
    if weights.shape[0] != work.geometry["num_filters"]:
        raise ValueError(
            f"{work.name}: weights carry {weights.shape[0]} filters, "
            f"geometry expects {work.geometry['num_filters']}"
        )
    geom = work.geometry
    stride = geom["stride"]
    out_y, out_x = geom["out_y"], geom["out_x"]
    units = config.num_units
    banks = 2 * config.multipliers_per_unit
    f_live = min(work.filters_per_group, config.filters_per_unit)
    fpg = work.filters_per_group
    counts = _filter_counts(weights, fpg)

    # Contiguous row-major position chunks, one per PE; position p maps
    # to accumulator bank p mod B of its PE.
    n_pos = out_y * out_x
    bounds = (np.arange(units + 1) * n_pos) // units
    pe_of = np.repeat(np.arange(units), np.diff(bounds))
    pe_bank = pe_of * banks + np.arange(n_pos) % banks

    counters = ActivityCounters()
    total_cycles = 0
    busy_events = 0.0
    stall_events = 0.0

    for group in range(work.num_groups):
        slab = group_activations(work, group)
        products = _product_map(
            slab, counts[group], stride, out_y, out_x
        ).reshape(-1)
        group_products = float(products.sum())

        pe_products = np.bincount(pe_of, weights=products, minlength=units)
        mult_limited = -(
            -pe_products.astype(np.int64) // config.multipliers_per_unit
        )
        # Scatter: ceil(products/F_live) serialized accumulations per
        # position, summed per (PE, bank).
        bank_load = np.bincount(
            pe_bank, weights=np.ceil(products / f_live),
            minlength=units * banks,
        ).reshape(units, banks)
        bank_limited = bank_load.max(axis=1).astype(np.int64)
        group_cycles = int(np.maximum(mult_limited, bank_limited).max())
        total_cycles += group_cycles

        # Fig. 10 bookkeeping: a cycle offers units x lanes event slots,
        # each worth multipliers_per_unit / lanes products.
        products_per_slot = config.multipliers_per_unit / config.neuron_lanes
        busy = group_products / products_per_slot
        slots = group_cycles * units * config.neuron_lanes
        busy_events += busy
        stall_events += max(0.0, slots - busy)

        # Every product is effectual — the defining counter identity.
        counters.add("mults", group_products)
        counters.add("adds", group_products)
        counters.add("nbout_reads", group_products)
        counters.add("nbout_writes", group_products)
        # Compressed operand traffic (coarse: one read per non-zero,
        # brick-granular for activations, per-element for weights).
        counters.add(
            "nm_reads", float((slab != 0.0).sum()) / config.brick_size
        )
        counters.add("sb_reads", float(counts[group].sum()))
        counters.add(
            "nm_writes", out_y * out_x * fpg / config.brick_size
        )
        counters.add("broadcasts", group_cycles)

    if work.is_first:
        lane_events = {"conv1": busy_events + stall_events}
    else:
        lane_events = {"nonzero": busy_events, "stall": stall_events}
    return LayerTiming(
        name=work.name,
        kind="conv",
        cycles=total_cycles,
        lane_events=lane_events,
        counters=counters,
    )


def scnn_network_timing(
    network: Network,
    conv_inputs: dict[str, np.ndarray],
    config: ArchConfig,
    weights: dict[str, np.ndarray],
) -> NetworkTiming:
    """Full-network SCNN timing; ``weights`` maps conv layer -> filter bank."""
    layers = [
        scnn_conv_timing(work, config, weights[work.name])
        for work in conv_works_from_inputs(network, conv_inputs)
    ]
    layers.extend(other_layers_timing(network, config))
    return NetworkTiming(
        network=network.name, architecture=ARCHITECTURE, layers=layers
    )
