"""Analytic timing model of Cnvlutin2: skip ineffectual weights too.

Cnvlutin skips ineffectual *activations*: a lane spends one cycle per
non-zero ``(value, offset)`` pair of each ZFNAf brick it owns.  Cnvlutin2
(the follow-up sketched in the paper's conclusion and developed by
Judd et al.) additionally skips activations whose products would all be
ineffectual because the *weights* at that input channel are zero: the
front end intersects the activation brick's offset stream with a
pruned-weight offset stream and dispatches only the offsets present in
both.

The model here keeps CNV's structure — brick-interleaved lane
assignment, window-boundary synchronization, ``empty_brick_cycles`` NM
supply cost — and changes only the per-brick cost:

    cost(brick) = max(|nz(activations) ∩ union_nz(weights)|,
                      empty_brick_cycles)

where ``union_nz(weights)`` is, for the brick's (fy, fx, bz) position,
the set of in-brick offsets at which *any* filter of the current pass
holds a non-zero weight (the weight offset stream is shared per pass —
one synapse column per filter, so an offset is skippable only when every
filter of the pass is zero there).  Because the intersection can never
exceed the activation non-zero count, every brick costs at most its CNV
cost: CNV2 cycles <= CNV cycles layer by layer, for any weights — the
invariant the fig9_backends acceptance check and the conformance suite
pin.  Dense (unpruned) weights reduce the model to CNV exactly.

First-layer convolutions take the unencoded baseline path, exactly like
CNV (the raw image is not ZFNAf-encoded).  The brick/offset bookkeeping
matches :mod:`repro.core.zfnaf` brick alignment (depth padded to a
multiple of ``brick_size``; padding slots are zero, hence ineffectual),
and the property tests cross-validate the intersection counts against
brute force over :class:`~repro.core.zfnaf.ZfnafArray` bricks.
"""

from __future__ import annotations

import numpy as np

from repro.baseline.other_layers import other_layers_timing
from repro.baseline.timing import baseline_conv_timing, conv_works_from_inputs
from repro.baseline.workload import ConvWork, ceil_div, group_activations
from repro.core.timing import lane_assignment
from repro.hw.config import ArchConfig
from repro.hw.counters import ActivityCounters
from repro.hw.timing_types import LayerTiming, NetworkTiming
from repro.nn.network import Network
from repro.weight_memo import weight_memo

__all__ = [
    "brick_slot_mask",
    "pass_weight_union",
    "pair_intersection_counts",
    "cnv2_conv_timing",
    "cnv2_network_timing",
]

ARCHITECTURE = "cnvlutin2"


def brick_slot_mask(slab: np.ndarray, brick_size: int) -> np.ndarray:
    """Non-zero mask of every ZFNAf slot of a ``(depth, y, x)`` slab.

    Returns a bool array of shape ``(y, x, bricks, slot)`` using the same
    brick alignment as :func:`repro.core.zfnaf.encode`: depth is padded to
    a multiple of ``brick_size`` and padding slots are zero (ineffectual).
    """
    depth, height, width = slab.shape
    bricks = ceil_div(depth, brick_size)
    padded = np.zeros((bricks * brick_size, height, width), dtype=bool)
    padded[:depth] = slab != 0.0
    return padded.reshape(bricks, brick_size, height, width).transpose(2, 3, 0, 1)


def pass_weight_union(weights: np.ndarray, brick_size: int) -> np.ndarray:
    """Per-(fy, fx) offset union of one pass's non-zero weights.

    ``weights`` holds the pass's filters, shape ``(filters, depth, Ky,
    Kx)``.  Returns a bool array ``(Ky, Kx, bricks, slot)``: True where at
    least one filter has a non-zero weight at that (kernel position,
    input channel) — the offsets the weight stream makes dispatchable.
    """
    _, depth, kernel_y, kernel_x = weights.shape
    bricks = ceil_div(depth, brick_size)
    any_filter = np.zeros((bricks * brick_size, kernel_y, kernel_x), dtype=bool)
    any_filter[:depth] = (weights != 0.0).any(axis=0)
    return any_filter.reshape(
        bricks, brick_size, kernel_y, kernel_x
    ).transpose(2, 3, 0, 1)


def _pass_unions(
    weights: np.ndarray, filters_per_group: int, filters_per_pass: int,
    brick_size: int,
) -> list[list[np.ndarray]]:
    """:func:`pass_weight_union` of every (group, pass) as float32, memoised.

    ``unions[group][pass]`` is derived once per weight bank and
    geometry: the weights never change between calls.
    """
    def build(w: np.ndarray) -> list[list[np.ndarray]]:
        groups = [
            w[g : g + filters_per_group]
            for g in range(0, w.shape[0], filters_per_group)
        ]
        return [
            [
                pass_weight_union(
                    group[p : p + filters_per_pass], brick_size
                ).astype(np.float32)
                for p in range(0, filters_per_group, filters_per_pass)
            ]
            for group in groups
        ]

    key = ("cnv2.pass_unions", filters_per_group, filters_per_pass, brick_size)
    return weight_memo(weights, key, build)


def pair_intersection_counts(
    act_mask: np.ndarray, union_mask: np.ndarray
) -> np.ndarray:
    """Dispatched offsets per brick: activation non-zero AND weight-live.

    ``act_mask`` is ``(y, x, bricks, slot)`` (from :func:`brick_slot_mask`),
    ``union_mask`` is ``(bricks, slot)`` — one (fy, fx) plane of
    :func:`pass_weight_union`; either may already be float32 0/1, which
    spares the per-call conversion.  Returns float64 counts ``(y, x, bricks)``;
    ``brick_size - count`` is the skipped-pair count (zero activation OR
    all-zero weights), the quantity the property tests brute-force.
    """
    return np.einsum(
        "yxbs,bs->yxb",
        np.asarray(act_mask, dtype=np.float32),
        np.asarray(union_mask, dtype=np.float32),
    ).astype(np.float64)


def cnv2_conv_timing(
    work: ConvWork, config: ArchConfig, weights: np.ndarray
) -> LayerTiming:
    """Cycles and activity for one conv layer on CNV2.

    ``weights`` is the layer's full filter bank ``(num_filters,
    group_depth, kernel, kernel)``; its exact zeros define the
    ineffectual-weight offsets.  First layers take the unencoded baseline
    path, as on CNV.
    """
    if weights.shape[0] != work.geometry["num_filters"]:
        raise ValueError(
            f"{work.name}: weights carry {weights.shape[0]} filters, "
            f"geometry expects {work.geometry['num_filters']}"
        )
    if work.is_first and not config.first_layer_encoded:
        return baseline_conv_timing(work, config)

    geom = work.geometry
    lanes = config.neuron_lanes
    kernel = geom["kernel"]
    stride = geom["stride"]
    out_y, out_x = geom["out_y"], geom["out_x"]
    windows = out_y * out_x
    fpg = work.filters_per_group
    unions = _pass_unions(weights, fpg, config.filters_per_pass, config.brick_size)

    counters = ActivityCounters()
    total_cycles = 0
    nonzero_events = 0.0
    zero_events = 0.0
    stall_events = 0.0

    for group in range(work.num_groups):
        slab = group_activations(work, group)
        # Converted once here rather than once per kernel tap and pass.
        act_mask = brick_slot_mask(slab, config.brick_size).astype(np.float32)
        bricks = act_mask.shape[2]
        lane_of = lane_assignment(kernel, kernel, bricks, lanes)
        onehots = np.zeros((kernel, kernel, bricks, lanes), dtype=np.float64)
        for fy in range(kernel):
            for fx in range(kernel):
                onehots[fy, fx, np.arange(bricks), lane_of[fy, fx]] = 1.0

        group_cycles = 0

        for union in unions[group]:
            lane_cycles = np.zeros((out_y, out_x, lanes), dtype=np.float64)
            dispatched = 0.0
            for fy in range(kernel):
                for fx in range(kernel):
                    counts = pair_intersection_counts(act_mask, union[fy, fx])
                    if config.empty_brick_cycles:
                        cost = np.maximum(counts, config.empty_brick_cycles)
                    else:
                        cost = counts
                    # Window (oy, ox) reads padded position (oy*S+fy, ox*S+fx).
                    view = cost[fy::stride, fx::stride][:out_y, :out_x]
                    lane_cycles += view @ onehots[fy, fx]
                    eff = counts[fy::stride, fx::stride][:out_y, :out_x]
                    dispatched += float(eff.sum())
            window_cycles = lane_cycles.max(axis=2)
            pass_cycles = int(window_cycles.sum())
            group_cycles += pass_cycles

            busy = float(lane_cycles.sum())  # dispatched + empty-brick bubbles
            stall = float((window_cycles[..., None] - lane_cycles).sum())
            scale = config.num_units
            nonzero_events += scale * dispatched
            zero_events += scale * (busy - dispatched)
            stall_events += scale * stall

            # Datapath: only dispatched (intersected) offsets multiply.
            active = scale * dispatched
            counters.add("mults", active * config.filters_per_unit)
            counters.add("adds", active * config.filters_per_unit)
            counters.add("sb_reads", active)
            # Both offset streams are consulted per dispatched pair:
            # the activation's ZFNAf offset and the weight offset field.
            counters.add("offset_reads", 2 * active)
            counters.add("nbin_reads", scale * busy)
            counters.add("nbin_writes", scale * busy)
            counters.add(
                "nbout_reads",
                pass_cycles * config.num_units * config.filters_per_unit,
            )
            counters.add(
                "nbout_writes",
                pass_cycles * config.num_units * config.filters_per_unit,
            )
            counters.add("nm_reads", windows * kernel * kernel * bricks)
            counters.add("broadcasts", pass_cycles)

        total_cycles += group_cycles
        # Output encoding is pass-independent (one encoded output slab).
        out_slots = (
            ceil_div(fpg, config.brick_size) * config.brick_size * windows
        )
        counters.add("encoder_cycles", out_slots)
        counters.add("nm_writes", out_slots / config.brick_size)

    lane_events = {
        "nonzero": nonzero_events,
        "zero": zero_events,
        "stall": stall_events,
    }
    return LayerTiming(
        name=work.name,
        kind="conv",
        cycles=total_cycles,
        lane_events=lane_events,
        counters=counters,
    )


def cnv2_network_timing(
    network: Network,
    conv_inputs: dict[str, np.ndarray],
    config: ArchConfig,
    weights: dict[str, np.ndarray],
) -> NetworkTiming:
    """Full-network CNV2 timing; ``weights`` maps conv layer -> filter bank."""
    layers = [
        cnv2_conv_timing(work, config, weights[work.name])
        for work in conv_works_from_inputs(network, conv_inputs)
    ]
    layers.extend(other_layers_timing(network, config))
    return NetworkTiming(
        network=network.name, architecture=ARCHITECTURE, layers=layers
    )
