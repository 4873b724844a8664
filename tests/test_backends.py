"""Cross-backend conformance suite plus CNV2/SCNN model properties.

Every backend in the :mod:`repro.backends` registry must honour one
shared contract, checked here **parameterized over the registry** — a
newly registered backend is covered with zero test edits:

* cycles are bounded below by the effectual-work capacity bound
  ``ceil(E / (units x lanes x filters_per_unit))`` and above by the
  dense baseline's cycles;
* timing is deterministic: re-simulating the identical workload
  reproduces cycles, lane events, and every activity counter exactly;
* activity counters are internally consistent (multiplies pair with
  adds; nothing goes negative), and for backends declaring
  ``mults_are_effectual`` (SCNN) the multiply count equals the
  brute-force effectual-pair count exactly;
* ``needs_weights`` backends refuse to run without weights.

Workload regime: the upper bound is a *model* property only where the
models are meant to operate — paper-like depths (>= 2 bricks, so lanes
fill) and output planes with at least ``num_units`` positions.  On toy
sub-brick workloads (depth 8, the repo-wide default) CNV genuinely
loses to the dense baseline (half-padded bricks waste 15 of 16 lanes)
and SCNN underutilizes tiny output planes, so the conformance
workloads below pin the realistic regime on purpose.

The Hypothesis sections cross-validate CNV2's offset-pair intersection
against brute force over :func:`repro.core.zfnaf.encode` bricks
(including all-zero bricks and depth % 16 != 0 tails) and pin the
ordering invariants: CNV2 <= CNV cycles for *any* weights, equality for
dense weights, and a strict win under channel-structured pruning.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from conftest import make_conv_work
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import (
    Backend,
    backend_names,
    brick_slot_mask,
    effectual_pair_count,
    get_backend,
    pair_intersection_counts,
    pass_weight_union,
    power_model_for,
    prune_input_channels,
    prune_weights,
    register,
    scnn_conv_timing,
)
from repro.backends.registry import architectures
from repro.backends.scnn import _product_map
from repro.baseline.workload import ceil_div
from repro.core.zfnaf import encode
from repro.hw.config import PAPER_CONFIG
from repro.nn.sparse import transposed_weights
from repro.reliability.integrity import _checksums
from repro.weight_memo import memo_size

#: Paper-like conformance workloads (see module docstring for why the
#: regime matters): depth >= 2 bricks, out_y*out_x >= num_units, one
#: depth % 16 != 0 tail, one grouped, one strided, one high-sparsity.
CONFORMANCE_WORKLOADS = (
    dict(in_depth=64, in_y=8, in_x=8, num_filters=32),
    dict(in_depth=72, in_y=8, in_x=8, num_filters=20),
    dict(in_depth=64, in_y=8, in_x=8, num_filters=32, groups=2),
    dict(in_depth=48, in_y=11, in_x=11, num_filters=16, stride=2),
    dict(in_depth=64, in_y=8, in_x=8, num_filters=32, zero_fraction=0.7),
)

WEIGHT_SPARSITY = 0.4


def conformance_cases():
    """(ConvWork, pruned weights) per conformance geometry, fixed seed."""
    rng = np.random.default_rng(2024)
    cases = []
    for kwargs in CONFORMANCE_WORKLOADS:
        work, weights = make_conv_work(rng, **kwargs)
        cases.append((kwargs, work, prune_weights(weights, WEIGHT_SPARSITY)))
    return cases


def timing_for(spec: Backend, work, weights):
    return spec.layer_timing(
        work, PAPER_CONFIG, weights if spec.needs_weights else None
    )


def capacity_lower_bound(work, weights) -> int:
    """ceil(effectual pairs / peak products per cycle) — no backend can
    finish the effectual work faster than the full array allows."""
    pairs = effectual_pair_count(work, weights)
    per_cycle = (
        PAPER_CONFIG.num_units
        * PAPER_CONFIG.neuron_lanes
        * PAPER_CONFIG.filters_per_unit
    )
    return ceil_div(pairs, per_cycle)


@pytest.fixture(scope="module")
def cases():
    return conformance_cases()


def registry_backends() -> list[str]:
    """The conformance parameterization — the registry itself.

    ``CNVLUTIN_BACKEND_ONLY=<name>`` restricts the run to one backend
    (the CI matrix runs one job per backend through this knob).
    """
    import os

    only = os.environ.get("CNVLUTIN_BACKEND_ONLY")
    names = backend_names()
    if only:
        if only not in names:
            raise RuntimeError(
                f"CNVLUTIN_BACKEND_ONLY={only!r} is not registered ({names})"
            )
        return [only]
    return names


class TestConformance:
    """The shared contract, parameterized over the registry."""

    @pytest.mark.parametrize("name", registry_backends())
    def test_cycles_bounded_by_effectual_work_and_baseline(self, name, cases):
        spec = get_backend(name)
        base_spec = get_backend("baseline")
        for kwargs, work, weights in cases:
            timing = timing_for(spec, work, weights)
            base = timing_for(base_spec, work, weights)
            lower = capacity_lower_bound(work, weights)
            assert lower <= timing.cycles, (name, kwargs)
            assert timing.cycles <= base.cycles, (name, kwargs)

    @pytest.mark.parametrize("name", registry_backends())
    def test_timing_is_deterministic(self, name, cases):
        spec = get_backend(name)
        _, work, weights = cases[0]
        first = timing_for(spec, work, weights)
        second = timing_for(spec, work, weights)
        assert first.cycles == second.cycles
        assert first.lane_events == second.lane_events
        assert dict(first.counters.counts) == dict(second.counters.counts)

    @pytest.mark.parametrize("name", registry_backends())
    def test_counters_internally_consistent(self, name, cases):
        spec = get_backend(name)
        for kwargs, work, weights in cases:
            counters = timing_for(spec, work, weights).counters.counts
            assert counters, (name, kwargs)
            assert all(value >= 0 for value in counters.values()), (name, kwargs)
            # Every model here issues one accumulate per multiply.
            assert counters.get("mults", 0.0) == counters.get("adds", 0.0), (
                name, kwargs,
            )
            if spec.mults_are_effectual:
                pairs = effectual_pair_count(work, weights)
                assert int(counters["mults"]) == pairs, (name, kwargs)

    @pytest.mark.parametrize("name", registry_backends())
    def test_needs_weights_contract_enforced(self, name, cases):
        spec = get_backend(name)
        _, work, weights = cases[0]
        if spec.needs_weights:
            with pytest.raises(ValueError, match="requires a weights"):
                spec.layer_timing(work, PAPER_CONFIG)
        else:
            spec.layer_timing(work, PAPER_CONFIG)  # weights optional

    @pytest.mark.parametrize("name", registry_backends())
    def test_declares_power_model_and_unique_architecture(self, name):
        spec = get_backend(name)
        assert power_model_for(spec.architecture) is spec.power_model
        assert architectures()[spec.architecture] == name


class TestRegistry:
    def test_builtin_order_is_presentation_order(self):
        names = backend_names()
        assert names[:5] == ["baseline", "gated", "cnv", "cnv2", "scnn"]

    def test_duplicate_name_rejected(self):
        spec = get_backend("cnv")
        with pytest.raises(ValueError, match="already registered"):
            register(spec)

    def test_duplicate_architecture_rejected(self):
        spec = get_backend("cnv")
        clone = Backend(
            name="cnv-clone",
            architecture=spec.architecture,
            description="dup arch",
            conv_timing=spec.conv_timing,
            net_timing=spec.net_timing,
            power_model=spec.power_model,
        )
        with pytest.raises(ValueError, match="already registered"):
            register(clone)
        assert "cnv-clone" not in backend_names()

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(KeyError, match="cnv2"):
            get_backend("definitely-not-a-backend")

    def test_unknown_architecture_raises(self):
        with pytest.raises(KeyError, match="unknown architecture"):
            power_model_for("tpu-v9")


def _brute_force_intersections(slab, pass_weights, brick_size, fy, fx):
    """Per-brick dispatched-offset counts, via explicit loops over the
    ZFNAf encoding — the independent ground truth for CNV2's front end."""
    depth = slab.shape[0]
    zf = encode(slab, brick_size)
    height, width = zf.spatial_shape
    bricks = zf.bricks_per_column
    counts = np.zeros((height, width, bricks))
    for y in range(height):
        for x in range(width):
            for bz in range(bricks):
                _, offsets = zf.brick(y, x, bz)
                for offset in offsets:
                    z = bz * brick_size + int(offset)
                    if z < depth and np.any(pass_weights[:, z, fy, fx] != 0.0):
                        counts[y, x, bz] += 1
    return counts


@given(
    seed=st.integers(0, 2**31 - 1),
    depth=st.integers(1, 40),
    side=st.integers(1, 4),
    filters=st.integers(1, 5),
    kernel=st.integers(1, 3),
    act_zero=st.floats(0.0, 1.0),
    weight_zero=st.floats(0.0, 1.0),
)
@settings(max_examples=40)
def test_cnv2_intersection_matches_zfnaf_brute_force(
    seed, depth, side, filters, kernel, act_zero, weight_zero
):
    """Skipped-pair count == brute force over encoded bricks, for every
    kernel tap — covering all-zero bricks and depth % 16 != 0 tails."""
    brick_size = 16
    rng = np.random.default_rng(seed)
    slab = rng.normal(size=(depth, side, side))
    slab[rng.random(slab.shape) < act_zero] = 0.0
    weights = rng.normal(size=(filters, depth, kernel, kernel))
    weights[rng.random(weights.shape) < weight_zero] = 0.0

    act_mask = brick_slot_mask(slab, brick_size)
    union = pass_weight_union(weights, brick_size)
    bricks = act_mask.shape[2]
    assert bricks == ceil_div(depth, brick_size)
    for fy in range(kernel):
        for fx in range(kernel):
            counts = pair_intersection_counts(act_mask, union[fy, fx])
            expected = _brute_force_intersections(
                slab, weights, brick_size, fy, fx
            )
            assert np.array_equal(counts, expected), (fy, fx)
            # skipped = brick_size - dispatched, per brick: zero activation
            # OR an all-zero weight column — never negative, never > slots.
            skipped = bricks * brick_size * side * side - counts.sum()
            assert 0 <= counts.max() <= brick_size
            assert skipped >= 0


@given(
    seed=st.integers(0, 2**31 - 1),
    depth=st.integers(1, 40),
    filters=st.integers(1, 6),
    groups=st.sampled_from([1, 2]),
    weight_zero=st.floats(0.0, 0.9),
)
@settings(max_examples=25)
def test_cnv2_never_exceeds_cnv_and_dense_weights_reduce_to_cnv(
    seed, depth, filters, groups, weight_zero
):
    """CNV2 cycles <= CNV cycles for ANY weights (the intersection can
    only shrink per-brick work); with fully dense weights the two models
    coincide exactly — cycles, lane events, and dispatch-scaled counters.
    Grouped convolutions included."""
    if depth % groups or filters % groups:
        depth = depth * groups
        filters = filters * groups
    rng = np.random.default_rng(seed)
    work, dense = make_conv_work(
        rng, in_depth=depth, in_y=5, in_x=5,
        num_filters=filters, groups=groups,
    )
    sparse = dense.copy()
    sparse[rng.random(dense.shape) < weight_zero] = 0.0

    cnv = get_backend("cnv").layer_timing(work, PAPER_CONFIG)
    cnv2_sparse = get_backend("cnv2").layer_timing(work, PAPER_CONFIG, sparse)
    cnv2_dense = get_backend("cnv2").layer_timing(work, PAPER_CONFIG, dense)

    assert cnv2_sparse.cycles <= cnv.cycles
    assert cnv2_dense.cycles == cnv.cycles
    assert cnv2_dense.counters.counts["mults"] == (
        cnv.counters.counts["mults"]
    )


def test_cnv2_strictly_faster_under_channel_structured_pruning(rng):
    """Unstructured pruning leaves the pass-wide offset union dense (an
    offset skips only when EVERY filter is zero there), so CNV2 == CNV;
    channel-structured pruning aligns the zeros and CNV2 wins strictly."""
    work, weights = make_conv_work(
        rng, in_depth=64, in_y=8, in_x=8, num_filters=32
    )
    structured = prune_input_channels(weights, 0.5)
    cnv = get_backend("cnv").layer_timing(work, PAPER_CONFIG)
    cnv2 = get_backend("cnv2").layer_timing(work, PAPER_CONFIG, structured)
    assert cnv2.cycles < cnv.cycles


def test_cnv2_first_layer_falls_back_to_baseline(rng):
    work, weights = make_conv_work(
        rng, in_depth=48, in_y=8, in_x=8, num_filters=16, is_first=True
    )
    base = get_backend("baseline").layer_timing(work, PAPER_CONFIG)
    cnv2 = get_backend("cnv2").layer_timing(work, PAPER_CONFIG, weights)
    assert cnv2.cycles == base.cycles


def _brute_force_pairs(work, weights) -> int:
    """Effectual products by the most explicit accumulation possible:
    one loop iteration per (filter, output position, weight tap)."""
    geom = work.geometry
    kernel = geom["kernel"]
    stride = geom["stride"]
    pad = geom["pad"]
    depth = geom["in_depth"]
    padded = np.zeros(
        (depth, geom["in_y"] + 2 * pad, geom["in_x"] + 2 * pad)
    )
    padded[:, pad:pad + geom["in_y"], pad:pad + geom["in_x"]] = (
        work.activations
    )
    fpg = work.filters_per_group
    group_depth = depth // work.num_groups
    total = 0
    for f in range(geom["num_filters"]):
        group = f // fpg
        base_z = group * group_depth
        for oy in range(geom["out_y"]):
            for ox in range(geom["out_x"]):
                for z in range(group_depth):
                    for fy in range(kernel):
                        for fx in range(kernel):
                            if weights[f, z, fy, fx] == 0.0:
                                continue
                            if padded[
                                base_z + z, oy * stride + fy, ox * stride + fx
                            ] != 0.0:
                                total += 1
    return total


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(in_depth=6, in_y=4, in_x=4, num_filters=3, kernel=3),
        dict(in_depth=4, in_y=5, in_x=5, num_filters=4, kernel=3, stride=2),
        dict(in_depth=8, in_y=4, in_x=4, num_filters=4, groups=2),
    ],
)
def test_scnn_mults_match_quintuple_loop_brute_force(rng, kwargs):
    """Both the timing model's product map and effectual_pair_count must
    agree with a 5-deep explicit loop — three independent accumulation
    orders of the same Cartesian-product quantity."""
    work, weights = make_conv_work(rng, **kwargs)
    pruned = prune_weights(weights, 0.5)
    expected = _brute_force_pairs(work, pruned)
    assert effectual_pair_count(work, pruned) == expected
    timing = scnn_conv_timing(work, PAPER_CONFIG, pruned)
    assert int(timing.counters.counts["mults"]) == expected


@given(
    seed=st.integers(0, 2**31 - 1),
    depth=st.integers(1, 12),
    kernel=st.integers(1, 11),
    stride=st.integers(1, 5),
    extra=st.integers(0, 9),
)
@settings(max_examples=40)
def test_scnn_product_map_matches_per_window_sum(
    seed, depth, kernel, stride, extra
):
    """The stride-phase GEMM product map equals, position by position,
    the direct sum over each output window — including strides larger
    than the kernel (taps in no phase) and AlexNet's 11x11 / stride 4."""
    rng = np.random.default_rng(seed)
    side = kernel + extra
    slab = rng.normal(size=(depth, side, side))
    slab[rng.random(slab.shape) < 0.5] = 0.0
    counts = rng.integers(0, 9, size=(depth, kernel, kernel))
    out = (side - kernel) // stride + 1
    expected = np.array([
        [
            (counts * (slab[:, y:y + kernel, x:x + kernel] != 0.0)).sum()
            for x in range(0, out * stride, stride)
        ]
        for y in range(0, out * stride, stride)
    ])
    assert np.array_equal(_product_map(slab, counts, stride, out, out), expected)


def test_scnn_pairs_never_exceed_dense_work(rng):
    """Halo products are excluded, so E <= dense MACs of the layer."""
    work, weights = make_conv_work(rng, in_depth=32, in_y=6, in_x=6,
                                   num_filters=8)
    geom = work.geometry
    dense = (
        geom["num_filters"] * (geom["in_depth"] // work.num_groups)
        * geom["kernel"] ** 2 * geom["out_y"] * geom["out_x"]
    )
    assert effectual_pair_count(work, weights) <= dense


def test_weight_pruning_is_deterministic_and_exact():
    rng = np.random.default_rng(11)
    weights = rng.normal(size=(8, 16, 3, 3))
    pruned_a = prune_weights(weights, 0.5)
    pruned_b = prune_weights(weights.copy(), 0.5)
    assert np.array_equal(pruned_a, pruned_b)
    zero_fraction = float(np.mean(pruned_a == 0.0))
    assert 0.45 <= zero_fraction <= 0.55
    assert prune_weights(weights, 0.0) is weights
    with pytest.raises(ValueError):
        prune_weights(weights, 1.0)


def _reference_prune(weights: np.ndarray, fraction: float) -> np.ndarray:
    """The literal quantile-and-mask cut :func:`prune_weights` must equal."""
    magnitudes = np.abs(weights)
    cutoff = np.quantile(magnitudes, fraction)
    pruned = weights.copy()
    pruned[magnitudes <= cutoff] = 0.0
    return pruned


@settings(deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    values=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0]),  # heavy ties
            st.floats(-4.0, 4.0, width=32),
        ),
        min_size=1,
        max_size=64,
    ),
    fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    specials=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=2),
)
@example(dtype=np.float32, values=[0.5], fraction=0.5, specials=[])
@example(dtype=np.float64, values=[-0.0, 0.0], fraction=0.3, specials=[])
@example(dtype=np.float32, values=[1.0, -1.0, 0.5], fraction=0.5, specials=[])
@example(dtype=np.float64, values=[0.25], fraction=0.5, specials=[np.nan])
@example(dtype=np.float32, values=[2.0], fraction=0.5, specials=[np.inf])
def test_pruning_cut_matches_quantile_reference(dtype, values, fraction, specials):
    """Byte-identical to the quantile reference, NaN/inf inputs included."""
    weights = np.array(values + specials, dtype=dtype).reshape(1, -1, 1, 1)
    with np.errstate(invalid="ignore"):
        expected = _reference_prune(weights, fraction)
        got = prune_weights(weights, fraction)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert not got.flags.writeable


def _timing_record(timing):
    return (
        timing.cycles,
        dict(timing.lane_events),
        dict(timing.counters.counts),
    )


def _memo_cases():
    """(label, work, weights): dense, pruned, channel-pruned, and a
    grouped layer whose 80 filters per group span two 64-filter passes
    on the 4-unit configs."""
    rng = np.random.default_rng(7)
    work, dense = make_conv_work(
        rng, in_depth=48, in_y=6, in_x=6, num_filters=96
    )
    grouped, grouped_dense = make_conv_work(
        rng, in_depth=64, in_y=6, in_x=6, num_filters=160, groups=2
    )
    return [
        ("dense", work, dense),
        ("pruned", work, prune_weights(dense, WEIGHT_SPARSITY)),
        ("channels", work, prune_input_channels(dense, 0.5)),
        ("grouped", grouped, prune_weights(grouped_dense, WEIGHT_SPARSITY)),
    ]


MEMO_CONFIGS = [
    PAPER_CONFIG.with_(num_units=units, brick_size=brick, empty_brick_cycles=empty)
    for units in (4, 16)
    for brick in (8, 16)
    for empty in (0, 1)
]


@pytest.mark.parametrize("name", ["cnv2", "scnn"])
def test_weight_memo_cold_equals_warm(name):
    """Timing from a cold memo (a fresh copy of the weights per config)
    equals timing from one array whose memo every config has warmed —
    cycles, lane events and counters, to the unit."""
    assert MEMO_CONFIGS[0].filters_per_pass == 64
    spec = get_backend(name)
    for label, work, weights in _memo_cases():
        cold = [
            _timing_record(spec.layer_timing(work, config, weights.copy()))
            for config in MEMO_CONFIGS
        ]
        for _ in range(2):
            warm = [
                _timing_record(spec.layer_timing(work, config, weights))
                for config in MEMO_CONFIGS
            ]
            assert warm == cold, label


def test_weight_memo_entries_die_with_their_weights(rng):
    """Dropped weight banks leave nothing behind in the memo."""
    work, _ = make_conv_work(rng, in_depth=16, in_y=5, in_x=5, num_filters=8)
    gc.collect()
    start = memo_size()
    for _ in range(50):
        weights = prune_weights(
            rng.normal(size=(8, 16, 3, 3)), WEIGHT_SPARSITY
        )
        for name in ("cnv2", "scnn"):
            get_backend(name).layer_timing(work, PAPER_CONFIG, weights)
        effectual_pair_count(work, weights)
        for wt in transposed_weights(weights, 1):
            _checksums(wt, 1)
        _checksums(weights, 0)
        assert memo_size() > start
    del weights, wt
    gc.collect()
    assert memo_size() == start


@pytest.mark.parametrize("prune", [prune_weights, prune_input_channels])
def test_pruned_weights_are_read_only(rng, prune):
    """An in-place edit of pruned weights raises instead of leaving a
    stale memo entry behind."""
    pruned = prune(rng.normal(size=(4, 8, 3, 3)), 0.5)
    with pytest.raises(ValueError, match="read-only"):
        pruned[0, 0, 0, 0] = 1.0
