"""Property + regression suite for the host forward kernels.

Everything here drives the reusable differential harness in
``tests/differential.py``: ``conv2d``/``fully_connected`` against their
literal BLAS references over adversarial zero patterns (all-zero feature
maps, a single non-zero at the last brick offset, channel counts not
divisible by the brick size), grouped and non-square geometries and the
full dtype x stride x pad x groups x batch x threshold grid, plus
``max_pool2d`` against a brute-force per-window max and ``pad_input``
against ``np.pad``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import (
    assert_conv_matches_reference,
    assert_fc_matches_reference,
    assert_forward_matches_reference,
    assert_same_bytes,
    reference_max_pool2d,
    run_conv_grid,
    run_fc_grid,
)
from repro.nn import sparse as zskip
from repro.nn.layers import max_pool2d, pad_input


def sparse_conv_input(
    rng: np.random.Generator, shape, zero_fraction: float
) -> np.ndarray:
    a = np.maximum(rng.normal(0.3, 1.0, size=shape), 0.0)
    if zero_fraction > 0:
        cut = np.quantile(a, zero_fraction)
        a[a < cut] = 0.0
    return a


class TestDifferentialGrid:
    def test_conv_full_grid(self, rng):
        assert run_conv_grid(rng) == 216  # 2 x 3 x 3 x 2 x 2 x 3

    def test_fc_full_grid(self, rng):
        assert run_fc_grid(rng) == 12  # 2 dtypes x 2 batches x 3 thresholds


conv_geometry = st.tuples(
    st.integers(1, 20),  # depth (crosses brick boundaries, % 16 != 0)
    st.integers(4, 9),  # in_y
    st.integers(4, 9),  # in_x
    st.integers(1, 4),  # filters
    st.integers(1, 3),  # kernel
    st.integers(1, 3),  # stride
    st.integers(0, 2),  # pad
)


class TestAdversarialPatterns:
    @settings(max_examples=40, deadline=None)
    @given(conv_geometry, st.floats(0.0, 0.95), st.integers(0, 2**32 - 1))
    def test_random_sparsity_conv(self, geometry, zero_fraction, seed):
        depth, in_y, in_x, filters, kernel, stride, pad = geometry
        if in_y - kernel + 2 * pad < 0 or in_x - kernel + 2 * pad < 0:
            return
        rng = np.random.default_rng(seed)
        a = sparse_conv_input(rng, (depth, in_y, in_x), zero_fraction)
        w = rng.normal(size=(filters, depth, kernel, kernel))
        assert_conv_matches_reference(
            a, w, rng.normal(size=filters), stride=stride, pad=pad
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_all_zero_feature_maps(self, seed, dead_channels):
        """Entire channels of zeros — including the whole-input case."""
        rng = np.random.default_rng(seed)
        depth = 8
        a = sparse_conv_input(rng, (depth, 6, 6), 0.3)
        a[:dead_channels] = 0.0
        w = rng.normal(size=(3, depth, 3, 3))
        assert_conv_matches_reference(a, w, rng.normal(size=3), pad=1)

    def test_whole_input_zero(self, rng):
        a = np.zeros((5, 6, 6))
        w = rng.normal(size=(4, 5, 3, 3))
        out = assert_conv_matches_reference(a, w, rng.normal(size=4), pad=1)
        assert np.all(out == np.asarray(out[:, :1, :1]))  # bias only

    def test_single_nonzero_at_brick_offset_15(self, rng):
        """One live neuron at the last offset of the first ZFNAf brick."""
        depth = 16
        a = np.zeros((depth, 5, 5))
        a[15, 2, 3] = 1.5
        w = rng.normal(size=(4, depth, 3, 3))
        out = assert_conv_matches_reference(a, w, None, pad=1)
        assert np.count_nonzero(out) > 0  # the lone neuron reaches the output

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([7, 15, 17, 18, 33]), st.integers(0, 2**32 - 1))
    def test_depth_not_multiple_of_brick(self, depth, seed):
        rng = np.random.default_rng(seed)
        a = sparse_conv_input(rng, (depth, 6, 6), 0.6)
        w = rng.normal(size=(3, depth, 3, 3))
        assert_conv_matches_reference(a, w, rng.normal(size=3), stride=2, pad=1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]))
    def test_grouped_conv(self, seed, groups):
        rng = np.random.default_rng(seed)
        depth, filters = 8, 8
        a = sparse_conv_input(rng, (depth, 7, 7), 0.6)
        a[1] = 0.0  # one dead channel inside group 0
        w = rng.normal(size=(filters, depth // groups, 3, 3))
        assert_conv_matches_reference(
            a, w, rng.normal(size=filters), stride=2, pad=1, groups=groups
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_non_square_kernels_and_inputs(self, seed):
        """Rectangular kernels/inputs exercise asymmetric window strides."""
        rng = np.random.default_rng(seed)
        a = sparse_conv_input(rng, (6, 9, 5), 0.6)
        w = rng.normal(size=(3, 6, 1, 3))  # Fy != Fx
        assert_conv_matches_reference(a, w, rng.normal(size=3), stride=2, pad=1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 120), st.integers(0, 2**32 - 1))
    def test_fc_sparsity_levels(self, live, seed):
        rng = np.random.default_rng(seed)
        x = np.zeros(120)
        idx = rng.choice(120, size=min(live, 120), replace=False)
        x[idx] = rng.normal(size=idx.size)
        w = rng.normal(size=(7, 120))
        assert_fc_matches_reference(x.reshape(1, 5, 24)[0].reshape(5, 4, 6), w[:, :120])

    def test_fc_all_zero_input(self, rng):
        x = np.zeros((3, 4, 4))
        w = rng.normal(size=(6, 48))
        b = rng.normal(size=6)
        out = assert_fc_matches_reference(x, w, b)
        assert np.array_equal(out, b)


class TestWholeNetworkDifferential:
    def test_tiny_network_forward_identical(self, rng):
        from repro.nn.inference import init_weights
        from repro.nn.models import build_network

        network = build_network("cnnS", input_size=64)
        store = init_weights(network, rng)
        image = rng.uniform(size=network.input_shape).astype(np.float32)
        for name in store.weights:
            store.weights[name] = store.weights[name].astype(np.float32)
            store.biases[name] = store.biases[name].astype(np.float32)
        assert_forward_matches_reference(
            network, store, image, thresholds={"conv1": 0.2, "conv2": 0.4}
        )


class TestMetricsAndRecords:
    """The memoised per-group weight transposes the conv GEMM multiplies by."""

    def test_transposed_weights_cached_per_array(self, rng):
        w = rng.normal(size=(4, 6, 3, 3))
        first = zskip.transposed_weights(w, 2)
        second = zskip.transposed_weights(w, 2)
        assert all(x is y for x, y in zip(first, second))
        assert first[0].shape == (6 * 9, 4 // 2)

    def test_transposed_weights_keyed_by_group_count(self, rng):
        """One array, two group counts: each call gets its own transposes
        (a memo keyed on the array alone returned the 1-group list)."""
        w = rng.normal(size=(4, 6, 3, 3))
        single = zskip.transposed_weights(w, 1)
        halves = zskip.transposed_weights(w, 2)
        assert len(single) == 1 and single[0].shape == (6 * 9, 4)
        assert len(halves) == 2 and halves[1].shape == (6 * 9, 2)
        assert np.array_equal(halves[1], w[2:].reshape(2, -1).T)


pool_values = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


class TestPoolingAndPadding:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3),  # kernel
        st.integers(1, 3),  # stride
        st.integers(0, 1),  # pad
        st.booleans(),  # batched
        st.sampled_from(["float64", "float32"]),
        st.data(),
    )
    def test_max_pool_matches_brute_force(
        self, kernel, stride, pad, batched, dtype, data
    ):
        """Running-maximum fast path ≡ per-window max, byte for byte —
        including ±0.0 ties, NaN propagation and infinities."""
        lead = (data.draw(st.integers(1, 2)),) if batched else ()
        depth = data.draw(st.integers(1, 3))
        in_y = data.draw(st.integers(max(1, kernel - 2 * pad), 7))
        in_x = data.draw(st.integers(max(1, kernel - 2 * pad), 7))
        shape = (*lead, depth, in_y, in_x)
        values = data.draw(
            st.lists(pool_values, min_size=int(np.prod(shape)),
                     max_size=int(np.prod(shape)))
        )
        a = np.array(values, dtype=dtype).reshape(shape)
        assert_same_bytes(
            max_pool2d(a, kernel, stride, pad),
            reference_max_pool2d(a, kernel, stride, pad),
            f"max_pool2d k={kernel} s={stride} p={pad} shape={shape}",
        )

    def test_max_pool_signed_zero_tie_goes_to_later_tap(self):
        a = np.array([[[0.0, -0.0], [-0.0, -0.0]]])
        assert np.signbit(max_pool2d(a, 2, 2)).all()
        assert not np.signbit(max_pool2d(-a, 2, 2)).any()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 3),  # pad
        st.booleans(),  # batched
        st.sampled_from(["float64", "float32", "int32"]),
        st.integers(0, 2**32 - 1),
    )
    def test_pad_input_matches_np_pad(self, pad, batched, dtype, seed):
        rng = np.random.default_rng(seed)
        shape = ((2,) if batched else ()) + (3, 4, 5)
        a = rng.normal(size=shape)
        a.reshape(-1)[::3] *= -0.0  # signed zeros survive the copy
        a = a.astype(dtype)
        width = [(0, 0)] * (a.ndim - 2) + [(pad, pad), (pad, pad)]
        assert_same_bytes(pad_input(a, pad), np.pad(a, width), f"pad={pad}")

    def test_pad_input_strided_view(self, rng):
        """A non-contiguous input pads to a C-contiguous array."""
        a = rng.normal(size=(4, 6, 6))[::2, :, ::-1]
        out = pad_input(a, 2)
        assert out.flags.c_contiguous
        assert_same_bytes(out, np.pad(a, [(0, 0), (2, 2), (2, 2)]), "view")
