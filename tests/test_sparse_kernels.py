"""Property + regression suite for the sparse compute path (repro.nn.sparse).

Everything here drives the reusable differential harness in
``tests/differential.py``: adversarial zero patterns (all-zero feature
maps, a single non-zero at the last brick offset, channel counts not
divisible by the brick size), grouped and non-square geometries, the
full dtype x stride x pad x groups x batch x threshold grid, the
``auto``-mode cutoff boundary, and the ``sparse:gemm`` fault fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import (
    assert_conv_identical,
    assert_fc_identical,
    assert_forward_identical,
    run_conv_grid,
    run_fc_grid,
    sparse_env,
)
from repro import obs
from repro.nn import sparse as zskip
from repro.nn.layers import conv2d, fully_connected


@pytest.fixture(autouse=True)
def _default_mode_env():
    """Pin the mode env vars to their defaults inside every test."""
    with sparse_env(None, None):
        yield


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
        assert_conv_identical(a, w, rng.normal(size=filters), stride=stride, pad=pad)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_all_zero_feature_maps(self, seed, dead_channels):
        """Entire channels of zeros — including the whole-input case."""
        rng = np.random.default_rng(seed)
        depth = 8
        a = sparse_conv_input(rng, (depth, 6, 6), 0.3)
        a[:dead_channels] = 0.0
        w = rng.normal(size=(3, depth, 3, 3))
        assert_conv_identical(a, w, rng.normal(size=3), pad=1)

    def test_whole_input_zero(self, rng):
        a = np.zeros((5, 6, 6))
        w = rng.normal(size=(4, 5, 3, 3))
        out = assert_conv_identical(a, w, rng.normal(size=4), pad=1)
        assert np.all(out == np.asarray(out[:, :1, :1]))  # bias only

    def test_single_nonzero_at_brick_offset_15(self, rng):
        """One live neuron at the last offset of the first ZFNAf brick."""
        depth = 16
        a = np.zeros((depth, 5, 5))
        a[15, 2, 3] = 1.5
        w = rng.normal(size=(4, depth, 3, 3))
        out = assert_conv_identical(a, w, None, pad=1)
        reference = conv2d(a, w, None, pad=1, sparse_mode="never")
        assert np.array_equal(out, reference)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([7, 15, 17, 18, 33]), st.integers(0, 2**32 - 1))
    def test_depth_not_multiple_of_brick(self, depth, seed):
        rng = np.random.default_rng(seed)
        a = sparse_conv_input(rng, (depth, 6, 6), 0.6)
        w = rng.normal(size=(3, depth, 3, 3))
        assert_conv_identical(a, w, rng.normal(size=3), stride=2, pad=1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]))
    def test_grouped_conv(self, seed, groups):
        rng = np.random.default_rng(seed)
        depth, filters = 8, 8
        a = sparse_conv_input(rng, (depth, 7, 7), 0.6)
        a[1] = 0.0  # one dead channel inside group 0
        w = rng.normal(size=(filters, depth // groups, 3, 3))
        assert_conv_identical(
            a, w, rng.normal(size=filters), stride=2, pad=1, groups=groups
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_non_square_kernels_and_inputs(self, seed):
        """Rectangular kernels/inputs exercise asymmetric window strides."""
        rng = np.random.default_rng(seed)
        a = sparse_conv_input(rng, (6, 9, 5), 0.6)
        w = rng.normal(size=(3, 6, 1, 3))  # Fy != Fx
        assert_conv_identical(a, w, rng.normal(size=3), stride=2, pad=1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 120), st.integers(0, 2**32 - 1))
    def test_fc_sparsity_levels(self, live, seed):
        rng = np.random.default_rng(seed)
        x = np.zeros(120)
        idx = rng.choice(120, size=min(live, 120), replace=False)
        x[idx] = rng.normal(size=idx.size)
        w = rng.normal(size=(7, 120))
        assert_fc_identical(x.reshape(1, 5, 24)[0].reshape(5, 4, 6), w[:, :120])

    def test_fc_all_zero_input(self, rng):
        x = np.zeros((3, 4, 4))
        w = rng.normal(size=(6, 48))
        b = rng.normal(size=6)
        out = assert_fc_identical(x, w, b)
        assert np.array_equal(out, b)


class TestAutoCutoffBoundary:
    """``auto`` picks each path on either side of the density cutoff."""

    def _dead_fraction_case(self, rng, dead_cols: int):
        # K = 4 channels x 1x1 kernel -> each dead channel is one dead
        # column of the patch matrix: dead_fraction = dead_cols / 4.
        a = np.maximum(rng.normal(0.5, 1.0, size=(4, 5, 5)), 0.1)
        a[:dead_cols] = 0.0
        w = rng.normal(size=(3, 4, 1, 1))
        return a, w

    @pytest.mark.parametrize(
        "dead_cols,expected_path", [(1, "dense"), (3, "sparse")]
    )
    def test_auto_picks_path_around_cutoff(self, rng, dead_cols, expected_path):
        a, w = self._dead_fraction_case(rng, dead_cols)
        with sparse_env("auto", cutoff=0.5):
            zskip.pop_records()
            conv2d(a, w, None)
            records = zskip.pop_records()
        assert [r.path for r in records] == [expected_path]
        assert records[0].dead_fraction == pytest.approx(dead_cols / 4)

    def test_exact_cutoff_is_sparse(self, rng):
        a, w = self._dead_fraction_case(rng, 2)  # dead_fraction == cutoff
        with sparse_env("auto", cutoff=0.5):
            zskip.pop_records()
            conv2d(a, w, None)
            (record,) = zskip.pop_records()
        assert record.path == "sparse"

    def test_forced_modes_ignore_cutoff(self, rng):
        a, w = self._dead_fraction_case(rng, 3)
        with sparse_env("never", cutoff=0.0):
            zskip.pop_records()
            conv2d(a, w, None)
            (record,) = zskip.pop_records()
            assert record.path == "dense"
        with sparse_env("always", cutoff=1.0):
            zskip.pop_records()
            conv2d(a, w, None)
            (record,) = zskip.pop_records()
            assert record.path == "sparse"

    def test_bad_env_values_fall_back(self):
        with sparse_env("sometimes", cutoff=None):
            assert zskip.resolve_mode() == "auto"
        import os

        # Non-numeric, out-of-range, and non-finite values all warn and
        # fall back (the CNVLUTIN_ENGINE_CACHE_MB validation pattern) —
        # a bad environment variable never makes a forward pass raise.
        for bad in ("not-a-number", "2.5", "-0.1", "nan", "inf"):
            os.environ[zskip.CUTOFF_ENV] = bad
            try:
                with pytest.warns(RuntimeWarning, match=zskip.CUTOFF_ENV):
                    assert zskip.resolve_cutoff() == zskip.DEFAULT_CUTOFF
            finally:
                del os.environ[zskip.CUTOFF_ENV]
        os.environ[zskip.CUTOFF_ENV] = "0.3"
        try:
            assert zskip.resolve_cutoff() == 0.3
        finally:
            del os.environ[zskip.CUTOFF_ENV]
        with pytest.raises(ValueError):
            zskip.resolve_mode("sometimes")


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
        assert_forward_identical(
            network, store, image, thresholds={"conv1": 0.2, "conv2": 0.4}
        )


class TestFaultFallback:
    def test_injected_gemm_fault_falls_back_to_dense_bits(self, rng, monkeypatch):
        a = sparse_conv_input(rng, (6, 6, 6), 0.7)
        a[0] = 0.0  # guarantee dead columns so the sparse path is taken
        w = rng.normal(size=(4, 6, 3, 3))
        b = rng.normal(size=4)
        reference = conv2d(a, w, b, pad=1, sparse_mode="never")

        obs.reset_metrics()
        monkeypatch.setenv("CNVLUTIN_FAULTS", "sparse:gemm=raise@*")
        out = conv2d(a, w, b, pad=1, sparse_mode="always")
        assert out.tobytes() == reference.tobytes()
        records = zskip.pop_records()
        assert any(r.fallback for r in records)
        counters = obs.get_metrics().snapshot()["counters"]
        assert counters["engine.sparse.fallbacks"] >= 1
        assert counters["faults.injected.sparse:gemm"] >= 1

    def test_limited_trials_recover(self, rng, monkeypatch):
        """Only the first sparse GEMM faults; later ones skip normally."""
        a = sparse_conv_input(rng, (6, 6, 6), 0.7)
        a[0] = 0.0
        w = rng.normal(size=(4, 6, 3, 3))
        reference = conv2d(a, w, None, pad=1, sparse_mode="never")
        monkeypatch.setenv("CNVLUTIN_FAULTS", "sparse:gemm=raise@0")
        zskip.pop_records()
        first = conv2d(a, w, None, pad=1, sparse_mode="always")
        second = conv2d(a, w, None, pad=1, sparse_mode="always")
        records = zskip.pop_records()
        assert first.tobytes() == second.tobytes() == reference.tobytes()
        assert records[0].fallback and not records[1].fallback
        assert records[1].path == "sparse"


class TestMetricsAndRecords:
    def test_macs_accounting(self, rng):
        a = np.maximum(rng.normal(0.5, 1.0, size=(4, 5, 5)), 0.1)
        a[:2] = 0.0
        w = rng.normal(size=(3, 4, 1, 1))
        with sparse_env("always"):
            zskip.pop_records()
            conv2d(a, w, None)
            (record,) = zskip.pop_records()
        assert record.macs_total == 25 * 4 * 3
        assert record.macs_skipped == 25 * 2 * 3
        assert record.kind == "conv"

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

    def test_summarize_records_paths(self):
        make = lambda path: zskip.GemmRecord(
            kind="conv", path=path, dead_fraction=0.5, dead_rows=0.0,
            macs_total=100, macs_skipped=50 if path == "sparse" else 0,
        )
        assert zskip.summarize_records([])["sparse"] == "none"
        assert zskip.summarize_records([make("sparse")])["sparse"] == "sparse"
        mixed = zskip.summarize_records([make("sparse"), make("dense")])
        assert mixed["sparse"] == "mixed"
        assert mixed["macs_skipped"] == 50
