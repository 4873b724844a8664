"""Reusable differential harness: host kernels vs literal references.

The contract under test: ``conv2d`` and ``fully_connected`` produce
**the same bytes** as the literal arithmetic they stand for, and a
batched call produces the same bytes as one call per image.

* conv: per group, ``unfold(pad(x)) @ w_g.reshape(N_g, -1).T``, then the
  bias (``0.0`` when absent) added to the whole output;
* FC: ``W @ x + b``;
* max pooling: a per-window fold over the taps in ``(ky, kx)`` order in
  which a NaN propagates and a tie goes to the later tap.

The references are built from numpy primitives only (``np.pad``,
``sliding_window_view``, ``@``), not from the helpers of
:mod:`repro.nn.layers`, so a bug in ``pad_input`` or ``im2col`` shows up
as a byte difference.  The same patch matrix in the same layout gives the
same BLAS call, so equality is exact, not approximate.

This module is a library, not a test file (pytest does not collect it):
``tests/test_sparse_kernels.py`` and ``tests/test_integrity.py`` drive
these helpers.  The grid spans dtype x stride x pad x groups x batch x
pruning threshold.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import layers
from repro.nn.inference import run_forward


def prune(activations: np.ndarray, threshold: float) -> np.ndarray:
    """Zero all entries below ``threshold`` in magnitude (grid inputs)."""
    out = np.array(activations, copy=True)
    if threshold > 0:
        out[np.abs(out) < threshold] = 0.0
    return out


# ----------------------------------------------------------------------
# literal references
# ----------------------------------------------------------------------
def _pad_spatial(activations: np.ndarray, pad: int) -> np.ndarray:
    width = [(0, 0)] * (activations.ndim - 2) + [(pad, pad), (pad, pad)]
    return np.pad(activations, width)


def reference_conv2d(
    activations: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Per-group ``unfold(pad(x)) @ w_g.T`` plus bias, image by image."""
    if activations.ndim == 4:
        return np.stack(
            [
                reference_conv2d(image, weights, bias, stride, pad, groups)
                for image in activations
            ]
        )
    num_filters, group_depth, kernel_y, kernel_x = weights.shape
    group_filters = num_filters // groups
    windows = sliding_window_view(
        _pad_spatial(activations, pad), (kernel_y, kernel_x), axis=(1, 2)
    )[:, ::stride, ::stride]  # (depth, out_y, out_x, kernel_y, kernel_x)
    out_y, out_x = windows.shape[1:3]
    out = np.empty(
        (num_filters, out_y, out_x), dtype=np.result_type(activations, weights)
    )
    for g in range(groups):
        cols = (
            windows[g * group_depth : (g + 1) * group_depth]
            .transpose(1, 2, 0, 3, 4)
            .reshape(out_y * out_x, -1)
        )
        filters = slice(g * group_filters, (g + 1) * group_filters)
        wt = weights[filters].reshape(group_filters, -1).T.copy()
        out[filters] = (cols @ wt).T.reshape(group_filters, out_y, out_x)
    out += 0.0 if bias is None else np.asarray(bias).reshape(num_filters, 1, 1)
    return out


def reference_fc(
    activations: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """``W @ x + b`` for one image, stacked for a batch."""
    if activations.ndim == 4:
        return np.stack(
            [reference_fc(image, weights, bias) for image in activations]
        )
    return weights @ activations.reshape(-1) + (0.0 if bias is None else bias)


def _window_max(values) -> float:
    best = values[0]
    for value in values[1:]:
        if not math.isnan(best) and (math.isnan(value) or value >= best):
            best = value
    return best


def reference_max_pool2d(
    activations: np.ndarray, kernel: int, stride: int, pad: int = 0
) -> np.ndarray:
    """Brute-force per-window max (see the module docstring's semantics)."""
    padded = _pad_spatial(activations, pad)
    out_y = (padded.shape[-2] - kernel) // stride + 1
    out_x = (padded.shape[-1] - kernel) // stride + 1
    out = np.empty((*padded.shape[:-2], out_y, out_x), dtype=activations.dtype)
    for index in np.ndindex(*padded.shape[:-2], out_y, out_x):
        *lead, oy, ox = index
        window = padded[
            (*lead, slice(oy * stride, oy * stride + kernel),
             slice(ox * stride, ox * stride + kernel))
        ]
        out[index] = _window_max([float(v) for v in window.reshape(-1)])
    return out


# ----------------------------------------------------------------------
# byte-level assertions
# ----------------------------------------------------------------------
def assert_same_bytes(actual: np.ndarray, expected: np.ndarray, case: str) -> None:
    """Shape, dtype and every byte equal; names the first differing byte."""
    actual = np.ascontiguousarray(actual)
    expected = np.ascontiguousarray(expected)
    assert (actual.shape, actual.dtype) == (expected.shape, expected.dtype), (
        f"{case}: shape/dtype {actual.shape}/{actual.dtype} != "
        f"{expected.shape}/{expected.dtype}"
    )
    if actual.tobytes() != expected.tobytes():
        bad = np.flatnonzero(
            actual.reshape(-1).view(np.uint8) != expected.reshape(-1).view(np.uint8)
        )
        raise AssertionError(f"{case}: first differing byte at {bad[0]}")


def assert_conv_matches_reference(
    activations: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    pad: int = 0,
    groups: int = 1,
    case: str = "",
) -> np.ndarray:
    """``conv2d`` ≡ :func:`reference_conv2d`, and batched ≡ per-image."""
    case = case or (
        f"conv stride={stride} pad={pad} groups={groups} "
        f"shape={activations.shape} dtype={activations.dtype}"
    )
    out = layers.conv2d(
        activations, weights, bias, stride=stride, pad=pad, groups=groups
    )
    assert_same_bytes(
        out,
        reference_conv2d(activations, weights, bias, stride, pad, groups),
        case,
    )
    if activations.ndim == 4:
        per_image = [
            layers.conv2d(image, weights, bias, stride=stride, pad=pad, groups=groups)
            for image in activations
        ]
        assert_same_bytes(out, np.stack(per_image), f"{case} batched")
    return out


def assert_fc_matches_reference(
    activations: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    case: str = "",
) -> np.ndarray:
    """``fully_connected`` ≡ ``W @ x + b``, and batched ≡ per-image."""
    case = case or f"fc shape={activations.shape} dtype={activations.dtype}"
    out = layers.fully_connected(activations, weights, bias)
    assert_same_bytes(out, reference_fc(activations, weights, bias), case)
    if activations.ndim == 4:
        per_image = [
            layers.fully_connected(image, weights, bias) for image in activations
        ]
        assert_same_bytes(out, np.stack(per_image), f"{case} batched")
    return out


# ----------------------------------------------------------------------
# whole-network differential
# ----------------------------------------------------------------------
@contextlib.contextmanager
def reference_kernels():
    """Route every ``conv2d``/``fully_connected`` call through the references."""
    saved = layers.conv2d, layers.fully_connected
    layers.conv2d, layers.fully_connected = reference_conv2d, reference_fc
    try:
        yield
    finally:
        layers.conv2d, layers.fully_connected = saved


def forward_fingerprint(
    network, store, image, thresholds=None
) -> dict[str, bytes]:
    """Byte fingerprint of every layer output (+ logits) of one forward."""
    result = run_forward(
        network, store, image, thresholds=thresholds, keep_outputs=True
    )
    fingerprint = {
        name: arr.tobytes() for name, arr in result.outputs.items()
    }
    if result.logits is not None:
        fingerprint["__logits__"] = result.logits.tobytes()
    return fingerprint


def assert_forward_matches_reference(
    network, store, image, thresholds=None
) -> None:
    """Every layer of a forward pass byte-identical to the reference pass."""
    actual = forward_fingerprint(network, store, image, thresholds)
    with reference_kernels():
        expected = forward_fingerprint(network, store, image, thresholds)
    assert actual.keys() == expected.keys()
    differing = [name for name, blob in actual.items() if blob != expected[name]]
    assert not differing, (
        f"{network.name}: kernels differ from reference at {differing}"
    )


# ----------------------------------------------------------------------
# the grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridCase:
    """One coordinate of the differential grid."""

    dtype: str
    stride: int
    pad: int
    groups: int
    batch: int
    threshold: float


def grid_cases(
    dtypes=("float64", "float32"),
    strides=(1, 2, 3),
    pads=(0, 1, 2),
    groups=(1, 2),
    batches=(1, 3),
    thresholds=(0.0, 0.3, 0.8),
):
    """The full dtype x stride x pad x groups x batch x threshold grid."""
    for combo in product(dtypes, strides, pads, groups, batches, thresholds):
        yield GridCase(*combo)


def run_conv_grid(rng: np.random.Generator, cases=None) -> int:
    """Assert conv ≡ reference across the grid; returns cases checked.

    Inputs are positive-mean random activations pruned at the case's
    threshold (higher thresholds leave whole patch-matrix columns and
    windows at zero), with a channel count that exercises
    ``depth % 16 != 0``.
    """
    checked = 0
    for case in cases if cases is not None else grid_cases():
        depth = 8 if case.groups == 2 else 7
        kernel = 3
        size = kernel + 2 * case.stride + 2  # a few windows per axis
        shape = (case.batch, depth, size, size + case.stride)
        activations = prune(
            np.maximum(rng.normal(0.3, 1.0, size=shape), 0.0),
            case.threshold,
        ).astype(case.dtype)
        if case.batch == 1:
            activations = activations[0]
        weights = rng.normal(
            size=(4, depth // case.groups, kernel, kernel)
        ).astype(case.dtype)
        bias = rng.normal(size=4).astype(case.dtype)
        assert_conv_matches_reference(
            activations, weights, bias,
            stride=case.stride, pad=case.pad, groups=case.groups,
            case=str(case),
        )
        checked += 1
    return checked


def run_fc_grid(rng: np.random.Generator, cases=None) -> int:
    """Assert FC ≡ reference across the (dtype x batch x threshold) grid."""
    checked = 0
    seen = set()
    for case in cases if cases is not None else grid_cases():
        key = (case.dtype, case.batch, case.threshold)
        if key in seen:
            continue
        seen.add(key)
        shape = (case.batch, 5, 4, 4)
        activations = prune(
            np.maximum(rng.normal(0.3, 1.0, size=shape), 0.0),
            case.threshold,
        ).astype(case.dtype)
        if case.batch == 1:
            activations = activations[0]
        weights = rng.normal(size=(9, 5 * 4 * 4)).astype(case.dtype)
        bias = rng.normal(size=9).astype(case.dtype)
        assert_fc_matches_reference(activations, weights, bias, case=str(case))
        checked += 1
    return checked
