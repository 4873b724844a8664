"""Forward-pass engine for :class:`~repro.nn.network.Network` descriptions.

This is the functional substrate the paper gets from Caffe: it computes the
activations flowing between layers so that (a) the zero-neuron statistics of
Section II can be measured, (b) the cycle simulators have real inputs to
process, and (c) hardware outputs can be validated layer by layer
("on-the-fly validation of the layer output neurons", Section V-A).

The engine supports:

* per-conv-layer *pruning thresholds* (Section V-E): at the output of a
  layer, post-ReLU values with magnitude below the layer's threshold are
  zeroed — exactly what the CNV encoder does with the reused max-pooling
  comparators;
* per-layer *calibration shifts* (see :mod:`repro.nn.calibration`) which
  stand in for the learned biases of the pretrained models;
* optional 16-bit fixed-point quantization at layer boundaries, matching
  the accelerator datapath;
* *batched* inference: a ``(batch, depth, H, W)`` image stack runs every
  image through the network in one pass, bit-identical to per-image calls
  (see :mod:`repro.nn.layers` for how the BLAS calls preserve this).

Activations are computed in the input's floating dtype: a float32 image
over float32 weights stays float32 end to end (integer inputs are promoted
to float64).  Incremental re-use of activations across threshold
configurations lives in :mod:`repro.nn.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.nn import layers as F
from repro.nn.network import LayerKind, LayerSpec, Network
from repro.nn.tensor import FixedPointFormat, dequantize, quantize

__all__ = [
    "WeightStore",
    "ForwardResult",
    "init_weights",
    "run_forward",
    "apply_layer",
]


@dataclass
class WeightStore:
    """Weights and biases for the conv/FC layers of one network.

    ``shifts`` holds per-layer calibration offsets added to the layer's
    pre-activations — scalars or per-output-channel arrays (broadcast over
    the spatial dims).  They play the role of the learned biases that set
    each unit's operating point (and hence its zero fraction); per-channel
    shifts keep every channel live, as trained biases do.
    """

    weights: dict[str, np.ndarray] = field(default_factory=dict)
    biases: dict[str, np.ndarray] = field(default_factory=dict)
    shifts: dict[str, float | np.ndarray] = field(default_factory=dict)

    def shift(self, layer_name: str):
        return self.shifts.get(layer_name, 0.0)


def init_weights(
    network: Network, rng: np.random.Generator, dtype=np.float64
) -> WeightStore:
    """He-initialized random weights for every conv and FC layer.

    The reproduction substitutes pretrained Model-Zoo weights with random
    filters whose scale keeps activation variance roughly constant across
    layers (He et al. scaling); :mod:`repro.nn.calibration` then sets the
    per-layer shifts so the zero-neuron fractions match the paper's Fig. 1.

    Weights are drawn in float64 and cast to ``dtype`` layer by layer, so
    the store's bytes equal drawing everything and casting afterwards
    while only one layer's float64 draw is ever alive.
    """
    store = WeightStore()
    for layer in network.layers:
        if layer.kind == LayerKind.CONV:
            depth = network.input_shape_of(layer.name)[0] // layer.groups
            fan_in = depth * layer.kernel * layer.kernel
            shape = (layer.num_filters, depth, layer.kernel, layer.kernel)
        elif layer.kind == LayerKind.FC:
            in_shape = network.input_shape_of(layer.name)
            fan_in = in_shape[0] * in_shape[1] * in_shape[2]
            shape = (layer.num_filters, fan_in)
        else:
            continue
        scale = np.sqrt(2.0 / fan_in)
        store.weights[layer.name] = rng.normal(0.0, scale, size=shape).astype(
            dtype, copy=False
        )
        store.biases[layer.name] = np.zeros(layer.num_filters, dtype=dtype)
    return store


@dataclass
class ForwardResult:
    """All per-layer activations produced by one forward pass.

    Attributes
    ----------
    outputs:
        Output activation of every layer, by name.  For a batched pass
        every array carries the leading batch axis.
    conv_inputs:
        The activation array *consumed* by each conv layer — the neuron
        stream whose zeros CNV skips.  For grouped convolutions this is the
        full (ungrouped) input; the simulators handle the group split.
    logits:
        Output of the last FC layer (before softmax), if any — ``(classes,)``
        per image, ``(batch, classes)`` for a batched pass.  ``None`` when
        the pass stopped before the classifier (``logits=False``).
    """

    outputs: dict[str, np.ndarray]
    conv_inputs: dict[str, np.ndarray]
    logits: np.ndarray | None = None

    def prob(self) -> np.ndarray | None:
        """Softmax probabilities if the network ends in a softmax layer."""
        for name in reversed(list(self.outputs)):
            if name == "prob":
                return self.outputs[name]
        return None


def _apply_shift(pre: np.ndarray, shift) -> np.ndarray:
    """Add a scalar or per-channel shift to a pre-activation array."""
    if np.ndim(shift) == 1 and pre.ndim == 3:
        return pre + np.asarray(shift).reshape(-1, 1, 1)
    if np.ndim(shift) == 1 and pre.ndim == 4:
        return pre + np.asarray(shift).reshape(1, -1, 1, 1)
    return pre + shift


def _producer_output(
    network: Network,
    index: int,
    layer: LayerSpec,
    outputs: dict[str, np.ndarray],
    image: np.ndarray,
) -> np.ndarray:
    if layer.input_from is None:
        if index == 0:
            return image
        return outputs[network.layers[index - 1].name]
    if len(layer.input_from) != 1:
        raise ValueError(f"layer {layer.name!r} has multiple producers")
    return outputs[layer.input_from[0]]


def apply_layer(
    layer: LayerSpec,
    src: np.ndarray,
    store: WeightStore,
    thresholds: dict[str, float],
    shift_fn=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Compute one layer's raw output from its (already gathered) input.

    ``src`` is the layer's input activation — for CONCAT layers, pass the
    already concatenated array.  Returns ``(out, logits)`` where ``logits``
    is non-``None`` only for FC and SOFTMAX layers (the *pre-quantization*
    logit vector).  Works on both single-image (3-D) and batched (4-D)
    activations.  Quantization at the layer boundary is the caller's job.
    """
    batched = src.ndim == 4
    if layer.kind == LayerKind.CONV:
        pre = F.conv2d(
            src,
            store.weights[layer.name],
            store.biases[layer.name],
            stride=layer.stride,
            pad=layer.pad,
            groups=layer.groups,
        )
        if shift_fn is not None:
            pre = _apply_shift(pre, shift_fn(layer.name, pre))
        else:
            pre = _apply_shift(pre, store.shift(layer.name))
        if layer.fused_relu:
            return F.threshold_relu(pre, thresholds.get(layer.name, 0.0)), None
        return pre, None
    if layer.kind == LayerKind.RELU:
        return F.threshold_relu(src, thresholds.get(layer.name, 0.0)), None
    if layer.kind == LayerKind.MAXPOOL:
        return F.max_pool2d(src, layer.kernel, layer.stride, layer.pad), None
    if layer.kind == LayerKind.AVGPOOL:
        return F.avg_pool2d(src, layer.kernel, layer.stride, layer.pad), None
    if layer.kind == LayerKind.LRN:
        return F.lrn(src, local_size=layer.lrn_size), None
    if layer.kind == LayerKind.DROPOUT:
        return src, None  # identity at inference time
    if layer.kind == LayerKind.FC:
        pre = F.fully_connected(
            src, store.weights[layer.name], store.biases[layer.name]
        )
        if shift_fn is not None:
            pre = _apply_shift(pre, shift_fn(layer.name, pre))
        else:
            pre = _apply_shift(pre, store.shift(layer.name))
        if layer.fused_relu:
            pre = F.threshold_relu(pre, thresholds.get(layer.name, 0.0))
        if batched:
            out = pre.reshape(pre.shape[0], layer.num_filters, 1, 1)
        else:
            out = pre.reshape(layer.num_filters, 1, 1)
        return out, pre
    if layer.kind == LayerKind.SOFTMAX:
        if batched:
            logits = src.reshape(src.shape[0], -1)
        else:
            logits = src.reshape(-1)  # softmax input, FC or not (nin)
        return F.softmax(logits).reshape(src.shape), logits
    raise AssertionError(f"unhandled kind {layer.kind}")  # pragma: no cover


def run_forward(
    network: Network,
    store: WeightStore,
    image: np.ndarray,
    thresholds: dict[str, float] | None = None,
    collect_conv_inputs: bool = True,
    fmt: FixedPointFormat | None = None,
    keep_outputs: bool = True,
    shift_fn=None,
    formats: dict[str, FixedPointFormat] | None = None,
    logits: bool = True,
) -> ForwardResult:
    """Run one image — or a stack of images — through the network.

    Parameters
    ----------
    network, store, image:
        The network description, its weights, and a ``(depth, H, W)`` input
        or ``(batch, depth, H, W)`` stack.  The pass computes in the
        image's floating dtype (integer images are promoted to float64).
        A batched pass produces bit-identical arrays to running each image
        separately, with every result carrying the leading batch axis.
    thresholds:
        Optional per-layer pruning thresholds (real-valued); applied to the
        post-ReLU output of the named conv/FC layers (Section V-E dynamic
        neuron pruning).
    collect_conv_inputs:
        Record the neuron array consumed by each conv layer (needed for the
        sparsity statistics and the accelerator simulations).
    fmt:
        If given, quantize activations to this fixed-point format at every
        layer boundary, as the hardware stores them in NM.
    keep_outputs:
        If false, only ``conv_inputs``/``logits`` are retained (saves
        memory on deep networks).
    shift_fn:
        Optional ``(layer_name, pre_activation) -> shift`` hook used by the
        calibration pass (:mod:`repro.nn.calibration`): when provided it
        overrides ``store.shifts`` for conv/FC layers and sees the raw
        (unshifted) pre-activation.
    formats:
        Optional *per-layer* fixed-point formats applied to the named
        layers' outputs — the variable-precision value property the
        paper's conclusion points at (Judd et al., "Stripes"); used by
        :mod:`repro.extensions.precision`.
    logits:
        If false, the pass stops at the last conv layer in
        ``network.layers`` order: every conv input is recorded, nothing
        from that layer on is computed, and ``ForwardResult.logits`` is
        ``None``.  Requires ``keep_outputs=False``.
    """
    stop = _stop_index(network, logits, keep_outputs)
    image = np.asarray(image)
    if image.shape != network.input_shape and not (
        image.ndim == 4 and image.shape[1:] == network.input_shape
    ):
        raise ValueError(
            f"image shape {image.shape} != network input {network.input_shape}"
        )
    thresholds = thresholds or {}
    formats = formats or {}

    def maybe_quantize(arr: np.ndarray, layer_name: str | None = None) -> np.ndarray:
        layer_fmt = formats.get(layer_name) if layer_name else None
        if layer_fmt is not None:
            arr = dequantize(quantize(arr, layer_fmt), layer_fmt)
        if fmt is None:
            return arr
        return dequantize(quantize(arr, fmt), fmt)

    outputs: dict[str, np.ndarray] = {}
    conv_inputs: dict[str, np.ndarray] = {}
    final_logits: np.ndarray | None = None
    remaining = _consumer_counts(network)

    if not np.issubdtype(image.dtype, np.floating):
        image = image.astype(np.float64)
    image = maybe_quantize(image)

    for idx, layer in enumerate(network.layers):
        src = None
        if layer.kind != LayerKind.CONCAT:
            src = _producer_output(network, idx, layer, outputs, image)
            if layer.kind == LayerKind.CONV and collect_conv_inputs:
                conv_inputs[layer.name] = src
        if idx == stop:
            break
        with obs.span(
            f"layer:{layer.name}", cat="nn", network=network.name,
            kind=layer.kind,
        ) as layer_span:
            if src is None:
                parts = [outputs[name] for name in layer.input_from]
                out = np.concatenate(parts, axis=parts[0].ndim - 3)
            else:
                out, layer_logits = apply_layer(layer, src, store, thresholds, shift_fn)
                if layer_logits is not None:
                    final_logits = layer_logits

            out = maybe_quantize(out, layer.name)
            outputs[layer.name] = out
            if obs.tracing_enabled():
                layer_span.set(shape=str(out.shape))

        if not keep_outputs:
            _release_consumed(network, idx, outputs, remaining)

    return ForwardResult(
        outputs=outputs if keep_outputs else {},
        conv_inputs=conv_inputs,
        logits=final_logits,
    )


def _stop_index(network: Network, logits: bool, keep_outputs: bool) -> int | None:
    """The layer index at which a forward walk stops, or ``None`` (walk all).

    A caller that reads no logits needs only the conv inputs.  Layers are
    in topological order, so once the input of the last conv layer is
    recorded every conv input is, and nothing from that layer on can
    change them: the walk records that input and stops there.  Both
    forward loops (:func:`run_forward` and the incremental engine) apply
    this one rule.  Partial outputs would be misleading, so ``logits=False``
    rejects ``keep_outputs=True``.
    """
    if logits:
        return None
    if keep_outputs:
        raise ValueError("logits=False stops the walk early; pass keep_outputs=False")
    return max(
        (idx for idx, layer in enumerate(network.layers)
         if layer.kind == LayerKind.CONV),
        default=0,
    )


def _consumer_counts(network: Network) -> dict[str, int]:
    """How many later layers read each layer's output (for memory release)."""
    counts = {layer.name: 0 for layer in network.layers}
    for idx, layer in enumerate(network.layers):
        if layer.kind == LayerKind.CONCAT:
            for src in layer.input_from:
                counts[src] += 1
        elif layer.input_from is not None:
            counts[layer.input_from[0]] += 1
        elif idx > 0:
            counts[network.layers[idx - 1].name] += 1
    return counts


def _release_consumed(
    network: Network,
    index: int,
    outputs: dict[str, np.ndarray],
    remaining: dict[str, int],
) -> None:
    layer = network.layers[index]
    sources: list[str] = []
    if layer.kind == LayerKind.CONCAT:
        sources = list(layer.input_from)
    elif layer.input_from is not None:
        sources = [layer.input_from[0]]
    elif index > 0:
        sources = [network.layers[index - 1].name]
    for src in sources:
        remaining[src] -= 1
        if remaining[src] == 0:
            outputs.pop(src, None)
