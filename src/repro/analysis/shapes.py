"""Symbolic shape and dtype propagation through :mod:`repro.nn` graphs.

A model architecture can be validated against an input specification
*without running any data*: the batch dimension stays symbolic (the
string ``"N"`` by default) and every layer's output spec is derived from
its input spec by a per-module-type rule.  A mismatched ``Linear`` chain,
a convolution whose output would be empty, or a channel-count conflict is
reported as a :class:`GraphValidationError` naming the offending layer —
at load/validation time, not at batch 10k.

Typical usage::

    from repro.analysis import TensorSpec, infer_shapes, validate_model

    traces = infer_shapes(module, TensorSpec(("N", 20)))
    print(traces[-1].output)          # TensorSpec(shape=('N', 5), ...)

    validate_model(streaming_model)   # input spec derived from the model

New module types register a rule with :func:`register_shape_rule`::

    @register_shape_rule(MyLayer)
    def _my_layer(module, spec):
        return TensorSpec(spec.shape[:-1] + (module.out,), spec.dtype)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn import functional as F
from ..nn.modules import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)

__all__ = [
    "BATCH",
    "TensorSpec",
    "LayerTrace",
    "GraphValidationError",
    "register_shape_rule",
    "infer_shapes",
    "infer_output_spec",
    "input_spec_for",
    "validate_model",
]

#: Default symbol for the (unknown) batch dimension.
BATCH = "N"

#: Dimensions are concrete ints or symbolic strings (e.g. ``"N"``).
Dim = "int | str"


class GraphValidationError(ValueError):
    """A module graph is inconsistent with its input specification."""

    def __init__(self, message: str, layer: str = ""):
        self.layer = layer
        super().__init__(f"{layer}: {message}" if layer else message)


@dataclass(frozen=True)
class TensorSpec:
    """Shape (ints and symbols) plus dtype of one tensor."""

    shape: tuple
    dtype: str = "float64"

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))
        for dim in self.shape:
            if isinstance(dim, str):
                continue
            if not isinstance(dim, (int, np.integer)) or dim < 1:
                raise ValueError(
                    f"dimensions must be symbols or positive ints; got {dim!r}"
                )

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def is_concrete(self) -> bool:
        """True when every dimension is a concrete integer."""
        return all(not isinstance(dim, str) for dim in self.shape)

    def __str__(self) -> str:
        dims = ", ".join(str(dim) for dim in self.shape)
        return f"({dims}) {self.dtype}"


@dataclass
class LayerTrace:
    """One layer's contribution to an inferred graph."""

    name: str                       # dotted path, e.g. "layer0" or "<root>"
    kind: str                       # module class name
    input: TensorSpec
    output: TensorSpec
    children: list = field(default_factory=list)


_SHAPE_RULES: dict = {}


def register_shape_rule(module_type):
    """Decorator registering ``rule(module, spec) -> TensorSpec``."""
    def decorator(rule):
        _SHAPE_RULES[module_type] = rule
        return rule
    return decorator


def _require_ndim(spec: TensorSpec, ndim: int, what: str) -> None:
    if spec.ndim != ndim:
        raise GraphValidationError(
            f"{what} expects a {ndim}-d input; got {spec}"
        )


def _concrete(dim, what: str):
    if isinstance(dim, str):
        raise GraphValidationError(
            f"{what} must be concrete to infer the output; got symbol {dim!r}"
        )
    return int(dim)


def _promote(spec_dtype: str, weight: np.ndarray) -> str:
    return str(np.promote_types(np.dtype(spec_dtype), weight.dtype))


@register_shape_rule(Linear)
def _linear_rule(module: Linear, spec: TensorSpec) -> TensorSpec:
    if spec.ndim < 2:
        raise GraphValidationError(
            f"Linear expects at least a (batch, features) input; got {spec}"
        )
    last = spec.shape[-1]
    if isinstance(last, str):
        raise GraphValidationError(
            f"Linear needs a concrete feature dimension; got symbol {last!r}"
        )
    if int(last) != module.in_features:
        raise GraphValidationError(
            f"Linear expects {module.in_features} input features, but the "
            f"incoming tensor has {int(last)} (input spec {spec})"
        )
    return TensorSpec(spec.shape[:-1] + (module.out_features,),
                      _promote(spec.dtype, module.weight.data))


def _pooled_size(size: int, kernel: int, stride: int, padding: int,
                 what: str) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise GraphValidationError(
            f"{what} output would be empty: input {size} with kernel "
            f"{kernel}, stride {stride}, padding {padding}"
        )
    return out


@register_shape_rule(Conv2d)
def _conv2d_rule(module: Conv2d, spec: TensorSpec) -> TensorSpec:
    _require_ndim(spec, 4, "Conv2d")
    channels = spec.shape[1]
    if isinstance(channels, str):
        raise GraphValidationError(
            f"Conv2d needs a concrete channel dimension; got symbol "
            f"{channels!r}"
        )
    if int(channels) != module.in_channels:
        raise GraphValidationError(
            f"Conv2d expects {module.in_channels} input channels, but the "
            f"incoming tensor has {int(channels)} (input spec {spec})"
        )
    kernel_h, kernel_w = module.kernel_size
    stride_h, stride_w = F._pair(module.stride)
    pad_h, pad_w = F._pair(module.padding)
    height = _concrete(spec.shape[2], "Conv2d input height")
    width = _concrete(spec.shape[3], "Conv2d input width")
    out_h = _pooled_size(height, kernel_h, stride_h, pad_h, "Conv2d height")
    out_w = _pooled_size(width, kernel_w, stride_w, pad_w, "Conv2d width")
    return TensorSpec((spec.shape[0], module.out_channels, out_h, out_w),
                      _promote(spec.dtype, module.weight.data))


@register_shape_rule(MaxPool2d)
def _max_pool2d_rule(module: MaxPool2d, spec: TensorSpec) -> TensorSpec:
    _require_ndim(spec, 4, "MaxPool2d")
    kernel_h, kernel_w = F._pair(module.kernel_size)
    stride = module.kernel_size if module.stride is None else module.stride
    stride_h, stride_w = F._pair(stride)
    height = _concrete(spec.shape[2], "MaxPool2d input height")
    width = _concrete(spec.shape[3], "MaxPool2d input width")
    out_h = _pooled_size(height, kernel_h, stride_h, 0, "MaxPool2d height")
    out_w = _pooled_size(width, kernel_w, stride_w, 0, "MaxPool2d width")
    return TensorSpec((spec.shape[0], spec.shape[1], out_h, out_w), spec.dtype)


@register_shape_rule(Flatten)
def _flatten_rule(module: Flatten, spec: TensorSpec) -> TensorSpec:
    if spec.ndim < 2:
        raise GraphValidationError(
            f"Flatten expects at least a 2-d input; got {spec}"
        )
    flat = 1
    for dim in spec.shape[1:]:
        flat *= _concrete(dim, "Flatten non-batch dimension")
    return TensorSpec((spec.shape[0], flat), spec.dtype)


def _identity_rule(module: Module, spec: TensorSpec) -> TensorSpec:
    return spec


for _activation in (ReLU, Tanh, Sigmoid, Dropout):
    _SHAPE_RULES[_activation] = _identity_rule


def _trace(module: Module, spec: TensorSpec, name: str) -> LayerTrace:
    if isinstance(module, Sequential):
        trace = LayerTrace(name=name, kind="Sequential", input=spec,
                           output=spec)
        current = spec
        for index, layer in enumerate(module):
            child = _trace(layer, current,
                           name=f"{name}.layer{index}" if name != "<root>"
                           else f"layer{index}")
            trace.children.append(child)
            current = child.output
        trace.output = current
        return trace
    rule = _SHAPE_RULES.get(type(module))
    if rule is None:
        # Fall back to the first registered base class, so subclasses of
        # known layers (e.g. a custom Linear) verify without extra wiring.
        for base, base_rule in _SHAPE_RULES.items():
            if isinstance(module, base):
                rule = base_rule
                break
    if rule is None:
        raise GraphValidationError(
            f"no shape rule registered for {type(module).__name__}; add one "
            f"with repro.analysis.register_shape_rule", layer=name,
        )
    try:
        output = rule(module, spec)
    except GraphValidationError as error:
        if error.layer:
            raise
        raise GraphValidationError(str(error), layer=name) from None
    return LayerTrace(name=name, kind=type(module).__name__, input=spec,
                      output=output)


def _flat_traces(trace: LayerTrace) -> list:
    if not trace.children:
        return [trace]
    traces = []
    for child in trace.children:
        traces.extend(_flat_traces(child))
    return traces


def infer_shapes(module: Module, input_spec: TensorSpec) -> list:
    """Propagate ``input_spec`` through ``module``; return leaf layer traces.

    Raises :class:`GraphValidationError` on any inconsistency.  The returned
    list covers each leaf layer in execution order; ``traces[-1].output`` is
    the graph's output spec.
    """
    if not isinstance(module, Module):
        raise TypeError(f"expected a repro.nn Module; got {type(module).__name__}")
    root = _trace(module, input_spec, name="<root>")
    return _flat_traces(root)


def infer_output_spec(module: Module, input_spec: TensorSpec) -> TensorSpec:
    """The output spec of ``module`` for ``input_spec`` (no data executed)."""
    return infer_shapes(module, input_spec)[-1].output


def input_spec_for(model, batch=BATCH) -> TensorSpec:
    """The network input spec a neural :class:`StreamingModel` prepares:
    ``(batch, *model.module_input_shape)``, the shape its ``_prepare``
    reshapes each batch to — ``(N, num_features)`` for tabular models,
    ``(N, c, h, w)`` for an image CNN and ``(N, 1, 1, d)`` for a tabular
    one."""
    return TensorSpec((batch, *model.module_input_shape))


def validate_model(model, batch=BATCH) -> list:
    """Statically validate a neural streaming model's architecture.

    Checks that the module graph is shape-consistent from the input spec
    the model prepares, and that it ends in ``(batch, num_classes)``.
    Returns the layer traces on success.
    """
    module = getattr(model, "module", None)
    if not isinstance(module, Module):
        raise TypeError(
            f"{type(model).__name__} carries no repro.nn module to verify"
        )
    traces = infer_shapes(module, input_spec_for(model, batch=batch))
    output = traces[-1].output
    expected = (batch, model.num_classes)
    if output.shape != expected:
        raise GraphValidationError(
            f"model output spec {output} does not match the expected "
            f"(batch, num_classes) = {expected}"
        )
    return traces
