"""Neural-network modules for :mod:`repro.nn`, mirroring ``torch.nn``.

Provides the :class:`Module` container protocol (parameter discovery,
``state_dict`` / ``load_state_dict``, train/eval mode) and the concrete
layers used by the streaming models in this reproduction: :class:`Linear`,
:class:`Conv2d`, :class:`MaxPool2d`, activations, :class:`Dropout`,
:class:`Flatten`, and :class:`Sequential`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterator

import numpy as np

from . import functional as F
from . import init
from . import record as _record
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "Flatten",
    "Sequential",
]


class Parameter(Tensor):
    """A :class:`Tensor` that a :class:`Module` treats as trainable state."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural-network modules.

    Assigning a :class:`Parameter` or another :class:`Module` as an attribute
    registers it automatically, so :meth:`parameters` and :meth:`state_dict`
    discover the full tree without manual bookkeeping.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        else:
            # Re-assigning a registered slot to a plain value unregisters it
            # (e.g. ``self.bias = None`` for a bias-free layer).
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    # -- forward -------------------------------------------------------------

    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    # -- parameter discovery ---------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for this module and children."""
        for name, parameter in self._parameters.items():
            yield prefix + name, parameter
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """Return all parameters of this module tree."""
        return [parameter for _, parameter in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(parameter.size for parameter in self.parameters())

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    # -- training state ----------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set train/eval mode recursively (affects e.g. :class:`Dropout`)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- state dict ----------------------------------------------------------------

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Return a copy of all parameter arrays keyed by dotted name."""
        return OrderedDict(
            (name, parameter.data.copy()) for name, parameter in self.named_parameters()
        )

    def validate_state_dict(self, state: dict) -> dict:
        """Check parameter arrays produced by :meth:`state_dict` without
        writing any; returns them by parameter name.

        Key sets must match, each array's shape must equal the resident
        parameter's, and its dtype must be of the same kind (a float
        parameter rejects an integer or complex blob; width changes like
        float32 → float64 are fine).  Errors name the offending parameter.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        incoming = {name: np.asarray(state[name]) for name in own}
        for name, parameter in own.items():
            value = incoming[name]
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {name!r}: "
                    f"expected {parameter.data.shape}, got {value.shape}"
                )
            if (value.dtype.kind != parameter.data.dtype.kind
                    or not np.can_cast(value.dtype, parameter.data.dtype,
                                       casting="same_kind")):
                raise TypeError(
                    f"dtype mismatch for parameter {name!r}: expected "
                    f"{parameter.data.dtype} (kind {parameter.data.dtype.kind!r}), "
                    f"got {value.dtype}"
                )
        return incoming

    def load_state_dict(self, state: dict) -> None:
        """Load parameter arrays produced by :meth:`state_dict` in place,
        once :meth:`validate_state_dict` has accepted every one."""
        incoming = self.validate_state_dict(state)
        for name, parameter in self.named_parameters():
            parameter.data = incoming[name].astype(parameter.data.dtype)


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with torch-style ``(out, in)`` weight."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()  # repro: noqa[REP001] — explicit opt-out of seeding
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(init.uniform((out_features,), rng, -bound, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.fused_linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return (
            f"Linear(in_features={self.in_features}, "
            f"out_features={self.out_features}, bias={self.bias is not None})"
        )


class Conv2d(Module):
    """2-D convolution layer over ``(batch, channels, H, W)`` input."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()  # repro: noqa[REP001] — explicit opt-out of seeding
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = F._pair(kernel_size)
        self.stride = stride
        self.padding = padding
        kernel_h, kernel_w = self.kernel_size
        shape = (out_channels, in_channels, kernel_h, kernel_w)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        if bias:
            fan_in = in_channels * kernel_h * kernel_w
            bound = 1.0 / math.sqrt(fan_in)
            self.bias = Parameter(init.uniform((out_channels,), rng, -bound, bound))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias,
                        stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )


class MaxPool2d(Module):
    """2-D max pooling (``kernel_size``/``stride`` may be ints or pairs)."""

    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1); got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng()  # repro: noqa[REP001] — explicit opt-out of seeding

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        rec = _record.current() if _record.ACTIVE else None
        if rec is not None:
            rec.begin()
        out = x.flatten_batch()
        if rec is not None:
            rec.end(("flatten", x, out))
        return out


#: The activation modules and the kernel each runs.  Sequential folds
#: one into a preceding Linear, and the stacked engine folds the same
#: pairs (exact types only — a subclass may override forward arbitrarily).
_ACTIVATION_NAMES = {ReLU: "relu", Tanh: "tanh", Sigmoid: "sigmoid"}


class Sequential(Module):
    """Run child modules in order.

    A ``Linear`` directly followed by a ``ReLU``/``Tanh``/``Sigmoid``
    executes as one fused autograd node
    (:func:`repro.nn.functional.fused_linear`) — the values are those of
    running the two layers one after the other, only the graph is
    smaller.
    """

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)

    def forward(self, x: Tensor) -> Tensor:
        layers = self.layers
        count = len(layers)
        index = 0
        while index < count:
            layer = layers[index]
            if type(layer) is Linear and index + 1 < count:
                activation = _ACTIVATION_NAMES.get(type(layers[index + 1]))
                if activation is not None:
                    x = F.fused_linear(x, layer.weight, layer.bias,
                                       activation=activation)
                    index += 2
                    continue
            x = layer(x)
            index += 1
        return x

    def __iter__(self):
        return iter(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)
