"""Optimizers for :mod:`repro.nn`.

:class:`SGD` and :class:`Adam` mirror their PyTorch counterparts and drive
the streaming models.  :class:`FOBOS` and :class:`RDA` implement the
regularized online-learning updates the Alink baseline integrates with
logistic regression (see the paper's appendix, "Details of baseline").

``SGD`` and ``Adam`` keep everything a step touches in one preflattened
float64 buffer, in the spirit of ``state_spec``/``flatten_state`` from
:mod:`repro.distributed.backends`: each parameter's ``.data`` is a
reshaped view into it, the gradients are gathered into a second one, and
the momentum or Adam moments lie beside them in the same layout.  A step
is one call of :func:`repro.nn.kernels.sgd_step` or
:func:`~repro.nn.kernels.adam_step` over the whole buffers, or one per
parameter slice when some parameter has no gradient; that parameter and
its state stay as they are.  Only float64 parameters are supported.  A
``parameter.data`` replaced from outside (``load_state_dict``, checkpoint
restore) is copied back into its view on the next step.  A shape change,
or a copy whose views no longer alias its buffer, rebuilds the buffer:
the state carries over for every parameter whose shape held and restarts
at zeros for the others.

Only this module knows the buffer's layout.  Checkpoints read and write
the state through :meth:`Optimizer.state_dict` /
:meth:`Optimizer.load_state_dict`, stacked arenas through ``_state_of`` /
``_state_slot``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import kernels as _kernels
from . import record as _record
from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "FOBOS", "RDA"]


class _FlatState:
    """Preflattened storage for the in-place optimizers.

    ``flat`` backs the parameters, ``grad`` gathers their gradients,
    ``scratch_a``/``scratch_b`` are the step kernels' operands and
    ``extra`` maps each per-parameter state a step keeps to a buffer of
    the same layout (see :meth:`state`).  Built from ``previous``, the
    buffer it replaces, ``extra`` carries over each parameter's slice
    whose shape held.
    """

    __slots__ = ("flat", "grad", "views", "slices", "scratch_a", "scratch_b",
                 "extra")

    def __init__(self, parameters: list[Tensor],
                 previous: "_FlatState | None" = None):
        for index, parameter in enumerate(parameters):
            if parameter.data.dtype != np.float64:
                raise TypeError(
                    f"SGD and Adam step float64 parameters; parameter "
                    f"{index} of shape {parameter.data.shape} is "
                    f"{parameter.data.dtype}")
        total = sum(parameter.data.size for parameter in parameters)
        self.flat = np.empty(total)
        self.grad = np.empty(total)
        self.scratch_a = np.empty(total)
        self.scratch_b = np.empty(total)
        self.views: list[np.ndarray] = []
        self.slices: list[tuple[int, int]] = []
        self.extra: dict[str, np.ndarray] = {}
        offset = 0
        for parameter in parameters:
            count = parameter.data.size
            view = self.flat[offset:offset + count].reshape(parameter.data.shape)
            view[...] = parameter.data
            parameter.data = view
            self.views.append(view)
            self.slices.append((offset, offset + count))
            offset += count
        if previous is None:
            return
        for name, old in previous.extra.items():
            buffer = self.state(name)
            for (start, end), view, (old_start, old_end), old_view in zip(
                    self.slices, self.views, previous.slices, previous.views):
                if view.shape == old_view.shape:
                    buffer[start:end] = old[old_start:old_end]

    def state(self, name: str) -> np.ndarray:
        """The ``name`` state buffer, made as zeros on first use."""
        buffer = self.extra.get(name)
        if buffer is None:
            buffer = self.extra[name] = np.zeros_like(self.flat)
        return buffer


class Optimizer:
    """Base class holding a flat list of parameters to update."""

    def __init__(self, parameters: Iterable[Tensor]):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self._flat: _FlatState | None = None

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _grads(self):
        """Yield ``(index, parameter, gradient)`` for parameters with grads."""
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is not None:
                yield index, parameter, parameter.grad

    # -- the flat buffer ------------------------------------------------------

    def _flat_state(self) -> _FlatState:
        """The flat buffer the next step updates, built on first use.

        A parameter whose ``.data`` was replaced by a float64 array of its
        view's shape is copied back into the view.  Any other replacement
        rebuilds the buffer from the parameters' current data, and so
        does a copied optimizer: ``copy.deepcopy`` or a serialization
        round trip makes each view a standalone array, so stepping the
        copied buffer would move no parameter.  Raises TypeError for a
        parameter that is not float64.
        """
        flat = self._flat
        if flat is not None and flat.views[0].base is flat.flat:
            for parameter, view in zip(self.parameters, flat.views):
                data = parameter.data
                if data is view:
                    continue
                if data.shape != view.shape or data.dtype != np.float64:
                    break
                view[...] = data
                parameter.data = view
            else:
                return flat
        flat = self._flat = _FlatState(self.parameters, flat)
        return flat

    def _parts(self, flat: _FlatState) -> list:
        """Gather the gradients into ``flat.grad``; return the indices a
        step runs its kernel over: ``[...]``, the whole buffers, when
        every parameter has a gradient, else each slice that has one."""
        parts = []
        for parameter, (start, end) in zip(self.parameters, flat.slices):
            if parameter.grad is not None:
                flat.grad[start:end] = parameter.grad.reshape(-1)
                parts.append(slice(start, end))
        return [...] if len(parts) == len(self.parameters) else parts

    # -- state access ----------------------------------------------------------

    def _state_names(self) -> tuple[str, ...]:
        """Per-parameter state the steps keep in the flat buffer."""
        return ()

    def _state_of(self, name: str, index: int) -> np.ndarray | None:
        """The ``name`` state the next step reads for parameter ``index``,
        a view in the parameter's shape; None means zeros (no step yet,
        or the parameter's shape changed since the last one)."""
        flat = self._flat
        buffer = None if flat is None else flat.extra.get(name)
        if buffer is None:
            return None
        view = flat.views[index]
        if self.parameters[index].data.shape != view.shape:
            return None
        start, end = flat.slices[index]
        return buffer[start:end].reshape(view.shape)

    def _state_slot(self, name: str, index: int) -> np.ndarray:
        """Writable storage the next step reads ``name`` state for
        parameter ``index`` from, in the parameter's shape."""
        flat = self._flat
        shape = self.parameters[index].data.shape
        if flat is None or flat.views[index].shape != shape:
            flat = self._flat_state()
        start, end = flat.slices[index]
        return flat.state(name)[start:end].reshape(shape)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of the state the next step reads besides the parameters:
        ``"<name>.<parameter index>"`` arrays (``velocity``; ``m``, ``v``)
        and bare-named counters (Adam's 0-d ``step_count``).  Reading
        never moves the state."""
        state = {}
        for name in self._state_names():
            for index in range(len(self.parameters)):
                value = self._state_of(name, index)
                if value is not None:
                    state[f"{name}.{index}"] = value.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Replace the state with a :meth:`state_dict` mapping; absent
        entries start fresh.

        Every entry is checked before any is written: a key this
        optimizer does not keep, an index past its parameters, or an
        array not shaped like its parameter or not of a float or integer
        dtype raises ValueError naming the key.
        """
        names = self._state_names()
        entries = []
        for key, value in state.items():
            name, _, index = key.rpartition(".")
            if (name not in names or not index.isdigit()
                    or int(index) >= len(self.parameters)):
                raise ValueError(
                    f"{type(self).__name__} keeps no state {key!r}")
            value = np.asarray(value)
            shape = self.parameters[int(index)].data.shape
            if value.shape != shape or value.dtype.kind not in "fiu":
                raise ValueError(
                    f"{type(self).__name__} state {key!r} is {value.dtype} "
                    f"of shape {value.shape}; its parameter is {shape}")
            entries.append((name, int(index), value))
        flat = self._flat_state() if entries else self._flat
        if flat is None:
            return
        flat.extra.clear()
        for name, index, value in entries:
            start, end = flat.slices[index]
            flat.state(name)[start:end] = value.reshape(-1)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Iterable[Tensor], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive; got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1); got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay

    def step(self) -> None:
        if _record.ACTIVE:
            _record.note_step(self)
        flat = self._flat_state()
        velocity = flat.state("velocity") if self.momentum else None
        for part in self._parts(flat):
            _kernels.sgd_step(flat.flat[part], flat.grad[part],
                              None if velocity is None else velocity[part],
                              flat.scratch_a[part], self.lr, self.momentum,
                              self.weight_decay)

    def _state_names(self) -> tuple[str, ...]:
        return ("velocity",) if self.momentum else ()


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive; got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0

    def step(self) -> None:
        if _record.ACTIVE:
            _record.note_step(self)
        flat = self._flat_state()
        self._step_count += 1
        m, v = flat.state("m"), flat.state("v")
        for part in self._parts(flat):
            _kernels.adam_step(flat.flat[part], flat.grad[part], m[part],
                               v[part], flat.scratch_a[part],
                               flat.scratch_b[part], self.lr, self.beta1,
                               self.beta2, self.eps, self.weight_decay,
                               self._step_count)

    def _state_names(self) -> tuple[str, ...]:
        return ("m", "v")

    def state_dict(self) -> dict[str, np.ndarray]:
        state = super().state_dict()
        state["step_count"] = np.array(self._step_count)
        return state

    def load_state_dict(self, state: dict) -> None:
        state = dict(state)
        count = np.asarray(state.pop("step_count", 0))
        if count.shape or count.dtype.kind not in "iu" or count < 0:
            raise ValueError(
                f"Adam state 'step_count' must be a non-negative integer; "
                f"got {count!r}")
        super().load_state_dict(state)
        self._step_count = int(count)


def _soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    """Elementwise soft-thresholding operator for L1 proximal steps."""
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


class FOBOS(Optimizer):
    """Forward-Backward Splitting (Duchi & Singer, 2009) with L1 penalty.

    Each step takes an SGD step followed by the proximal (soft-threshold)
    step, yielding sparse, stable weights for streaming logistic regression
    — the behaviour the paper attributes to Alink.
    """

    def __init__(self, parameters: Iterable[Tensor], lr: float,
                 l1: float = 1e-5):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive; got {lr}")
        if l1 < 0:
            raise ValueError(f"l1 strength must be non-negative; got {l1}")
        self.lr = lr
        self.l1 = l1
        self._step_count = 0

    def step(self) -> None:
        self._step_count += 1
        # Decaying step size eta_t = lr / sqrt(t), standard for FOBOS.
        eta = self.lr / np.sqrt(self._step_count)
        for _, parameter, grad in self._grads():
            updated = parameter.data - eta * grad
            parameter.data = _soft_threshold(updated, eta * self.l1)


class RDA(Optimizer):
    """Regularized Dual Averaging (Xiao, 2010) with L1 regularization.

    Maintains the running average gradient and solves the regularized
    proximal problem in closed form each step.
    """

    def __init__(self, parameters: Iterable[Tensor], l1: float = 1e-5,
                 gamma: float = 1.0):
        super().__init__(parameters)
        if l1 < 0:
            raise ValueError(f"l1 strength must be non-negative; got {l1}")
        if gamma <= 0:
            raise ValueError(f"gamma must be positive; got {gamma}")
        self.l1 = l1
        self.gamma = gamma
        self._step_count = 0
        self._grad_sum: dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        scale = np.sqrt(t) / self.gamma
        for index, parameter, grad in self._grads():
            total = self._grad_sum.get(index)
            if total is None:
                total = np.zeros_like(parameter.data)
            total = total + grad
            self._grad_sum[index] = total
            mean_grad = total / t
            # w_{t+1} = -sqrt(t)/gamma * soft_threshold(mean_grad, l1)
            parameter.data = -scale * _soft_threshold(mean_grad, self.l1)
