"""Optimizers for :mod:`repro.nn`.

:class:`SGD` and :class:`Adam` mirror their PyTorch counterparts and drive
the streaming models.  :class:`FOBOS` and :class:`RDA` implement the
regularized online-learning updates the Alink baseline integrates with
logistic regression (see the paper's appendix, "Details of baseline").

Hot path: ``SGD`` and ``Adam`` update a single preflattened float64
buffer in place — each parameter's ``.data`` becomes a reshaped view into
it, in the spirit of ``state_spec``/``flatten_state`` from
:mod:`repro.distributed.backends`.  Every update is elementwise, and the
in-place step issues the exact same per-element float operations as the
per-parameter loop, so results stay bitwise-identical (asserted in
``tests/test_perf.py``).  The loop still runs whatever the flat step
cannot: parameters that are not all float64, or a step where some
parameter has no gradient.  External code that replaces
``parameter.data`` (``load_state_dict``, checkpoint restore) is
re-adopted into the flat buffer on the next step, and so is a copied
optimizer, whose views no longer alias its buffer.

Only this module knows where an optimizer keeps its state: the flat
buffer's ``extra`` or the per-parameter dicts.  Checkpoints read and
write it through :meth:`Optimizer.state_dict` /
:meth:`Optimizer.load_state_dict`, stacked arenas through
``_state_of`` / ``_state_slot``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import record as _record
from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "FOBOS", "RDA"]


class _FlatState:
    """Preflattened parameter storage for the in-place optimizers."""

    __slots__ = ("flat", "grad", "views", "slices", "scratch_a", "scratch_b",
                 "extra")

    def __init__(self, parameters: list[Tensor]):
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

    # -- in-place fast path helpers -------------------------------------------

    def _flat_state(self) -> _FlatState | None:
        """Adopt parameters into the flat buffer; None when ineligible.

        Eligibility: every parameter is float64 (mixed dtypes keep the
        legacy loop).  A parameter whose ``.data`` was replaced since the
        last step (``load_state_dict``, checkpoint restore) is copied
        back into its view and re-adopted.  When the replacement no
        longer fits its stale view (a restore changed shape or dtype),
        the old buffer is dropped — salvaging its optimizer state — and
        eligibility is re-evaluated from the parameters' *current* data,
        so one incompatible restore does not disable the fast path for
        the optimizer's remaining lifetime.  A copied optimizer's buffer
        is dropped the same way: ``copy.deepcopy`` or a serialization
        round trip makes each view a standalone array, so stepping the
        copied buffer would move no parameter.
        """
        flat = self._flat
        if flat is not None and flat.views[0].base is not flat.flat:
            self._drop_flat_state()
            flat = None
        if flat is not None:
            for parameter, view in zip(self.parameters, flat.views):
                if parameter.data is view:
                    continue
                if (parameter.data.shape == view.shape
                        and parameter.data.dtype == np.float64):
                    view[...] = parameter.data
                    parameter.data = view
                    continue
                self._drop_flat_state()
                flat = None
                break
            if flat is not None:
                return flat
        if any(parameter.data.dtype != np.float64
               for parameter in self.parameters):
            return None
        flat = _FlatState(self.parameters)
        self._flat = flat
        return flat

    def _drop_flat_state(self) -> None:
        """Retire the flat buffer, handing its state back per parameter.

        Parameters still viewing the buffer keep their values (the views
        keep the buffer alive until re-adoption copies them out).
        """
        if self._flat is None:
            return
        self._export_flat_state()
        self._flat = None

    def _export_flat_state(self) -> None:
        """Hand flat-buffer optimizer state back to per-parameter dicts."""
        flat = self._flat
        if flat is None:
            return
        for name in self._state_names():
            buffer = flat.extra.pop(name, None)
            if buffer is None:
                continue
            # The buffer's own layout (view shapes) is the state's true
            # shape — parameter.data may have been replaced with a
            # different shape since the last step.
            entries = getattr(self, "_" + name)
            for index, ((start, end), view) in enumerate(
                    zip(flat.slices, flat.views)):
                entries[index] = buffer[start:end].reshape(view.shape).copy()

    # -- state access ----------------------------------------------------------

    def _state_names(self) -> tuple[str, ...]:
        """Per-parameter state the steps keep, each in the flat buffer's
        ``extra`` or in the dict ``_<name>``."""
        return ()

    def _state_of(self, name: str, index: int) -> np.ndarray | None:
        """The ``name`` state the next step reads for parameter ``index``,
        in its own layout; None means zeros.

        That is the flat buffer's entry when there is one, else the
        per-parameter dict entry, which the next flat step would migrate.
        """
        flat = self._flat
        if flat is not None:
            buffer = flat.extra.get(name)
            if buffer is not None:
                start, end = flat.slices[index]
                return buffer[start:end].reshape(flat.views[index].shape)
        return getattr(self, "_" + name).get(index)

    def _state_slot(self, name: str, index: int,
                    shape: tuple) -> np.ndarray:
        """Writable storage the next step reads ``name`` state for
        parameter ``index`` from.

        Inside the flat buffer when the optimizer has one — created as
        zeros on first use, superseding the per-parameter dict, so every
        index must then be written — else the dict entry.
        """
        flat = self._flat
        if flat is not None:
            buffer = flat.extra.get(name)
            if buffer is None:
                buffer = flat.extra[name] = np.zeros_like(flat.flat)
                getattr(self, "_" + name).clear()
            start, end = flat.slices[index]
            return buffer[start:end].reshape(shape)
        entries = getattr(self, "_" + name)
        entry = entries.get(index)
        if entry is None or entry.shape != shape:
            entry = entries[index] = np.zeros(shape)
        return entry

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
        """Replace the state with a :meth:`state_dict` mapping: absent
        entries start fresh, a key this optimizer does not keep raises
        ValueError."""
        loaded = {name: {} for name in self._state_names()}
        for key, value in state.items():
            name, _, index = key.rpartition(".")
            if name not in loaded or not index.isdigit():
                raise ValueError(
                    f"{type(self).__name__} keeps no state {key!r}")
            loaded[name][int(index)] = np.array(value, copy=True)
        self._export_flat_state()  # flat state would outrank the dicts
        for name, entries in loaded.items():
            setattr(self, "_" + name, entries)

    def _gather_grads(self, flat: _FlatState) -> bool:
        """Copy all parameter grads into ``flat.grad``; False if any is missing."""
        if any(parameter.grad is None for parameter in self.parameters):
            return False
        buffer = flat.grad
        for parameter, (start, end) in zip(self.parameters, flat.slices):
            buffer[start:end] = parameter.grad.reshape(-1)
        return True


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
        self._velocity: dict[int, np.ndarray] = {}

    def step(self) -> None:
        if _record.ACTIVE:
            _record.note_step(self)
        if self._flat_step():
            return
        self._export_flat_state()
        for index, parameter, grad in self._grads():
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                velocity = self._velocity.get(index)
                if velocity is None or velocity.shape != parameter.data.shape:
                    # Shape changed under a restore: momentum restarts.
                    velocity = np.zeros_like(parameter.data)
                velocity = self.momentum * velocity + grad
                self._velocity[index] = velocity
                grad = velocity
            parameter.data = parameter.data - self.lr * grad

    def _flat_step(self) -> bool:
        """One whole-buffer in-place update; per-element ops match the loop."""
        flat = self._flat_state()
        if flat is None or not self._gather_grads(flat):
            # Missing grads (or mixed dtypes) keep legacy subset semantics.
            return False
        grad = flat.grad
        if self.weight_decay:
            np.multiply(flat.flat, self.weight_decay, out=flat.scratch_a)
            grad += flat.scratch_a
        if self.momentum:
            velocity = flat.extra.get("velocity")
            if velocity is None:
                velocity = np.zeros_like(flat.flat)
                if self._velocity:  # migrate state from earlier legacy steps
                    for index, (start, end) in enumerate(flat.slices):
                        legacy = self._velocity.get(index)
                        if legacy is not None and legacy.size == end - start:
                            velocity[start:end] = legacy.reshape(-1)
                    self._velocity.clear()
                flat.extra["velocity"] = velocity
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        np.multiply(grad, self.lr, out=flat.scratch_b)
        flat.flat -= flat.scratch_b
        return True

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
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(self) -> None:
        if _record.ACTIVE:
            _record.note_step(self)
        self._step_count += 1
        if self._flat_step():
            return
        self._export_flat_state()
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for index, parameter, grad in self._grads():
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            m = self._m.get(index)
            v = self._v.get(index)
            if m is None or m.shape != parameter.data.shape:
                # Absent — or stale after a shape-changing restore.
                m = np.zeros_like(parameter.data)
                v = np.zeros_like(parameter.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self._m[index] = m
            self._v[index] = v
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _flat_step(self) -> bool:
        """Whole-buffer Adam update, bitwise-equal to the per-parameter loop."""
        flat = self._flat_state()
        if flat is None or not self._gather_grads(flat):
            return False
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        grad = flat.grad
        if self.weight_decay:
            np.multiply(flat.flat, self.weight_decay, out=flat.scratch_a)
            grad += flat.scratch_a
        m = flat.extra.get("m")
        v = flat.extra.get("v")
        if m is None:
            m = np.zeros_like(flat.flat)
            v = np.zeros_like(flat.flat)
            if self._m:  # migrate state from earlier legacy steps
                for index, (start, end) in enumerate(flat.slices):
                    legacy_m = self._m.get(index)
                    legacy_v = self._v.get(index)
                    if legacy_m is not None and legacy_m.size == end - start:
                        m[start:end] = legacy_m.reshape(-1)
                    if legacy_v is not None and legacy_v.size == end - start:
                        v[start:end] = legacy_v.reshape(-1)
                self._m.clear()
                self._v.clear()
            flat.extra["m"] = m
            flat.extra["v"] = v
        # Each line replays one elementwise op of the legacy expressions,
        # in the same order, so every float result is identical.
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=flat.scratch_a)
        m += flat.scratch_a
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=flat.scratch_a)
        flat.scratch_a *= grad
        v += flat.scratch_a
        np.divide(m, bias1, out=flat.scratch_a)          # m_hat
        np.divide(v, bias2, out=flat.scratch_b)          # v_hat
        np.sqrt(flat.scratch_b, out=flat.scratch_b)
        flat.scratch_b += self.eps
        flat.scratch_a *= self.lr
        flat.scratch_a /= flat.scratch_b
        flat.flat -= flat.scratch_a
        return True

    def _state_names(self) -> tuple[str, ...]:
        return ("m", "v")

    def state_dict(self) -> dict[str, np.ndarray]:
        state = super().state_dict()
        state["step_count"] = np.array(self._step_count)
        return state

    def load_state_dict(self, state: dict) -> None:
        state = dict(state)
        self._step_count = int(state.pop("step_count", 0))
        super().load_state_dict(state)


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
