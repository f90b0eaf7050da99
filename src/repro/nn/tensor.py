"""A small reverse-mode automatic differentiation engine backed by numpy.

This module is the core of :mod:`repro.nn`, the substrate that stands in for
PyTorch in this reproduction (see DESIGN.md).  It provides a :class:`Tensor`
type that records the operations applied to it and can backpropagate
gradients through the resulting computation graph.

The design mirrors PyTorch's eager autograd:

- every differentiable operation returns a new :class:`Tensor` whose
  ``_backward`` closure knows how to route the output gradient to the
  operation's inputs;
- :meth:`Tensor.backward` topologically sorts the graph with a DFS and
  runs those closures in reverse order;
- broadcasting is supported, with gradients summed back to the original
  operand shapes.

A node refers to its parents and its backward closure, never to a child,
so a graph holds no reference cycle and is freed as soon as nothing
refers to its output.  A leaf copies the first gradient it receives,
keeping its memory layout, so no op closure or sibling operand
(``a + a``) aliases a leaf's ``grad``.  The activations run the shared
kernels of :mod:`repro.nn.kernels`; the hot path itself replays captured
plans (:mod:`repro.nn.plan`, docs/PERF.md).

Only the operations needed by the streaming models in this repository are
implemented, but each is implemented fully (correct broadcasting, correct
gradients) rather than special-cased for one call site.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import kernels as _kernels
from . import record as _record

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "tensor", "zeros", "ones"]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

# Grad mode is per-thread, like torch's: concurrent replicas (the thread
# execution backend) must not see each other's ``no_grad`` sections.
_grad_state = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking, like ``torch.no_grad``."""
    previous = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients (this thread)."""
    return getattr(_grad_state, "enabled", True)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    array = np.asarray(value, dtype=dtype)
    if array.dtype == np.float16:  # promote: float16 accumulation is lossy
        array = array.astype(np.float32)
    return array


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape`` after a broadcast op.

    Broadcasting may both prepend axes and stretch length-1 axes; the
    gradient of a broadcast is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched length-1 axes.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array that supports reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array.
    requires_grad:
        If ``True``, operations on this tensor are recorded so gradients can
        be computed by :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = _as_array(data, dtype=None)
        if self.data.dtype.kind not in "fc":
            self.data = self.data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        if _record.ACTIVE:
            # A node born outside any recorded-op bracket poisons the
            # active plan capture (an op the engine cannot replay).
            _record.note_node()
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    # -- basic protocol ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=False)

    # -- gradient bookkeeping --------------------------------------------------

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            # A copy, because an op closure or a sibling parent (``a + a``)
            # may hold the same buffer; in its own layout, which the next
            # op on the gradient sums in.
            self.grad = grad.copy(order="K")
        else:
            self.grad = self.grad + grad

    def backward(self, grad: ArrayLike | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to 1 for scalar tensors, matching PyTorch.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(_as_array(grad), dtype=self.data.dtype)

        # DFS topological sort from this tensor, then deliver in reverse.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
            else:
                node._deliver(node_grad, grads)

    def _deliver(self, grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Run the backward closure, routing parent grads into ``grads``."""
        contributions = self._backward(grad)
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            contribution = _unbroadcast(
                np.asarray(contribution, dtype=parent.data.dtype), parent.data.shape
            )
            if parent._backward is None:
                parent._accumulate(contribution)
            else:
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contribution
                else:
                    grads[key] = contribution

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data
        return Tensor._make(data, (self, other_t), lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data
        return Tensor._make(data, (self, other_t), lambda g: (g, -g))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return other_t - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data
        a, b = self.data, other_t.data
        return Tensor._make(data, (self, other_t), lambda g: (g * b, g * a))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data
        a, b = self.data, other_t.data
        return Tensor._make(
            data, (self, other_t), lambda g: (g / b, -g * a / (b * b))
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return other_t / self

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        data = self.data ** exponent
        base = self.data
        return Tensor._make(
            data, (self,), lambda g: (g * exponent * base ** (exponent - 1),)
        )

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data
        a, b = self.data, other_t.data

        def backward(g: np.ndarray):
            if a.ndim == 1 and b.ndim == 1:  # dot product
                return g * b, g * a
            if a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                return g @ b.T, np.outer(a, g)
            if b.ndim == 1:  # (m, k) @ (k,) -> (m,)
                return np.outer(g, b), a.T @ g
            grad_a = g @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ g
            return grad_a, grad_b

        return Tensor._make(data, (self, other_t), backward)

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return other_t @ self

    # -- comparisons (detached, boolean) ----------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        return self.data == _as_array(other)

    def __ne__(self, other):  # type: ignore[override]
        return self.data != _as_array(other)

    def __lt__(self, other):
        return self.data < _as_array(other)

    def __le__(self, other):
        return self.data <= _as_array(other)

    def __gt__(self, other):
        return self.data > _as_array(other)

    def __ge__(self, other):
        return self.data >= _as_array(other)

    def __hash__(self):
        return id(self)

    # -- shape ops ---------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        data = self.data.reshape(shape)
        return Tensor._make(data, (self,), lambda g: (g.reshape(original),))

    def flatten_batch(self) -> "Tensor":
        """Flatten all but the first (batch) axis."""
        return self.reshape(self.data.shape[0], -1)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)
        return Tensor._make(data, (self,), lambda g: (g.transpose(inverse),))

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        shape = self.data.shape
        dtype = self.data.dtype

        def backward(g: np.ndarray):
            full = np.zeros(shape, dtype=dtype)
            np.add.at(full, index, g)
            return (full,)

        return Tensor._make(data, (self,), backward)

    # -- reductions ----------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_expanded, shape).copy(),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        source = self.data

        def backward(g: np.ndarray):
            if axis is None:
                mask = (source == data).astype(source.dtype)
                mask /= mask.sum()
                return (mask * g,)
            expanded = data if keepdims else np.expand_dims(data, axis)
            mask = (source == expanded).astype(source.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            return (mask * g_expanded,)

        return Tensor._make(data, (self,), backward)

    # -- elementwise nonlinearities ---------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        return Tensor._make(data, (self,), lambda g: (g * data,))

    def log(self) -> "Tensor":
        source = self.data
        return Tensor._make(np.log(source), (self,), lambda g: (g / source,))

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        return Tensor._make(data, (self,), lambda g: (g / (2.0 * data),))

    def tanh(self) -> "Tensor":
        return self._activation("tanh")

    def sigmoid(self) -> "Tensor":
        return self._activation("sigmoid")

    def relu(self) -> "Tensor":
        return self._activation("relu")

    def _activation(self, name: str) -> "Tensor":
        """The shared activation kernel ``name`` as an autograd node."""
        x = self.data
        out = _kernels.empty_result(x)
        _kernels.activation_forward(name, x, out)

        def backward(g: np.ndarray):
            grad = _kernels.empty_result(g, out)
            # ReLU's mask is C-ordered whatever ``out``'s layout: the
            # gradient it multiplies arrives C-ordered (a pool's backward,
            # a Linear's), and a multiply over two layouts runs several
            # times slower.
            mask = scratch = None
            if name == "relu":
                mask = np.empty(out.shape, dtype=bool)
            else:
                scratch = np.empty_like(out)
            _kernels.activation_backward(name, g, out, mask, grad, scratch)
            return (grad,)

        return Tensor._make(out, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        return Tensor._make(np.abs(self.data), (self,), lambda g: (g * sign,))

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        data = np.clip(self.data, low, high)
        return Tensor._make(data, (self,), lambda g: (g * mask,))


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a :class:`Tensor`, mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False, dtype=np.float64) -> Tensor:
    """Create a zero-filled tensor."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False, dtype=np.float64) -> Tensor:
    """Create a one-filled tensor."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)
