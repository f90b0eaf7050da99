"""Captured-plan execution: trace once, replay many (see docs/PERF.md).

Streaming models run the *same* op sequence every batch, yet the
define-by-run engine rebuilds Tensor wrappers, backward closures, and
intermediate arrays each time.  This module removes that fixed cost the
way CUDA graphs do: the first ``fit``/``predict_proba`` for a signature
runs the normal path under the :mod:`repro.nn.record` tracer, the trace
is compiled into a flat list of *replay kernels* — ``out=``-style numpy
calls into a preallocated buffer arena — and subsequent batches replay
the kernels with zero graph construction.

**Safety model.**  Capture is self-verifying: the reference run and a
trial replay are compared — parameters, optimizer state, Dropout RNG
states, and loss bytes must be **bitwise identical** — before a plan is
cached.  Any mismatch (or any op the compiler does not recognize) marks
the signature unsupported and the model keeps using the reference path.
Capture therefore never changes results, only speed.

**Sharing.**  A plan holds no model: it records the *positions* of the
parameters and Dropout layers it reads, and each replay binds it to the
calling model's (or stack's) parameters, optimizer, and Dropout
generators.  Kernels fetch ``parameter.data``, optimizer state, and RNG
state at call time, so a plan serves every model with the same
structure — class, ``architecture_key``, optimizer class — and
checkpoint restores or pickling never leave it stale.  Plans live in one
cache per thread, bounded by the bytes their arenas hold; the stacked
arenas of :mod:`repro.nn.stacked` share it and its budget.  The whole
engine sits behind the ``plan_capture`` flag in :mod:`repro.perf.config`.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter, OrderedDict
from time import perf_counter
from typing import NamedTuple

import numpy as np

from ..perf.config import config as _perf_config
from . import record as _record
from .modules import Dropout
from .optim import Adam, Optimizer, SGD

__all__ = [
    "PlanUnsupported",
    "replay_kernel",
    "add_plan_hook",
    "remove_plan_hook",
    "plan_cache_stats",
    "fit_with_plan",
    "proba_with_plan",
    "stacked_fit_with_plan",
    "clear_plans",
    "PLAN_CACHE_COUNTER",
]

#: Metric name for plan-cache events (capture / replay / unsupported /
#: invalidate), exported by :class:`repro.perf.HotPathProfiler`.
PLAN_CACHE_COUNTER = "freeway_plan_cache"

#: Arena bytes one thread's plan cache may hold — plans and stacked
#: arenas together — before it evicts least recently used entries.  16 MiB
#: keeps a 1024-row MLP stream's steady fit and proba plans (about 2.3 MB)
#: beside its current long-window fit plan.
_PLAN_CACHE_BYTES = 16 << 20


class PlanUnsupported(Exception):
    """The trace contains something the plan compiler cannot replay."""


def replay_kernel(fn):
    """Mark ``fn`` as a replay kernel: it must only write into the arena.

    The marker is what lint rule REP012 keys on — per-batch ``Tensor``
    / ``np.zeros`` / ``np.empty`` allocation inside a replay kernel
    defeats the engine's whole point, so the analyzer flags it.
    """
    fn.__replay_kernel__ = True
    return fn


# -- events ------------------------------------------------------------------

_HOOKS: list = []
_HOOKS_LOCK = threading.Lock()
_STATS: Counter = Counter()
_STATS_LOCK = threading.Lock()


def add_plan_hook(hook) -> None:
    """Register ``hook(event, seconds)`` for plan-cache events.

    Events: ``"capture"`` (a plan was compiled and verified),
    ``"replay"`` (a cached plan ran; timed only while hooks are
    registered), ``"unsupported"`` (capture fell back permanently for a
    signature), ``"invalidate"`` (a cached plan was dropped).
    """
    with _HOOKS_LOCK:
        if hook not in _HOOKS:
            _HOOKS.append(hook)


def remove_plan_hook(hook) -> None:
    """Unregister a hook added with :func:`add_plan_hook`."""
    with _HOOKS_LOCK:
        if hook in _HOOKS:
            _HOOKS.remove(hook)


def plan_cache_stats() -> dict:
    """Cumulative event counts (process-wide, monotonic)."""
    with _STATS_LOCK:
        return dict(_STATS)


def _notify(event: str, seconds: float = 0.0) -> None:
    with _STATS_LOCK:
        _STATS[event] += 1
    with _HOOKS_LOCK:
        hooks = list(_HOOKS)
    for hook in hooks:
        hook(event, seconds)


# -- state snapshot for capture-time verification ----------------------------


def _freeze(value):
    """Hashable/comparable form of an RNG-state entry (dicts, arrays)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    return value


class _Snapshot:
    """Copy of everything a training step mutates, for verify/rollback."""

    __slots__ = ("_optimizer", "_rngs", "_params", "_state", "_rng_states")

    def __init__(self, optimizer: Optimizer, rngs: list):
        self._optimizer = optimizer
        self._rngs = rngs
        self._params = [(p, p.data.copy()) for p in optimizer.parameters]
        self._state = self._optimizer_state()
        self._rng_states = [_freeze(rng.bit_generator.state) for rng in rngs]

    def _optimizer_state(self) -> dict:
        opt = self._optimizer
        opt._export_flat_state()  # flat.extra → per-parameter dicts
        state: dict = {}
        if isinstance(opt, SGD):
            state["velocity"] = {k: v.copy() for k, v in opt._velocity.items()}
        elif isinstance(opt, Adam):
            state["m"] = {k: v.copy() for k, v in opt._m.items()}
            state["v"] = {k: v.copy() for k, v in opt._v.items()}
            state["t"] = opt._step_count
        return state

    def restore(self) -> None:
        opt = self._optimizer
        for parameter, saved in self._params:
            parameter.data = saved.copy()
        opt._export_flat_state()
        if isinstance(opt, SGD):
            opt._velocity.clear()
            opt._velocity.update(
                {k: v.copy() for k, v in self._state["velocity"].items()})
        elif isinstance(opt, Adam):
            opt._m.clear()
            opt._v.clear()
            opt._m.update({k: v.copy() for k, v in self._state["m"].items()})
            opt._v.update({k: v.copy() for k, v in self._state["v"].items()})
            opt._step_count = self._state["t"]
        for rng, frozen in zip(self._rngs, self._rng_states):
            rng.bit_generator.state = _unfreeze_rng(frozen)

    def matches(self, other: "_Snapshot") -> bool:
        if len(self._params) != len(other._params):
            return False
        for (_, a), (_, b) in zip(self._params, other._params):
            if a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
        return (_freeze_state(self._state) == _freeze_state(other._state)
                and self._rng_states == other._rng_states)


def _freeze_state(state: dict):
    return tuple(sorted((k, _freeze(v)) for k, v in state.items()))


def _unfreeze_rng(frozen):
    """Invert :func:`_freeze` for a bit-generator state dict."""
    def thaw(value):
        if isinstance(value, tuple) and value and isinstance(value[0], tuple):
            return {k: thaw(v) for k, v in value}
        if (isinstance(value, tuple) and len(value) == 3
                and isinstance(value[2], bytes)):
            return np.frombuffer(value[2], dtype=np.dtype(value[1])).reshape(
                value[0]).copy()
        return value
    return thaw(frozen)


def _buffer_like(array: np.ndarray) -> np.ndarray:
    """A fresh arena buffer for ``array``'s shape; float64 only."""
    if array.dtype != np.float64:
        raise PlanUnsupported(f"non-float64 buffer dtype {array.dtype}")
    return np.empty(array.shape)


def _arena_bytes(parts) -> int:
    """Bytes of the distinct numpy buffers held in ``parts``' slots."""
    buffers: dict[int, int] = {}
    for part in parts:
        for name in part.__slots__:
            value = getattr(part, name, None)
            if isinstance(value, np.ndarray):
                buffers[id(value)] = value.nbytes
    return sum(buffers.values())


# -- replay kernels ----------------------------------------------------------
#
# Each kernel replays one recorded op's exact float operations into
# preallocated buffers.  ``forward``/``backward``/``step`` are marked
# with @replay_kernel: they must not allocate (lint rule REP012).
# Kernels hold positions, never parameters: ``params`` and ``dropouts``
# are the calling model's, passed in on every replay, and parameter
# arrays are fetched via ``.data`` at call time so checkpoint restores
# and flat-state re-adoption can never leave a kernel stale.


class _LinearKernel:
    """``x @ W.T + b`` (+ fused activation) — mirrors ``fused_linear``."""

    __slots__ = ("windex", "bindex", "activation", "stacked", "x", "out",
                 "mask", "scratch", "g_out", "g_in", "w_scratch", "gw", "gb")

    def __init__(self, x_buf, out_ref, weight_ref, bias_ref, windex, bindex,
                 activation, stacked):
        self.windex = windex
        self.bindex = bindex    # -1 without a bias
        self.activation = activation
        self.stacked = stacked
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.mask = (np.empty(out_ref.shape, dtype=bool)
                     if activation == "relu" else None)
        self.scratch = (_buffer_like(out_ref)
                        if activation in ("tanh", "sigmoid") else None)
        self.w_scratch = np.empty(np.swapaxes(weight_ref, -1, -2).shape)
        self.gw = np.empty(weight_ref.shape)
        self.gb = np.empty(bias_ref.shape) if bias_ref is not None else None
        self.g_out = None   # wired by the compiler (grad w.r.t. self.out)
        self.g_in = None    # grad w.r.t. self.x; None for the first layer

    @replay_kernel
    def forward(self, params, dropouts) -> None:
        w = params[self.windex].data
        np.matmul(self.x, np.swapaxes(w, -1, -2), out=self.out)
        if self.bindex >= 0:
            b = params[self.bindex].data
            np.add(self.out, b[:, None, :] if self.stacked else b,
                   out=self.out)
        if self.activation == "relu":
            np.greater(self.out, 0.0, out=self.mask)
            np.maximum(self.out, 0.0, out=self.out)
        elif self.activation == "tanh":
            np.tanh(self.out, out=self.out)
        elif self.activation == "sigmoid":
            np.clip(self.out, -60.0, 60.0, out=self.scratch)
            np.negative(self.scratch, out=self.scratch)
            np.exp(self.scratch, out=self.scratch)
            np.add(self.scratch, 1.0, out=self.scratch)
            np.divide(1.0, self.scratch, out=self.out)

    @replay_kernel
    def backward(self, params) -> None:
        g = self.g_out
        if self.activation == "relu":
            np.multiply(g, self.mask, out=g)
        elif self.activation == "tanh":
            np.multiply(self.out, self.out, out=self.scratch)
            np.subtract(1.0, self.scratch, out=self.scratch)
            np.multiply(g, self.scratch, out=g)
        elif self.activation == "sigmoid":
            np.subtract(1.0, self.out, out=self.scratch)
            np.multiply(g, self.out, out=g)
            np.multiply(g, self.scratch, out=g)
        if self.g_in is not None:
            np.matmul(g, params[self.windex].data, out=self.g_in)
        # grad_W = (x.T @ g).T — matmul with the same operand layout as
        # the reference closure, then a float-op-free transposed copy.
        np.matmul(np.swapaxes(self.x, -1, -2), g, out=self.w_scratch)
        self.gw[...] = np.swapaxes(self.w_scratch, -1, -2)
        if self.gb is not None:
            np.sum(g, axis=-2, out=self.gb)


class _ActKernel:
    """A standalone activation — mirrors the ``Tensor`` method ops."""

    __slots__ = ("name", "x", "out", "mask", "scratch", "g_out", "g_in")

    def __init__(self, name, x_buf, out_ref):
        self.name = name
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.mask = (np.empty(out_ref.shape, dtype=bool)
                     if name == "relu" else None)
        self.scratch = (_buffer_like(out_ref)
                        if name in ("tanh", "sigmoid") else None)
        self.g_out = None
        self.g_in = None

    @replay_kernel
    def forward(self, params, dropouts) -> None:
        if self.name == "relu":
            # Tensor.relu computes fmax(x + 0.0, 0.0), whose bits are the
            # selection np.where(x > 0, x, 0.0) on every input (NaN and
            # -0.0 give +0.0): replayed as fill + masked copy.
            np.greater(self.x, 0.0, out=self.mask)
            self.out.fill(0.0)
            np.copyto(self.out, self.x, where=self.mask)
        elif self.name == "tanh":
            np.tanh(self.x, out=self.out)
        elif self.name == "sigmoid":
            np.clip(self.x, -60.0, 60.0, out=self.scratch)
            np.negative(self.scratch, out=self.scratch)
            np.exp(self.scratch, out=self.scratch)
            np.add(self.scratch, 1.0, out=self.scratch)
            np.divide(1.0, self.scratch, out=self.out)

    @replay_kernel
    def backward(self, params) -> None:
        g = self.g_out
        if self.name == "relu":
            np.multiply(g, self.mask, out=g)
        elif self.name == "tanh":
            np.multiply(self.out, self.out, out=self.scratch)
            np.subtract(1.0, self.scratch, out=self.scratch)
            np.multiply(g, self.scratch, out=g)
        elif self.name == "sigmoid":
            np.subtract(1.0, self.out, out=self.scratch)
            np.multiply(g, self.out, out=g)
            np.multiply(g, self.scratch, out=g)
        if self.g_in is not None:
            np.copyto(self.g_in, g)


class _DropoutKernel:
    """Inverted dropout drawing from the live generator(s) each replay.

    ``dropouts[index]`` is the bound model's Dropout layer, or for a
    stacked plan the list of per-model layers of one stacked op.
    """

    __slots__ = ("p", "index", "stacked", "x", "out", "rand", "maskb",
                 "maskf", "g_out", "g_in")

    def __init__(self, p, index, stacked, x_buf, out_ref):
        self.p = p
        self.index = index
        self.stacked = stacked
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.rand = np.empty(out_ref.shape)
        self.maskb = np.empty(out_ref.shape, dtype=bool)
        self.maskf = np.empty(out_ref.shape)
        self.g_out = None
        self.g_in = None

    @replay_kernel
    def forward(self, params, dropouts) -> None:
        if self.stacked:
            for model, layer in enumerate(dropouts[self.index]):
                layer.rng.random(out=self.rand[model])
        else:
            dropouts[self.index].rng.random(out=self.rand)
        np.greater_equal(self.rand, self.p, out=self.maskb)
        np.copyto(self.maskf, self.maskb)
        np.divide(self.maskf, 1.0 - self.p, out=self.maskf)
        np.multiply(self.x, self.maskf, out=self.out)

    @replay_kernel
    def backward(self, params) -> None:
        if self.g_in is not None:
            np.multiply(self.g_out, self.maskf, out=self.g_in)


class _CrossEntropyKernel:
    """Fused softmax cross-entropy, 2-D or stacked — exact ufunc replay."""

    __slots__ = ("stacked", "logits", "rows", "cols", "models", "mask",
                 "mx", "shifted", "expb", "norm", "logp", "scratch",
                 "picked", "loss_vec", "gln", "g_logits", "row_idx",
                 "model_idx", "inv_count", "neg_inv")

    def __init__(self, logits_buf, logits_ref, stacked):
        self.stacked = stacked
        self.logits = logits_buf
        shape = logits_ref.shape
        if stacked:
            self.models, self.rows, self.cols = shape
            self.model_idx = np.arange(self.models)[:, None]
            self.row_idx = np.arange(self.rows)[None, :]
            self.picked = np.empty((self.models, self.rows))
            self.loss_vec = np.empty(self.models)
            self.gln = np.empty((self.models, self.rows, 1))
            norm_shape = (self.models, self.rows, 1)
        else:
            self.models = 1
            self.rows, self.cols = shape
            self.model_idx = None
            self.row_idx = np.arange(self.rows)
            self.picked = np.empty(self.rows)
            self.loss_vec = None
            self.gln = np.empty((self.rows, 1))
            norm_shape = (self.rows, 1)
        self.mask = np.empty(shape)
        self.mx = np.empty(norm_shape)
        self.shifted = np.empty(shape)
        self.expb = np.empty(shape)
        self.norm = np.empty(norm_shape)
        self.logp = np.empty(shape)
        self.scratch = np.empty(shape)
        self.g_logits = np.empty(shape)
        self.inv_count = 1.0 / self.rows
        # backward seed is 1.0 per model; (-1.0) * inv_count is exact.
        self.neg_inv = -self.inv_count

    @replay_kernel
    def forward(self, labels: np.ndarray):
        if self.stacked:
            if labels.shape != (self.models, self.rows):
                raise ValueError(
                    f"labels must have shape {(self.models, self.rows)}; "
                    f"got {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.cols):
            raise ValueError(
                f"labels must lie in [0, {self.cols}); got range "
                f"[{labels.min()}, {labels.max()}]")
        self.mask.fill(0.0)
        if self.stacked:
            self.mask[self.model_idx, self.row_idx, labels] = 1.0
        else:
            self.mask[self.row_idx, labels] = 1.0
        np.max(self.logits, axis=-1, keepdims=True, out=self.mx)
        np.subtract(self.logits, self.mx, out=self.shifted)
        np.exp(self.shifted, out=self.expb)
        np.sum(self.expb, axis=-1, keepdims=True, out=self.norm)
        np.log(self.norm, out=self.mx)
        np.subtract(self.shifted, self.mx, out=self.logp)
        np.multiply(self.logp, self.mask, out=self.scratch)
        np.sum(self.scratch, axis=-1, out=self.picked)
        if self.stacked:
            np.sum(self.picked, axis=-1, out=self.loss_vec)
            np.multiply(self.loss_vec, self.inv_count, out=self.loss_vec)
            np.negative(self.loss_vec, out=self.loss_vec)
            return self.loss_vec
        return -(self.picked.sum() * self.inv_count)

    @replay_kernel
    def backward(self) -> None:
        np.multiply(self.mask, self.neg_inv, out=self.g_logits)
        np.negative(self.g_logits, out=self.scratch)
        np.sum(self.scratch, axis=-1, keepdims=True, out=self.gln)
        np.divide(self.gln, self.norm, out=self.gln)
        np.multiply(self.expb, self.gln, out=self.scratch)
        np.add(self.g_logits, self.scratch, out=self.g_logits)


class _SoftmaxKernel:
    """The inference softmax chain (max → sub → exp → sum → log → sub → exp)."""

    __slots__ = ("x", "out", "mx", "shifted")

    def __init__(self, x_buf, out_ref):
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.mx = np.empty(out_ref.shape[:-1] + (1,))
        self.shifted = np.empty(out_ref.shape)

    @replay_kernel
    def forward(self) -> None:
        np.max(self.x, axis=-1, keepdims=True, out=self.mx)
        np.subtract(self.x, self.mx, out=self.shifted)
        np.exp(self.shifted, out=self.out)
        np.sum(self.out, axis=-1, keepdims=True, out=self.mx)
        np.log(self.mx, out=self.mx)
        np.subtract(self.shifted, self.mx, out=self.shifted)
        np.exp(self.shifted, out=self.out)


class _StepKernel:
    """One optimizer step from plan gradient buffers, reference-exact."""

    __slots__ = ("grads", "is_adam")

    def __init__(self, grads, is_adam):
        self.grads = grads  # one buffer per optimizer parameter, in order
        self.is_adam = is_adam

    @replay_kernel
    def step(self, opt) -> None:
        for parameter, grad in zip(opt.parameters, self.grads):
            parameter.grad = grad
        if self.is_adam:
            opt._step_count += 1
            if _perf_config.inplace_optim and opt._flat_step():
                return
            opt._step_count -= 1  # opt.step() re-bumps below
        else:
            if _perf_config.inplace_optim and opt._flat_step():
                return
        opt.step()


# -- trace compilation -------------------------------------------------------


def _op_input(op):
    kind = op[0]
    if kind in ("linear", "slinear", "flatten"):
        return op[1]
    if kind == "act":
        return op[2]
    if kind in ("dropout", "sdropout"):
        return op[3]
    if kind == "softmax":
        return op[2]
    return op[1]  # ce / sce: the logits tensor


def _op_struct(op) -> tuple:
    """Structural key: two ops with equal keys compile to the same kernel."""
    kind = op[0]
    if kind in ("linear", "slinear"):
        _, x_t, weight, bias, activation, out_t = op
        return (kind, id(weight), id(bias) if bias is not None else None,
                activation, x_t.data.shape, out_t.data.shape)
    if kind == "act":
        return (kind, op[1], op[2].data.shape)
    if kind == "dropout":
        return (kind, op[1], id(op[2]), op[3].data.shape)
    if kind == "sdropout":
        return (kind, op[1], tuple(id(layer) for layer in op[2]),
                op[3].data.shape)
    if kind == "flatten":
        return (kind, op[1].data.shape, op[2].data.shape)
    if kind in ("ce", "sce"):
        return (kind, op[1].data.shape)
    if kind == "softmax":
        return (kind, op[1], op[2].data.shape)
    if kind == "step":
        return (kind, id(op[1]))
    return ("?", kind)


def _resolve(tensor_id: int, alias: dict) -> int:
    while tensor_id in alias:
        tensor_id = alias[tensor_id]
    return tensor_id


def _position(items, target, what: str) -> int:
    """Index of ``target`` in ``items`` by identity: its binding slot."""
    for index, item in enumerate(items):
        if item is target:
            return index
    raise PlanUnsupported(f"{what} outside the plan's binding")


def _compile_forward(ops, x_shape, params, dropouts):
    """Kernels + buffer arena for a forward op chain starting at ``x_shape``.

    ``params``/``dropouts`` are the capturing model's binding; kernels
    keep only positions in them.  Also returns each kernel's ``(input,
    output)`` tensor ids for :func:`_wire_backward` — the trace's
    tensors themselves must not outlive compilation.
    """
    if not ops:
        raise PlanUnsupported("empty forward trace")
    x_buf = np.empty(x_shape)
    first_in = _op_input(ops[0])
    if first_in.data.shape != tuple(x_shape):
        raise PlanUnsupported(
            f"entry shape {first_in.data.shape} != input {tuple(x_shape)}")
    buf_of = {id(first_in): x_buf}
    alias: dict[int, int] = {}
    kernels, edges = [], []
    for op in ops:
        kind = op[0]
        x_t = _op_input(op)
        x_b = buf_of.get(id(x_t))
        if x_b is None:
            raise PlanUnsupported(f"op chain broken at {kind!r}")
        out_t = op[-1]
        if id(out_t) in buf_of:
            raise PlanUnsupported("tensor produced twice")
        if kind == "flatten":
            if out_t.data.shape != x_t.data.shape:
                raise PlanUnsupported("non-identity flatten")
            buf_of[id(out_t)] = x_b
            alias[id(out_t)] = id(x_t)
            continue
        if kind in ("linear", "slinear"):
            _, _x, weight, bias, activation, _o = op
            if activation not in (None, "relu", "tanh", "sigmoid"):
                raise PlanUnsupported(f"activation {activation!r}")
            windex = _position(params, weight, "linear parameter")
            bindex = (_position(params, bias, "linear parameter")
                      if bias is not None else -1)
            kernel = _LinearKernel(
                x_b, out_t.data, weight.data,
                bias.data if bias is not None else None, windex, bindex,
                activation, stacked=(kind == "slinear"))
        elif kind == "act":
            name = op[1]
            if name not in ("relu", "tanh", "sigmoid"):
                raise PlanUnsupported(f"activation {name!r}")
            kernel = _ActKernel(name, x_b, out_t.data)
        elif kind == "dropout":
            index = _position([layer.rng for layer in dropouts], op[2],
                              "dropout generator")
            kernel = _DropoutKernel(op[1], index, False, x_b, out_t.data)
        elif kind == "sdropout":
            index = _position(dropouts, op[2], "dropout layers")
            kernel = _DropoutKernel(op[1], index, True, x_b, out_t.data)
        else:
            raise PlanUnsupported(f"unsupported op {kind!r}")
        buf_of[id(out_t)] = kernel.out
        kernels.append(kernel)
        edges.append((id(x_t), id(out_t)))
    return x_buf, kernels, edges, buf_of, alias


def _wire_backward(kernels, edges, x_buf, loss_kernel, logits_id,
                   alias) -> None:
    """Connect gradient buffers in reverse order; entry grads are skipped."""
    grad_of = {_resolve(logits_id, alias): loss_kernel.g_logits}
    for kernel, (x_id, out_id) in zip(reversed(kernels), reversed(edges)):
        g = grad_of.get(_resolve(out_id, alias))
        if g is None:
            raise PlanUnsupported("gradient chain broken")
        kernel.g_out = g
        if kernel.x is x_buf:
            kernel.g_in = None  # nothing consumes the input gradient
        else:
            kernel.g_in = np.empty(kernel.x.shape)
            source = _resolve(x_id, alias)
            if source in grad_of:
                raise PlanUnsupported("tensor consumed twice")
            grad_of[source] = kernel.g_in


class _FitPlan:
    """A compiled train step: forward, loss, backward, optimizer update."""

    __slots__ = ("x_buf", "kernels", "loss", "step", "sgd_steps", "nbytes")

    def __init__(self, x_buf, kernels, loss_kernel, step_kernel, sgd_steps):
        self.x_buf = x_buf
        self.kernels = kernels
        self.loss = loss_kernel
        self.step = step_kernel
        self.sgd_steps = sgd_steps
        self.nbytes = _arena_bytes([self, loss_kernel, *kernels])

    def replay(self, optimizer, dropouts, xr: np.ndarray, labels: np.ndarray):
        """Train the model or stack that ``optimizer`` updates on a batch."""
        params = optimizer.parameters
        np.copyto(self.x_buf, xr)
        loss = None
        for _ in range(self.sgd_steps):
            for kernel in self.kernels:
                kernel.forward(params, dropouts)
            loss = self.loss.forward(labels)
            self.loss.backward()
            for kernel in reversed(self.kernels):
                kernel.backward(params)
            self.step.step(optimizer)
        return loss


class _ProbaPlan:
    """A compiled inference pass ending in the softmax chain."""

    __slots__ = ("x_buf", "kernels", "softmax", "nbytes")

    def __init__(self, x_buf, kernels, softmax_kernel):
        self.x_buf = x_buf
        self.kernels = kernels
        self.softmax = softmax_kernel
        self.nbytes = _arena_bytes([self, softmax_kernel, *kernels])

    def replay(self, params, dropouts, xr: np.ndarray) -> np.ndarray:
        np.copyto(self.x_buf, xr)
        for kernel in self.kernels:
            kernel.forward(params, dropouts)
        self.softmax.forward()
        # Callers cache the result; the arena is rewritten next call.
        return self.softmax.out.copy()


def _compile_fit(trace, optimizer, dropouts, sgd_steps: int, x_shape,
                 stacked: bool):
    """Compile a recorded ``fit`` trace into a :class:`_FitPlan`."""
    segments: list[list] = []
    segment: list = []
    for op in trace.ops:
        if op[0] == "step":
            if op[1] is not optimizer:
                raise PlanUnsupported("step from a foreign optimizer")
            segments.append(segment)
            segment = []
        else:
            segment.append(op)
    if segment:
        raise PlanUnsupported("ops recorded after the final optimizer step")
    if len(segments) != sgd_steps:
        raise PlanUnsupported(
            f"{len(segments)} recorded steps for sgd_steps={sgd_steps}")
    structure = [_op_struct(op) for op in segments[0]]
    for other in segments[1:]:
        if [_op_struct(op) for op in other] != structure:
            raise PlanUnsupported("sgd steps differ structurally")
    first = segments[0]
    loss_kind = "sce" if stacked else "ce"
    if not first or first[-1][0] != loss_kind:
        raise PlanUnsupported("trace does not end in the expected loss")
    logits_t = first[-1][1]
    x_buf, kernels, edges, buf_of, alias = _compile_forward(
        first[:-1], x_shape, optimizer.parameters, dropouts)
    logits_buf = buf_of.get(id(logits_t))
    if logits_buf is None:
        raise PlanUnsupported("loss input not produced by the plan")
    loss_kernel = _CrossEntropyKernel(logits_buf, logits_t.data, stacked)
    _wire_backward(kernels, edges, x_buf, loss_kernel, id(logits_t), alias)

    grads = [None] * len(optimizer.parameters)
    for kernel in kernels:
        if not isinstance(kernel, _LinearKernel):
            continue
        for index, grad in ((kernel.windex, kernel.gw),
                            (kernel.bindex, kernel.gb)):
            if index < 0:
                continue
            if grads[index] is not None:
                raise PlanUnsupported("tied parameters")
            grads[index] = grad
    if any(grad is None for grad in grads):
        raise PlanUnsupported("optimizer parameter without a gradient")
    step_kernel = _StepKernel(grads, isinstance(optimizer, Adam))
    return _FitPlan(x_buf, kernels, loss_kernel, step_kernel, sgd_steps)


def _compile_proba(trace, params, dropouts, x_shape):
    """Compile a recorded inference trace into a :class:`_ProbaPlan`."""
    ops = trace.ops
    if not ops or ops[-1][0] != "softmax":
        raise PlanUnsupported("trace does not end in softmax")
    _, axis, sm_in, sm_out = ops[-1]
    if axis not in (-1, sm_in.data.ndim - 1):
        raise PlanUnsupported(f"softmax axis {axis}")
    if len(ops) == 1:
        raise PlanUnsupported("empty forward trace")
    x_buf, kernels, _edges, buf_of, _alias = _compile_forward(
        ops[:-1], x_shape, params, dropouts)
    logits_buf = buf_of.get(id(sm_in))
    if logits_buf is None:
        raise PlanUnsupported("softmax input not produced by the plan")
    return _ProbaPlan(x_buf, kernels, _SoftmaxKernel(logits_buf, sm_out.data))


# -- the per-thread plan cache -----------------------------------------------

_UNSUPPORTED = object()


def _is_plan(entry) -> bool:
    """Whether a cache entry is a plan or unsupported marker, not an arena."""
    return entry is _UNSUPPORTED or isinstance(entry, (_FitPlan, _ProbaPlan))


class _PlanCache:
    """Plans shared by every model on one thread, least recently used first.

    Also holds the thread's stacked arenas (:mod:`repro.nn.stacked`), so
    one budget bounds both.  Bounded by the bytes its entries hold (an
    unsupported marker costs its key); the entry just stored is never
    evicted, so a plan larger than the whole budget still serves its next
    replay.  Only evicted plans are ``"invalidate"`` events.
    """

    __slots__ = ("entries", "nbytes")

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()  # key -> (entry, nbytes)
        self.nbytes = 0

    def get(self, key):
        entry = self.entries.get(key)
        if entry is None:
            return None
        self.entries.move_to_end(key)
        return entry[0]

    def put(self, key, entry) -> None:
        nbytes = sys.getsizeof(key) if entry is _UNSUPPORTED else entry.nbytes
        self.entries[key] = (entry, nbytes)
        self.nbytes += nbytes
        while self.nbytes > _PLAN_CACHE_BYTES and len(self.entries) > 1:
            _, (evicted, evicted_bytes) = self.entries.popitem(last=False)
            self.nbytes -= evicted_bytes
            if _is_plan(evicted):
                _notify("invalidate")

    def clear(self) -> int:
        """Drop every entry; returns how many were plans."""
        plans = sum(1 for entry, _ in self.entries.values() if _is_plan(entry))
        self.entries.clear()
        self.nbytes = 0
        return plans


_LOCAL = threading.local()


def _cache() -> _PlanCache:
    """The calling thread's plan cache (created on first use)."""
    cache = getattr(_LOCAL, "cache", None)
    if cache is None:
        cache = _LOCAL.cache = _PlanCache()
    return cache


def clear_plans() -> None:
    """Drop every plan and stacked arena cached on the calling thread."""
    for _ in range(_cache().clear()):
        _notify("invalidate")


class _Binding(NamedTuple):
    """What a model's plans are keyed by and bound to at replay."""

    structure: tuple    # the model's ``_plan_structure()``
    params: list        # ``module.parameters()``, for proba plans
    dropouts: list      # the module's Dropout layers, in module order


def _binding(model) -> _Binding | None:
    """``model``'s :class:`_Binding`, computed once and kept on the model.

    ``structure`` is the part of a plan key that lets models share
    plans.  None marks a model the engine must not capture.
    """
    binding = getattr(model, "_plan_binding", None)
    if binding is None:
        structure = model._plan_structure()
        if structure is None:
            binding = False
        else:
            module = model.module
            binding = _Binding(structure, module.parameters(),
                               [m for m in module.modules()
                                if isinstance(m, Dropout)])
        model._plan_binding = binding
    return binding or None


def _count_replay() -> None:
    with _STATS_LOCK:
        _STATS["replay"] += 1


# -- model-facing entry points ----------------------------------------------


def fit_with_plan(model, x, y):
    """Train ``model`` on ``(x, y)`` via a captured plan.

    Returns the loss, or ``None`` when the caller must run the reference
    path (ineligible model, empty batch, unsupported signature, or a
    capture already active on this thread).  ``y`` is the already
    validated int64 label vector from ``partial_fit``.
    """
    if _record.ACTIVE and _record.current() is not None:
        return None
    binding = _binding(model)
    if binding is None:
        return None
    n = len(x)
    if n == 0:
        return None
    xr = np.asarray(x, dtype=float)
    key = ("fit", binding.structure, n, xr.size // n,
           bool(model.module.training), model.sgd_steps)
    cache = _cache()
    plan = cache.get(key)
    if plan is _UNSUPPORTED:
        return None
    if plan is None:
        return _capture_fit(model, binding, cache, key, x, y)
    start = perf_counter() if _HOOKS else 0.0
    loss = plan.replay(model.optimizer, binding.dropouts,
                       xr.reshape(n, -1), y)
    if _HOOKS:
        _notify("replay", perf_counter() - start)
    else:
        _count_replay()
    return float(loss)


def _capture_fit(model, binding, cache, key, x, y):
    """Trace + compile + verify; always advances state exactly once."""
    optimizer = model.optimizer
    dropouts = binding.dropouts
    rngs = [layer.rng for layer in dropouts]
    pre = _Snapshot(optimizer, rngs)
    trace = _record.Trace()
    start = perf_counter()
    with _record.capturing(trace):
        loss_ref = model._fit_steps(x, y)
    if not trace.ok:
        cache.put(key, _UNSUPPORTED)
        _notify("unsupported")
        return loss_ref
    post = _Snapshot(optimizer, rngs)
    xr = np.asarray(x, dtype=float).reshape(len(x), -1)
    try:
        plan = _compile_fit(trace, optimizer, dropouts, model.sgd_steps,
                            xr.shape, stacked=False)
    except Exception:  # repro: noqa[REP004] — any compile failure means fall back, not crash training
        cache.put(key, _UNSUPPORTED)
        _notify("unsupported")
        return loss_ref
    # Trial replay from the pre-capture state: it must land bit-for-bit
    # on the reference run's post state before the plan may be cached.
    pre.restore()
    loss_plan = None
    try:
        loss_plan = plan.replay(optimizer, dropouts, xr, y)
    except Exception:  # repro: noqa[REP004] — trial replay failure → plan rejected below
        pass
    now = _Snapshot(optimizer, rngs)
    if (loss_plan is None or not now.matches(post)
            or np.float64(loss_plan).tobytes()
            != np.float64(loss_ref).tobytes()):
        post.restore()
        cache.put(key, _UNSUPPORTED)
        _notify("unsupported")
        return loss_ref
    cache.put(key, plan)
    _notify("capture", perf_counter() - start)
    return float(loss_plan)


def proba_with_plan(model, x):
    """Class probabilities via a captured plan; ``None`` → reference path."""
    if _record.ACTIVE and _record.current() is not None:
        return None
    binding = _binding(model)
    if binding is None:
        return None
    n = len(x)
    if n == 0:
        return None
    xr = np.asarray(x, dtype=float)
    key = ("proba", binding.structure, n, xr.size // n)
    cache = _cache()
    plan = cache.get(key)
    if plan is _UNSUPPORTED:
        return None
    if plan is None:
        return _capture_proba(model, binding, cache, key, x)
    start = perf_counter() if _HOOKS else 0.0
    result = plan.replay(binding.params, binding.dropouts, xr.reshape(n, -1))
    # The reference path leaves the module in train mode unconditionally.
    model.module.train()
    if _HOOKS:
        _notify("replay", perf_counter() - start)
    else:
        _count_replay()
    return result


def _capture_proba(model, binding, cache, key, x):
    params, dropouts = binding.params, binding.dropouts
    trace = _record.Trace()
    start = perf_counter()
    with _record.capturing(trace):
        out_ref = model._forward_proba(x)
    if not trace.ok:
        cache.put(key, _UNSUPPORTED)
        _notify("unsupported")
        return out_ref
    xr = np.asarray(x, dtype=float).reshape(len(x), -1)
    out_plan = None
    try:
        plan = _compile_proba(trace, params, dropouts, xr.shape)
        out_plan = plan.replay(params, dropouts, xr)
        model.module.train()
    except Exception:  # repro: noqa[REP004] — compile/replay failure → plan rejected below
        pass
    if (out_plan is None or out_plan.shape != out_ref.shape
            or out_plan.tobytes() != out_ref.tobytes()):
        cache.put(key, _UNSUPPORTED)
        _notify("unsupported")
        return out_ref
    cache.put(key, plan)
    _notify("capture", perf_counter() - start)
    return out_plan


# -- stacked (multi-tenant) plans --------------------------------------------


def stacked_fit_with_plan(stack, optimizer, xs, ys, sgd_steps, reference):
    """``stacked_fit`` through the plan cache; ``None`` → reference path.

    ``xs``/``ys`` arrive already reshaped to ``(models, batch, features)``
    / ``(models, batch)``; ``reference`` is the uncaptured step loop,
    passed in to keep this module import-cycle-free.  Keys cover
    architecture + shapes, not the stack, so every stack of one group
    shape — a rebuilt arena included — hits the same plan.
    """
    if _record.ACTIVE and _record.current() is not None:
        return None
    kind = "adam" if isinstance(optimizer, Adam) else "sgd"
    key = (stack.key, stack.num_models, xs.shape, sgd_steps, kind,
           bool(stack.training))
    cache = _cache()
    plan = cache.get(key)
    if plan is _UNSUPPORTED:
        return None
    dropouts = [op[2] for op in stack._plan
                if op[0] == "dropout" and op[1] > 0.0]
    if plan is None:
        return _capture_stacked(stack, optimizer, dropouts, cache, key, xs,
                                ys, sgd_steps, reference)
    start = perf_counter() if _HOOKS else 0.0
    losses = plan.replay(optimizer, dropouts, xs, ys)
    if _HOOKS:
        _notify("replay", perf_counter() - start)
    else:
        _count_replay()
    return losses.copy()


def _capture_stacked(stack, optimizer, dropouts, cache, key, xs, ys,
                     sgd_steps, reference):
    rngs = [layer.rng for layers in dropouts for layer in layers]
    pre = _Snapshot(optimizer, rngs)
    trace = _record.Trace()
    start = perf_counter()
    with _record.capturing(trace):
        losses_ref = reference(stack, optimizer, xs, ys, sgd_steps)
    if not trace.ok:
        cache.put(key, _UNSUPPORTED)
        _notify("unsupported")
        return losses_ref
    post = _Snapshot(optimizer, rngs)
    try:
        plan = _compile_fit(trace, optimizer, dropouts, sgd_steps, xs.shape,
                            stacked=True)
    except Exception:  # repro: noqa[REP004] — any compile failure means fall back, not crash training
        cache.put(key, _UNSUPPORTED)
        _notify("unsupported")
        return losses_ref
    pre.restore()
    losses_plan = None
    try:
        losses_plan = plan.replay(optimizer, dropouts, xs, ys)
    except Exception:  # repro: noqa[REP004] — trial replay failure → plan rejected below
        pass
    now = _Snapshot(optimizer, rngs)
    if (losses_plan is None or not now.matches(post)
            or losses_plan.tobytes() != losses_ref.tobytes()):
        post.restore()
        cache.put(key, _UNSUPPORTED)
        _notify("unsupported")
        return losses_ref
    cache.put(key, plan)
    _notify("capture", perf_counter() - start)
    return losses_plan.copy()
