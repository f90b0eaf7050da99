"""Captured-plan execution: trace once, replay many (see docs/PERF.md).

Streaming models run the *same* op sequence every batch, yet the
define-by-run engine rebuilds Tensor wrappers, backward closures, and
intermediate arrays each time.  This module removes that fixed cost the
way CUDA graphs do: the first ``fit``/``predict_proba`` for a signature
runs the normal path under the :mod:`repro.nn.record` tracer, the trace
is compiled into a flat list of *plan kernels* — each holding one op's
buffers in a preallocated arena and running the shared ``out=`` kernels
of :mod:`repro.nn.kernels` on them, the same kernels the define-by-run
nodes run — and subsequent batches replay the plan kernels with zero
graph construction.

**Row counts.**  A single model's plan key holds no row count: a plan's
arena is sized for the rows it was captured at, a batch with fewer rows
replays on views of the arena's first rows, laid out as fresh arrays of
that many rows would be (:func:`_rows`), and a batch with more
recaptures at its own row count and replaces the plan (a growth).  A
stacked plan's key holds its whole input shape.

**Layouts.**  Every arena buffer has the memory layout the define-by-run
node gives its array: most are C-ordered, a conv's im2col columns and
output are batch-fastest, and its weight gradient runs through an
F-ordered buffer.  A gemm, einsum or reduction sums in an order that
follows its operands' strides, so the layout is part of the bits.

**Safety model.**  Capture is self-verifying: the reference run and a
trial replay are compared — parameters, optimizer state, Dropout RNG
states, loss bytes and any probabilities must be **bitwise identical** —
before a plan is cached.  Any mismatch (or any op the compiler does not
recognize) marks the signature unsupported, for every row count, and
the model keeps using the reference path.  Every growth is a capture,
so every arena size is verified once; a smaller batch replays on views
without a reference run, trusting the shared kernels to give a row view
the bits of a fresh ``n``-row array — same shape, same strides, same
``out=`` kernels (docs/PERF.md, "Plan capture").
Capture therefore never changes results, only speed.

**Sharing.**  A plan holds no model: it records the *positions* of the
parameters and Dropout generators it reads, and each replay binds it to
the calling model's (or stack's) parameters, optimizer, and generators.
Kernels fetch ``parameter.data``, optimizer state, and RNG state at call
time, so a plan serves every model with the same structure — class,
``architecture_key``, optimizer class — and checkpoint restores or
copies never leave it stale.

**One plan type.**  Every plan is a :class:`_Plan`: forward kernels over
one arena, with an optional training tail (loss, backward, optimizer
step) and an optional inference softmax.  An inference plan has the
softmax, a fit plan the tail, and a predict-and-train plan — a stacked
fit whose first forward's logits also give the prediction, or a
Dropout-free model's fit in train mode — both.  Single-model and stacked
calls of every kind take one walk through the cache (:func:`_run`) and
one capture-and-verify routine (:func:`_capture`).  Plans live in one
cache per thread, bounded by the bytes their arenas hold; the stacked
arenas of :mod:`repro.nn.stacked` share it and its budget.

**One forward per labeled batch.**  A Dropout-free model in train mode
predicts on its fit plan's forward and softmax wherever that plan's
arena holds the batch, and the forward stays pending in the arena: the
plan remembers the model (weakly), its ``_weights_version`` and the row
count.  A fit of the same model at the same version on a batch of the
same bytes skips step 0's forward, a ``"reuse"`` event; any other replay
forgets the pending forward (:meth:`_Plan.fits_pending`).  Models with
Dropout, predictions before the first fit, batches larger than the fit
plan, and other models' predictions of a batch whose forward is pending
for the plan's trainer, the last model to fit a predicted batch
(:meth:`_Plan.keeps_forward`), take the proba plan.

**The switch.**  The engine reads the ``plan_capture`` flag of
:mod:`repro.perf.config` itself, and decides which calls it takes: an
entry point returns None for a call it declines, and the caller runs
its define-by-run reference path.
"""

from __future__ import annotations

import sys
import threading
import weakref
from collections import Counter, OrderedDict
from time import perf_counter
from typing import NamedTuple

import numpy as np

from ..perf.config import config as _perf_config
from . import functional as F
from . import kernels as K
from . import record as _record
from .kernels import replay_kernel
from .modules import Dropout
from .optim import SGD, Adam, Optimizer
from .serialization import generator_state, load_generator_state

__all__ = [
    "PlanUnsupported",
    "replay_kernel",
    "add_plan_hook",
    "remove_plan_hook",
    "plan_cache_stats",
    "fit_with_plan",
    "proba_with_plan",
    "stacked_proba_with_plan",
    "stacked_fit_with_plan",
    "clear_plans",
    "PLAN_CACHE_COUNTER",
]

#: Metric name for plan-cache events (capture / replay / reuse /
#: unsupported / invalidate), fed by the plan hook ``run --profile``
#: registers.
PLAN_CACHE_COUNTER = "freeway_plan_cache"

#: Arena bytes one thread's plan cache may hold — plans and stacked
#: arenas together — before it evicts least recently used entries.  Sized
#: for the tabular CNN stream (batch 512, 16 features): its fit plan grown
#: to its largest long-window fit beside its 512-row proba plan (4.87 MiB),
#: which only the long level's predictions replay (the short level's
#: replay the fit plan).  The fit arena takes 18.6 KiB a row: 57.5 MiB at
#: 3,164 rows (perfbench seed 1), 60.4 MiB at 3,321 (seed 102), and 74.4
#: MiB at 4,096, the most an 8-batch window can hold, so 79.3 MiB in all.
#: A budget the two plans overflow evicts the proba plan at every growth
#: and then each plan on the other's capture, so every call recaptures.
#: The 1024-row MLP stream's plans (8.9 MiB at 6,477 rows, beside 0.73
#: MiB) fit many times.
_PLAN_CACHE_BYTES = 80 << 20


class PlanUnsupported(Exception):
    """The trace contains something the plan compiler cannot replay."""


# -- events ------------------------------------------------------------------

_HOOKS: list = []
_HOOKS_LOCK = threading.Lock()
_STATS: Counter = Counter()
_STATS_LOCK = threading.Lock()


def add_plan_hook(hook) -> None:
    """Register ``hook(event, seconds)`` for plan-cache events.

    Events: ``"capture"`` (a plan was compiled and verified),
    ``"replay"`` (a cached plan ran; timed only while hooks are
    registered), ``"reuse"`` (a fit replay skipped the forward its
    model's prediction left pending, beside that replay's ``"replay"``),
    ``"unsupported"`` (capture fell back permanently for a signature),
    ``"invalidate"`` (a cached plan was evicted, replaced by a growth, or
    cleared).
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


class _Snapshot:
    """Copy of everything a training step mutates, for verify/rollback:
    the parameters, the optimizer's state (its ``state_dict``) and each
    Dropout generator's state."""

    __slots__ = ("_optimizer", "_rngs", "_params", "_state", "_rng_states")

    def __init__(self, optimizer: Optimizer, rngs: list):
        self._optimizer = optimizer
        self._rngs = rngs
        self._params = [p.data.copy() for p in optimizer.parameters]
        self._state = optimizer.state_dict()
        self._rng_states = [generator_state(rng) for rng in rngs]

    def restore(self) -> None:
        for parameter, saved in zip(self._optimizer.parameters, self._params):
            parameter.data = saved.copy()
        self._optimizer.load_state_dict(self._state)
        for rng, saved in zip(self._rngs, self._rng_states):
            load_generator_state(rng, saved)

    def matches(self, other: "_Snapshot") -> bool:
        return (self._state.keys() == other._state.keys()
                and all(map(_same_bytes, self._params, other._params))
                and all(_same_bytes(value, other._state[key])
                        for key, value in self._state.items())
                and all(map(_same_bytes, self._rng_states,
                            other._rng_states)))


def _buffer_like(array: np.ndarray) -> np.ndarray:
    """A fresh arena buffer laid out as the define-by-run array ``array``
    is (a conv output batch-fastest, most others C-ordered); float64
    only."""
    if array.dtype != np.float64:
        raise PlanUnsupported(f"non-float64 buffer dtype {array.dtype}")
    return np.empty_like(array)


def _rows(array: np.ndarray, n: int) -> np.ndarray:
    """``array``'s first ``n`` rows, laid out as a fresh ``n``-row array.

    A C-ordered buffer's ``[:n]`` has a fresh array's strides.  A
    batch-fastest one's does not: its strides keep the arena's row
    count, and an einsum over them can sum in another order (it did for
    the conv weight gradient at one row).  So those rows are re-strided
    over the start of the same memory, as :func:`kernels.batch_fastest`
    would lay out ``n`` rows.  Any other view (a padded interior) takes
    ``[:n]``, leading rows of its C-ordered base.  Deterministic per
    buffer, so kernels sharing a buffer share its view.
    """
    if array.flags.c_contiguous:
        return array[:n]
    rows_last = np.moveaxis(array, 0, -1)
    if not rows_last.flags.c_contiguous:
        return array[:n]
    return np.moveaxis(
        rows_last.reshape(-1)[:n * array[0].size].reshape(
            array.shape[1:] + (n,)), -1, 0)


def _arena_bytes(parts) -> int:
    """Bytes of the distinct memory blocks held in ``parts``' slots."""
    buffers: dict[int, int] = {}
    for part in parts:
        for name in part.__slots__:
            value = getattr(part, name, None)
            if isinstance(value, np.ndarray):
                if value.base is not None:  # a view: count its memory once
                    value = value.base
                buffers[id(value)] = value.nbytes
    return sum(buffers.values())


# -- plan kernels ------------------------------------------------------------
#
# Each plan kernel holds one recorded op's arena buffers and runs the
# shared kernels of repro.nn.kernels on them; ``forward``/``backward``/
# ``step`` are marked @replay_kernel, so they must not allocate (lint rule
# REP012).  Kernels hold positions, never parameters: ``params`` and
# ``rngs`` are the calling model's (or stack's), passed in on every
# replay, and parameter arrays are fetched via ``.data`` at call time so
# checkpoint restores and flat-state re-adoption can never leave a kernel
# stale.


class _Kernel:
    """A plan kernel; ``ROWS`` names its slots indexed by batch row."""

    __slots__ = ()
    ROWS: tuple

    def view(self, n: int):
        """This kernel for an ``n``-row batch: views of the first ``n``
        rows of its ``ROWS`` buffers (:func:`_rows`), every other slot
        shared.

        Views of one arena alias as its buffers do, and allocate no array
        data.
        """
        view = object.__new__(type(self))
        for name in self.__slots__:
            value = getattr(self, name)
            if value is not None and name in self.ROWS:
                value = _rows(value, n)
            setattr(view, name, value)
        return view

    def input_grad(self) -> np.ndarray:
        """A buffer for the gradient into ``x``, laid out as the
        define-by-run node lays out the one it returns: C-ordered unless
        a kernel says otherwise.  Called once ``g_out`` is wired."""
        return np.empty(self.x.shape)

    def grads(self) -> tuple:
        """``(parameter position, gradient buffer)`` pairs this kernel
        fills; a position of -1 is a missing bias."""
        return ()


class _LinearKernel(_Kernel):
    """``x @ W.T + b`` and its fused activation.

    Without ``grads`` (an inference plan) it holds no backward buffers.
    """

    __slots__ = ("windex", "bindex", "activation", "x", "out", "mask",
                 "scratch", "g_out", "g_in", "wt", "gw", "gb")
    ROWS = ("x", "out", "mask", "scratch", "g_out", "g_in")

    def __init__(self, x_buf, out_ref, weight_ref, bias_ref, windex, bindex,
                 activation, grads=True):
        self.windex = windex
        self.bindex = bindex    # -1 without a bias
        self.activation = activation
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.mask = self.scratch = self.wt = self.gw = self.gb = None
        if grads:
            if activation == "relu":
                self.mask = np.empty(out_ref.shape, dtype=bool)
            elif activation is not None:
                self.scratch = _buffer_like(out_ref)
            self.wt = np.empty(np.swapaxes(weight_ref, -1, -2).shape)
            self.gw = np.empty(weight_ref.shape)
            if bias_ref is not None:
                self.gb = np.empty(bias_ref.shape)
        self.g_out = None   # wired by the compiler (grad w.r.t. self.out)
        self.g_in = None    # grad w.r.t. self.x; None for the first layer

    @replay_kernel
    def forward(self, params, rngs) -> None:
        bias = params[self.bindex].data if self.bindex >= 0 else None
        K.linear_forward(self.x, params[self.windex].data, bias, self.out)
        if self.activation is not None:
            K.activation_forward(self.activation, self.out, self.out)

    @replay_kernel
    def backward(self, params) -> None:
        g = self.g_out
        if self.activation is not None:
            K.activation_backward(self.activation, g, self.out, self.mask, g,
                                  self.scratch)
        K.linear_backward(self.x, params[self.windex].data, g, self.g_in,
                          self.wt, self.gw, self.gb)

    def grads(self) -> tuple:
        return (self.windex, self.gw), (self.bindex, self.gb)


class _ActKernel(_Kernel):
    """A standalone activation.

    With ``in_place`` it overwrites its input buffer, which the compiler
    allows where nothing else reads that buffer afterwards.  Its backward
    runs in place on its output gradient where that buffer has the
    layout the define-by-run node gives the input gradient.
    """

    __slots__ = ("name", "x", "out", "mask", "scratch", "g_out", "g_in")
    ROWS = ("x", "out", "mask", "scratch", "g_out", "g_in")

    def __init__(self, name, x_buf, out_ref, grads=True, in_place=False):
        self.name = name
        self.x = x_buf
        self.out = x_buf if in_place else _buffer_like(out_ref)
        self.mask = self.scratch = None
        if grads:
            if name == "relu":
                self.mask = np.empty(out_ref.shape, dtype=bool)
            else:
                self.scratch = _buffer_like(out_ref)
        self.g_out = None
        self.g_in = None

    @replay_kernel
    def forward(self, params, rngs) -> None:
        K.activation_forward(self.name, self.x, self.out)

    def input_grad(self) -> np.ndarray:
        # Nothing reads the output gradient after this backward.
        fresh = K.empty_result(self.g_out, self.out)
        return self.g_out if fresh.strides == self.g_out.strides else fresh

    @replay_kernel
    def backward(self, params) -> None:
        if self.g_in is not None:
            K.activation_backward(self.name, self.g_out, self.out, self.mask,
                                  self.g_in, self.scratch)


class _DropoutKernel(_Kernel):
    """Inverted dropout drawing from the bound generator(s) each replay.

    ``rngs[index]`` is the bound model's Dropout generator, or for a
    stacked plan the list of per-model generators of one stacked op.
    """

    __slots__ = ("p", "index", "x", "out", "mask", "g_out", "g_in")
    ROWS = ("x", "out", "mask", "g_out", "g_in")

    def __init__(self, p, index, x_buf, out_ref):
        self.p = p
        self.index = index
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.mask = np.empty(out_ref.shape)
        self.g_out = None
        self.g_in = None

    @replay_kernel
    def forward(self, params, rngs) -> None:
        K.dropout_forward(self.x, self.p, rngs[self.index], self.mask,
                          self.mask, self.out)

    def input_grad(self) -> np.ndarray:
        return K.empty_result(self.g_out, self.mask)

    @replay_kernel
    def backward(self, params) -> None:
        if self.g_in is not None:
            K.dropout_backward(self.g_out, self.mask, self.g_in)


class _ConvKernel(_Kernel):
    """An im2col convolution: the gather, the einsum and bias, and their
    weight, bias and input gradients.

    The columns and the output are batch-fastest and the weight gradient
    runs through an F-ordered buffer, the layouts the define-by-run node
    gives them.  The padded scratch keeps a +0.0 border, so its row views
    are leading rows, which keep the border where it was zeroed.
    """

    __slots__ = ("windex", "bindex", "kernel", "stride", "padding", "index",
                 "x", "padded", "cols", "out", "weight_cols", "gw", "gb",
                 "g_out", "g_in", "gcols", "gpad")
    ROWS = ("x", "cols", "out", "g_out", "g_in", "gcols", "gpad")

    def __init__(self, x_buf, out_ref, weight_ref, bias_ref, windex, bindex,
                 stride, padding, grads=True):
        self.windex = windex
        self.bindex = bindex    # -1 without a bias
        kernel_out, _, kernel_h, kernel_w = weight_ref.shape
        self.kernel, self.stride, self.padding = ((kernel_h, kernel_w),
                                                  stride, padding)
        self.index = F._im2col_indices(x_buf.shape, kernel_h, kernel_w,
                                       stride, padding)[:3]
        self.x = x_buf
        self.padded, self.cols = K.im2col_buffers(
            x_buf.shape, self.kernel, padding, out_ref.shape[2:])
        self.out = _buffer_like(out_ref)
        self.weight_cols = self.gw = self.gb = None
        if grads:
            self.weight_cols = np.empty(
                (self.cols.shape[1], kernel_out)).T
            self.gw = np.empty(weight_ref.shape)
            if bias_ref is not None:
                self.gb = np.empty(bias_ref.shape)
        self.g_out = self.g_in = self.gcols = self.gpad = None

    def view(self, n: int):
        view = super().view(n)
        if self.padded is not None:
            view.padded = self.padded[:n]
        return view

    def input_grad(self) -> np.ndarray:
        """The interior of a padded buffer ``col2im`` scatters into."""
        rows, channels, height, width = self.x.shape
        pad_h, pad_w = self.padding
        self.gcols = np.empty(self.cols.shape)
        self.gpad = np.empty((rows, channels, height + 2 * pad_h,
                              width + 2 * pad_w))
        return self.gpad[:, :, pad_h:pad_h + height, pad_w:pad_w + width]

    def grads(self) -> tuple:
        return (self.windex, self.gw), (self.bindex, self.gb)

    @replay_kernel
    def forward(self, params, rngs) -> None:
        bias = params[self.bindex].data if self.bindex >= 0 else None
        K.im2col(self.x, self.kernel, self.stride, self.padding, self.padded,
                 self.cols)
        K.conv2d_forward(params[self.windex].data, bias, self.cols, self.out)

    @replay_kernel
    def backward(self, params) -> None:
        K.conv2d_backward(params[self.windex].data, self.g_out, self.cols,
                          self.weight_cols, self.gw, self.gb, self.gcols)
        if self.g_in is not None:
            K.col2im(self.gcols, self.index, self.gpad)


class _PoolKernel(_Kernel):
    """Max pooling: the running maximum in its input's memory order, the
    winning offsets and the output C-ordered, as the define-by-run node
    lays them out."""

    __slots__ = ("kernel", "stride", "x", "running", "keep", "scratch",
                 "taken", "winner", "out", "hit", "share", "quiet", "g_out",
                 "g_in")
    ROWS = ("x", "running", "keep", "scratch", "taken", "winner", "out",
            "hit", "share", "quiet", "g_out", "g_in")

    def __init__(self, x_buf, out_ref, kernel, stride):
        self.kernel, self.stride = kernel, stride
        self.x = x_buf
        (self.running, self.keep, self.scratch, self.taken,
         self.winner) = K.max_pool2d_buffers(x_buf, kernel, stride,
                                             out_ref.shape[2:])
        self.out = _buffer_like(out_ref)
        self.hit = self.share = self.quiet = None
        self.g_out = self.g_in = None

    def input_grad(self) -> np.ndarray:
        self.hit = np.empty(self.g_out.shape, dtype=bool)
        self.share = np.empty_like(self.g_out)
        if (self.stride[0] < self.kernel[0]
                or self.stride[1] < self.kernel[1]):
            self.quiet = np.empty_like(self.g_out)
        return np.empty(self.x.shape)

    @replay_kernel
    def forward(self, params, rngs) -> None:
        K.max_pool2d_forward(self.x, self.kernel, self.stride, self.running,
                             self.keep, self.scratch, self.taken, self.winner,
                             self.out)

    @replay_kernel
    def backward(self, params) -> None:
        if self.g_in is not None:
            K.max_pool2d_backward(self.g_out, self.winner, self.kernel,
                                  self.stride, self.hit, self.share,
                                  self.quiet, self.g_in)


class _CrossEntropyKernel(_Kernel):
    """Softmax cross-entropy, 2-D or stacked (one loss per model)."""

    __slots__ = ("logits", "index", "mask", "shifted", "expb", "prod",
                 "norm", "lognorm", "picked", "loss", "coef", "g_logits")
    ROWS = ("logits", "mask", "shifted", "expb", "prod", "norm", "lognorm",
            "picked", "g_logits")

    def __init__(self, logits_buf, logits_ref):
        shape = logits_ref.shape
        self.logits = logits_buf
        self.index = K.label_index(shape)
        self.mask = np.empty(shape)
        self.shifted = np.empty(shape)
        self.expb = np.empty(shape)
        self.prod = np.empty(shape)
        self.norm = np.empty(shape[:-1] + (1,))
        self.lognorm = np.empty(shape[:-1] + (1,))
        self.picked = np.empty(shape[:-1])
        self.loss = np.empty(shape[:-2])
        # The backward seed is 1.0 per model: -g / rows.
        self.coef = -1.0 * (1.0 / shape[-2])
        self.g_logits = np.empty(shape)

    def view(self, n: int):
        # Only a single-model (2-D) loss is viewed: a stacked plan's key
        # fixes its shape.
        view = super().view(n)
        view.index = (self.index[0][:n],)
        view.coef = -1.0 * (1.0 / n)
        return view

    @replay_kernel
    def forward(self, labels: np.ndarray) -> np.ndarray:
        K.cross_entropy_forward(self.logits, labels, self.index, self.mask,
                                self.shifted, self.expb, self.prod,
                                self.norm, self.lognorm, self.picked,
                                self.loss)
        return self.loss

    @replay_kernel
    def backward(self) -> None:
        K.cross_entropy_backward(self.coef, self.mask, self.expb, self.norm,
                                 self.g_logits, self.prod, self.lognorm)


class _SoftmaxKernel(_Kernel):
    """The inference softmax."""

    __slots__ = ("x", "out", "shifted", "lognorm")
    ROWS = ("x", "out", "shifted", "lognorm")

    def __init__(self, x_buf, out_ref):
        self.x = x_buf
        self.out = _buffer_like(out_ref)
        self.shifted = np.empty(out_ref.shape)
        self.lognorm = np.empty(out_ref.shape[:-1] + (1,))

    @replay_kernel
    def forward(self) -> None:
        K.softmax_forward(self.x, -1, self.out, self.shifted, self.lognorm)


class _StepKernel:
    """One optimizer step from plan gradient buffers."""

    __slots__ = ("grads",)

    def __init__(self, grads):
        self.grads = grads  # one buffer per optimizer parameter, in order

    @replay_kernel
    def step(self, opt) -> None:
        for parameter, grad in zip(opt.parameters, self.grads):
            parameter.grad = grad
        opt.step()


# -- trace compilation -------------------------------------------------------


def _op_input(op):
    kind = op[0]
    if kind in ("act", "softmax"):
        return op[2]
    if kind == "dropout":
        return op[3]
    return op[1]  # linear, conv, pool, flatten, ce


def _op_struct(op) -> tuple:
    """Structural key: two ops with equal keys compile to the same kernel."""
    kind = op[0]
    if kind == "linear":
        _, x_t, weight, bias, activation, out_t = op
        return (kind, id(weight), id(bias) if bias is not None else None,
                activation, x_t.data.shape, out_t.data.shape)
    if kind == "conv":
        _, x_t, weight, bias, stride, padding, out_t = op
        return (kind, id(weight), id(bias) if bias is not None else None,
                stride, padding, x_t.data.shape, out_t.data.shape)
    if kind == "pool":
        return (kind, op[2], op[3], op[1].data.shape)
    if kind == "act":
        return (kind, op[1], op[2].data.shape)
    if kind == "dropout":
        return (kind, op[1], id(op[2]), op[3].data.shape)
    if kind == "flatten":
        return (kind, op[1].data.shape, op[2].data.shape)
    if kind == "ce":
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


def _compile_forward(ops, x_shape, params, rngs, grads=True, result=None):
    """Kernels + buffer arena for a forward op chain starting at ``x_shape``.

    ``params``/``rngs`` are the capturing model's binding; kernels keep
    only positions in them.  ``grads`` gives the kernels their backward
    buffers.  ``result`` is the tensor the loss or softmax reads after
    the chain.  Also returns each kernel's ``(input, output)`` tensor ids
    for :func:`_wire_backward` — the trace's tensors themselves must not
    outlive compilation.
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
    readers = Counter(id(_op_input(op)) for op in ops)
    readers[id(result)] += 1
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
            # A reshape view of the C-ordered input buffer; the gradient
            # is wired back through the same view (_wire_backward).
            try:
                buf_of[id(out_t)] = K.reshaped_view(x_b, out_t.data.shape)
            except ValueError:
                raise PlanUnsupported("flatten of a strided buffer") from None
            alias[id(out_t)] = id(x_t)
            continue
        if kind in ("linear", "conv"):
            weight, bias = op[2], op[3]
            windex = _position(params, weight, f"{kind} parameter")
            bindex = (_position(params, bias, f"{kind} parameter")
                      if bias is not None else -1)
            bias_ref = bias.data if bias is not None else None
            if kind == "linear":
                kernel = _LinearKernel(x_b, out_t.data, weight.data,
                                       bias_ref, windex, bindex, op[4], grads)
            else:
                kernel = _ConvKernel(x_b, out_t.data, weight.data, bias_ref,
                                     windex, bindex, op[4], op[5], grads)
        elif kind == "pool":
            kernel = _PoolKernel(x_b, out_t.data, op[2], op[3])
        elif kind == "act":
            # A conv's backward never reads its output, so an activation
            # that is its only reader may overwrite it.
            in_place = (readers[id(x_t)] == 1 and kernels
                        and isinstance(kernels[-1], _ConvKernel)
                        and kernels[-1].out is x_b)
            kernel = _ActKernel(op[1], x_b, out_t.data, grads, in_place)
        elif kind == "dropout":
            kernel = _DropoutKernel(
                op[1], _position(rngs, op[2], "dropout generator"), x_b,
                out_t.data)
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
        # Through a flatten, the gradient is the consumer's buffer viewed
        # in this kernel's output shape.
        kernel.g_out = (g if g.shape == kernel.out.shape
                        else K.reshaped_view(g, kernel.out.shape))
        if kernel.x is x_buf:
            kernel.g_in = None  # nothing consumes the input gradient
        else:
            kernel.g_in = kernel.input_grad()
            source = _resolve(x_id, alias)
            if source in grad_of:
                raise PlanUnsupported("tensor consumed twice")
            grad_of[source] = kernel.g_in


class _Plan:
    """A compiled pass: forward kernels over one arena, an optional
    training tail — loss, backward and optimizer step, run ``sgd_steps``
    times — and an optional inference ``softmax``.

    An inference plan has the softmax and no tail, a fit plan the tail,
    and a predict-and-train plan both: its softmax runs on the logits of
    the first step's forward, which without Dropout is also the
    prediction from the pre-step weights (the train and eval forwards
    run the same kernels on the same weights).  The arena holds ``rows``
    batch rows, the row count the plan was captured at; a batch with
    fewer rows replays on the arena's leading rows (:meth:`_Kernel.view`).

    ``pending`` names the forward a single model's prediction left in the
    arena — ``(weak reference to the model, its _weights_version, rows)``
    — or is None.  Every replay forgets it; :func:`proba_with_plan` sets
    it after a prediction replay, and a training replay of the same model
    on the same batch at the same weights skips step 0's forward
    (:meth:`fits_pending`).  ``trainer`` weakly references the last
    model to fit a batch a prediction left pending; while the arena
    holds the trainer's forward of a batch, other models' predictions of
    that batch leave it alone (:meth:`keeps_forward`).
    """

    __slots__ = ("rows", "x_buf", "kernels", "softmax", "loss", "step",
                 "sgd_steps", "nbytes", "views", "ceiling", "pending",
                 "trainer")

    def __init__(self, x_buf, kernels, softmax=None, loss=None, step=None,
                 sgd_steps=0):
        self.rows = len(x_buf)
        self.x_buf = x_buf
        self.kernels = kernels
        self.softmax = softmax
        self.loss = loss
        self.step = step
        self.sgd_steps = sgd_steps
        self.nbytes = _arena_bytes(
            [self, *kernels,
             *(kernel for kernel in (loss, softmax) if kernel is not None)])
        self.views = {}
        self.ceiling = sys.maxsize  # lowered by a refused growth (_refused)
        self.pending = self.trainer = None

    def _arena(self, n: int) -> tuple:
        """``(x_buf, kernels, loss, softmax)`` for an ``n``-row batch: the
        arena's own at :attr:`rows`, else views of its leading rows, built
        on the first batch of ``n`` rows and kept in :attr:`views`."""
        if n == self.rows:
            return self.x_buf, self.kernels, self.loss, self.softmax
        views = self.views.get(n)
        if views is None:
            views = self.views[n] = (
                _rows(self.x_buf, n),
                [kernel.view(n) for kernel in self.kernels],
                None if self.loss is None else self.loss.view(n),
                None if self.softmax is None else self.softmax.view(n))
        return views

    def _holds_batch(self, xr: np.ndarray) -> bool:
        """Whether the pending forward ran on ``xr``: ``len(xr)`` rows
        whose bytes are ``xr``'s (bits, not values: -0.0 and NaN payloads
        count)."""
        pending = self.pending
        return (pending is not None and pending[2] == len(xr)
                and _same_bytes(self._arena(len(xr))[0], xr))

    def _pending_for(self, model) -> bool:
        """Whether the pending forward is ``model``'s at its current
        weights: its ``_weights_version`` has not moved since."""
        pending = self.pending
        return (pending is not None and pending[0]() is model
                and pending[1] == model._weights_version)

    def fits_pending(self, model, xr: np.ndarray) -> bool:
        """For a fit of ``model`` on ``xr``: whether step 0 may skip its
        forward, which the arena holds for ``model`` on ``xr`` at its
        current weights.

        A fit of the batch a prediction left pending, whoever's forward
        it is, makes ``model`` the plan's :attr:`trainer`.
        """
        if not self._holds_batch(xr):
            return False
        self.trainer = weakref.ref(model)
        return self._pending_for(model)

    def keeps_forward(self, model, xr: np.ndarray) -> bool:
        """Whether a prediction of ``xr`` by ``model`` must leave the arena
        alone: it holds the :attr:`trainer`'s forward on ``xr`` at its
        current weights, and ``model`` is another.

        The trainer predicts each batch and then fits it, as a
        prequential learner does; other models predicting the batch in
        between, an ensemble's members, take the proba plan, and the
        trainer's fit still skips its forward.
        """
        trainer = None if self.trainer is None else self.trainer()
        return (trainer is not None and trainer is not model
                and self._pending_for(trainer) and self._holds_batch(xr))

    def replay(self, params, rngs, xr: np.ndarray, optimizer=None,
               labels=None, proba=True, reuse=False) -> tuple:
        """Run the plan on ``xr``, which has at most :attr:`rows` rows,
        bound to ``params`` and ``rngs``.

        With an ``optimizer`` (whose parameters ``params`` are) the
        training tail steps it on ``labels``; without one only the
        forward runs.  ``proba`` asks for the softmax, if the plan has
        one.  With ``reuse``, step 0 skips the copy of ``xr`` and the
        forward, which the arena holds already (:meth:`fits_pending`).

        Returns ``(loss, probabilities)``: the loss buffer (0-d, or one
        loss per model) of a training replay and the softmax buffer of
        one that ran the softmax, else None; the next replay overwrites
        both.
        """
        self.pending = None
        x_buf, kernels, loss_kernel, softmax = self._arena(len(xr))
        if not proba:
            softmax = None
        if not reuse:
            np.copyto(x_buf, xr)
        loss = None
        for step in range(1 if optimizer is None else self.sgd_steps):
            if step or not reuse:
                for kernel in kernels:
                    kernel.forward(params, rngs)
            if step == 0 and softmax is not None:
                softmax.forward()
            if optimizer is not None:
                loss = loss_kernel.forward(labels)
                loss_kernel.backward()
                for kernel in reversed(kernels):
                    kernel.backward(params)
                self.step.step(optimizer)
        return loss, None if softmax is None else softmax.out


def _compile_fit(trace, optimizer, rngs, sgd_steps: int, x_shape,
                 predict: bool = False) -> _Plan:
    """Compile a recorded ``fit`` trace into a plan with a training tail;
    with ``predict``, also the softmax (a predict-and-train plan)."""
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
    if not first or first[-1][0] != "ce":
        raise PlanUnsupported("trace does not end in the expected loss")
    logits_t = first[-1][1]
    x_buf, kernels, edges, buf_of, alias = _compile_forward(
        first[:-1], x_shape, optimizer.parameters, rngs, result=logits_t)
    logits_buf = buf_of.get(id(logits_t))
    if logits_buf is None:
        raise PlanUnsupported("loss input not produced by the plan")
    loss_kernel = _CrossEntropyKernel(logits_buf, logits_t.data)
    _wire_backward(kernels, edges, x_buf, loss_kernel, id(logits_t), alias)

    grads = [None] * len(optimizer.parameters)
    for kernel in kernels:
        for index, grad in kernel.grads():
            if index < 0:
                continue
            if grads[index] is not None:
                raise PlanUnsupported("tied parameters")
            grads[index] = grad
    if any(grad is None for grad in grads):
        raise PlanUnsupported("optimizer parameter without a gradient")
    softmax = _SoftmaxKernel(logits_buf, logits_t.data) if predict else None
    return _Plan(x_buf, kernels, softmax, loss_kernel, _StepKernel(grads),
                 sgd_steps)


def _compile_proba(trace, params, rngs, x_shape) -> _Plan:
    """Compile a recorded inference trace into a plan ending in the
    softmax."""
    ops = trace.ops
    if not ops or ops[-1][0] != "softmax":
        raise PlanUnsupported("trace does not end in softmax")
    _, axis, sm_in, sm_out = ops[-1]
    if axis not in (-1, sm_in.data.ndim - 1):
        raise PlanUnsupported(f"softmax axis {axis}")
    if len(ops) == 1:
        raise PlanUnsupported("empty forward trace")
    x_buf, kernels, _edges, buf_of, _alias = _compile_forward(
        ops[:-1], x_shape, params, rngs, grads=False, result=sm_in)
    logits_buf = buf_of.get(id(sm_in))
    if logits_buf is None:
        raise PlanUnsupported("softmax input not produced by the plan")
    return _Plan(x_buf, kernels, _SoftmaxKernel(logits_buf, sm_out.data))


# -- the per-thread plan cache -----------------------------------------------

_UNSUPPORTED = object()


def _is_plan(entry) -> bool:
    """Whether a cache entry is a plan or unsupported marker, not an arena."""
    return entry is _UNSUPPORTED or isinstance(entry, _Plan)


class _PlanCache:
    """Plans shared by every model on one thread, least recently used first.

    Also holds the thread's stacked arenas (:mod:`repro.nn.stacked`), so
    one budget bounds both.  Bounded by the bytes its entries hold (an
    unsupported marker costs its key); the entry just stored is never
    evicted, so a plan larger than the whole budget still serves its next
    replay.  A single model's fit plan and proba plan that are over the
    budget together are not both captured (:meth:`refuses`).  Plans
    evicted or replaced under their key (a growth) are ``"invalidate"``
    events.
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

    def discard(self, key) -> None:
        """Drop what ``key`` holds, if anything."""
        replaced = self.entries.pop(key, None)
        if replaced is not None:
            self.nbytes -= replaced[1]
            if _is_plan(replaced[0]):
                _notify("invalidate")

    def refuses(self, key, nbytes: int) -> bool:
        """Whether a plan of ``nbytes`` under the single-model key ``key``
        can never be held beside the plans cached for the same model
        structure under the other kind (a fit plan's proba plan, or the
        reverse).

        Together they are over the whole budget, so keeping both would
        evict one on every call and every call would capture.
        """
        if key[0] not in ("fit", "proba"):
            return False
        twins = sum(size for other, (entry, size) in self.entries.items()
                    if other[0] in ("fit", "proba") and other[0] != key[0]
                    and other[1] == key[1] and entry is not _UNSUPPORTED)
        return twins > 0 and nbytes + twins > _PLAN_CACHE_BYTES

    def put(self, key, entry) -> None:
        """Store ``entry`` as the most recently used, replacing what
        ``key`` held.

        Storing a plan or an arena evicts least recently used entries
        while the cache is over budget.  An unsupported marker evicts
        nothing: it frees no arena, and the entry it would evict can be
        the plan its key was just refused beside (a plan larger than the
        whole budget keeps the cache over it).
        """
        self.discard(key)
        nbytes = sys.getsizeof(key) if entry is _UNSUPPORTED else entry.nbytes
        self.entries[key] = (entry, nbytes)
        self.nbytes += nbytes
        while (entry is not _UNSUPPORTED and self.nbytes > _PLAN_CACHE_BYTES
               and len(self.entries) > 1):
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
    rngs: list          # the module's Dropout generators, in module order


def _binding(model) -> _Binding | None:
    """``model``'s :class:`_Binding`, computed once and kept on the model.

    ``structure`` is the part of a plan key that lets models share
    plans.  None marks a model the engine must not capture: its
    ``_plan_structure`` opts out, or its optimizer is neither SGD nor
    Adam, the two whose steps fit plans replay.
    """
    binding = getattr(model, "_plan_binding", None)
    if binding is None:
        structure = model._plan_structure()
        if structure is None or type(model.optimizer) not in (SGD, Adam):
            binding = False
        else:
            module = model.module
            binding = _Binding(structure, module.parameters(),
                               [m.rng for m in module.modules()
                                if isinstance(m, Dropout)])
        model._plan_binding = binding
    return binding or None


def _replayed(plan: _Plan, *args):
    """Replay ``plan`` on ``args``, timing it while hooks listen."""
    if not _HOOKS:
        result = plan.replay(*args)
        with _STATS_LOCK:
            _STATS["replay"] += 1
        return result
    start = perf_counter()
    result = plan.replay(*args)
    _notify("replay", perf_counter() - start)
    return result


def _unsupported(cache, key, result):
    """Mark ``key`` unsupported and hand back the reference ``result``."""
    cache.put(key, _UNSUPPORTED)
    _notify("unsupported")
    return result


def _kept_through_growth(cache, key, plan, rows: int):
    """The cached ``plan`` a capture at ``rows`` rows must keep, or None.

    A growth frees the plan it replaces (one ``"invalidate"`` event)
    before the capture's reference run and new arena are allocated,
    unless the cache may refuse the grown plan (:meth:`_PlanCache.refuses`)
    and ``plan`` must then keep replaying.  An arena's bytes are a fixed
    part plus a part per row, so ``plan``'s scaled to ``rows`` bound the
    grown arena's from above.
    """
    if plan is None:
        return None
    if cache.refuses(key, -(-plan.nbytes * rows // plan.rows)):
        return plan
    cache.discard(key)
    return None


def _refused(cache, key, kept, rows: int, result):
    """Hand back the reference ``result`` of a capture at ``rows`` rows
    the cache refuses.  The ``kept`` plan still replays smaller batches,
    and batches of ``rows`` or more take the reference path without
    another capture, also after the plan grows to fewer rows (a grown
    plan keeps its predecessor's ceiling); with no plan to keep, ``key``
    is marked unsupported.
    """
    if kept is None:
        return _unsupported(cache, key, result)
    kept.ceiling = rows
    _notify("unsupported")
    return result


def _generators(rngs) -> list:
    """Every generator in a binding's ``rngs`` (a stacked op holds a list)."""
    return [rng for entry in rngs
            for rng in (entry if isinstance(entry, list) else (entry,))]


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _run(key, xr, params, rngs, reference, optimizer=None, labels=None,
         sgd_steps=0, predict=None, proba=True, owner=None):
    """Run a call through the plan cached under ``key``, capturing it on
    a miss or when ``xr`` has more rows than its arena (a growth).

    ``xr``, ``params``, ``rngs`` and ``proba`` are as :meth:`_Plan.replay`
    takes them, and ``reference`` is the define-by-run run a capture
    traces: a training call's (one with an ``optimizer``, ``labels`` and
    ``sgd_steps``) returns its loss, an inference call's the
    probabilities.  A predict-and-train call also passes ``predict``,
    its prediction on the pre-step state.  A single model's training
    call passes itself as ``owner``: a replay skips step 0's forward
    when the plan holds ``owner``'s forward on ``xr``
    (:meth:`_Plan.fits_pending`), a ``"reuse"`` event.  Returns
    ``(loss, probabilities)`` as :meth:`_Plan.replay` does — plan
    buffers, which the next replay overwrites, or the reference runs'
    results on a capture that fails.  Returns None when ``key`` is
    marked unsupported, or ``xr`` is as large as a refused growth
    (:func:`_refused`), and the caller must run its references itself.
    """
    cache = _cache()
    plan = cache.get(key)
    if plan is _UNSUPPORTED or (plan is not None and len(xr) >= plan.ceiling):
        return None
    if plan is not None and len(xr) <= plan.rows:
        reuse = owner is not None and plan.fits_pending(owner, xr)
        if reuse:
            _notify("reuse")
        return _replayed(plan, params, rngs, xr, optimizer, labels, proba,
                         reuse)
    ceiling, trainer = ((sys.maxsize, None) if plan is None
                        else (plan.ceiling, plan.trainer))
    # No local reference may keep a replaced plan's arena alive through
    # the capture.
    kept, plan = _kept_through_growth(cache, key, plan, len(xr)), None
    return _capture(cache, key, kept, ceiling, trainer, xr, params, rngs,
                    reference, optimizer, labels, sgd_steps, predict)


def _capture(cache, key, kept, ceiling, trainer, xr, params, rngs,
             reference, optimizer, labels, sgd_steps, predict):
    """Trace + compile + verify a plan for a call of :func:`_run` and
    store it under ``key``; runs the references once, so a training call
    advances its model's state exactly once.

    ``kept`` is the plan a refused growth leaves in place
    (:func:`_kept_through_growth`); ``ceiling`` and ``trainer`` are the
    replaced plan's, which a grown plan keeps.  The trial replay must
    reproduce the reference's loss or probabilities byte for byte.  A
    training call's replays from the state before its reference step and
    must also land on the parameters, optimizer state and Dropout
    generator states after it.  A predict-and-train call's ``predict``
    runs on the pre-step state, and the replay's probabilities must match
    its bytes too.
    """
    training = optimizer is not None
    if training:
        generators = _generators(rngs)
        pre = _Snapshot(optimizer, generators)
    start = perf_counter()
    proba_ref = None if predict is None else predict()
    trace = _record.Trace()
    with _record.capturing(trace):
        out_ref = reference()
    ref = (out_ref, proba_ref) if training else (None, out_ref)
    plan = None
    if trace.ok:
        try:
            plan = (_compile_fit(trace, optimizer, rngs, sgd_steps, xr.shape,
                                 predict is not None) if training
                    else _compile_proba(trace, params, rngs, xr.shape))
        except Exception:  # repro: noqa[REP004] — any compile failure means fall back, not crash training
            pass
    # The trace holds the reference run's dead graph: drop it before the
    # trial replay fills the arena.
    trace.ops.clear()
    if plan is None:
        return _unsupported(cache, key, ref)
    if cache.refuses(key, plan.nbytes):
        return _refused(cache, key, kept, len(xr), ref)
    if training:
        post = _Snapshot(optimizer, generators)
        pre.restore()
    result = None
    try:
        result = plan.replay(params, rngs, xr, optimizer, labels)
    except Exception:  # repro: noqa[REP004] — trial replay failure → plan rejected below
        pass
    if (result is None
            or not all(expected is None
                       or _same_bytes(got, np.asarray(expected))
                       for got, expected in zip(result, ref))
            or (training
                and not _Snapshot(optimizer, generators).matches(post))):
        if training:
            post.restore()
        return _unsupported(cache, key, ref)
    plan.ceiling, plan.trainer = ceiling, trainer
    cache.put(key, plan)
    _notify("capture", perf_counter() - start)
    return result


# -- model-facing entry points ----------------------------------------------


def _engaged() -> bool:
    """Whether the engine takes calls now: ``plan_capture`` is on, and no
    capture is recording on this thread (whose reference run must run
    define-by-run)."""
    return _perf_config.plan_capture and not (
        _record.ACTIVE and _record.current() is not None)


def _model_call(model, x):
    """``(binding, xr)`` for a single model's call on ``x``: its
    :class:`_Binding` and the batch as the module's input.  None when the
    engine declines the call — not :func:`_engaged`, an ineligible model,
    or an empty batch."""
    if not _engaged():
        return None
    binding = _binding(model)
    n = len(x)
    if binding is None or n == 0:
        return None
    return binding, np.asarray(x, dtype=float).reshape(
        n, *model.module_input_shape)


def _fit_key(model, binding: _Binding) -> tuple:
    """The cache key of ``model``'s fit plan."""
    return ("fit", binding.structure, bool(model.module.training),
            model.sgd_steps)


def _predicts_on_fit_plan(model, binding: _Binding) -> bool:
    """Whether ``model``'s fit plan is a predict-and-train plan, whose
    forward and softmax its predictions replay: a model without Dropout
    in train mode, whose training forward is its inference forward."""
    return model.module.training and not binding.rngs


def fit_with_plan(model, x, y):
    """Train ``model`` on ``(x, y)`` via a captured plan.

    Returns the loss, or ``None`` when the caller must run the reference
    path (a call :func:`_model_call` declines, or an unsupported
    signature).  ``y`` is the already validated int64 label vector from
    ``partial_fit``.  A model whose predictions replay its fit plan
    (:func:`_predicts_on_fit_plan`) captures it with the softmax, checked
    against ``_forward_proba``; a replay skips step 0's forward when the
    plan holds this model's forward on ``x`` from a prediction at the
    current weights.
    """
    bound = _model_call(model, x)
    if bound is None:
        return None
    binding, xr = bound
    optimizer = model.optimizer
    predict = ((lambda: model._forward_proba(x))
               if _predicts_on_fit_plan(model, binding) else None)
    result = _run(_fit_key(model, binding), xr, optimizer.parameters,
                  binding.rngs, lambda: model._fit_steps(x, y), optimizer,
                  y, model.sgd_steps, predict, proba=False, owner=model)
    return None if result is None else float(result[0])


def proba_with_plan(model, x):
    """Class probabilities via a captured plan; ``None`` → reference path.

    A model whose fit plan is a predict-and-train plan
    (:func:`_predicts_on_fit_plan`) replays that plan's forward and
    softmax when the plan covers the batch, and leaves the forward
    pending for a fit on the same batch (:meth:`_Plan.fits_pending`).
    Other calls take the proba plan: a model with Dropout or in eval
    mode, a prediction before the first fit, a batch larger than the fit
    plan, and a batch whose forward the plan holds for its trainer, the
    last model to fit a predicted batch (:meth:`_Plan.keeps_forward`).
    """
    bound = _model_call(model, x)
    if bound is None:
        return None
    binding, xr = bound
    plan = None
    if _predicts_on_fit_plan(model, binding):
        plan = _cache().get(_fit_key(model, binding))
    # A refused growth's ceiling lies above the rows of the plan it kept,
    # so a plan whose arena holds the batch is below its ceiling too.
    if (isinstance(plan, _Plan) and len(xr) <= plan.rows
            and not plan.keeps_forward(model, xr)):
        result = _replayed(plan, model.optimizer.parameters, binding.rngs,
                           xr)
        plan.pending = (weakref.ref(model), model._weights_version, len(xr))
    else:
        result = _run(("proba", binding.structure), xr, binding.params,
                      binding.rngs, lambda: model._forward_proba(x))
    # The reference path leaves the module in train mode unconditionally.
    model.module.train()
    return None if result is None else result[1].copy()


def stacked_proba_with_plan(stack, xs):
    """``stack.predict_proba(xs)`` through the plan cache; ``None`` →
    reference path.

    ``xs`` arrives already reshaped to ``(models, batch, features)``.
    Keyed like :func:`stacked_fit_with_plan`, by architecture and shape.
    """
    if not _engaged():
        return None
    result = _run(("stacked-proba", stack.key, xs.shape), xs,
                  stack.stacked_params, stack.rngs,
                  lambda: stack.predict_proba(xs))
    stack.train()  # where the reference leaves the stack
    return None if result is None else result[1].copy()


def stacked_fit_with_plan(stack, optimizer, xs, ys, sgd_steps, reference,
                          predict=False):
    """``stacked_fit`` through the plan cache; ``None`` → reference path.

    ``xs``/``ys`` arrive already reshaped to ``(models, batch, features)``
    / ``(models, batch)``; ``reference`` is the uncaptured step loop,
    passed in to keep this module import-cycle-free.  Keys cover
    architecture + shapes, not the stack, so every stack of one group
    shape — a rebuilt arena included — hits the same plan.

    Returns fresh ``(losses, probabilities)``.  With ``predict`` the plan
    is a predict-and-train plan, and ``probabilities`` is what
    ``stack.predict_proba(xs)`` returns on the pre-step weights; else it
    is None.  Only a stack without Dropout may predict from its training
    forward, which with Dropout draws masks; capture verifies that the
    two agree.  The engine declines a predicting stack with Dropout, and
    an optimizer other than SGD or Adam.
    """
    kind = {SGD: "sgd", Adam: "adam"}.get(type(optimizer))
    if not _engaged() or kind is None or (predict and stack.rngs):
        return None
    if predict:
        stack.train()  # where the reference's predict_proba leaves it
    key = (stack.key, stack.num_models, xs.shape, sgd_steps, kind,
           bool(stack.training), predict)
    result = _run(key, xs, optimizer.parameters, stack.rngs,
                  lambda: reference(stack, optimizer, xs, ys, sgd_steps),
                  optimizer, ys, sgd_steps,
                  (lambda: stack.predict_proba(xs)) if predict else None)
    if result is None:
        return None
    losses, probabilities = result
    return (losses.copy(),
            None if probabilities is None else probabilities.copy())
