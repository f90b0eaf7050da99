"""Stacked multi-model execution: N same-architecture models, one program.

Most tenants of the serving layer run the *same architecture* (LR / MLP)
with different parameters, so executing them one at a time pays the
Python/autograd overhead N times for tiny tensors.  A :class:`ModelStack`
holds N models' parameters stacked along a leading model axis — the
canonical per-model layout is exactly what ``state_spec``/
``flatten_state`` in :mod:`repro.distributed.backends` flatten, here
extended with a model axis — and runs one batched forward/backward for
all N at once.  It is not a second engine: it runs the define-by-run
nodes of :mod:`repro.nn.functional` (``fused_linear``, ``dropout``, the
activations, the cross-entropy node) on model-axis tensors, and those
nodes run the shared kernels of :mod:`repro.nn.kernels`.  A plain
:class:`~repro.nn.SGD` or :class:`~repro.nn.Adam` over the stacked
parameters steps every model at once.

**Arenas: the one way to stack.**  :func:`stacked_arena` returns the
calling thread's :class:`StackedArena` for a group's
:func:`stacking_group` and size — a :class:`ModelStack`, its layer plan,
and an optimizer with the group's hyperparameters and flat state.  A
round calls :meth:`StackedArena.load`, which copies the members'
parameters, Dropout generators and (to train) optimizer state into the
arena's rows, runs the stacked program on the arena's stack and
optimizer, and after a training step calls :meth:`StackedArena.store`,
which copies every row back into its member's arrays, in place.  An
arena keeps no reference to a member's model, module or parameters.
Arenas live in the per-thread plan cache of :mod:`repro.nn.plan` and
share its byte budget; an evicted arena is rebuilt on its next use.

**Equivalence contract.**  Every kernel computes each model slice with
the float operations of the serial per-model call: batched ``np.matmul``
over a leading axis computes each slice with the same gemm as the 2-D
call, elementwise ufuncs and per-row reductions are slice-identical, and
Dropout draws each model's mask from that model's own generator in the
serial order.  Predictions, losses, updated parameters, and optimizer
state after :meth:`StackedArena.store` are therefore
**bitwise-identical** to running each model alone (asserted in
``tests/test_stacked.py`` and ``tests/test_stacked_arenas.py``, and
gated in ``benchmarks/bench_hotpath.py --stacked``).

With ``plan_capture`` on, :func:`stacked_fit`, :func:`stacked_predict_proba`
and :func:`stacked_predict_fit` replay plans captured from
:meth:`ModelStack.predict_proba` and the step loop, which stay the
reference path (:mod:`repro.nn.plan`).

Only architectures built from ``Linear``, the fusable activations,
``Dropout``, ``Flatten``, and ``Sequential`` can stack; anything else
(e.g. ``Conv2d``, which captured plans do replay) raises
:class:`StackedModelError` and callers fall back to the serial loop.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import plan as _plan
from . import record as _record
from .modules import (
    _ACTIVATION_NAMES,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    Sequential,
)
from .optim import SGD, Adam
from .tensor import Tensor

__all__ = [
    "StackedModelError",
    "ModelStack",
    "architecture_key",
    "stacked_cross_entropy",
    "stacked_fit",
    "stacked_predict_proba",
    "stacked_predict_fit",
    "stacking_group",
    "StackedArena",
    "stacked_arena",
]


class StackedModelError(ValueError):
    """A model set cannot be stacked (heterogeneous, unsupported, …)."""


def _flatten_layers(module: Module) -> list[Module]:
    """The module tree as a flat layer sequence (Sequential unrolled)."""
    if type(module) is Sequential:
        return [leaf for layer in module.layers
                for leaf in _flatten_layers(layer)]
    return [module]


#: Layers a captured plan replays but the stacked engine cannot stack,
#: by the op name :func:`architecture_key` gives them.
_UNSTACKABLE = {"conv": "Conv2d", "pool": "MaxPool2d"}


def architecture_key(module: Module) -> tuple:
    """Hashable fingerprint of a module's architecture.

    Two modules share a key iff they run the same op sequence: same
    layer sequence (types + Linear dimensions + Dropout rates + conv and
    pool geometry) and same per-parameter shapes/dtypes.  The key is
    what plans are shared by and, for architectures without ``Conv2d``
    or ``MaxPool2d`` layers, what models stack by.
    Raises :class:`StackedModelError` for layers neither engine
    supports.
    """
    ops = []
    for layer in _flatten_layers(module):
        kind = type(layer)
        if kind is Linear:
            ops.append(("linear", layer.in_features, layer.out_features,
                        layer.bias is not None))
        elif kind in _ACTIVATION_NAMES:
            ops.append((_ACTIVATION_NAMES[kind],))
        elif kind is Dropout:
            ops.append(("dropout", layer.p))
        elif kind is Flatten:
            ops.append(("flatten",))
        elif kind is Conv2d:
            ops.append(("conv", layer.in_channels, layer.out_channels,
                        layer.kernel_size, F._pair(layer.stride),
                        F._pair(layer.padding), layer.bias is not None))
        elif kind is MaxPool2d:
            ops.append(("pool", F._pair(layer.kernel_size),
                        F._pair(layer.kernel_size if layer.stride is None
                                else layer.stride)))
        else:
            raise StackedModelError(
                f"cannot run {kind.__name__} layers on plans or stacks "
                f"(supported: Linear, ReLU/Tanh/Sigmoid, Dropout, Flatten, "
                f"Conv2d, MaxPool2d, Sequential)")
    spec = tuple((name, parameter.data.shape, parameter.data.dtype.str)
                 for name, parameter in module.named_parameters())
    return (tuple(ops), spec)


def _unstackable_layer(key: tuple) -> str | None:
    """The first layer of an :func:`architecture_key` the stacked engine
    cannot stack, by class name; None when it can stack them all."""
    for op in key[0]:
        if op[0] in _UNSTACKABLE:
            return _UNSTACKABLE[op[0]]
    return None


def stacked_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Per-model softmax cross-entropy: ``(models,)`` losses in one node.

    The cross-entropy node of :func:`repro.nn.functional.cross_entropy`
    on ``(models, batch, classes)`` logits: each model slice of the
    forward and backward is bitwise-identical to the per-model loss.
    Seed ``backward`` with ``np.ones(models)`` to mirror N independent
    scalar ``loss.backward()`` calls.
    """
    if logits.data.ndim != 3:
        raise StackedModelError(
            f"stacked_cross_entropy expects (models, batch, classes) "
            f"logits; got shape {logits.data.shape}")
    return F._cross_entropy(logits, np.asarray(labels, dtype=np.int64))


# -- the stack ---------------------------------------------------------------


class ModelStack(Module):
    """``num_models`` models of one architecture as one batched program.

    Built from one ``module`` of the architecture, whose values it does
    not copy: the stacked parameters, one per ``module`` parameter with
    the model axis in front, start at zeros.  Its owner, a
    :class:`StackedArena`, fills their rows and the Dropout ops'
    generator slots each round.  The stack keeps no reference to
    ``module`` or to any model.
    """

    def __init__(self, module: Module, num_models: int):
        super().__init__()
        key = architecture_key(module)
        unstackable = _unstackable_layer(key)
        if unstackable is not None:
            raise StackedModelError(
                f"cannot stack {unstackable} layers (supported: Linear, "
                f"ReLU/Tanh/Sigmoid, Dropout, Flatten, Sequential)")
        self.num_models = num_models
        object.__setattr__(self, "key", key)
        params = module.parameters()
        stacked: list[Parameter] = []
        for index, parameter in enumerate(params):
            data = parameter.data
            stacked_param = Parameter(
                np.zeros((num_models, *data.shape), dtype=data.dtype))
            setattr(self, f"stacked{index}", stacked_param)
            stacked.append(stacked_param)
        self.stacked_params = stacked
        self._plan = self._build_plan(module, params)
        #: Per Dropout op, the generators its model rows draw from.
        self.rngs = [op[2] for op in self._plan if op[0] == "dropout"]

    def _build_plan(self, module: Module, params: list) -> list[tuple]:
        """Fold the layer sequence into stacked ops.

        A ``Linear`` directly followed by a fusable activation folds into
        one node, as ``Sequential.forward`` folds it.  A Dropout op holds
        one generator slot per model row, empty until an arena binds them.
        """
        index_of = {id(parameter): position
                    for position, parameter in enumerate(params)}
        layers = _flatten_layers(module)
        plan: list[tuple] = []
        position = 0
        while position < len(layers):
            layer = layers[position]
            kind = type(layer)
            if kind is Linear:
                weight = self.stacked_params[index_of[id(layer.weight)]]
                bias = (self.stacked_params[index_of[id(layer.bias)]]
                        if layer.bias is not None else None)
                activation = None
                if position + 1 < len(layers):
                    activation = _ACTIVATION_NAMES.get(
                        type(layers[position + 1]))
                plan.append(("linear", weight, bias, activation))
                position += 2 if activation is not None else 1
            elif kind in _ACTIVATION_NAMES:
                plan.append(("act", _ACTIVATION_NAMES[kind]))
                position += 1
            elif kind is Dropout:
                plan.append(("dropout", layer.p, [None] * self.num_models))
                position += 1
            elif kind is Flatten:
                plan.append(("flatten",))
                position += 1
            else:  # architecture_key already rejected unsupported layers
                raise StackedModelError(
                    f"cannot stack {kind.__name__} layers")
        return plan

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.ndim < 2 or x.data.shape[0] != self.num_models:
            raise ValueError(
                f"stacked input must lead with the model axis "
                f"({self.num_models}); got shape {x.data.shape}")
        for op in self._plan:
            kind = op[0]
            if kind == "linear":
                x = F.fused_linear(x, op[1], op[2], op[3])
            elif kind == "act":
                x = getattr(F, op[1])(x)
            elif kind == "dropout":
                x = F.dropout(x, op[1], self.training, op[2])
            else:  # flatten: keep the model axis, flatten the rest per row
                rec = _record.current() if _record.ACTIVE else None
                if rec is not None:
                    rec.begin()
                out = x.reshape(self.num_models, x.data.shape[1], -1)
                if rec is not None:
                    rec.end(("flatten", x, out))
                x = out
        return x

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Per-model class probabilities for ``(models, batch, …)`` input.

        Mirrors ``NeuralStreamingModel.predict_proba`` per slice: eval
        mode, no-grad forward, then the inference softmax with a leading
        model axis.
        """
        from .tensor import no_grad

        x = _model_axis(self, x)
        self.eval()
        with no_grad():
            probabilities = F.softmax(self.forward(Tensor(x)))
        self.train()
        return probabilities.data


def stacked_fit(stack: ModelStack, optimizer, xs: np.ndarray,
                ys: np.ndarray, sgd_steps: int = 1) -> np.ndarray:
    """``sgd_steps`` batched training steps; returns the last per-model losses.

    Mirrors ``NeuralStreamingModel.partial_fit``'s loop (zero_grad →
    forward → cross-entropy → backward → step) with the model axis in
    front; ``backward`` is seeded with ``ones(models)`` so each model's
    gradient flow equals its own scalar ``loss.backward()``.
    """
    xs = _model_axis(stack, xs)
    ys = np.asarray(ys, dtype=np.int64).reshape(stack.num_models, -1)
    result = _plan.stacked_fit_with_plan(stack, optimizer, xs, ys, sgd_steps,
                                         _stacked_fit_steps)
    if result is not None:
        return result[0]
    return _stacked_fit_steps(stack, optimizer, xs, ys, sgd_steps)


def stacked_predict_proba(stack: ModelStack, xs: np.ndarray) -> np.ndarray:
    """``stack.predict_proba(xs)``, replayed from a captured plan.

    With ``plan_capture`` on, one inference plan per architecture and
    input shape — compiled from ``predict_proba``'s trace and matched to
    its bytes at capture — serves every stack; what the engine cannot
    replay runs ``predict_proba`` itself.
    """
    xs = _model_axis(stack, xs)
    probabilities = _plan.stacked_proba_with_plan(stack, xs)
    if probabilities is not None:
        return probabilities
    return stack.predict_proba(xs)


def stacked_predict_fit(stack: ModelStack, optimizer, xs: np.ndarray,
                        ys: np.ndarray, sgd_steps: int = 1
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Predict from the pre-step weights, then train.

    Returns ``(probabilities, losses)``, bitwise what
    ``stack.predict_proba(xs)`` and then :func:`stacked_fit` return.
    With ``plan_capture`` on, a stack without Dropout runs both as one
    predict-and-train plan: its train and eval forwards run the same
    kernels on the same weights, so the first training forward's logits
    give the prediction.  A stack with Dropout, whose training forward
    draws masks, predicts through :func:`stacked_predict_proba` and
    trains through :func:`stacked_fit`.
    """
    xs = _model_axis(stack, xs)
    ys = np.asarray(ys, dtype=np.int64).reshape(stack.num_models, -1)
    result = _plan.stacked_fit_with_plan(stack, optimizer, xs, ys, sgd_steps,
                                         _stacked_fit_steps, predict=True)
    if result is not None:
        losses, probabilities = result
        return probabilities, losses
    probabilities = stacked_predict_proba(stack, xs)
    return probabilities, stacked_fit(stack, optimizer, xs, ys, sgd_steps)


def _model_axis(stack: ModelStack, xs) -> np.ndarray:
    """``xs`` as float ``(models, batch, features)``."""
    xs = np.asarray(xs, dtype=float)
    return xs.reshape(stack.num_models, xs.shape[1], -1)


def _stacked_fit_steps(stack: ModelStack, optimizer, xs: np.ndarray,
                       ys: np.ndarray, sgd_steps: int) -> np.ndarray:
    """The reference step loop (also the trace target for plan capture)."""
    seed = np.ones(stack.num_models)
    losses = None
    for _ in range(sgd_steps):
        optimizer.zero_grad()
        logits = stack(Tensor(xs))
        loss = stacked_cross_entropy(logits, ys)
        loss.backward(seed)
        optimizer.step()
        losses = loss.data.copy()
    return losses


# -- persistent arenas -------------------------------------------------------


def _hyperparameters(optimizer) -> tuple | None:
    """Hashable optimizer configuration a stacking group shares; None for
    types that cannot stack.  Adam's step count is state, not
    configuration."""
    kind = type(optimizer)
    if kind is SGD:
        return ("sgd", optimizer.lr, optimizer.momentum,
                optimizer.weight_decay)
    if kind is Adam:
        return ("adam", optimizer.lr, optimizer.beta1, optimizer.beta2,
                optimizer.eps, optimizer.weight_decay)
    return None


def stacking_group(model) -> tuple | None:
    """What a streaming model stacks by; None when it cannot stack.

    ``model`` is a :class:`~repro.models.base.NeuralStreamingModel`.  The
    group is its plan structure — class, ``architecture_key``, optimizer
    class and module input shape, computed once per model and cached
    with its plan binding (:mod:`repro.nn.plan`) — plus its optimizer's
    hyperparameters.  A model whose ``_plan_structure`` opts out (a
    custom ``_prepare``, which the stacked program would skip, an exotic
    optimizer, or a layer neither engine runs) has no group, and neither
    has one whose plans replay layers the stacked engine cannot stack
    (a CNN).
    """
    binding = _plan._binding(model)
    if (binding is None
            or _unstackable_layer(binding.structure[1]) is not None):
        return None
    hyperparameters = _hyperparameters(model.optimizer)
    if hyperparameters is None:
        return None
    return (binding.structure, hyperparameters)


def _shared_step_count(optimizers) -> int:
    """The Adam step count every optimizer sits at; raises when they differ."""
    counts = {optimizer._step_count for optimizer in optimizers}
    if len(counts) > 1:
        raise StackedModelError(
            f"Adam step counts differ across models: {sorted(counts)} "
            f"— bias correction cannot be shared")
    return counts.pop()


def _load_state(stacked, optimizers) -> None:
    """Copy each member optimizer's state into its row of ``stacked``'s.

    A member without state yet gets zeros, what its next serial step
    would start from.  Adam members must share one step count.  State
    laid out for another shape raises :class:`StackedModelError`: the
    serial path decides what happens to it.
    """
    if isinstance(stacked, Adam):
        stacked._step_count = _shared_step_count(optimizers)
    for name in stacked._state_names():
        for index in range(len(stacked.parameters)):
            slot = stacked._state_slot(name, index)
            for row, member in enumerate(optimizers):
                state = member._state_of(name, index)
                if state is not None and state.shape != slot.shape[1:]:
                    raise StackedModelError(
                        f"optimizer state of shape {state.shape}, not "
                        f"{slot.shape[1:]}")
                slot[row] = 0.0 if state is None else state


def _store_state(stacked, optimizers) -> None:
    """Copy each row of ``stacked``'s optimizer state into its member's."""
    for name in stacked._state_names():
        for index in range(len(stacked.parameters)):
            state = stacked._state_of(name, index)
            if state is None:
                continue
            for row, member in enumerate(optimizers):
                np.copyto(member._state_slot(name, index), state[row])
    if isinstance(stacked, Adam):
        for member in optimizers:
            member._step_count = stacked._step_count


class StackedArena:
    """A stack kept for one group shape: parameters, plan and optimizer.

    One arena serves every group of ``num_models`` models that share a
    :func:`stacking_group`: its :class:`ModelStack` has the group's
    architecture, and its plain :class:`~repro.nn.SGD` or
    :class:`~repro.nn.Adam` over the stacked parameters the group's
    hyperparameters.  Members move in and out only through :meth:`load`
    and :meth:`store`; the arena keeps no reference to a member's model,
    module or parameters.  A round calls :meth:`load`, runs the stacked
    program on :attr:`stack` and :attr:`optimizer`, and — after a
    successful training step — calls :meth:`store`.  Members are only
    read until :meth:`store`, so a round that fails leaves them as they
    were.
    """

    __slots__ = ("group", "stack", "optimizer", "nbytes")

    def __init__(self, models, group: tuple):
        stack = ModelStack(models[0].module, len(models))
        first = models[0].optimizer
        if type(first) is Adam:
            optimizer = Adam(stack.stacked_params, lr=first.lr,
                             betas=(first.beta1, first.beta2), eps=first.eps,
                             weight_decay=first.weight_decay)
        else:
            optimizer = SGD(stack.stacked_params, lr=first.lr,
                            momentum=first.momentum,
                            weight_decay=first.weight_decay)
        flat = optimizer._flat_state()
        self.group = group
        self.stack = stack
        self.optimizer = optimizer
        # Parameters, gradient and two scratch buffers, plus the state.
        self.nbytes = flat.flat.nbytes * (4 + len(optimizer._state_names()))

    def load(self, models, *, train: bool) -> None:
        """Copy each member into its row, in place.

        Copies parameters and binds Dropout generators; with ``train``
        also the optimizer state.  Raises :class:`StackedModelError`,
        before writing any member, when a member does not fit the arena.
        """
        if len(models) != self.stack.num_models:
            raise StackedModelError(
                f"{len(models)} models for an arena of "
                f"{self.stack.num_models}")
        rows = [parameter.data for parameter in self.stack.stacked_params]
        for row, model in enumerate(models):
            if stacking_group(model) != self.group:
                raise StackedModelError(
                    "model does not share the arena's stacking group")
            binding = _plan._binding(model)
            for target, parameter in zip(rows, binding.params):
                data = parameter.data
                if (data.shape != target.shape[1:]
                        or data.dtype != target.dtype):
                    raise StackedModelError(
                        f"parameter of shape {data.shape} and dtype "
                        f"{data.dtype} does not fit the arena's "
                        f"{target.shape[1:]} {target.dtype}")
                target[row] = data
            for rngs, rng in zip(self.stack.rngs, binding.rngs):
                rngs[row] = rng
        if train:
            _load_state(self.optimizer, [model.optimizer for model in models])

    def store(self, models) -> None:
        """Copy every row back into its member's existing arrays."""
        rows = [parameter.data for parameter in self.stack.stacked_params]
        for row, model in enumerate(models):
            for source, parameter in zip(rows, _plan._binding(model).params):
                np.copyto(parameter.data, source[row])
        _store_state(self.optimizer, [model.optimizer for model in models])


def stacked_arena(models) -> StackedArena:
    """The calling thread's :class:`StackedArena` for a group of models.

    Keyed by the first model's :func:`stacking_group` and the group size,
    built on first use, and kept in the thread's plan cache under its
    byte budget.  :meth:`StackedArena.load` checks the other members.
    """
    group = stacking_group(models[0]) if models else None
    if group is None:
        raise StackedModelError("these models cannot stack")
    key = ("arena", group, len(models))
    cache = _plan._cache()
    arena = cache.get(key)
    if arena is None:
        arena = StackedArena(models, group)
        cache.put(key, arena)
    return arena
