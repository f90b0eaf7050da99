"""Stacked co-scheduling for the serving layer.

The dispatcher normally serves one tenant's micro-batch at a time.  With
:attr:`~repro.serving.ServeConfig.stacked_execution` on, micro-batches
that are ready in the same dispatch round and share a *stacking key* —
same model architecture, same optimizer configuration, same row count,
same labeledness — execute as **one** batched tensor program through
:mod:`repro.nn.stacked` instead of N serial per-model steps.  Everything else (heterogeneous estimators,
mismatched row counts, labeled/unlabeled fences, unsupported
architectures) falls back to the serial per-tenant path.

The equivalence contract carries over unchanged from the engine: per
tenant, served labels and post-update parameters are bitwise-identical
to the serial loop, so the serving-equivalence replay gate in
``bench_serving.py`` holds with stacking on.

A group runs in the calling thread's persistent arena for its stacking
group and size (:func:`~repro.nn.stacked.stacked_arena`), the one way to
stack: each round copies the tenants' parameters and optimizer state
into the arena's rows and back, in place.  Co-scheduling composes with
the captured-plan engine: with the ``plan_capture`` flag on, a recurring
tenant-group signature runs the stacked round through replayed plans
(:mod:`repro.nn.plan`) — an inference plan for an unlabeled round, one
predict-and-train plan for a labeled one — stacking the amortization
wins: one tensor program for N tenants, compiled once and replayed
allocation-free.

:class:`ModelEstimator` adapts a bare
:class:`~repro.models.base.NeuralStreamingModel` to the
:class:`~repro.api.StreamingEstimator` protocol — the stackable tenant
estimator for model-level serving (a full FreewayML ``Learner`` carries
per-tenant drift state the stacked program cannot batch, so Learner
tenants always take the serial path).
"""

from __future__ import annotations

import time

import numpy as np

from ..api import BaseReport
from ..nn import Adam
from ..nn.serialization import load_training_state, training_state
from ..nn.stacked import (stacked_arena, stacked_predict_fit,
                          stacked_predict_proba, stacking_group)

__all__ = ["ModelEstimator", "stacking_key", "plan_stacked_groups",
           "execute_stacked"]


class ModelEstimator:
    """A single streaming model speaking the estimator protocol.

    Wraps a :class:`~repro.models.base.NeuralStreamingModel` (e.g.
    ``StreamingLR`` / ``StreamingMLP``) for serving: ``predict`` returns
    hard labels, ``update`` is one ``partial_fit``, and checkpoints are
    the model's full training state — parameters, optimizer state
    (momentum / Adam moments and step count), Dropout generator states
    and update count — so an evicted tenant resumes exactly where it
    left off.
    """

    def __init__(self, model):
        self.model = model

    # -- stacking ------------------------------------------------------------

    def stacking_handle(self):
        """The wrapped model, telling the dispatcher this tenant stacks."""
        return self.model

    # -- StreamingEstimator protocol -----------------------------------------

    def predict(self, x) -> np.ndarray:
        return self.model.predict(np.asarray(x, dtype=float))

    def update(self, x, y) -> float:
        return self.model.partial_fit(x, y)

    def process(self, batch) -> BaseReport:
        started = time.perf_counter()
        labels = self.predict(batch.x)
        accuracy = None
        if batch.y is not None:
            accuracy = float(np.mean(labels == np.asarray(batch.y)))
            self.update(batch.x, batch.y)
        return BaseReport(
            batch_index=batch.index, num_items=len(batch.x),
            strategy=self.model.name, accuracy=accuracy,
            latency_s=time.perf_counter() - started)

    def summary(self) -> dict:
        return {
            "estimator": self.model.name,
            "updates": self.model.updates,
            "parameters": self.model.num_parameters(),
        }

    def close(self) -> None:
        """Nothing beyond memory to release; kept for the lifecycle."""

    def __enter__(self) -> "ModelEstimator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """The model's :func:`~repro.nn.serialization.training_state`."""
        return training_state(self.model)

    def load_state_dict(self, state: dict) -> None:
        load_training_state(self.model, state)


def stacking_key(estimator, rows: int, labeled: bool):
    """Group key for one dispatched micro-batch; None → serial path.

    Two micro-batches may execute stacked iff their keys are equal: the
    same :func:`~repro.nn.stacked.stacking_group` (model class,
    architecture and optimizer configuration, computed once per model),
    for Adam the same step count, since bias correction is shared across
    a stack, the same ``sgd_steps``, the same coalesced row count, and
    the same labeledness.
    """
    handle = getattr(estimator, "stacking_handle", None)
    if handle is None:
        return None
    model = handle()
    if model is None:
        return None
    group = stacking_group(model)
    if group is None:
        return None
    optimizer = model.optimizer
    step = optimizer._step_count if type(optimizer) is Adam else 0
    return (group, step, model.sgd_steps, rows, labeled)


def plan_stacked_groups(jobs, key_of, *, min_group: int = 2
                        ) -> tuple[list[list], list]:
    """Group jobs by stacking key; undersized groups go serial.

    ``jobs`` is any sequence; ``key_of(job)`` returns the job's stacking
    key (or None for never-stackable jobs).  Returns ``(groups,
    singles)``: the lists of jobs that run stacked, one per key, and the
    jobs that run serially.  Grouping preserves dispatch order within
    each group and within the serial remainder.  With fewer than
    ``min_group`` jobs no group can form, and no key is computed.
    """
    if len(jobs) < min_group:
        return [], list(jobs)
    keyed = [(job, key_of(job)) for job in jobs]
    by_key: dict = {}
    for job, key in keyed:
        if key is not None:
            by_key.setdefault(key, []).append(job)
    groups = [grouped for grouped in by_key.values()
              if len(grouped) >= min_group]
    singles = [job for job, key in keyed
               if key is None or len(by_key[key]) < min_group]
    return groups, singles


def execute_stacked(estimators, xs, ys) -> np.ndarray:
    """One batched predict(+update) step for N same-key tenants.

    Mirrors :func:`~repro.serving.service.predict_and_update` per model:
    predict from the pre-update weights, then (for labeled batches) run
    ``sgd_steps`` training steps — all through one stacked program in the
    thread's arena for this group.  With plan capture on, an unlabeled
    round replays a stacked inference plan, and a labeled one a
    predict-and-train plan whose first training forward gives the
    prediction (:func:`~repro.nn.stacked.stacked_predict_fit`), so no
    round builds a Tensor graph.  Returns the ``(models, rows)``
    predicted labels; each estimator's model ends bitwise-identical to
    having served its batch alone.  Raises
    :class:`~repro.nn.stacked.StackedModelError`, leaving every model as
    it was, when the models do not stack.
    """
    models = [estimator.stacking_handle() for estimator in estimators]
    stacked_x = np.stack([
        np.asarray(x, dtype=float).reshape(len(x), -1) for x in xs])
    labeled = ys[0] is not None
    arena = stacked_arena(models)
    arena.load(models, train=labeled)
    if not labeled:
        return stacked_predict_proba(arena.stack, stacked_x).argmax(axis=-1)
    stacked_y = np.stack([
        np.asarray(y, dtype=np.int64).reshape(-1) for y in ys])
    probabilities, _ = stacked_predict_fit(
        arena.stack, arena.optimizer, stacked_x, stacked_y,
        sgd_steps=models[0].sgd_steps)
    arena.store(models)
    for model in models:
        model.updates += 1
        model._weights_version += 1
    return probabilities.argmax(axis=-1)
