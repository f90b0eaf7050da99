"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is generated here from the
``--seed`` argument by the benchmark's own code, so a change to the
program's data generators cannot change what is measured.  Two families:

- :func:`stream_batches` — the labelled drift stream of the ``stream-*``
  workloads: the pattern-mix schedule (directional and localized drift, a
  sudden jump to a remixed concept, reoccurrences) repeated ``cycles``
  times.  The concepts are fixed, so every seed poses the same drift
  scenario; the seed draws every row and every drift step.  (With seeded
  concepts, peak memory on ``stream-mlp`` varied by 20% between seeds,
  because the window sizes the long model trains on, and so the plans it
  keeps, follow the concepts' geometry.)  Batches are produced lazily, so
  a 576-batch stream never holds more than one batch of input in memory.
- :func:`serving_requests` — ``(tenant, x, y)`` requests with Zipf-ranked
  tenant popularity for the ``serve-*`` workloads.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SCHEDULE", "stream_batches", "serving_requests"]

#: One cycle of the stream: ``(concept, batches, drift kind, entry)``.
#: A ``sudden`` or ``reoccurring`` entry leaks the incoming concept into
#: the tail of the batch before it (shifts never align with batches).
SCHEDULE = (
    ("c0", 12, "directional", "none"),
    ("c0", 12, "localized", "none"),
    ("c1", 12, "localized", "sudden"),
    ("c1", 6, "directional", "none"),
    ("c0", 12, "localized", "reoccurring"),
    ("c2", 12, "localized", "sudden"),
    ("c1", 6, "stationary", "reoccurring"),
)
CYCLE_BATCHES = sum(length for _name, length, _kind, _entry in SCHEDULE)

DRIFT_STEP = 0.05
#: Seeds the concepts' geometry, which every ``--seed`` shares.
CONCEPT_SEED = 2025
TRANSITION_FRACTION = 0.1


class _Concept:
    """One Gaussian cluster per class, with a persistent drift direction."""

    def __init__(self, means: np.ndarray, direction: np.ndarray):
        self.means = means
        self.direction = direction

    def copy(self) -> "_Concept":
        return _Concept(self.means.copy(), self.direction.copy())

    def sample(self, rng: np.random.Generator, rows: int):
        y = rng.integers(0, len(self.means), size=rows)
        x = self.means[y] + rng.normal(size=(rows, self.means.shape[1]))
        return x, y

    def drift(self, rng: np.random.Generator) -> None:
        direction = self.direction + rng.normal(scale=0.05,
                                                size=self.direction.shape)
        self.direction = _unit_rows(direction)
        self.means = self.means + DRIFT_STEP * self.direction

    def jitter(self, rng: np.random.Generator) -> None:
        self.means = self.means + rng.normal(scale=DRIFT_STEP,
                                             size=self.means.shape)

    def remix(self, rng: np.random.Generator, offset: float) -> "_Concept":
        """A concept whose class regions are permuted and moved away."""
        means = self.means[rng.permutation(len(self.means))]
        shift = rng.normal(size=means.shape[1])
        means = means + offset * shift / np.linalg.norm(shift)
        return _Concept(means, _unit_rows(rng.normal(size=means.shape)))


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def _concepts(rng: np.random.Generator, num_classes: int,
              num_features: int) -> dict:
    base = _Concept(rng.normal(0.0, 3.0, size=(num_classes, num_features)),
                    _unit_rows(rng.normal(size=(num_classes, num_features))))
    return {"c0": base, "c1": base.remix(rng, 4.0), "c2": base.remix(rng, 5.0)}


def stream_batches(seed: int, batch_size: int, cycles: int, *,
                   num_features: int = 16, num_classes: int = 4):
    """Yield ``(x, y)`` for ``cycles`` repetitions of :data:`SCHEDULE`.

    The same arguments always yield the same arrays.
    """
    concepts = _concepts(np.random.default_rng(CONCEPT_SEED), num_classes,
                         num_features)
    rng = np.random.default_rng(seed)
    segments = SCHEDULE * cycles
    leak = int(round(batch_size * TRANSITION_FRACTION))
    for position, (name, length, kind, _entry) in enumerate(segments):
        live = concepts[name].copy()
        following = (segments[position + 1]
                     if position + 1 < len(segments) else None)
        for step in range(length):
            if step and kind == "directional":
                live.drift(rng)
            elif step and kind == "localized":
                live.jitter(rng)
            x, y = live.sample(rng, batch_size)
            if (step == length - 1 and following is not None
                    and following[3] != "none"):
                leak_x, leak_y = concepts[following[0]].sample(rng, leak)
                x = np.concatenate([x[:batch_size - leak], leak_x])
                y = np.concatenate([y[:batch_size - leak], leak_y])
            yield x, y


def serving_requests(seed: int, *, num_requests: int, num_tenants: int,
                     unlabeled_share: float = 0.0, rows: int = 4,
                     num_features: int = 8, num_classes: int = 2,
                     exponent: float = 1.05) -> list:
    """``num_requests`` requests ``(tenant, x, y)``; ``y`` is None when
    the request is unlabeled.

    Tenant ``k`` (0 is the hottest) is drawn with probability
    proportional to ``(k + 1) ** -exponent``; each tenant's rows come from
    its own pair of class clusters.
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1, num_tenants + 1, dtype=float) ** -exponent
    ranks = rng.choice(num_tenants, size=num_requests, p=weights / weights.sum())
    centers = rng.normal(scale=2.0, size=(num_tenants, num_classes,
                                          num_features))
    y = rng.integers(0, num_classes, size=(num_requests, rows))
    x = centers[ranks[:, None], y] + rng.normal(
        size=(num_requests, rows, num_features))
    labeled = rng.random(num_requests) >= unlabeled_share
    width = len(str(num_tenants - 1))
    return [(f"tenant-{rank:0{width}d}", x[index],
             y[index] if labeled[index] else None)
            for index, rank in enumerate(ranks)]
