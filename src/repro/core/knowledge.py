"""Historical knowledge reuse (paper Section IV-D).

Knowledge is preserved as ``(d_i, k_i)`` pairs — a distribution embedding
plus reusable model parameters.  Preservation is gated by the ASW's
disorder (threshold ``beta``): a high-disorder window means the
long-granularity model is the stable one worth keeping; a low-disorder
window signals an orderly directional shift whose end state the short
model captures, so the short model is preserved as well.

When a severe shift occurs, :meth:`KnowledgeStore.match` finds the stored
distribution nearest the current batch; if it is closer than the previous
batch (``d_i < d_t``), the knowledge is reused.

The store is bounded (the paper's ``KdgBuffer``): at capacity, the older
half is spilled to local storage (if a spill directory is configured) and
dropped from memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..analysis.checkpoint import check_state_dict
from ..nn.serialization import (
    parameters_of,
    read_checkpoint,
    state_dict_nbytes,
    write_checkpoint,
)
from ..obs import NULL_OBS, CheckpointRejected, KnowledgeEvicted, KnowledgePreserved

__all__ = ["KnowledgeEntry", "KnowledgeMatch", "KnowledgeStore"]


@dataclass
class KnowledgeEntry:
    """One preserved ``(d_i, k_i)`` pair."""

    embedding: np.ndarray          # d_i: the distribution this knowledge fits
    state: dict                    # k_i: model parameters (a state_dict)
    model_kind: str                # which granularity model produced it
    disorder: float                # window disorder at preservation time
    batch_index: int               # stream position at preservation time
    created_at: float = field(default_factory=time.monotonic)

    @property
    def nbytes(self) -> int:
        """Parameter payload size (Table IV accounting)."""
        return state_dict_nbytes(self.state)

    def checkpoint(self) -> tuple[dict, dict]:
        """``(arrays, meta)`` for this entry, as a learner checkpoint and
        the spill store it: the parameters plus ``__embedding__``."""
        arrays = dict(self.state)
        arrays["__embedding__"] = self.embedding
        return arrays, {"model_kind": self.model_kind,
                        "disorder": self.disorder,
                        "batch_index": self.batch_index}

    @classmethod
    def from_checkpoint(cls, arrays: dict, meta: dict) -> "KnowledgeEntry":
        """Inverse of :meth:`checkpoint`."""
        return cls(
            embedding=np.asarray(arrays["__embedding__"],
                                 dtype=float).reshape(-1),
            state={name: np.array(value)
                   for name, value in parameters_of(arrays).items()},
            model_kind=str(meta["model_kind"]),
            disorder=float(meta["disorder"]),
            batch_index=int(meta["batch_index"]),
        )


@dataclass
class KnowledgeMatch:
    """Result of a knowledge lookup."""

    entry: KnowledgeEntry
    distance: float


class KnowledgeStore:
    """Bounded distribution-indexed checkpoint store (the ``KdgBuffer``).

    Parameters
    ----------
    capacity:
        Maximum entries held in memory (the paper's ``KdgBuffer`` size,
        default 20 in the ``Learner`` interface).
    beta:
        Disorder threshold gating what is preserved at the end of each ASW.
    spill_dir:
        Optional directory; when the store overflows, the older half is
        written there before being evicted from memory.
    obs:
        Optional :class:`~repro.obs.Observability`; preservation and
        eviction emit :class:`~repro.obs.KnowledgePreserved` /
        :class:`~repro.obs.KnowledgeEvicted` events when enabled.
    """

    def __init__(self, capacity: int = 20, beta: float = 0.35,
                 spill_dir: str | Path | None = None, obs=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1; got {capacity}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1]; got {beta}")
        self.capacity = capacity
        self.beta = beta
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.obs = obs if obs is not None else NULL_OBS
        self._entries: list[KnowledgeEntry] = []
        self.preserved_total = 0
        self.spilled_total = 0
        self._spill_counter = 0  # monotonic: makes spill filenames unique

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[KnowledgeEntry]:
        return list(self._entries)

    def total_nbytes(self) -> int:
        """In-memory space overhead of all preserved knowledge (Table IV)."""
        return sum(entry.nbytes for entry in self._entries)

    # -- preservation ----------------------------------------------------------

    def preserve(self, embedding: np.ndarray, state: dict, model_kind: str,
                 disorder: float, batch_index: int) -> KnowledgeEntry:
        """Unconditionally store one ``(d_i, k_i)`` pair."""
        entry = KnowledgeEntry(
            embedding=np.asarray(embedding, dtype=float).reshape(-1),
            state={name: np.asarray(value).copy() for name, value in state.items()},
            model_kind=model_kind,
            disorder=float(disorder),
            batch_index=int(batch_index),
        )
        self._entries.append(entry)
        self.preserved_total += 1
        if self.obs.enabled:
            self.obs.emit(KnowledgePreserved(
                batch=entry.batch_index, model_kind=entry.model_kind,
                disorder=entry.disorder, nbytes=entry.nbytes,
                store_size=len(self._entries),
            ))
            self.obs.registry.counter(
                "freeway_knowledge_preserved_total",
                "knowledge entries preserved",
            ).labels(model_kind=entry.model_kind).inc()
        if len(self._entries) > self.capacity:
            self._overflow()
        if self.obs.enabled:
            self.obs.registry.gauge(
                "freeway_knowledge_entries",
                "knowledge entries currently in memory",
            ).set(len(self._entries))
        return entry

    def preserve_at_window_end(self, disorder: float, long_embedding: np.ndarray,
                               long_state: dict, short_embedding: np.ndarray,
                               short_state: dict, batch_index: int) -> list[KnowledgeEntry]:
        """Disorder-gated preservation at the end of an ASW (Section IV-D.1).

        The long-granularity model and the window's distribution are always
        preserved (it is the stable model).  When disorder is *below*
        ``beta`` — an orderly directional shift — the short model and the
        current distribution are preserved as well, because the post-shift
        state it captures is exactly what a reoccurrence will look like.
        """
        preserved = [
            self.preserve(long_embedding, long_state, "long", disorder,
                          batch_index)
        ]
        if disorder < self.beta and short_state is not None:
            preserved.append(
                self.preserve(short_embedding, short_state, "short", disorder,
                              batch_index)
            )
        return preserved

    def _overflow(self) -> None:
        """Spill/evict the older half when capacity is exceeded."""
        half = max(len(self._entries) // 2, 1)
        evicted, self._entries = self._entries[:half], self._entries[half:]
        self.spilled_total += len(evicted)
        if self.obs.enabled:
            self.obs.emit(KnowledgeEvicted(
                count=len(evicted), spilled=self.spill_dir is not None,
                store_size=len(self._entries),
            ))
            self.obs.registry.counter(
                "freeway_knowledge_evicted_total",
                "knowledge entries evicted from memory",
            ).inc(len(evicted))
        if self.spill_dir is None:
            return
        for entry in evicted:
            # The sequence number keeps filenames unique: one window end can
            # preserve both a long and a short entry at the same batch
            # index, and re-preservation at a revisited index must not
            # overwrite the earlier spill.
            path = self.spill_dir / (
                f"knowledge-{entry.batch_index:08d}-{entry.model_kind}"
                f"-{self._spill_counter:06d}.npz"
            )
            self._spill_counter += 1
            # The full (d_i, k_i) pair goes to disk — parameters alone are
            # unreusable because matching is distribution-indexed.
            write_checkpoint(path, *entry.checkpoint())

    @staticmethod
    def load_spilled(path: str | Path) -> KnowledgeEntry:
        """Rehydrate one spilled entry (embedding, parameters, metadata).

        The inverse of the overflow spill: returns a full
        :class:`KnowledgeEntry` ready to be matched or restored.  Raises
        :class:`ValueError` for any other file.
        """
        try:
            return KnowledgeEntry.from_checkpoint(*read_checkpoint(path))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"{path} is not a knowledge spill file") from error

    def readmit(self, path: str | Path) -> KnowledgeEntry:
        """Load a spilled entry back into the in-memory store."""
        entry = self.load_spilled(path)
        self._entries.append(entry)
        if len(self._entries) > self.capacity:
            self._overflow()
        return entry

    # -- restoration -------------------------------------------------------------

    def restore(self, entry: KnowledgeEntry, model) -> None:
        """Load ``entry``'s parameters into ``model`` after a static check.

        The stored ``state_dict`` is verified against the model's resident
        parameters (names, shapes, dtype kinds) *before* anything is
        written.  An incompatible entry — preserved under a different
        architecture, truncated on disk, or re-dtyped — raises a typed
        :class:`~repro.analysis.CheckpointIncompatibleError` and emits a
        :class:`~repro.obs.CheckpointRejected` event instead of failing
        deep inside a numpy broadcast.
        """
        report = check_state_dict(model.state_dict(), entry.state)
        if not report.ok:
            if self.obs.enabled:
                self.obs.emit(CheckpointRejected(
                    source="knowledge",
                    reason=report.problems[0].describe(),
                    problems=len(report.problems),
                    batch=entry.batch_index,
                    model_kind=entry.model_kind,
                ))
                self.obs.registry.counter(
                    "freeway_checkpoints_rejected_total",
                    "checkpoint restores blocked by the compat checker",
                ).labels(source="knowledge").inc()
            report.raise_if_incompatible(
                context=f"knowledge entry from batch {entry.batch_index}"
            )
        model.load_state_dict(entry.state)

    # -- matching ----------------------------------------------------------------

    def match(self, embedding: np.ndarray,
              current_shift: float | None = None) -> KnowledgeMatch | None:
        """Nearest stored distribution to ``embedding`` (Section IV-D.2).

        If ``current_shift`` (:math:`d_t`) is given, the match is returned
        only when the stored distribution is *closer* than the previous
        batch was — the paper's reuse condition.
        """
        if not self._entries:
            return None
        embedding = np.asarray(embedding, dtype=float).reshape(-1)
        distances = np.array([
            np.linalg.norm(entry.embedding - embedding)
            for entry in self._entries
        ])
        best = int(distances.argmin())
        distance = float(distances[best])
        if current_shift is not None and distance >= current_shift:
            return None
        return KnowledgeMatch(entry=self._entries[best], distance=distance)
