"""Adaptive Streaming Window (paper Section IV-B, Algorithm 1, Eq. 11).

The ASW manages the training data of the long-time-granularity model.  When
a new batch arrives, every stored batch is *decayed* by an amount that
depends on (a) its shift distance from the new batch — closer batches decay
less, so the window tracks the current distribution — and (b) the window's
*disorder*, the inversion count of the distance ranking taken in
chronological order (Eq. 11):

- **low disorder** means distances fall off monotonically with age — a
  directional shift (Pattern A1) — so decay stays gentle and the window
  turns over in an orderly way toward the new distribution;
- **high disorder** means distances are shuffled with respect to time — a
  localized shift (Pattern A2) — so decay accelerates, trimming redundant
  data and avoiding unnecessary update work.

Rank convention: ``tau_i`` is the rank of batch ``i``'s distance with the
*farthest* batch ranked 0.  Under a directional shift the oldest batch is
farthest, so the chronological rank sequence is ascending and the inversion
count is zero; a localized shift shuffles the ranks and pushes the count
toward its maximum ``k·(k−1)/2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import NULL_OBS, AswDecayApplied

__all__ = ["WindowEntry", "AdaptiveStreamingWindow", "inversion_count"]


def _merge_count(sequence: list) -> tuple[list, int]:
    """Merge-sort ``sequence`` ascending, returning (sorted, inversions)."""
    n = len(sequence)
    if n < 2:
        return sequence, 0
    mid = n // 2
    left, inv_left = _merge_count(sequence[:mid])
    right, inv_right = _merge_count(sequence[mid:])
    merged = []
    inversions = inv_left + inv_right
    i = j = 0
    len_left = len(left)
    while i < len_left and j < len(right):
        if left[i] <= right[j]:  # ties are not inversions (strict >)
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            # right[j] jumps ahead of every remaining left element.
            inversions += len_left - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inversions


def inversion_count(sequence: np.ndarray) -> int:
    """Number of out-of-order pairs, ``|{(i, j): i < j and s_i > s_j}|`` (Eq. 11).

    Counted during an O(k log k) merge sort; being integer arithmetic the
    result is exactly the naive pair count (property-tested against an
    O(k²) reference in ``tests/test_asw.py``).
    """
    values = np.asarray(sequence).tolist()
    if len(values) < 2:
        return 0
    return _merge_count(values)[1]


@dataclass
class WindowEntry:
    """One batch held by the window.

    Decay weights live on the owning window as one array (vectorized
    decay, see :meth:`AdaptiveStreamingWindow.entry_weights`), not on the
    entry.
    """

    x: np.ndarray
    y: np.ndarray
    embedding: np.ndarray
    index: int


class AdaptiveStreamingWindow:
    """Shift-aware decaying window over recent training batches.

    Parameters
    ----------
    max_batches / max_items:
        Fullness thresholds; when either is reached the owner should train
        the long-granularity model on :meth:`training_data` and call
        :meth:`reset` (Algorithm 1, line 3).  ``max_items`` counts
        *effective* rows, i.e. rows scaled by decay weights.
    base_decay:
        Baseline per-arrival decay rate.  The effective rate for entry ``i``
        is ``base_decay * (0.5 + disorder) * (0.5 + rank_i) * boost``, where
        ``disorder`` is the normalized inversion count and ``rank_i`` the
        normalized distance rank (closest 0, farthest 1).
    min_weight:
        Entries whose weight falls below this are evicted outright.
    seed:
        RNG seed for weighted row subsampling in :meth:`training_data`.
    name / obs:
        Identifier used in emitted events and the
        :class:`~repro.obs.Observability` facade; every decay pass emits an
        :class:`~repro.obs.AswDecayApplied` event when enabled.
    """

    def __init__(self, max_batches: int = 16, max_items: int = 16384,
                 base_decay: float = 0.12, min_weight: float = 0.05,
                 seed: int = 0, name: str = "asw", obs=None):
        if max_batches < 1:
            raise ValueError(f"max_batches must be >= 1; got {max_batches}")
        if max_items < 1:
            raise ValueError(f"max_items must be >= 1; got {max_items}")
        if not 0.0 <= base_decay < 1.0:
            raise ValueError(f"base_decay must be in [0, 1); got {base_decay}")
        self.max_batches = max_batches
        self.max_items = max_items
        self.base_decay = base_decay
        self.min_weight = min_weight
        self.decay_boost = 1.0  # raised by the rate-aware adjuster under load
        self.name = name
        self.obs = obs if obs is not None else NULL_OBS
        self._rng = np.random.default_rng(seed)
        self._entries: list[WindowEntry] = []
        # Parallel arrays over ``_entries`` (oldest first): decay weights,
        # row counts, and the stacked embedding matrix.  Keeping them as
        # arrays makes the per-arrival decay one vectorized pass instead
        # of a per-entry Python loop.
        self._weights = np.empty(0)
        self._sizes = np.empty(0, dtype=np.int64)
        self._embeddings: np.ndarray | None = None
        self._last_disorder: float = 0.0
        self._arrivals = 0

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def num_batches(self) -> int:
        return len(self._entries)

    @property
    def effective_items(self) -> float:
        """Decay-weighted row count across the window."""
        return float(self._weights @ self._sizes)

    @property
    def is_full(self) -> bool:
        """Whether the window has hit a fullness threshold (Alg. 1, line 3)."""
        return (self.num_batches >= self.max_batches
                or self.effective_items >= self.max_items)

    @property
    def disorder(self) -> float:
        """Normalized disorder of the window at the last :meth:`add` (0..1)."""
        return self._last_disorder

    def mean_embedding(self) -> np.ndarray:
        """Weight-averaged embedding of the window (for ``D_Long``, Eq. 13)."""
        if not self._entries:
            raise RuntimeError("window is empty")
        weights = self._weights
        return (weights[:, None] * self._embeddings).sum(axis=0) / weights.sum()

    def entry_weights(self) -> np.ndarray:
        """Current decay weights, oldest entry first."""
        return self._weights.copy()

    # -- Algorithm 1 ------------------------------------------------------------

    def add(self, x: np.ndarray, y: np.ndarray, embedding: np.ndarray) -> None:
        """Insert a batch, decaying existing entries by shift rank and disorder."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=np.int64).reshape(-1)
        embedding = np.asarray(embedding, dtype=float).reshape(-1)
        if len(x) != len(y):
            raise ValueError(f"{len(x)} rows but {len(y)} labels")
        if self._entries:
            self._decay_against(embedding)
        self._entries.append(
            WindowEntry(x=x, y=y, embedding=embedding, index=self._arrivals)
        )
        self._weights = np.append(self._weights, 1.0)
        self._sizes = np.append(self._sizes, len(x))
        if self._embeddings is None:
            self._embeddings = embedding[None, :].copy()
        else:
            self._embeddings = np.concatenate(
                [self._embeddings, embedding[None, :]], axis=0)
        self._arrivals += 1

    def _replace_entries(self, keep: np.ndarray) -> None:
        """Compact the entry list and its parallel arrays to ``keep`` rows."""
        self._entries = [self._entries[i] for i in keep]
        self._weights = self._weights[keep]
        self._sizes = self._sizes[keep]
        if self._embeddings is not None:
            self._embeddings = (self._embeddings[keep]
                                if len(keep) else None)

    def _decay_against(self, new_embedding: np.ndarray) -> None:
        # Entries whose embedding lives in a different space (possible when
        # the owner's PCA fitted mid-stream) cannot be compared; drop them
        # rather than crash — they predate the current representation.  All
        # stored embeddings share one width (the matrix invariant), so a
        # width change drops the whole window.
        if (self._embeddings is None
                or self._embeddings.shape[1] != new_embedding.shape[0]):
            self._replace_entries(np.empty(0, dtype=np.int64))
            return
        diff = self._embeddings - new_embedding
        distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        k = len(distances)
        # Ascending rank: closest batch gets 0 (decays least).
        ascending = np.empty(k, dtype=int)
        ascending[np.argsort(distances)] = np.arange(k)
        inversions = 0
        if k >= 2:
            # Farthest-first ranks in chronological order; directional
            # drift makes this ascending => zero inversions => low disorder.
            farthest_first = (k - 1) - ascending
            max_pairs = k * (k - 1) // 2
            inversions = inversion_count(farthest_first)
            self._last_disorder = inversions / max_pairs
        else:
            self._last_disorder = 0.0
        rank_norm = ascending / max(k - 1, 1)
        rates = (self.base_decay * self.decay_boost
                 * (0.5 + self._last_disorder) * (0.5 + rank_norm))
        rates = np.clip(rates, 0.0, 0.95)
        # One array pass over the window: decay every weight, evict the
        # ones that fell below the floor.
        self._weights = self._weights * (1.0 - rates)
        keep = np.flatnonzero(self._weights >= self.min_weight)
        evicted = k - len(keep)
        if evicted:
            self._replace_entries(keep)
        if self.obs.enabled:
            self.obs.emit(AswDecayApplied(
                window=self.name, arrival=self._arrivals,
                mean_rate=float(rates.mean()),
                disorder=self._last_disorder, inversions=inversions,
                entries=len(self._entries), evicted=evicted,
            ))
            self.obs.registry.gauge(
                "freeway_asw_disorder",
                "window disorder at the latest decay pass",
            ).labels(window=self.name).set(self._last_disorder)

    # -- training-data extraction ---------------------------------------------------

    def training_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Decay-weighted sample of the window's rows for a model update.

        Each entry contributes ``round(weight * len)`` rows, drawn without
        replacement, so heavily decayed batches fade from the training set
        exactly as the decay schedule dictates.
        """
        if not self._entries:
            raise RuntimeError("window is empty")
        xs: list[np.ndarray] = []
        ys: list[np.ndarray] = []
        weights = self._weights
        # Per-entry RNG subsampling is inherently sequential: each draw
        # advances the generator, so order is part of the contract.
        for position, entry in enumerate(self._entries):  # repro: noqa[REP007] — sequential RNG draws per entry
            take = int(round(float(weights[position]) * len(entry.x)))
            if take <= 0:
                continue
            if take >= len(entry.x):
                xs.append(entry.x)
                ys.append(entry.y)
            else:
                chosen = self._rng.choice(len(entry.x), size=take, replace=False)
                xs.append(entry.x[chosen])
                ys.append(entry.y[chosen])
        if not xs:  # every entry fully decayed between adds
            newest = self._entries[-1]
            return newest.x, newest.y
        return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)

    def reset(self) -> None:
        """Clear the window (after the long-granularity model updates)."""
        self._entries.clear()
        self._weights = np.empty(0)
        self._sizes = np.empty(0, dtype=np.int64)
        self._embeddings = None
        self._last_disorder = 0.0
