"""Multi-time granularity models (paper Section IV-B, Eqs. 12–14).

FreewayML keeps several copies of the user's model, each updated at a
different time granularity:

- the **short**-granularity model updates on every labeled batch, tracking
  directional shifts (Pattern A1) quickly;
- the **long**-granularity model trains on an
  :class:`~repro.core.asw.AdaptiveStreamingWindow` and updates only when
  the window fills, giving stability under localized shifts (Pattern A2).

At inference time the models are blended by how well each one matches the
current data: the *model shift distance* ``D`` (Eq. 12 for short, Eq. 13
for long) is passed through a Gaussian kernel and used as the ensemble
weight (Eq. 14).

The paper defaults to two models (``ModelNum=2``) but allows more; here a
level with window size 1 *is* the short model, so any ladder of window
sizes works without special cases.
"""

from __future__ import annotations

import numpy as np

from ..models.base import StreamingModel
from ..obs import NULL_OBS
from .asw import AdaptiveStreamingWindow

__all__ = ["GranularityLevel", "MultiGranularityEnsemble", "gaussian_kernel"]


def gaussian_kernel(distance: float, sigma: float) -> float:
    """The ensemble weight ``K(D, sigma) = exp(-D^2 / (2 sigma^2))`` (Eq. 14)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive; got {sigma}")
    return float(np.exp(-(distance * distance) / (2.0 * sigma * sigma)))


class GranularityLevel:
    """One model plus the window that feeds it.

    ``window_batches == 1`` makes this the short-granularity level: every
    batch triggers an immediate update and the reference embedding is the
    last trained batch (Eq. 12).  Larger windows accumulate batches in an
    ASW and update when it fills; the reference embedding is the window's
    decay-weighted mean (Eq. 13).
    """

    def __init__(self, model: StreamingModel, window_batches: int,
                 max_items: int = 1 << 20, base_decay: float = 0.12,
                 update_epochs: int | None = None, precompute: bool = False,
                 seed: int = 0, name: str | None = None, obs=None):
        if window_batches < 1:
            raise ValueError(f"window_batches must be >= 1; got {window_batches}")
        self.model = model
        self.window_batches = window_batches
        # A window level updates once per `window_batches` arrivals, so it
        # takes several passes at update time to keep its gradient-step
        # budget comparable to the short model's one-step-per-batch; the
        # cap bounds the amortized per-batch training cost.
        if update_epochs is None:
            update_epochs = max(2, min(window_batches // 2, 4))
        self.update_epochs = update_epochs
        # Pre-computing window (paper Section V-B): bank each batch's
        # gradient as it arrives, so the window-completion update only
        # aggregates — trading the multi-epoch decayed-window training for
        # minimal completion latency.
        self.precompute = precompute
        self._precompute_window = None
        if precompute:
            if window_batches == 1:
                raise ValueError(
                    "precompute applies to window levels (window_batches > 1)"
                )
            from .precompute import PrecomputingWindow
            from ..models.base import NeuralStreamingModel
            if not isinstance(model, NeuralStreamingModel):
                raise TypeError(
                    "precompute requires a NeuralStreamingModel; got "
                    f"{type(model).__name__}"
                )
            self._precompute_window = PrecomputingWindow(model)
        self.name = name or (
            "short" if window_batches == 1 else f"long-{window_batches}"
        )
        self.obs = obs if obs is not None else NULL_OBS
        if window_batches > 1:
            self.window: AdaptiveStreamingWindow | None = AdaptiveStreamingWindow(
                max_batches=window_batches, max_items=max_items,
                base_decay=base_decay, seed=seed, name=self.name,
                obs=self.obs,
            )
        else:
            self.window = None
        self._reference: np.ndarray | None = None
        self._last_disorder: float = 0.0
        self.updates = 0
        #: EMA of this model's prequential accuracy on labeled batches.
        self.accuracy_ema: float | None = None

    @property
    def is_short(self) -> bool:
        return self.window is None

    @property
    def trained(self) -> bool:
        return self.updates > 0

    @property
    def last_disorder(self) -> float:
        """Window disorder at the most recent completed update."""
        return self._last_disorder

    def reference_embedding(self) -> np.ndarray | None:
        """The distribution this model was last *trained* on.

        Note this is the window mean captured at the most recent completed
        update, not the currently refilling window: right after a shift the
        pending window tracks the new data while the model's weights still
        reflect the old data, and using the pending mean would make a stale
        model look well-matched (Eq. 13 measures model↔data match).
        """
        return self._reference

    def update(self, x: np.ndarray, y: np.ndarray,
               embedding: np.ndarray) -> dict:
        """Feed one labeled batch; train if this level's granularity says so.

        Returns an info dict with ``trained`` (bool), ``loss``, and, for
        window levels that just completed, ``disorder``.
        """
        if self.trained:
            accuracy = float((self.model.predict(x) == y).mean())
            if self.accuracy_ema is None:
                self.accuracy_ema = accuracy
            else:
                self.accuracy_ema = 0.8 * self.accuracy_ema + 0.2 * accuracy
        if self.is_short:
            with self.obs.tracer.span("level.update", level=self.name):
                loss = self.model.partial_fit(x, y)
            self._reference = np.asarray(embedding, dtype=float).reshape(-1)
            self.updates += 1
            self._count_update()
            return {"trained": True, "loss": loss}

        self.window.add(x, y, embedding)
        if self._precompute_window is not None:
            # Gradient banked while "waiting for data" (Section V-B); note
            # it is evaluated at arrival-time parameters and ignores later
            # decay, the same approximation the paper's mechanism makes.
            self._precompute_window.accumulate(x, y)
        if not self.window.is_full:
            return {"trained": False, "loss": None}
        with self.obs.tracer.span("level.update", level=self.name):
            if self._precompute_window is not None:
                self._precompute_window.apply()
                loss = None
            else:
                window_x, window_y = self.window.training_data()
                loss = 0.0
                for _ in range(self.update_epochs):
                    loss = self.model.partial_fit(window_x, window_y)
        self._reference = self.window.mean_embedding()
        self._last_disorder = self.window.disorder
        self.window.reset()
        self.updates += 1
        self._count_update()
        return {"trained": True, "loss": loss,
                "disorder": self._last_disorder}

    def _count_update(self) -> None:
        if self.obs.enabled:
            self.obs.registry.counter(
                "freeway_level_updates_total",
                "model updates per granularity level",
            ).labels(level=self.name).inc()


class MultiGranularityEnsemble:
    """Distance-weighted ensemble over granularity levels (Eqs. 12–14).

    Parameters
    ----------
    model_factory:
        Zero-argument callable producing a fresh :class:`StreamingModel`;
        one copy is created per level.
    window_sizes:
        Max-batch count per level; ``(1, 16)`` reproduces the paper's
        default short + long pair.
    sigma:
        Gaussian-kernel bandwidth for Eq. 14, or ``"auto"`` to track an
        exponential moving average of observed model distances (scale-free
        across datasets).
    exclusion_ratio:
        A level whose model distance exceeds ``exclusion_ratio`` times the
        best level's distance represents a *different* distribution (e.g. a
        long model whose window straddled a concept switch) and is dropped
        from the blend entirely rather than merely down-weighted.
    performance_weighting:
        Multiply each level's kernel weight by the square of its recent
        prequential accuracy (an EMA maintained from the labels that arrive
        at update time).  Extension beyond the paper's pure Eq. 14: on
        concept-only drift the embeddings carry no signal, and accuracy is
        the only evidence of which granularity currently fits.  Disable for
        the literal Eq. 14 blend.
    """

    def __init__(self, model_factory, window_sizes: tuple[int, ...] = (1, 16),
                 max_items: int = 1 << 20, base_decay: float = 0.12,
                 sigma: float | str = "auto", exclusion_ratio: float = 3.0,
                 performance_weighting: bool = True, precompute: bool = False,
                 seed: int = 0, obs=None):
        if exclusion_ratio <= 1.0:
            raise ValueError(
                f"exclusion_ratio must be > 1; got {exclusion_ratio}"
            )
        self.exclusion_ratio = exclusion_ratio
        self.performance_weighting = performance_weighting
        self.precompute = precompute
        if not window_sizes:
            raise ValueError("need at least one granularity level")
        if 1 not in window_sizes:
            raise ValueError(
                "one level must have window size 1 (the short-granularity model)"
            )
        self.obs = obs if obs is not None else NULL_OBS
        self.levels = [
            GranularityLevel(model_factory(), size, max_items=max_items,
                             base_decay=base_decay,
                             precompute=precompute and size > 1,
                             seed=seed + position, obs=self.obs)
            for position, size in enumerate(window_sizes)
        ]
        if isinstance(sigma, str):
            if sigma != "auto":
                raise ValueError(f"sigma must be a float or 'auto'; got {sigma!r}")
            self._auto_sigma = True
            self.sigma = 1.0
        else:
            if sigma <= 0:
                raise ValueError(f"sigma must be positive; got {sigma}")
            self._auto_sigma = False
            self.sigma = float(sigma)
        self.num_classes = self.levels[0].model.num_classes

    @property
    def short_level(self) -> GranularityLevel:
        return next(level for level in self.levels if level.is_short)

    @property
    def long_levels(self) -> list[GranularityLevel]:
        return [level for level in self.levels if not level.is_short]

    @property
    def trained(self) -> bool:
        return any(level.trained for level in self.levels)

    def update(self, x: np.ndarray, y: np.ndarray,
               embedding: np.ndarray) -> list[dict]:
        """Feed one labeled batch to every level; returns per-level info."""
        return [level.update(x, y, embedding) for level in self.levels]

    def model_distances(self, embedding: np.ndarray) -> list[float | None]:
        """Model shift distance ``D`` per level (Eqs. 12–13)."""
        embedding = np.asarray(embedding, dtype=float).reshape(-1)
        distances: list[float | None] = []
        for level in self.levels:
            reference = level.reference_embedding()
            if (reference is None or not level.trained
                    or reference.shape != embedding.shape):
                # A shape mismatch means the reference predates the current
                # embedding space (PCA fitted mid-stream); it carries no
                # usable distance.
                distances.append(None)
            else:
                distances.append(float(np.linalg.norm(embedding - reference)))
        return distances

    def predict_proba(self, x: np.ndarray, embedding: np.ndarray) -> np.ndarray:
        """Gaussian-kernel weighted blend of the levels' predictions (Eq. 14)."""
        distances = self.model_distances(embedding)
        usable = [
            (level, distance)
            for level, distance in zip(self.levels, distances)
            if distance is not None
        ]
        if not usable:
            trained = [level for level in self.levels if level.trained]
            if trained:
                return trained[0].model.predict_proba(x)
            return np.full((len(x), self.num_classes), 1.0 / self.num_classes)

        best = min(distance for _, distance in usable)
        cutoff = self.exclusion_ratio * max(best, 1e-12)
        filtered = [(level, d) for level, d in usable if d <= cutoff]
        if filtered:
            usable = filtered

        if self.performance_weighting:
            # A level persistently behind the best on labeled batches is
            # mis-fit to the current concept (e.g. under concept-only drift
            # the distances above carry no signal); drop it from the blend.
            emas = [level.accuracy_ema for level, _ in usable]
            known = [ema for ema in emas if ema is not None]
            if known:
                best_ema = max(known)
                skilled = [
                    (level, distance) for (level, distance), ema
                    in zip(usable, emas)
                    if ema is None or ema >= best_ema - 0.05
                ]
                if skilled:
                    usable = skilled

        if self._auto_sigma:
            # Track the scale of *well-matched* distances (the minimum), so
            # a model that is far from the data — e.g. a long model whose
            # window straddled a sudden shift — is strongly suppressed
            # rather than blended in at near-uniform weight.
            self.sigma = max(0.9 * self.sigma + 0.1 * max(best, 1e-6), 1e-6)

        weights = np.array(
            [gaussian_kernel(distance, self.sigma) for _, distance in usable]
        )
        if self.performance_weighting:
            skill = np.array([
                (level.accuracy_ema if level.accuracy_ema is not None
                 else 1.0 / self.num_classes) ** 2
                for level, _ in usable
            ])
            weights = weights * skill
        if weights.sum() <= 1e-300:
            # Every model is far from the data; fall back to the nearest one.
            weights = np.zeros(len(usable))
            weights[int(np.argmin([distance for _, distance in usable]))] = 1.0
        weights = weights / weights.sum()
        # Predict the short level last: its fit on this batch can then
        # skip the forward the shared plan still holds (docs/PERF.md, "One
        # forward per labeled batch").  The blend keeps level order.
        probas = {id(level): level.model.predict_proba(x)
                  for level, _ in sorted(usable,
                                         key=lambda item: item[0].is_short)}
        blended = np.zeros((len(x), self.num_classes))
        for (level, _), weight in zip(usable, weights):
            blended += weight * probas[id(level)]
        return blended

    def predict(self, x: np.ndarray, embedding: np.ndarray) -> np.ndarray:
        """Hard predictions from the blended distribution."""
        return self.predict_proba(x, embedding).argmax(axis=1)
