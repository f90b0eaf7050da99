"""``repro.core`` — the FreewayML framework itself.

The paper's primary contribution: the adaptive streaming window, the
multi-time granularity ensemble, coherent experience clustering, historical
knowledge reuse, the strategy selector that routes each batch to exactly
one mechanism, and the :class:`Learner` facade gluing them together, plus
the performance optimizations (pre-computing window, rate-aware adjuster).
"""

from .asw import AdaptiveStreamingWindow, WindowEntry, inversion_count
from .cec import CECResult, CoherentExperienceClustering, ExperienceBuffer
from .knowledge import KnowledgeEntry, KnowledgeMatch, KnowledgeStore
from .learner import BatchReport, Learner, PredictionResult
from .multigranularity import (
    GranularityLevel,
    MultiGranularityEnsemble,
    gaussian_kernel,
)
from .persistence import load_learner, save_learner
from .precompute import PrecomputingWindow
from .rate import RateAwareAdjuster
from .selector import Strategy, StrategyDecision, StrategySelector

__all__ = [
    "AdaptiveStreamingWindow",
    "WindowEntry",
    "inversion_count",
    "MultiGranularityEnsemble",
    "GranularityLevel",
    "gaussian_kernel",
    "ExperienceBuffer",
    "CoherentExperienceClustering",
    "CECResult",
    "KnowledgeStore",
    "KnowledgeEntry",
    "KnowledgeMatch",
    "StrategySelector",
    "Strategy",
    "StrategyDecision",
    "PrecomputingWindow",
    "save_learner",
    "load_learner",
    "RateAwareAdjuster",
    "Learner",
    "PredictionResult",
    "BatchReport",
]
