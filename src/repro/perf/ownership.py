"""When a gradient buffer is private enough to adopt without a copy.

:func:`can_own` is used by ``Tensor._deliver``: a freshly-computed
gradient contribution is *private* — safe to adopt without a defensive
copy — exactly when it is a top-level buffer (not a view of some op's
saved array) and not the very gradient being routed (ops like ``a + a``
deliver the same array twice).
"""

from __future__ import annotations

import numpy as np

__all__ = ["can_own"]


def can_own(candidate: np.ndarray, source: np.ndarray) -> bool:
    """Whether ``candidate`` is a private buffer safe to adopt as a gradient.

    True when ``candidate`` is a top-level array (not a view whose base an
    op closure may have retained) and is not ``source`` itself — the
    gradient currently being routed, which sibling parents may also
    receive (``a + a`` returns ``(g, g)``).
    """
    return candidate.base is None and candidate is not source
