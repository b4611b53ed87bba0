"""Tail-index estimation for truncated heavy-tailed samples.

The Hill statistic with a sample-adaptive count of top order statistics,
normal-limit confidence intervals, validity diagnostics for the truncation
growth regime, and a Monte Carlo harness that checks the normal limit and
CI coverage at simulation scale.

The package exports every name in each module's ``__all__``.
"""

from . import diagnostics, distributions, estimator, montecarlo, normal
from .diagnostics import *  # noqa: F403
from .distributions import *  # noqa: F403
from .estimator import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .normal import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name for module in (diagnostics, distributions, estimator, montecarlo, normal)
    for name in module.__all__
]
