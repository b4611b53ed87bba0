"""Tail-index estimation for truncated heavy-tailed samples.

The Hill statistic with a sample-adaptive count of top order statistics,
normal-limit confidence intervals, validity diagnostics for the truncation
growth regime, and a Monte Carlo harness that checks the normal limit and
CI coverage at simulation scale.

The package exports every name in each module's ``__all__``. The modules
are imported on the first access to an exported name (PEP 562), so
``import trunctail.cli`` loads no numpy.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

_MODULES = ("diagnostics", "distributions", "estimator", "montecarlo", "normal")


def _export() -> None:
    """Import the modules and bind each name of their ``__all__`` here."""
    modules = [importlib.import_module(f".{name}", __name__) for name in _MODULES]
    exports = {name: getattr(module, name) for module in modules for name in module.__all__}
    globals().update(exports, __all__=list(exports))


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    # a submodule not imported yet, which the import system asks for in
    # `from trunctail import cli`, is missing without the imports
    if importlib.util.find_spec(f"{__name__}.{name}"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _export()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _export()
    return sorted(globals())
