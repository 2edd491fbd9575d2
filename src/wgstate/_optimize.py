"""Deferred access to ``scipy.optimize``, kept as tracer seams.

No ``wgstate`` code calls a scipy solver: the general-axis search runs its
own damped Newton solver and the cosine fit is a variable projection. The
five bindings ``measurement.minimize``, ``tomography.minimize``,
``metrology.minimize``, ``metrology.differential_evolution`` and
``stats.least_squares`` are uncalled. They stay because ``bench/spans.py``
rebinds every name in its ``OPTIMIZERS`` list, and they go when the tracer
stops rebinding module names (ROADMAP item 3). A ``LazyOptimizer`` imports
``scipy.optimize`` only when called, so no command loads it.
"""

from __future__ import annotations

import importlib


class LazyOptimizer:
    """Stands in for ``scipy.optimize.<name>``: imports scipy.optimize on
    the first call and forwards every call to the function of that name."""

    __slots__ = ("__name__",)

    def __init__(self, name: str):
        self.__name__ = name

    def __call__(self, *args, **kwargs):
        optimize = importlib.import_module("scipy.optimize")
        return getattr(optimize, self.__name__)(*args, **kwargs)
