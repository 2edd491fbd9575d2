"""Deferred access to ``scipy.optimize``.

Importing ``scipy.optimize`` takes most of the package's start-up time, and
only the general-axis search and the cosine fit call into it. Each module
binds a ``LazyOptimizer`` under the scipy name and calls it through that
module global, so only ``optimize --kind general`` and ``fringe`` load
scipy.optimize, and rebinding the name (a test spy, a tracer) still
intercepts every call. ``measurement.minimize``, ``tomography.minimize``
and ``metrology.differential_evolution`` are not called: they stay bound
because ``bench/spans.py`` rebinds every name in its ``OPTIMIZERS`` list.
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
