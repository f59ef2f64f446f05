"""Statistics helpers for the experiment reports."""

from __future__ import annotations

import typing


def crossover_m(runtimes: typing.Mapping[int, float]) -> typing.Optional[int]:
    """The M at which a runtime-vs-M series stops improving.

    Returns the arg-min M of the series (the interior optimum of the
    baseline curve in Fig. 1 left), or None for an empty series.
    """
    if not runtimes:
        return None
    return min(sorted(runtimes), key=lambda m: (runtimes[m], m))

