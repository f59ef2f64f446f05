"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries while tests can
assert on precise subclasses.
"""

from __future__ import annotations

import typing

_Error = typing.TypeVar("_Error", bound=BaseException)


def annotated(error: _Error, **attributes: typing.Any) -> _Error:
    """Set ``attributes`` on ``error`` and return it, to be raised at once.

    ``raise annotated(QuiescenceError(...), report=report)`` keeps the
    error out of the raising frame's locals.  An error held in such a
    local forms a cycle with its traceback, which holds the frame, so
    everything the frame references (a whole system, say) would stay
    alive until a full collection.
    """
    for name, value in attributes.items():
        setattr(error, name, value)
    return error


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class DeadlockError(SimulationError):
    """The simulation ran out of events while processes were still waiting."""


class CycleLimitError(SimulationError):
    """A bounded run would have advanced past its cycle budget."""


class QuiescenceError(SimulationError):
    """A system failed its boot-state audit (reset/reuse of a dirty SoC).

    Carries the offending :class:`repro.sim.diag.QuiescenceReport` on the
    ``report`` attribute when raised by the audit machinery.
    """


class ProtocolError(ReproError):
    """A runtime protocol violation observed at a device (MMIO misuse).

    Distinct from :class:`ConfigError`, which covers construction-time
    validation: a ``ProtocolError`` means simulated software drove a
    peripheral outside its contract *during* a run — e.g. writing an
    invalid threshold to the sync unit, storing to a read-only register,
    or (in strict mode) ringing a doorbell nobody is listening to.
    """


class TraceError(ReproError):
    """Trace post-processing could not attribute markers to an offload."""


class MemoryError_(ReproError):
    """A memory access fell outside a mapped region or was malformed.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`, which has a different meaning (allocator
    exhaustion) and must remain reachable.
    """


class ConfigError(ReproError):
    """An SoC or runtime configuration failed validation."""


class OffloadError(ReproError):
    """An offload request was malformed or could not be serviced."""


class WorkloadError(OffloadError):
    """A job failed mid-stream while executing a workload.

    Subclasses :class:`OffloadError` so existing stream-level handlers
    keep working; adds the failing job's context on the ``job``,
    ``job_index`` and ``placement`` attributes, and chains the
    simulation post-mortem on ``report`` when one was available.
    """


class TrafficError(ReproError):
    """A traffic-engine request was malformed or could not be serviced
    (invalid arrival process, over-capacity reservation, or a job
    whose kernel the platform was never characterized for)."""


class ModelError(ReproError):
    """A runtime-model operation failed (fit, prediction, or inversion)."""


class DecisionError(ModelError):
    """No feasible offload configuration satisfies the given constraints."""


class KernelError(ReproError):
    """A device kernel was invoked with invalid arguments."""
