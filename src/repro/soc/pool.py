"""Reusable :class:`~repro.soc.manticore.ManticoreSystem` instances.

Building a 32-cluster system allocates a 32 MiB main memory, 32 TCDMs,
and a ~66-region address map — roughly a fifth of the wall time of a
short sweep point.  Measurements that run many points on identical
hardware (every sweep in the paper) can instead lease one system per
configuration from a :class:`SystemPool`: a leased system is handed out
after :meth:`~repro.soc.manticore.ManticoreSystem.reset`, which
restores boot state bit-identically (property-tested in
``tests/property/test_system_reuse.py``) and zeroes only the allocated
memory prefix, so recycling costs O(dirty state), not O(capacity).

Pooling is transparent to measurement code and can be disabled globally
for A/B verification by setting the ``REPRO_FRESH_SYSTEMS`` environment
variable to a non-empty value.
"""

from __future__ import annotations

import contextlib
import typing
import warnings

from repro import flags
from repro.errors import QuiescenceError, annotated
from repro.sim import IntegrityWarning
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem


class SystemPool:
    """A keyed pool of reset-to-boot ManticoreSystem instances.

    Keys are :meth:`SoCConfig.digest` values, so two structurally equal
    configurations share a pool slot.  At most one *idle* system is
    retained per key (leased systems are owned by the caller and not
    counted); a sweep leases one system at a time, so one suffices.

    The pool is not thread-safe; sweeps run in-process and share the
    one pool of ``repro.core.executor``.
    """

    def __init__(self) -> None:
        self._idle: typing.Dict[str, ManticoreSystem] = {}
        #: Number of acquires served by reusing an idle instance.
        self.hits = 0
        #: Number of acquires that had to construct a system.
        self.builds = 0
        #: Always 0 (pooled systems recycle through reset()); kept
        #: because ``perfbench/layers.py`` reads it.
        self.restores = 0
        #: Number of released systems dropped for failing the
        #: quiescence audit (non-zero means a measurement leaked
        #: in-flight state — see :meth:`release`).
        self.dropped = 0

    def acquire(self, config: SoCConfig) -> ManticoreSystem:
        """Lease a boot-state system for ``config``.

        The caller owns the instance until :meth:`release`; an idle
        pooled instance is reset before being handed out.  With
        ``REPRO_FRESH_SYSTEMS`` set, always constructs.
        """
        system = (None if flags.fresh_systems()
                  else self._idle.pop(config.digest(), None))
        if system is not None:
            # ``audited=True``: this instance entered the idle pool
            # through :meth:`release`'s quiescence audit and nothing has
            # run since, so re-auditing here would repeat the exact walk
            # that just passed.
            system.reset(audited=True)
            self.hits += 1
            return system
        self.builds += 1
        return ManticoreSystem(config)

    def release(self, system: ManticoreSystem) -> None:
        """Return a leased system to the pool.

        The system must pass its quiescence audit (fully drained, every
        block back at boot state); callers that hit an exception
        mid-measurement should *discard* the instance instead (just
        drop the reference) — a half-run system cannot be proven
        reusable.  A system that fails the audit is dropped, counted in
        :attr:`dropped`, and reported with an
        :class:`~repro.sim.IntegrityWarning` (or
        :class:`~repro.errors.QuiescenceError` under ``REPRO_STRICT``)
        so leaked in-flight state never passes silently.  With
        ``REPRO_FRESH_SYSTEMS`` set, the instance is dropped without an
        audit — fresh-construction mode never recycles.
        """
        if flags.fresh_systems():
            return
        report = system.audit_quiescence()
        if not report.ok:
            self.dropped += 1
            if flags.strict():
                raise annotated(QuiescenceError(
                    "released system failed its quiescence audit\n"
                    + report.describe()), report=report)
            warnings.warn(
                "SystemPool.release: dropping non-quiescent system "
                f"({report.violations[0].describe()}"
                + (f" and {len(report.violations) - 1} more"
                   if len(report.violations) > 1 else "")
                + ")",
                IntegrityWarning, stacklevel=2)
            return
        self._idle.setdefault(system.config.digest(), system)

    @contextlib.contextmanager
    def lease(self, config: SoCConfig):
        """``with pool.lease(cfg) as system:`` acquire/release pairing.

        On an exception the instance is discarded, not returned.
        """
        system = self.acquire(config)
        yield system
        self.release(system)

    def clear(self) -> None:
        """Drop every idle instance."""
        self._idle.clear()

    def resume_count(self) -> int:
        """Total process-body resumptions across idle instances.

        :attr:`~repro.sim.Simulator.resumes` is monotonic and survives
        reset, so sweep statistics difference this across a run
        to report how much interpreter work the event engine did
        (instances leased out at call time are not visible; call
        between runs).
        """
        return sum(system.sim.resumes for system in self._idle.values())

    @property
    def idle_count(self) -> int:
        """Total idle instances currently retained."""
        return len(self._idle)
