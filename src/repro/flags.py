"""Environment-variable gates, in one place.

Every behavioural override the reproduction honours is a ``REPRO_*``
environment variable, and every one of them is read through an accessor
in this module — so tests, benchmarks and docs have a single source of
truth for what can be toggled and what each toggle means.

========================= ============================================
variable                  effect
========================= ============================================
``REPRO_NAIVE_POLL``      baseline completion wait simulates every
                          poll iteration instead of the cycle-exact
                          watchpoint fast-forward
``REPRO_NAIVE_CHANNEL``   DMA engines simulate the setup delay and the
                          shared-channel transfer as separate scheduler
                          events instead of one analytic reservation
``REPRO_NAIVE_BARRIER``   cluster compute phases spawn one process per
                          worker core and fabric-barrier arrivals pay
                          their wire latency as simulated waits,
                          instead of the closed-form release schedule
``REPRO_NAIVE_BATCH``     sweeps simulate every grid point through the
                          event engine instead of batching
                          contention-free points through the vectorized
                          ``BatchPlanner`` timing model
``REPRO_NAIVE_MPREDICT``  the batch planner calibrates one event
                          simulation per (variant, M) group instead of
                          fitting the dispatch prefix as an affine
                          function of M from two anchor calibrations
                          (and skips the persistent calibration store)
``REPRO_EXPLICIT_FABRIC`` configs with no declared fabric resolve to
                          one explicit single-tile default-class group
                          per cluster instead of one implicit fabric-
                          wide group; timing is identical, so this is
                          the homogeneous-equivalence A/B lever
                          proving fabric composition changes nothing
                          for default-class tiles
``REPRO_LINEAR_ROUTING``  address maps fall back to the unsorted
                          linear region scan (pre-bisect routing);
                          sampled at map construction time
``REPRO_FRESH_SYSTEMS``   system pools construct a fresh SoC for
                          every acquire instead of resetting and
                          reusing pooled instances
``REPRO_CACHE_DIR``       relocates the on-disk sweep cache
``REPRO_CACHE_MAX_ENTRIES``  bounds the on-disk sweep-cache layer to
                          this many record files; the least recently
                          used records are evicted past the bound
``REPRO_STRICT``          simulation-integrity strict mode: access
                          anomalies the auditors would otherwise only
                          *record* (stale sync-unit credits, lost
                          doorbells) raise ``ProtocolError``, and
                          returning a non-quiescent system to a
                          ``SystemPool`` raises ``QuiescenceError``
                          instead of counting a drop
========================= ============================================

All boolean gates follow the same convention: *set to any non-empty
string* means enabled, unset or empty means disabled.  Accessors read
``os.environ`` on every call, so tests can flip gates with
``monkeypatch.setenv`` without re-importing anything.

This module sits at the very bottom of the import ladder (it imports
only the standard library), so any layer may use it.
"""

from __future__ import annotations

import os
import typing

#: Environment variable: when set (non-empty), the baseline completion
#: wait simulates every poll iteration instead of fast-forwarding.
#: Used by the A/B property tests proving the fast path is cycle-exact.
NAIVE_POLL_ENV = "REPRO_NAIVE_POLL"

#: Environment variable: when set (non-empty), DMA engines pay their
#: setup delay and shared-channel transfer as two separate simulated
#: waits instead of committing a single analytic channel reservation.
#: Used by the A/B property tests proving the reservation fast path is
#: cycle-exact.
NAIVE_CHANNEL_ENV = "REPRO_NAIVE_CHANNEL"

#: Environment variable: when set (non-empty), cluster compute phases
#: spawn one process per worker core (each paying its wake latency and
#: barrier arrival as simulated waits) and fabric-barrier arrivals
#: simulate their wire latency, instead of the closed-form
#: max-of-known-delays release schedule.
NAIVE_BARRIER_ENV = "REPRO_NAIVE_BARRIER"

#: Environment variable: when set (non-empty), ``SweepExecutor`` runs
#: every grid point through the full event engine instead of letting
#: the ``BatchPlanner`` time contention-free points as vectorized
#: NumPy array arithmetic seeded from calibration runs.  Used by the
#: A/B property tests proving batched timing is bit-identical.
NAIVE_BATCH_ENV = "REPRO_NAIVE_BATCH"

#: Environment variable: when set (non-empty), the ``BatchPlanner``
#: restores the one-calibration-per-(variant, M)-group behaviour: no
#: affine M-axis prefix models are fitted, no prefixes are synthesized
#: for unvisited M groups, and the persistent calibration store is
#: neither read nor written.  Used by the A/B property tests proving
#: M-axis prefix prediction is bit-identical.
NAIVE_MPREDICT_ENV = "REPRO_NAIVE_MPREDICT"

#: Environment variable: when set (non-empty), ``SoCConfig.groups()``
#: resolves a config with no declared fabric into one explicit
#: single-tile group of the default class per cluster, instead of one
#: implicit group spanning the whole fabric.  Default-class tiles
#: resolve to exactly the config's cluster knobs, so measured cycles
#: are identical either way — this is the A/B lever the golden
#: cycle-identity suite uses to prove fabric composition is timing-
#: neutral for homogeneous configs.
EXPLICIT_FABRIC_ENV = "REPRO_EXPLICIT_FABRIC"

#: Environment variable: when set (non-empty) at map construction time,
#: ``region_at`` falls back to the unsorted linear scan (and port
#: routers bypass their hit slots).  Routing is functional, so this is
#: purely an A/B lever for benchmarking the bisect + hit-cache routing
#: against the original implementation; results are identical.
LINEAR_ROUTING_ENV = "REPRO_LINEAR_ROUTING"

#: Environment variable: when set (non-empty), pools build a fresh
#: system for every acquire and discard it on release.
FRESH_SYSTEMS_ENV = "REPRO_FRESH_SYSTEMS"

#: Environment variable overriding the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the on-disk sweep-cache layer: a
#: positive integer caps the number of record files kept under the
#: cache directory; past the cap, the least recently used records are
#: evicted (reads refresh recency).  Unset, empty or non-positive
#: means unbounded — the pre-existing behaviour.
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"

#: Environment variable: when set (non-empty), the integrity auditors
#: escalate recorded anomalies to errors (see :mod:`repro.sim.diag`).
#: CI runs the whole suite once with this set so strict-mode
#: regressions fail fast.
STRICT_ENV = "REPRO_STRICT"

#: Every gate this module owns, for introspection and for benchmarks
#: that must run with a known-clean environment.
ALL_GATES = (NAIVE_POLL_ENV, NAIVE_CHANNEL_ENV, NAIVE_BARRIER_ENV,
             NAIVE_BATCH_ENV, NAIVE_MPREDICT_ENV, EXPLICIT_FABRIC_ENV,
             LINEAR_ROUTING_ENV, FRESH_SYSTEMS_ENV, CACHE_DIR_ENV,
             CACHE_MAX_ENTRIES_ENV, STRICT_ENV)


def _enabled(name: str) -> bool:
    return bool(os.environ.get(name))


def naive_poll() -> bool:
    """Whether ``REPRO_NAIVE_POLL`` forces the reference poll loop."""
    return _enabled(NAIVE_POLL_ENV)


def naive_channel() -> bool:
    """Whether ``REPRO_NAIVE_CHANNEL`` forces per-event DMA timing."""
    return _enabled(NAIVE_CHANNEL_ENV)


def naive_barrier() -> bool:
    """Whether ``REPRO_NAIVE_BARRIER`` forces per-participant events."""
    return _enabled(NAIVE_BARRIER_ENV)


def naive_batch() -> bool:
    """Whether ``REPRO_NAIVE_BATCH`` disables batched sweep timing."""
    return _enabled(NAIVE_BATCH_ENV)


def naive_mpredict() -> bool:
    """Whether ``REPRO_NAIVE_MPREDICT`` disables M-axis prefix models."""
    return _enabled(NAIVE_MPREDICT_ENV)


def explicit_fabric() -> bool:
    """Whether ``REPRO_EXPLICIT_FABRIC`` expands implicit fabrics."""
    return _enabled(EXPLICIT_FABRIC_ENV)


def linear_routing() -> bool:
    """Whether ``REPRO_LINEAR_ROUTING`` selects linear-scan routing."""
    return _enabled(LINEAR_ROUTING_ENV)


def fresh_systems() -> bool:
    """Whether ``REPRO_FRESH_SYSTEMS`` disables system pooling."""
    return _enabled(FRESH_SYSTEMS_ENV)


def cache_dir() -> typing.Optional[str]:
    """The ``REPRO_CACHE_DIR`` override, or ``None`` when unset/empty."""
    return os.environ.get(CACHE_DIR_ENV) or None


def cache_max_entries() -> typing.Optional[int]:
    """The ``REPRO_CACHE_MAX_ENTRIES`` bound, or ``None`` (unbounded).

    Only a positive integer bounds the cache; empty, non-numeric or
    non-positive values are ignored rather than crashing a sweep over a
    typo in an environment variable.
    """
    raw = os.environ.get(CACHE_MAX_ENTRIES_ENV)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def strict() -> bool:
    """Whether ``REPRO_STRICT`` escalates integrity anomalies to errors."""
    return _enabled(STRICT_ENV)
