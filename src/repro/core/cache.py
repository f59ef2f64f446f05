"""Content-addressed cache of measured sweep points.

Simulating one grid point is pure: the cycle counts depend only on the
SoC configuration and the job coordinates (kernel, N, M, variant,
scalars, seed).  That makes sweep results safe to memoize under a
content hash of exactly those inputs — re-fitting the model after an
analysis-only change replays the grid from the cache instead of
re-simulating it.

The cache has two layers:

- an in-memory dict, always on, scoped to the
  :class:`SweepCache` instance;
- an optional on-disk layer (one small JSON file per record under
  ``directory``), shared between runs and between processes.  The
  disk layer can be bounded (``max_entries`` /
  ``REPRO_CACHE_MAX_ENTRIES``): past the bound the least recently
  *used* record files are evicted — reads refresh a file's mtime, so
  a hot working set survives churn.  Inside a :meth:`SweepCache.batch`
  (every :class:`~repro.core.executor.SweepExecutor` run is one) the
  bound is enforced once, when the batch ends, so the store can
  exceed it for the duration of one sweep call's writes.

A record file holds exactly ``json.dumps(record)`` (default
separators, ASCII): a write is one C-encoded ``bytes`` write to a
temporary file plus an atomic rename, and a read parses the file's
bytes directly.

Keys are SHA-256 hashes; the config contributes via
:meth:`repro.soc.config.SoCConfig.digest`, so *any* microarchitectural
change invalidates every point measured under the old timing.

Beyond measured points, the cache content-addresses the batch
planner's **calibration artifacts** (see :mod:`repro.core.batch`):
per-(variant, M) dispatch prefixes and fitted affine M-axis prefix
models, both keyed *without* N — a prefix is N-independent by
construction, which is what lets a warm store skip calibration for
grids over problem sizes it has never seen.  Calibration records carry
their own schema version (:data:`CALIBRATION_SCHEMA`), so the prefix
layout can evolve without invalidating measured points and vice versa.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import typing
import warnings

from repro import flags
from repro.core.sweep import SweepPoint
from repro.sim import IntegrityWarning
from repro.soc.config import SoCConfig

#: Bump when the on-disk record layout changes; stale files then miss.
_SCHEMA = 1

#: Schema version of calibration records (dispatch prefixes and affine
#: M-axis prefix models).  Part of the *key*, not just the payload, so
#: bumping it — e.g. because the prefix gained a field or the batch
#: algebra changed meaning — orphans old records instead of decoding
#: them wrongly.
CALIBRATION_SCHEMA = 1


def default_cache_dir() -> str:
    """The CLI's on-disk cache location (override with ``REPRO_CACHE_DIR``)."""
    override = flags.cache_dir()
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-sweeps")


def point_key(config: SoCConfig, kernel_name: str, n: int, m: int,
              variant: str,
              scalars: typing.Optional[typing.Mapping[str, float]],
              seed: int, tile_group: str = "") -> str:
    """Content address of one grid point's measurement.

    ``tile_group`` names the fabric group the point ran on (empty for
    the homogeneous whole-fabric default).  The config digest alone
    cannot distinguish groups *within* one config, so the group is its
    own key component — the same (N, M) measured on two groups of one
    heterogeneous fabric are different measurements.
    """
    scalar_part = ("" if not scalars else
                   ",".join(f"{k}={scalars[k]!r}" for k in sorted(scalars)))
    text = (f"schema={_SCHEMA};config={config.digest()};"
            f"kernel={kernel_name};n={n};m={m};variant={variant};"
            f"scalars={scalar_part};seed={seed};group={tile_group}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibration_key(kind: str, config: SoCConfig, kernel_name: str,
                    variant_name: str,
                    scalars: typing.Optional[typing.Mapping[str, float]],
                    seed: int,
                    m: typing.Optional[int] = None,
                    tile_group: str = "") -> str:
    """Content address of one calibration artifact.

    ``kind`` separates the namespaces (``"prefix"`` for one
    (variant, M) dispatch prefix, ``"mmodel"`` for a fitted affine
    M-axis model, which spans all M and passes ``m=None``).  There is
    deliberately no N component: prefixes are N-independent, which is
    the whole point of persisting them.  ``variant_name`` must be the
    *resolved* variant (never ``"auto"``), so explicit and
    feature-resolved requests share entries.  ``tile_group`` keys
    calibrations per fabric group for the same reason as in
    :func:`point_key` — a dispatch prefix measured on one group of a
    heterogeneous fabric says nothing about another group's tiles.
    """
    scalar_part = ("" if not scalars else
                   ",".join(f"{k}={scalars[k]!r}" for k in sorted(scalars)))
    text = (f"calibration={CALIBRATION_SCHEMA};kind={kind};"
            f"config={config.digest()};kernel={kernel_name};"
            f"variant={variant_name};scalars={scalar_part};seed={seed};"
            f"m={m};group={tile_group}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SweepCache:
    """Memoizes :class:`~repro.core.sweep.SweepPoint` measurements.

    Parameters
    ----------
    directory:
        If given, points are also persisted as JSON files here (created
        on this instance's first write, and again if it disappears
        later), so the cache survives the process and is shared across
        concurrent sweeps.  ``None`` keeps the cache purely in memory.
    max_entries:
        Bound on the number of record files the disk layer keeps;
        past it, the least recently used files are evicted (counted in
        :attr:`evictions`) after each write, or once at the end of a
        :meth:`batch`.  ``None`` (the default) defers to
        ``REPRO_CACHE_MAX_ENTRIES``; unset there too means unbounded.
    """

    def __init__(self, directory: typing.Optional[str] = None,
                 max_entries: typing.Optional[int] = None) -> None:
        self.directory = directory
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = (max_entries if max_entries is not None
                            else flags.cache_max_entries())
        self._memory: typing.Dict[str, SweepPoint] = {}
        self._records: typing.Dict[str, typing.Dict[str, typing.Any]] = {}
        self.hits = 0
        self.misses = 0
        #: Disk-layer record files removed by the LRU bound, lifetime
        #: of this instance (the ``--stats`` eviction figure).
        self.evictions = 0
        #: Whether this instance has made :attr:`directory` yet (once,
        #: not per write; a write that finds it gone makes it again).
        self._directory_made = False
        #: Nesting depth of :meth:`batch`; writes inside one defer the
        #: bound, and ``_bound_pending`` remembers that one happened.
        self._batch_depth = 0
        self._bound_pending = False

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str) -> typing.Optional[SweepPoint]:
        """The cached point for ``key``, or None (counts hit/miss)."""
        point = self._memory.get(key)
        if point is None and self.directory is not None:
            point = self._read_disk(key)
            if point is not None:
                self._memory[key] = point
        if point is None:
            self.misses += 1
            return None
        self.hits += 1
        return point

    def put(self, key: str, point: SweepPoint) -> None:
        """Store a freshly measured point under its content address."""
        self._memory[key] = point
        if self.directory is not None:
            self._write_disk(key, point)

    @contextlib.contextmanager
    def batch(self) -> typing.Iterator[None]:
        """Defer the disk layer's LRU bound to the end of a run of writes.

        Unbatched, every write lists the store directory to enforce
        ``max_entries``, which makes a sweep into a full store
        quadratic in the bound.  Inside ``with cache.batch():`` writes
        only mark the bound as pending, and it is enforced once when
        the outermost batch exits (also on error), so the store may
        exceed the bound by one batch's writes until then.
        """
        self._batch_depth += 1
        try:
            yield
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0 and self._bound_pending:
                self._bound_pending = False
                self._enforce_bound()

    # ------------------------------------------------------------------
    # Calibration records (prefixes and fitted M-models)
    # ------------------------------------------------------------------
    def get_record(self, key: str,
                   kind: str) -> typing.Optional[
                       typing.Dict[str, typing.Any]]:
        """The calibration payload stored under ``key``, or ``None``.

        ``kind`` must match what the record was stored with — a prefix
        key can never return an M-model payload even if a file were
        hand-renamed into place.  Payload *field* validation is the
        caller's job (the batch module knows the expected shapes); this
        layer only guarantees a schema-matching ``kind``/``payload``
        envelope.
        """
        record = self._records.get(key)
        if record is None and self.directory is not None:
            record = self._read_disk_record(key)
            if record is not None:
                self._records[key] = record
        if record is None or record.get("kind") != kind:
            return None
        payload = record.get("payload")
        return dict(payload) if isinstance(payload, dict) else None

    def put_record(self, key: str, kind: str,
                   payload: typing.Mapping[str, typing.Any]) -> None:
        """Persist one calibration artifact under its content address."""
        record = {"calibration_schema": CALIBRATION_SCHEMA, "kind": kind,
                  "payload": dict(payload)}
        self._records[key] = record
        if self.directory is not None:
            self._write_disk_json(key, record)

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _load_json(self, key: str) -> typing.Optional[typing.Any]:
        """Read and parse one record file; refreshes its LRU recency."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                record = json.loads(handle.read())
        except (OSError, ValueError):
            return None
        try:
            # A read is a *use*: bump the mtime so the LRU bound evicts
            # cold records, not hot ones.  Best effort — a read-only
            # cache directory still serves hits.
            os.utime(path)
        except OSError:
            pass
        return record

    def _read_disk(self, key: str) -> typing.Optional[SweepPoint]:
        record = self._load_json(key)
        if record is None:
            return None
        try:
            return self._decode(record)
        except (KeyError, TypeError, AttributeError, ValueError):
            # A malformed record (torn by a crashed writer, hand-edited,
            # wrong type) is a cache miss, not a sweep failure — but say
            # so, because a silently re-measured point hides the
            # corruption forever.
            warnings.warn(
                "SweepCache: ignoring malformed cache record "
                f"{self._path(key)}",
                IntegrityWarning, stacklevel=2)
            return None

    def _read_disk_record(self, key: str) -> typing.Optional[
            typing.Dict[str, typing.Any]]:
        record = self._load_json(key)
        if record is None:
            return None
        if (isinstance(record, dict)
                and record.get("calibration_schema") == CALIBRATION_SCHEMA
                and isinstance(record.get("kind"), str)
                and isinstance(record.get("payload"), dict)):
            return record
        # Unlike a torn point record, a schema-mismatched calibration
        # record is *expected* after a schema bump (the key changes
        # too, so normally unreachable) — but a malformed envelope is
        # the same corruption story as above.
        warnings.warn(
            "SweepCache: ignoring malformed calibration record "
            f"{self._path(key)}",
            IntegrityWarning, stacklevel=2)
        return None

    @staticmethod
    def _decode(record: typing.Any) -> typing.Optional[SweepPoint]:
        """Decode one on-disk record, validating shape and field types."""
        if record.get("schema") != _SCHEMA:
            return None
        point = SweepPoint(
            kernel_name=record["kernel_name"], n=record["n"],
            num_clusters=record["num_clusters"], variant=record["variant"],
            runtime_cycles=record["runtime_cycles"],
            phases=dict(record["phases"]))
        for field in ("n", "num_clusters", "runtime_cycles"):
            if not isinstance(getattr(point, field), int):
                raise TypeError(f"field {field!r} is not an int")
        for field in ("kernel_name", "variant"):
            if not isinstance(getattr(point, field), str):
                raise TypeError(f"field {field!r} is not a string")
        for name, cycles in point.phases.items():
            if not isinstance(name, str) or not isinstance(cycles, int):
                raise TypeError("phases must map str -> int")
        return point

    def _write_disk(self, key: str, point: SweepPoint) -> None:
        record = {
            "schema": _SCHEMA,
            "kernel_name": point.kernel_name,
            "n": point.n,
            "num_clusters": point.num_clusters,
            "variant": point.variant,
            "runtime_cycles": point.runtime_cycles,
            "phases": dict(point.phases),
        }
        self._write_disk_json(key, record)

    def _write_disk_json(self, key: str, record: typing.Any) -> None:
        # ``json.dumps`` takes CPython's one-shot C encoder, which
        # ``json.dump`` never does; the bytes are the same either way.
        data = json.dumps(record).encode("ascii")
        path = self._path(key)
        if not self._directory_made:
            os.makedirs(self.directory, exist_ok=True)
            self._directory_made = True
        try:
            self._replace(path, data)
        except FileNotFoundError:
            # The directory vanished since this instance made it
            # (cleaned by hand or by another process): make it again.
            os.makedirs(self.directory, exist_ok=True)
            self._replace(path, data)
        if self._batch_depth:
            self._bound_pending = True
        else:
            self._enforce_bound()

    @staticmethod
    def _replace(path: str, data: bytes) -> None:
        # Write-then-rename so concurrent sweep workers never observe a
        # torn file; last writer wins, and all writers agree anyway.
        temp = f"{path}.tmp.{os.getpid()}"
        with open(temp, "wb") as handle:
            handle.write(data)
        os.replace(temp, path)

    def _enforce_bound(self) -> None:
        """Evict least-recently-used record files past ``max_entries``.

        Recency is file mtime: reads refresh it (:meth:`_load_json`),
        writes set it.  Races with concurrent sweeps are benign — an
        eviction of a record another process just re-read costs that
        process one re-measurement, never a wrong result — and every
        per-file ``OSError`` is swallowed for the same reason.
        """
        if self.max_entries is None:
            return
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        entries = [name for name in names if name.endswith(".json")]
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        stamped = []
        for name in entries:
            path = os.path.join(self.directory, name)
            try:
                stamped.append((os.path.getmtime(path), name))
            except OSError:
                continue
        stamped.sort()
        for _mtime, name in stamped[:excess]:
            try:
                os.remove(os.path.join(self.directory, name))
            except OSError:
                continue
            self.evictions += 1
