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
- an optional on-disk layer under ``directory``, shared between runs
  and between processes, with **one store file per sweep call**
  (:func:`group_key`): the call's point records, dispatch prefixes and
  M-model.  :meth:`SweepCache.batch` opens one call's file (every
  :class:`~repro.core.executor.SweepExecutor` run is one batch); outside
  a batch only the memory layer is used.

A store file is a header line ``{"schema": 3}`` followed by one line per
entry: the entry's 64-hex key, a space, and the record as ``json.dumps``
with default separators writes it.  The file is **append-only**:

- opening it reads it once and indexes the raw lines by key (one
  ``split``, no JSON parsing); a line is decoded only when
  :meth:`SweepCache.get` or :meth:`SweepCache.get_record` asks for its
  key, and the last line for a key wins;
- when the batch ends, its new entries are appended with one ``write``
  (a key is only ever put after it missed, so nothing is rewritten).  A
  missing file, one of another schema, or one with a torn last line is
  instead written whole — header, surviving lines, new lines — to a
  temporary file and renamed into place;
- a torn last line (a writer that crashed mid-append) is one warned
  miss for that entry only; the lines before it still hit, and the next
  write drops it;
- concurrent appenders of one file each append whole lines, so both
  keep their entries.  A whole-file rename races a concurrent append or
  rename: the loser's new entries cost a re-measurement later, never a
  wrong result.

The disk layer can be bounded (``max_entries`` /
``REPRO_CACHE_MAX_ENTRIES``): the bound counts *files*, one per sweep
call, and past it the least recently *used* files are evicted right
after a batch's write — opening a file refreshes its mtime, so a hot
working set survives churn.

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

#: Bump when the on-disk file layout changes; stale files then miss.
#: Schema 1 kept one file per record; schema 2 kept one JSON object per
#: sweep call; schema 3 keeps one appended line per entry.
_SCHEMA = 3

#: A store file's first line.
_HEADER = f'{{"schema": {_SCHEMA}}}\n'

#: Length of a key (a SHA-256 hex digest) at the start of an entry line.
_KEY_LEN = 64

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


def _scalar_part(scalars: typing.Optional[typing.Mapping[str, float]]
                 ) -> str:
    return ("" if not scalars else
            ",".join(f"{k}={scalars[k]!r}" for k in sorted(scalars)))


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
    text = (f"schema={_SCHEMA};config={config.digest()};"
            f"kernel={kernel_name};n={n};m={m};variant={variant};"
            f"scalars={_scalar_part(scalars)};seed={seed};"
            f"group={tile_group}")
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
    text = (f"calibration={CALIBRATION_SCHEMA};kind={kind};"
            f"config={config.digest()};kernel={kernel_name};"
            f"variant={variant_name};scalars={_scalar_part(scalars)};"
            f"seed={seed};m={m};group={tile_group}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def group_key(config: SoCConfig, kernel_name: str, variant_name: str,
              scalars: typing.Optional[typing.Mapping[str, float]],
              seed: int, tile_group: str = "") -> str:
    """Content address of one sweep call's store file.

    The coordinates are :func:`calibration_key`'s without ``kind`` and
    ``m``, so one file holds a call's prefixes, its M-model and every
    point record under them.  ``variant_name`` and ``scalars`` must be
    the *resolved* ones, so ``"auto"`` and the explicit variant (or
    default and explicit scalars) share one file and one calibration.
    """
    text = (f"schema={_SCHEMA};config={config.digest()};"
            f"kernel={kernel_name};variant={variant_name};"
            f"scalars={_scalar_part(scalars)};seed={seed};"
            f"group={tile_group}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SweepCache:
    """Memoizes :class:`~repro.core.sweep.SweepPoint` measurements.

    Parameters
    ----------
    directory:
        If given, the records of each sweep call are also persisted in
        one append-only store file here (see :meth:`batch` and the
        module docstring for the line format), so the cache survives
        the process and is shared across concurrent sweeps.  ``None``
        keeps the cache purely in memory.
    max_entries:
        Bound on the number of files the disk layer keeps, one per
        sweep call; past it, the least recently used files are evicted
        (counted in :attr:`evictions`) after each batch's write.
        ``None`` (the default) defers to ``REPRO_CACHE_MAX_ENTRIES``;
        unset there too means unbounded.
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
        #: Disk-layer files removed by the LRU bound, lifetime of this
        #: instance (the ``--stats`` eviction figure).
        self.evictions = 0
        #: The file :meth:`batch` has open (``None`` outside a batch),
        #: its raw JSON text per key (undecoded), the lines this batch
        #: adds, and the text to write ahead of them when the file must
        #: be written whole (``None``: it loaded clean, so append).
        self._file: typing.Optional[str] = None
        self._lines: typing.Dict[str, str] = {}
        self._new: typing.List[str] = []
        self._base: typing.Optional[str] = None

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str) -> typing.Optional[SweepPoint]:
        """The cached point for ``key``, or None (counts hit/miss)."""
        point = self._memory.get(key)
        if point is None and key in self._lines:
            point = self._decode_point(key, self._lines[key])
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
        if self._file is not None:
            self._append(key, {
                "kernel_name": point.kernel_name,
                "n": point.n,
                "num_clusters": point.num_clusters,
                "variant": point.variant,
                "runtime_cycles": point.runtime_cycles,
                "phases": dict(point.phases),
            })

    @contextlib.contextmanager
    def batch(self, group: str) -> typing.Iterator[None]:
        """Open the store file of one sweep call (its :func:`group_key`).

        The file is read once here and only indexed: each line's key
        maps to its raw JSON text, which :meth:`get` and
        :meth:`get_record` decode on first use (the last line for a key
        wins).  Writes only add lines.  On exit (also on error) the new
        lines are appended with one ``write`` if the file loaded clean;
        a missing, other-schema or torn-tail file is written whole to a
        temporary file and renamed.  Then the LRU bound is enforced
        with one directory listing.  Concurrent appenders of one file
        keep both their entries; a whole-file rename can drop a racing
        writer's new entries, which costs a re-measurement later, never
        a wrong result.
        """
        if self._file is not None:
            raise RuntimeError("SweepCache.batch() does not nest")
        if self.directory is None:
            yield
            return
        path = self._file = os.path.join(self.directory, f"{group}.json")
        self._lines, self._base = self._load(path)
        try:
            yield
        finally:
            new, base = self._new, self._base
            self._file, self._lines, self._new, self._base = (
                None, {}, [], None)
            if new:
                self._write(path, base, "".join(new))
                self._enforce_bound()

    # ------------------------------------------------------------------
    # Calibration records (prefixes and fitted M-models)
    # ------------------------------------------------------------------
    def get_record(self, key: str,
                   kind: str) -> typing.Optional[
                       typing.Dict[str, typing.Any]]:
        """The calibration payload stored under ``key``, or ``None``.

        ``kind`` must match what the record was stored with — a prefix
        key can never return an M-model payload even if an entry were
        hand-copied under its key.  Payload *field* validation is the
        caller's job (the batch module knows the expected shapes); this
        layer only guarantees a schema-matching ``kind``/``payload``
        envelope.
        """
        record = self._records.get(key)
        if record is None and key in self._lines:
            record = self._check_envelope(key, self._lines[key])
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
        if self._file is not None:
            self._append(key, record)

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _append(self, key: str, record: typing.Dict[str, typing.Any]
                ) -> None:
        """Queue one entry line for the open file's write at batch end."""
        self._new.append(f"{key} {json.dumps(record)}\n")

    def _load(self, path: str) -> typing.Tuple[typing.Dict[str, str],
                                               typing.Optional[str]]:
        """Index one sweep call's file; refreshes its LRU recency.

        Returns the raw JSON text per key and the text a whole-file
        write must start with (``None`` when the file loaded clean and
        new lines can be appended).  A missing file, or one of another
        schema (stores written before the schema bump), is a silent
        miss.  An unreadable header is one warned miss for the whole
        call; a torn last line is one warned miss for that entry only.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return {}, _HEADER
        # A read is a *use*: bump the mtime so the LRU bound evicts cold
        # files, not hot ones.  Best effort — a read-only cache
        # directory still serves hits.
        with contextlib.suppress(OSError):
            os.utime(path)
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError:
            text = ""  # every byte the writer emits is ASCII
        if not text.startswith(_HEADER):
            # A torn file (crashed writer, hand edit) is a cache miss,
            # not a sweep failure — but say so, because silently
            # re-measured points hide the corruption forever.
            if not self._other_schema(text):
                warnings.warn(
                    f"SweepCache: ignoring malformed store file {path}",
                    IntegrityWarning, stacklevel=4)
            return {}, _HEADER
        lines = text.split("\n")
        # Every whole line ends in a newline, so the last piece is empty
        # unless a writer died mid-line.
        torn = lines.pop()
        base = None
        if torn:
            warnings.warn(
                f"SweepCache: ignoring torn last line of store file {path}",
                IntegrityWarning, stacklevel=4)
            base = text[:len(text) - len(torn)]
        return ({line[:_KEY_LEN]: line[_KEY_LEN + 1:] for line in lines[1:]},
                base)

    @staticmethod
    def _other_schema(text: str) -> bool:
        """Whether ``text`` starts with another schema's valid header."""
        try:
            stored = json.loads(text.partition("\n")[0])
            return stored["schema"] != _SCHEMA
        except (ValueError, TypeError, KeyError):
            return False

    def _decode_point(self, key: str,
                      raw: str) -> typing.Optional[SweepPoint]:
        try:
            return self._decode(json.loads(raw))
        except (KeyError, TypeError, AttributeError, ValueError):
            warnings.warn(
                f"SweepCache: ignoring malformed cache record {key} in "
                f"{self._file}", IntegrityWarning, stacklevel=3)
            return None

    def _check_envelope(self, key: str, raw: str
                        ) -> typing.Optional[typing.Dict[str, typing.Any]]:
        try:
            record = json.loads(raw)
        except ValueError:
            record = None
        if (isinstance(record, dict)
                and record.get("calibration_schema") == CALIBRATION_SCHEMA
                and isinstance(record.get("kind"), str)
                and isinstance(record.get("payload"), dict)):
            return record
        # A schema-mismatched calibration record is normally unreachable
        # (the schema is part of the key), so a bad envelope is the same
        # corruption story as a malformed point record.
        warnings.warn(
            f"SweepCache: ignoring malformed calibration record {key} in "
            f"{self._file}", IntegrityWarning, stacklevel=3)
        return None

    @staticmethod
    def _decode(record: typing.Any) -> SweepPoint:
        """Decode one point entry, validating shape and field types."""
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

    def _write(self, path: str, base: typing.Optional[str],
               lines: str) -> None:
        """Append ``lines`` to a clean file, else write it whole."""
        if base is None:
            # One ``O_APPEND`` write of whole lines, so concurrent
            # appenders never interleave within a line.  No ``O_CREAT``:
            # a file evicted since the load is rewritten whole below
            # instead of restarted without its header.
            try:
                fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            except FileNotFoundError:
                base = _HEADER
            else:
                with open(fd, "wb") as handle:
                    handle.write(lines.encode("ascii"))
                return
        # A new or repaired file goes to a temporary name and is renamed
        # into place, so concurrent sweeps never observe it half written.
        os.makedirs(self.directory, exist_ok=True)
        temp = f"{path}.tmp.{os.getpid()}"
        with open(temp, "wb") as handle:
            handle.write((base + lines).encode("ascii"))
        os.replace(temp, path)

    def _enforce_bound(self) -> None:
        """Evict least-recently-used store files past ``max_entries``.

        Recency is file mtime: opening a file refreshes it
        (:meth:`_load`), writing sets it.  Races with concurrent sweeps
        are benign — an eviction of a file another process just re-read
        costs that process a re-measurement, never a wrong result — and
        every per-file ``OSError`` is swallowed for the same reason.
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
