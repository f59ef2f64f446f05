"""Content-addressed store of measured sweep points.

Simulating one grid point is pure: the cycle counts depend only on the
SoC configuration and the job coordinates (kernel, N, M, variant,
scalars, tile group).  The input seed changes no cycle
(``tests/property/test_history_independence.py``): it feeds functional
verification only, so it addresses nothing here and a store hit is
timing only.  That makes sweep results safe to memoize under exactly
those coordinates — re-fitting the model after an analysis-only change
replays the grid from the store instead of re-simulating it.

A sweep call's coordinates name **one store file**:
:meth:`SweepCache.batch` takes the config, kernel, resolved variant,
resolved scalars and tile group, and names the file by their SHA-256
(the config contributes via :meth:`repro.soc.config.SoCConfig.digest`,
so *any* microarchitectural change invalidates every entry measured
under the old timing).  Within the file an entry is addressed by its
remaining coordinates, as a short key:

- ``256,4`` — the measured point at N = 256, M = 4
  (:meth:`SweepCache.get` / :meth:`SweepCache.put`);
- ``prefix,4`` — the batch planner's dispatch prefix for M = 4, and
  ``mmodel`` — its fitted affine M-axis prefix model
  (:meth:`SweepCache.get_record` / :meth:`SweepCache.put_record`; see
  :mod:`repro.core.batch`).  Neither has an N: a prefix is
  N-independent by construction, which is what lets a warm store skip
  calibration for grids over problem sizes it has never seen.

The store has two layers:

- an in-memory dict, always on, scoped to the :class:`SweepCache`
  instance and keyed by (file, entry);
- an optional on-disk layer under ``directory``, shared between runs
  and between processes.  Outside a batch only the memory layer is
  used.

A store file is a header line ``{"schema": 4}`` followed by one line per
entry: the entry's key, a space, and its body (a point's fields or a
calibration payload) as ``json.dumps`` with default separators writes
it.  The file is **append-only**:

- opening it reads it once and indexes the raw lines by key (one
  ``partition`` per line, no JSON parsing); a line is decoded only when
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
call's coordinates, and past it the least recently *used* files are
evicted right after a batch's write — opening a file refreshes its
mtime, so a hot working set survives churn.
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

#: Bump when the on-disk layout or addressing changes; stale files then
#: miss.  Schema 1 kept one file per record; schema 2 kept one JSON
#: object per sweep call; schema 3 kept one appended line per entry
#: under a 64-hex key; schema 4 keys each entry by its coordinates
#: within the file and leaves the seed out of the file name.
_SCHEMA = 4

#: A store file's first line.
_HEADER = f'{{"schema": {_SCHEMA}}}\n'


def default_cache_dir() -> str:
    """The CLI's on-disk cache location (override with ``REPRO_CACHE_DIR``)."""
    override = flags.cache_dir()
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-sweeps")


def _group_key(config: SoCConfig, kernel_name: str, variant_name: str,
               scalars: typing.Optional[typing.Mapping[str, float]],
               tile_group: str) -> str:
    """The name of one sweep call's store file (:meth:`SweepCache.batch`)."""
    scalar_part = ("" if not scalars else
                   ",".join(f"{k}={scalars[k]!r}" for k in sorted(scalars)))
    text = (f"schema={_SCHEMA};config={config.digest()};"
            f"kernel={kernel_name};variant={variant_name};"
            f"scalars={scalar_part};group={tile_group}")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record_entry(kind: str, m: typing.Optional[int]) -> str:
    """The entry key of one calibration record: ``prefix,4``, ``mmodel``."""
    return kind if m is None else f"{kind},{m}"


class SweepCache:
    """Memoizes :class:`~repro.core.sweep.SweepPoint` measurements.

    Parameters
    ----------
    directory:
        If given, the entries of each sweep call's coordinates are also
        persisted in one append-only store file here (see :meth:`batch`
        and the module docstring for the line format), so the cache
        survives the process and is shared across concurrent sweeps.
        ``None`` keeps the cache purely in memory.
    max_entries:
        Bound on the number of files the disk layer keeps, one per
        sweep call's coordinates; past it, the least recently used
        files are evicted (counted in :attr:`evictions`) after each
        batch's write.  ``None`` (the default) defers to
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
        #: Decoded points and payloads by (file, entry key).
        self._memory: typing.Dict[typing.Tuple[typing.Optional[str], str],
                                  typing.Any] = {}
        self.hits = 0
        self.misses = 0
        #: Disk-layer files removed by the LRU bound, lifetime of this
        #: instance (the ``--stats`` eviction figure).
        self.evictions = 0
        #: The file :meth:`batch` has open (``None`` outside a batch),
        #: its path on disk (``None`` without a directory), its raw JSON
        #: text per entry key (undecoded), the lines this batch adds,
        #: and the text to write ahead of them when the file must be
        #: written whole (``None``: it loaded clean, so append).
        self._group: typing.Optional[str] = None
        self._path: typing.Optional[str] = None
        self._lines: typing.Dict[str, str] = {}
        self._new: typing.List[str] = []
        self._base: typing.Optional[str] = None

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, n: int, m: int) -> typing.Optional[SweepPoint]:
        """The stored point at (N, M) of the open file, or None (counts
        hit/miss)."""
        point = self._lookup(f"{n},{m}", self._decode_point)
        if point is None:
            self.misses += 1
            return None
        self.hits += 1
        return point

    def put(self, n: int, m: int, point: SweepPoint) -> None:
        """Store a freshly measured point at (N, M) of the open file."""
        self._keep(f"{n},{m}", point, {
            "kernel_name": point.kernel_name,
            "n": point.n,
            "num_clusters": point.num_clusters,
            "variant": point.variant,
            "runtime_cycles": point.runtime_cycles,
            "phases": dict(point.phases),
        })

    def get_record(self, kind: str, m: typing.Optional[int] = None
                   ) -> typing.Optional[typing.Dict[str, typing.Any]]:
        """The calibration payload ``kind`` (for offload width ``m``, or
        spanning all M when ``None``) of the open file, or ``None``.

        The kind is part of the entry key, so a prefix lookup can never
        return an M-model.  Payload *field* validation is the caller's
        job (the batch module knows the expected shapes); this layer
        only guarantees a JSON object.
        """
        payload = self._lookup(_record_entry(kind, m), self._decode_record)
        return None if payload is None else dict(payload)

    def put_record(self, kind: str, payload: typing.Mapping[str, typing.Any],
                   m: typing.Optional[int] = None) -> None:
        """Persist one calibration artifact in the open file."""
        payload = dict(payload)
        self._keep(_record_entry(kind, m), payload, payload)

    @contextlib.contextmanager
    def batch(self, config: SoCConfig, kernel_name: str, variant_name: str,
              scalars: typing.Optional[typing.Mapping[str, float]],
              tile_group: str = "") -> typing.Iterator[None]:
        """Open the store file of one sweep call's coordinates.

        ``variant_name`` and ``scalars`` must be the *resolved* ones, so
        ``"auto"`` and the explicit variant (or default and explicit
        scalars) share one file and every entry in it.  ``tile_group``
        names the fabric group the call runs on (empty for the whole
        fabric): one config digest covers every group of a
        heterogeneous fabric, and an entry measured on one group says
        nothing about another's tiles.

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
        a wrong result.  Without a directory the file lives in memory
        only.
        """
        if self._group is not None:
            raise RuntimeError("SweepCache.batch() does not nest")
        self._group = _group_key(config, kernel_name, variant_name, scalars,
                                 tile_group)
        if self.directory is not None:
            self._path = os.path.join(self.directory, f"{self._group}.json")
            self._lines, self._base = self._load(self._path)
        try:
            yield
        finally:
            path, new, base = self._path, self._new, self._base
            self._group, self._path, self._lines, self._new, self._base = (
                None, None, {}, [], None)
            if new:
                self._write(path, base, "".join(new))
                self._enforce_bound()

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def _lookup(self, entry: str,
                decode: typing.Callable[[str, str], typing.Any]
                ) -> typing.Any:
        """The open file's decoded ``entry``, from memory or its line."""
        key = (self._group, entry)
        value = self._memory.get(key)
        if value is None and entry in self._lines:
            value = decode(entry, self._lines[entry])
            if value is not None:
                self._memory[key] = value
        return value

    def _keep(self, entry: str, value: typing.Any,
              body: typing.Mapping[str, typing.Any]) -> None:
        """Remember ``value`` and queue its line for the batch's write."""
        self._memory[(self._group, entry)] = value
        if self._path is not None:
            self._new.append(f"{entry} {json.dumps(body)}\n")

    def _decode_point(self, entry: str,
                      raw: str) -> typing.Optional[SweepPoint]:
        """Decode one point entry, validating shape and field types."""
        try:
            record = json.loads(raw)
            point = SweepPoint(
                kernel_name=record["kernel_name"], n=record["n"],
                num_clusters=record["num_clusters"],
                variant=record["variant"],
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
        except (KeyError, TypeError, AttributeError, ValueError):
            warnings.warn(
                f"SweepCache: ignoring malformed cache record {entry} in "
                f"{self._path}", IntegrityWarning, stacklevel=4)
            return None
        return point

    def _decode_record(self, entry: str, raw: str
                       ) -> typing.Optional[typing.Dict[str, typing.Any]]:
        """Decode one calibration entry: any JSON object."""
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        if isinstance(payload, dict):
            return payload
        warnings.warn(
            f"SweepCache: ignoring malformed calibration record {entry} in "
            f"{self._path}", IntegrityWarning, stacklevel=4)
        return None

    # ------------------------------------------------------------------
    # Disk layer
    # ------------------------------------------------------------------
    def _load(self, path: str) -> typing.Tuple[typing.Dict[str, str],
                                               typing.Optional[str]]:
        """Index one store file; refreshes its LRU recency.

        Returns the raw JSON text per entry key and the text a
        whole-file write must start with (``None`` when the file loaded
        clean and new lines can be appended).  A missing file, or one of
        another schema (stores written before the schema bump), is a
        silent miss.  An unreadable header is one warned miss for the
        whole file; a torn last line is one warned miss for that entry
        only.
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
        # ``partition(" ")[::2]`` is (entry key, raw JSON text).
        return dict(line.partition(" ")[::2] for line in lines[1:]), base

    @staticmethod
    def _other_schema(text: str) -> bool:
        """Whether ``text`` starts with another schema's valid header."""
        try:
            stored = json.loads(text.partition("\n")[0])
            return stored["schema"] != _SCHEMA
        except (ValueError, TypeError, KeyError):
            return False

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
