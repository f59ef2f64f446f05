"""Unit tests for the sweep executor and the content-addressed cache."""

import hashlib
import io
import json
import os
import shutil
import warnings

import pytest

from repro.core.cache import SweepCache, _group_key
from repro.core.executor import SweepExecutor, SweepStats
from repro.errors import OffloadError
from repro.flags import NAIVE_BATCH_ENV, NAIVE_MPREDICT_ENV
from repro.soc.config import SoCConfig
from repro.soc.tiles import SNITCH, TileGroup


CFG = SoCConfig.extended(num_clusters=8)
N_VALUES = [64, 128]
M_VALUES = [1, 4]


#: The store coordinates ``run`` resolves to: ``auto`` is ``extended``
#: on ``CFG``, and daxpy's default scalar is ``a = 1.0``.
RUN_COORDS = (CFG, "daxpy", "extended", {"a": 1.0})


def run(executor, **kwargs):
    kwargs.setdefault("n_values", N_VALUES)
    kwargs.setdefault("m_values", M_VALUES)
    return executor.run(CFG, "daxpy", **kwargs)


# ----------------------------------------------------------------------
# Validation and grid order
# ----------------------------------------------------------------------
def test_stats_total_sums_counts_and_keeps_shared_labels():
    first = SweepStats(points=4, tile_class="snitch", elapsed_seconds=0.5,
                       planned_points=3, batch_fallback_points=1)
    second = SweepStats(points=2, tile_group="big", tile_class="snitch",
                        elapsed_seconds=0.5, batch_fallback_points=2,
                        sim_resumes=7)
    total = SweepStats.total([first, second])
    assert (total.points, total.planned_points, total.batch_fallback_points,
            total.sim_resumes) == (6, 3, 3, 7)
    assert total.tile_class == "snitch" and total.tile_group is None
    assert total.points_per_second == 6.0
    assert total.batch_plan_hit_rate == 0.5
    assert SweepStats.total([]) == SweepStats()


def test_executor_validates_grid_like_sweep():
    executor = SweepExecutor()
    with pytest.raises(OffloadError):
        executor.run(CFG, "daxpy", [], [1])
    with pytest.raises(OffloadError):
        executor.run(CFG, "daxpy", [64], [])
    with pytest.raises(OffloadError):
        executor.run(CFG, "daxpy", [64], [16])  # wider than the fabric


@pytest.mark.parametrize("config,n_values,m_values,counts", [
    # Two calibrations and two planned points: the planner fills slots
    # out of grid order.
    (CFG, N_VALUES, M_VALUES, (2, 2, 0)),
    # A lone N: the planner hands every point back, and the simulation
    # loop measures all three.
    (SoCConfig.extended(num_clusters=4), [96], [1, 2, 4], (3, 0, 3)),
], ids=["planned", "lone-n"])
def test_progress_streams_in_grid_order(monkeypatch, config, n_values,
                                        m_values, counts):
    monkeypatch.delenv(NAIVE_BATCH_ENV, raising=False)
    seen = []
    executor = SweepExecutor()
    result = executor.run(config, "daxpy", n_values, m_values,
                          progress=seen.append)
    assert (executor.stats.simulated_points, executor.stats.planned_points,
            executor.stats.batch_fallback_points) == counts
    assert seen == list(result)
    assert [(p.n, p.num_clusters) for p in seen] == \
        [(n, m) for n in n_values for m in m_values]


# ----------------------------------------------------------------------
# Cache: hits, misses, and invalidation
# ----------------------------------------------------------------------
def test_second_identical_sweep_simulates_nothing():
    executor = SweepExecutor(cache=SweepCache())
    first = run(executor)
    assert executor.stats.cache_hits == 0
    assert executor.stats.cache_misses == len(first)
    # Every point was measured this run: calibrations through the
    # event engine plus batch-planned predictions.
    assert executor.stats.simulated_points + executor.stats.planned_points \
        == len(first)
    second = run(executor)
    assert second == first
    assert executor.stats.cache_hits == len(first)
    assert executor.stats.cache_misses == 0
    assert executor.stats.simulated_points == 0


def test_cached_points_stream_progress_in_grid_order():
    executor = SweepExecutor(cache=SweepCache())
    run(executor)
    seen = []
    run(executor, progress=seen.append)
    assert [(p.n, p.num_clusters) for p in seen] == \
        [(n, m) for n in N_VALUES for m in M_VALUES]


def test_config_change_misses():
    cache = SweepCache()
    run(SweepExecutor(cache=cache))
    retuned = SweepExecutor(cache=cache)
    retuned.run(SoCConfig.extended(num_clusters=8, noc_store_occupancy=4),
                "daxpy", N_VALUES, M_VALUES)
    assert retuned.stats.cache_hits == 0
    assert retuned.stats.simulated_points + retuned.stats.planned_points \
        == len(N_VALUES) * len(M_VALUES)


@pytest.mark.parametrize("kwargs", [
    {"m_values": [2]},
    {"variant": "baseline"},
    {"scalars": {"a": 2.0}},
])
def test_job_coordinate_changes_miss(kwargs):
    cache = SweepCache()
    run(SweepExecutor(cache=cache))
    executor = SweepExecutor(cache=cache)
    run(executor, **kwargs)
    assert executor.stats.cache_hits == 0


def test_store_addresses_points_by_their_timing_coordinates(tmp_path):
    """A stored point is addressed by config, kernel, resolved variant,
    resolved scalars, tile group, N and M, and by nothing else."""
    directory = str(tmp_path / "cache")
    fabric = SoCConfig.with_fabric(
        [TileGroup(name="left", tile=SNITCH, count=4),
         TileGroup(name="right", tile=SNITCH, count=4)],
        multicast=True, hw_sync=True)
    first = run(SweepExecutor(cache=SweepCache(directory)))
    grouped = SweepExecutor(cache=SweepCache(directory)).run(
        fabric, "daxpy", N_VALUES, M_VALUES, tile_group="left")
    # Another seed, the variant ``auto`` resolves to, or the default
    # scalars spelled out: the same measurements, all hits.
    for kwargs in ({"seed": 1}, {"variant": "extended"},
                   {"scalars": {"a": 1.0}}):
        again = SweepExecutor(cache=SweepCache(directory))
        assert run(again, **kwargs) == first
        assert (again.stats.cache_hits, again.stats.cache_misses,
                again.stats.simulated_points) == (len(first), 0, 0)
    # Another N, M, kernel, config or tile group: all misses.
    for config, kernel, n_values, m_values, group in (
            (CFG, "daxpy", [96], M_VALUES, None),
            (CFG, "daxpy", N_VALUES, [2], None),
            (CFG, "scale", N_VALUES, M_VALUES, None),
            (SoCConfig.extended(num_clusters=8, dma_setup_cycles=17),
             "daxpy", N_VALUES, M_VALUES, None),
            (fabric, "daxpy", N_VALUES, M_VALUES, "right"),
            (fabric, "daxpy", N_VALUES, M_VALUES, None)):
        other = SweepExecutor(cache=SweepCache(directory))
        other.run(config, kernel, n_values, m_values, tile_group=group)
        assert other.stats.cache_hits == 0
    # ``left`` itself still hits every point.
    again = SweepExecutor(cache=SweepCache(directory))
    assert again.run(fabric, "daxpy", N_VALUES, M_VALUES,
                     tile_group="left") == grouped
    assert again.stats.cache_hits == len(grouped)


def test_config_digest_reflects_every_knob():
    assert CFG.digest() == SoCConfig.extended(num_clusters=8).digest()
    assert CFG.digest() != SoCConfig.baseline(num_clusters=8).digest()
    assert CFG.digest() != \
        SoCConfig.extended(num_clusters=8, dma_setup_cycles=17).digest()


# ----------------------------------------------------------------------
# Cache: the on-disk layer
# ----------------------------------------------------------------------
def test_disk_cache_survives_the_process(tmp_path):
    directory = str(tmp_path / "cache")
    first = run(SweepExecutor(cache=SweepCache(directory)))
    reloaded = SweepExecutor(cache=SweepCache(directory))
    second = run(reloaded)
    assert second == first
    assert reloaded.stats.simulated_points == 0
    assert reloaded.stats.cache_hits == len(first)


def _store_files(directory):
    return sorted(n for n in os.listdir(directory) if n.endswith(".json"))


def _only_store_file(directory):
    (name,) = _store_files(directory)
    return os.path.join(directory, name)


def _stored_entries(path, schema=4):
    """``(key, record)`` per entry line of one store file, in file order.

    The store file format, as the tests know it: a ``{"schema": 4}``
    header line, then one ``<key> <record JSON>`` line per entry, each
    ending in a newline.  A point's key is ``N,M``; a calibration
    record's is ``prefix,M`` or ``mmodel``.
    """
    with open(path) as handle:
        text = handle.read()
    assert text.endswith("\n")
    header, *lines = text[:-1].split("\n")
    assert json.loads(header) == {"schema": schema}
    return [(key, json.loads(record))
            for key, _space, record in (line.partition(" ")
                                        for line in lines)]


def _write_entries(path, entries, schema=4):
    """Write ``(key, record)`` pairs as one store file (see above)."""
    with open(path, "w") as handle:
        handle.write(json.dumps({"schema": schema}) + "\n")
        for key, record in entries:
            handle.write(f"{key} {json.dumps(record)}\n")


def test_a_sweep_writes_exactly_one_store_file(tmp_path, monkeypatch):
    # Both gates keep the planner's calibration records out of the file.
    monkeypatch.delenv(NAIVE_BATCH_ENV, raising=False)
    monkeypatch.delenv(NAIVE_MPREDICT_ENV, raising=False)
    directory = str(tmp_path / "cache")
    result = run(SweepExecutor(cache=SweepCache(directory)))
    # No temp file is left behind, and the one file holds every point
    # plus the call's calibration records.
    assert os.listdir(directory) == _store_files(directory)
    entries = _stored_entries(_only_store_file(directory))
    points = [record for _key, record in entries if "n" in record]
    assert len(points) == len(result)
    assert len(entries) > len(result)


def test_a_second_call_appends_to_the_first_calls_file(tmp_path):
    directory = str(tmp_path / "cache")
    run(SweepExecutor(cache=SweepCache(directory)))
    path = _only_store_file(directory)
    with open(path, "rb") as handle:
        first = handle.read()
    # An identical call hits everything and leaves the file alone...
    run(SweepExecutor(cache=SweepCache(directory)))
    with open(path, "rb") as handle:
        assert handle.read() == first
    # ...and a call with new N appends their entries after the old bytes.
    grown = SweepExecutor(cache=SweepCache(directory))
    result = run(grown, n_values=N_VALUES + [256])
    assert grown.stats.cache_hits == len(N_VALUES) * len(M_VALUES)
    with open(path, "rb") as handle:
        data = handle.read()
    assert data.startswith(first) and len(data) > len(first)
    assert os.listdir(directory) == _store_files(directory)
    reloaded = SweepExecutor(cache=SweepCache(directory))
    assert run(reloaded, n_values=N_VALUES + [256]) == result
    assert reloaded.stats.cache_hits == len(result)


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    from repro.sim import IntegrityWarning
    directory = str(tmp_path / "cache")
    run(SweepExecutor(cache=SweepCache(directory)))
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "w") as handle:
            handle.write("{not json")
    recovered = SweepExecutor(cache=SweepCache(directory))
    with pytest.warns(IntegrityWarning, match="malformed store file"):
        result = run(recovered)
    assert recovered.stats.cache_hits == 0
    assert recovered.stats.simulated_points + recovered.stats.planned_points \
        == len(result)


def test_truncated_store_file_is_one_warned_miss(tmp_path):
    from repro.sim import IntegrityWarning
    directory = str(tmp_path / "cache")
    first = run(SweepExecutor(cache=SweepCache(directory)))
    path = _only_store_file(directory)
    # The executor puts a call's points last, in grid order: cutting
    # the file mid-line tears the last grid point's entry only.
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[:-20])
    recovered = SweepExecutor(cache=SweepCache(directory))
    with pytest.warns(IntegrityWarning, match="torn last line") as caught:
        assert run(recovered) == first
    assert len([w for w in caught
                if issubclass(w.category, IntegrityWarning)]) == 1
    assert recovered.stats.cache_hits == len(first) - 1
    assert recovered.stats.cache_misses == 1
    # The re-measured entry's write dropped the torn line: the file is
    # clean again, holds every point, and left no temporary file.
    assert os.listdir(directory) == _store_files(directory)
    points = [r for _k, r in _stored_entries(path) if "n" in r]
    assert len(points) == len(first)
    reloaded = SweepExecutor(cache=SweepCache(directory))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(reloaded) == first
    assert reloaded.stats.cache_hits == len(first)


def test_stale_schema_is_a_miss(tmp_path):
    directory = str(tmp_path / "cache")
    run(SweepExecutor(cache=SweepCache(directory)))
    path = _only_store_file(directory)
    # The same entries under the previous schema's header and keys.
    _write_entries(path, [(hashlib.sha256(key.encode()).hexdigest(), record)
                          for key, record in _stored_entries(path)],
                   schema=3)
    recovered = SweepExecutor(cache=SweepCache(directory))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(recovered)
    assert recovered.stats.cache_hits == 0
    # The call rewrote the file whole, under the current schema.
    assert len(_stored_entries(path)) > 0


def _mangle_entries(directory, mutate, *, points):
    """Apply ``mutate(entry) -> entry`` to the first point entry
    (``points=True``) or the first calibration entry of every store
    file; returns the mangled keys."""
    mangled = []
    for name in _store_files(directory):
        path = os.path.join(directory, name)
        entries = _stored_entries(path)
        index = next(i for i, (key, _entry) in enumerate(entries)
                     if key[0].isdigit() == points)
        key, entry = entries[index]
        entries[index] = (key, mutate(entry))
        mangled.append(key)
        _write_entries(path, entries)
    return mangled


def test_an_entry_no_call_reads_is_never_decoded(tmp_path, monkeypatch):
    # The gates keep calibration records out of the file; with them the
    # second call provably reads the file it shares.
    monkeypatch.delenv(NAIVE_BATCH_ENV, raising=False)
    monkeypatch.delenv(NAIVE_MPREDICT_ENV, raising=False)
    directory = str(tmp_path / "cache")
    run(SweepExecutor(cache=SweepCache(directory)))
    _mangle_entries(directory, lambda r: {k: v for k, v in r.items()
                                          if k != "n"}, points=True)
    # A call over other N shares the file but never looks the mangled
    # key up, so nothing decodes it and nothing warns.
    other = SweepExecutor(cache=SweepCache(directory))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(other, n_values=[256, 512])
    assert other.stats.calibration_store_hits > 0


def test_concurrent_writers_of_one_file_leave_it_readable(tmp_path):
    # Both caches open the same existing file and append different N:
    # each appends whole lines, so the file keeps both writers' points.
    reference = run(SweepExecutor())
    directory = str(tmp_path / "cache")
    # One unrelated entry makes the file exist before both open it.
    seed = SweepCache(directory)
    with seed.batch(*RUN_COORDS):
        seed.put_record("prefix", {"start_cycle": 0}, m=99)
    first, second = SweepCache(directory), SweepCache(directory)
    with first.batch(*RUN_COORDS):
        with second.batch(*RUN_COORDS):
            for point in reference:
                if point.n == N_VALUES[1]:
                    second.put(point.n, point.num_clusters, point)
        for point in reference:
            if point.n == N_VALUES[0]:
                first.put(point.n, point.num_clusters, point)
    assert os.listdir(directory) == [_file(RUN_COORDS)]
    reader = SweepExecutor(cache=SweepCache(directory))
    assert run(reader) == reference
    assert reader.stats.cache_hits == len(reference)


def test_a_file_removed_mid_batch_is_written_whole(tmp_path):
    directory = str(tmp_path / "cache")
    _put_in_own_file(SweepCache(directory), 0)
    path = os.path.join(directory, _file(_coords(0)))
    cache = SweepCache(directory)
    with cache.batch(*_coords(0)):
        os.remove(path)   # e.g. evicted by another process's bound
        cache.put_record("prefix", {"value": 1}, m=2)
    # Appending would have restarted the file without its header.
    assert _stored_entries(path) == [("prefix,2", {"value": 1})]


# ----------------------------------------------------------------------
# Cache: the LRU bound on the disk layer
# ----------------------------------------------------------------------
def _coords(i):
    """The store coordinates of file ``i``: one per scalar value."""
    return CFG, "daxpy", "extended", {"a": float(i)}


def _file(coords):
    """The store file name of ``coords``."""
    return f"{_group_key(*coords, '')}.json"


def _put_in_own_file(cache, i):
    with cache.batch(*_coords(i)):
        cache.put_record("prefix", {"value": i}, m=1)


def test_max_entries_is_validated():
    with pytest.raises(ValueError):
        SweepCache(max_entries=0)


def test_disk_layer_is_lru_bounded(tmp_path):
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory, max_entries=3)
    for i in range(6):
        _put_in_own_file(cache, i)
    files = _store_files(directory)
    assert len(files) == 3
    assert cache.evictions == 3
    # The survivors are the most recently written files.
    assert set(files) == {_file(_coords(i)) for i in (3, 4, 5)}


def test_lru_reads_refresh_recency(tmp_path):
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory, max_entries=2)
    _put_in_own_file(cache, 0)
    _put_in_own_file(cache, 1)
    # Age the first file's mtime, then *use* it from a fresh cache
    # (the in-memory layer must not mask the disk read).
    past = os.path.getmtime(os.path.join(directory, _file(_coords(1)))) - 60
    os.utime(os.path.join(directory, _file(_coords(0))), (past, past))
    reader = SweepCache(directory, max_entries=2)
    with reader.batch(*_coords(0)):
        assert reader.get_record("prefix", 1) == {"value": 0}
    os.utime(os.path.join(directory, _file(_coords(1))), (past, past))
    _put_in_own_file(reader, 2)
    # File 1 (stale mtime) was evicted; the freshly read 0 survived.
    assert set(_store_files(directory)) == {_file(_coords(0)),
                                            _file(_coords(2))}
    assert reader.evictions == 1


def test_max_entries_defaults_to_the_environment(tmp_path, monkeypatch):
    from repro.flags import CACHE_MAX_ENTRIES_ENV
    monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "2")
    cache = SweepCache(str(tmp_path / "cache"))
    assert cache.max_entries == 2
    for i in range(4):
        _put_in_own_file(cache, i)
    assert cache.evictions == 2
    monkeypatch.delenv(CACHE_MAX_ENTRIES_ENV)
    assert SweepCache(str(tmp_path / "other")).max_entries is None


def test_sweep_into_a_full_store_enforces_the_bound_once(tmp_path,
                                                         monkeypatch):
    # An unbounded twin of the store says how many files the next
    # sweep call adds (one); the bounded store starts at its bound.
    full, twin = str(tmp_path / "full"), str(tmp_path / "twin")
    for directory in (full, twin):
        for a in (2.0, 3.0, 4.0):
            run(SweepExecutor(cache=SweepCache(directory)),
                scalars={"a": a})
    bound = len(_store_files(full))
    run(SweepExecutor(cache=SweepCache(twin)), n_values=[256, 512])
    excess = len(_store_files(twin)) - bound
    assert excess == 1

    listed = []
    real_listdir = os.listdir

    def counting_listdir(path="."):
        if path == full:
            listed.append(path)
        return real_listdir(path)

    monkeypatch.setattr(os, "listdir", counting_listdir)
    cache = SweepCache(full, max_entries=bound)
    executor = SweepExecutor(cache=cache)
    run(executor, n_values=[256, 512])
    monkeypatch.undo()
    assert len(listed) == 1
    assert len(_store_files(full)) == bound
    assert cache.evictions == excess
    assert executor.stats.cache_evictions == excess
    assert sorted(os.listdir(full)) == _store_files(full)  # no temp files


def test_stats_count_the_evictions_of_the_calls_own_write(tmp_path,
                                                          monkeypatch):
    from repro import cli
    from repro.flags import CACHE_DIR_ENV, CACHE_MAX_ENTRIES_ENV
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "1")
    texts = []
    for kernel in ("daxpy", "scale"):
        out = io.StringIO()
        assert cli.main(["sweep", "--kernel", kernel, "--n", "64", "128",
                         "--m", "1", "2", "--clusters", "4", "--stats",
                         "--csv", str(tmp_path / f"{kernel}.csv")],
                        out=out) == 0
        texts.append(out.getvalue())
    # The first call's write fits the bound; the second call's own
    # write overflows it and evicts the first call's file.
    assert " 0 disk evictions" in texts[0]
    assert " 1 disk evictions" in texts[1]
    assert len(_store_files(str(tmp_path / "cache"))) == 1


def test_store_directory_removed_between_sweeps_is_recreated(tmp_path):
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory)
    run(SweepExecutor(cache=cache))
    shutil.rmtree(directory)
    second = run(SweepExecutor(cache=cache), n_values=[256, 512])
    reloaded = SweepExecutor(cache=SweepCache(directory))
    assert run(reloaded, n_values=[256, 512]) == second
    assert reloaded.stats.cache_hits == len(second)
    assert reloaded.stats.simulated_points == 0


# ----------------------------------------------------------------------
# Cache: the on-disk file format
# ----------------------------------------------------------------------
#: One point entry and one calibration entry, as ``json.dumps`` with
#: default separators writes them; any byte change orphans stores.
POINT_ENTRY_BYTES = (
    b'{"kernel_name": "daxpy", "n": 256, "num_clusters": 2, '
    b'"variant": "extended", "runtime_cycles": 488, "phases": '
    b'{"setup": 178, "dispatch": 8, "completion_wait": 302, '
    b'"sync_overhead": 20, "total": 488}}')
CALIBRATION_ENTRY_BYTES = (
    b'{"min_m": 1, "m_lo": 2, "m_hi": 4, "base": [10, 20, 30, 40], '
    b'"slope": [0, 3, 5, 7]}')
#: The store file of one sweep call holding exactly those two entries.
STORE_FILE_BYTES = (
    b'{"schema": 4}\n'
    + b"256,2 " + POINT_ENTRY_BYTES + b"\n"
    + b"mmodel " + CALIBRATION_ENTRY_BYTES + b"\n")


def test_record_file_bytes_are_pinned(tmp_path):
    from repro.core.sweep import SweepPoint
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory)
    point = SweepPoint(
        kernel_name="daxpy", n=256, num_clusters=2, variant="extended",
        runtime_cycles=488,
        phases={"setup": 178, "dispatch": 8, "completion_wait": 302,
                "sync_overhead": 20, "total": 488})
    payload = {"min_m": 1, "m_lo": 2, "m_hi": 4, "base": [10, 20, 30, 40],
               "slope": [0, 3, 5, 7]}
    with cache.batch(*RUN_COORDS):
        cache.put(256, 2, point)
        cache.put_record("mmodel", payload)
    assert _store_files(directory) == [_file(RUN_COORDS)]
    path = os.path.join(directory, _file(RUN_COORDS))
    with open(path, "rb") as f:
        assert f.read() == STORE_FILE_BYTES
    fresh = SweepCache(directory)
    with fresh.batch(*RUN_COORDS):
        assert fresh.get(256, 2) == point
        assert fresh.get_record("mmodel") == payload
        fresh.put_record("prefix", {"start_cycle": 10}, m=4)
    # A second batch appends exactly its one new line.
    with open(path, "rb") as f:
        assert f.read() == STORE_FILE_BYTES + (
            b'prefix,4 {"start_cycle": 10}\n')


def _schema_1_key(n, m):
    """A point's key as the one-file-per-record store (schema 1) made it."""
    text = (f"schema=1;config={CFG.digest()};kernel=daxpy;n={n};m={m};"
            f"variant=auto;scalars=;seed=0;group=")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_schema_1_store_reads_as_silent_misses(tmp_path):
    directory = str(tmp_path / "cache")
    reference = run(SweepExecutor())
    # A store as schema 1 wrote it: one ``{key}.json`` per point.
    os.makedirs(directory)
    old = []
    for point in reference:
        record = {"schema": 1, "kernel_name": point.kernel_name,
                  "n": point.n, "num_clusters": point.num_clusters,
                  "variant": point.variant,
                  "runtime_cycles": point.runtime_cycles,
                  "phases": dict(point.phases)}
        old.append(f"{_schema_1_key(point.n, point.num_clusters)}.json")
        with open(os.path.join(directory, old[-1]), "w") as handle:
            json.dump(record, handle)
    reloaded = SweepExecutor(cache=SweepCache(directory))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(reloaded) == reference
    assert reloaded.stats.cache_hits == 0
    assert reloaded.stats.cache_misses == len(reference)
    # The old files are left to the LRU bound; the call added its own.
    assert len(_store_files(directory)) == len(old) + 1


# ----------------------------------------------------------------------
# Cache: calibration records
# ----------------------------------------------------------------------
def test_calibration_records_round_trip_and_check_kind(tmp_path):
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory)
    with cache.batch(*_coords(0)):
        cache.put_record("prefix", {"start_cycle": 10}, m=4)
        assert cache.get_record("prefix", 4) == {"start_cycle": 10}
        # A prefix key can never answer an M-model request.
        assert cache.get_record("mmodel") is None
        assert cache.get_record("mmodel", 4) is None
    # It survives the process (a fresh cache over the same file)...
    fresh = SweepCache(directory)
    with fresh.batch(*_coords(0)):
        assert fresh.get_record("prefix", 4) == {"start_cycle": 10}
        assert fresh.get_record("prefix", 5) is None
    # ...and the disk layer is only consulted inside a batch.
    assert SweepCache(directory).get_record("prefix", 4) is None


def test_malformed_calibration_record_is_a_warned_miss(tmp_path):
    from repro.sim import IntegrityWarning
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory)
    with cache.batch(*_coords(0)):
        cache.put_record("prefix", {"start_cycle": 10}, m=4)
    _mangle_entries(directory, lambda r: [1, 2], points=False)
    fresh = SweepCache(directory)
    with fresh.batch(*_coords(0)):
        with pytest.warns(IntegrityWarning,
                          match="malformed calibration record"):
            assert fresh.get_record("prefix", 4) is None


def test_calibration_key_separates_namespaces(tmp_path):
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory)
    with cache.batch(*RUN_COORDS):
        cache.put_record("prefix", {"value": 2}, m=2)
        cache.put_record("prefix", {"value": 3}, m=3)
        cache.put_record("mmodel", {"value": 0})
    assert [key for key, _r in _stored_entries(
        os.path.join(directory, _file(RUN_COORDS)))] == [
            "prefix,2", "prefix,3", "mmodel"]
    fresh = SweepCache(directory)
    with fresh.batch(*RUN_COORDS):
        assert fresh.get_record("prefix", 2) == {"value": 2}
        assert fresh.get_record("prefix", 3) == {"value": 3}
        assert fresh.get_record("mmodel") == {"value": 0}
    # Another config's file holds none of them.
    with fresh.batch(SoCConfig.baseline(num_clusters=8), *RUN_COORDS[1:]):
        assert fresh.get_record("mmodel") is None
        assert fresh.get_record("prefix", 2) is None


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda r: {k: v for k, v in r.items() if k != "n"},
                 id="missing-key"),
    pytest.param(lambda r: {**r, "n": "sixty-four"}, id="mistyped-n"),
    pytest.param(lambda r: {**r, "phases": [1, 2, 3]}, id="phases-not-a-map"),
    pytest.param(lambda r: {**r, "phases": {"setup": "fast"}},
                 id="phase-cycles-not-int"),
    pytest.param(lambda r: [r], id="record-not-a-dict"),
])
def test_malformed_cache_record_is_a_warned_miss(tmp_path, mutate):
    from repro.sim import IntegrityWarning
    directory = str(tmp_path / "cache")
    first = run(SweepExecutor(cache=SweepCache(directory)))
    (mangled,) = _mangle_entries(directory, mutate, points=True)
    recovered = SweepExecutor(cache=SweepCache(directory))
    with pytest.warns(IntegrityWarning, match="malformed cache record") \
            as caught:
        result = run(recovered)
    # Only the mangled point missed, and only it warned.
    assert [str(w.message) for w in caught
            if issubclass(w.category, IntegrityWarning)] \
        == [f"SweepCache: ignoring malformed cache record {mangled} in "
            f"{os.path.join(directory, _store_files(directory)[0])}"]
    assert recovered.stats.cache_hits == len(first) - 1
    assert recovered.stats.cache_misses == 1
    assert recovered.stats.simulated_points + recovered.stats.planned_points == 1
    assert result == first   # re-measured, not silently wrong
    # The re-measured entry was appended after the mangled one, and the
    # last line for a key wins on reload.
    entries = _stored_entries(_only_store_file(directory))
    assert [key for key, _r in entries].count(mangled) == 2
    assert entries[-1][0] == mangled
    reloaded = SweepExecutor(cache=SweepCache(directory))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(reloaded) == first
    assert reloaded.stats.cache_hits == len(first)
