"""Unit tests for the sweep executor and the content-addressed cache."""

import json
import os
import shutil

import pytest

from repro.core.cache import SweepCache, point_key
from repro.core.executor import SweepExecutor, resolve_jobs
from repro.core.sweep import sweep
from repro.errors import OffloadError
from repro.soc.config import SoCConfig


CFG = SoCConfig.extended(num_clusters=8)
N_VALUES = [64, 128]
M_VALUES = [1, 4]


def run(executor, **kwargs):
    kwargs.setdefault("n_values", N_VALUES)
    kwargs.setdefault("m_values", M_VALUES)
    return executor.run(CFG, "daxpy", **kwargs)


# ----------------------------------------------------------------------
# Worker-count policy and validation
# ----------------------------------------------------------------------
def test_resolve_jobs_policy():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    with pytest.raises(OffloadError):
        resolve_jobs(-1)


def test_chunk_size_validated():
    with pytest.raises(OffloadError):
        SweepExecutor(chunk_size=0)


def test_executor_validates_grid_like_sweep():
    executor = SweepExecutor()
    with pytest.raises(OffloadError):
        executor.run(CFG, "daxpy", [], [1])
    with pytest.raises(OffloadError):
        executor.run(CFG, "daxpy", [64], [])
    with pytest.raises(OffloadError):
        executor.run(CFG, "daxpy", [64], [16])  # wider than the fabric


# ----------------------------------------------------------------------
# Determinism: parallel output is the serial output
# ----------------------------------------------------------------------
def test_parallel_matches_serial_bit_for_bit():
    serial = run(SweepExecutor(jobs=1))
    parallel = run(SweepExecutor(jobs=2, chunk_size=1))
    assert parallel == serial
    assert [p.runtime_cycles for p in parallel] == \
        [p.runtime_cycles for p in serial]
    assert [dict(p.phases) for p in parallel] == \
        [dict(p.phases) for p in serial]


def test_parallel_progress_streams_in_grid_order():
    seen = []
    run(SweepExecutor(jobs=2, chunk_size=1), progress=seen.append)
    assert [(p.n, p.num_clusters) for p in seen] == \
        [(n, m) for n in N_VALUES for m in M_VALUES]


def test_sweep_function_accepts_jobs():
    assert sweep(CFG, "daxpy", N_VALUES, M_VALUES, jobs=2) == \
        sweep(CFG, "daxpy", N_VALUES, M_VALUES)


# ----------------------------------------------------------------------
# Cache: hits, misses, and invalidation
# ----------------------------------------------------------------------
def test_second_identical_sweep_simulates_nothing():
    executor = SweepExecutor(cache=SweepCache())
    first = run(executor)
    assert executor.cache_hits == 0
    assert executor.cache_misses == len(first)
    # Every point was measured this run: calibrations through the
    # event engine plus batch-planned predictions.
    assert executor.simulated_points + executor.planned_points \
        == len(first)
    second = run(executor)
    assert second == first
    assert executor.cache_hits == len(first)
    assert executor.cache_misses == 0
    assert executor.simulated_points == 0


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
    assert retuned.cache_hits == 0
    assert retuned.simulated_points + retuned.planned_points \
        == len(N_VALUES) * len(M_VALUES)


@pytest.mark.parametrize("kwargs", [
    {"seed": 1},
    {"variant": "baseline"},
    {"scalars": {"a": 2.0}},
])
def test_job_coordinate_changes_miss(kwargs):
    cache = SweepCache()
    run(SweepExecutor(cache=cache))
    executor = SweepExecutor(cache=cache)
    run(executor, **kwargs)
    assert executor.cache_hits == 0


def test_point_key_is_stable_and_sensitive():
    key = point_key(CFG, "daxpy", 64, 4, "auto", None, 0)
    assert key == point_key(CFG, "daxpy", 64, 4, "auto", None, 0)
    assert key != point_key(CFG, "daxpy", 64, 4, "auto", None, 1)
    assert key != point_key(CFG, "daxpy", 128, 4, "auto", None, 0)
    assert key != point_key(CFG.with_features(multicast=False, hw_sync=True),
                            "daxpy", 64, 4, "auto", None, 0)


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
    assert reloaded.simulated_points == 0
    assert reloaded.cache_hits == len(first)


def test_disk_cache_shared_by_parallel_workers(tmp_path):
    directory = str(tmp_path / "cache")
    first = run(SweepExecutor(jobs=2, cache=SweepCache(directory)))
    reloaded = SweepExecutor(jobs=2, cache=SweepCache(directory))
    assert run(reloaded) == first
    assert reloaded.simulated_points == 0


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    directory = str(tmp_path / "cache")
    run(SweepExecutor(cache=SweepCache(directory)))
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "w") as handle:
            handle.write("{not json")
    recovered = SweepExecutor(cache=SweepCache(directory))
    result = run(recovered)
    assert recovered.cache_hits == 0
    assert recovered.simulated_points + recovered.planned_points \
        == len(result)


def test_stale_schema_is_a_miss(tmp_path):
    directory = str(tmp_path / "cache")
    run(SweepExecutor(cache=SweepCache(directory)))
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path) as handle:
            record = json.load(handle)
        record["schema"] = -1
        with open(path, "w") as handle:
            json.dump(record, handle)
    recovered = SweepExecutor(cache=SweepCache(directory))
    run(recovered)
    assert recovered.cache_hits == 0


def _mangle_cache_records(directory, mutate):
    """Apply ``mutate(record) -> record`` to every on-disk cache file."""
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path) as handle:
            record = json.load(handle)
        with open(path, "w") as handle:
            json.dump(mutate(record), handle)


# ----------------------------------------------------------------------
# Cache: the LRU bound on the disk layer
# ----------------------------------------------------------------------
def test_max_entries_is_validated():
    with pytest.raises(ValueError):
        SweepCache(max_entries=0)


def test_disk_layer_is_lru_bounded(tmp_path):
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory, max_entries=3)
    for i in range(6):
        cache.put_record(f"{i:064x}", "prefix", {"value": i})
    files = [n for n in os.listdir(directory) if n.endswith(".json")]
    assert len(files) == 3
    assert cache.evictions == 3
    # The survivors are the most recently written records.
    survivors = {name[:-len(".json")] for name in files}
    assert survivors == {f"{i:064x}" for i in (3, 4, 5)}


def test_lru_reads_refresh_recency(tmp_path):
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory, max_entries=2)
    cache.put_record(f"{0:064x}", "prefix", {"value": 0})
    cache.put_record(f"{1:064x}", "prefix", {"value": 1})
    # Age the first record's mtime, then *use* it from a fresh cache
    # (the in-memory layer must not mask the disk read).
    past = os.path.getmtime(os.path.join(directory, f"{1:064x}.json")) - 60
    os.utime(os.path.join(directory, f"{0:064x}.json"), (past, past))
    reader = SweepCache(directory, max_entries=2)
    assert reader.get_record(f"{0:064x}", "prefix") == {"value": 0}
    os.utime(os.path.join(directory, f"{1:064x}.json"), (past, past))
    reader.put_record(f"{2:064x}", "prefix", {"value": 2})
    names = {n for n in os.listdir(directory) if n.endswith(".json")}
    # Record 1 (stale mtime) was evicted; the freshly read 0 survived.
    assert names == {f"{0:064x}.json", f"{2:064x}.json"}
    assert reader.evictions == 1


def test_max_entries_defaults_to_the_environment(tmp_path, monkeypatch):
    from repro.flags import CACHE_MAX_ENTRIES_ENV
    monkeypatch.setenv(CACHE_MAX_ENTRIES_ENV, "2")
    cache = SweepCache(str(tmp_path / "cache"))
    assert cache.max_entries == 2
    for i in range(4):
        cache.put_record(f"{i:064x}", "prefix", {"value": i})
    assert cache.evictions == 2
    monkeypatch.delenv(CACHE_MAX_ENTRIES_ENV)
    assert SweepCache(str(tmp_path / "other")).max_entries is None


def _record_files(directory):
    return sorted(n for n in os.listdir(directory) if n.endswith(".json"))


def test_sweep_into_a_full_store_enforces_the_bound_once(tmp_path,
                                                         monkeypatch):
    # An unbounded twin of the store says how many records the second
    # sweep adds; the bounded store starts exactly at its bound.
    full, twin = str(tmp_path / "full"), str(tmp_path / "twin")
    for directory in (full, twin):
        run(SweepExecutor(cache=SweepCache(directory)))
    bound = len(_record_files(full))
    run(SweepExecutor(cache=SweepCache(twin)), n_values=[256, 512])
    excess = len(_record_files(twin)) - bound
    assert excess > 1

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
    assert len(_record_files(full)) == bound
    assert cache.evictions == excess
    assert executor.last_run_stats["cache_evictions"] == excess
    assert sorted(os.listdir(full)) == _record_files(full)  # no temp files


def test_store_directory_removed_between_sweeps_is_recreated(tmp_path):
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory)
    run(SweepExecutor(cache=cache))
    shutil.rmtree(directory)
    second = run(SweepExecutor(cache=cache), n_values=[256, 512])
    reloaded = SweepExecutor(cache=SweepCache(directory))
    assert run(reloaded, n_values=[256, 512]) == second
    assert reloaded.cache_hits == len(second)
    assert reloaded.simulated_points == 0


# ----------------------------------------------------------------------
# Cache: the on-disk record format
# ----------------------------------------------------------------------
#: Record files as the store has always written them (``json.dump``
#: with default separators); any byte change orphans existing stores.
POINT_RECORD_BYTES = (
    b'{"schema": 1, "kernel_name": "daxpy", "n": 256, "num_clusters": 2, '
    b'"variant": "extended", "runtime_cycles": 488, "phases": '
    b'{"setup": 178, "dispatch": 8, "completion_wait": 302, '
    b'"sync_overhead": 20, "total": 488}}')
CALIBRATION_RECORD_BYTES = (
    b'{"calibration_schema": 1, "kind": "mmodel", "payload": '
    b'{"min_m": 1, "m_lo": 2, "m_hi": 4, "base": [10, 20, 30, 40], '
    b'"slope": [0, 3, 5, 7]}}')


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
    cache.put("ab" * 32, point)
    cache.put_record("cd" * 32, "mmodel", payload)
    with open(os.path.join(directory, "ab" * 32 + ".json"), "rb") as f:
        assert f.read() == POINT_RECORD_BYTES
    with open(os.path.join(directory, "cd" * 32 + ".json"), "rb") as f:
        assert f.read() == CALIBRATION_RECORD_BYTES
    fresh = SweepCache(directory)
    assert fresh.get("ab" * 32) == point
    assert fresh.get_record("cd" * 32, "mmodel") == payload


def test_store_written_by_json_dump_still_hits(tmp_path):
    directory = str(tmp_path / "cache")
    first = run(SweepExecutor(cache=SweepCache(directory)))
    # Rewrite every record the way earlier versions wrote them
    # (``json.dump`` to a text-mode handle): same bytes, same hits.
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            written = handle.read()
        with open(path, "w") as handle:
            json.dump(json.loads(written), handle)
        with open(path, "rb") as handle:
            assert handle.read() == written
    reloaded = SweepExecutor(cache=SweepCache(directory))
    assert run(reloaded) == first
    assert reloaded.cache_hits == len(first)
    assert reloaded.simulated_points == 0


# ----------------------------------------------------------------------
# Cache: calibration records
# ----------------------------------------------------------------------
def test_calibration_records_round_trip_and_check_kind(tmp_path):
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory)
    key = "ab" * 32
    cache.put_record(key, "prefix", {"start_cycle": 10})
    assert cache.get_record(key, "prefix") == {"start_cycle": 10}
    # A prefix key can never answer an M-model request.
    assert cache.get_record(key, "mmodel") is None
    # And it survives the process (a fresh cache over the same dir).
    assert SweepCache(directory).get_record(key, "prefix") \
        == {"start_cycle": 10}
    assert SweepCache(directory).get_record("cd" * 32, "prefix") is None


def test_malformed_calibration_record_is_a_warned_miss(tmp_path):
    from repro.sim import IntegrityWarning
    directory = str(tmp_path / "cache")
    cache = SweepCache(directory)
    key = "ab" * 32
    cache.put_record(key, "prefix", {"start_cycle": 10})
    _mangle_cache_records(directory, lambda r: {**r, "payload": [1, 2]})
    with pytest.warns(IntegrityWarning,
                      match="malformed calibration record"):
        assert SweepCache(directory).get_record(key, "prefix") is None


def test_calibration_key_separates_namespaces():
    from repro.core.cache import calibration_key
    base = dict(config=CFG, kernel_name="daxpy", variant_name="extended",
                scalars=None, seed=0)
    assert calibration_key("prefix", m=2, **base) \
        != calibration_key("prefix", m=3, **base)
    assert calibration_key("prefix", m=2, **base) \
        != calibration_key("mmodel", **base)
    assert calibration_key("mmodel", **base) \
        == calibration_key("mmodel", **base)
    other = dict(base, config=SoCConfig.baseline(num_clusters=8))
    assert calibration_key("mmodel", **base) \
        != calibration_key("mmodel", **other)


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
    _mangle_cache_records(directory, mutate)
    recovered = SweepExecutor(cache=SweepCache(directory))
    # Point records warn "malformed cache record"; mutations that also
    # break the calibration records alongside them warn "malformed
    # calibration record" — both are the same corruption story.
    with pytest.warns(IntegrityWarning, match="malformed .* record"):
        result = run(recovered)
    assert recovered.cache_hits == 0
    assert recovered.simulated_points + recovered.planned_points \
        == len(result)
    assert result == first   # re-measured, not silently wrong
