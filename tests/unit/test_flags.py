"""The consolidated REPRO_* environment gates in :mod:`repro.flags`."""

import pytest

from repro import flags


@pytest.mark.parametrize("accessor, env", [
    (flags.naive_poll, flags.NAIVE_POLL_ENV),
    (flags.naive_channel, flags.NAIVE_CHANNEL_ENV),
    (flags.naive_barrier, flags.NAIVE_BARRIER_ENV),
    (flags.naive_batch, flags.NAIVE_BATCH_ENV),
    (flags.naive_mpredict, flags.NAIVE_MPREDICT_ENV),
    (flags.linear_routing, flags.LINEAR_ROUTING_ENV),
    (flags.fresh_systems, flags.FRESH_SYSTEMS_ENV),
    (flags.strict, flags.STRICT_ENV),
])
def test_boolean_gates_follow_the_non_empty_convention(monkeypatch,
                                                       accessor, env):
    monkeypatch.delenv(env, raising=False)
    assert accessor() is False
    monkeypatch.setenv(env, "")
    assert accessor() is False
    monkeypatch.setenv(env, "1")
    assert accessor() is True
    monkeypatch.setenv(env, "anything")
    assert accessor() is True


def test_cache_dir_returns_none_when_unset(monkeypatch):
    monkeypatch.delenv(flags.CACHE_DIR_ENV, raising=False)
    assert flags.cache_dir() is None
    monkeypatch.setenv(flags.CACHE_DIR_ENV, "/tmp/somewhere")
    assert flags.cache_dir() == "/tmp/somewhere"
    monkeypatch.setenv(flags.CACHE_DIR_ENV, "")
    assert flags.cache_dir() is None


def test_all_gates_is_complete():
    assert set(flags.ALL_GATES) == {
        flags.NAIVE_POLL_ENV, flags.NAIVE_CHANNEL_ENV,
        flags.NAIVE_BARRIER_ENV, flags.NAIVE_BATCH_ENV,
        flags.NAIVE_MPREDICT_ENV, flags.LINEAR_ROUTING_ENV,
        flags.FRESH_SYSTEMS_ENV, flags.CACHE_DIR_ENV,
        flags.CACHE_MAX_ENTRIES_ENV, flags.STRICT_ENV}
    assert len(flags.ALL_GATES) == len(set(flags.ALL_GATES)) == 10


def test_cache_max_entries_accepts_only_positive_integers(monkeypatch):
    monkeypatch.delenv(flags.CACHE_MAX_ENTRIES_ENV, raising=False)
    assert flags.cache_max_entries() is None
    monkeypatch.setenv(flags.CACHE_MAX_ENTRIES_ENV, "")
    assert flags.cache_max_entries() is None
    monkeypatch.setenv(flags.CACHE_MAX_ENTRIES_ENV, "not-a-number")
    assert flags.cache_max_entries() is None
    monkeypatch.setenv(flags.CACHE_MAX_ENTRIES_ENV, "0")
    assert flags.cache_max_entries() is None
    monkeypatch.setenv(flags.CACHE_MAX_ENTRIES_ENV, "-3")
    assert flags.cache_max_entries() is None
    monkeypatch.setenv(flags.CACHE_MAX_ENTRIES_ENV, "17")
    assert flags.cache_max_entries() == 17


def test_accessors_reread_the_environment(monkeypatch):
    monkeypatch.setenv(flags.NAIVE_POLL_ENV, "1")
    assert flags.naive_poll() is True
    monkeypatch.delenv(flags.NAIVE_POLL_ENV)
    assert flags.naive_poll() is False
