"""Suite-wide fixtures."""

import pytest


@pytest.fixture(autouse=True)
def _private_sweep_store(tmp_path, monkeypatch):
    """Keep every test out of the user's sweep store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
