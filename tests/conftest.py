"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.db import sql


class _StoresNothing(dict):
    """A parse cache that keeps no entry, so every parse is a miss."""

    def __setitem__(self, key, value):
        pass


@pytest.fixture
def disable_parse_cache(monkeypatch):
    """A switch for the always-on SQL parse cache: calling it swaps
    ``repro.db.sql._parse_cache`` for a dict that stores nothing and
    returns that dict; the original cache is put back after the test."""
    def disable() -> dict:
        uncached = _StoresNothing()
        monkeypatch.setattr(sql, "_parse_cache", uncached)
        return uncached
    return disable
