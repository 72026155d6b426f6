"""Pytest configuration: make ``tests.helpers`` importable and quiet down
hypothesis' health checks for the (thread-spawning) SPMD property tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=25,
)
settings.load_profile("repro")


@pytest.fixture
def clean_repro_env(monkeypatch):
    """No ``REPRO_*`` hook installed from the environment: for tests that
    assert on the all-hooks-off transport (call counts, empty traces,
    ``proc.hooked`` false), so the suite stays green with ``REPRO_RECORD=1``
    (or ``REPRO_OBSERVE``/``REPRO_COPY_ON_SEND``) exported."""
    for name in ("REPRO_OBSERVE", "REPRO_RECORD", "REPRO_COPY_ON_SEND"):
        monkeypatch.delenv(name, raising=False)
