"""Suite-wide fixtures."""

import pytest

from repro.runner import scheduler


@pytest.fixture(autouse=True)
def _retire_parked_pool():
    """Retire the worker pool a test's last clean ``jobs`` > 1
    campaign parked.  A later test's campaign would otherwise run in
    workers forked before that test's monkeypatches, and a test that
    counts live threads would see an earlier test's pool.  Tests of
    pool reuse run their campaigns inside one test."""
    yield
    scheduler._retire_parked()
