import pytest

import mdpreg.harness as harness


@pytest.fixture(autouse=True)
def drop_shared_pool():
    """Pool workers keep the harness as it was when they forked, so a test's
    monkeypatches reach only a pool its own pooled run starts: drop the shared
    pool that each test leaves behind."""
    yield
    harness._drop_pool()
