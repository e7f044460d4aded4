"""Suite-wide fixtures."""

import pytest

from repro.evalx import common


@pytest.fixture(autouse=True)
def fresh_result_memo():
    """Start every test with an empty replay-result memo and zeroed
    counters, so no test is served a result another test computed."""
    common.clear_result_memo()
    common.RESULT_STATS.reset()
    yield
