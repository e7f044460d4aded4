"""Suite-wide fixtures."""

import os
import textwrap

import pytest

from repro.evalx import common


@pytest.fixture(autouse=True)
def fresh_result_memo():
    """Start every test with an empty replay-result memo and zeroed
    counters, so no test is served a result another test computed."""
    common.clear_result_memo()
    common.RESULT_STATS.reset()
    yield


@pytest.fixture
def cell_site(tmp_path, monkeypatch):
    """``cell_site(source)`` puts a ``sitecustomize`` running ``source``
    on the path of every interpreter the test starts from here on:
    sweep cells, exec'd or forked from a warm parent, inherit it
    through ``PYTHONPATH``."""
    def install(source):
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(textwrap.dedent(source))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (str(site), os.environ.get("PYTHONPATH")))))

    return install

