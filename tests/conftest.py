"""Suite-wide fixtures."""

import json
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


class FileLog:
    """JSON records appended to a file, one line each.

    A wrapped call logs here rather than to a list so that calls made
    in forked children (an experiment fans its cells out over them)
    are counted as well as the test process's own.
    """

    def __init__(self, path):
        self.path = path

    def append(self, record):
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def records(self):
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]


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

