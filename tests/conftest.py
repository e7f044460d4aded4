"""Suite-wide fixtures."""

import json
import os
import textwrap

import pytest

from repro.evalx import common
from repro.trace import cache as trace_cache


@pytest.fixture(scope="session", autouse=True)
def suite_cache(tmp_path_factory):
    """Run the whole suite on a trace cache of its own, so that what the
    suite publishes and drops never touches the cache the suite was
    started with (by default the checkout's ``.trace-cache``, whose
    result entries a warm sweep restores).  That cache lends the suite
    its traces as hard links, which costs no copy and is safe because
    the cache only ever replaces an entry, never writes one in place;
    where links cannot be made the suite starts cold."""
    suite = tmp_path_factory.mktemp("trace-cache")
    for path in trace_cache.cache_dir().glob("*" + trace_cache.TRACE_SUFFIX):
        try:
            os.link(path, suite / path.name)
        except OSError:
            break
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(trace_cache.ENV_DIR, str(suite))
        yield suite


@pytest.fixture(autouse=True)
def fresh_result_memo(suite_cache):
    """Start every test with no result entry, on disk in the suite's
    cache or in the cache's memo, and zeroed counters (the result
    store's and the cache's), so no test is served a result another
    test computed or counts what another test looked up.  Result
    entries outlive the process that publishes them, so this drops the
    files as well as the memo; a test that points the cache at a
    directory of its own starts that directory empty."""
    trace_cache.clear_results()
    common.RESULT_STATS.reset()
    trace_cache.STATS.reset()
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
    through ``PYTHONPATH``.  The entry is new to this process's
    ``sys.path``, so a sweep run here execs its warm parents, which
    run the site, instead of forking them from this process."""
    def install(source):
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(textwrap.dedent(source))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, (str(site), os.environ.get("PYTHONPATH")))))

    return install

