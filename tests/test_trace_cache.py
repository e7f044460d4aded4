"""Content-addressed trace cache: keying, hits, recovery, knobs."""

import os

import pytest

from repro.core import NamedStateRegisterFile
from repro.evalx import common
from repro.evalx.common import make_nsf, run_workload
from repro.trace import cache as trace_cache
from repro.trace.replay import replay
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _fresh_cache(tmp_path, monkeypatch):
    """Point the cache at a private directory and reset accounting."""
    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(trace_cache.ENV_DISABLE, raising=False)
    monkeypatch.delenv(trace_cache.ENV_LOG, raising=False)
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    trace_cache.reset_degradation()
    yield
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    trace_cache.reset_degradation()


def test_miss_records_then_hits():
    workload = get_workload("DTW")
    first = trace_cache.load_or_record(workload, scale=0.2, seed=3)
    assert trace_cache.STATS.misses == 1
    assert trace_cache.STATS.records == 1
    second = trace_cache.load_or_record(workload, scale=0.2, seed=3)
    assert second is first
    assert trace_cache.STATS.hits == 1


def test_disk_hit_across_processes_simulated():
    """A fresh process (empty memo) must load the published file."""
    workload = get_workload("DTW")
    recorded = trace_cache.load_or_record(workload, scale=0.2, seed=3)
    trace_cache._memo.clear()
    loaded = trace_cache.load_or_record(workload, scale=0.2, seed=3)
    assert loaded == recorded
    assert trace_cache.STATS.records == 1  # no re-execution


def test_key_separates_scale_seed_and_workload():
    w1 = get_workload("DTW")
    w2 = get_workload("Quicksort")
    paths = {
        trace_cache.trace_path(w1, 0.2, 3).name,
        trace_cache.trace_path(w1, 0.2, 4).name,
        trace_cache.trace_path(w1, 0.3, 3).name,
        trace_cache.trace_path(w2, 0.2, 3).name,
    }
    assert len(paths) == 4


def test_corrupt_cache_file_re_records():
    workload = get_workload("DTW")
    trace_cache.load_or_record(workload, scale=0.2, seed=3)
    path = trace_cache.trace_path(workload, 0.2, 3)
    path.write_bytes(b"NSFT garbage")
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    recovered = trace_cache.load_or_record(workload, scale=0.2, seed=3)
    assert trace_cache.STATS.records == 1
    assert recovered.counts()["R"] > 0


def _text_prefix(trace):
    """The first half of ``trace``'s text form, cut at a line boundary:
    itself a well-formed text trace, with half the events."""
    text = trace.dumps()
    return text[:text.index("\n", len(text) // 2) + 1].encode()


#: entry shapes the cache never publishes: neither carries the CRC frame
UNFRAMED = {
    "bare binary": lambda trace: trace.dumps_binary(),
    "text prefix": _text_prefix,
}


@pytest.mark.parametrize("shape", sorted(UNFRAMED))
def test_unframed_entries_are_quarantined_and_recorded_again(shape):
    workload = get_workload("Quicksort")
    recorded = trace_cache.load_or_record(workload, scale=0.05, seed=1)
    path = trace_cache.trace_path(workload, 0.05, 1)
    path.write_bytes(UNFRAMED[shape](recorded))
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    model = run_workload(workload, make_nsf(workload), scale=0.05, seed=1)
    assert (trace_cache.STATS.hits, trace_cache.STATS.quarantined,
            trace_cache.STATS.records) == (0, 1, 1)
    assert trace_cache.load_or_record(workload, scale=0.05,
                                      seed=1) == recorded
    assert trace_cache.STATS.quarantined == 1
    fresh = replay(recorded, make_nsf(workload), verify=False)
    assert model.stats.snapshot() == fresh.stats.snapshot()


def test_memo_invalidated_when_disk_entry_changes():
    """Regression: the in-process memo must not outlive the disk entry.

    Replacing the published file (different size/mtime) has to force a
    re-read; a corrupt replacement is quarantined and re-recorded, not
    served from the poisoned memo."""
    workload = get_workload("DTW")
    trace_cache.load_or_record(workload, scale=0.2, seed=3)
    path = trace_cache.trace_path(workload, 0.2, 3)
    path.write_bytes(b"NSFT poisoned entry")
    os.utime(path, (1, 1))  # make the change visible even on coarse mtime
    trace_cache.STATS.reset()
    recovered = trace_cache.load_or_record(workload, scale=0.2, seed=3)
    # stale memo discarded -> disk read -> quarantine -> re-record
    assert trace_cache.STATS.hits == 0
    assert trace_cache.STATS.records == 1
    assert trace_cache.STATS.quarantined == 1
    assert recovered.counts()["R"] > 0
    entries = trace_cache.quarantine_entries()
    assert len(entries) == 1
    assert "quarantined" not in entries[0][1] or entries[0][1]


def test_memo_survives_while_disk_unchanged():
    """The stat re-validation must not break same-object memo hits."""
    workload = get_workload("DTW")
    first = trace_cache.load_or_record(workload, scale=0.2, seed=3)
    second = trace_cache.load_or_record(workload, scale=0.2, seed=3)
    assert second is first
    assert trace_cache.STATS.hits == 1


def test_memo_invalidated_when_disk_entry_deleted():
    workload = get_workload("DTW")
    trace_cache.load_or_record(workload, scale=0.2, seed=3)
    trace_cache.trace_path(workload, 0.2, 3).unlink()
    trace_cache.STATS.reset()
    trace_cache.load_or_record(workload, scale=0.2, seed=3)
    assert trace_cache.STATS.hits == 0
    assert trace_cache.STATS.records == 1


def test_quarantine_keeps_corrupt_bytes_and_reason(tmp_path):
    workload = get_workload("DTW")
    trace_cache.load_or_record(workload, scale=0.2, seed=3)
    path = trace_cache.trace_path(workload, 0.2, 3)
    path.write_bytes(b"NSFT garbage")
    trace_cache._memo.clear()
    trace_cache.load_or_record(workload, scale=0.2, seed=3)
    (qpath, reason), = trace_cache.quarantine_entries()
    assert qpath.read_bytes() == b"NSFT garbage"
    assert reason  # the .reason sidecar explains the move
    assert trace_cache.clear_quarantine() == 1
    assert trace_cache.quarantine_entries() == []


def test_env_disable(monkeypatch):
    monkeypatch.setenv(trace_cache.ENV_DISABLE, "1")
    assert not trace_cache.enabled()
    workload = get_workload("DTW")
    model = make_nsf(workload)
    run_workload(workload, model, scale=0.2, seed=3)
    assert model.stats.instructions > 0
    assert trace_cache.STATS.records == 0
    assert list(trace_cache.entries()) == []


def test_run_workload_stats_match_direct():
    workload = get_workload("Quicksort")
    cached = run_workload(workload, make_nsf(workload), scale=0.2, seed=3)
    direct = make_nsf(workload)
    workload.run(direct, scale=0.2, seed=3)
    assert cached.stats.snapshot() == direct.stats.snapshot()


def test_log_file_records_outcomes(tmp_path, monkeypatch):
    log = tmp_path / "cache.log"
    monkeypatch.setenv(trace_cache.ENV_LOG, str(log))
    workload = get_workload("DTW")
    trace_cache.load_or_record(workload, scale=0.2, seed=3)
    trace_cache.load_or_record(workload, scale=0.2, seed=3)
    lines = log.read_text().splitlines()
    outcomes = [line.split()[0] for line in lines]
    assert outcomes == ["MISS", "RECORD", "HIT"]


# -- timing-sensitive workloads (result entries) -----------------------------


def test_gamteb_is_marked_unstable():
    assert get_workload("Gamteb").trace_stable is False
    assert get_workload("DTW").trace_stable is True


def _result_names():
    return sorted(path.name for path, _ in trace_cache.entries()
                  if path.suffix == trace_cache.RESULT_SUFFIX)


def _result_name(workload, model, scale, seed):
    return trace_cache.result_entry(workload, model, scale, seed).path.name


def test_unstable_workload_memoizes_per_model():
    """A timing-sensitive workload records no trace: the first fresh
    model of a configuration runs directly and publishes its end state
    under a result name of that configuration, the next restores it,
    and another configuration runs and publishes under its own name."""
    workload = get_workload("Gamteb")
    cold = make_nsf(workload)
    name = _result_name(workload, make_nsf(workload), 0.1, 3)
    run_workload(workload, cold, scale=0.1, seed=3)
    assert _result_names() == [name]
    warm = make_nsf(workload)
    run_workload(workload, warm, scale=0.1, seed=3)
    assert warm.stats.snapshot() == cold.stats.snapshot()
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (1, 1)
    # a different configuration has a name of its own, and runs
    other = make_nsf(workload, line_size=4)
    other_name = _result_name(workload, make_nsf(workload, line_size=4),
                              0.1, 3)
    assert other_name != name
    run_workload(workload, other, scale=0.1, seed=3)
    assert _result_names() == sorted([name, other_name])
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (1, 2)
    assert trace_cache.STATS.records == 0
    assert not [path for path, _ in trace_cache.entries()
                if path.suffix == trace_cache.TRACE_SUFFIX]


def test_policy_seed_separates_per_model_traces():
    """Two NMRU files that differ only in ``policy_seed`` evict
    differently, so Gamteb's timing-sensitive stream differs too: the
    second seed must not restore the first seed's end state."""
    workload = get_workload("Gamteb")

    def nmru(seed):
        return make_nsf(workload, num_registers=64, policy="nmru",
                        policy_seed=seed)

    assert (_result_name(workload, nmru(1), 0.2, 1)
            != _result_name(workload, nmru(2), 0.2, 1))
    run_workload(workload, nmru(1), scale=0.2, seed=1)
    served = run_workload(workload, nmru(2), scale=0.2, seed=1)
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (0, 2)
    assert len(_result_names()) == 2
    direct = nmru(2)
    workload.run(direct, scale=0.2, seed=1)
    assert served.stats.snapshot() == direct.stats.snapshot()


def test_unstable_warm_stats_match_direct():
    workload = get_workload("Gamteb")
    run_workload(workload, make_nsf(workload), scale=0.1, seed=3)  # cold
    warm = make_nsf(workload)
    run_workload(workload, warm, scale=0.1, seed=3)
    direct = make_nsf(workload)
    workload.run(direct, scale=0.1, seed=3)
    assert warm.stats.snapshot() == direct.stats.snapshot()


# -- fingerprint invalidation ----------------------------------------------


def test_recorder_fingerprint_in_key(monkeypatch):
    workload = get_workload("DTW")
    before = trace_cache.trace_path(workload, 0.2, 3).name
    monkeypatch.setattr(trace_cache, "_fingerprint", "deadbeef")
    after = trace_cache.trace_path(workload, 0.2, 3).name
    assert before != after


# -- CLI --------------------------------------------------------------------


def test_cli_info_and_clear(capsys):
    workload = get_workload("DTW")
    trace_cache.load_or_record(workload, scale=0.2, seed=3)
    assert trace_cache.main(["info"]) == 0
    out = capsys.readouterr().out
    assert "1 entry" in out
    assert trace_cache.main(["clear"]) == 0
    out = capsys.readouterr().out
    assert "removed 1" in out
    assert list(trace_cache.entries()) == []


def test_replay_from_cache_file_matches_original(tmp_path):
    """End-to-end: record, reload from disk, replay, same stats."""
    workload = get_workload("Quicksort")
    trace = trace_cache.load_or_record(workload, scale=0.2, seed=3)
    trace_cache._memo.clear()
    reloaded = trace_cache.load_or_record(workload, scale=0.2, seed=3)
    a = NamedStateRegisterFile(num_registers=128,
                               context_size=workload.context_size)
    b = NamedStateRegisterFile(num_registers=128,
                               context_size=workload.context_size)
    replay(trace, a, verify=False)
    replay(reloaded, b, verify=True)
    assert a.stats.snapshot() == b.stats.snapshot()
