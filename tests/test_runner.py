"""The crash-safe sweep runner and its write-ahead journal.

Covers the journal's corruption handling, resume-from-journal
semantics, the loud-drop contract for failing cells, the wall-clock
watchdog, and — the headline — kill-and-resume producing output
byte-identical to an uninterrupted sweep.  Warm cells (each forked
from a warm parent) must write what exec'd cells write, fail in the
same words, and leave no process behind.
"""

import io
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.errors import JournalError
from repro.evalx import run_experiment
from repro.evalx import runner as runner_mod
from repro.evalx.journal import Journal
from repro.evalx.runner import run_sweep, smoke, sweep_cells

SCALE = 0.1
SEED = 5


# -- the journal -------------------------------------------------------------


class TestJournal:
    def test_append_and_load(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.write_header("table1", 0.5, 7)
        journal.append_cell("a", "ok", payload={"rows": [[1, 2]]},
                            attempts=2)
        header, cells, dropped = journal.load()
        assert header["experiment"] == "table1"
        assert header["scale"] == 0.5 and header["seed"] == 7
        assert cells["a"]["payload"] == {"rows": [[1, 2]]}
        assert cells["a"]["attempts"] == 2
        assert dropped == 0

    def test_last_intact_record_wins(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.write_header("table1", 0.5, 7)
        journal.append_cell("a", "failed", error="boom")
        journal.append_cell("a", "ok", payload={"rows": []})
        _, cells, _ = journal.load()
        assert cells["a"]["status"] == "ok"

    def test_corrupt_and_truncated_lines_are_dropped(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.write_header("table1", 0.5, 7)
        journal.append_cell("a", "ok", payload={"rows": [[1]]})
        journal.append_cell("b", "ok", payload={"rows": [[2]]})
        lines = journal.path.read_text().splitlines()
        # b's record half-written (the SIGKILL artefact), plus garbage
        lines = lines[:2] + [lines[2][:len(lines[2]) // 2], "{nope"]
        journal.path.write_text("\n".join(lines) + "\n")
        header, cells, dropped = journal.load()
        assert header is not None
        assert set(cells) == {"a"}
        assert dropped == 2

    def test_tampered_record_is_dropped(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.write_header("table1", 0.5, 7)
        record = journal.append_cell("a", "ok",
                                     payload={"rows": [[41]]})
        lines = journal.path.read_text().splitlines()
        tampered = dict(record)
        tampered["payload"] = {"rows": [[42]]}  # sha now stale
        lines[1] = json.dumps(tampered, sort_keys=True,
                              separators=(",", ":"))
        journal.path.write_text("\n".join(lines) + "\n")
        _, cells, dropped = journal.load()
        assert cells == {}
        assert dropped == 1

    def test_header_mismatch_refuses_resume(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.write_header("table1", 0.5, 7)
        journal.check_header("table1", 0.5, 7)
        with pytest.raises(JournalError):
            journal.check_header("table1", 0.35, 7)
        with pytest.raises(JournalError):
            journal.check_header("compression", 0.5, 7)
        with pytest.raises(JournalError):
            journal.check_header("table1", 0.5, 8)

    def test_missing_header_refuses_resume(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append_cell("a", "ok", payload={"rows": []})
        with pytest.raises(JournalError):
            journal.check_header("table1", 0.5, 7)

    def test_conflicting_headers_raise(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.write_header("table1", 0.5, 7)
        journal.write_header("table1", 0.5, 8)
        with pytest.raises(JournalError):
            journal.load()


# -- the sweep runner --------------------------------------------------------


def _sweep(tmp_path, **kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("journal_path", tmp_path / "sweep.jsonl")
    kwargs.setdefault("out_path", tmp_path / "sweep.json")
    return run_sweep(kwargs.pop("experiment", "table1"), **kwargs)


#: the first attempt of the compression cell KILL_KEY SIGKILLs its own
#: process group; MARKER records that it has fired
KILL_FIRST_SITE = """
import os, signal, sys

if "run-cell" in sys.orig_argv or "warm-parent" in sys.orig_argv:
    from repro.evalx import compression

    _rows = compression.run_cell_rows

    def run_cell_rows(key, scale=1.0, seed=1):
        marker = os.environ["MARKER"]
        if key == os.environ["KILL_KEY"] and not os.path.exists(marker):
            open(marker, "w").close()
            os.killpg(0, signal.SIGKILL)
        return _rows(key, scale=scale, seed=seed)

    compression.run_cell_rows = run_cell_rows
"""

#: logs the replay engine each table1 cell finds in its environment
ENGINE_LOG_SITE = """
import os, sys

if "run-cell" in sys.orig_argv or "warm-parent" in sys.orig_argv:
    from repro.evalx import table1

    _rows = table1.run_cell_rows

    def run_cell_rows(key, scale=1.0, seed=1):
        with open(os.environ["ENGINE_LOG"], "a") as handle:
            handle.write(f"{key} {os.environ.get('REPRO_REPLAY_ENGINE')}\\n")
        return _rows(key, scale=scale, seed=seed)

    table1.run_cell_rows = run_cell_rows
"""


class TestRunSweep:
    def test_sweep_resume_and_partial_journal(self, tmp_path):
        direct = run_experiment("table1", scale=SCALE,
                                seed=SEED).to_dict()
        result = _sweep(tmp_path)
        assert result.ok
        assert result.ran == len(result.keys) and result.skipped == 0
        assert result.table.to_dict() == direct
        out = json.loads((tmp_path / "sweep.json").read_text())
        assert out["rows"] == direct["rows"]
        assert out["scale"] == SCALE and out["seed"] == SEED

        # An existing journal without --resume is an error, never an
        # overwrite.
        with pytest.raises(JournalError):
            _sweep(tmp_path)

        # Resume over a complete journal runs nothing.
        again = _sweep(tmp_path, resume=True)
        assert again.ran == 0
        assert again.skipped == len(result.keys)
        assert again.table.to_dict() == direct

        # Truncate to header + 3 cells: resume re-runs exactly the rest
        # and reassembles the identical table.
        journal_path = tmp_path / "sweep.jsonl"
        lines = journal_path.read_text().splitlines()
        journal_path.write_text("\n".join(lines[:4]) + "\n")
        partial = _sweep(tmp_path, resume=True)
        assert partial.skipped == 3
        assert partial.ran == len(result.keys) - 3
        assert partial.table.to_dict() == direct

    def test_failed_cell_is_dropped_loudly(self, tmp_path,
                                           monkeypatch):
        keys = sweep_cells("table1")[:2]
        monkeypatch.setattr(runner_mod, "sweep_cells",
                            lambda experiment: list(keys))
        monkeypatch.setenv(runner_mod.FAIL_CELLS_ENV, f"{keys[0]}:99")
        stream = io.StringIO()
        retries = 1
        result = _sweep(tmp_path, retries=retries, stream=stream)
        assert not result.ok
        assert result.dropped_keys == [keys[0]]
        assert "1 of 2 cell(s) dropped" in stream.getvalue()
        assert "PARTIAL" in result.table.notes
        assert len(result.table.rows) == 1
        # the journal keeps the dropped cell's attempts and debris
        _, cells, _ = Journal(tmp_path / "sweep.jsonl").load()
        record = cells[keys[0]]
        assert record["status"] == "failed"
        assert record["attempts"] == retries + 1
        assert "stderr:" in record["error"]
        assert "injected failure" in record["error"]

    def test_transient_failure_is_retried(self, tmp_path, monkeypatch):
        keys = sweep_cells("table1")[:2]
        monkeypatch.setattr(runner_mod, "sweep_cells",
                            lambda experiment: list(keys))
        monkeypatch.setenv(runner_mod.FAIL_CELLS_ENV, f"{keys[0]}:1")
        result = _sweep(tmp_path, retries=1)
        assert result.ok
        _, cells, _ = Journal(tmp_path / "sweep.jsonl").load()
        assert cells[keys[0]]["attempts"] == 2
        assert cells[keys[1]]["attempts"] == 1

    def test_killed_cell_is_retried_and_output_unchanged(
            self, tmp_path, monkeypatch, cell_site):
        """A cell whose first attempt SIGKILLs its own process group
        fails that attempt as ``exit status -9``; the retry runs, and
        the sweep writes what an unharmed sweep writes."""
        reference = _sweep(tmp_path, experiment="compression", jobs=2,
                           journal_path=tmp_path / "ref.jsonl",
                           out_path=tmp_path / "ref.json")
        assert reference.ok
        key = reference.keys[1]
        marker = tmp_path / "marker"
        cell_site(KILL_FIRST_SITE)
        monkeypatch.setenv("MARKER", str(marker))
        monkeypatch.setenv("KILL_KEY", key)
        stream = io.StringIO()
        result = _sweep(tmp_path, experiment="compression", jobs=2,
                        retries=1, stream=stream)
        assert result.ok
        assert marker.exists()
        _, cells, _ = Journal(tmp_path / "sweep.jsonl").load()
        assert {k: cells[k]["attempts"] for k in result.keys} == {
            k: 2 if k == key else 1 for k in result.keys}
        assert (f"cell {key}: attempt 1 failed (exit status -9"
                in stream.getvalue())
        assert ((tmp_path / "sweep.json").read_bytes()
                == (tmp_path / "ref.json").read_bytes())

    def test_engine_flag_reaches_every_cell(self, tmp_path, monkeypatch,
                                            cell_site):
        """``--engine oracle`` on the runner's command line reaches
        every cell, and the sweep writes what an ``event`` sweep
        writes.  Each engine runs on an empty cache of its own: on the
        cache the event sweep filled, every oracle cell would restore
        the result entry event replay left, and the oracle would price
        nothing."""
        from repro.trace import cache as trace_cache
        from repro.trace.columnar import ENV_ENGINE

        cell_site(ENGINE_LOG_SITE)
        # main() exports the engine into os.environ; monkeypatch puts
        # the variable back as it was
        monkeypatch.setenv(ENV_ENGINE, "event")
        monkeypatch.setenv("ENGINE_LOG", str(tmp_path / "event.log"))
        monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "event-cache"))
        assert _sweep(tmp_path, jobs=2,
                      journal_path=tmp_path / "event.jsonl",
                      out_path=tmp_path / "event.json").ok
        monkeypatch.setenv("ENGINE_LOG", str(tmp_path / "oracle.log"))
        monkeypatch.setenv(trace_cache.ENV_DIR,
                           str(tmp_path / "oracle-cache"))
        monkeypatch.setenv(trace_cache.ENV_LOG,
                           str(tmp_path / "oracle-cache.log"))
        assert runner_mod.main([
            "sweep", "table1", "--scale", str(SCALE), "--seed", str(SEED),
            "--jobs", "2", "--engine", "oracle",
            "--journal", str(tmp_path / "oracle.jsonl"),
            "--out", str(tmp_path / "oracle.json")]) == 0
        assert ((tmp_path / "oracle.json").read_bytes()
                == (tmp_path / "event.json").read_bytes())
        keys = sweep_cells("table1")
        for engine in ("event", "oracle"):
            seen = (tmp_path / f"{engine}.log").read_text().splitlines()
            assert sorted(seen) == sorted(f"{key} {engine}" for key in keys)
        # every oracle cell was priced: each looked its result entry up
        # or recorded one, and none restored an entry
        results = [line.split()[0] for line in
                   (tmp_path / "oracle-cache.log").read_text().splitlines()
                   if line.endswith(trace_cache.RESULT_SUFFIX)]
        assert len(results) >= len(keys)
        assert "HIT" not in results

    def test_watchdog_kills_hung_cell(self, tmp_path, monkeypatch):
        keys = sweep_cells("table1")[:2]
        monkeypatch.setattr(runner_mod, "sweep_cells",
                            lambda experiment: list(keys))
        monkeypatch.setenv(runner_mod.HANG_CELLS_ENV, keys[0])
        result = _sweep(tmp_path, retries=0, timeout=1.0)
        assert result.dropped_keys == [keys[0]]
        _, cells, _ = Journal(tmp_path / "sweep.jsonl").load()
        error = cells[keys[0]]["error"]
        assert "watchdog" in error
        # whatever the cell managed to print before hanging is kept
        assert "partial output" in error
        assert "parking" in error

    def test_resume_refuses_operating_point_mismatch(self, tmp_path):
        journal = Journal(tmp_path / "sweep.jsonl")
        journal.write_header("table1", 0.3, SEED)
        with pytest.raises(JournalError):
            _sweep(tmp_path, scale=0.4, resume=True)

    def test_generic_experiment_sweeps_as_single_cell(self, tmp_path):
        result = _sweep(tmp_path, experiment="fig05", scale=0.15,
                        seed=2)
        assert result.keys == [runner_mod.GENERIC_CELL]
        direct = run_experiment("fig05", scale=0.15, seed=2)
        assert result.table.to_dict() == direct.to_dict()


# -- golden comparison of assembled tables ----------------------------------


class TestCompareTable:
    def test_assembled_table_matches_golden(self):
        from repro.evalx.golden import (GOLDEN_SCALE, GOLDEN_SEED,
                                        compare_table)

        table = run_experiment("table1", scale=GOLDEN_SCALE,
                               seed=GOLDEN_SEED)
        assert compare_table("table1", table, scale=GOLDEN_SCALE,
                             seed=GOLDEN_SEED) == []
        table.rows[0] = list(table.rows[0])
        table.rows[0][2] += 1
        deviations = compare_table("table1", table)
        assert deviations and "row 0" in deviations[0]

    def test_operating_point_mismatch_is_a_deviation(self):
        from repro.evalx.golden import (GOLDEN_SCALE, GOLDEN_SEED,
                                        compare_table)

        table = run_experiment("table1", scale=GOLDEN_SCALE,
                               seed=GOLDEN_SEED)
        deviations = compare_table("table1", table, scale=0.123,
                                   seed=GOLDEN_SEED)
        assert deviations and "scale" in deviations[0]


# -- the headline: kill-and-resume is exact ---------------------------------


def test_kill_and_resume_is_bit_identical(tmp_path):
    # SIGKILLs a live sweep subprocess at seeded journal boundaries,
    # resumes each time, and byte-compares against an uninterrupted
    # run (see runner.smoke for the full protocol).
    assert smoke(experiment="table1", scale=0.12, seed=3, kills=2,
                 workdir=tmp_path, stream=io.StringIO()) == 0


# -- the parallel scheduler --------------------------------------------------


class TestParallelScheduler:
    def test_resolve_jobs_defaults_and_bounds(self):
        import os

        from repro.evalx.runner import resolve_jobs

        assert resolve_jobs(1, 10) == 1
        assert resolve_jobs(4, 10) == 4
        # never more workers than cells
        assert resolve_jobs(16, 3) == 3
        # default: min(cpu_count, cells)
        assert resolve_jobs(None, 2) == min(os.cpu_count() or 1, 2)
        with pytest.raises(ValueError):
            resolve_jobs(0, 10)

    def test_parallel_output_is_byte_identical(self, tmp_path):
        sequential = _sweep(tmp_path / "seq", jobs=1,
                            journal_path=tmp_path / "seq.jsonl",
                            out_path=tmp_path / "seq.json")
        parallel = _sweep(tmp_path / "par", jobs=4,
                          journal_path=tmp_path / "par.jsonl",
                          out_path=tmp_path / "par.json")
        assert sequential.ok and parallel.ok
        assert ((tmp_path / "seq.json").read_bytes()
                == (tmp_path / "par.json").read_bytes())

    def test_parallel_journal_commits_in_cell_order(self, tmp_path):
        result = _sweep(tmp_path, jobs=4)
        lines = (tmp_path / "sweep.jsonl").read_text().splitlines()
        keys = [json.loads(line)["key"] for line in lines[1:]]
        assert keys == list(result.keys)

    def test_parallel_resume_skips_completed_cells(self, tmp_path):
        result = _sweep(tmp_path, jobs=4)
        journal_path = tmp_path / "sweep.jsonl"
        lines = journal_path.read_text().splitlines()
        journal_path.write_text("\n".join(lines[:3]) + "\n")
        partial = _sweep(tmp_path, resume=True, jobs=4)
        assert partial.skipped == 2
        assert partial.ran == len(result.keys) - 2
        assert partial.table.to_dict() == result.table.to_dict()


# -- the watchdog, retry jitter and failure detail --------------------------


class TestWatchedRun:
    def test_group_kill_reaches_sigterm_immune_grandchildren(
            self, tmp_path):
        pidfile = tmp_path / "grandchild.pid"
        grandchild = (
            "import time,os,sys,signal;"
            "signal.signal(signal.SIGTERM, signal.SIG_IGN);"
            f"open({str(pidfile)!r},'w').write(str(os.getpid()));"
            "time.sleep(120)"
        )
        script = (
            "import subprocess,sys,time;"
            f"subprocess.Popen([sys.executable,'-c',{grandchild!r}]);"
            "time.sleep(120)"
        )
        returncode, _, _, timed_out = runner_mod.watched_run(
            [sys.executable, "-c", script], timeout=1.5, grace=0.3)
        assert timed_out
        assert returncode != 0
        pid = int(pidfile.read_text())
        # the grandchild ignored SIGTERM; only a group SIGKILL can
        # have removed it.  It may linger briefly as an unreaped
        # zombie after reparenting, so poll for dead-or-zombie.
        assert _gone(pid, within=5.0)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="warm cells fork")
    def test_group_kill_reaches_a_warm_cells_grandchildren(
            self, tmp_path, cell_site):
        """The same watchdog for a cell forked from a warm parent: its
        whole session is SIGTERMed, then SIGKILLed after ``grace``."""
        pidfile = tmp_path / "grandchild.pid"
        grandchild = (
            "import os,signal,time;"
            "signal.signal(signal.SIGTERM, signal.SIG_IGN);"
            f"open({str(pidfile)!r},'w').write(str(os.getpid()));"
            "time.sleep(120)"
        )
        cell_site(f"""
            import subprocess, sys, time

            if "warm-parent" in sys.orig_argv:
                from repro.evalx import table1

                def run_cell_rows(key, scale=1.0, seed=1):
                    subprocess.Popen([sys.executable, "-c",
                                      {grandchild!r}])
                    time.sleep(120)

                table1.run_cell_rows = run_cell_rows
        """)
        key = runner_mod.sweep_cells("table1")[0]
        with runner_mod.WarmCells() as launches:
            returncode, _, _, timed_out = runner_mod.watched_run(
                runner_mod._cell_command("table1", key, SCALE, SEED, 0),
                env=runner_mod._cell_env(), timeout=1.5, grace=0.3)
        assert launches.forked == 1
        assert timed_out
        assert returncode != 0
        assert _gone(int(pidfile.read_text()), within=5.0)

    def test_fast_exit_is_not_timed_out(self):
        returncode, stdout, _, timed_out = runner_mod.watched_run(
            [sys.executable, "-c", "print('hi')"], timeout=30.0)
        assert returncode == 0 and not timed_out
        assert stdout.strip() == "hi"


class TestRetryJitter:
    def test_deterministic_and_bounded(self):
        values = {runner_mod.retry_jitter(7, "a/b", attempt)
                  for attempt in range(8)}
        assert all(0.5 <= v <= 1.0 for v in values)
        assert len(values) > 1  # attempts spread, not constant
        assert runner_mod.retry_jitter(7, "a/b", 3) \
            == runner_mod.retry_jitter(7, "a/b", 3)
        assert runner_mod.retry_jitter(7, "a/b", 3) \
            != runner_mod.retry_jitter(8, "a/b", 3)

    def test_delay_is_jittered_exponential(self):
        d0 = runner_mod.retry_delay(0.1, 0, 7, "k")
        d3 = runner_mod.retry_delay(0.1, 3, 7, "k")
        assert 0.05 <= d0 <= 0.1
        assert 0.4 <= d3 <= 0.8


class TestFailureDetail:
    def test_both_tails_always_captured(self):
        detail = runner_mod.failure_detail("out line", "err line")
        assert "stderr: err line" in detail
        assert "stdout: out line" in detail

    def test_empty_streams_vanish(self):
        assert runner_mod.failure_detail("", "") == ""
        assert runner_mod.failure_detail("only out", "") \
            == "stdout: only out"


# -- warm cells --------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="warm cells fork")

#: the launch clause of a sweep's closing line
LAUNCHED = re.compile(r"(\d+) of (\d+) attempt\(s\) forked(?: from "
                      r"(\d+) warm parent\(s\))?")


def _launched(stream):
    """``(forked, attempts)`` from a sweep's closing line."""
    forked, attempts, _ = LAUNCHED.search(
        stream.getvalue().splitlines()[-1]).groups()
    return int(forked), int(attempts)


def _sweep_exec_and_warm(tmp_path, monkeypatch, experiment,
                         mode_env=lambda mode: {}, **kwargs):
    """One sweep with every cell exec'd (``os.fork`` removed, so
    ``watched_run`` execs) and again with warm cells, each under the
    extra environment ``mode_env(mode)``; returns each run's
    ``(journal bytes, output bytes)``.  Every warm attempt must have
    been forked, so a guard that always execs fails here, and the warm
    parents forked from this process wherever it may fork them."""
    found = {}
    for mode in ("exec", "warm"):
        stream = io.StringIO()
        with monkeypatch.context() as patch:
            if mode == "exec":
                patch.delattr(os, "fork")
            for name, value in mode_env(mode).items():
                patch.setenv(name, value)
            refusal = runner_mod._fork_refusal(runner_mod._cell_env())
            _sweep(tmp_path, experiment=experiment, stream=stream,
                   journal_path=tmp_path / f"{mode}.jsonl",
                   out_path=tmp_path / f"{mode}.json", **kwargs)
        if mode == "warm":
            assert stream.getvalue().rstrip().endswith(
                "warm parent(s) forked from the sweep" if refusal is None
                else f"warm parents exec'd ({refusal})"), stream.getvalue()
        forked, attempts = _launched(stream)
        assert attempts >= len(sweep_cells(experiment))
        assert forked == (attempts if mode == "warm" else 0), \
            stream.getvalue()
        found[mode] = ((tmp_path / f"{mode}.jsonl").read_bytes(),
                       (tmp_path / f"{mode}.json").read_bytes())
    return found["exec"], found["warm"]


#: logs, at the start of every compression cell, the chaos plane as the
#: cell found it; a warm child must find it as fresh as an exec'd cell
PLANE_LOG_SITE = """
import os, sys

if "run-cell" in sys.orig_argv or "warm-parent" in sys.orig_argv:
    from repro.chaos import plane
    from repro.evalx import compression

    _rows = compression.run_cell_rows

    def run_cell_rows(key, scale=1.0, seed=1):
        with open(os.environ["PLANE_LOG"], "a") as handle:
            handle.write(repr((key, sorted(vars(plane.ACTIVE).items())))
                         + "\\n")
        return _rows(key, scale=scale, seed=seed)

    compression.run_cell_rows = run_cell_rows
"""

#: leaves bytes unflushed in the warm parent's stderr buffer (with
#: PYTHONUNBUFFERED unset); a cell must never print them
LEFTOVER_SITE = """
import sys

if "warm-parent" in sys.orig_argv:
    sys.stderr.write("LEFTOVER-IN-THE-PARENT")
"""

#: the first table1 cell attempt parks in ``run_cell_rows`` for a
#: while, after leaving its pid in MARKER; a sweep that starts with
#: this site on its path hands the patch to the parents it forks
SLOW_FIRST_SITE = """
import os, sys, time

if {"run-cell", "warm-parent", "sweep"} & set(sys.orig_argv):
    from repro.evalx import table1

    _rows = table1.run_cell_rows

    def run_cell_rows(key, scale=1.0, seed=1):
        marker = os.environ["MARKER"]
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write(str(os.getpid()))
            time.sleep(2.0)
        return _rows(key, scale=scale, seed=seed)

    table1.run_cell_rows = run_cell_rows
"""


#: logs, at the start of every compression cell, what the cell finds
#: of what a fresh interpreter starts without; it runs in every
#: interpreter that starts with it on its path, the sweep's included
DIRT_LOG_SITE = """
import json, os, signal, sys

from repro.chaos import plane
from repro.evalx import common, compression
from repro.trace import cache, columnar, oracle

_rows = compression.run_cell_rows


def _runner():
    main = sys.modules["__main__"]
    return main if hasattr(main, "WarmCells") else sys.modules[
        "repro.evalx.runner"]


def _stream(stream):
    return [type(stream).__name__, getattr(stream, "name", None),
            stream.encoding, stream.errors, stream.line_buffering,
            stream.write_through]


def run_cell_rows(key, scale=1.0, seed=1):
    found = {
        "key": key,
        "plane": repr(sorted(vars(plane.ACTIVE).items())),
        "memo": len(cache._memo),
        "stats": repr(cache.STATS),
        "publishing": cache.publishing_enabled(),
        "results": repr(common.RESULT_STATS),
        "fanout": common.FANOUT.summary(),
        "plan": list(common._PLAN),
        "table_memo": len(oracle._TABLE_MEMO),
        "analyses": len(columnar._ANALYSES),
        "scope": repr(_runner()._SCOPE),
        "fds": sorted(os.listdir("/proc/self/fd")),
        "streams": [_stream(sys.stdin), _stream(sys.stdout),
                    _stream(sys.stderr)],
        "sigterm": repr(signal.getsignal(signal.SIGTERM)),
        "environ": sorted(
            (name, value) for name, value in os.environ.items()
            if name not in ("CELL_LOG", cache.ENV_DIR)),
    }
    if found["scope"] == "None":
        found["scope"] = None
    with open(os.environ["CELL_LOG"], "a") as handle:
        handle.write(json.dumps(found, sort_keys=True) + "\\n")
    return _rows(key, scale=scale, seed=seed)


compression.run_cell_rows = run_cell_rows
"""

#: an executor that dirties its process, then sweeps compression with
#: jobs=2; argv: its work directory and ``exec`` (no ``os.fork``: every
#: cell exec'd) or ``fork``.  Prints one JSON report line.
DIRTY_EXECUTOR = """
import io, json, os, pathlib, signal, sys

from repro.chaos import plane
from repro.evalx import common, run_experiment, runner
from repro.evalx.journal import Journal
from repro.trace import cache, columnar, oracle

work, mode = pathlib.Path(sys.argv[1]), sys.argv[2]
os.environ[plane.ENV_SEED] = "11"
plane.refresh_from_env()
os.environ[cache.ENV_DIR] = str(work / "dirt-cache")
os.environ["REPRO_REPLAY_ENGINE"] = "oracle"
run_experiment("fig10", scale=0.1, seed=5)
journal = Journal(work / "dirt.jsonl")
journal.write_header("table1", 0.1, 5)
for key in ("a", "b", "c"):
    journal.append_cell(key, "ok", payload={})
cache._degraded["publish_disabled"] = True
extra = os.open(os.devnull, os.O_RDONLY)
signal.signal(signal.SIGTERM, lambda signum, frame: None)
dirt = {
    "memo": len(cache._memo), "table_memo": len(oracle._TABLE_MEMO),
    "analyses": len(columnar._ANALYSES),
    "publishing": cache.publishing_enabled(),
    "injected": len(plane.ACTIVE.injected),
    "fanout": common.FANOUT.batches,
}
os.environ["REPRO_REPLAY_ENGINE"] = "event"
os.environ[cache.ENV_DIR] = str(work / "sweep-cache")
os.environ["CELL_LOG"] = str(work / "cells.log")
if mode == "exec":
    del os.fork
stream = io.StringIO()
sys.stdout = io.StringIO()
with common.capacity_plan((8, 16)):
    dirt["plan"] = list(common._PLAN)
    result = runner.run_sweep(
        "compression", scale=0.2, seed=7, jobs=2,
        journal_path=work / "sweep.jsonl", out_path=work / "sweep.json",
        stream=stream)
report = {"ok": result.ok, "dirt": dirt,
          "line": stream.getvalue().splitlines()[-1]}
os.write(1, (json.dumps(report) + "\\n").encode())
"""


#: gives the warm parent a second thread, so it must refuse to fork
THREAD_SITE = """
import sys, threading, time

if "warm-parent" in sys.orig_argv:
    threading.Thread(target=time.sleep, args=(3600,), daemon=True).start()
"""


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="finds the warm parents through /proc")


@needs_fork
class TestWarmCells:
    @pytest.mark.parametrize("experiment", ["compression", "table1",
                                            "resilience", "chaos"])
    def test_sweep_matches_exec_at_the_golden_point(self, tmp_path,
                                                    monkeypatch,
                                                    experiment):
        exec_run, warm_run = _sweep_exec_and_warm(
            tmp_path, monkeypatch, experiment, scale=0.35, seed=11,
            jobs=2)
        assert warm_run == exec_run

    def test_chaos_armed_sweep_matches_exec(self, tmp_path, monkeypatch,
                                            cell_site):
        """The same injected faults, retries and plane state per cell;
        a parent that consumed a token before forking would hand its
        children a used plane."""
        from repro.chaos import plane

        cell_site(PLANE_LOG_SITE)
        monkeypatch.setenv(plane.ENV_SEED, "11")
        exec_run, warm_run = _sweep_exec_and_warm(
            tmp_path, monkeypatch, "compression", scale=0.2, seed=7,
            jobs=2, mode_env=lambda mode: {
                "PLANE_LOG": str(tmp_path / f"{mode}-plane.log"),
                "REPRO_TRACE_CACHE": str(tmp_path / f"{mode}-cache")})
        assert warm_run == exec_run
        assert b'"attempts":2' in warm_run[0]  # a crashed cell's retry
        plane_logs = [sorted((tmp_path / f"{mode}-plane.log")
                             .read_text().splitlines())
                      for mode in ("exec", "warm")]
        assert plane_logs[0] and plane_logs[1] == plane_logs[0]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="logs each cell's descriptors through /proc")
    def test_a_dirty_executor_forks_parents_that_start_afresh(
            self, tmp_path):
        """An executor that has drawn chaos tokens, memoized trace-cache
        entries, counted, fanned out, scanned under the oracle, lost
        publishing, opened a descriptor, installed a SIGTERM handler,
        opened a capacity plan and swapped ``sys.stdout`` for a buffer
        forks its sweep's warm parents; each cell must find what an
        exec'd cell finds, and the sweep must write what an exec'd
        sweep writes."""
        site = tmp_path / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(DIRT_LOG_SITE)
        env = runner_mod._cell_env()
        env["PYTHONPATH"] = os.pathsep.join([str(site), env["PYTHONPATH"]])
        found = {}
        for mode in ("exec", "fork"):
            work = tmp_path / mode
            work.mkdir()
            done = subprocess.run(
                [sys.executable, "-c", DIRTY_EXECUTOR, str(work), mode],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr[-3000:]
            report = json.loads(done.stdout.splitlines()[-1])
            assert report["ok"], report
            found[mode] = ((work / "sweep.jsonl").read_bytes(),
                           (work / "sweep.json").read_bytes(),
                           sorted((work / "cells.log").read_text()
                                  .splitlines()))
            dirt = report["dirt"]
            assert dirt["memo"] and dirt["table_memo"] and dirt["analyses"]
            assert dirt["plan"] and not dirt["publishing"]
            assert dirt["injected"] and dirt["fanout"]
            found[mode + " line"] = report["line"]
        assert re.search(r"0 of \d+ attempt\(s\) forked; \d+ exec'd "
                         r"\(no os.fork\)$", found["exec line"])
        assert re.search(r"(\d+) of \1 attempt\(s\) forked from 2 warm "
                         r"parent\(s\); 2 warm parent\(s\) forked from the "
                         r"sweep$", found["fork line"])
        exec_run, fork_run = found["exec"], found["fork"]
        assert fork_run[:2] == exec_run[:2]
        assert b'"attempts":2' in fork_run[0]  # a crashed cell's retry
        assert fork_run[2] == exec_run[2]
        assert len(fork_run[2]) == len(sweep_cells("compression"))
        for line in fork_run[2]:
            cell = json.loads(line)
            assert cell["plane"] and cell["memo"] == 0
            assert cell["publishing"] and cell["scope"] is None

    # -- failure shapes: the journal's error field, byte for byte

    @staticmethod
    def _attempt_exec_and_warm(key, timeout=None, experiment="table1"):
        """One attempt exec'd outside any scope, then forked inside
        one; returns both ``(payload, journal error)`` pairs."""
        exec_attempt = runner_mod._run_cell_subprocess(
            experiment, key, SCALE, SEED, 0, timeout)
        with runner_mod.WarmCells() as launches:
            warm_attempt = runner_mod._run_cell_subprocess(
                experiment, key, SCALE, SEED, 0, timeout)
        assert (launches.forked, launches.attempts) == (1, 1)
        return exec_attempt, warm_attempt

    @pytest.fixture
    def leftover(self, monkeypatch, cell_site):
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        cell_site(LEFTOVER_SITE)

    @pytest.mark.usefixtures("leftover")
    def test_failure_hook_error_matches_exec(self, monkeypatch):
        key = sweep_cells("table1")[0]
        monkeypatch.setenv(runner_mod.FAIL_CELLS_ENV, f"{key}:1")
        exec_attempt, warm_attempt = self._attempt_exec_and_warm(key)
        assert warm_attempt == exec_attempt
        assert warm_attempt[1].startswith("exit status 1: stderr: "
                                          "injected failure")

    @pytest.mark.usefixtures("leftover")
    def test_hang_hook_error_and_partial_output_match_exec(
            self, monkeypatch):
        key = sweep_cells("table1")[0]
        monkeypatch.setenv(runner_mod.HANG_CELLS_ENV, key)
        exec_attempt, warm_attempt = self._attempt_exec_and_warm(
            key, timeout=1.0)
        assert warm_attempt == exec_attempt
        assert warm_attempt[1].startswith("watchdog: cell exceeded 1.0s")
        assert "partial output: stdout: injected hang" in warm_attempt[1]

    @pytest.mark.usefixtures("leftover")
    def test_uncaught_exception_error_matches_exec(self, monkeypatch):
        key = sweep_cells("table1")[0]
        monkeypatch.setenv(runner_mod.FAIL_CELLS_ENV, f"{key}:many")
        exec_attempt, warm_attempt = self._attempt_exec_and_warm(key)
        assert warm_attempt == exec_attempt
        assert warm_attempt[1].startswith("exit status 1: stderr: ")
        assert warm_attempt[1].endswith(
            "ValueError: invalid literal for int() with base 10: 'many'")

    @pytest.mark.usefixtures("leftover")
    def test_chaos_process_faults_match_exec(self, monkeypatch):
        from repro.chaos import plane

        # seed 12 crashes Gamteb, hangs ZipFile and slows DTW
        monkeypatch.setenv(plane.ENV_SEED, "12")
        monkeypatch.setenv(plane.ENV_KINDS, "crash,hang,slow")
        outcomes = {}
        for key in ("Gamteb", "ZipFile", "DTW"):
            exec_attempt, warm_attempt = self._attempt_exec_and_warm(
                key, timeout=1.0)
            assert warm_attempt == exec_attempt
            outcomes[key] = warm_attempt
        assert "chaos[crash]" in outcomes["Gamteb"][1]
        assert "chaos[hang]" in outcomes["ZipFile"][1]
        assert outcomes["DTW"][1] is None and outcomes["DTW"][0]["rows"]

    def test_parent_with_a_thread_refuses_and_the_cell_is_execd(
            self, cell_site):
        cell_site(THREAD_SITE)
        key = sweep_cells("table1")[0]
        exec_attempt = runner_mod._run_cell_subprocess(
            "table1", key, SCALE, SEED, 0, None)
        with runner_mod.WarmCells() as launches:
            refused_attempt = runner_mod._run_cell_subprocess(
                "table1", key, SCALE, SEED, 0, None)
        assert refused_attempt == exec_attempt
        assert exec_attempt[1] is None
        assert launches.describe() == ("0 of 1 attempt(s) forked; 1 exec'd "
                                       "(warm parent refused: 2 threads)")

    # -- lifetime

    def test_dead_parent_fails_one_attempt_and_the_retry_runs(
            self, tmp_path, monkeypatch, cell_site):
        """SIGKILL a warm parent mid-cell: that attempt fails, named,
        and the retry succeeds on a new parent."""
        key = sweep_cells("table1")[0]
        monkeypatch.setattr(runner_mod, "sweep_cells",
                            lambda experiment: [key])
        marker = tmp_path / "marker"
        cell_site(SLOW_FIRST_SITE)
        monkeypatch.setenv("MARKER", str(marker))
        stream = io.StringIO()
        done = {}
        sweep = threading.Thread(target=lambda: done.setdefault(
            "result", _sweep(tmp_path, jobs=1, retries=1, stream=stream)))
        sweep.start()
        deadline = time.monotonic() + 60
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        parents = [parent.proc.pid
                   for parent in runner_mod._SCOPE.parents.values()]
        assert len(parents) == 1
        os.kill(parents[0], signal.SIGKILL)
        sweep.join(timeout=60)
        assert done["result"].ok
        _, cells, _ = Journal(tmp_path / "sweep.jsonl").load()
        assert cells[key]["attempts"] == 2
        assert (f"cell {key}: attempt 1 failed (exit status -9: stderr: "
                "warm parent died mid-cell)") in stream.getvalue()
        assert "2 of 2 attempt(s) forked from 2 warm parent(s)" \
            in stream.getvalue()

    def test_changed_environment_gets_a_new_parent(self, tmp_path,
                                                   monkeypatch):
        """A cell never runs on a parent started under another
        environment: not within one scope, nor in a later sweep."""
        keys = sweep_cells("table1")[:2]
        monkeypatch.delenv(runner_mod.FAIL_CELLS_ENV, raising=False)
        with runner_mod.WarmCells() as launches:
            first = runner_mod._run_cell_subprocess(
                "table1", keys[0], SCALE, SEED, 0, None)
            monkeypatch.setenv(runner_mod.FAIL_CELLS_ENV, f"{keys[0]}:99")
            second = runner_mod._run_cell_subprocess(
                "table1", keys[0], SCALE, SEED, 0, None)
        assert first[1] is None
        assert second[1].startswith("exit status 1: stderr: injected")
        assert launches.forked == 2 and len(launches.forked_by) == 2

        monkeypatch.setattr(runner_mod, "sweep_cells",
                            lambda experiment: list(keys))
        monkeypatch.delenv(runner_mod.FAIL_CELLS_ENV)
        assert _sweep(tmp_path, journal_path=tmp_path / "1.jsonl",
                      out_path=tmp_path / "1.json").ok
        monkeypatch.setenv(runner_mod.FAIL_CELLS_ENV, f"{keys[1]}:99")
        again = _sweep(tmp_path, retries=0,
                       journal_path=tmp_path / "2.jsonl",
                       out_path=tmp_path / "2.json")
        assert again.dropped_keys == [keys[1]]

    def test_no_child_outlives_a_sweep(self, tmp_path):
        code = textwrap.dedent(f"""
            import os
            from repro.evalx import runner

            keys = runner.sweep_cells("table1")[:3]
            runner.sweep_cells = lambda experiment: keys
            result = runner.run_sweep(
                "table1", scale={SCALE!r}, seed={SEED!r}, jobs=2,
                journal_path={str(tmp_path / "s.jsonl")!r},
                out_path={str(tmp_path / "s.json")!r})
            assert result.ok
            try:
                print("child left:", os.waitpid(-1, os.WNOHANG))
            except ChildProcessError:
                print("no child left")
        """)
        done = subprocess.run([sys.executable, "-c", code],
                              env=runner_mod._cell_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "no child left"

    @needs_proc
    def test_parents_of_a_killed_sweep_exit_after_their_cells(
            self, tmp_path, monkeypatch, cell_site):
        """SIGKILL a sweep mid-cell: the warm parents it forked let
        their cells finish and then exit.  The sweep starts with the
        cell site on its path, so it forks its parents."""
        self._kill_sweep_mid_cell(tmp_path, monkeypatch, cell_site, "fork")

    @needs_proc
    def test_execd_parents_of_a_killed_sweep_exit_after_their_cells(
            self, tmp_path, monkeypatch, cell_site):
        """The same for exec'd parents: the sweep puts the cell site on
        ``PYTHONPATH`` only once it runs, so it must exec them."""
        self._kill_sweep_mid_cell(tmp_path, monkeypatch, cell_site, "exec")

    @staticmethod
    def _kill_sweep_mid_cell(tmp_path, monkeypatch, cell_site, launch):
        marker = tmp_path / "marker"
        cell_site(SLOW_FIRST_SITE)
        monkeypatch.setenv("MARKER", str(marker))
        argv = ["sweep", "table1", "--scale", str(SCALE), "--seed",
                str(SEED), "--jobs", "2", "--journal",
                str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "s.json")]
        env = runner_mod._cell_env()
        command = runner_mod._runner_command(*argv)
        if launch == "exec":
            command = [sys.executable, "-c", textwrap.dedent("""
                import os, sys
                from repro.evalx import runner
                os.environ["PYTHONPATH"] = sys.argv[1]
                sys.exit(runner.main(sys.argv[2:]))
            """), env["PYTHONPATH"], *argv]
            env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
                os.path.dirname(runner_mod.__file__)))
        proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            parents = _warm_parents_of(proc.pid)
            assert len(parents) == 2
            for pid in parents:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    argv_seen = handle.read().split(b"\0")
                assert (b"warm-parent" in argv_seen) == (launch == "exec")
        finally:
            proc.kill()
            proc.wait()
        cell = int(marker.read_text())
        assert not _gone(cell, within=0.5)  # the cell runs on ...
        for pid in parents + [cell]:  # ... then it and its parent end
            assert _gone(pid, within=20.0)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="reads descriptors through /proc")
    def test_a_scope_with_two_forked_parents_closes_promptly(self,
                                                             tmp_path):
        """Each forked parent holds only its two pipe ends and stderr.
        One that kept an inherited descriptor (the executor's end of
        its own request pipe, or of the parent forked before it) would
        hold a request pipe open, that parent would never see EOF, and
        the scope would never close."""
        code = textwrap.dedent(f"""
            import json, os, time
            from repro.evalx import runner

            argv = runner._cell_command(
                "table1", runner.sweep_cells("table1")[0], {SCALE!r},
                {SEED!r}, 0)[3:]
            found = {{}}
            with runner.WarmCells() as scope:
                scope.fork_parents(2, runner._cell_env())
                found["describe"] = scope.describe()
                for parent in scope.spare:
                    status = parent.run(argv, 60, 1.0)[0]
                    found[parent.proc.pid] = [status, sorted(
                        (int(fd), os.readlink(f"/proc/{{parent.proc.pid}}"
                                              f"/fd/{{fd}}").split(":")[0])
                        for fd in os.listdir(
                            f"/proc/{{parent.proc.pid}}/fd"))]
                start = time.monotonic()
            found["close_s"] = time.monotonic() - start
            print(json.dumps(found))
        """)
        done = subprocess.run([sys.executable, "-c", code],
                              env=runner_mod._cell_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        found = json.loads(done.stdout)
        assert found.pop("describe").endswith(
            "2 warm parent(s) forked from the sweep")
        assert found.pop("close_s") < 5.0
        assert len(found) == 2
        for status, fds in found.values():
            assert status == 0
            assert [fd for fd, _ in fds] == [0, 1, 2]
            assert [kind for _, kind in fds[:2]] == ["pipe", "pipe"]


def _warm_parents_of(pid):
    """Pids of the live warm parents of sweep ``pid``: its children
    that lead a session of their own, exec'd or forked."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        ppid, session = int(fields[1]), int(fields[3])
        if ppid == pid and session == int(entry):
            found.append(int(entry))
    return found


def _gone(pid, within):
    """True once ``pid`` is dead or a zombie, polling for ``within`` s."""
    deadline = time.monotonic() + within
    while True:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except (OSError, IndexError):
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)

