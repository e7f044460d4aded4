"""The fault-tolerant sweep farm: leases, queue, workers, supervisor.

Covers the TTL lease state machine (acquire / contend / renew / theft /
release / stale-break), the exactly-once commit guarantee of the
durable work queue under arbitrary claim/renew/expire/steal
interleavings (hypothesis), the whole-group watchdog and seeded retry
jitter satellites, and — the headline — a farm sweep producing output
byte-identical to the sequential runner, including under poison-cell
quarantine and chaos-armed lease paths.  Both the watchdog and the farm
are also checked with warm cells, forked from a warm parent.
"""

import io
import json
import os
import pathlib
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import plane as plane_mod
from repro.errors import JournalError
from repro.evalx import runner as runner_mod
from repro.farm import lease as lease_mod
from repro.farm import run_farm_sweep
from repro.farm import worker as worker_mod
from repro.farm.queue import WorkQueue

SCALE = 0.2
SEED = 7


# -- leases ------------------------------------------------------------------


class TestLease:
    def test_acquire_creates_and_contends(self, tmp_path):
        path = tmp_path / "cell.lease"
        lease = lease_mod.acquire(path, "w1", 0, ttl=30.0)
        assert lease is not None
        info = lease_mod.read_lease(path)
        assert info["worker"] == "w1" and info["pid"] == os.getpid()
        assert not lease_mod.is_stale(info)
        # a live, in-deadline lease is not stealable
        assert lease_mod.acquire(path, "w2", 0, ttl=30.0) is None

    def test_steal_dead_pid(self, tmp_path):
        path = tmp_path / "cell.lease"
        path.write_text(json.dumps({
            "worker": "ghost", "pid": 2 ** 22 + 12345, "attempt": 0,
            "ttl": 30.0, "acquired": 1.0, "deadline": 10 ** 12,
        }))
        assert lease_mod.is_stale(lease_mod.read_lease(path))
        lease = lease_mod.acquire(path, "thief", 1, ttl=30.0)
        assert lease is not None
        assert lease_mod.read_lease(path)["worker"] == "thief"

    def test_steal_expired_deadline(self, tmp_path, monkeypatch):
        path = tmp_path / "cell.lease"
        assert lease_mod.acquire(path, "w1", 0, ttl=5.0) is not None
        # the holder's pid is alive (it is us) — expiry alone must
        # open the steal path
        monkeypatch.setattr(lease_mod, "_now",
                            lambda base=lease_mod._now(): base + 600.0)
        lease = lease_mod.acquire(path, "w2", 0, ttl=5.0)
        assert lease is not None
        assert lease_mod.read_lease(path)["worker"] == "w2"

    def test_renew_extends_and_detects_theft(self, tmp_path):
        path = tmp_path / "cell.lease"
        lease = lease_mod.acquire(path, "w1", 0, ttl=5.0)
        before = lease_mod.read_lease(path)["deadline"]
        assert lease.renew()
        assert lease_mod.read_lease(path)["deadline"] >= before
        # a thief rewrites the lease: renew must notice, not clobber
        path.write_text(json.dumps({
            "worker": "w2", "pid": os.getpid(), "attempt": 1,
            "ttl": 5.0, "acquired": 1.0, "deadline": 10 ** 12,
        }))
        assert not lease.renew()
        assert lease_mod.read_lease(path)["worker"] == "w2"

    def test_release_only_own(self, tmp_path):
        path = tmp_path / "cell.lease"
        lease = lease_mod.acquire(path, "w1", 0, ttl=5.0)
        path.write_text(json.dumps({
            "worker": "w2", "pid": os.getpid(), "attempt": 0,
            "ttl": 5.0, "acquired": 1.0, "deadline": 10 ** 12,
        }))
        lease.release()
        assert path.exists()  # a thief's lease is never unlinked
        mine = lease_mod.acquire(tmp_path / "other.lease", "w1", 0, 5.0)
        mine.release()
        assert not (tmp_path / "other.lease").exists()

    def test_torn_lease_is_stale_and_stealable(self, tmp_path):
        path = tmp_path / "cell.lease"
        path.write_bytes(b'{"worker": "w1", "pid')
        assert lease_mod.is_stale(lease_mod.read_lease(path))
        assert lease_mod.acquire(path, "w2", 0, ttl=5.0) is not None

    def test_chaos_stale_lease_is_broken_on_acquire(self, tmp_path):
        plane = plane_mod.FaultPlane(3, kinds=("stale_lease",),
                                     sites=("lease.acquire",),
                                     count=4, horizon=4)
        path = tmp_path / "cell.lease"
        with plane_mod.activated(plane):
            lease = lease_mod.acquire(path, "w1", 0, ttl=5.0)
        assert lease is not None
        assert lease_mod.read_lease(path)["worker"] == "w1"
        assert any(f["kind"] == "stale_lease" for f in plane.injected)

    def test_chaos_heartbeat_stall_silences_renewals(self, tmp_path,
                                                     monkeypatch):
        plane = plane_mod.FaultPlane(3, kinds=("heartbeat_stall",),
                                     sites=("lease.renew",),
                                     count=4, horizon=4)
        path = tmp_path / "cell.lease"
        lease = lease_mod.acquire(path, "w1", 0, ttl=5.0)
        deadline = lease_mod.read_lease(path)["deadline"]
        with plane_mod.activated(plane):
            assert lease.renew()  # consumed a stall token: no-op
        assert lease_mod.read_lease(path)["deadline"] == deadline
        # the stall outlives the TTL, so the lease expires under us
        monkeypatch.setattr(lease_mod, "_now",
                            lambda base=lease_mod._now(): base + 6.0)
        assert lease_mod.is_stale(lease_mod.read_lease(path))


# -- the durable queue -------------------------------------------------------


class TestWorkQueue:
    def test_open_refuses_overwrite_and_mismatch(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue.jsonl")
        queue.open("table1", 0.5, 7)
        with pytest.raises(JournalError, match="already exists"):
            queue.open("table1", 0.5, 7)
        with pytest.raises(JournalError, match="operating points"):
            queue.open("table1", 0.9, 7, resume=True)

    def test_enqueue_is_idempotent_across_resumes(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue.jsonl")
        state = queue.open("table1", 0.5, 7)
        queue.enqueue_missing(["a", "b"], state)
        state = queue.open("table1", 0.5, 7, resume=True)
        queue.enqueue_missing(["a", "b", "c"], state)
        assert state.order == ["a", "b", "c"]
        reloaded = queue.load_state()
        assert reloaded.order == ["a", "b", "c"]
        assert reloaded.pending() == ["a", "b", "c"]

    def test_commit_is_exactly_once(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue.jsonl")
        state = queue.open("table1", 0.5, 7)
        queue.enqueue_missing(["a"], state)
        queue.commit_cell("a", "ok", payload={"rows": []}, state=state)
        with pytest.raises(JournalError, match="already committed"):
            queue.commit_cell("a", "ok", payload={"rows": []},
                              state=state)
        assert queue.load_state().pending() == []

    def test_claims_feed_attempt_counts(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue.jsonl")
        state = queue.open("table1", 0.5, 7)
        queue.enqueue_missing(["a"], state)
        queue.record_claim("a", "w1", 123, 0, state)
        queue.record_claim("a", "w2", 456, 1, state)
        reloaded = queue.load_state()
        assert reloaded.attempts["a"] == 2
        assert [c["worker"] for c in reloaded.claims["a"]] == ["w1",
                                                              "w2"]

    def test_quarantine_records_survive_reload(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue.jsonl")
        state = queue.open("table1", 0.5, 7)
        queue.enqueue_missing(["a", "b"], state)
        queue.commit_cell("a", "quarantined", attempts=2,
                          error="poisoned: boom", state=state)
        reloaded = queue.load_state()
        assert reloaded.quarantined_keys() == ["a"]
        assert reloaded.cells["a"]["error"] == "poisoned: boom"
        assert reloaded.pending() == ["b"]


# -- exactly-once under arbitrary interleavings (hypothesis) -----------------


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), st.sampled_from(["w1", "w2"])),
        st.tuples(st.just("renew"), st.sampled_from(["w1", "w2"])),
        st.tuples(st.just("release"), st.sampled_from(["w1", "w2"])),
        st.tuples(st.just("complete"), st.sampled_from(["w1", "w2"])),
        st.tuples(st.just("expire"), st.just("")),
    ),
    min_size=1, max_size=24,
)


class TestExactlyOnce:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_OPS)
    def test_any_interleaving_commits_exactly_once(self, ops):
        """Claim/renew/expire/steal in any order: the queue ends with
        at most one commit record for the cell, and exactly one
        whenever any holder completed it."""
        workdir = pathlib.Path(tempfile.mkdtemp(prefix="farm-prop-"))
        real_now = lease_mod._now
        clock = [1000.0]
        lease_mod._now = lambda: clock[0]
        try:
            queue = WorkQueue(workdir / "queue.jsonl")
            state = queue.open("table1", 0.5, 7)
            queue.enqueue_missing(["cell"], state)
            path = workdir / "cell.lease"
            spool = workdir / "cell.json"
            held = {}
            completions = 0
            for op, who in ops:
                if op == "acquire" and who not in held:
                    lease = lease_mod.acquire(path, who, 0, ttl=10.0)
                    if lease is not None:
                        held[who] = lease
                elif op == "renew" and who in held:
                    held[who].renew()
                elif op == "release" and who in held:
                    held.pop(who).release()
                elif op == "complete" and who in held:
                    # deterministic cell: every completion writes the
                    # identical payload (byte-identical, last wins)
                    spool.write_text(json.dumps(
                        {"key": "cell", "status": "ok",
                         "payload": {"rows": [[1]]}, "attempt": 0},
                        sort_keys=True))
                    completions += 1
                elif op == "expire":
                    clock[0] += 20.0  # past every TTL

                # invariant: the lease file never names two holders —
                # whoever the file names is the one true holder
                info = lease_mod.read_lease(path)
                if info is not None:
                    assert info["worker"] in ("w1", "w2",)

            # the supervisor's commit pass, run twice (a resumed
            # supervisor replays it): still exactly once
            for _ in range(2):
                fresh = queue.load_state()
                if spool.exists() and not fresh.committed("cell"):
                    record = json.loads(spool.read_text())
                    queue.commit_cell("cell", "ok",
                                      payload=record["payload"],
                                      state=fresh)
            records, dropped = queue.journal.records()
            commits = [r for r in records if r.get("record") == "cell"]
            assert dropped == 0
            assert len(commits) == (1 if completions else 0)
        finally:
            lease_mod._now = real_now


# -- satellites: group watchdog, jitter, failure detail ----------------------


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
        assert self._dead_or_zombie(pid, within=5.0)

    @staticmethod
    def _dead_or_zombie(pid, within):
        deadline = time.monotonic() + within
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            try:
                with open(f"/proc/{pid}/stat", "r") as handle:
                    if handle.read().rsplit(")", 1)[1].split()[0] == "Z":
                        return True
            except (OSError, IndexError):
                return True
            time.sleep(0.05)
        return False

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
        assert self._dead_or_zombie(int(pidfile.read_text()), within=5.0)

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


# -- the farm end to end -----------------------------------------------------


def _sequential_reference(tmp_path):
    out = tmp_path / "ref.json"
    result = runner_mod.run_sweep(
        "compression", scale=SCALE, seed=SEED,
        journal_path=tmp_path / "ref.jsonl", out_path=out, jobs=1)
    assert result.ok
    return out.read_bytes()


class TestFarmSweep:
    def test_farm_output_is_byte_identical_to_sequential(self,
                                                         tmp_path):
        ref_bytes = _sequential_reference(tmp_path)
        out = tmp_path / "farm.json"
        result = run_farm_sweep(
            "compression", scale=SCALE, seed=SEED,
            state_dir=tmp_path / "farm", out_path=out, workers=2,
            lease_ttl=1.0)
        assert result.ok
        assert result.ran == len(result.keys)
        assert out.read_bytes() == ref_bytes

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="warm cells fork")
    def test_farm_workers_fork_their_cells(self, tmp_path, cell_site):
        """Every farm cell ran in a child of a worker's warm parent, and
        the output still matches the sequential sweep byte for byte."""
        ref_bytes = _sequential_reference(tmp_path)
        log = tmp_path / "cells.log"
        cell_site(f"""
            import sys

            if "run-cell" in sys.orig_argv or "warm-parent" in sys.orig_argv:
                from repro.evalx import compression

                _rows = compression.run_cell_rows

                def run_cell_rows(key, scale=1.0, seed=1):
                    with open({str(log)!r}, "a") as handle:
                        handle.write(repr(sys.orig_argv) + "\\n")
                    return _rows(key, scale=scale, seed=seed)

                compression.run_cell_rows = run_cell_rows
        """)
        out = tmp_path / "farm.json"
        result = run_farm_sweep(
            "compression", scale=SCALE, seed=SEED,
            state_dir=tmp_path / "farm", out_path=out, workers=2,
            lease_ttl=1.0)
        assert result.ok
        assert out.read_bytes() == ref_bytes
        launched = log.read_text().splitlines()
        assert len(launched) >= len(result.keys)
        assert all("'warm-parent'" in argv and "'run-cell'" not in argv
                   for argv in launched)

    def test_farm_engine_propagates_and_output_matches(self, tmp_path,
                                                       monkeypatch):
        """``engine=`` reaches worker cell subprocesses, byte-exactly.

        The selector is exported as ``REPRO_REPLAY_ENGINE`` and flows
        supervisor -> worker -> cell because every child env derives
        from ``_cell_env()``; the farm output under the oracle engine
        must still be byte-identical to the sequential event-engine
        sweep.
        """
        from repro.trace.columnar import ENV_ENGINE

        # touch the var through monkeypatch so teardown restores the
        # pre-test state even though run_farm_sweep mutates os.environ
        monkeypatch.setenv(ENV_ENGINE, "event")
        monkeypatch.delenv(ENV_ENGINE)
        ref_bytes = _sequential_reference(tmp_path)
        out = tmp_path / "farm.json"
        result = run_farm_sweep(
            "compression", scale=SCALE, seed=SEED,
            state_dir=tmp_path / "farm", out_path=out, workers=2,
            lease_ttl=1.0, engine="oracle")
        assert result.ok
        # the selector landed in the env every worker and cell inherits
        assert os.environ[ENV_ENGINE] == "oracle"
        assert runner_mod._cell_env()[ENV_ENGINE] == "oracle"
        assert out.read_bytes() == ref_bytes

    def test_farm_resume_skips_committed_cells(self, tmp_path):
        out = tmp_path / "farm.json"
        first = run_farm_sweep(
            "compression", scale=SCALE, seed=SEED,
            state_dir=tmp_path / "farm", out_path=out, workers=2,
            lease_ttl=1.0)
        assert first.ok
        first_bytes = out.read_bytes()
        again = run_farm_sweep(
            "compression", scale=SCALE, seed=SEED,
            state_dir=tmp_path / "farm", out_path=out, workers=2,
            lease_ttl=1.0, resume=True)
        assert again.ok
        assert again.ran == 0
        assert again.skipped == len(again.keys)
        assert out.read_bytes() == first_bytes

    def test_farm_refuses_stale_state_without_resume(self, tmp_path):
        run_farm_sweep("compression", scale=SCALE, seed=SEED,
                       state_dir=tmp_path / "farm",
                       out_path=tmp_path / "farm.json", workers=2,
                       lease_ttl=1.0)
        with pytest.raises(JournalError, match="already exists"):
            run_farm_sweep("compression", scale=SCALE, seed=SEED,
                           state_dir=tmp_path / "farm",
                           out_path=tmp_path / "farm.json", workers=2)

    def test_poison_cell_is_quarantined_with_debris(self, tmp_path,
                                                    monkeypatch):
        poison = runner_mod.sweep_cells("compression")[0]
        monkeypatch.setenv(runner_mod.FAIL_CELLS_ENV, f"{poison}:99")
        log = io.StringIO()
        result = run_farm_sweep(
            "compression", scale=SCALE, seed=SEED,
            state_dir=tmp_path / "farm",
            out_path=tmp_path / "farm.json", workers=2,
            lease_ttl=1.0, max_attempts=2, stream=log)
        assert not result.ok
        assert result.quarantined_keys == [poison]
        assert result.dropped_keys == [poison]
        # partial table, explicitly annotated — never a wrong number
        assert "[PARTIAL: 1 of" in result.table.notes
        assert f"[QUARANTINED: {poison}]" in result.table.notes
        # the circuit breaker journaled the attempts and the debris
        queue = WorkQueue(
            worker_mod.queue_path(tmp_path / "farm"))
        record = queue.load_state().cells[poison]
        assert record["status"] == "quarantined"
        assert record["attempts"] == 2
        assert "2 failed attempt(s)" in record["error"]
        assert "stderr:" in record["error"]
        assert "injected failure" in record["error"]
        # the failure spools carry both tails for every attempt
        failures = worker_mod.load_failures(tmp_path / "farm", poison)
        assert len(failures) == 2
        assert all("stderr:" in f["error"] for f in failures)

    def test_worker_kill_chaos_converges_in_process(self, tmp_path):
        """A chaos-armed supervisor (worker_kill at worker.spawn)
        still converges to the sequential bytes: killed workers are
        reaped, respawned and their cells stolen."""
        ref_bytes = _sequential_reference(tmp_path)
        plane = plane_mod.FaultPlane(5, kinds=("worker_kill",),
                                     sites=("worker.spawn",),
                                     count=2, horizon=4)
        out = tmp_path / "farm.json"
        with plane_mod.activated(plane):
            result = run_farm_sweep(
                "compression", scale=SCALE, seed=SEED,
                state_dir=tmp_path / "farm", out_path=out, workers=2,
                lease_ttl=1.0)
        assert result.ok
        assert out.read_bytes() == ref_bytes
        assert any(f["kind"] == "worker_kill" for f in plane.injected)
        assert result.respawns >= 1


# -- slugs and spools --------------------------------------------------------


class TestSpoolNaming:
    def test_slug_is_filesystem_safe_and_collision_resistant(self):
        ugly = "Exp/with spaces:and*stars"
        slug = worker_mod.cell_slug(ugly)
        assert "/" not in slug and " " not in slug and "*" not in slug
        assert worker_mod.cell_slug(ugly) == slug
        assert worker_mod.cell_slug(ugly + "!") != slug

    def test_failure_count_and_load(self, tmp_path):
        state_dir = tmp_path
        worker_mod.spool_dir(state_dir).mkdir()
        for attempt in range(2):
            worker_mod.failure_path(state_dir, "a/b", attempt).write_text(
                json.dumps({"key": "a/b", "attempt": attempt,
                            "error": f"boom {attempt}"}))
        assert worker_mod.failure_count(state_dir, "a/b") == 2
        loaded = worker_mod.load_failures(state_dir, "a/b")
        assert [f["error"] for f in loaded] == ["boom 0", "boom 1"]
        assert worker_mod.load_success(state_dir, "a/b") is None
