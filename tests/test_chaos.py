"""The deterministic storage fault plane and the hardening it exercises.

Covers the plane itself (seeded schedules, consumable tokens, env
activation), the CRC frame on cache entries, each recovery path in the
trace cache (quarantine + re-record, stale-lock breaking, the
publish-disabled ladder, direct-execution fallback), and the chaos
campaign's own invariants at a small operating point.
"""

import builtins
import errno
import os
import time

import pytest

from repro import ioutil
from repro.chaos import plane as plane_mod
from repro.chaos.__main__ import main as chaos_cli
from repro.chaos.plane import (ChaosError, FaultPlane, corrupt_bytes,
                               oserror)
from repro.errors import ReproError
from repro.evalx import chaos as campaign
from repro.evalx.common import make_nsf, run_workload
from repro.evalx.journal import Journal
from repro.ioutil import atomic_write_bytes
from repro.trace import cache as trace_cache
from repro.trace import events
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def _fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(trace_cache.ENV_DISABLE, raising=False)
    monkeypatch.delenv(plane_mod.ENV_SEED, raising=False)
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    trace_cache.reset_degradation()
    yield
    plane_mod.deactivate()
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    trace_cache.reset_degradation()


# -- the plane ---------------------------------------------------------------


class TestFaultPlane:
    def test_same_seed_same_schedule(self):
        a = FaultPlane(42)
        b = FaultPlane(42)
        assert a.armed_schedule() == b.armed_schedule()
        assert a.armed_remaining() == b.armed_remaining() > 0

    def test_different_seed_different_schedule(self):
        schedules = {repr(FaultPlane(s).armed_schedule())
                     for s in range(8)}
        assert len(schedules) > 1

    def test_tokens_consumed_exactly_once(self):
        plane = FaultPlane(7, kinds=("eio",), sites=("cache.load",),
                           count=2, horizon=2)
        tokens = [plane.storage_fault("cache.load") for _ in range(6)]
        fired = [t for t in tokens if t is not None]
        assert len(fired) == 2  # count=horizon=2: both early ops armed
        assert all(t[0] == "eio" for t in fired)
        assert plane.armed_remaining() == 0
        assert len(plane.injected) == 2
        # the schedule is exhausted: retries always make progress
        assert plane.storage_fault("cache.load") is None

    def test_kind_site_validity_respected(self):
        # stale_lock can only fire at cache.lock; arming it elsewhere
        # leaves those sites empty
        plane = FaultPlane(1, kinds=("stale_lock",),
                           sites=("cache.publish", "journal.append"))
        assert plane.armed_schedule() == {}
        assert plane.storage_fault("cache.publish") is None

    def test_unknown_kind_and_site_rejected(self):
        with pytest.raises(ChaosError):
            FaultPlane(1, kinds=("meteor",))
        with pytest.raises(ChaosError):
            FaultPlane(1, sites=("cache.nonsense",))
        with pytest.raises(ChaosError):
            FaultPlane(1, count=-1)
        assert issubclass(ChaosError, ReproError)

    def test_process_fault_first_attempt_only(self):
        plane = FaultPlane(3, kinds=("crash", "slow"))
        keys = [f"table1/cell-{i}" for i in range(30)]
        faulted = [k for k in keys if plane.process_fault(k, 0)]
        assert 0 < len(faulted) < len(keys)  # ~1 in 3 selected
        # a retry (attempt 1) is never faulted: progress guaranteed
        assert all(plane.process_fault(k, 1) is None for k in keys)
        # deterministic in (seed, key)
        again = FaultPlane(3, kinds=("crash", "slow"))
        assert [k for k in keys if again.process_fault(k, 0)] == faulted

    def test_report_counts_injections(self):
        plane = FaultPlane(5, kinds=("eio",), sites=("cache.load",),
                           count=1, horizon=1)
        plane.storage_fault("cache.load")
        report = plane.report()
        assert report["injected"] == 1
        assert report["by_kind"] == {"eio": 1}
        assert report["armed_remaining"] == 0

    def test_oserror_carries_errno(self):
        assert oserror("enospc", "/x").errno == errno.ENOSPC
        assert oserror("eio", "/x").errno == errno.EIO


class TestCorruptBytes:
    def test_truncating_kinds_keep_first_half(self):
        data = bytes(range(10))
        assert corrupt_bytes("truncate", data) == data[:5]
        assert corrupt_bytes("torn_rename", data) == data[:5]

    def test_bitflip_flips_exactly_one_bit(self):
        data = bytes(32)
        flipped = corrupt_bytes("bitflip", data, aux=77)
        assert len(flipped) == len(data)
        diff = [a ^ b for a, b in zip(data, flipped)]
        assert sum(bin(d).count("1") for d in diff) == 1
        assert corrupt_bytes("bitflip", b"", aux=3) == b""

    def test_non_corrupting_kind_rejected(self):
        with pytest.raises(ChaosError):
            corrupt_bytes("enospc", b"xx")


class TestActivation:
    def test_activated_scopes_and_restores(self):
        assert plane_mod.ACTIVE is None
        plane = FaultPlane(1)
        with plane_mod.activated(plane):
            assert plane_mod.ACTIVE is plane
        assert plane_mod.ACTIVE is None

    def test_plane_from_env(self, monkeypatch):
        assert plane_mod.plane_from_env({}) is None
        plane = plane_mod.plane_from_env({plane_mod.ENV_SEED: "9"})
        assert plane.seed == 9
        assert "hang" not in plane.kinds  # opt-in only
        custom = plane_mod.plane_from_env({
            plane_mod.ENV_SEED: "9",
            plane_mod.ENV_KINDS: "eio,hang",
            plane_mod.ENV_SITES: "cache.load",
            plane_mod.ENV_COUNT: "3",
        })
        assert custom.kinds == ("eio", "hang")
        assert custom.sites == ("cache.load",)
        assert custom.count == 3
        with pytest.raises(ChaosError):
            plane_mod.plane_from_env({plane_mod.ENV_SEED: "nope"})

    def test_refresh_from_env(self, monkeypatch):
        monkeypatch.setenv(plane_mod.ENV_SEED, "4")
        assert plane_mod.refresh_from_env().seed == 4
        monkeypatch.delenv(plane_mod.ENV_SEED)
        assert plane_mod.refresh_from_env() is None


# -- the CRC frame -----------------------------------------------------------


class TestIntegrityFrame:
    def test_roundtrip(self):
        payload = b"NSFT\x01 some trace bytes"
        assert events.unframe(events.frame(payload)) == payload

    def test_bitflip_detected(self):
        blob = bytearray(events.frame(b"payload bytes here"))
        blob[-3] ^= 0x10
        with pytest.raises(events.TraceIntegrityError):
            events.unframe(bytes(blob))

    def test_truncation_detected(self):
        blob = events.frame(b"payload bytes here")
        for cut in (3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(events.TraceIntegrityError):
                events.unframe(blob[:cut])

    def test_integrity_error_is_format_error(self):
        # callers that already recover from corrupt entries catch both
        assert issubclass(events.TraceIntegrityError,
                          events.TraceFormatError)


# -- hardened storage paths --------------------------------------------------


class TestAtomicWriteUnderFaults:
    def test_transient_eio_retried(self, tmp_path):
        path = tmp_path / "out.bin"
        plane = FaultPlane(1, kinds=("eio",), sites=("results.write",),
                           count=2, horizon=2)
        with plane_mod.activated(plane):
            atomic_write_bytes(path, b"payload", site="results.write",
                               attempts=3)
        assert path.read_bytes() == b"payload"
        assert len(plane.injected) == 2

    def test_exhausted_retries_raise(self, tmp_path):
        path = tmp_path / "out.bin"
        plane = FaultPlane(1, kinds=("enospc",),
                           sites=("results.write",), count=4, horizon=4)
        with plane_mod.activated(plane):
            with pytest.raises(OSError) as excinfo:
                atomic_write_bytes(path, b"payload",
                                   site="results.write", attempts=3)
        assert excinfo.value.errno == errno.ENOSPC

    def test_torn_rename_caught_by_verify(self, tmp_path):
        path = tmp_path / "out.bin"
        plane = FaultPlane(1, kinds=("torn_rename",),
                           sites=("results.write",), count=1, horizon=1)
        with plane_mod.activated(plane):
            atomic_write_bytes(path, b"0123456789" * 10,
                               site="results.write", attempts=3,
                               verify=True)
        assert path.read_bytes() == b"0123456789" * 10


class TestCacheUnderFaults:
    def test_bitflip_on_publish_quarantined_and_re_recorded(self):
        workload = get_workload("DTW")
        plane = FaultPlane(2, kinds=("bitflip",),
                           sites=("cache.publish",), count=1, horizon=1)
        reference = trace_cache.record_trace(workload, scale=0.2,
                                             seed=3).dumps_binary()
        with plane_mod.activated(plane):
            trace_cache.load_or_record(workload, scale=0.2, seed=3)
            trace_cache._memo.clear()
            # the corrupt landing must be detected, quarantined and
            # transparently re-recorded — never served
            recovered = trace_cache.load_or_record(workload, scale=0.2,
                                                   seed=3)
        assert recovered.dumps_binary() == reference
        assert trace_cache.STATS.quarantined == 1
        assert len(trace_cache.quarantine_entries()) == 1

    def test_stale_lock_broken(self):
        workload = get_workload("DTW")
        plane = FaultPlane(2, kinds=("stale_lock",),
                           sites=("cache.lock",), count=1, horizon=1)
        with plane_mod.activated(plane):
            trace = trace_cache.load_or_record(workload, scale=0.2,
                                               seed=3)
        assert trace.counts()["R"] > 0
        assert len(plane.injected) == 1
        # the planted lock did not survive
        path = trace_cache.trace_path(workload, 0.2, 3)
        assert not path.with_name(path.name + ".lock").exists()

    def test_persistent_enospc_disables_publishing(self):
        workload = get_workload("DTW")
        plane = FaultPlane(2, kinds=("enospc",),
                           sites=("cache.publish",), count=8, horizon=8)
        with plane_mod.activated(plane):
            first = trace_cache.load_or_record(workload, scale=0.2,
                                               seed=3)
            second = trace_cache.load_or_record(workload, scale=0.3,
                                                seed=3)
        # the sweep still got exact traces, memory-only
        assert first.counts()["R"] > 0
        assert second.counts()["R"] > 0
        assert not trace_cache.publishing_enabled()
        assert trace_cache.publish_failures() \
            >= trace_cache.PUBLISH_FAILURE_LIMIT
        # and the memo serves them without touching the dead disk
        assert trace_cache.load_or_record(workload, scale=0.2,
                                          seed=3) is first
        trace_cache.reset_degradation()
        assert trace_cache.publishing_enabled()

    def test_run_workload_survives_cache_oserror(self, monkeypatch):
        """Last ladder rung: cache blows up -> direct execution."""
        workload = get_workload("DTW")

        def explode(*args, **kwargs):
            raise OSError(errno.EIO, "cache gone")

        monkeypatch.setattr(trace_cache, "load_or_record", explode)
        model = make_nsf(workload)
        run_workload(workload, model, scale=0.2, seed=3)
        direct = make_nsf(workload)
        workload.run(direct, scale=0.2, seed=3)
        assert model.stats.snapshot() == direct.stats.snapshot()


# -- the campaign ------------------------------------------------------------


class TestCampaign:
    def test_pairs_cover_every_valid_combination(self):
        # the campaign sweeps the *storage* matrix only; farm kinds
        # (worker_kill etc.) are exercised by the farm smoke instead,
        # so the chaos golden stays pinned
        pairs = campaign.campaign_pairs()
        assert len(pairs) == len(set(pairs)) == sum(
            len(plane_mod.KIND_SITES[kind])
            for kind in plane_mod.STORAGE_KINDS)

    def test_cell_keys_match_run_cell_rows(self):
        keys = campaign.cell_keys()
        assert len(keys) == 2 * len(campaign.campaign_pairs())
        row, = campaign.run_cell_rows(keys[0], scale=0.35, seed=11)
        assert row[0], row[1] == tuple(keys[0].split("/")[:2])
        assert row[-1] == 1  # exact

    def test_single_cell_recovers_bitflip(self):
        cell = campaign.run_campaign_cell("bitflip", "cache.publish", 1,
                                          scale=0.35)
        assert cell["exact"] == 1
        assert cell["injected"] >= 1
        assert cell["quarantined"] >= 1
        assert cell["outcome"] == "recovered"

    def test_single_cell_degrades_on_persistent_enospc(self):
        cell = campaign.run_campaign_cell("enospc", "cache.publish", 1,
                                          scale=0.35)
        assert cell["exact"] == 1
        assert cell["outcome"] == "degraded"
        # the ladder state never leaks out of the cell
        assert trace_cache.publishing_enabled()

    def test_campaign_deterministic(self):
        a = campaign.run_campaign_cell("eio", "journal.append", 2,
                                       scale=0.35)
        b = campaign.run_campaign_cell("eio", "journal.append", 2,
                                       scale=0.35)
        assert a == b

    def test_assert_campaign_clean_small(self):
        cells = campaign.assert_campaign_clean(scale=0.35, seed=11)
        assert len(cells) == 2 * len(campaign.campaign_pairs())


# -- backoff after injected faults -------------------------------------------


class Slept(BaseException):
    """Raised by a patched ``time.sleep``; escapes ``except Exception``."""


def _no_sleep(seconds):
    raise Slept(seconds)


def _fail_once(call):
    """``call``, except that its first invocation raises a real EIO."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise OSError(errno.EIO, "real transient device error")
        return call(*args, **kwargs)

    return wrapper


class TestInjectedBackoff:
    """Retry loops count the backoff after an injected fault instead of
    sleeping it; a real OS error still sleeps exactly as before."""

    def _campaign(self, monkeypatch, sleep):
        """The chaos campaign with ``time.sleep`` replaced by ``sleep``;
        returns its cells and the plane each cell ran under."""
        planes = []
        cell_plane = campaign._cell_plane

        def capture(kind, site, seed):
            planes.append(cell_plane(kind, site, seed))
            return planes[-1]

        monkeypatch.setattr(campaign, "_cell_plane", capture)
        monkeypatch.setattr(time, "sleep", sleep)
        return campaign.run_campaign(scale=0.35, seed=11), planes

    def test_campaign_counts_what_it_would_have_slept(self, monkeypatch):
        # reference: no error marked injected, so every backoff sleeps
        slept = []
        with monkeypatch.context() as patch:
            patch.setattr(plane_mod, "mark_injected", lambda exc: exc)
            reference, reference_planes = self._campaign(
                patch, lambda seconds: slept.append(
                    (plane_mod.ACTIVE, seconds)))
        would_sleep = [sum(seconds for active, seconds in slept
                           if active is plane)
                       for plane in reference_planes]
        cells, planes = self._campaign(monkeypatch, _no_sleep)
        assert cells == reference
        assert all(cell["exact"] == 1 for cell in cells)
        assert sum(would_sleep) > 0
        assert [plane.backoff_s for plane in planes] == would_sleep
        assert all(plane.report()["backoff_s"] == plane.backoff_s
                   for plane in planes)
        # every retry loop backed off from an injected fault, including
        # after a corrupt results write that only read-back exposes
        backed_off = {(cell["kind"], cell["site"])
                      for cell, plane in zip(cells, planes)
                      if plane.backoff_s}
        assert {"cache.load", "cache.publish", "journal.append",
                "results.write"} <= {site for _, site in backed_off}
        assert backed_off & {("bitflip", "results.write"),
                             ("truncate", "results.write"),
                             ("torn_rename", "results.write")}

    @pytest.fixture
    def armed(self, monkeypatch):
        """An armed plane whose faults all sit at an unrelated site, and
        the list of seconds ``time.sleep`` was called with."""
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        plane = FaultPlane(3, kinds=("stale_lock",), sites=("cache.lock",))
        with plane_mod.activated(plane):
            yield plane, slept
        assert plane.backoff_s == 0

    def test_atomic_write_sleeps_after_a_real_error(self, armed,
                                                    monkeypatch,
                                                    tmp_path):
        _, slept = armed
        monkeypatch.setattr(ioutil, "_atomic_write_once",
                            _fail_once(ioutil._atomic_write_once))
        atomic_write_bytes(tmp_path / "out.bin", b"payload",
                           site="results.write", attempts=3, backoff=0.01)
        assert slept == [0.01]
        assert (tmp_path / "out.bin").read_bytes() == b"payload"

    def test_real_read_back_mismatch_sleeps(self, armed, monkeypatch,
                                            tmp_path):
        _, slept = armed
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        replace = os.replace
        lost = []

        def lose_first(src, dst):
            if not lost:
                lost.append(src)
                os.unlink(src)  # the rename never lands
                return
            replace(src, dst)

        monkeypatch.setattr(os, "replace", lose_first)
        atomic_write_bytes(path, b"payload", site="results.write",
                           attempts=2, backoff=0.01, verify=True)
        assert lost and slept == [0.01]
        assert path.read_bytes() == b"payload"

    def test_cache_read_sleeps_after_a_real_error(self, armed, monkeypatch,
                                                  tmp_path):
        _, slept = armed
        path = tmp_path / "entry.bin"
        path.write_bytes(b"entry")
        monkeypatch.setattr(trace_cache, "open", _fail_once(builtins.open),
                            raising=False)
        assert trace_cache._read_bytes(path, attempts=3,
                                       backoff=0.005) == b"entry"
        assert slept == [0.005]

    def test_journal_append_sleeps_after_a_real_error(self, armed,
                                                      monkeypatch,
                                                      tmp_path):
        _, slept = armed
        monkeypatch.setattr(Journal, "_append_once",
                            _fail_once(Journal._append_once))
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"record": "cell", "key": "a"})
        assert slept == [0.01]
        assert len(journal.path.read_text().splitlines()) == 1


# -- the CLI -----------------------------------------------------------------


class TestChaosCli:
    def test_status_disarmed(self, capsys):
        assert chaos_cli(["status"]) == 0
        out = capsys.readouterr().out
        assert "disarmed" in out
        assert plane_mod.ENV_SEED in out

    def test_status_armed(self, capsys, monkeypatch):
        monkeypatch.setenv(plane_mod.ENV_SEED, "5")
        assert chaos_cli(["status"]) == 0
        out = capsys.readouterr().out
        assert "FaultPlane(seed=5" in out
        assert "armed schedule" in out

    def test_inject_corrupts_in_place(self, tmp_path, capsys):
        target = tmp_path / "victim.bin"
        target.write_bytes(bytes(64))
        assert chaos_cli(["inject", "--kind", "bitflip", "--seed", "9",
                          str(target)]) == 0
        assert target.read_bytes() != bytes(64)
        assert chaos_cli(["inject", "--kind", "truncate",
                          str(target)]) == 0
        assert target.stat().st_size == 32
        assert chaos_cli(["inject", str(tmp_path / "missing")]) == 1

    def test_quarantine_ls_and_clear(self, tmp_path, capsys):
        qdir = trace_cache.quarantine_dir()
        qdir.mkdir(parents=True)
        (qdir / "entry.trace").write_bytes(b"junk")
        (qdir / "entry.trace.reason").write_text("bad crc")
        assert chaos_cli(["quarantine", "ls"]) == 0
        out = capsys.readouterr().out
        assert "entry.trace" in out and "bad crc" in out
        assert chaos_cli(["quarantine", "clear"]) == 0
        assert trace_cache.quarantine_entries() == []
