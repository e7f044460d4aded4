"""The resilience layer: SEC-DED codes, the recovery ladder, degradation.

Covers the protection wrapper rung by rung (correct, reread, reload,
trap, retire), the graceful-degradation gap between NSF line retirement
and segmented frame retirement, machine-check pricing, the scheduler
watchdog/wait-graph, bounded backing-store retry, and the campaign's
zero-silent-corruption contract (property-based).
"""

import dataclasses
import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    NSF_COSTS,
    BackingStore,
    NamedStateRegisterFile,
    ProtectedRegisterFile,
    RetryingBackingStore,
    SegmentedRegisterFile,
    secded_check,
    secded_encode,
)
from repro.core.faults import FAULT_KINDS, FaultyRegisterFile
from repro.cpu.traps import MachineCheckTrapUnit
from repro.errors import (
    BackingStoreFaultError,
    CapacityError,
    DeadlockError,
    MachineCheckError,
)
from repro.evalx.resilience import run_campaign, run_single
from repro.runtime.scheduler import ThreadMachine
from repro.workloads import get_workload


# -- the SEC-DED codec ------------------------------------------------------


class TestSecded:
    def test_roundtrip_ok(self):
        for value in (0, 1, -1, 7, 1234567, -987654321, 2 ** 62):
            assert secded_check(value, secded_encode(value)) == ("ok", value)

    def test_single_bit_corrected(self):
        value = 0x1234_5678
        code = secded_encode(value)
        for bit in (0, 5, 31, 63):
            flipped = (value & (2 ** 64 - 1)) ^ (1 << bit)
            flipped = flipped - 2 ** 64 if flipped >= 2 ** 63 else flipped
            status, fixed = secded_check(flipped, code)
            assert status == "corrected"
            assert fixed == value

    def test_double_bit_detected_not_corrected(self):
        value = 41
        code = secded_encode(value)
        status, fixed = secded_check(value ^ 0b101, code)
        assert status == "uncorrectable"
        assert fixed is None

    def test_non_int_values_are_detect_only(self):
        code = secded_encode(2.5)
        assert code[0] == "crc"
        assert secded_check(2.5, code)[0] == "ok"
        assert secded_check(2.75, code)[0] == "uncorrectable"

    def test_bool_not_treated_as_int(self):
        # bool arithmetic would silently "correct" True into 3.
        assert secded_encode(True)[0] == "crc"

    @given(value=st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
           bit=st.integers(min_value=0, max_value=63))
    @settings(max_examples=200, deadline=None)
    def test_codec_properties(self, value, bit):
        code = secded_encode(value)
        assert secded_check(value, code) == ("ok", value)
        flipped = ((value & (2 ** 64 - 1)) ^ (1 << bit))
        flipped = flipped - 2 ** 64 if flipped >= 2 ** 63 else flipped
        status, fixed = secded_check(flipped, code)
        if flipped == value:
            assert status == "ok"
        else:
            assert status == "corrected"
            assert fixed == value


# -- the recovery ladder, rung by rung --------------------------------------


def protected(kind, trigger_at, registers=8, level="ecc", trap_unit=None,
              hard_fault_threshold=3):
    inner = NamedStateRegisterFile(num_registers=registers, context_size=8,
                                   line_size=1)
    faulty = FaultyRegisterFile(inner, kind, trigger_at=trigger_at)
    return ProtectedRegisterFile(faulty, level=level, trap_unit=trap_unit,
                                 hard_fault_threshold=hard_fault_threshold)


class TestRecoveryLadder:
    def test_rung1_single_bit_corrected_in_place(self):
        model = protected("flip_read_bit", trigger_at=0)
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 42)
        value, _ = model.read(0)
        assert value == 42
        assert model.rstats.corrected == 1
        # The scrub write repaired the array: later reads are clean.
        assert model.read(0)[0] == 42
        assert model.rstats.snapshot()["detected"] == 1

    def test_rung2_transient_glitch_gone_on_reread(self):
        model = protected("alias_read", trigger_at=0)
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 42)
        value, _ = model.read(0)
        assert value == 42
        assert model.rstats.reread_recoveries == 1
        assert model.rstats.corrected == 0

    def test_rung3_clean_register_reloaded_from_backing(self):
        # Two physical registers force spills, so offset 0 acquires a
        # clean memory copy before the double-bit corruption lands.
        model = protected("flip_clean_bits", trigger_at=0, registers=2)
        cid = model.begin_context()
        model.switch_to(cid)
        for offset in range(4):
            model.write(offset, 100 + offset)
        value, _ = model.read(0)  # demand-reload, then corrupted
        assert value == 100
        assert model.rstats.reload_recoveries == 1
        assert model.inner.injected

    def test_rung4_dirty_uncorrectable_is_a_machine_check(self):
        # corrupt_write stores value+1 while the code was computed from
        # the intent; 3 -> 4 differs in three bits, beyond SEC-DED, and
        # the register was never spilled so no clean copy exists.
        trap_unit = MachineCheckTrapUnit()
        model = protected("corrupt_write", trigger_at=0, trap_unit=trap_unit)
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 3)
        with pytest.raises(MachineCheckError) as excinfo:
            model.read(0)
        assert model.rstats.machine_checks == 1
        assert trap_unit.stats.traps == 1
        assert trap_unit.stats.cycles == (
            MachineCheckTrapUnit.ENTRY_INSTRUCTIONS
            + MachineCheckTrapUnit.EXIT_INSTRUCTIONS
        )
        assert trap_unit.log == [excinfo.value]
        assert excinfo.value.cid == cid
        assert excinfo.value.offset == 0

    def test_rung5_repeated_errors_retire_the_line(self):
        model = protected("stuck_line", trigger_at=0, registers=4,
                          hard_fault_threshold=3)
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 10)  # even: bit 0 sticks high on every read
        for _ in range(3):
            assert model.read(0)[0] == 10
        assert model.rstats.corrected == 3
        assert model.rstats.lines_retired == 1
        assert model.inner.inner.retired_line_count() == 1
        # The register survived retirement and the fault is gone.
        assert model.read(0)[0] == 10
        assert model.rstats.corrected == 3

    def test_parity_level_detects_but_never_corrects(self):
        # A single-bit read glitch is correctable under ECC; parity can
        # only detect it — the reread rung recovers the transient.
        model = protected("flip_read_bit", trigger_at=0, level="parity")
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 42)
        value, _ = model.read(0)
        assert value == 42
        assert model.rstats.corrected == 0
        assert model.rstats.reread_recoveries == 1

    def test_level_none_is_transparent(self):
        model = protected("flip_read_bit", trigger_at=0, level="none")
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 42)
        assert model.read(0)[0] != 42  # the glitch sails through
        assert model.rstats.checks == 0

    def test_clean_run_verifies_with_zero_detections(self):
        inner = NamedStateRegisterFile(num_registers=24, context_size=20,
                                       line_size=2)
        model = ProtectedRegisterFile(inner)
        result = get_workload("GateSim").run(model, scale=0.25, seed=3)
        assert result.verified
        assert model.rstats.checks > 0
        assert model.rstats.detected == 0

    def test_invalid_level_rejected(self):
        inner = NamedStateRegisterFile(num_registers=8, context_size=8)
        with pytest.raises(ValueError):
            ProtectedRegisterFile(inner, level="secded")


# -- graceful degradation: lines vs frames ----------------------------------


class TestDegradation:
    def test_nsf_survives_retirements_at_reduced_capacity(self):
        inner = NamedStateRegisterFile(num_registers=24, context_size=20,
                                       line_size=1)
        model = ProtectedRegisterFile(inner)
        for index in range(3):
            inner.retire_line(index)
        assert inner.serviceable_registers() == 21
        assert inner.stats.capacity == 21
        result = get_workload("GateSim").run(model, scale=0.25, seed=3)
        assert result.verified
        assert inner.stats.lines_retired == 3

    def test_segmented_survives_frame_retirement(self):
        inner = SegmentedRegisterFile(num_registers=40, context_size=20)
        model = ProtectedRegisterFile(inner)
        inner.retire_frame(0)
        assert inner.serviceable_registers() == 20
        result = get_workload("GateSim").run(model, scale=0.25, seed=3)
        assert result.verified

    def test_retirement_granularity_gap(self):
        """The measurable NSF advantage: one hard fault costs the NSF a
        single small line, the segmented file a whole frame."""
        nsf = NamedStateRegisterFile(num_registers=40, context_size=20,
                                     line_size=1)
        seg = SegmentedRegisterFile(num_registers=40, context_size=20)
        cid_n = nsf.begin_context()
        nsf.switch_to(cid_n)
        nsf.write(0, 1)
        cid_s = seg.begin_context()
        seg.switch_to(cid_s)
        seg.write(0, 1)
        assert nsf.retire_containing(cid_n, 0) is not None
        assert seg.retire_containing(cid_s, 0) is not None
        assert nsf.retired_register_count() == nsf.line_size == 1
        assert seg.retired_register_count() == seg.frame_size == 20
        assert nsf.retired_register_count() < seg.retired_register_count()
        assert nsf.serviceable_registers() == 39
        assert seg.serviceable_registers() == 20

    def test_last_line_cannot_be_retired(self):
        nsf = NamedStateRegisterFile(num_registers=4, context_size=8,
                                     line_size=2)
        nsf.retire_line(0)
        with pytest.raises(CapacityError):
            nsf.retire_line(1)
        seg = SegmentedRegisterFile(num_registers=40, context_size=20)
        seg.retire_frame(1)
        with pytest.raises(CapacityError):
            seg.retire_frame(0)

    def test_retired_line_never_rejoins_free_pool(self):
        nsf = NamedStateRegisterFile(num_registers=4, context_size=4,
                                     line_size=1)
        cid = nsf.begin_context()
        nsf.switch_to(cid)
        nsf.write(0, 5)
        index = nsf.line_index_of(cid, 0)
        nsf.retire_line(index)
        # End the context (the old _free path) and refill the file: the
        # retired index must never be handed out again.
        nsf.end_context(cid)
        cid2 = nsf.begin_context()
        nsf.switch_to(cid2)
        for offset in range(4):
            nsf.write(offset, offset)
        for offset in range(4):
            assert nsf.line_index_of(cid2, offset) != index


# -- cost-model pricing ------------------------------------------------------


class TestResilienceCosts:
    def test_rung_cost_ordering(self):
        assert (NSF_COSTS.machine_check_cycles
                > NSF_COSTS.recovery_reload_cycles
                > NSF_COSTS.correction_cycles)

    def test_per_event_accounting(self):
        model = protected("flip_read_bit", trigger_at=0)
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 42)
        model.read(0)
        priced = dataclasses.replace(NSF_COSTS, ecc_check_cycles=0.5)
        events = priced.resilience_event_costs(model.rstats)
        assert events["corrections"] == priced.correction_cycles
        assert events["ecc_checks"] == model.rstats.checks * 0.5
        assert events["machine_checks"] == 0
        assert priced.resilience_cycles(model.rstats) == \
            sum(events.values())

    def test_total_cycles_include_recovery(self):
        model = protected("corrupt_write", trigger_at=0)
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 3)
        with pytest.raises(MachineCheckError):
            model.read(0)
        stats = model.inner.inner.stats
        base = NSF_COSTS.total_cycles(stats)
        with_recovery = NSF_COSTS.total_cycles(stats, model.rstats)
        assert with_recovery == base + NSF_COSTS.machine_check_cycles
        assert NSF_COSTS.overhead_fraction(stats, model.rstats) > \
            NSF_COSTS.overhead_fraction(stats)


# -- scheduler robustness ----------------------------------------------------


class TestSchedulerRobustness:
    def test_deadlock_error_carries_wait_graph(self):
        machine = ThreadMachine(
            NamedStateRegisterFile(num_registers=64, context_size=8)
        )
        never = machine.future(name="never")

        def blocked_thread(act):
            yield machine.wait(never)

        machine.spawn(blocked_thread, name="alice")
        machine.spawn(blocked_thread, name="bob")
        with pytest.raises(DeadlockError) as excinfo:
            machine.run()
        graph = excinfo.value.wait_graph
        assert len(graph) == 2
        alice, = [k for k in graph if k.startswith("alice")]
        bob, = [k for k in graph if k.startswith("bob")]
        assert "never" in graph[alice]
        assert bob in graph[alice]  # peers on the same future are named
        assert "wait graph" in str(excinfo.value)

    def test_watchdog_halts_a_livelock(self):
        machine = ThreadMachine(
            NamedStateRegisterFile(num_registers=64, context_size=8),
            watchdog_cycles=2000,
        )

        def spinner(act):
            while True:
                yield machine.remote(100)

        machine.spawn(spinner, name="spinner")
        with pytest.raises(DeadlockError) as excinfo:
            machine.run()
        assert "watchdog" in str(excinfo.value)
        assert any(k.startswith("spinner") for k in excinfo.value.wait_graph)

    def test_watchdog_does_not_fire_on_healthy_runs(self):
        machine = ThreadMachine(
            NamedStateRegisterFile(num_registers=64, context_size=8),
            watchdog_cycles=10 ** 9,
        )

        def worker(act):
            reg = act.alloc("x")
            act.let(reg, 7)
            yield machine.remote(10)
            return act.peek(reg)

        thread = machine.spawn(worker, name="worker")
        machine.run()
        assert thread.result.value == 7


class TestRetryingBackingStore:
    def test_fault_free_passthrough(self):
        store = RetryingBackingStore(BackingStore())
        store.spill(1, 0, 42)
        assert store.reload(1, 0) == 42
        assert store.contains(1, 0)
        assert store.peek(1, 0) == 42
        assert store.transient_faults == 0

    def test_transient_faults_are_retried(self):
        store = RetryingBackingStore(BackingStore(), max_retries=10,
                                     fault_rate=0.5, seed=4)
        for offset in range(50):
            store.spill(1, offset, offset)
        for offset in range(50):
            assert store.reload(1, offset) == offset
        assert store.transient_faults > 0
        assert store.retries == store.transient_faults

    def test_persistent_fault_raises_after_bounded_retries(self):
        store = RetryingBackingStore(BackingStore(), max_retries=2,
                                     fault_rate=0.999999, seed=1)
        with pytest.raises(BackingStoreFaultError) as excinfo:
            store.spill(1, 0, 42)
        assert excinfo.value.attempts == 3

    def test_model_runs_through_a_flaky_store(self):
        inner = NamedStateRegisterFile(num_registers=16, context_size=20)
        inner.backing = RetryingBackingStore(inner.backing, max_retries=8,
                                             fault_rate=0.3, seed=9)
        result = get_workload("GateSim").run(inner, scale=0.25, seed=3)
        assert result.verified
        assert inner.backing.transient_faults > 0

    def test_backoff_is_simulated_cycles_and_deterministic(self):
        # The k-th retry of one operation costs base << k simulated
        # cycles — no wall-clock sleeps anywhere on this path.
        def run_store():
            store = RetryingBackingStore(BackingStore(), max_retries=10,
                                         fault_rate=0.5, seed=4,
                                         backoff_base=2)
            for offset in range(50):
                store.spill(1, offset, offset)
            for offset in range(50):
                store.reload(1, offset)
            return store

        first, second = run_store(), run_store()
        assert first.retries > 0
        assert first.backoff_cycles > 0
        assert first.retries == second.retries
        assert first.backoff_cycles == second.backoff_cycles
        # Every retry pays at least the base penalty (attempt 0 pays
        # exactly base, later attempts double it).
        assert first.backoff_cycles >= first.backoff_base * first.retries

    def test_retry_counters_flow_into_regfile_stats(self):
        from repro.core import RegFileStats

        stats = RegFileStats()
        store = RetryingBackingStore(BackingStore(), max_retries=10,
                                     fault_rate=0.5, seed=4,
                                     backoff_base=2).attach_stats(stats)
        for offset in range(50):
            store.spill(1, offset, offset)
        assert stats.backing_transient_faults == store.transient_faults
        assert stats.backing_retries == store.retries
        assert stats.backing_backoff_cycles == store.backoff_cycles
        assert stats.backing_exhaustions == 0

    def test_exhaustion_counted_in_stats(self):
        from repro.core import RegFileStats

        stats = RegFileStats()
        store = RetryingBackingStore(BackingStore(), max_retries=2,
                                     fault_rate=0.999999,
                                     seed=1).attach_stats(stats)
        with pytest.raises(BackingStoreFaultError):
            store.spill(1, 0, 42)
        assert store.exhaustions == 1
        assert stats.backing_exhaustions == 1

    def test_cost_model_prices_backoff_cycles(self):
        from repro.core import CostModel, RegFileStats

        stats = RegFileStats()
        stats.backing_backoff_cycles = 10
        base = CostModel(name="t", backing_backoff_weight=0.0)
        priced = CostModel(name="t", backing_backoff_weight=1.5)
        assert (priced.traffic_cycles(stats)
                - base.traffic_cycles(stats)) == 15.0


# -- the campaign contract ---------------------------------------------------


class TestCampaign:
    @given(kind=st.sampled_from(FAULT_KINDS),
           model_kind=st.sampled_from(("nsf", "segmented")),
           trigger=st.integers(min_value=100, max_value=2200))
    @settings(max_examples=30, deadline=None)
    def test_protection_never_silent(self, kind, model_kind, trigger):
        record = run_single(kind, model_kind, "ecc", trigger,
                            scale=0.15, seed=3)
        assert record["outcome"] != "silent", record

    def test_campaign_is_deterministic(self):
        first = run_campaign(scale=0.3, seed=7)
        second = run_campaign(scale=0.3, seed=7)
        assert first == second


# -- the forked campaign ------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: counts ``os.fork`` calls, and leaves an unflushed line in stdout's
#: buffer plus an atexit hook: a child that returned into this script
#: instead of leaving through ``os._exit`` would print either again
FORK_PRELUDE = """
import atexit, json, os, sys
from repro.core.faults import FAULT_KINDS
from repro.evalx import resilience as r

MAIN = os.getpid()
forks = 0
_fork = os.fork

def counting_fork():
    global forks
    forks += 1
    return _fork()

os.fork = counting_fork
atexit.register(lambda: print("atexit", os.getpid()))
sys.stdout.write("buffered before any fork\\n")
out = {}


def against_run_single(records, scale, seed, triggers):
    wscale = r._workload_scale(scale)
    return [list(key) for key, record in sorted(records.items())
            if record != r.run_single(key[0], key[1], key[2],
                                      triggers[key[3]], scale=wscale,
                                      seed=seed)]
"""


def _forked(body):
    """Run ``body`` after :data:`FORK_PRELUDE` in a fresh interpreter.

    pytest has loaded NumPy, whose BLAS pool sends the campaign in this
    process to ``run_single``; a fresh interpreter has one thread.
    Returns the dict ``out`` that ``body`` filled, with ``forks``.
    """
    code = FORK_PRELUDE + textwrap.dedent(body) + (
        "\nout['forks'] = forks\nout['pid'] = MAIN"
        "\nprint(json.dumps(out))\n")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    # one copy of the buffered line and one atexit hook, the script's
    assert len(lines) == 3, lines
    assert lines[0] == "buffered before any fork"
    out = json.loads(lines[1])
    assert lines[2] == f"atexit {out['pid']}"
    return out


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the forked campaign needs os.fork")


@needs_fork
class TestForkedCampaign:
    def test_every_record_matches_run_single(self):
        out = _forked("""
            for scale, seed in ((0.35, 11), (0.3, 7)):
                records, served = r._campaign_records(
                    scale, seed, FAULT_KINDS, r.CAMPAIGN_MODELS,
                    r.CAMPAIGN_PROTECTION)
                out[f"{scale}/{seed}"] = {
                    "runs": len(records), "served": served,
                    "mismatched": against_run_single(
                        records, scale, seed, r.campaign_triggers(seed)),
                }
        """)
        assert out["forks"] == 240
        for point in ("0.35/11", "0.3/7"):
            assert out[point] == {
                "runs": 120, "mismatched": [],
                "served": "120 of 120 runs forked from 4 shared prefixes",
            }

    def test_a_second_thread_sends_every_run_to_run_single(self):
        out = _forked("""
            import _thread, threading

            def serve():
                return r._serve_campaign(
                    0.3, 7, kinds=("stale_read", "stuck_line"),
                    models=("nsf",))

            forked, served = serve()
            out["forked"] = {"served": served, "forks": forks}
            release = threading.Event()
            thread = threading.Thread(target=release.wait)
            thread.start()
            cells, served = serve()
            out["threading"] = {"same": cells == forked, "served": served,
                                "forks": forks}
            release.set()
            thread.join()
            if os.path.isdir("/proc/self/task"):
                # a thread the threading module never hears of
                hold = _thread.allocate_lock()
                hold.acquire()
                _thread.start_new_thread(hold.acquire, ())
                cells, served = serve()
                out["os"] = {"same": cells == forked, "served": served,
                             "forks": forks,
                             "known": threading.active_count()}
                hold.release()
        """)
        runs = "0 of 12 runs forked: run_single (2 threads)"
        assert out["forked"] == {
            "served": "12 of 12 runs forked from 2 shared prefixes",
            "forks": 12}
        assert out["threading"] == {"same": True, "served": runs,
                                    "forks": 12}
        if "os" in out:
            assert out["os"] == {"same": True, "served": runs, "forks": 12,
                                 "known": 1}

    @pytest.mark.parametrize("failure, message", [
        ("raise LookupError('planted')", "raised LookupError: planted"),
        ("os.kill(os.getpid(), signal.SIGKILL)",
         f"died without a record (killed by signal {signal.SIGKILL:d})"),
    ], ids=["raises", "sigkilled"])
    def test_a_failed_child_fails_the_campaign(self, failure, message):
        out = _forked(f"""
            import signal
            from repro.core.faults import FaultyRegisterFile

            fires = FaultyRegisterFile._fires

            def failing(self, kind):
                if (self.kind == "corrupt_write"
                        and self.operations >= self.trigger_at):
                    {failure}
                return fires(self, kind)

            FaultyRegisterFile._fires = failing
            try:
                r.run_campaign(0.3, 7, kinds=("drop_write", "corrupt_write"),
                               models=("segmented",), protection=("off",))
            except r.ForkedRunError as exc:
                out["error"] = str(exc)
            try:
                os.waitpid(-1, os.WNOHANG)
                out["children_left"] = True
            except ChildProcessError:
                out["children_left"] = False
            out["first"] = r.campaign_triggers(7)[0]
        """)
        assert out["error"] == (f"forked run (corrupt_write, trigger "
                                f"{out['first']}) {message}")
        assert out["children_left"] is False
        assert out["forks"] > 0

    def test_duplicate_and_unreached_triggers_match_run_single(self):
        out = _forked("""
            triggers = [0, 300, 300, 10 ** 6]
            r.campaign_triggers = lambda seed, count=3: triggers
            records, served = r._campaign_records(
                0.3, 7, ("flip_read_bit", "stuck_line", "stale_read"),
                ("nsf",), ("ecc",))
            out["served"] = served
            out["mismatched"] = against_run_single(records, 0.3, 7,
                                                   triggers)
        """)
        assert out["served"] == "9 of 12 runs forked from 1 shared prefix"
        assert out["mismatched"] == []
        assert out["forks"] == 9


# -- wrapper drop-in satellites ----------------------------------------------


class TestWrapperDropIn:
    def test_dunder_protocols_forwarded(self):
        inner = NamedStateRegisterFile(num_registers=8, context_size=8)
        for model in (FaultyRegisterFile(inner, "corrupt_write",
                                         trigger_at=10 ** 9),
                      ProtectedRegisterFile(inner)):
            cid = model.begin_context()
            model.switch_to(cid)
            model.write(0, 1)
            model.write(1, 2)
            assert cid in model
            assert cid + 1 not in model
            assert len(model) == len(inner) == 2
            assert list(model) == list(inner) == [cid]
            model.end_context(cid)

    def test_free_register_evicts_phantom_history(self):
        # A freed register's tracked values must not leak into a later
        # incarnation of the same (cid, offset): stale_read used to fire
        # against the phantom previous value.
        inner = NamedStateRegisterFile(num_registers=8, context_size=8)
        model = FaultyRegisterFile(inner, "stale_read", trigger_at=0)
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 5)
        model.write(0, 9)
        model.free_register(0)
        model.write(0, 7)  # a new life for register 0
        assert model.read(0)[0] == 7  # no phantom 5/9 from the old life
        assert not model.injected
        model.write(0, 8)
        assert model.read(0)[0] == 7  # genuine staleness still injects
        assert model.injected
