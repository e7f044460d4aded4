"""Fault injection: no corruption may produce a silently wrong answer.

The library's design premise is that register files carry live program
data, so a model bug either (a) is caught by a verification layer —
the activation machine's shadow check, strict-mode read faults, or the
workload's output check — or (b) was provably harmless (the corrupted
value was never consumed) and the final answer is still correct.
*Silently wrong output is never allowed.*
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.activation.machine import GuestFault
from repro.core import NamedStateRegisterFile, SegmentedRegisterFile
from repro.core.faults import FAULT_KINDS, FaultConfigError, FaultyRegisterFile
from repro.errors import ReproError
from repro.workloads import get_workload

TRIGGERS = (300, 900, 1700, 2600)


def faulty(kind, trigger_at, registers=80):
    inner = NamedStateRegisterFile(num_registers=registers,
                                   context_size=20)
    return FaultyRegisterFile(inner, kind, trigger_at=trigger_at)


def outcome_of(kind, trigger_at, registers=80, verify_values=True):
    """Classify one injected run.

    ``detected-early`` — a verification layer raised mid-run;
    ``detected-by-output`` — the final checksum was wrong (the default
    ``check=True`` contract turns this into an exception for users);
    ``harmless`` — the corrupted value was never consumed and the
    answer is still correct.
    """
    workload = get_workload("GateSim")
    model = faulty(kind, trigger_at, registers=registers)
    try:
        result = workload.run(model, scale=0.3, seed=3, check=False,
                              verify_values=verify_values)
    except (ReproError, AssertionError):
        return "detected-early"
    return "harmless" if result.verified else "detected-by-output"


class TestWrapper:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultConfigError):
            faulty("bitflip", 1)

    def test_transparent_before_trigger(self):
        model = faulty("corrupt_write", trigger_at=10 ** 9)
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 5)
        assert model.read(0)[0] == 5
        assert not model.injected

    def test_injects_exactly_once(self):
        model = faulty("corrupt_write", trigger_at=0)
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 5)      # corrupted (+1)
        model.write(1, 7)      # clean
        assert model.injected
        assert model.read(0)[0] == 6
        assert model.read(1)[0] == 7

    def test_stale_read_waits_for_observable_staleness(self):
        model = faulty("stale_read", trigger_at=0)
        cid = model.begin_context()
        model.switch_to(cid)
        model.write(0, 5)
        assert model.read(0)[0] == 5      # no previous value yet
        assert not model.injected
        model.write(0, 9)
        assert model.read(0)[0] == 5      # the stale value
        assert model.injected


class TestNoSilentWrongAnswers:
    """With the default ``check=True``, a user can never silently
    receive a wrong answer: every run here either raises or verifies.
    """

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("trigger_at", TRIGGERS)
    def test_contract_with_shadow_checking(self, kind, trigger_at):
        registers = 8 if kind == "lose_spill" else 80
        workload = get_workload("GateSim")
        model = faulty(kind, trigger_at, registers=registers)
        try:
            result = workload.run(model, scale=0.3, seed=3)
        except (ReproError, AssertionError):
            return  # detected — contract satisfied
        assert result.verified  # or it was harmless

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_contract_without_shadow_checking(self, kind):
        registers = 8 if kind == "lose_spill" else 80
        workload = get_workload("GateSim")
        model = faulty(kind, 900, registers=registers)
        try:
            result = workload.run(model, scale=0.3, seed=3,
                                  verify_values=False)
        except (ReproError, AssertionError):
            return
        assert result.verified

    @pytest.mark.parametrize("kind", ["corrupt_write", "drop_write"])
    def test_output_check_catches_shadowless_corruption(self, kind):
        # With the shadow off, *something* across the trigger sweep
        # must flow through to a wrong (caught) checksum — proving the
        # output verification is load-bearing, not decorative.
        outcomes = {
            outcome_of(kind, t, verify_values=False) for t in TRIGGERS
        }
        assert "detected-by-output" in outcomes or \
            "detected-early" in outcomes


class TestFaultsAreActuallyCaught:
    """The machinery must not be vacuous: faults do get detected."""

    def test_value_corruptions_detected_by_shadow(self):
        outcomes = {outcome_of("corrupt_reload", t) for t in TRIGGERS}
        assert "detected-early" in outcomes

    def test_stale_reads_detected_by_shadow(self):
        outcomes = {outcome_of("stale_read", t) for t in TRIGGERS}
        assert "detected-early" in outcomes

    def test_write_corruptions_detected(self):
        outcomes = {outcome_of("corrupt_write", t) for t in TRIGGERS}
        assert "detected-early" in outcomes

    def test_lost_spills_detected_under_pressure(self):
        outcomes = {
            outcome_of("lose_spill", t, registers=8) for t in TRIGGERS
        }
        assert "detected-early" in outcomes

    def test_shadow_detection_is_a_guest_fault(self):
        workload = get_workload("GateSim")
        model = faulty("corrupt_reload", 900)
        with pytest.raises(GuestFault):
            workload.run(model, scale=0.3, seed=3)

    def test_clean_run_passes_for_contrast(self):
        workload = get_workload("GateSim")
        model = faulty("corrupt_write", trigger_at=10 ** 12)
        result = workload.run(model, scale=0.3, seed=3)
        assert result.verified
        assert not model.injected


# -- the one guard: a pass-through until the fault lands ----------------------

#: ``(operation, register, value)`` over three 4-register contexts on
#: a file too small for them, so spills and reloads (clean copies) are
#: plentiful; reads and frees pick among the registers written so far
wrapped_ops = st.lists(
    st.tuples(st.sampled_from(["write", "write", "read", "read", "read",
                               "switch", "free", "tick"]),
              st.integers(0, 11), st.integers(-40, 40)),
    min_size=20, max_size=150)

TWIN_MODELS = {
    "nsf": lambda: NamedStateRegisterFile(num_registers=4, context_size=4),
    "segmented": lambda: SegmentedRegisterFile(num_registers=8,
                                               context_size=4),
}


def _apply(model, op, cids, live):
    """One operation's outcome: its return value, or the name of the
    error it raised (a register a fault killed raises on both sides)."""
    kind, register, value = op
    if kind in ("read", "free"):
        if not live:
            return None
        register = live[register % len(live)]
    cid, offset = cids[register // 4], register % 4
    try:
        if kind == "write":
            return model.write(offset, value, cid=cid)
        if kind == "read":
            return model.read(offset, cid=cid)
        if kind == "switch":
            return model.switch_to(cid)
        if kind == "free":
            return model.free_register(offset, cid=cid)
        return model.tick(value % 3 + 1)
    except ReproError as exc:
        return type(exc).__name__


def _track(op, live):
    """Keep ``live`` (the registers written and not freed) current."""
    kind, register, _ = op
    if kind == "write" and register not in live:
        live.append(register)
        live.sort()
    elif kind == "free" and live:
        live.remove(live[register % len(live)])


class TestOneGuard:
    """Driven beside a bare twin, the wrapper changes nothing before its
    fault lands, and nothing after it either (bar the hard fault that
    ``stuck_line`` keeps replaying): the fault lands exactly once."""

    @pytest.mark.parametrize("model_kind", sorted(TWIN_MODELS))
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(ops=wrapped_ops, trigger=st.integers(1, 40))
    def test_wrapper_matches_a_bare_twin(self, model_kind, kind, ops,
                                         trigger):
        build = TWIN_MODELS[model_kind]
        model = FaultyRegisterFile(build(), kind, trigger_at=trigger)
        twin = build()
        cids = [model.begin_context() for _ in range(3)]
        assert cids == [twin.begin_context() for _ in range(3)]
        live = []
        landed = False
        for op in ops:
            before = model.injected
            got = _apply(model, op, cids, live)
            expected = _apply(twin, op, cids, live)
            _track(op, live)
            if model.injected and not before:
                # the landing operation: take the twin to the faulted
                # state, which from here it must track exactly
                landed = True
                twin.restore(model.inner.capture())
                continue
            if landed and kind == "stuck_line":
                continue
            assert got == expected, (op, model.operations)
            assert model.stats == twin.stats, (op, model.operations)
