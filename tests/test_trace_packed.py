"""Packed trace representation and binary serialization.

The flat ``array``-backed event store must be indistinguishable from
the old tuple list through every public surface (iteration, counts,
text format), and the struct-packed binary format must round-trip any
trace — including values outside int64 — while rejecting malformed
input with :class:`TraceFormatError` rather than garbage results.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import Trace, TracingRegisterFile, replay
from repro.trace.events import (
    INT64_MAX,
    INT64_MIN,
    OP_READ,
    OP_WRITE,
    TraceFormatError,
    WIDE_VALUE,
)
from repro.core import NamedStateRegisterFile


def _sample_trace(context_size=4):
    trace = Trace(context_size=context_size)
    trace.append("B", 1)
    trace.append("S", 1)
    trace.append("W", 1, 0, 42)
    trace.append("T", 0, 0, 1)
    trace.append("R", 1, 0)
    trace.append("F", 1, 0)
    trace.append("E", 1)
    return trace


# -- packed storage behaves like the tuple list ----------------------------


def test_iteration_yields_str_op_tuples():
    trace = _sample_trace()
    events = list(trace)
    assert events[0] == ("B", 1, 0, 0)
    assert events[2] == ("W", 1, 0, 42)
    assert all(isinstance(op, str) for op, _, _, _ in events)


def test_events_property_matches_iteration():
    trace = _sample_trace()
    assert trace.events == list(trace)


def test_append_accepts_int_and_str_opcodes():
    a = Trace(context_size=2)
    b = Trace(context_size=2)
    a.append("R", 1, 3)
    b.append(OP_READ, 1, 3)
    assert a == b


def test_legacy_tuple_list_constructor():
    events = [("B", 7, 0, 0), ("W", 7, 2, -5), ("E", 7, 0, 0)]
    trace = Trace(events=events, context_size=4)
    assert list(trace) == events


def test_wide_values_survive_packing():
    trace = Trace(context_size=2)
    big = 1 << 80
    trace.append("W", 1, 0, big)
    trace.append("W", 1, 1, -(1 << 70))
    assert list(trace) == [("W", 1, 0, big), ("W", 1, 1, -(1 << 70))]


def test_int64_boundaries_stay_inline():
    trace = Trace(context_size=2)
    trace.append("W", 1, 0, INT64_MAX)
    trace.append("W", 1, 1, INT64_MIN)
    data, wide = trace.packed()
    # INT64_MIN is the wide sentinel but, stored literally with an
    # empty side table, still reads back as itself
    assert not wide or 1 not in wide
    assert list(trace)[0][3] == INT64_MAX
    assert list(trace)[1][3] == INT64_MIN


# -- binary <-> text round trips --------------------------------------------


def test_binary_round_trip():
    trace = _sample_trace()
    assert Trace.loads_binary(trace.dumps_binary()) == trace


def test_text_round_trip():
    trace = _sample_trace()
    assert Trace.loads(trace.dumps()) == trace


def test_binary_and_text_agree():
    trace = _sample_trace()
    via_binary = Trace.loads_binary(trace.dumps_binary())
    via_text = Trace.loads(trace.dumps())
    assert via_binary == via_text


def test_load_autodetects_format(tmp_path):
    trace = _sample_trace()
    binary = tmp_path / "t.bin"
    text = tmp_path / "t.txt"
    trace.dump(binary, binary=True)
    trace.dump(text)
    assert Trace.load(binary) == trace
    assert Trace.load(text) == trace


_random_events = st.lists(
    st.tuples(
        st.sampled_from(["B", "E", "S", "R", "W", "F", "T"]),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=31),
        st.one_of(
            st.integers(min_value=-(1 << 70), max_value=1 << 70),
            st.just(WIDE_VALUE),
            st.just(INT64_MAX),
        ),
    ),
    max_size=120,
)


@given(events=_random_events)
@settings(max_examples=80, deadline=None)
def test_binary_round_trip_random(events):
    trace = Trace(context_size=32)
    for op, cid, offset, value in events:
        trace.append(op, cid, offset, value)
    recovered = Trace.loads_binary(trace.dumps_binary())
    assert recovered == trace
    assert list(recovered) == list(trace)


@given(events=_random_events)
@settings(max_examples=40, deadline=None)
def test_text_round_trip_random(events):
    trace = Trace(context_size=32)
    for op, cid, offset, value in events:
        trace.append(op, cid, offset, value)
    assert Trace.loads(trace.dumps()) == trace


# -- malformed input ---------------------------------------------------------


def _corrupt(payload, **replacements):
    return payload


@pytest.mark.parametrize("mangle", [
    lambda raw: raw[:10],                          # truncated header
    lambda raw: b"XXXX" + raw[4:],                 # wrong magic
    lambda raw: raw[:4] + b"\xff" + raw[5:],       # unknown version
    lambda raw: raw[:-8],                          # truncated payload
    lambda raw: raw + b"trailing",                 # trailing bytes
    lambda raw: b"",                               # empty
])
def test_malformed_binary_raises(mangle):
    raw = _sample_trace().dumps_binary()
    with pytest.raises(TraceFormatError):
        Trace.loads_binary(mangle(raw))


def test_malformed_binary_bad_opcode():
    trace = _sample_trace()
    data, _ = trace.packed()
    data[0] = 99
    with pytest.raises(TraceFormatError):
        Trace.loads_binary(trace.dumps_binary())


def test_malformed_text_raises():
    with pytest.raises(TraceFormatError):
        Trace.loads("ctx 4\nQ 1 2 3\n")


# -- replay over the packed store -------------------------------------------


def _recorded(workload_ops):
    tracer = TracingRegisterFile(
        NamedStateRegisterFile(num_registers=16, context_size=4)
    )
    workload_ops(tracer)
    return tracer.trace


def _exercise(rf):
    a = rf.begin_context()
    rf.switch_to(a)
    for i in range(4):
        rf.write(i, i * 10)
    rf.tick(3)
    b = rf.begin_context()
    rf.switch_to(b)
    rf.write(0, 7)
    assert rf.read(0)[0] == 7
    rf.free_register(0)
    rf.end_context(b)
    rf.switch_to(a)
    assert rf.read(2)[0] == 20
    rf.end_context(a)


def test_replay_verified_matches_recorded_values():
    trace = _recorded(_exercise)
    model = NamedStateRegisterFile(num_registers=16, context_size=4)
    replay(trace, model, verify=True)
    assert model.stats.reads == trace.counts()["R"]


def test_replay_fast_and_verified_same_stats():
    trace = _recorded(_exercise)
    fast = NamedStateRegisterFile(num_registers=16, context_size=4)
    checked = NamedStateRegisterFile(num_registers=16, context_size=4)
    replay(trace, fast, verify=False)
    replay(trace, checked, verify=True)
    assert fast.stats.snapshot() == checked.stats.snapshot()


def test_replay_wide_values():
    trace = Trace(context_size=4)
    big = 1 << 90
    trace.append("B", 1)
    trace.append("S", 1)
    trace.append("W", 1, 0, big)
    trace.append("R", 1, 0)
    model = NamedStateRegisterFile(num_registers=16, context_size=4)
    replay(trace, model, verify=True)
    assert model.read(0, cid=1)[0] == big
