"""The stack-distance oracle equals event-exact replay, everywhere.

Event replay is the one reference: every table the oracle serves is
checked against the snapshot an event replay leaves on the same model.
Three rings of evidence:

* **Golden workloads.** For every recorded workload trace the paper's
  sweeps replay, :func:`capacity_tables` and :func:`segmented_tables`
  must reproduce every statistic of an event-exact replay at every
  capacity on a grid straddling the trace's peak demand — including
  the sub-peak region where real evictions happen — for one-register
  NSF lines and both segmented spill modes, all with LRU victims.
* **Sweep parity.** A sweep run under the oracle engine (closed form
  and tables inside a :func:`~repro.evalx.common.capacity_plan`, event
  replay for every cell they do not serve) returns byte-identical
  stats snapshots to :func:`repro.trace.replay.sweep`, including
  configurations (FIFO, NMRU, wider lines) and trace shapes
  (negative or huge context ids, out-of-range offsets) only event
  replay serves.
* **Random traces.** Hypothesis generates arbitrary BEGIN / END /
  read / write / FREE interleavings, and the tables must match replay
  at every tiny capacity and hold the Mattson monotonicity invariant;
  oracle-engine sweeps of any design must match event sweeps.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NamedStateRegisterFile, SegmentedRegisterFile
from repro.errors import RegisterRangeError
from repro.evalx import common
from repro.evalx.common import make_nsf
from repro.trace import columnar, oracle
from repro.trace.events import (
    FREE,
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_WRITE,
    Trace,
)
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import replay, sweep

#: (workload name, recording scale) — the golden sweeps' workloads
GOLDEN_WORKLOADS = [
    ("CompiledSuite", 0.4),
    ("GateSim", 0.15),
    ("Gamteb", 0.1),
]


def _record(name, scale):
    from repro import workloads

    workload = getattr(workloads, name)()
    recorder = TracingRegisterFile(make_nsf(workload))
    workload.run(recorder, scale=scale, seed=1)
    return workload, recorder.trace


@pytest.fixture(scope="module", params=GOLDEN_WORKLOADS,
                ids=[name for name, _ in GOLDEN_WORKLOADS])
def recorded(request):
    return _record(*request.param)


def _capacity_grid(trace):
    """Capacities straddling the trace's peak register demand."""
    analysis = columnar.analyze(trace)
    peak = analysis.peak_lines if analysis else 40
    grid = {max(1, peak // 4), max(1, peak // 2), peak - 1, peak,
            peak + 1, peak + 25}
    return sorted(c for c in grid if c >= 1)


def _nsf(trace, lines, **kw):
    """A fresh NSF of ``lines`` one-register lines for ``trace``'s
    contexts."""
    return NamedStateRegisterFile(
        num_registers=lines, context_size=trace.context_size, **kw)


def _seg(trace, frames, **kw):
    """A fresh segmented file of ``frames`` frames for ``trace``'s
    contexts."""
    ctx = trace.context_size
    return SegmentedRegisterFile(num_registers=frames * ctx,
                                 context_size=ctx, **kw)


def _snapshot(model):
    return (model.stats.snapshot(), model.backing.words_stored,
            model.backing.words_loaded)


def _event_model(trace, lines, **kw):
    model = _nsf(trace, lines, **kw)
    replay(trace, model, verify=False)
    return model


def _tabled(patch, model):
    """``model``'s snapshot once one table patch is applied to it."""
    return _snapshot(oracle.apply_table(patch, model))


def _assert_tables_match_replay(trace, grid):
    tables = oracle.capacity_tables(trace, grid)
    assert sorted(tables) == sorted(set(grid))
    for cap in grid:
        want = _snapshot(_event_model(trace, cap))
        got = _tabled(tables[cap], _nsf(trace, cap))
        assert got == want, f"cap={cap}"


def _oracle_sweep(trace, factory, configurations):
    """Each configuration's stats as the oracle engine leaves them, the
    sweep's register budgets announced as its capacity plan."""
    models = [factory(**config) for config in configurations]
    plan = [model.num_registers for model in models]
    with mock.patch.dict("os.environ", {columnar.ENV_ENGINE: "oracle"}), \
            common.capacity_plan(plan):
        for model in models:
            common._replay(trace, model)
    return [(config, model.stats)
            for config, model in zip(configurations, models)]


def test_curves_match_event_replay_on_golden_workloads(recorded):
    """Every capacity's table equals an event replay's full snapshot."""
    _, trace = recorded
    _assert_tables_match_replay(trace, _capacity_grid(trace))


def test_tables_match_event_snapshots_on_golden_workloads(recorded):
    """Full-snapshot parity deep below the peak, where most accesses
    miss: every stats field, not just the curve."""
    _, trace = recorded
    grid = sorted({max(1, c // 2) for c in _capacity_grid(trace)})
    tables = oracle.capacity_tables(trace, grid)
    for cap in grid:
        model = _event_model(trace, cap)
        synth = oracle.apply_table(tables[cap], _nsf(trace, cap))
        assert synth.stats.snapshot() == model.stats.snapshot(), (
            f"cap={cap}")
        assert synth.backing.words_stored == model.backing.words_stored
        assert synth.backing.words_loaded == model.backing.words_loaded


def test_segmented_tables_match_event_replay(recorded):
    """The segmented-frame oracle in both spill modes."""
    _, trace = recorded
    ctx = trace.context_size
    frames = [1, 2, 4, 8]
    for spill_mode in ("frame", "live"):
        tables = oracle.segmented_tables(trace, frames,
                                         spill_mode=spill_mode)
        for nf in frames:
            model = _seg(trace, nf, spill_mode=spill_mode)
            replay(trace, model, verify=False)
            synth = _seg(trace, nf, spill_mode=spill_mode)
            oracle.apply_table(tables[nf], synth)
            assert synth.stats.snapshot() == model.stats.snapshot(), (
                f"{spill_mode} frames={nf}")
            assert synth.backing.words_stored == \
                model.backing.words_stored
            assert synth.backing.words_loaded == \
                model.backing.words_loaded


def test_vector_kernel_matches_scalar_walk(recorded):
    """The NumPy windowed-stack kernel prices every capacity exactly as
    the scalar event walk (``replay``) counts it, field by field, on
    one grid of capacities."""
    from repro.trace import vector

    _, trace = recorded
    grid = _capacity_grid(trace)
    shared, percap = vector.lru_scan(trace, grid, 4)
    for cap in grid:
        model = _event_model(trace, cap)
        stats = model.stats
        for field, value in shared.items():
            assert value == getattr(stats, field), f"cap={cap}: {field}"
        for field, value in percap[cap].items():
            want = (getattr(model.backing, field)
                    if field.startswith("words_")
                    else getattr(stats, field))
            assert value == want, f"cap={cap}: {field}"


def test_curves_cost_one_pass_regardless_of_grid(recorded):
    """A capacity's table entry does not depend on the grid the one
    pass priced it with."""
    _, trace = recorded
    few = oracle.capacity_tables(trace, [8, 40])
    many = oracle.capacity_tables(trace, range(1, 121))
    for capacity, point in few.items():
        assert many[capacity] == point


def test_oracle_sweep_matches_event_sweep(recorded):
    workload, trace = recorded
    analysis = columnar.analyze(trace)
    peak = analysis.peak_lines if analysis else 40
    ctx = trace.context_size

    def factory(num_registers, policy):
        return NamedStateRegisterFile(
            num_registers=num_registers, context_size=ctx,
            line_size=1, policy=policy, policy_seed=3)

    configurations = [
        {"num_registers": n, "policy": policy}
        for n in (max(2, peak // 2), peak, peak + 40)
        for policy in ("lru", "fifo", "nmru")
    ]
    expected = sweep(trace, factory, configurations, verify=False)
    got = _oracle_sweep(trace, factory, configurations)
    assert [config for config, _ in got] == \
        [config for config, _ in expected]
    for (_, got_stats), (_, want_stats) in zip(got, expected):
        assert got_stats.snapshot() == want_stats.snapshot()


def test_unsupported_traces_raise():
    trace = Trace(context_size=4)
    trace.append(OP_BEGIN, 1)
    trace.append(OP_WRITE, 1, 0, 7)
    trace.append(OP_READ, 1, 1, 0)  # cold read: demand-reload regime
    with pytest.raises(oracle.OracleUnsupported):
        oracle.capacity_tables(trace, [4])

    wide = Trace(context_size=4)
    wide.append(OP_BEGIN, 1)
    wide.append_wide(OP_WRITE, 1, 0, 1 << 80)
    with pytest.raises(oracle.OracleUnsupported):
        oracle.capacity_tables(wide, [4])

    with pytest.raises(oracle.OracleUnsupported):
        oracle.capacity_tables(Trace(context_size=4), [])

    freed = Trace(context_size=4)
    freed.append(OP_BEGIN, 1)
    freed.append(OP_WRITE, 1, 0, 7)
    freed.append(OP_FREE, 1, 0)  # a FREE is an exact deletion
    assert oracle.capacity_tables(freed, [4])[4]["write_misses"] == 1

    # only the families admit() grants have a scan
    for family in (("nsf", 2, "lru", 4), ("nsf", 1, "fifo", 4),
                   ("seg", "live", "fifo", 4)):
        assert oracle.scan_tables(freed, family, [4]) is None


def _two_contexts(cid, offset):
    """Two contexts ``cid`` and ``cid + 1`` writing registers 0 and
    ``offset`` and reading them back, so a two-line file evicts."""
    trace = Trace(context_size=4)
    for c in (cid, cid + 1):
        trace.append(OP_BEGIN, c)
        trace.append(OP_WRITE, c, 0, c)
        trace.append(OP_WRITE, c, offset, c + 1)
    for c in (cid, cid + 1):
        trace.append(OP_READ, c, 0, 0)
        trace.append(OP_READ, c, offset, 0)
        trace.append(OP_END, c)
    return trace


def _outcome(drive, model):
    """``model``'s snapshot after ``drive(model)``, or the type of the
    error it raised."""
    try:
        drive(model)
    except Exception as exc:
        return type(exc)
    return model.stats.snapshot()


@pytest.mark.parametrize("shape", ["negative-cid", "offset-out-of-range",
                                   "cid-overflows-composite-key"])
def test_unkeyable_traces_fall_back_to_event_replay(shape):
    """The shapes the kernel's composite keying cannot represent are
    refused by every scan, and under the oracle engine their cells
    replay exactly as the event engine does, on either file."""
    trace = {
        "negative-cid": lambda: _two_contexts(-5, 1),
        "offset-out-of-range": lambda: _two_contexts(1, 5),
        "cid-overflows-composite-key": lambda: _two_contexts(1 << 60, 1),
    }[shape]()
    for family in (("nsf", 1, "lru", 4), ("seg", "frame", "lru", 4)):
        assert oracle.scan_tables(trace, family, [1, 2]) is None

    def oracle_cell(model):
        _oracle_sweep(trace, lambda: model, [{}])

    for build in (lambda: _nsf(trace, 2), lambda: _nsf(trace, 4),
                  lambda: _seg(trace, 1), lambda: _seg(trace, 2)):
        want = _outcome(lambda model: replay(trace, model, verify=False),
                        build())
        assert _outcome(oracle_cell, build()) == want
        if shape == "offset-out-of-range":
            assert want is RegisterRangeError


# -- hypothesis: random traces -------------------------------------------

CTX = 4


@st.composite
def random_traces(draw):
    """A valid BEGIN/END/read/write/FREE interleaving over a tiny
    space — END and ``rfree`` churn drives the deletions-as-holes
    paths of the stack scan."""
    trace = Trace(context_size=CTX)
    live = {}
    opened = []
    next_cid = 0
    for _ in range(draw(st.integers(2, 40))):
        kinds = ["begin"]
        if opened:
            kinds += ["write"] * 4 + ["end", "free"]
            if any(live[cid] for cid in opened):
                kinds += ["read"] * 4
        kind = draw(st.sampled_from(kinds))
        if kind == "begin":
            cid = next_cid
            next_cid += 1
            trace.append(OP_BEGIN, cid)
            live[cid] = set()
            opened.append(cid)
        elif kind == "write":
            cid = draw(st.sampled_from(opened))
            offset = draw(st.integers(0, CTX - 1))
            trace.append(OP_WRITE, cid, offset,
                         draw(st.integers(0, 99)))
            live[cid].add(offset)
        elif kind == "read":
            cid = draw(st.sampled_from(
                [c for c in opened if live[c]]))
            offset = draw(st.sampled_from(sorted(live[cid])))
            trace.append(OP_READ, cid, offset, 0)
        elif kind == "free":
            # freeing a never-written offset is a legal no-op
            cid = draw(st.sampled_from(opened))
            offset = draw(st.integers(0, CTX - 1))
            trace.append(OP_FREE, cid, offset)
            live[cid].discard(offset)
        else:
            cid = draw(st.sampled_from(opened))
            trace.append(OP_END, cid)
            opened.remove(cid)
            del live[cid]
    return trace


def _without_frees(trace):
    return Trace([event for event in trace if event[0] != FREE],
                 context_size=trace.context_size)


@settings(max_examples=80, deadline=None)
@given(random_traces())
def test_curves_match_replay_on_random_traces(trace):
    _assert_tables_match_replay(trace, list(range(1, 10)))


@settings(max_examples=80, deadline=None)
@given(random_traces())
def test_curves_are_monotone_in_capacity(trace):
    capacities = list(range(1, 12))
    tables = oracle.capacity_tables(trace, capacities)
    for small, big in zip(capacities, capacities[1:]):
        for field in ("read_misses", "write_misses",
                      "registers_spilled", "registers_reloaded"):
            assert tables[small][field] >= tables[big][field]


@settings(max_examples=40, deadline=None)
@given(random_traces(), st.sampled_from((1, 2)),
       st.sampled_from(("lru", "fifo")))
def test_oracle_sweep_matches_replay_on_random_traces(trace, line_size,
                                                      policy):
    """Every design, served or replayed: the tables price line size 1
    with LRU, and event replay every other cell."""

    def factory(num_registers):
        return NamedStateRegisterFile(
            num_registers=num_registers, context_size=CTX,
            line_size=line_size, policy=policy)

    configurations = [{"num_registers": n} for n in (2, 6, 64)]
    expected = sweep(trace, factory, configurations, verify=False)
    got = _oracle_sweep(trace, factory, configurations)
    for (_, got_stats), (_, want_stats) in zip(got, expected):
        assert got_stats.snapshot() == want_stats.snapshot()
