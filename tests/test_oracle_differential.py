"""The stack-distance oracle equals event-exact replay, everywhere.

Three rings of evidence:

* **Golden workloads.** For every recorded workload trace the paper's
  sweeps replay, :func:`capacity_curves` must reproduce the hit /
  spill / reload counters of an event-exact replay at every capacity
  on a grid straddling the trace's peak demand — including the
  sub-peak region where real evictions happen.
* **Sweep parity.** :func:`oracle_sweep` returns byte-identical stats
  snapshots to :func:`repro.trace.replay.sweep` across capacities and
  policies, including configurations (NMRU, FIFO) it can only serve by
  falling back to event replay.
* **Random traces.** Hypothesis generates arbitrary BEGIN / END /
  read / write interleavings and the curves must match replay at every
  tiny capacity, plus hold the Mattson monotonicity invariant.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NamedStateRegisterFile
from repro.evalx.common import make_nsf
from repro.trace import columnar, oracle
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_WRITE,
    Trace,
)
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import replay, sweep
from tests.conftest import FileLog

#: capacity-dependent stat fields the oracle predicts exactly
CURVE_FIELDS = (
    "reads", "writes", "read_hits", "read_misses", "write_hits",
    "write_misses", "registers_spilled", "lines_spilled",
    "live_registers_spilled", "registers_reloaded", "lines_reloaded",
    "live_registers_reloaded", "active_registers_reloaded",
    "raw_bytes_spilled", "wire_bytes_spilled", "raw_bytes_reloaded",
    "wire_bytes_reloaded",
)

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


def _event_model(trace, capacity, **kw):
    model = NamedStateRegisterFile(
        num_registers=capacity, context_size=trace.context_size,
        line_size=1, **kw)
    replay(trace, model, verify=False)
    return model


def test_curves_match_event_replay_on_golden_workloads(recorded):
    _, trace = recorded
    grid = _capacity_grid(trace)
    curves = oracle.capacity_curves(trace, grid)
    for capacity in grid:
        model = _event_model(trace, capacity)
        stats = model.stats
        for field in CURVE_FIELDS:
            assert curves[capacity][field] == getattr(stats, field), (
                f"capacity {capacity}: {field}")
        assert curves[capacity]["words_stored"] == \
            model.backing.words_stored
        assert curves[capacity]["words_loaded"] == \
            model.backing.words_loaded


def test_curves_match_event_replay_across_line_sizes_and_policies(
        recorded):
    """The design-space scan: line sizes x policies on every golden.

    Capacities are in *lines*; the grid straddles the trace's peak so
    sub-peak evictions, partial-line write allocates and line-granular
    valid masks are all exercised.
    """
    _, trace = recorded
    ctx = trace.context_size
    base = _capacity_grid(trace)
    for line_size in (1, 2, 4):
        grid = sorted({max(1, c // line_size) for c in base} | {1, 3})
        for policy in ("lru", "fifo"):
            curves = oracle.capacity_curves(
                trace, grid, line_size=line_size, policy=policy)
            for cap in grid:
                model = NamedStateRegisterFile(
                    num_registers=cap * line_size, context_size=ctx,
                    line_size=line_size, policy=policy)
                replay(trace, model, verify=False)
                for field in CURVE_FIELDS:
                    assert curves[cap][field] == \
                        getattr(model.stats, field), (
                            f"L={line_size} {policy} cap={cap}: "
                            f"{field}")
                assert curves[cap]["words_stored"] == \
                    model.backing.words_stored
                assert curves[cap]["words_loaded"] == \
                    model.backing.words_loaded


def test_tables_match_event_snapshots_on_golden_workloads(recorded):
    """Full-snapshot parity: every stats field, not just the curve."""
    _, trace = recorded
    ctx = trace.context_size
    grid = sorted({max(1, c // 2) for c in _capacity_grid(trace)})
    for policy in ("lru", "fifo"):
        tables = oracle.capacity_tables(trace, grid, line_size=2,
                                        policy=policy)
        for cap in grid:
            model = NamedStateRegisterFile(
                num_registers=cap * 2, context_size=ctx,
                line_size=2, policy=policy)
            replay(trace, model, verify=False)
            synth = NamedStateRegisterFile(
                num_registers=cap * 2, context_size=ctx,
                line_size=2, policy=policy)
            oracle.apply_table(tables[cap], synth)
            assert synth.stats.snapshot() == model.stats.snapshot(), (
                f"{policy} cap={cap}")
            assert synth.backing.words_stored == \
                model.backing.words_stored
            assert synth.backing.words_loaded == \
                model.backing.words_loaded


def test_segmented_tables_match_event_replay(recorded):
    """The segmented-frame oracle across spill modes and policies."""
    from repro.core import SegmentedRegisterFile

    _, trace = recorded
    ctx = trace.context_size
    frames = [1, 2, 4, 8]
    for spill_mode in ("frame", "live"):
        for policy in ("lru", "fifo"):
            tables = oracle.segmented_tables(
                trace, frames, spill_mode=spill_mode, policy=policy)
            for nf in frames:
                model = SegmentedRegisterFile(
                    num_registers=nf * ctx, context_size=ctx,
                    spill_mode=spill_mode, policy=policy)
                replay(trace, model, verify=False)
                synth = SegmentedRegisterFile(
                    num_registers=nf * ctx, context_size=ctx,
                    spill_mode=spill_mode, policy=policy)
                oracle.apply_table(tables[nf], synth)
                assert synth.stats.snapshot() == \
                    model.stats.snapshot(), (
                        f"{spill_mode} {policy} frames={nf}")
                assert synth.backing.words_stored == \
                    model.backing.words_stored
                assert synth.backing.words_loaded == \
                    model.backing.words_loaded


def test_vector_kernel_matches_scalar_walk(recorded):
    """The NumPy windowed-stack kernel is byte-identical to the
    pure-stdlib Fenwick walk (the no-NumPy fallback)."""
    from repro.trace import vector

    if not columnar.numpy_available():
        pytest.skip("NumPy unavailable: only the scalar walk runs")
    _, trace = recorded
    grid = _capacity_grid(trace)
    for line_size in (1, 2, 4):
        fast = vector.lru_scan(trace, grid, 4, line_size)
        assert fast is not None
        shared, percap = oracle._scan_lru(trace, grid, 4, line_size,
                                          tables=False)
        slow = {cap: {k: v for k, v in entry.items()
                      if k != "switch_misses"}
                for cap, entry in percap.items()}
        assert fast[0]["reads"] == shared["reads"]
        assert fast[0]["writes"] == shared["writes"]
        assert fast[1] == slow


def test_missing_numpy_degrades_to_scalar_walk(recorded, monkeypatch,
                                               tmp_path):
    """Without NumPy the oracle serves the whole capacity grid from one
    stdlib Fenwick walk, in place of the NumPy kernel and the closed
    form."""
    from repro.trace import vector

    _, trace = recorded
    grid = _capacity_grid(trace)
    ctx = trace.context_size
    # what the loader's import sees on a host without NumPy, even
    # though this process loaded it long ago
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(columnar, "_ANALYSES", {})
    monkeypatch.setattr(oracle, "_TABLE_MEMO", {})

    def kernel(*args, **kwargs):
        raise AssertionError("NumPy kernel ran with NumPy blocked")

    walks = FileLog(tmp_path / "walks.jsonl")
    scalar_walk = oracle._scan_lru

    def counted_walk(*args, **kwargs):
        walks.append(list(args[1]))
        return scalar_walk(*args, **kwargs)

    monkeypatch.setattr(vector, "lru_scan", kernel)
    monkeypatch.setattr(oracle, "_scan_lru", counted_walk)
    assert not columnar.numpy_available()
    assert columnar.analyze(trace) is None

    def factory(num_registers):
        return NamedStateRegisterFile(
            num_registers=num_registers, context_size=ctx, line_size=1)

    configurations = [{"num_registers": c} for c in grid]
    expected = sweep(trace, factory, configurations, verify=False)
    got = oracle.oracle_sweep(trace, factory, configurations)
    assert walks.records() == [grid]  # one walk priced every capacity
    for (_, got_stats), (_, want_stats) in zip(got, expected):
        assert got_stats.snapshot() == want_stats.snapshot()


def test_curves_cost_one_pass_regardless_of_grid(recorded):
    _, trace = recorded
    few = oracle.capacity_curves(trace, [8, 40])
    many = oracle.capacity_curves(trace, range(1, 121))
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
    got = oracle.oracle_sweep(trace, factory, configurations)
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
        oracle.capacity_curves(trace, [4])

    wide = Trace(context_size=4)
    wide.append(OP_BEGIN, 1)
    wide.append_wide(OP_WRITE, 1, 0, 1 << 80)
    with pytest.raises(oracle.OracleUnsupported):
        oracle.capacity_curves(wide, [4])

    with pytest.raises(oracle.OracleUnsupported):
        oracle.capacity_curves(Trace(context_size=4), [])

    freed = Trace(context_size=4)
    freed.append(OP_BEGIN, 1)
    freed.append(OP_WRITE, 1, 0, 7)
    freed.append(OP_FREE, 1, 0)  # line-granular FREE diverges per file
    with pytest.raises(oracle.OracleUnsupported):
        oracle.capacity_curves(freed, [4], line_size=2)
    # ... but at line_size 1 a FREE is an exact deletion
    assert oracle.capacity_curves(freed, [4])[4]["write_misses"] == 1


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


@settings(max_examples=80, deadline=None)
@given(random_traces())
def test_curves_match_replay_on_random_traces(trace):
    capacities = list(range(1, 10))
    curves = oracle.capacity_curves(trace, capacities)
    for capacity in capacities:
        stats = _event_model(trace, capacity).stats
        for field in CURVE_FIELDS:
            assert curves[capacity][field] == getattr(stats, field), (
                f"capacity {capacity}: {field}")


@settings(max_examples=80, deadline=None)
@given(random_traces())
def test_curves_are_monotone_in_capacity(trace):
    capacities = list(range(1, 12))
    curves = oracle.capacity_curves(trace, capacities)
    for small, big in zip(capacities, capacities[1:]):
        for field in ("read_misses", "write_misses",
                      "registers_spilled", "registers_reloaded"):
            assert curves[small][field] >= curves[big][field]


@settings(max_examples=40, deadline=None)
@given(random_traces())
def test_oracle_sweep_matches_replay_on_random_traces(trace):
    def factory(num_registers):
        return NamedStateRegisterFile(
            num_registers=num_registers, context_size=CTX, line_size=1)

    configurations = [{"num_registers": n} for n in (2, 5, 64)]
    expected = sweep(trace, factory, configurations, verify=False)
    got = oracle.oracle_sweep(trace, factory, configurations)
    for (_, got_stats), (_, want_stats) in zip(got, expected):
        assert got_stats.snapshot() == want_stats.snapshot()
