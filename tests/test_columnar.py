"""Columnar synthesis is byte-identical to scalar replay — state too.

The columnar engine may only differ from the event loop in speed:
inside the exactness boundary it must leave the *same statistics and
the same complete mutable state* (free-list order, policy order, CAM,
cid interning, ctable, current context) as ``replay(trace, model,
verify=False)``; outside the boundary it must visibly fall back.
"""

import sys

import pytest

from repro.evalx.common import make_nsf, run_workload
from repro.trace import cache as trace_cache, columnar
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_WRITE,
    Trace,
)
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import _dispatch_table, replay

pytestmark = pytest.mark.skipif(
    not columnar.numpy_available(),
    reason="columnar synthesis needs the numpy perf extra",
)


@pytest.fixture(scope="module")
def recorded():
    from repro.workloads import GateSim

    workload = GateSim()
    recorder = TracingRegisterFile(make_nsf(workload))
    workload.run(recorder, scale=0.15, seed=1)
    return workload, recorder.trace


def _pair(workload, trace, **kw):
    scalar = make_nsf(workload, **kw)
    fast = make_nsf(workload, **kw)
    replay(trace, scalar, verify=False)
    columnar.replay_columnar(trace, fast)
    return scalar, fast


def test_analysis_covers_recorded_workloads(recorded):
    _, trace = recorded
    analysis = columnar.analyze(trace)
    assert analysis is not None
    assert analysis.peak_lines > 0
    # memoized per trace object
    assert columnar.analyze(trace) is analysis


@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_synthesis_equals_scalar_replay(recorded, policy):
    workload, trace = recorded
    scalar, fast = _pair(workload, trace, policy=policy)
    assert columnar.apply_analysis(columnar.analyze(trace),
                                   make_nsf(workload, policy=policy))
    assert fast.stats.snapshot() == scalar.stats.snapshot()
    assert fast.capture() == scalar.capture()


def test_peak_boundary_is_exact(recorded):
    workload, trace = recorded
    peak = columnar.analyze(trace).peak_lines
    # at exactly peak lines synthesis still applies...
    assert columnar.apply_analysis(
        columnar.analyze(trace),
        make_nsf(workload, num_registers=peak))
    # ...one below, an eviction would happen: refuse
    assert not columnar.apply_analysis(
        columnar.analyze(trace),
        make_nsf(workload, num_registers=peak - 1))
    # and the engine silently falls back to the exact loop
    scalar, fast = _pair(workload, trace, num_registers=peak - 1)
    assert fast.stats.snapshot() == scalar.stats.snapshot()
    assert fast.capture() == scalar.capture()


def test_used_model_falls_back(recorded):
    workload, trace = recorded
    model = make_nsf(workload)
    model.begin_context(cid=901)
    model.write(0, 42, cid=901)
    assert not columnar.supported_model(model)
    assert not columnar.apply_analysis(columnar.analyze(trace), model)


def test_out_of_regime_models_fall_back(recorded):
    workload, trace = recorded
    for kw in ({"line_size": 2}, {"policy": "nmru"},
               {"fetch_on_write": True}, {"spill_watermark": 4}):
        assert not columnar.apply_analysis(
            columnar.analyze(trace), make_nsf(workload, **kw))
        scalar, fast = _pair(workload, trace, **kw)
        assert fast.stats.snapshot() == scalar.stats.snapshot()


def test_out_of_regime_traces_analyze_to_none():
    cold_read = Trace(context_size=4)
    cold_read.append(OP_BEGIN, 1)
    cold_read.append(OP_READ, 1, 0, 0)
    assert columnar.analyze(cold_read) is None

    freed = Trace(context_size=4)
    freed.append(OP_BEGIN, 1)
    freed.append(OP_WRITE, 1, 0, 5)
    freed.append(OP_FREE, 1, 0)
    assert columnar.analyze(freed) is None

    unbegun = Trace(context_size=4)
    unbegun.append(OP_WRITE, 7, 0, 5)
    assert columnar.analyze(unbegun) is None

    wide = Trace(context_size=4)
    wide.append(OP_BEGIN, 1)
    wide.append_wide(OP_WRITE, 1, 0, 1 << 90)
    assert columnar.analyze(wide) is None


def test_cid_reuse_is_synthesized_exactly():
    """Front-ends recycle cids; instances must keep lifetimes apart."""
    trace = Trace(context_size=4)
    for generation in range(3):
        trace.append(OP_BEGIN, 5)
        trace.append(OP_WRITE, 5, 0, generation)
        trace.append(OP_WRITE, 5, generation + 1, generation)
        trace.append(OP_READ, 5, 0, 0)
        trace.append(OP_END, 5)
    trace.append(OP_BEGIN, 5)
    trace.append(OP_WRITE, 5, 2, 99)

    analysis = columnar.analyze(trace)
    assert analysis is not None

    def fresh():
        from repro.core import NamedStateRegisterFile

        return NamedStateRegisterFile(num_registers=8, context_size=4,
                                      line_size=1)

    scalar, fast = fresh(), fresh()
    replay(trace, scalar, verify=False)
    columnar.replay_columnar(trace, fast)
    assert fast.stats.snapshot() == scalar.stats.snapshot()
    assert fast.capture() == scalar.capture()


def test_missing_numpy_degrades_to_scalar(recorded, monkeypatch):
    workload, trace = recorded
    # what the loader's import sees on a host without NumPy, even
    # though this process loaded it long ago
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(columnar, "_ANALYSES", {})
    assert not columnar.numpy_available()
    assert columnar.analyze(trace) is None
    scalar, fast = _pair(workload, trace)
    assert fast.stats.snapshot() == scalar.stats.snapshot()
    assert fast.capture() == scalar.capture()


def test_selected_engine_parsing(monkeypatch):
    monkeypatch.delenv(columnar.ENV_ENGINE, raising=False)
    assert columnar.selected_engine() == "event"
    monkeypatch.setenv(columnar.ENV_ENGINE, "Columnar ")
    assert columnar.selected_engine() == "columnar"
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracel")  # typo: default
    assert columnar.selected_engine() == "event"
    assert columnar.selected_engine(default="columnar") == "columnar"


@pytest.mark.parametrize("engine", ["columnar", "oracle"])
def test_run_workload_honors_engine_env(tmp_path, monkeypatch, engine):
    from repro.workloads import GateSim

    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "cache"))
    monkeypatch.delenv(trace_cache.ENV_DISABLE, raising=False)
    trace_cache._memo.clear()

    workload = GateSim()
    monkeypatch.delenv(columnar.ENV_ENGINE, raising=False)
    event_model = run_workload(workload, make_nsf(workload), scale=0.1)
    monkeypatch.setenv(columnar.ENV_ENGINE, engine)
    fast_model = run_workload(workload, make_nsf(workload), scale=0.1)
    assert fast_model.stats.snapshot() == event_model.stats.snapshot()
    assert fast_model.capture() == event_model.capture()


def test_dispatch_table_cached_per_model(recorded):
    workload, trace = recorded
    model = make_nsf(workload)
    table = _dispatch_table(model)
    assert _dispatch_table(model) is table


def test_recorder_never_inherits_inner_dispatch_table(recorded):
    workload, _ = recorded
    inner = make_nsf(workload)
    inner_table = _dispatch_table(inner)  # cached on the inner model
    recorder = TracingRegisterFile(inner)
    table = _dispatch_table(recorder)
    assert table is not inner_table
    # cold ops through the recorder's table must be recorded
    table[OP_BEGIN](301, 0)
    table[OP_END](301, 0)
    ops = [event[0] for event in recorder.trace]
    assert ops == ["B", "E"]
