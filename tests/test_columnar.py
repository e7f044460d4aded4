"""The oracle's closed form equals event replay, and steps aside.

Inside its exactness boundary :func:`columnar.apply_stats` must leave
the *same statistics* on a fresh model as ``replay(trace, model,
verify=False)``; outside it (a used model, another design, a trace
that would evict) :func:`oracle.closed_form` must refuse, and the
oracle engine must then serve the cell from its tables or by event
replay, with the same result.
"""

import pytest

from repro.evalx import common
from repro.evalx.common import make_nsf, run_workload
from repro.trace import cache as trace_cache, columnar, oracle
from repro.trace.admit import admit
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


@pytest.fixture(scope="module")
def recorded():
    from repro.workloads import GateSim

    workload = GateSim()
    recorder = TracingRegisterFile(make_nsf(workload))
    workload.run(recorder, scale=0.15, seed=1)
    return workload, recorder.trace


def _replayed(workload, trace, **kw):
    return replay(trace, make_nsf(workload, **kw), verify=False)


def _oracle_cell(monkeypatch, trace, model):
    """Drive ``model`` as the oracle engine drives a planned cell."""
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    with common.capacity_plan((model.num_registers,)):
        common._replay(trace, model)
    return model


def test_analysis_covers_recorded_workloads(recorded):
    _, trace = recorded
    analysis = columnar.analyze(trace)
    assert analysis is not None
    assert analysis.peak_lines > 0
    # memoized per trace object
    assert columnar.analyze(trace) is analysis


@pytest.mark.parametrize("policy", ["lru"])
def test_synthesis_equals_scalar_replay(recorded, policy):
    workload, trace = recorded
    scalar = _replayed(workload, trace, policy=policy)
    closed = make_nsf(workload, policy=policy)
    assert columnar.apply_stats(columnar.analyze(trace), closed)
    assert closed.stats.snapshot() == scalar.stats.snapshot()
    served = make_nsf(workload, policy=policy)
    assert oracle.serve_from_tables(trace, served, ())
    assert served.stats.snapshot() == scalar.stats.snapshot()


def test_peak_boundary_is_exact(recorded):
    workload, trace = recorded
    analysis = columnar.analyze(trace)
    peak = analysis.peak_lines
    # at exactly peak lines the closed form still applies...
    at_peak = make_nsf(workload, num_registers=peak)
    assert columnar.apply_stats(analysis, at_peak)
    assert at_peak.stats.snapshot() == _replayed(
        workload, trace, num_registers=peak).stats.snapshot()
    assert oracle.closed_form(trace, admit(at_peak)) is None  # used now
    assert oracle.closed_form(
        trace, admit(make_nsf(workload, num_registers=peak))) is analysis
    # ...one below, an eviction would happen: refuse
    below = make_nsf(workload, num_registers=peak - 1)
    assert oracle.closed_form(trace, admit(below)) is None
    # and the oracle prices that cell from its tables instead
    assert oracle.serve_from_tables(trace, below, (peak - 1,))
    assert below.stats.snapshot() == _replayed(
        workload, trace, num_registers=peak - 1).stats.snapshot()


def _used(workload):
    model = make_nsf(workload)
    model.begin_context(cid=901)
    model.write(0, 42, cid=901)
    return model


def test_used_model_falls_back(recorded, monkeypatch):
    workload, trace = recorded
    model = _used(workload)
    verdict = admit(model)
    assert verdict.reason == "driven" and verdict.memo
    assert not verdict.closed_form and verdict.family is None
    assert oracle.closed_form(trace, verdict) is None
    assert not oracle.serve_from_tables(trace, model, ())
    _oracle_cell(monkeypatch, trace, model)
    twin = replay(trace, _used(workload), verify=False)
    assert model.capture() == twin.capture()


def test_out_of_regime_models_fall_back(recorded, monkeypatch):
    workload, trace = recorded
    for kw in ({"line_size": 2}, {"policy": "nmru"},
               {"fetch_on_write": True}, {"spill_watermark": 4}):
        assert oracle.closed_form(
            trace, admit(make_nsf(workload, **kw))) is None, kw
        model = _oracle_cell(monkeypatch, trace, make_nsf(workload, **kw))
        assert model.stats.snapshot() == _replayed(
            workload, trace, **kw).stats.snapshot(), kw


def test_out_of_regime_traces_analyze_to_none():
    """The closed form refuses ``FREE`` ops, which the tables price."""
    freed = Trace(context_size=4)
    freed.append(OP_BEGIN, 1)
    freed.append(OP_WRITE, 1, 0, 5)
    freed.append(OP_FREE, 1, 0)
    assert columnar.analyze(freed) is None
    assert oracle.capacity_tables(freed, [1])[1]["writes"] == 1


def _shape(events, wide=()):
    trace = Trace(context_size=4)
    for event in events:
        trace.append(*event)
    for event in wide:
        trace.append_wide(*event)
    return trace


#: traces outside the regime, each refused by the one validator
#: (:func:`columnar.attribute`) that the closed form and the scans share
OUT_OF_REGIME = {
    "cold-read": [(OP_BEGIN, 1), (OP_READ, 1, 0, 0)],
    "unbegun": [(OP_WRITE, 7, 0, 5)],
    "after-end": [(OP_BEGIN, 1), (OP_WRITE, 1, 0, 5), (OP_END, 1),
                  (OP_READ, 1, 0, 0)],
    "ended-twice": [(OP_BEGIN, 1), (OP_WRITE, 1, 0, 5), (OP_END, 1),
                    (OP_END, 1)],
    "begun-twice": [(OP_BEGIN, 1), (OP_WRITE, 1, 0, 5), (OP_BEGIN, 1),
                    (OP_WRITE, 1, 0, 6), (OP_READ, 1, 0, 0), (OP_END, 1)],
    "negative-cid": [(OP_BEGIN, -1), (OP_WRITE, -1, 0, 5),
                     (OP_READ, -1, 0, 0)],
    "offset-out-of-range": [(OP_BEGIN, 1), (OP_WRITE, 1, 4, 5)],
    "cid-overflow": [(OP_BEGIN, 1 << 61), (OP_WRITE, 1 << 61, 0, 5)],
    "wide": [(OP_BEGIN, 1)],
}


def _refuses(scan, trace):
    """True when ``scan`` refuses ``trace``; else False, or the name of
    the error it raised instead."""
    try:
        scan(trace, [1, 2])
    except oracle.OracleUnsupported:
        return True
    except Exception as error:
        return type(error).__name__
    return False


@pytest.mark.parametrize("shape", sorted(OUT_OF_REGIME))
def test_the_closed_form_and_the_scans_refuse_the_same_traces(shape):
    """Event replay raises on, reloads for, or cannot key each shape:
    the closed form refuses it, and so does every table scan."""
    wide = [(OP_WRITE, 1, 0, 1 << 90)] if shape == "wide" else ()
    trace = _shape(OUT_OF_REGIME[shape], wide)
    refused = {"closed form": columnar.analyze(trace) is None,
               "nsf tables": _refuses(oracle.capacity_tables, trace),
               "segmented tables": _refuses(oracle.segmented_tables,
                                            trace)}
    assert refused == dict.fromkeys(refused, True)


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
    assert analysis is not None and analysis.peak_lines == 2

    def fresh(lines):
        from repro.core import NamedStateRegisterFile

        return NamedStateRegisterFile(num_registers=lines, context_size=4,
                                      line_size=1)

    closed = fresh(8)
    assert columnar.apply_stats(analysis, closed)
    assert closed.stats.snapshot() == \
        replay(trace, fresh(8), verify=False).stats.snapshot()
    # below the peak the tables key lifetimes by instance as well
    tabled = fresh(1)
    assert oracle.serve_from_tables(trace, tabled, ())
    assert tabled.stats.snapshot() == \
        replay(trace, fresh(1), verify=False).stats.snapshot()


def test_selected_engine_parsing(monkeypatch):
    monkeypatch.delenv(columnar.ENV_ENGINE, raising=False)
    assert columnar.selected_engine() == "event"
    monkeypatch.setenv(columnar.ENV_ENGINE, "Oracle ")
    assert columnar.selected_engine() == "oracle"
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracel")  # typo: default
    assert columnar.selected_engine() == "event"
    monkeypatch.setenv(columnar.ENV_ENGINE, "columnar")  # retired
    assert columnar.selected_engine() == "event"


@pytest.mark.parametrize("engine", ["oracle"])
def test_run_workload_honors_engine_env(tmp_path, monkeypatch, engine):
    """Each engine runs on a cache of its own: on the event run's cache
    the fresh model would restore the result entry event replay left,
    and the engine would never be asked."""
    from repro.workloads import GateSim

    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "event"))
    monkeypatch.delenv(trace_cache.ENV_DISABLE, raising=False)
    trace_cache._memo.clear()

    workload = GateSim()
    monkeypatch.delenv(columnar.ENV_ENGINE, raising=False)
    event_model = run_workload(workload, make_nsf(workload), scale=0.1)
    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / engine))
    monkeypatch.setenv(columnar.ENV_ENGINE, engine)
    routes = []
    fallback = common.replay_oracle
    monkeypatch.setattr(common, "replay_oracle",
                        lambda *args: routes.append(1) or fallback(*args))
    common.RESULT_STATS.reset()
    fast_model = run_workload(workload, make_nsf(workload), scale=0.1)
    # outside a capacity plan the oracle's route is its event replay
    assert routes == [1]
    assert common.RESULT_STATS.hits == 0
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
