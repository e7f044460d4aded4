"""Result entries: each distinct (trace, fresh model) cell replayed once.

The trace cache keeps the end state a replay leaves as a result entry,
and a later fresh model of the same class and config restores it.
Four rings of evidence:

* **End to end.** fig09-fig14 run in one process under ``event`` print
  the tables of a run that drops every result entry before each
  figure; fig10 and fig12 replay nothing, and no result entry is
  replayed twice.  Under ``oracle``, on a cache of its own, the cold
  pass replays only the cells neither the closed form nor the tables
  price, and each cell the closed form or a table serves publishes its
  oracle entry; the warm pass replays, scans and serves nothing: every
  cell restores its entry, fanned out or not.
* **Exact end state.** A served model's whole ``capture()`` equals that
  of a twin replayed independently, for every design the sweeps use,
  and stays equal while both are driven further; a served model that
  is driven on does not change what the next hit receives.
* **No cross-serving.** Models that would replay differently (another
  policy seed, a driven start state that only looks fresh) never
  share an entry, and only a fresh model looks one up or publishes
  one; the oracle's served cells publish an oracle entry that only a
  cell the oracle could serve itself restores, wrappers and a
  compressing backing store neither look up nor publish, and the
  oracle's fallback cells go through the store.  A fresh model is
  keyed without capturing its start state.
* **Store mechanics.** A grown trace (another cell: a bare trace's
  cell is named by its content) is replayed again, the cache's
  memo evicts its least recently used entry (which is read from disk
  again, not replayed), and on random churn traces a served capture
  equals a replayed one.
"""

import collections
import contextlib
import functools
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BackingStore,
    ConventionalRegisterFile,
    NamedStateRegisterFile,
    ProtectedRegisterFile,
    RegFileStats,
    SegmentedRegisterFile,
    compress_spills,
)
from repro.core.faults import FaultyRegisterFile
from repro.evalx import common, fig13, run_experiment
from repro.trace import cache as trace_cache, columnar, oracle
from repro.trace.admit import admit
from repro.trace.events import (
    BEGIN,
    END,
    OP_BEGIN,
    OP_END,
    OP_READ,
    OP_WRITE,
    Trace,
)
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import replay
from repro.workloads import get_workload
from tests.conftest import FileLog
from tests.test_oracle_differential import CTX, random_traces
from tests.test_oracle_memo import _contexts_trace

SWEEPS = ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14")

#: fig13's GateSim cells: line-scope reloads, which only event replay
#: prices
FIG13_REPLAYED = len(fig13.SEQ_LINE_SIZES)

#: the golden seed (11) is covered by the golden checks
SCALE, SEED = 0.2, 3

#: a register budget of two GateSim contexts, so every design evicts
BUDGET = 40

#: cid offset of the continuation trace (clear of every recorded cid)
SHIFT = 1 << 20

#: the event replays of fig09-fig14 at (SCALE, SEED) once every result
#: entry is dropped: one per distinct (trace, fresh model) cell; fig10
#: and fig12 revisit cells fig09 and fig11 priced
EVENT_REPLAYS = {"fig09": 16, "fig11": 16, "fig13": 6, "fig14": 6}

#: and the direct runs: one per Gamteb configuration, 24 in all
EVENT_RUNS = {"fig09": 2, "fig11": 16, "fig13": 6}

#: how the oracle engine serves fig09-fig14's cells at (SCALE, SEED) on
#: a cache it filled: every cell restores its entry, the replay result
#: of a Gamteb cell (48) or of one of fig13's GateSim cells, which
#: neither the closed form nor the tables price, and the oracle entry
#: of every other cell; nothing replays, scans or is served
ORACLE_ROUTES = {"restore": 138}

#: how it serves them cold: one scan per trace and design family, the
#: closed form or a table for each planned cell fig09 and fig11 visit
#: first, and fig10 and fig12 restore the oracle entries those
#: published; the Gamteb cells run directly, later cells of a
#: configuration restore what that run left, and fig13's GateSim cells
#: replay as forked jobs
ORACLE_COLD_ROUTES = {"restore": 70, "closed form": 18, "table": 20,
                      "scan": 10}


@pytest.fixture(scope="module")
def gatesim():
    workload = get_workload("GateSim")
    recorder = TracingRegisterFile(NamedStateRegisterFile(
        num_registers=4 * workload.context_size,
        context_size=workload.context_size))
    workload.run(recorder, scale=0.1, seed=1)
    return recorder.trace


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    """A private trace cache and the event engine."""
    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path))
    monkeypatch.delenv(trace_cache.ENV_DISABLE, raising=False)
    monkeypatch.setattr(trace_cache, "_memo", {})
    monkeypatch.setenv(columnar.ENV_ENGINE, "event")


def _replayed_cell(trace, model):
    """What tells one replayed cell of a fresh ``model`` the result
    store holds from another: its trace's content and the model's
    :func:`~repro.trace.cache.end_key`; ``None`` for a model the store
    does not hold."""
    verdict = admit(model)
    if not (verdict.memo and verdict.fresh):
        return None
    return (f"{trace.digest().hex()} "
            f"{trace_cache.end_key(model, verdict)!r}")


class ReplayLog:
    """Records every event replay ``common`` runs, in this process or a
    forked child: ``keys`` lists ``(label, cell)``, the cell as
    :func:`_replayed_cell` names it (``None`` for a replay of a model
    the store does not hold)."""

    def __init__(self, monkeypatch, path):
        self.label = None
        self.log = FileLog(path)
        inner = common.replay

        def logged(trace, model, verify=True):
            self.log.append([self.label, _replayed_cell(trace, model)])
            return inner(trace, model, verify=verify)

        monkeypatch.setattr(common, "replay", logged)

    @property
    def keys(self):
        return [tuple(record) for record in self.log.records()]


class RouteLog:
    """Records how the oracle engine serves each cell, in this process
    or a forked child: ``routes(label)`` counts each route (``closed
    form``, ``table``, ``replay``, and ``restore`` for a cell that took
    its result entry) and each family ``scan``."""

    def __init__(self, monkeypatch, path):
        self.label = None
        self.log = FileLog(path)
        for module, name, route in (
                (oracle, "apply_stats", "closed form"),
                (oracle, "apply_table", "table"),
                (oracle, "_family_tables", "scan"),
                (common, "replay_oracle", "replay"),
                (common, "_restored", "restore")):
            monkeypatch.setattr(module, name,
                                self._logged(getattr(module, name), route))

    def _logged(self, inner, route):
        def logged(*args):
            result = inner(*args)
            if route != "restore" or result:
                self.log.append([self.label, route])
            return result

        return logged

    def routes(self, label):
        return dict(collections.Counter(
            route for at, route in self.log.records() if at == label))


def _nsf(ctx=20, budget=BUDGET, **kw):
    return NamedStateRegisterFile(num_registers=budget, context_size=ctx,
                                  **kw)


def _continuation(trace):
    """``trace`` again under fresh cids: drives a model on past its
    recorded end state, evicting whatever it left resident."""
    return Trace([(op, cid + SHIFT, offset, value)
                  for op, cid, offset, value in trace],
                 context_size=trace.context_size)


def _bare(trace):
    """The workload of a cell of a bare trace: shared across models and
    named by the trace's content, so that two traces are two cells (a
    recorded cell's trace is named by its workload, scale and seed)."""
    return types.SimpleNamespace(name=f"-{trace.digest().hex()}",
                                 context_size=trace.context_size,
                                 trace_stable=True)


def _entry_name(trace, model):
    """The file name of ``model``'s result entry for a cell of the bare
    ``trace``, or ``None`` for a model the store does not hold."""
    result = trace_cache.result_entry(_bare(trace), model)
    return None if result is None else result.path.name


def _serve(trace, model):
    """Serve one cell of ``trace`` on ``model`` as :func:`run_workload`
    does once the trace is in hand: restore its result entry, else ask
    the engine (which publishes the entry of a replayed fresh model)."""
    workload = _bare(trace)
    common._Cell(workload, model, 1.0, 1, trace,
                 trace_cache.result_entry(workload, model)).drive()
    return model


def _served_and_twin(trace, build):
    """(model served by the store, twin replayed independently)."""
    _serve(trace, build())
    hits = common.RESULT_STATS.hits
    served = _serve(trace, build())
    assert common.RESULT_STATS.hits == hits + 1
    return served, replay(trace, build(), verify=False)


# -- end to end ---------------------------------------------------------------


def test_sweeps_replay_each_distinct_cell_once(cache_env, monkeypatch,
                                               tmp_path):
    expected = {}
    for name in SWEEPS:
        trace_cache.clear_results()
        expected[name] = run_experiment(name, scale=SCALE,
                                        seed=SEED).to_dict()

    trace_cache.clear_results()
    log = ReplayLog(monkeypatch, tmp_path / "replays.jsonl")
    runs = collections.Counter()
    record = trace_cache.record_through

    def running(workload, model, scale=1.0, seed=1, result=None):
        runs[log.label] += 1
        return record(workload, model, scale=scale, seed=seed,
                      result=result)

    monkeypatch.setattr(trace_cache, "record_through", running)
    published = {}
    for name in SWEEPS:
        log.label = name
        misses = common.RESULT_STATS.misses
        table = run_experiment(name, scale=SCALE, seed=SEED)
        assert table.to_dict() == expected[name], name
        published[name] = common.RESULT_STATS.misses - misses

    # the traces stayed, so the shared-trace cells replay them, and the
    # Gamteb cells, which have none, run directly; each publishes
    replays = collections.Counter(label for label, _ in log.keys)
    assert (dict(replays), dict(runs)) == (EVENT_REPLAYS, EVENT_RUNS)
    assert published == {name: replays[name] + runs[name]
                          for name in SWEEPS}
    keys = [key for _, key in log.keys]
    assert None not in keys
    assert len(keys) == len(set(keys))

    # the oracle fills a cache of its own: on the event passes' every
    # cell would restore what a replay left, and no table would serve
    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "oracle"))
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    log.label = "oracle cold"
    routes = RouteLog(monkeypatch, tmp_path / "routes.jsonl")
    routes.label = "cold"
    monkeypatch.setattr(oracle, "_TABLE_MEMO", {})
    monkeypatch.setattr(columnar, "_ANALYSES", {})
    for name in SWEEPS:
        table = run_experiment(name, scale=SCALE, seed=SEED)
        assert table.to_dict() == expected[name], name
    # cold, only the cells neither the closed form nor the tables price
    # replay (the Gamteb cells run directly)
    cold = [key for label, key in log.keys if label == "oracle cold"]
    assert len(cold) == len(set(cold)) == FIG13_REPLAYED
    assert routes.routes("cold") == ORACLE_COLD_ROUTES
    log.label = "oracle warm"
    for routes.label in ("fanned out", "serial"):
        if routes.label == "serial":
            monkeypatch.setattr(common, "_cpus", lambda: 1)
        monkeypatch.setattr(oracle, "_TABLE_MEMO", {})
        monkeypatch.setattr(columnar, "_ANALYSES", {})
        hits = common.RESULT_STATS.hits
        misses = common.RESULT_STATS.misses
        for name in SWEEPS:
            table = run_experiment(name, scale=SCALE, seed=SEED)
            assert table.to_dict() == expected[name], name
        # warm, nothing replays or is served: the cells the closed
        # form and the tables served restore their oracle entries, and
        # every other cell its replay result
        assert common.RESULT_STATS.misses == misses
        assert (common.RESULT_STATS.hits - hits
                == ORACLE_ROUTES["restore"])
        assert routes.routes(routes.label) == ORACLE_ROUTES, routes.label
    assert "oracle warm" not in {label for label, _ in log.keys}


#: perfbench's sweep point
BENCH_SCALE, BENCH_SEED = 0.35, 3


def test_a_warm_pass_replays_nothing(cache_env, monkeypatch, tmp_path):
    """At perfbench's sweep point, counted serially: a warm pass
    restores all 138 cells, replays and scans nothing and plans no job,
    under ``event`` and under ``oracle`` on a cache the oracle filled.
    The oracle's cold pass publishes the replay results of fig13's 6
    GateSim cells and of the 24 Gamteb configurations' direct runs, and
    the oracle entries of the 38 distinct cells the closed form and the
    tables serve."""
    monkeypatch.setattr(common, "_cpus", lambda: 1)
    log = ReplayLog(monkeypatch, tmp_path / "replays.jsonl")
    routes = RouteLog(monkeypatch, tmp_path / "routes.jsonl")

    def sweep(label):
        log.label = routes.label = label
        common.RESULT_STATS.reset()
        common.FANOUT.reset()
        oracle._TABLE_MEMO.clear()
        for name in SWEEPS:
            run_experiment(name, scale=BENCH_SCALE, seed=BENCH_SEED)
        replays = sum(1 for at, _ in log.keys if at == label)
        return (replays, routes.routes(label).get("scan", 0),
                repr(common.RESULT_STATS), common.FANOUT.summary())

    sweep("event cold")
    assert sweep("event warm") == (
        0, 0, "MemoStats(hits=138, misses=0)",
        "0 of 0 cell job(s) forked in 6 batch(es)")
    results = _stored_results()
    assert len(results) == 68
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "oracle"))
    cold = sweep("oracle cold")
    assert cold[:3] == (6, 11, "MemoStats(hits=70, misses=68)")
    assert sweep("oracle warm") == (
        0, 0, "MemoStats(hits=138, misses=0)",
        "0 of 0 cell job(s) forked in 6 batch(es)")
    # 30 replay results and 38 oracle entries
    assert len(_stored_results()) == 30 + 38


# -- exact end state ----------------------------------------------------------

DESIGNS = {
    **{f"nsf-line{line}-{policy}": (
        lambda line=line, policy=policy: _nsf(line_size=line,
                                              policy=policy))
       for line in (1, 2, 4) for policy in ("lru", "fifo", "nmru")},
    "nsf-line2-line-reload-fetch-on-write": lambda: _nsf(
        line_size=2, reload_scope="line", fetch_on_write=True),
    "nsf-line4-line-reload-fetch-on-write": lambda: _nsf(
        line_size=4, reload_scope="line", fetch_on_write=True),
    "seg-frame": lambda: SegmentedRegisterFile(
        num_registers=BUDGET, context_size=20, spill_mode="frame"),
    "seg-live": lambda: SegmentedRegisterFile(
        num_registers=BUDGET, context_size=20, spill_mode="live"),
    "conventional": lambda: ConventionalRegisterFile(context_size=20),
}


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_served_model_ends_exactly_as_a_replay(gatesim, design):
    build = DESIGNS[design]
    served, twin = _served_and_twin(gatesim, build)
    assert served.stats.registers_spilled > 0
    assert served.capture() == twin.capture()
    onward = _continuation(gatesim)
    replay(onward, served, verify=False)
    replay(onward, twin, verify=False)
    assert served.capture() == twin.capture()


def test_driving_models_on_leaves_the_entry_intact(gatesim):
    first = _serve(gatesim, _nsf())
    end = first.capture()
    served = _serve(gatesim, _nsf())
    onward = _continuation(gatesim)
    for model in (first, served):
        replay(onward, model, verify=False)
        assert model.capture() != end
    again = _serve(gatesim, _nsf())
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (2, 1)
    assert again.capture() == end


# -- no cross-serving ---------------------------------------------------------


def test_policy_seeds_get_separate_entries(gatesim):
    models = [_serve(gatesim, _nsf(policy="nmru",
                                                 policy_seed=seed))
              for seed in (1, 2)]
    assert common.RESULT_STATS.misses == 2
    assert common.RESULT_STATS.hits == 0
    twins = [replay(gatesim, _nsf(policy="nmru", policy_seed=seed),
                    verify=False) for seed in (1, 2)]
    assert [m.capture() for m in models] == [t.capture() for t in twins]
    assert models[0].stats.snapshot() != models[1].stats.snapshot()


def _driven_nmru():
    """An NMRU file driven through four contexts that all end, with its
    stats and backing counters then zeroed: ``stats`` and ``backing``
    look fresh, but the free list, the bump allocator and the RNG have
    moved on."""
    churn = Trace(context_size=20)
    for cid in range(4):
        churn.append(OP_BEGIN, cid)
        for offset in range(20):
            churn.append(OP_WRITE, cid, offset, offset)
    for cid in range(4):
        churn.append(OP_END, cid)
    model = replay(churn, _nsf(policy="nmru"), verify=False)
    assert model.stats.registers_spilled > 0
    model.stats.reset()
    model.backing.words_stored = model.backing.words_loaded = 0
    assert model.stats == RegFileStats(capacity=BUDGET)
    assert model.backing.capture() == BackingStore().capture()
    assert model.capture() != _nsf(policy="nmru").capture()
    return model


def _restored_nmru():
    model = _nsf(policy="nmru")
    model.restore(_driven_nmru().capture())
    return model


def _ticked():
    model = _nsf(policy="nmru")
    model.tick(5)
    return model


def _line_retired():
    model = _nsf(policy="nmru")
    model.retire_line(3)
    return model


def _ctable_entry():
    model = _nsf(policy="nmru")
    model.backing.ctable.set(1 << 30, 0x2000)
    return model


#: never-begun or fresh-looking models whose start state is not the
#: constructor's
NOT_FRESH = {
    "driven-then-zeroed": _driven_nmru,
    "restored": _restored_nmru,
    "ticked": _ticked,
    "line-retired": _line_retired,
    "ctable-entry": _ctable_entry,
}


@pytest.mark.parametrize("kind", sorted(NOT_FRESH))
def test_only_fresh_models_share_the_fresh_entry(gatesim, kind):
    _serve(gatesim, _nsf(policy="nmru"))
    looked = trace_cache.STATS.hits + trace_cache.STATS.misses
    served = _serve(gatesim, NOT_FRESH[kind]())
    # replayed, with no lookup and no publish
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (0, 1)
    assert trace_cache.STATS.hits + trace_cache.STATS.misses == looked
    twin = replay(gatesim, NOT_FRESH[kind](), verify=False)
    assert served.capture() == twin.capture()


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_fresh_models_are_keyed_without_a_start_capture(gatesim,
                                                        monkeypatch,
                                                        design):
    build = DESIGNS[design]
    cls = type(build())
    captures = []
    inner = cls.capture

    def counted(self):
        captures.append(self)
        return inner(self)

    monkeypatch.setattr(cls, "capture", counted)
    missed = _serve(gatesim, build())
    assert captures == [missed]  # the end state only
    _serve(gatesim, build())
    assert captures == [missed]
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (1, 1)


@pytest.mark.parametrize("engine", ["oracle"])
@pytest.mark.parametrize("planned", [False, True])
def test_other_engines_bypass_the_memo(gatesim, monkeypatch, engine,
                                       planned):
    """The cells the oracle's tables serve publish an oracle entry, and
    the next such cell restores it; every other cell (any cell outside
    a plan, an NMRU cell inside one) is the event replay, which
    publishes its replay result, so a fallback cell seen again is a
    hit.  A cell whose replay result an event replay left restores it
    before the engine is asked, its oracle entry cached or not."""
    monkeypatch.setenv(columnar.ENV_ENGINE, engine)
    def plan():
        return (common.capacity_plan((BUDGET,)) if planned
                else contextlib.nullcontext())

    for policy in ("lru", "lru", "nmru", "nmru"):
        model = _nsf(policy=policy)
        with plan():
            _serve(gatesim, model)
        twin = replay(gatesim, _nsf(policy=policy), verify=False)
        assert model.stats.snapshot() == twin.stats.snapshot()
    # each design's first cell publishes, its second restores: the
    # LRU cells an oracle entry when planned, a replay result when not
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (2, 2)
    lru = trace_cache.result_entry(_bare(gatesim), _nsf())
    assert lru.cached() is not planned
    if planned:
        monkeypatch.setenv(columnar.ENV_ENGINE, "event")
        _serve(gatesim, _nsf())
        monkeypatch.setenv(columnar.ENV_ENGINE, engine)
        scans = []
        scan = oracle._family_tables
        monkeypatch.setattr(oracle, "_family_tables",
                            lambda *args: scans.append(1) or scan(*args))
        monkeypatch.setattr(oracle, "_TABLE_MEMO", {})
        with plan():
            model = _serve(gatesim, _nsf())
        assert scans == []
        assert (common.RESULT_STATS.hits,
                common.RESULT_STATS.misses) == (3, 3)
        # the replay result, whole internals and all
        assert model.capture() == replay(gatesim, _nsf(),
                                         verify=False).capture()


def test_a_cell_outside_a_plan_restores_no_oracle_entry(gatesim,
                                                        monkeypatch):
    """Under ``oracle`` a planned cell the tables serve publishes an
    oracle entry, and the next planned cell restores it; a cell of the
    same design outside any plan never does (its experiment may read
    more than statistics off the model): it replays and ends exactly as
    a replay."""
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    for _ in range(2):
        with common.capacity_plan((BUDGET,)):
            planned = _serve(gatesim, _nsf())
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (1, 1)
    twin = replay(gatesim, _nsf(), verify=False)
    assert planned.stats.snapshot() == twin.stats.snapshot()
    assert planned.capture() != twin.capture()
    unplanned = _serve(gatesim, _nsf())
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (1, 2)
    assert unplanned.capture() == twin.capture()


#: the table families an oracle entry serves: NSF with one-register
#: lines, segmented frames spilled whole or live
ORACLE_DESIGNS = {
    "nsf": lambda budget: _nsf(budget=budget),
    "seg-frame": lambda budget: SegmentedRegisterFile(
        num_registers=budget, context_size=20, spill_mode="frame"),
    "seg-live": lambda budget: SegmentedRegisterFile(
        num_registers=budget, context_size=20, spill_mode="live"),
}


def _peak_registers(trace, design):
    """The registers a design needs for ``trace`` never to evict: its
    peak live registers for an NSF, a frame per context live at once
    for a segmented file."""
    if design == "nsf":
        return columnar.analyze(trace).peak_lines
    live = peak = 0
    for op, *_ in trace:
        live += {BEGIN: 1, END: -1}.get(op, 0)
        peak = max(peak, live)
    return peak * trace.context_size


@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
@pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
def test_a_restored_oracle_entry_ends_as_the_tables_serve(gatesim,
                                                          monkeypatch,
                                                          design, above):
    """A restored oracle entry leaves the ``stats`` and store word
    counters that :func:`~repro.trace.oracle.serve_from_tables` leaves
    on a fresh twin, below the trace's peak demand (every design
    evicts) and at or above it (none does)."""
    budget = _peak_registers(gatesim, design) if above else BUDGET
    build = functools.partial(ORACLE_DESIGNS[design], budget)
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    with common.capacity_plan((budget,)):
        _serve(gatesim, build())
        restored = _serve(gatesim, build())
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (1, 1)
    twin = build()
    assert oracle.serve_from_tables(gatesim, twin, (budget,))
    assert restored.stats.snapshot() == twin.stats.snapshot()
    assert ((restored.backing.words_stored, restored.backing.words_loaded)
            == (twin.backing.words_stored, twin.backing.words_loaded))
    assert (restored.stats.registers_spilled == 0) is above
    # and those are event replay's numbers
    replayed = replay(gatesim, build(), verify=False)
    assert restored.stats.snapshot() == replayed.stats.snapshot()


class _Subclassed(NamedStateRegisterFile):
    pass


def _compressed():
    model = _nsf()
    compress_spills(model)
    return model


WRAPPED = {
    "faulty": lambda: FaultyRegisterFile(_nsf(), "corrupt_reload",
                                         trigger_at=10 ** 9),
    "protected": lambda: ProtectedRegisterFile(_nsf()),
    "tracing": lambda: TracingRegisterFile(_nsf()),
    "subclass": lambda: _Subclassed(num_registers=BUDGET,
                                    context_size=20),
    "compressing-backing": _compressed,
}


def _stored_results():
    """The names of the result entries memoized or on disk in the
    active cache."""
    directory = trace_cache.cache_dir()
    return ({name for parent, name in trace_cache._memo
             if parent == str(directory)
             and name.endswith(trace_cache.RESULT_SUFFIX)}
            | {path.name for path in directory.glob(
                "*" + trace_cache.RESULT_SUFFIX)})


@pytest.mark.parametrize("kind", sorted(WRAPPED))
def test_wrapped_models_are_always_replayed(gatesim, monkeypatch, kind,
                                           tmp_path):
    log = ReplayLog(monkeypatch, tmp_path / "replays.jsonl")
    looked = trace_cache.STATS.hits + trace_cache.STATS.misses
    for _ in range(2):
        _serve(gatesim, WRAPPED[kind]())
    assert log.keys == [(None, None)] * 2
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (0, 0)
    # neither looked up nor published
    assert trace_cache.STATS.hits + trace_cache.STATS.misses == looked
    assert not _stored_results()


# -- memo mechanics -----------------------------------------------------------


def test_grown_trace_is_replayed_again():
    trace = _contexts_trace(6)
    before = _serve(trace, _nsf(ctx=CTX, budget=8))
    before = before.stats.snapshot()
    trace.append(OP_READ, 0, 0, 0)  # context 0 was evicted at 8 lines
    after = _serve(trace, _nsf(ctx=CTX, budget=8))
    assert common.RESULT_STATS.misses == 2
    assert after.stats.snapshot() != before
    twin = replay(trace, _nsf(ctx=CTX, budget=8), verify=False)
    assert after.capture() == twin.capture()


def test_equal_content_shares_one_entry():
    first = _contexts_trace(6)
    second = Trace.loads_binary(first.dumps_binary())
    assert second is not first and second == first
    served = [_serve(trace, _nsf(ctx=CTX, budget=8))
              for trace in (first, second)]
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (1, 1)
    assert served[0].capture() == served[1].capture()


def test_memo_evicts_least_recently_used(monkeypatch):
    """The cache's memo keeps the most recently used entries up to its
    bound; an entry it evicted is read from disk again, not replayed."""
    monkeypatch.setattr(trace_cache, "MEMO_LIMIT", 2)
    monkeypatch.setattr(trace_cache, "_memo", {})
    old, other, new = (_contexts_trace(n) for n in (5, 6, 7))
    names = {id(trace): _entry_name(trace, _nsf(ctx=CTX, budget=8))
             for trace in (old, other, new)}

    def run(trace):
        _serve(trace, _nsf(ctx=CTX, budget=8))
        return common.RESULT_STATS.misses

    def held(*traces):
        return {name for _, name in trace_cache._memo} == {
            names[id(trace)] for trace in traces}

    for trace in (old, other, old, new):  # ``old`` is used again
        run(trace)
    assert common.RESULT_STATS.misses == 3
    assert held(old, new)  # ``other`` evicted
    assert run(old) == 3
    assert run(other) == 3  # read from disk again, not replayed
    assert common.RESULT_STATS.hits == 3
    assert held(old, other)
    assert len(trace_cache._memo) == 2


# -- hypothesis: random traces ------------------------------------------------

RANDOM_DESIGNS = [
    ("nsf", 1, "lru"), ("nsf", 1, "nmru"), ("nsf", 2, "fifo"),
    ("nsf", 2, "lru"), ("seg", "frame", "lru"), ("seg", "live", "nmru"),
    ("conventional", None, "lru"),
]


def _random_model(design, units, seed):
    kind, variant, policy = design
    if kind == "nsf":
        return NamedStateRegisterFile(
            num_registers=units * variant, context_size=CTX,
            line_size=variant, policy=policy, policy_seed=seed)
    if kind == "seg":
        return SegmentedRegisterFile(
            num_registers=units * CTX, context_size=CTX, policy=policy,
            spill_mode=variant, policy_seed=seed)
    return ConventionalRegisterFile(context_size=CTX, policy=policy)


@settings(max_examples=80, deadline=None)
@given(random_traces(), st.sampled_from(RANDOM_DESIGNS),
       st.integers(1, 6), st.integers(0, 3))
def test_served_capture_equals_replayed_capture(trace, design, units,
                                                seed):
    trace_cache.clear_results()
    served, twin = _served_and_twin(
        trace, lambda: _random_model(design, units, seed))
    assert served.capture() == twin.capture()
