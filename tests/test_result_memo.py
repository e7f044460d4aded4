"""The event engine's replay-result memo: each distinct cell replayed once.

Four rings of evidence:

* **End to end.** fig09-fig14 run in one process under ``event`` print
  the tables of a run that forgets every result before each figure,
  and of the ``oracle`` engine; fig10 and fig12 replay nothing, and no
  (trace content, start state) key is replayed twice.  Under
  ``oracle`` the cells its closed form and tables serve never touch
  the memo, fig13's GateSim cells, which neither prices, are memo
  hits, and every Gamteb cell restores its cache entry's end state;
  every planned cell takes the same route, fanned out or not.
* **Exact end state.** A served model's whole ``capture()`` equals that
  of a twin replayed independently, for every design the sweeps use,
  and stays equal while both are driven further; a served model that
  is driven on does not change what the next hit receives.
* **No cross-serving.** Models that would replay differently (another
  policy seed, a driven start state that only looks fresh) never
  share an entry; the oracle's served cells,
  wrappers and a compressing backing store never read or fill the
  memo, while the oracle's fallback cells go through it.  A model that
  was never driven is keyed without capturing its start state.
* **Memo mechanics.** A grown trace is replayed again, eviction is
  least recently used, and on random churn traces a served capture
  equals a replayed one.
"""

import collections

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
from repro.trace.events import OP_BEGIN, OP_END, OP_READ, OP_WRITE, Trace
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import replay
from repro.workloads import get_workload
from tests.conftest import FileLog
from tests.test_oracle_differential import CTX, random_traces
from tests.test_oracle_memo import _contexts_trace

SWEEPS = ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14")

#: fig13's cells: line-scope reloads, which only event replay prices
FIG13_CELLS = len(fig13.SEQ_LINE_SIZES) + len(fig13.PAR_LINE_SIZES)

#: the golden seed (11) is covered by the golden checks
SCALE, SEED = 0.2, 3

#: a register budget of two GateSim contexts, so every design evicts
BUDGET = 40

#: cid offset of the continuation trace (clear of every recorded cid)
SHIFT = 1 << 20

#: fig13's Gamteb cells, which restore their cache entries' end states
FIG13_RESTORED = len(fig13.PAR_LINE_SIZES)

#: how the oracle engine serves fig09-fig14's cells at (SCALE, SEED),
#: warm: every Gamteb cell restores its cache entry's end state, every
#: other planned cell is served by the closed form or a table, after
#: one scan per trace and design family, and fig13's GateSim cells,
#: which neither prices, by the memoized event replay
ORACLE_ROUTES = {"restore": 48, "closed form": 40, "table": 44, "scan": 10,
                 "replay": FIG13_CELLS - FIG13_RESTORED}


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


class ReplayLog:
    """Records the memo key of every event replay ``common`` runs, in
    this process or a forked child: ``keys`` lists ``(label, repr of
    the key)``, ``None`` for a replay outside the memo."""

    def __init__(self, monkeypatch, path):
        self.label = None
        self.log = FileLog(path)
        inner = common.replay

        def logged(trace, model, verify=True):
            key = common._result_key(trace, model)
            self.log.append([self.label, None if key is None else repr(key)])
            return inner(trace, model, verify=verify)

        monkeypatch.setattr(common, "replay", logged)

    @property
    def keys(self):
        return [tuple(record) for record in self.log.records()]


class RouteLog:
    """Records how the oracle engine serves each cell, in this process
    or a forked child: ``routes(label)`` counts each route (``closed
    form``, ``table``, ``replay``, and ``restore`` for a cell that took
    its cache entry's end state) and each family ``scan``."""

    def __init__(self, monkeypatch, path):
        self.label = None
        self.log = FileLog(path)
        for module, name, route in (
                (oracle, "apply_stats", "closed form"),
                (oracle, "apply_table", "table"),
                (oracle, "_family_tables", "scan"),
                (common, "replay_oracle", "replay"),
                (common, "_restore", "restore")):
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


def _served_and_twin(trace, build):
    """(model served by the memo, twin replayed independently)."""
    common._replay_event(trace, build())
    hits = common.RESULT_STATS.hits
    served = common._replay_event(trace, build())
    assert common.RESULT_STATS.hits == hits + 1
    return served, replay(trace, build(), verify=False)


# -- end to end ---------------------------------------------------------------


def test_sweeps_replay_each_distinct_cell_once(cache_env, monkeypatch,
                                               tmp_path):
    expected = {}
    for name in SWEEPS:
        common.clear_result_memo()
        expected[name] = run_experiment(name, scale=SCALE,
                                        seed=SEED).to_dict()

    common.clear_result_memo()
    log = ReplayLog(monkeypatch, tmp_path / "replays.jsonl")
    replays = {}
    for name in SWEEPS:
        log.label = name
        misses = common.RESULT_STATS.misses
        table = run_experiment(name, scale=SCALE, seed=SEED)
        assert table.to_dict() == expected[name], name
        replays[name] = common.RESULT_STATS.misses - misses

    assert replays["fig10"] == replays["fig12"] == 0
    keys = [key for _, key in log.keys]
    assert None not in keys
    assert len(keys) == sum(replays.values()) == len(set(keys))
    assert collections.Counter(label for label, _ in log.keys) == {
        name: count for name, count in replays.items() if count}

    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    log.label = "oracle"
    routes = RouteLog(monkeypatch, tmp_path / "routes.jsonl")
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
        # the closed form and the tables serve every planned cell
        # without the memo; fig13's GateSim cells, which neither
        # prices, take the memoized replay and find the entries the
        # event passes left
        assert common.RESULT_STATS.misses == misses
        assert common.RESULT_STATS.hits - hits == (FIG13_CELLS
                                                   - FIG13_RESTORED)
        assert routes.routes(routes.label) == ORACLE_ROUTES, routes.label
    assert "oracle" not in {label for label, _ in log.keys}


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
    first = common._replay_event(gatesim, _nsf())
    end = first.capture()
    served = common._replay_event(gatesim, _nsf())
    onward = _continuation(gatesim)
    for model in (first, served):
        replay(onward, model, verify=False)
        assert model.capture() != end
    again = common._replay_event(gatesim, _nsf())
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (2, 1)
    assert again.capture() == end


# -- no cross-serving ---------------------------------------------------------


def test_policy_seeds_get_separate_entries(gatesim):
    models = [common._replay_event(gatesim, _nsf(policy="nmru",
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
    common._replay_event(gatesim, _nsf(policy="nmru"))
    served = common._replay_event(gatesim, NOT_FRESH[kind]())
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (0, 2)
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
    missed = common._replay_event(gatesim, build())
    assert captures == [missed]  # the end state only
    common._replay_event(gatesim, build())
    assert captures == [missed]
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (1, 1)


@pytest.mark.parametrize("engine", ["oracle"])
@pytest.mark.parametrize("planned", [False, True])
def test_other_engines_bypass_the_memo(gatesim, monkeypatch, engine,
                                       planned):
    """The cells the oracle's tables serve bypass the memo; every other
    cell (any cell outside a plan, an NMRU cell inside one) is the
    memoized event replay, so a fallback cell seen again is a hit."""
    common._replay_event(gatesim, _nsf())
    monkeypatch.setenv(columnar.ENV_ENGINE, engine)
    for policy in ("lru", "lru", "nmru", "nmru"):
        model = _nsf(policy=policy)
        if planned:
            with common.capacity_plan((BUDGET,)):
                common._replay(gatesim, model)
        else:
            common._replay(gatesim, model)
        twin = replay(gatesim, _nsf(policy=policy), verify=False)
        assert model.stats.snapshot() == twin.stats.snapshot()
    # planned: two table-served LRU cells, one NMRU miss and its hit;
    # unplanned: the LRU cells hit the first replay's entry as well
    want = (1, 2) if planned else (3, 2)
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == want


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


@pytest.mark.parametrize("kind", sorted(WRAPPED))
def test_wrapped_models_are_always_replayed(gatesim, monkeypatch, kind,
                                           tmp_path):
    log = ReplayLog(monkeypatch, tmp_path / "replays.jsonl")
    for _ in range(2):
        common._replay_event(gatesim, WRAPPED[kind]())
    assert log.keys == [(None, None)] * 2
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (0, 0)
    assert not common._RESULT_MEMO


# -- memo mechanics -----------------------------------------------------------


def test_grown_trace_is_replayed_again():
    trace = _contexts_trace(6)
    before = common._replay_event(trace, _nsf(ctx=CTX, budget=8))
    before = before.stats.snapshot()
    trace.append(OP_READ, 0, 0, 0)  # context 0 was evicted at 8 lines
    after = common._replay_event(trace, _nsf(ctx=CTX, budget=8))
    assert common.RESULT_STATS.misses == 2
    assert after.stats.snapshot() != before
    twin = replay(trace, _nsf(ctx=CTX, budget=8), verify=False)
    assert after.capture() == twin.capture()


def test_equal_content_shares_one_entry():
    first = _contexts_trace(6)
    second = Trace.loads_binary(first.dumps_binary())
    assert second is not first and second == first
    served = [common._replay_event(trace, _nsf(ctx=CTX, budget=8))
              for trace in (first, second)]
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (1, 1)
    assert served[0].capture() == served[1].capture()


def test_memo_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(common, "_RESULT_MEMO_LIMIT", 2)
    old, other, new = (_contexts_trace(n) for n in (5, 6, 7))

    def run(trace):
        common._replay_event(trace, _nsf(ctx=CTX, budget=8))
        return common.RESULT_STATS.misses

    for trace in (old, other, old, new):  # ``old`` is used again
        run(trace)
    assert common.RESULT_STATS.misses == 3
    assert run(old) == 3  # kept past the bound
    assert run(other) == 4  # evicted, so replayed again
    assert len(common._RESULT_MEMO) == 2


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
    common.clear_result_memo()
    served, twin = _served_and_twin(
        trace, lambda: _random_model(design, units, seed))
    assert served.capture() == twin.capture()
