"""The oracle's table memo: keyed by trace content, each scan made once.

Two rings of evidence:

* **End to end.** fig09-fig14 run in one process under ``event`` and
  then under ``oracle`` print identical tables, and the oracle pass
  never scans one (trace content, design family, capacity) twice:
  fig10, fig12 and fig14 revisit only cells that fig09 and fig11
  already priced, fig11 scans the shared GateSim trace at most once
  per family, and no per-model (Gamteb) trace is scanned at all: its
  cells restore the end states their cache entries hold.
* **Memo semantics.** Equal content shares one scan; a trace that grew
  is scanned again, never served a stale table; eviction is least
  recently used; a capacity's patch does not depend on the grid that
  computed it; and at or above the peak the closed form equals the
  table patch.
"""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NamedStateRegisterFile
from repro.evalx import run_experiment
from repro.trace import cache as trace_cache, columnar, oracle
from repro.trace.events import OP_BEGIN, OP_READ, OP_WRITE, Trace
from repro.trace.replay import replay
from repro.workloads import get_workload
from tests.conftest import FileLog
from tests.test_oracle_differential import (
    CTX,
    _without_frees,
    random_traces,
)

SWEEPS = ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14")

#: the golden seed (11) is covered by the golden checks
SCALE, SEED = 0.2, 3


@pytest.fixture
def fresh_memos(monkeypatch):
    monkeypatch.setattr(oracle, "_TABLE_MEMO", {})
    monkeypatch.setattr(columnar, "_ANALYSES", {})


class ScanLog:
    """Records every table scan, in this process or a forked child:
    ``scans`` lists ``(label, digest, families, caps)``."""

    def __init__(self, monkeypatch, path):
        self.label = None
        self.log = FileLog(path)
        scan = oracle._family_tables

        def logged(trace, family, caps):
            computed = scan(trace, family, caps)
            self.log.append([self.label, trace.digest().hex(),
                             list(computed), list(caps)])
            return computed

        monkeypatch.setattr(oracle, "_family_tables", logged)

    @property
    def scans(self):
        return [(label, bytes.fromhex(digest),
                 tuple(tuple(family) for family in families), tuple(caps))
                for label, digest, families, caps in self.log.records()]


def _nsf(budget):
    return NamedStateRegisterFile(num_registers=budget, context_size=CTX)


def _snapshot(model):
    return (model.stats.snapshot(), model.backing.words_stored,
            model.backing.words_loaded)


def _replayed(trace, budget):
    return _snapshot(replay(trace, _nsf(budget), verify=False))


def _served(trace, budget, plan=()):
    model = _nsf(budget)
    assert oracle.serve_from_tables(trace, model, plan)
    return _snapshot(model)


def _contexts_trace(contexts):
    """``contexts`` live contexts writing, then reading, every
    register: peak demand ``contexts * CTX``, so small files evict."""
    trace = Trace(context_size=CTX)
    for cid in range(contexts):
        trace.append(OP_BEGIN, cid)
        for offset in range(CTX):
            trace.append(OP_WRITE, cid, offset, cid + offset)
    for cid in range(contexts):
        for offset in range(CTX):
            trace.append(OP_READ, cid, offset, cid + offset)
    return trace


# -- end to end ---------------------------------------------------------------


def test_sweeps_scan_each_trace_family_and_capacity_once(
        tmp_path, monkeypatch, fresh_memos):
    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "event"))
    monkeypatch.delenv(trace_cache.ENV_DISABLE, raising=False)
    monkeypatch.setattr(trace_cache, "_memo", {})
    monkeypatch.setenv(columnar.ENV_ENGINE, "event")
    expected = {name: run_experiment(name, scale=SCALE, seed=SEED)
                for name in SWEEPS}

    # an empty cache of its own: on the event pass's, every cell would
    # restore the result entry its replay left, and nothing would scan
    monkeypatch.setenv(trace_cache.ENV_DIR, str(tmp_path / "oracle"))
    log = ScanLog(monkeypatch, tmp_path / "scans.jsonl")
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    for name in SWEEPS:
        log.label = name
        table = run_experiment(name, scale=SCALE, seed=SEED)
        assert table.to_dict() == expected[name].to_dict(), name

    priced = collections.Counter(
        (digest, family, cap)
        for _, digest, families, caps in log.scans
        for family in families for cap in caps)
    repeated = [key for key, count in priced.items() if count > 1]
    assert log.scans and not repeated
    # 10 scans in all at (SCALE, SEED), one per shared trace and family
    # that some planned cell needs below the trace's peak
    assert len(log.scans) == 10

    per_figure = collections.Counter(label for label, *_ in log.scans)
    for name in ("fig10", "fig12", "fig14"):
        assert per_figure[name] == 0, f"{name} rescanned priced cells"

    gatesim = trace_cache.load_or_record(
        get_workload("GateSim"), scale=SCALE, seed=SEED).digest()
    fig11 = [scan for scan in log.scans if scan[0] == "fig11"]
    gatesim_families = collections.Counter(
        family for _, digest, families, _ in fig11 if digest == gatesim
        for family in families)
    assert max(gatesim_families.values(), default=0) <= 1
    # fig11's other traces are per-model Gamteb traces, never scanned
    assert fig11 and all(digest == gatesim for _, digest, _, _ in fig11)


# -- memo semantics -----------------------------------------------------------


def test_equal_content_shares_one_scan(monkeypatch, fresh_memos,
                                       tmp_path):
    log = ScanLog(monkeypatch, tmp_path / "scans.jsonl")
    first = _contexts_trace(6)
    second = Trace.loads_binary(first.dumps_binary())
    assert second is not first and second == first
    assert _served(first, 8, (4, 8)) == _replayed(first, 8)
    assert _served(second, 4, (4, 8)) == _replayed(second, 4)
    assert len(log.scans) == 1


def test_grown_trace_is_scanned_again(monkeypatch, fresh_memos,
                                      tmp_path):
    log = ScanLog(monkeypatch, tmp_path / "scans.jsonl")
    trace = _contexts_trace(6)
    before = _served(trace, 8)
    trace.append(OP_READ, 0, 0, 0)  # context 0 was evicted at 8 lines
    after = _served(trace, 8)
    assert len(log.scans) == 2
    assert after == _replayed(trace, 8) and after != before


def test_grown_trace_gets_a_fresh_analysis(fresh_memos):
    first = _contexts_trace(6)
    twin = Trace.loads_binary(first.dumps_binary())
    analysis = columnar.analyze(first)
    assert columnar.analyze(twin) is analysis
    first.append(OP_READ, 0, 0, 0)
    grown = columnar.analyze(first)
    assert grown is not analysis
    assert grown.n_reads == analysis.n_reads + 1


def test_table_memo_evicts_least_recently_used(monkeypatch, fresh_memos,
                                                tmp_path):
    monkeypatch.setattr(oracle, "_MEMO_LIMIT", 2)
    log = ScanLog(monkeypatch, tmp_path / "scans.jsonl")
    old, other, new = (_contexts_trace(n) for n in (5, 6, 7))
    for trace in (old, other, old, new):  # ``old`` is used again
        _served(trace, 4)
    assert len(log.scans) == 3
    _served(old, 4)
    assert len(log.scans) == 3  # kept past the bound
    _served(other, 4)
    assert len(log.scans) == 4  # evicted, so scanned again


def test_analysis_memo_evicts_least_recently_used(monkeypatch, fresh_memos):
    monkeypatch.setattr(columnar, "_MEMO_LIMIT", 2)
    old, other, new = (_contexts_trace(n) for n in (5, 6, 7))
    kept = columnar.analyze(old)
    columnar.analyze(other)
    columnar.analyze(old)
    columnar.analyze(new)
    assert columnar.analyze(old) is kept
    assert other.digest() not in columnar._ANALYSES


def test_capacities_at_or_above_peak_are_never_scanned(monkeypatch,
                                                       fresh_memos,
                                                       tmp_path):
    log = ScanLog(monkeypatch, tmp_path / "scans.jsonl")
    trace = _contexts_trace(6)
    peak = columnar.analyze(trace).peak_lines
    plan = (4, 8, peak, peak + 8)
    for budget in plan:
        assert _served(trace, budget, plan) == _replayed(trace, budget)
    assert [caps for *_, caps in log.scans] == [(4, 8)]


# -- hypothesis: random traces ------------------------------------------------

FAMILIES = [("nsf", 1, "lru", 4), ("seg", "frame", "lru", 4)]

capacity_sets = st.sets(st.integers(1, 10), max_size=5)


@settings(max_examples=60, deadline=None)
@given(random_traces(), st.sampled_from(FAMILIES), st.integers(1, 10),
       capacity_sets, capacity_sets)
def test_patch_does_not_depend_on_the_grid(trace, family, cap, extra_a,
                                           extra_b):
    grid_a = sorted(extra_a | {cap})
    grid_b = sorted(extra_b | {cap})
    tables_a = oracle._family_tables(trace, family, grid_a)
    tables_b = oracle._family_tables(trace, family, grid_b)
    assert tables_a.keys() == tables_b.keys()
    for fam, table in tables_a.items():
        for shared in set(grid_a) & set(grid_b):
            assert table[shared] == tables_b[fam][shared], (fam, shared)


@settings(max_examples=60, deadline=None)
@given(random_traces().map(_without_frees), st.integers(0, 3))
def test_closed_form_equals_table_patch_at_or_above_peak(trace, headroom):
    analysis = columnar._analyze_uncached(trace)
    cap = max(1, analysis.peak_lines) + headroom
    closed = _nsf(cap)
    assert columnar.apply_stats(analysis, closed)
    tabled = _nsf(cap)
    oracle.apply_table(oracle.capacity_tables(trace, [cap])[cap], tabled)
    assert _snapshot(closed) == _snapshot(tabled)
