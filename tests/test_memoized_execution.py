"""Memoized execution: one result entry per cell.

A timing-sensitive workload (Gamteb) has no shared trace, and the cache
keeps none of its: a fresh cell runs its front-end directly, and the
model's end state becomes the cell's result entry.  Every other fresh
cell's first replay leaves a result entry too.  A later fresh model of
the same configuration ``restore()``s it and replays or runs nothing.
Evidence that this never changes a number:

* **Exact end state.** Every fresh cell of fig09-fig14, claims and
  table1 ends, restored from disk, exactly as a replay of its trace
  onto a fresh model, and every Gamteb cell, cold and restored, as a
  direct run.
* **Integrity.** A flipped byte in a result entry fails the CRC: the
  entry is quarantined, its cell replayed or run and published again,
  and the tables do not change.  So is an oracle entry, which the
  tables price and publish again.
* **Who restores.** Compressing (whose codec round trips must all
  run), protected, faulty, subclassed and driven models neither look
  a result entry up nor publish one, and a stored model key other
  than the model's own gives a replay or a direct run.  An ``event``
  pass on a cache the oracle filled restores no oracle entry, and
  every fresh cell ends as a replay or a direct run.
* **Keys.** A result entry is named by its cell and its model: another
  interpreter changes every result name and no trace name; an edit to
  the ``repro/core`` sources changes every result name, an edit to the
  replay loop only the replay results' and an edit to the oracle's
  sources only the oracle entries'.
* **Producers.** An ``oracle`` pass on an empty cache publishes replay
  results only for its fallback replays and its Gamteb cells' direct
  runs, and an oracle entry for each cell the closed form or a table
  served.  A Gamteb cell whose entry is gone runs directly, under the
  oracle too, and publishes it again; no Gamteb trace is recorded.
"""

import marshal
import pathlib

import pytest

from repro.core import (
    NamedStateRegisterFile,
    ProtectedRegisterFile,
    compress_spills,
)
from repro.core.compress import CompressedSpillPort
from repro.core.faults import FaultyRegisterFile
from repro.evalx import common, fig13, run_experiment
from repro.evalx.common import make_nsf, make_segmented, run_workload
from repro.trace import cache as trace_cache, columnar, oracle
from repro.trace.admit import admit
from repro.trace.events import Trace, TraceFormatError, frame
from repro.trace.replay import replay
from repro.workloads import get_workload, workload_names
from tests.conftest import FileLog
from tests.test_result_memo import (  # noqa: F401 (fixture)
    ReplayLog,
    cache_env,
)

#: the golden seed (11) is covered by the golden checks
SCALE, SEED = 0.2, 3

#: the experiments whose cells run fresh plain models, Gamteb's included
MEMO_HELD = ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
             "claims", "table1")

SWEEPS = MEMO_HELD[:6]


def _canonical(model):
    """A model's ``capture()`` as bytes that equal captures share."""
    return marshal.dumps(model.capture(), 2)


def _read(path):
    """The entry at ``path``, read from disk without a lookup, a count
    or a log line."""
    return trace_cache._parse_entry(path, path.read_bytes())


def _trace(workload, scale=SCALE, seed=SEED):
    """The shared trace a cell of ``workload`` replays."""
    return _read(trace_cache.trace_path(workload, scale, seed))


#: canonical captures of direct runs, by workload, point and config
_DIRECT = {}


def _direct(workload, twin, scale=SCALE, seed=SEED):
    """The canonical capture a direct run of ``workload`` leaves on a
    fresh model configured as the fresh ``twin``."""
    key = (workload.name, scale, seed, _canonical(twin))
    if key not in _DIRECT:
        model = type(twin)(**admit(twin).config)
        workload.run(model, scale=scale, seed=seed)
        _DIRECT[key] = _canonical(model)
    return _DIRECT[key]


def _result_files():
    return sorted(trace_cache.cache_dir().glob(
        "*" + trace_cache.RESULT_SUFFIX))


def _oracle_name(workload, model, scale=SCALE, seed=SEED):
    """The file name of the oracle entry of the cell ``(workload,
    scale, seed)`` on a fresh ``model`` the result memo holds."""
    key = trace_cache.end_key(model, admit(model))
    return trace_cache.Result(workload, scale, seed, key,
                              oracle=True).path.name


#: content digests of cached traces, by path and modification time
_DIGESTS = {}


def _workload_of(trace, scale=SCALE, seed=SEED):
    """The workload whose shared trace at ``(scale, seed)`` in the
    active cache is ``trace``."""
    for workload in map(get_workload, workload_names()):
        path = trace_cache.trace_path(workload, scale, seed)
        if not path.exists():
            continue
        stamp = (str(path), path.stat().st_mtime_ns)
        if stamp not in _DIGESTS:
            _DIGESTS[stamp] = _read(path).digest()
        if _DIGESTS[stamp] == trace.digest():
            return workload
    raise LookupError("no cached trace has this content")


class Cells:
    """Every cell :func:`common.run_workload` resolves for a fresh model
    the result memo holds: a twin built from its config, and the model
    itself."""

    def __init__(self, monkeypatch):
        self.cells = []
        inner = common.run_workload

        def logged(workload, model, scale=1.0, seed=1):
            verdict = admit(model)
            if verdict.memo and verdict.fresh:
                twin = type(model)(**verdict.config)
                self.cells.append((workload, twin, model))
            return inner(workload, model, scale=scale, seed=seed)

        monkeypatch.setattr(common, "run_workload", logged)

    def take(self):
        cells, self.cells = self.cells, []
        return cells


def test_restored_cells_end_as_a_replay_and_a_direct_run(cache_env,
                                                         monkeypatch):
    restores = []
    inner = common._restored

    def counted(result, model):
        restored = inner(result, model)
        if result is not None:
            restores.append(restored)
        return restored

    monkeypatch.setattr(common, "_restored", counted)
    cells = Cells(monkeypatch)
    tables = {}
    configs = set()
    for name in MEMO_HELD:
        tables[name] = run_experiment(name, scale=SCALE,
                                      seed=SEED).to_dict()
        for workload, twin, model in cells.take():
            if not workload.trace_stable:
                # run directly, here or ahead in a forked child, or
                # restored from what the first run of its config left
                assert _canonical(model) == _direct(workload, twin), name
                configs.add(_canonical(twin))
    assert len(configs) >= 16 and any(restores)
    # no Gamteb trace was recorded
    assert not list(trace_cache.cache_dir().glob("gamteb-*.trace"))

    # warm, every entry read from disk
    trace_cache._memo.clear()
    del restores[:]
    checked = direct = 0
    for name in MEMO_HELD:
        assert run_experiment(name, scale=SCALE,
                              seed=SEED).to_dict() == tables[name], name
        for workload, twin, model in cells.take():
            restored = _canonical(model)
            if workload.trace_stable:
                assert restored == _canonical(
                    replay(_trace(workload), twin, verify=False)), name
            else:
                assert restored == _direct(workload, twin), name
                direct += 1
            checked += 1
    # every fresh cell of the warm pass was restored, Gamteb's and the
    # shared traces' alike
    assert len(restores) == checked and all(restores)
    assert direct >= 40 and checked > direct
    # and a direct run ends there too, for each design the sweeps use
    for build in (make_nsf, make_segmented):
        gamteb = get_workload("Gamteb")
        model = build(gamteb)
        run_workload(gamteb, model, scale=SCALE, seed=SEED)
        direct = build(gamteb)
        gamteb.run(direct, scale=SCALE, seed=SEED)
        assert _canonical(model) == _canonical(direct)


def test_a_flipped_end_state_byte_is_quarantined(cache_env):
    expected = run_experiment("fig09", scale=SCALE, seed=SEED).to_dict()
    paths = _result_files()
    # fig09's 16 shared-trace cells and its 2 Gamteb cells
    assert len(paths) == 18
    for path in paths:
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # the last byte of the marshalled end state
        path.write_bytes(bytes(blob))
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    common.RESULT_STATS.reset()
    assert run_experiment("fig09", scale=SCALE,
                          seed=SEED).to_dict() == expected
    # quarantined, replayed or run and published again; no trace
    # recorded
    assert (trace_cache.STATS.quarantined,
            trace_cache.STATS.records) == (18, 0)
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (0, 18)
    assert sorted(path.name for path, _ in
                  trace_cache.quarantine_entries()) == [p.name for p in paths]
    assert _result_files() == paths
    # published whole: the next pass restores from them
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    common.RESULT_STATS.reset()
    assert run_experiment("fig09", scale=SCALE,
                          seed=SEED).to_dict() == expected
    assert trace_cache.STATS.quarantined == 0
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (18, 0)


def _serving(monkeypatch, served):
    """Append to ``served`` the oracle entry name of every cell
    :func:`~repro.trace.oracle.serve_from_tables` serves here."""
    serve = common.serve_from_tables

    def serving(trace, model, capacities):
        name = _oracle_name(_workload_of(trace), model)
        if serve(trace, model, capacities):
            served.append(name)
            return True
        return False

    monkeypatch.setattr(common, "serve_from_tables", serving)


def test_a_flipped_oracle_entry_byte_is_quarantined(cache_env,
                                                    monkeypatch):
    """Under ``oracle``, fig09's 16 shared-trace cells are served by the
    closed form or a table and publish oracle entries; a flipped byte
    in each is caught by the CRC, quarantined, priced by the tables
    again and published again, and the table does not change."""
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    served = []
    _serving(monkeypatch, served)
    expected = run_experiment("fig09", scale=SCALE, seed=SEED).to_dict()
    paths = [path for path in _result_files() if path.name in served]
    # the 2 Gamteb cells' replay results are the other entries
    assert (len(served), len(paths), len(_result_files())) == (16, 16, 18)
    for path in paths:
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # the last byte of the marshalled end state
        path.write_bytes(bytes(blob))
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    common.RESULT_STATS.reset()
    monkeypatch.setattr(oracle, "_TABLE_MEMO", {})
    del served[:]
    assert run_experiment("fig09", scale=SCALE,
                          seed=SEED).to_dict() == expected
    # quarantined, priced by the tables and published again; the Gamteb
    # cells restore their replay results
    assert sorted(served) == sorted(path.name for path in paths)
    assert (trace_cache.STATS.quarantined,
            trace_cache.STATS.records) == (16, 0)
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (2, 16)
    assert sorted(path.name for path, _ in
                  trace_cache.quarantine_entries()) == [p.name for p in paths]
    assert len(_result_files()) == 18
    # published whole: the next pass restores every cell
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    common.RESULT_STATS.reset()
    del served[:]
    assert run_experiment("fig09", scale=SCALE,
                          seed=SEED).to_dict() == expected
    assert served == [] and trace_cache.STATS.quarantined == 0
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (18, 0)


# -- who restores -------------------------------------------------------------

GAMTEB = get_workload("Gamteb")


def _nsf(**kw):
    return make_nsf(GAMTEB, num_registers=64, **kw)


class _Subclassed(NamedStateRegisterFile):
    pass


def _compressing():
    model = _nsf()
    compress_spills(model, codec="raw", shadow_codecs=["zero"])
    return model


def _driven():
    model = _nsf()
    model.begin_context(1 << 20)
    model.end_context(1 << 20)
    return model


#: models that must never take a stored end state
NEVER_RESTORE = {
    "compressing": _compressing,
    "protected": lambda: ProtectedRegisterFile(_nsf()),
    "faulty": lambda: FaultyRegisterFile(_nsf(), "corrupt_reload",
                                         trigger_at=10 ** 9),
    "subclassed": lambda: _Subclassed(num_registers=64, context_size=32),
    "driven": _driven,
}


@pytest.mark.parametrize("kind", sorted(NEVER_RESTORE))
def test_these_models_never_restore(cache_env, monkeypatch, kind):
    build = NEVER_RESTORE[kind]
    # a plain model's entry is warm, and one of the model's own kind ran
    run_workload(GAMTEB, _nsf(), scale=SCALE, seed=SEED)
    run_workload(GAMTEB, build(), scale=SCALE, seed=SEED)
    results = _result_files()
    direct = build()
    GAMTEB.run(direct, scale=SCALE, seed=SEED)
    restored, sent = [], []
    for cls in (NamedStateRegisterFile, _Subclassed):
        inner = cls.restore

        def spying(self, state, inner=inner):
            restored.append(type(self).__name__)
            return inner(self, state)

        monkeypatch.setattr(cls, "restore", spying)
    transmit = CompressedSpillPort.transmit

    def counted(self, *args, **kwargs):
        sent.append(1)
        return transmit(self, *args, **kwargs)

    monkeypatch.setattr(CompressedSpillPort, "transmit", counted)
    trace_cache.STATS.reset()
    model = run_workload(GAMTEB, build(), scale=SCALE, seed=SEED)
    assert not restored
    assert model.capture() == direct.capture()
    assert model.stats.snapshot() == direct.stats.snapshot()
    # the front-end ran directly: nothing looked up, recorded or
    # published
    assert (trace_cache.STATS.hits, trace_cache.STATS.misses,
            trace_cache.STATS.records) == (0, 0, 0)
    assert _result_files() == results
    assert not list(trace_cache.cache_dir().glob("*.trace"))
    if kind == "compressing":
        # every spill and reload went through the codecs again
        assert sent and model.backing.port.stats_for("zero").spill_units > 0


def test_a_driven_model_runs_its_front_end_directly(cache_env):
    """Two runs of Gamteb on one model through :func:`run_workload`
    end as two direct runs do: the second run is not served the end
    state a fresh model left."""
    def build():
        return NamedStateRegisterFile(num_registers=64, context_size=32,
                                      policy="random", policy_seed=1)

    model = build()
    for _ in range(2):
        run_workload(GAMTEB, model, scale=0.2, seed=1)
    direct = build()
    for _ in range(2):
        GAMTEB.run(direct, scale=0.2, seed=1)
    assert model.stats.snapshot() == direct.stats.snapshot()
    assert model.capture() == direct.capture()
    # the first run looked its result entry up, missed and published
    # it; the second looked nothing up and published nothing
    assert (trace_cache.STATS.hits, trace_cache.STATS.misses,
            trace_cache.STATS.records) == (0, 1, 0)
    assert len(_result_files()) == 1


def test_another_stored_model_key_gives_a_replay(cache_env, monkeypatch):
    """An entry that passes its CRC but names another model is refused:
    a shared-trace cell replays and a Gamteb cell runs directly, and
    each publishes its own entry over it."""
    gatesim = get_workload("GateSim")
    cells = {"GateSim": (gatesim, lambda: make_nsf(gatesim,
                                                   num_registers=40)),
             "Gamteb": (GAMTEB, _nsf)}
    keys = {}
    for name, (workload, build) in cells.items():
        run_workload(workload, build(), scale=SCALE, seed=SEED)
        result = trace_cache.result_entry(workload, build(), SCALE, SEED)
        key, state = marshal.loads(_read(result.path))
        keys[name] = result.path, key
        other = ("repro.core.nsf.Other",) + key[1:]
        result.path.write_bytes(frame(marshal.dumps((other, state), 2)))
    trace_cache._memo.clear()
    served = []
    replay_inner, run_inner = common.replay, trace_cache.record_through

    def replaying(trace, model, verify=True):
        served.append("replay")
        return replay_inner(trace, model, verify=verify)

    def running(workload, model, *args, **kwargs):
        served.append("run")
        return run_inner(workload, model, *args, **kwargs)

    monkeypatch.setattr(common, "replay", replaying)
    monkeypatch.setattr(trace_cache, "record_through", running)
    for name, (workload, build) in cells.items():
        model = run_workload(workload, build(), scale=SCALE, seed=SEED)
        expected = (_direct(workload, build()) if name == "Gamteb"
                    else _canonical(replay_inner(_trace(workload), build(),
                                                 verify=False)))
        assert _canonical(model) == expected, name
        # its own entry was published over the forged one
        path, key = keys[name]
        assert marshal.loads(_read(path))[0] == key
    assert served == ["replay", "run"]
    for workload, build in cells.values():
        run_workload(workload, build(), scale=SCALE, seed=SEED)
    assert served == ["replay", "run"]


def test_the_stored_key_names_the_recording_model(cache_env):
    model = _nsf(policy="nmru", policy_seed=4)
    run_workload(GAMTEB, model, scale=SCALE, seed=SEED)
    twin = _nsf(policy="nmru", policy_seed=4)
    result = trace_cache.result_entry(GAMTEB, twin, SCALE, SEED)
    key, state = marshal.loads(_read(result.path))
    assert key == result.key == ("repro.core.nsf.NamedStateRegisterFile",
                                 tuple(twin._config().items()))
    assert state == model.capture()


def test_an_event_pass_restores_no_oracle_entry(cache_env, monkeypatch):
    """On a cache an ``oracle`` pass filled, an ``event`` pass restores
    only replay results: every fresh cell ends exactly as a replay of
    its trace onto a fresh model, or as a direct run, which an oracle
    entry (a fresh model's internals under served statistics) would
    not."""
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    tables = {name: run_experiment(name, scale=SCALE, seed=SEED).to_dict()
              for name in ("fig09", "fig11")}
    published = {path.name for path in _result_files()}
    monkeypatch.setenv(columnar.ENV_ENGINE, "event")
    trace_cache._memo.clear()
    restored = []
    inner = common._restored

    def logged(result, model):
        if inner(result, model):
            restored.append(result.path.name)
            return True
        return False

    monkeypatch.setattr(common, "_restored", logged)
    cells = Cells(monkeypatch)
    oracle_entries = set()
    checked = 0
    for name, table in tables.items():
        assert run_experiment(name, scale=SCALE,
                              seed=SEED).to_dict() == table, name
        for workload, twin, model in cells.take():
            if workload.trace_stable:
                oracle_entries.add(_oracle_name(workload, twin))
                expected = _canonical(replay(_trace(workload), twin,
                                             verify=False))
            else:
                expected = _direct(workload, twin)
            assert _canonical(model) == expected, name
            checked += 1
    # the oracle pass left oracle entries, and none was restored
    assert oracle_entries & published
    assert restored and not oracle_entries & set(restored)
    assert checked > len(restored)


# -- keys ---------------------------------------------------------------------


def _keys():
    """``(trace name, result name)``: the shared trace of one cell, and
    the result entry of another."""
    shared = trace_cache.trace_path(get_workload("DTW"), SCALE, SEED).name
    result = trace_cache.result_entry(GAMTEB, _nsf(), SCALE, SEED)
    return shared, result.path.name


def _copy_core(tmp_path, monkeypatch):
    """A copy of the ``repro/core`` sources the fingerprint reads."""
    core = tmp_path / "core"
    core.mkdir()
    for path in sorted(trace_cache.CORE_DIR.glob("*.py")):
        (core / path.name).write_bytes(path.read_bytes())
    monkeypatch.setattr(trace_cache, "CORE_DIR", core)
    monkeypatch.setattr(trace_cache, "_core_fingerprint", None)
    return core


def _edit(path, monkeypatch, cached):
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("# an edit\n")
    monkeypatch.setattr(trace_cache, cached, None)


def test_another_interpreter_changes_model_keyed_keys_only(monkeypatch):
    """Another bytecode tag renames every entry that names a model (a
    result entry holds a model's end state) and no shared trace."""
    import sys

    shared, result = _keys()
    monkeypatch.setattr(sys.implementation, "cache_tag", "other-99")
    monkeypatch.setattr(trace_cache, "_core_fingerprint", None)
    assert _keys()[0] == shared
    assert _keys()[1] != result


#: the oracle's sources, each of which an oracle entry's key names
ORACLE_SOURCES = ("oracle", "vector", "columnar", "admit")


@pytest.mark.parametrize("source", ("core", "replay") + ORACLE_SOURCES)
def test_a_model_or_replay_source_edit_changes_result_keys(monkeypatch,
                                                           tmp_path,
                                                           source):
    """An edit to the ``repro/core`` sources changes the names of both
    kinds of result entry; one to the replay loop only the replay
    results', and one to the oracle's sources only the oracle
    entries'."""
    model = _nsf()

    def names():
        return (trace_cache.result_entry(GAMTEB, model, SCALE,
                                         SEED).path.name,
                _oracle_name(GAMTEB, model))

    before = names()
    if source == "core":
        edited = _copy_core(tmp_path, monkeypatch) / "segmented.py"
    elif source == "replay":
        edited = tmp_path / "replay.py"
        edited.write_bytes(trace_cache.REPLAY_SOURCE.read_bytes())
        monkeypatch.setattr(trace_cache, "REPLAY_SOURCE", edited)
    else:
        copies = []
        for path in trace_cache.ORACLE_SOURCES:
            copies.append(tmp_path / path.name)
            copies[-1].write_bytes(path.read_bytes())
        monkeypatch.setattr(trace_cache, "ORACLE_SOURCES", tuple(copies))
        edited = tmp_path / f"{source}.py"

    def forget():
        """Read every fingerprint afresh, as a new process does."""
        for cached in ("_core_fingerprint", "_replay_fingerprint",
                       "_oracle_fingerprint"):
            monkeypatch.setattr(trace_cache, cached, None)

    forget()
    assert names() == before  # the same sources, the same keys
    _edit(edited, monkeypatch, "_core_fingerprint")
    forget()
    replayed, priced = names()
    assert (replayed != before[0]) == (source in ("core", "replay"))
    assert (priced != before[1]) == (source != "replay")


# -- producers ----------------------------------------------------------------


def test_an_oracle_pass_publishes_only_replays_and_recordings(
        cache_env, monkeypatch):
    """Replay results come only from replays and Gamteb's direct runs,
    and every other entry is the oracle entry of a cell the closed form
    or a table served."""
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    monkeypatch.setattr(common, "_cpus", lambda: 1)  # every replay here
    replayed, recorded, served = set(), set(), []
    _serving(monkeypatch, served)
    fallback = common.replay_oracle

    def replaying(trace, model, result=None):
        replayed.add(result.path.name)
        return fallback(trace, model, result)

    monkeypatch.setattr(common, "replay_oracle", replaying)
    record = trace_cache.record_through

    def recording(workload, model, scale=1.0, seed=1, result=None):
        if result is not None:
            recorded.add(result.path.name)
        return record(workload, model, scale=scale, seed=seed,
                      result=result)

    monkeypatch.setattr(trace_cache, "record_through", recording)
    for name in SWEEPS:
        run_experiment(name, scale=SCALE, seed=SEED)
    # fig13's GateSim cells are the only fallbacks; every Gamteb
    # configuration runs once
    assert len(replayed) == len(fig13.SEQ_LINE_SIZES)
    assert len(recorded) >= 16
    served = set(served)
    assert served and not served & (replayed | recorded)
    assert {path.name for path in _result_files()} == (
        replayed | recorded | served)


def test_a_gamteb_cell_without_its_entry_is_run_directly_and_published(
        cache_env, monkeypatch, tmp_path):
    """A Gamteb cell has no trace to replay or scan, under the oracle
    too: a cell whose result entry is gone runs its front-end directly
    once per configuration, here or ahead in a forked child, ends as a
    direct run and publishes the entry again, and the next pass
    restores it."""
    cells = Cells(monkeypatch)
    expected = run_experiment("fig11", scale=SCALE, seed=SEED).to_dict()
    assert not list(tmp_path.glob("gamteb-*.trace"))
    configs = len({_canonical(twin) for workload, twin, _ in cells.take()
                   if not workload.trace_stable})
    assert configs == 18
    trace_cache.clear_results()
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    monkeypatch.setattr(oracle, "_TABLE_MEMO", {})
    scans = FileLog(tmp_path / "scans.jsonl")
    inner = oracle._family_tables

    def logged(trace, family, units):
        scans.append(trace.digest().hex())
        return inner(trace, family, units)

    monkeypatch.setattr(oracle, "_family_tables", logged)
    log = ReplayLog(monkeypatch, tmp_path / "replays.jsonl")
    runs = []
    record = trace_cache.record_through

    def running(workload, model, scale=1.0, seed=1, result=None):
        runs.append(result.path.name)
        return record(workload, model, scale=scale, seed=seed,
                      result=result)

    monkeypatch.setattr(trace_cache, "record_through", running)
    common.RESULT_STATS.reset()
    common.FANOUT.reset()
    assert run_experiment("fig11", scale=SCALE,
                          seed=SEED).to_dict() == expected
    gatesim = _trace(get_workload("GateSim")).digest().hex()
    assert scans.records() and set(scans.records()) == {gatesim}
    # the closed form and the tables price every shared-trace cell and
    # publish its oracle entry: nothing replays, and the Gamteb cells
    # run once per configuration, each planned ahead of its cell
    assert log.keys == []
    assert len(runs) == len(set(runs)) == configs
    assert common.FANOUT.recordings == configs
    published = {path.name for path in _result_files()}
    assert set(runs) < published
    assert common.RESULT_STATS.misses == len(published)
    for workload, twin, model in cells.take():
        if not workload.trace_stable:
            assert _canonical(model) == _direct(workload, twin)
    common.RESULT_STATS.reset()
    assert run_experiment("fig11", scale=SCALE,
                          seed=SEED).to_dict() == expected
    assert len(runs) == configs and log.keys == []
    assert common.RESULT_STATS.misses == 0
    assert common.RESULT_STATS.hits >= configs
    for workload, twin, model in cells.take():
        if not workload.trace_stable:
            assert _canonical(model) == _direct(workload, twin)


# -- the entry format ---------------------------------------------------------


def test_an_entry_round_trips_through_its_framed_payload():
    from repro.trace.events import OP_BEGIN, OP_WRITE

    trace = Trace(context_size=4)
    trace.append(OP_BEGIN, 1)
    trace.append(OP_WRITE, 1, 0, 1 << 70)  # a wide value
    traced, resulted = pathlib.Path("x.trace"), pathlib.Path("x.result")
    decoded = trace_cache._parse_entry(traced, frame(trace.dumps_binary()))
    assert decoded == trace
    assert list(decoded)[-1][3] == 1 << 70
    end = marshal.dumps((("m", ()), {"x": [1, 2]}), 2)
    assert trace_cache._parse_entry(resulted, frame(end)) == end
    for cut in (1, len(end) - 1):
        with pytest.raises(TraceFormatError):
            trace_cache._parse_entry(resulted, frame(end[:cut]))
    # neither kind reads as the other
    with pytest.raises(TraceFormatError):
        trace_cache._parse_entry(traced, frame(end))
    with pytest.raises(TraceFormatError):
        trace_cache._parse_entry(resulted, frame(trace.dumps_binary()))
