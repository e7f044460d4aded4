"""Memoized execution: model-keyed traces and result entries.

A timing-sensitive workload (Gamteb) is recorded straight through the
model it runs on: its cache entry holds the trace, and the recording
model's end state becomes the result entry of that trace.  Every other
fresh cell's first replay leaves a result entry too.  A later fresh
model of the same configuration ``restore()``s it and replays nothing.
Evidence that this never changes a number:

* **Exact end state.** Every fresh cell of fig09-fig14, claims and
  table1 ends, restored from disk, exactly as a replay of its trace
  onto a fresh model, and every Gamteb cell also as the cold direct
  run it memoizes.
* **Integrity.** A flipped byte in a result entry fails the CRC: the
  entry is quarantined, replayed and published again, and the tables
  do not change.  So is an oracle entry, which the tables price and
  publish again.
* **Who restores.** Compressing (whose codec round trips must all
  run), protected, faulty, subclassed and driven models neither look
  a result entry up nor publish one; only a fresh one looks its trace
  up at all, and a stored model key other than the model's own gives
  a replay.  An ``event`` pass on a cache the oracle filled restores
  no oracle entry, and every fresh cell ends as a replay.
* **Keys.** An edit to the ``repro/core`` sources, or another
  interpreter, changes every model-keyed trace key and no shared one;
  an edit to the ``repro/core`` sources changes every result key, an
  edit to the replay loop only the replay results' and an edit to the
  oracle's sources only the oracle entries'.
* **Producers.** An ``oracle`` pass on an empty cache publishes replay
  results only for its fallback replays and its recordings, and an
  oracle entry for each cell the closed form or a table served.  A
  Gamteb cell whose entry is gone is replayed, not scanned, and
  publishes it again.
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
from repro.workloads import get_workload
from tests.test_result_memo import (  # noqa: F401 (fixture)
    ReplayLog,
    cache_env,
)

#: the golden seed (11) is covered by the golden checks
SCALE, SEED = 0.2, 3

#: the experiments whose cells run fresh plain models, Gamteb's included
MODEL_KEYED = ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
               "claims", "table1")

SWEEPS = MODEL_KEYED[:6]


def _canonical(model):
    """A model's ``capture()`` as bytes that equal captures share."""
    return marshal.dumps(model.capture(), 2)


def _read(path):
    """The entry at ``path``, read from disk without a lookup, a count
    or a log line."""
    return trace_cache._parse_entry(path, path.read_bytes())


def _trace(workload, model, scale=SCALE, seed=SEED):
    """The trace a cell of ``model`` replays: the shared one, or the
    model-keyed one its configuration recorded."""
    part = None if workload.trace_stable else trace_cache.model_part(model)
    return _read(trace_cache.trace_path(workload, scale, seed,
                                        model_fp=part))


def _result_files():
    return sorted(trace_cache.cache_dir().glob(
        "*" + trace_cache.RESULT_SUFFIX))


def _oracle_name(trace, model):
    """The file name of the oracle entry of a fresh ``model`` the result
    memo holds, for ``trace``."""
    key = trace_cache.end_key(model, admit(model))
    return trace_cache.Result(None, trace, key, oracle=True).path.name


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
    cold, tables = {}, {}
    for name in MODEL_KEYED:
        tables[name] = run_experiment(name, scale=SCALE,
                                      seed=SEED).to_dict()
        for workload, twin, model in cells.take():
            if not workload.trace_stable:
                # the first cell of a configuration is its direct run;
                # a later one restores what that run left
                first = cold.setdefault(_canonical(twin), _canonical(model))
                assert _canonical(model) == first, name
    assert len(cold) >= 16 and any(restores)

    # warm, every entry read from disk
    trace_cache._memo.clear()
    del restores[:]
    checked = direct = 0
    for name in MODEL_KEYED:
        assert run_experiment(name, scale=SCALE,
                              seed=SEED).to_dict() == tables[name], name
        for workload, twin, model in cells.take():
            restored = _canonical(model)
            if not workload.trace_stable:
                assert restored == cold[_canonical(twin)], name
                direct += 1
            trace = _trace(workload, twin)
            assert restored == _canonical(
                replay(trace, twin, verify=False)), name
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
    # quarantined, replayed and published again; no trace recorded
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


def test_a_flipped_oracle_entry_byte_is_quarantined(cache_env,
                                                    monkeypatch):
    """Under ``oracle``, fig09's 16 shared-trace cells are served by the
    closed form or a table and publish oracle entries; a flipped byte
    in each is caught by the CRC, quarantined, priced by the tables
    again and published again, and the table does not change."""
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    served = []
    serve = common.serve_from_tables

    def serving(trace, model, capacities):
        name = _oracle_name(trace, model)
        if serve(trace, model, capacities):
            served.append(name)
            return True
        return False

    monkeypatch.setattr(common, "serve_from_tables", serving)
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


#: models that must never take a stored end state: ``fresh`` marks the
#: one that may look its own trace up (and replays it)
NEVER_RESTORE = {
    "compressing": (_compressing, True),
    "protected": (lambda: ProtectedRegisterFile(_nsf()), False),
    "faulty": (lambda: FaultyRegisterFile(_nsf(), "corrupt_reload",
                                          trigger_at=10 ** 9), False),
    "subclassed": (lambda: _Subclassed(num_registers=64,
                                       context_size=32), False),
    "driven": (_driven, False),
}


@pytest.mark.parametrize("kind", sorted(NEVER_RESTORE))
def test_these_models_never_restore(cache_env, monkeypatch, kind):
    build, fresh = NEVER_RESTORE[kind]
    # a plain model's entries, and one of the model's own kind, are warm
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
    # the compressing model looks its trace up, and no result entry
    looked = trace_cache.STATS.hits + trace_cache.STATS.misses
    assert looked == (1 if fresh else 0)
    assert trace_cache.STATS.records == 0
    assert _result_files() == results
    if kind == "compressing":
        # every spill and reload went through the codecs again
        assert sent and model.backing.port.stats_for("zero").spill_units > 0


def test_a_driven_model_runs_its_front_end_directly(cache_env):
    """Two runs of Gamteb on one model through :func:`run_workload`
    end as two direct runs do: the second run is not served the trace
    or the end state a fresh model recorded."""
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
    # the second run looked nothing up and published nothing
    assert (trace_cache.STATS.hits, trace_cache.STATS.misses,
            trace_cache.STATS.records) == (0, 1, 1)
    assert len(_result_files()) == 1


def test_another_stored_model_key_gives_a_replay(cache_env, monkeypatch):
    run_workload(GAMTEB, _nsf(), scale=SCALE, seed=SEED)
    trace = _trace(GAMTEB, _nsf())
    result = trace_cache.result_entry(GAMTEB, trace, _nsf())
    key, state = marshal.loads(_read(result.path))
    # an entry that passes its CRC but names another model
    other = ("repro.core.nsf.Other",) + key[1:]
    result.path.write_bytes(frame(marshal.dumps((other, state), 2)))
    trace_cache._memo.clear()
    replays = []
    inner = common.replay

    def logged(trace, model, verify=True):
        replays.append(type(model).__name__)
        return inner(trace, model, verify=verify)

    monkeypatch.setattr(common, "replay", logged)
    model = run_workload(GAMTEB, _nsf(), scale=SCALE, seed=SEED)
    assert replays == ["NamedStateRegisterFile"]
    direct = _nsf()
    GAMTEB.run(direct, scale=SCALE, seed=SEED)
    assert model.capture() == direct.capture()
    # the replay published the model's own entry over it
    assert marshal.loads(_read(result.path))[0] == key
    run_workload(GAMTEB, _nsf(), scale=SCALE, seed=SEED)
    assert replays == ["NamedStateRegisterFile"]


def test_the_stored_key_names_the_recording_model(cache_env):
    model = _nsf(policy="nmru", policy_seed=4)
    run_workload(GAMTEB, model, scale=SCALE, seed=SEED)
    twin = _nsf(policy="nmru", policy_seed=4)
    result = trace_cache.result_entry(GAMTEB, _trace(GAMTEB, twin), twin)
    key, state = marshal.loads(_read(result.path))
    assert key == result.key == ("repro.core.nsf.NamedStateRegisterFile",
                                 tuple(twin._config().items()))
    assert state == model.capture()


def test_an_event_pass_restores_no_oracle_entry(cache_env, monkeypatch):
    """On a cache an ``oracle`` pass filled, an ``event`` pass restores
    only replay results: every fresh cell ends exactly as a replay of
    its trace onto a fresh model, which an oracle entry (a fresh
    model's internals under served statistics) would not."""
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
            trace = _trace(workload, twin)
            oracle_entries.add(_oracle_name(trace, twin))
            assert _canonical(model) == _canonical(
                replay(trace, twin, verify=False)), name
            checked += 1
    # the oracle pass left oracle entries, and none was restored
    assert oracle_entries & published
    assert restored and not oracle_entries & set(restored)
    assert checked > len(restored)


# -- keys ---------------------------------------------------------------------


def _keys():
    """``(shared key, model-keyed key)`` of one lookup each."""
    shared = trace_cache.trace_path(get_workload("DTW"), SCALE, SEED).name
    keyed = trace_cache.trace_path(
        GAMTEB, SCALE, SEED, model_fp=trace_cache.model_part(_nsf())).name
    return shared, keyed


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


def test_a_core_source_edit_changes_model_keyed_keys_only(monkeypatch,
                                                          tmp_path):
    shared, keyed = _keys()
    core = _copy_core(tmp_path, monkeypatch)
    assert _keys() == (shared, keyed)  # the same sources, the same keys
    _edit(core / "nsf.py", monkeypatch, "_core_fingerprint")
    edited_shared, edited_keyed = _keys()
    assert edited_shared == shared
    assert edited_keyed != keyed


def test_another_interpreter_changes_model_keyed_keys_only(monkeypatch):
    import sys

    shared, keyed = _keys()
    monkeypatch.setattr(sys.implementation, "cache_tag", "other-99")
    monkeypatch.setattr(trace_cache, "_core_fingerprint", None)
    assert _keys()[0] == shared
    assert _keys()[1] != keyed


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
    trace = Trace(context_size=4)
    model = _nsf()

    def names():
        return (trace_cache.result_entry(None, trace, model).path.name,
                _oracle_name(trace, model))

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


def test_the_backing_kind_separates_model_keyed_entries():
    assert (trace_cache.model_part(_nsf())
            != trace_cache.model_part(_compressing()))
    assert (trace_cache.model_fingerprint(_nsf())
            == trace_cache.model_fingerprint(_compressing()))


# -- producers ----------------------------------------------------------------


def test_an_oracle_pass_publishes_only_replays_and_recordings(
        cache_env, monkeypatch):
    """Replay results come only from replays and recordings, and every
    other entry is the oracle entry of a cell the closed form or a
    table served."""
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    monkeypatch.setattr(common, "_cpus", lambda: 1)  # every replay here
    replayed, recorded, served = set(), set(), set()
    fallback = common.replay_oracle
    serve = common.serve_from_tables

    def serving(trace, model, capacities):
        name = _oracle_name(trace, model)
        if serve(trace, model, capacities):
            served.add(name)
            return True
        return False

    monkeypatch.setattr(common, "serve_from_tables", serving)

    def replaying(trace, model, result=None):
        replayed.add(trace_cache.result_entry(None, trace,
                                              model).path.name)
        return fallback(trace, model, result)

    monkeypatch.setattr(common, "replay_oracle", replaying)
    record = trace_cache.record_through

    def recording(workload, model, scale=1.0, seed=1, directory=None):
        verdict = admit(model)
        twin = type(model)(**verdict.config) if verdict.memo else None
        trace = record(workload, model, scale=scale, seed=seed,
                       directory=directory)
        if twin is not None:
            recorded.add(trace_cache.result_entry(
                workload, trace, twin).path.name)
        return trace

    monkeypatch.setattr(trace_cache, "record_through", recording)
    for name in SWEEPS:
        run_experiment(name, scale=SCALE, seed=SEED)
    # fig13's GateSim cells are the only fallbacks; every Gamteb
    # configuration records once
    assert len(replayed) == len(fig13.SEQ_LINE_SIZES)
    assert len(recorded) >= 16
    assert served and not served & (replayed | recorded)
    assert {path.name for path in _result_files()} == (
        replayed | recorded | served)


def test_a_gamteb_cell_without_its_entry_is_replayed_and_published(
        cache_env, monkeypatch, tmp_path):
    """A model-keyed trace serves no other configuration, so under the
    oracle a Gamteb cell whose result entry is gone is not scanned: it
    replays its trace onto the fresh model once and publishes the
    entry again, and the next pass restores it."""
    expected = run_experiment("fig11", scale=SCALE, seed=SEED).to_dict()
    # one model-keyed trace per Gamteb configuration; some have equal
    # contents
    configs = sorted(tmp_path.glob("gamteb-*.trace"))
    gamteb = {_read(path).digest() for path in configs}
    assert len(configs) == 18
    trace_cache.clear_results()
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    monkeypatch.setattr(common, "_cpus", lambda: 1)  # every scan here
    monkeypatch.setattr(oracle, "_TABLE_MEMO", {})
    scans = []
    inner = oracle._family_tables

    def logged(trace, family, units):
        scans.append(trace.digest())
        return inner(trace, family, units)

    monkeypatch.setattr(oracle, "_family_tables", logged)
    log = ReplayLog(monkeypatch, tmp_path / "replays.jsonl")
    common.RESULT_STATS.reset()
    assert run_experiment("fig11", scale=SCALE,
                          seed=SEED).to_dict() == expected
    assert scans and not gamteb & set(scans)
    # the closed form and the tables price every shared-trace cell and
    # publish its oracle entry, so the replays are the Gamteb cells',
    # one per configuration
    replayed = [name for _, name in log.keys]
    assert len(replayed) == len(set(replayed)) == len(configs)
    published = {path.name for path in _result_files()}
    assert set(replayed) < published
    assert common.RESULT_STATS.misses == len(published)
    common.RESULT_STATS.reset()
    assert run_experiment("fig11", scale=SCALE,
                          seed=SEED).to_dict() == expected
    assert len(log.keys) == len(configs)
    assert common.RESULT_STATS.misses == 0
    assert common.RESULT_STATS.hits >= len(configs)


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
