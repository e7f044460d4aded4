"""Memoized execution: a model-keyed cache entry keeps its end state.

A timing-sensitive workload (Gamteb) is recorded straight through the
model it runs on, and its cache entry holds the trace and that model's
end-state ``capture()``.  A later fresh model of the same configuration
``restore()``s the end state and replays nothing.  Evidence that this
never changes a number:

* **Exact end state.** Every model-keyed cell of fig09-fig14, claims
  and table1 ends, restored, exactly as a replay of its entry's trace
  onto a fresh model and as the cold direct run it memoizes.
* **Integrity.** A flipped byte in an entry's end state fails the CRC:
  the entry is quarantined and recorded again, and the tables do not
  change.
* **Who restores.** Compressing (whose codec round trips must all
  run), protected, faulty, subclassed and driven models never restore;
  only a fresh one looks an entry up at all, and a stored model key
  other than the model's own gives a replay.
* **Keys.** An edit to the ``repro/core`` sources, or another
  interpreter, changes every model-keyed key and no shared one.
"""

import marshal

import pytest

from repro.core import (
    NamedStateRegisterFile,
    ProtectedRegisterFile,
    compress_spills,
)
from repro.core.compress import CompressedSpillPort
from repro.core.faults import FaultyRegisterFile
from repro.evalx import common, run_experiment
from repro.evalx.common import make_nsf, make_segmented, run_workload
from repro.trace import cache as trace_cache
from repro.trace.admit import admit
from repro.trace.replay import replay
from repro.workloads import get_workload
from tests.test_result_memo import cache_env  # noqa: F401 (fixture)

#: the golden seed (11) is covered by the golden checks
SCALE, SEED = 0.2, 3

#: the experiments whose cells run Gamteb on fresh plain models
MODEL_KEYED = ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
               "claims", "table1")


def _canonical(model):
    """A model's ``capture()`` as bytes that equal captures share."""
    return marshal.dumps(model.capture(), 2)


def _entry(workload, model, scale=SCALE, seed=SEED):
    """The in-process entry of ``model``'s model-keyed lookup, read
    without a lookup, a count or a log line."""
    path = trace_cache.trace_path(workload, scale, seed,
                                  model_fp=trace_cache.model_part(model))
    return trace_cache._memo[(str(path.parent), path.name)][0]


class Cells:
    """Every model-keyed cell :func:`common.run_workload` resolves: a
    copy of its model as it came, and the model itself."""

    def __init__(self, monkeypatch):
        self.cells = []
        inner = common.run_workload

        def logged(workload, model, scale=1.0, seed=1):
            verdict = admit(model)
            if (not workload.trace_stable and verdict.memo
                    and verdict.fresh):
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
    inner = common._restore

    def counted(entry, model, verdict):
        restored = inner(entry, model, verdict)
        restores.append(restored)
        return restored

    monkeypatch.setattr(common, "_restore", counted)
    cells = Cells(monkeypatch)
    cold, tables = {}, {}
    for name in MODEL_KEYED:
        tables[name] = run_experiment(name, scale=SCALE,
                                      seed=SEED).to_dict()
        for workload, twin, model in cells.take():
            # the first cell of a configuration is its direct run; a
            # later one restores what that run left
            first = cold.setdefault(_canonical(twin), _canonical(model))
            assert _canonical(model) == first, name
    assert len(cold) >= 16 and len(restores) > 0

    common.clear_result_memo()
    del restores[:]
    checked = 0
    for name in MODEL_KEYED:
        assert run_experiment(name, scale=SCALE,
                              seed=SEED).to_dict() == tables[name], name
        for workload, twin, model in cells.take():
            restored = _canonical(model)
            assert restored == cold[_canonical(twin)], name
            trace = _entry(workload, twin).trace
            assert restored == _canonical(
                replay(trace, twin, verify=False)), name
            checked += 1
    # every model-keyed cell of the warm pass was restored
    assert len(restores) == checked >= 40 and all(restores)
    # and a direct run ends there too, for each design the sweeps use
    for build in (make_nsf, make_segmented):
        gamteb = get_workload("Gamteb")
        model = build(gamteb)
        run_workload(gamteb, model, scale=SCALE, seed=SEED)
        direct = build(gamteb)
        gamteb.run(direct, scale=SCALE, seed=SEED)
        assert _canonical(model) == _canonical(direct)


def _entry_paths(directory):
    return sorted(directory.glob("gamteb-*.trace"))


def test_a_flipped_end_state_byte_is_quarantined(cache_env, tmp_path):
    expected = run_experiment("fig09", scale=SCALE, seed=SEED).to_dict()
    paths = _entry_paths(tmp_path)
    assert len(paths) == 2
    for path in paths:
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # the last byte of the marshalled end state
        path.write_bytes(bytes(blob))
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    common.clear_result_memo()
    assert run_experiment("fig09", scale=SCALE,
                          seed=SEED).to_dict() == expected
    assert (trace_cache.STATS.quarantined,
            trace_cache.STATS.records) == (2, 2)
    assert sorted(path.name for path, _ in
                  trace_cache.quarantine_entries()) == [p.name for p in paths]
    # recorded again, whole: the next pass restores from it
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    assert run_experiment("fig09", scale=SCALE,
                          seed=SEED).to_dict() == expected
    assert (trace_cache.STATS.quarantined,
            trace_cache.STATS.records) == (0, 0)


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
#: one that may look its own entry up (and replays it)
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
    # a plain model's entry, and one of the model's own kind, are warm
    run_workload(GAMTEB, _nsf(), scale=SCALE, seed=SEED)
    run_workload(GAMTEB, build(), scale=SCALE, seed=SEED)
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
    looked = trace_cache.STATS.hits + trace_cache.STATS.misses
    assert looked == (1 if fresh else 0)
    assert trace_cache.STATS.records == 0
    if kind == "compressing":
        # every spill and reload went through the codecs again
        assert sent and model.backing.port.stats_for("zero").spill_units > 0


def test_a_driven_model_runs_its_front_end_directly(cache_env):
    """Two runs of Gamteb on one model through :func:`run_workload`
    end as two direct runs do: the second run is not served the trace
    a fresh model recorded."""
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


def test_another_stored_model_key_gives_a_replay(cache_env, monkeypatch):
    run_workload(GAMTEB, _nsf(), scale=SCALE, seed=SEED)
    replays = []
    inner = common.replay

    def logged(trace, model, verify=True):
        replays.append(type(model).__name__)
        return inner(trace, model, verify=verify)

    monkeypatch.setattr(common, "replay", logged)
    own = trace_cache.end_key
    monkeypatch.setattr(trace_cache, "end_key", lambda model, verdict: (
        "repro.core.nsf.Other",) + own(model, verdict)[1:])
    model = run_workload(GAMTEB, _nsf(), scale=SCALE, seed=SEED)
    assert replays == ["NamedStateRegisterFile"]
    direct = _nsf()
    GAMTEB.run(direct, scale=SCALE, seed=SEED)
    assert model.capture() == direct.capture()


def test_the_stored_key_names_the_recording_model(cache_env):
    model = _nsf(policy="nmru", policy_seed=4)
    run_workload(GAMTEB, model, scale=SCALE, seed=SEED)
    twin = _nsf(policy="nmru", policy_seed=4)
    key, state = _entry(GAMTEB, twin).end_state()
    assert key == ("repro.core.nsf.NamedStateRegisterFile",
                   tuple(twin._config().items()))
    assert state == model.capture()


# -- keys -----------------------------------------------------------------------


def _keys():
    """``(shared key, model-keyed key)`` of one lookup each."""
    shared = trace_cache.trace_path(get_workload("DTW"), SCALE, SEED).name
    keyed = trace_cache.trace_path(
        GAMTEB, SCALE, SEED, model_fp=trace_cache.model_part(_nsf())).name
    return shared, keyed


def test_a_core_source_edit_changes_model_keyed_keys_only(monkeypatch,
                                                          tmp_path):
    shared, keyed = _keys()
    core = tmp_path / "core"
    core.mkdir()
    for path in sorted(trace_cache.CORE_DIR.glob("*.py")):
        (core / path.name).write_bytes(path.read_bytes())
    monkeypatch.setattr(trace_cache, "CORE_DIR", core)
    monkeypatch.setattr(trace_cache, "_core_fingerprint", None)
    assert _keys() == (shared, keyed)  # the same sources, the same keys
    with open(core / "nsf.py", "a", encoding="utf-8") as handle:
        handle.write("# an edit\n")
    monkeypatch.setattr(trace_cache, "_core_fingerprint", None)
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


def test_the_backing_kind_separates_model_keyed_entries():
    assert (trace_cache.model_part(_nsf())
            != trace_cache.model_part(_compressing()))
    assert (trace_cache.model_fingerprint(_nsf())
            == trace_cache.model_fingerprint(_compressing()))


# -- the entry format -----------------------------------------------------------


def test_an_entry_round_trips_through_its_framed_payload():
    from repro.trace.events import (OP_BEGIN, OP_WRITE, Trace,
                                    TraceFormatError, frame)

    trace = Trace(context_size=4)
    trace.append(OP_BEGIN, 1)
    trace.append(OP_WRITE, 1, 0, 1 << 70)  # a wide value
    for end in (None, marshal.dumps((("m", ()), {"x": [1, 2]}), 2)):
        entry = trace_cache.Entry(trace, end)
        blob = frame(entry.payload())
        decoded = trace_cache._parse_entry(blob)
        assert decoded.trace == trace and decoded.end == end
        assert list(decoded.trace)[-1][3] == 1 << 70
    payload = trace_cache.Entry(trace, end).payload()
    for cut in (6, len(payload) - len(end) - 1):
        with pytest.raises(TraceFormatError):
            trace_cache.decode_entry(payload[:cut])
