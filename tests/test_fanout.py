"""Experiments fan their cells out over forked children.

``repro.evalx.common.run_cells`` computes the replays and oracle scans
a batch's cache and memos lack in forked children, then serves every
cell in this process.  Evidence that this never changes a number:

* **Differential.** Every batched experiment (fig09-fig14, claims,
  compression, table1) at two operating points, on an empty cache and
  then on a cache holding only its traces and its Gamteb cells' result
  entries under ``event`` and ``oracle``, prints the same tables,
  result counters, cache counters and cache log, and leaves the same
  cache entry bytes, with the fan-out as with a fork guard that
  refuses; the fanned-out run really forks its recordings, direct
  runs, replays and scans, each shared-trace cell's trace is looked up
  once, and each result entry a pass lacks is looked up and published
  at its cell: a replay result, or under ``oracle`` the oracle entry
  of a cell the closed form or a table served, whose bytes match too.
  Every end state a cold Gamteb cell publishes as its result entry,
  run here or ahead in a forked child, is a direct run's, and a
  recording a worker made is published as the payload it sent,
  without serializing it again.
  These run in a fresh interpreter, as do the other fork tests, so no
  thread another test left behind refuses the fork.
* **Dedupe.** Identical cells in one batch replay once.
* **Failures.** A SIGKILLed child's job reruns in the parent, and so
  do the recordings of a child SIGKILLed mid-recording; a job or a
  recording raising in a child raises the serial error in the parent,
  and so does a recording raising in the parent's own share; a parent
  whose own share raises leaves no child behind.  A model two of its
  cells drive runs inline at the first, and a driven model at its
  cell.
* **Guard timing.** Under ``oracle`` planning loads NumPy; with a
  multi-threaded BLAS pool nothing forks after that, and NumPy's one
  import site keeps the pool at one thread however it is first used.
* **Chaos.** An armed fault plane sees the same draws either way, on
  an empty cache as well.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.core import RegFileStats
from repro.evalx import common
from repro.evalx.common import make_nsf, make_segmented
from repro.trace import cache as trace_cache, columnar
from repro.trace.replay import replay
from repro.workloads import get_workload
from tests.conftest import FileLog
from tests.test_result_memo import (  # noqa: F401 (fixture)
    _replayed_cell,
    cache_env,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

BATCHED = ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "claims",
           "compression", "table1")

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the fan-out needs os.fork")

#: counts ``os.fork`` calls and gives the script ``out``, ``MAIN`` and
#: ``children_left()``
PRELUDE = """
import json, os, shutil, sys
from repro.evalx import common, run_experiment
from repro.trace import cache as trace_cache, columnar, oracle

MAIN = os.getpid()
forks = 0
_fork = os.fork

def counting_fork():
    global forks
    forks += 1
    return _fork()

os.fork = counting_fork
out = {}

def children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True
"""


def _fresh(*parts, env=None):
    """Run the script ``parts`` (each dedented) after :data:`PRELUDE`
    in a fresh interpreter; returns the dict ``out`` it filled, with
    ``forks`` and whether a child was left unreaped."""
    code = PRELUDE + "".join(map(textwrap.dedent, parts)) + (
        "\nout['forks'] = forks\nout['children_left'] = children_left()"
        "\nprint(json.dumps(out))\n")
    environ = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
    environ["PYTHONPATH"] = str(SRC)
    environ.update(env or {})
    done = subprocess.run([sys.executable, "-c", code], env=environ,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["children_left"] is False
    return out


# -- differential --------------------------------------------------------------

#: the differential's two operating points
POINTS = ((0.35, 11), (0.2, 7))

#: primes two empty caches with every batched experiment at every point,
#: fanned out and then fork-refused, then runs both under either engine
#: on a copy of the fanned-out one's traces and of the result entries
#: its Gamteb cells published (so every shared-trace cell replays or is
#: scanned for, forking again, and the Gamteb cells restore; the primes
#: run under ``event`` and leave no oracle entry); the end state every
#: cold Gamteb cell of a fresh model the memo holds publishes as its
#: result entry is checked against a direct run
DIFFERENTIAL = """
import copy, hashlib, marshal
from repro.trace.admit import admit
from repro.workloads import get_workload

guard = common.fork_unavailable
lookups = 0
seeded = []
resolve = common.run_workload


def memoized_and_fresh(workload, model):
    verdict = admit(model)
    return not workload.trace_stable and verdict.memo and verdict.fresh


def counted(workload, model, scale=1.0, seed=1):
    global lookups
    # a shared-trace cell looks its trace up once; a Gamteb cell has none
    lookups += workload.trace_stable
    twin = (copy.deepcopy(model) if memoized_and_fresh(workload, model)
            else None)
    published = common.RESULT_STATS.misses
    resolved = resolve(workload, model, scale=scale, seed=seed)
    if twin is not None and common.RESULT_STATS.misses > published:
        # its entry was just published: read it without a lookup, a
        # count or a memo reorder
        result = trace_cache.result_entry(workload, twin, scale, seed)
        key, end = marshal.loads(memoized(result.path))
        own = trace_cache.end_key(twin, admit(twin))
        workload.run(twin, scale=scale, seed=seed)
        seeded.append([f"{workload.name} {twin._config()}",
                       key == own and end == twin.capture()
                       and end == model.capture()])
    return resolved


def memoized(path):
    return trace_cache._memo[(str(path.parent), path.name)][0]


common.run_workload = counted


def run(mode, cache, fresh):
    global lookups
    log = cache + ".log"
    os.environ[trace_cache.ENV_DIR] = cache
    os.environ[trace_cache.ENV_LOG] = log
    if fresh:
        os.makedirs(cache)
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    common.RESULT_STATS.reset()
    common.FANOUT.reset()
    columnar._ANALYSES.clear()
    common.fork_unavailable = (
        guard if mode == "fanout" else lambda: "refused")
    before, lookups = forks, 0
    del seeded[:]
    tables, compression = {}, None
    for scale, seed in POINTS:
        # within the table memo's bound, so no eviction order can change
        # a scan count
        oracle._TABLE_MEMO.clear()
        for name in BATCHED:
            memo = repr(common.RESULT_STATS)
            tables[f"{name} {scale} {seed}"] = run_experiment(
                name, scale=scale, seed=seed).to_dict()
            if name == "compression":
                compression = (memo, repr(common.RESULT_STATS))
    with open(log) as handle:
        lines = handle.read().splitlines()
    entries = {}
    for entry in sorted(os.listdir(cache)):
        with open(os.path.join(cache, entry), "rb") as handle:
            entries[entry] = hashlib.sha256(handle.read()).hexdigest()
    return {
        "tables": tables,
        "results": repr(common.RESULT_STATS),
        "cache": repr(trace_cache.STATS),
        "log": lines,
        "lookups": lookups,
        "forks": forks - before,
        "compression": compression,
        "entries": entries,
        "recorded": [common.FANOUT.recorded, common.FANOUT.recordings],
        "seeded": list(seeded),
    }


for mode in ("fanout", "refused"):
    out["cold " + mode] = run(mode, os.path.join(ROOT, "cold-" + mode),
                              fresh=True)
primed = os.path.join(ROOT, "cold-fanout")
with open(primed + ".log") as handle:
    logged = [line.split() for line in handle]
# the result entries the Gamteb cells' direct runs published
recordings = {name for outcome, workload, name in logged
              if outcome == "RECORD" and name.endswith(".result")
              and not get_workload(workload).trace_stable}
for engine in ("event", "oracle"):
    os.environ[columnar.ENV_ENGINE] = engine
    for mode in ("fanout", "refused"):
        cache = os.path.join(ROOT, engine + mode)
        os.makedirs(cache)
        for name in os.listdir(primed):
            if name.endswith(".trace") or name in recordings:
                shutil.copy2(os.path.join(primed, name), cache)
        out[engine + " " + mode] = run(mode, cache, fresh=False)
"""


@pytest.fixture(scope="module")
def differential(tmp_path_factory):
    """What :data:`DIFFERENTIAL` reports, run once for the module."""
    root = tmp_path_factory.mktemp("differential")
    return _fresh(f"""
        ROOT = {str(root)!r}
        BATCHED = {BATCHED!r}
        POINTS = {POINTS!r}
    """, DIFFERENTIAL, env={columnar.ENV_ENGINE: "event"})


def _outcomes(log, suffix):
    """The outcome of every cache log line about an entry ending in
    ``suffix``, in log order."""
    return [line.split()[0] for line in log if line.endswith(suffix)]


@needs_fork
def test_fanout_matches_a_refused_fork(differential):
    out = differential
    # cold: the recordings fork, and every count, log line and entry
    # byte is the serial pass's
    fanned, refused = out["cold fanout"], out["cold refused"]
    assert fanned["forks"] > 0 and refused["forks"] == 0
    recorded, planned = fanned["recorded"]
    assert 0 < recorded <= planned
    assert refused["recorded"] == [0, planned]
    for field in ("tables", "results", "cache", "log", "lookups",
                  "entries"):
        assert fanned[field] == refused[field], ("cold", field)
    entries = fanned["entries"]
    assert entries and all(name.endswith((".trace", ".result"))
                           for name in entries)
    # planning looked nothing up: each shared-trace cell's trace is
    # looked up once, each miss is recorded and published once, and so
    # is each result entry, at its cell; no Gamteb trace is recorded
    traces = _outcomes(fanned["log"], ".trace")
    results = _outcomes(fanned["log"], ".result")
    assert len(traces) + len(results) == len(fanned["log"])
    looked = [outcome for outcome in traces if outcome != "RECORD"]
    misses = looked.count("MISS")
    assert len(looked) == fanned["lookups"]
    assert misses == traces.count("RECORD") == sum(
        name.endswith(".trace") for name in entries)
    assert results.count("RECORD") == sum(
        name.endswith(".result") for name in entries) > 0
    assert not [name for name in entries if name.startswith("gamteb-")]
    outcomes = traces + results
    assert fanned["cache"] == (
        f"CacheStats(hits={outcomes.count('HIT')}, "
        f"misses={outcomes.count('MISS')}, records={misses}, "
        "quarantined=0)")
    for engine in ("event", "oracle"):
        fanned, refused = out[f"{engine} fanout"], out[f"{engine} refused"]
        assert fanned["forks"] > 0, engine
        assert refused["forks"] == 0, engine
        for field in ("tables", "results", "cache", "log", "lookups",
                      "entries"):
            assert fanned[field] == refused[field], (engine, field)
        assert fanned["tables"] == out["cold fanout"]["tables"], engine
        # the traces are warm: each cell's trace is looked up once, a
        # hit; each result entry the cache lacks is looked up, missed
        # and published at its cell, a replay result or an oracle entry
        assert _outcomes(fanned["log"], ".trace") == (
            ["HIT"] * fanned["lookups"])
        results = _outcomes(fanned["log"], ".result")
        published = results.count("RECORD")
        assert 0 < published == results.count("MISS"), engine
        assert fanned["results"] == (
            f"MemoStats(hits={results.count('HIT')}, "
            f"misses={published})"), engine
        assert fanned["cache"] == (
            f"CacheStats(hits={fanned['lookups'] + results.count('HIT')}, "
            f"misses={results.count('MISS')}, records=0, quarantined=0)")
        # only the compressing Gamteb cells run ahead of a warm pass
        recorded, planned = fanned["recorded"]
        assert 0 < recorded <= planned, engine
        assert refused["recorded"] == [0, planned], engine
        # compressing models travel but never enter the result store
        before, after = fanned["compression"]
        assert before == after, engine
    # the oracle entries: names no event pass publishes, equal bytes
    oracle_entries = {
        mode: {name: digest for name, digest in
               out[f"oracle {mode}"]["entries"].items()
               if name not in out[f"event {mode}"]["entries"]}
        for mode in ("fanout", "refused")}
    assert oracle_entries["fanout"]
    assert oracle_entries["fanout"] == oracle_entries["refused"]


@needs_fork
def test_a_seeded_memo_entry_equals_a_replay_of_its_trace(differential):
    """A cold Gamteb cell on a fresh model the result memo holds
    publishes that model's end state as its result entry: for every
    such cell of every batched experiment, at both points and in both
    modes (fanned out, where it ran ahead in a forked child, and
    refused), the stored end state is the one a direct run leaves, and
    the one the cold cell left on the model, and the entry names the
    model's own class and config."""
    for mode in ("fanout", "refused"):
        seeded = differential["cold " + mode]["seeded"]
        # fig11 alone runs 16 Gamteb configurations of its own per point
        assert len(seeded) >= 2 * 16, mode
        wrong = [label for label, same in seeded if not same]
        assert not wrong, (mode, wrong)
    # every warm Gamteb cell restores, so none publishes an end state
    assert not differential["event fanout"]["seeded"]


# -- dedupe --------------------------------------------------------------------


def test_identical_cells_in_one_batch_replay_once(cache_env, monkeypatch,
                                                  tmp_path):
    log = FileLog(tmp_path / "replays.jsonl")
    inner = common.replay

    def logged(trace, model, verify=True):
        log.append(_replayed_cell(trace, model))
        return inner(trace, model, verify=verify)

    monkeypatch.setattr(common, "replay", logged)
    gatesim, zipfile = get_workload("GateSim"), get_workload("ZipFile")
    cells = [(workload, build(workload))
             for workload in (gatesim, zipfile, gatesim, zipfile)
             for build in (make_nsf, make_segmented)]
    common.run_cells(cells, scale=0.2, seed=3)
    replayed = log.records()
    assert len(replayed) == len(set(replayed)) == 4
    assert (common.RESULT_STATS.hits, common.RESULT_STATS.misses) == (4, 4)
    for workload, model in cells:
        twin = type(model)(num_registers=model.num_registers,
                           context_size=model.context_size)
        trace = trace_cache.load_or_record(workload, scale=0.2, seed=3)
        replay(trace, twin, verify=False)
        assert model.stats == twin.stats
        assert model.capture() == twin.capture()


def test_empty_and_one_cell_batches(cache_env):
    common.FANOUT.reset()
    common.run_cells([], scale=0.2, seed=3)
    workload = get_workload("GateSim")
    batched, alone = make_nsf(workload), make_nsf(workload)
    common.run_cells([(workload, batched)], scale=0.2, seed=3)
    # its one recording is made at its cell, not counted as made ahead
    assert common.FANOUT.recordings == 0
    assert "recording" not in common.FANOUT.summary()
    trace_cache.clear_results()
    common.run_workload(workload, alone, scale=0.2, seed=3)
    assert batched.stats != RegFileStats(capacity=batched.num_registers)
    assert batched.capture() == alone.capture()


# -- failures ------------------------------------------------------------------

#: the parent takes no job (so every job runs in a child) and two
#: workers run, whatever this host's CPU count
STEER = """
take = common._take
common._take = lambda queue: (take(queue) if os.getpid() != MAIN
                              else iter(()))
common._cpus = lambda: 2
"""


@needs_fork
def test_a_killed_childs_job_runs_in_the_parent(tmp_path):
    out = _fresh(STEER, f"""
        import signal
        os.environ[trace_cache.ENV_DIR] = {str(tmp_path)!r}
        os.environ[columnar.ENV_ENGINE] = "event"
        expected = run_experiment("fig09", scale=0.2, seed=7).to_dict()
        trace_cache.clear_results()
        common.RESULT_STATS.reset()
        common.FANOUT.reset()
        inner = common.replay
        ran = []

        def dying(trace, model, verify=True):
            if os.getpid() != MAIN:
                os.kill(os.getpid(), signal.SIGKILL)
            ran.append([trace.digest().hex(), model.capture()["config"]])
            return inner(trace, model, verify=verify)

        common.replay = dying
        before = forks
        out["same"] = run_experiment("fig09", scale=0.2,
                                     seed=7).to_dict() == expected
        out["forked"] = forks - before
        out["parent_replays"] = len(set(map(repr, ran)))
        out["stats"] = repr(common.RESULT_STATS)
        out["summary"] = common.FANOUT.summary()
    """)
    assert out["same"] is True
    # one worker ran the 2 Gamteb cells ahead, whose result entries were
    # dropped too; the other died on its first replay
    assert out["forked"] == 2
    # the dead child's job, and the ones it never took, replay here:
    # all 16 of fig09's shared-trace cells
    assert out["parent_replays"] == 16
    assert out["stats"] == "MemoStats(hits=0, misses=18)"
    assert out["summary"] == ("0 of 0 cell job(s) forked in 1 batch(es); "
                              "2 of 2 recording(s) forked")


#: fig09 with every segmented replay raising, wherever it runs
RAISING = """
inner = common.replay
raisers = os.path.join(ROOT, "raisers")

def failing(trace, model, verify=True):
    if type(model).__name__ == "SegmentedRegisterFile":
        with open(raisers, "a") as handle:
            handle.write(f"{os.getpid() == MAIN}\\n")
        raise LookupError(f"planted {model.num_registers}")
    return inner(trace, model, verify=verify)
"""


@needs_fork
def test_a_job_raising_in_a_child_raises_its_serial_error(tmp_path):
    out = _fresh(STEER, f"""
        ROOT = {str(tmp_path)!r}
        os.environ[trace_cache.ENV_DIR] = ROOT
        os.environ[columnar.ENV_ENGINE] = "event"
        run_experiment("fig09", scale=0.2, seed=7)  # records the traces
        guard = common.fork_unavailable
    """, RAISING, """
        common.replay = failing

        def error(refuse):
            trace_cache.clear_results()
            common.fork_unavailable = (lambda: "refused") if refuse else guard
            try:
                run_experiment("fig09", scale=0.2, seed=7)
            except Exception as exc:
                return [type(exc).__name__, str(exc)]

        before = forks
        out["fanned"] = error(refuse=False)
        out["forked"] = forks - before
        with open(raisers) as handle:
            out["raisers"] = handle.read().split()
        out["serial"] = error(refuse=True)
    """)
    assert out["fanned"] == out["serial"] == ["LookupError", "planted 80"]
    # the 2 Gamteb cells ran ahead in a child, and the replays in another
    assert out["forked"] == 2
    # raised in the child first, then in the parent's serial rerun; the
    # child replays fig09's 8 shared-trace segmented cells (the Gamteb
    # one runs directly)
    assert out["raisers"].count("False") == 8
    assert out["raisers"][-1] == "True"


@needs_fork
def test_an_error_in_the_parents_share_leaves_no_child(tmp_path):
    out = _fresh(f"""
        ROOT = {str(tmp_path)!r}
        os.environ[trace_cache.ENV_DIR] = ROOT
        os.environ[columnar.ENV_ENGINE] = "event"
        run_experiment("fig09", scale=0.2, seed=7)  # records the traces
        trace_cache.clear_results()
        common._cpus = lambda: 2
        # the parent takes every job; the child none
        take = common._take
        common._take = lambda queue: (take(queue) if os.getpid() == MAIN
                                      else iter(()))
    """, RAISING, """
        common.replay = failing
        before = forks
        try:
            run_experiment("fig09", scale=0.2, seed=7)
        except LookupError as exc:
            out["error"] = str(exc)
        out["forked"] = forks - before
        out["left"] = children_left()
        with open(raisers) as handle:
            out["raisers"] = handle.read().split()
    """)
    # raised where the serial pass raises: at the first failing cell
    assert out["error"] == "planted 80"
    assert out["raisers"] and set(out["raisers"]) == {"True"}
    # the Gamteb cells' direct runs forked a worker too
    assert out["forked"] == 2 and out["left"] is False


@needs_fork
def test_an_interrupted_parent_kills_its_children(tmp_path):
    out = _fresh(f"""
        import time
        os.environ[trace_cache.ENV_DIR] = {str(tmp_path)!r}
        os.environ[columnar.ENV_ENGINE] = "event"
        run_experiment("fig09", scale=0.2, seed=7)  # records the traces
        trace_cache.clear_results()
        common._cpus = lambda: 2
        inner = common.replay

        def stalling(trace, model, verify=True):
            if os.getpid() != MAIN:
                time.sleep(60)  # killed long before this returns
            raise KeyboardInterrupt

        common.replay = stalling
        before = forks
        start = time.monotonic()
        try:
            run_experiment("fig09", scale=0.2, seed=7)
        except KeyboardInterrupt:
            out["interrupted"] = True
        out["seconds"] = time.monotonic() - start
        out["forked"] = forks - before
        out["left"] = children_left()
    """)
    assert out["interrupted"] is True
    # the Gamteb cells' direct runs forked a worker too
    assert out["forked"] == 2 and out["left"] is False
    assert out["seconds"] < 30


#: ``cold(mode)`` runs fig09 on an empty cache of its own, fanned out
#: or fork-refused, and reports what a serial pass would print; the
#: script sets ``ROOT`` and may patch the recorder first
COLD = """
import hashlib
guard = common.fork_unavailable
os.environ[columnar.ENV_ENGINE] = "event"


def cold(mode):
    cache = os.path.join(ROOT, mode)
    os.environ[trace_cache.ENV_DIR] = cache
    os.environ[trace_cache.ENV_LOG] = cache + ".log"
    trace_cache._memo.clear()
    trace_cache.STATS.reset()
    common.RESULT_STATS.reset()
    common.FANOUT.reset()
    common.fork_unavailable = (
        guard if mode != "refused" else lambda: "refused")
    before = forks
    try:
        report = {"table": run_experiment("fig09", scale=0.2,
                                          seed=7).to_dict()}
    except Exception as exc:
        report = {"error": [type(exc).__name__, str(exc)]}
    with open(cache + ".log") as handle:
        report["log"] = handle.read().splitlines()
    report["entries"] = {}
    for name in sorted(os.listdir(cache)):
        with open(os.path.join(cache, name), "rb") as handle:
            report["entries"][name] = hashlib.sha256(
                handle.read()).hexdigest()
    report.update(cache=repr(trace_cache.STATS),
                  results=repr(common.RESULT_STATS),
                  recorded=[common.FANOUT.recorded,
                            common.FANOUT.recordings],
                  forks=forks - before,
                  # the batch's hand-off ends with it, raising or not
                  handoff=getattr(trace_cache._HANDOFF, "plan", None))
    return report
"""


@needs_fork
def test_a_killed_workers_recordings_are_made_in_the_parent(tmp_path):
    out = _fresh(STEER, f"""
        import signal
        ROOT = {str(tmp_path)!r}
    """, COLD, """
        begin = trace_cache.TracingRegisterFile.begin_context
        begun = 0

        def dying(self, cid=None, base_address=None):
            global begun
            begun += 1
            if os.getpid() != MAIN and begun > 3:  # mid-recording
                os.kill(os.getpid(), signal.SIGKILL)
            return begin(self, cid=cid, base_address=base_address)

        trace_cache.TracingRegisterFile.begin_context = dying
        out["fanout"] = cold("fanout")
        out["refused"] = cold("refused")
    """)
    fanned, refused = out["fanout"], out["refused"]
    assert "table" in fanned
    for field in ("table", "log", "entries", "cache", "results",
                  "handoff"):
        assert fanned[field] == refused[field], field
    # the recording step forked its one worker, which died: every
    # recording was made here, at its cell
    recorded, planned = fanned["recorded"]
    assert recorded == 0 and planned > 2
    assert fanned["forks"] == 2 and refused["forks"] == 0


@needs_fork
def test_a_workers_recording_is_published_as_it_sent_it(tmp_path):
    out = _fresh(STEER, f"""
        ROOT = {str(tmp_path)!r}
    """, COLD, """
        from repro.trace.events import Trace
        calls = {"dumps": 0, "loads": 0}
        dumps, loads = Trace.dumps_binary, Trace.loads_binary.__func__

        def counted_dumps(self):
            if os.getpid() == MAIN:
                calls["dumps"] += 1
            return dumps(self)

        def counted_loads(cls, blob):
            if os.getpid() == MAIN:
                calls["loads"] += 1
            return loads(cls, blob)

        Trace.dumps_binary = counted_dumps
        Trace.loads_binary = classmethod(counted_loads)
        for mode in ("fanout", "refused"):
            out[mode] = cold(mode)
            out[mode]["calls"] = dict(calls)
            calls.update(dumps=0, loads=0)
    """)
    fanned, refused = out["fanout"], out["refused"]
    for field in ("table", "log", "entries", "cache", "results"):
        assert fanned[field] == refused[field], field
    # the worker made every recording and direct run; the parent decoded
    # each trace payload once and published it as sent, serializing
    # nothing
    recorded, planned = fanned["recorded"]
    traces = sum(name.endswith(".trace") for name in fanned["entries"])
    assert recorded == planned > traces > 2
    assert fanned["calls"] == {"dumps": 0, "loads": traces}
    # a serial pass serializes each recording once, to publish it
    assert refused["calls"] == {"dumps": traces, "loads": 0}


#: a Gamteb run on a segmented file ("model-keyed") or the recorder of
#: ZipFile's shared trace ("shared") raising, wherever it runs
PLANTED = """
from repro.workloads.gamteb import Gamteb
raisers = os.path.join(ROOT, "raisers")


def planted(name):
    with open(raisers, "a") as handle:
        handle.write(f"{os.getpid() == MAIN}\\n")
    raise LookupError(f"planted {name}")


if PLANT == "model-keyed":
    inner = Gamteb.run

    def failing(self, model, *args, **kwargs):
        if type(model).__name__ == "SegmentedRegisterFile":
            planted(self.name)
        return inner(self, model, *args, **kwargs)

    Gamteb.run = failing
else:
    inner = trace_cache.run_traced

    def failing(workload, scale=1.0, seed=1):
        if workload.name == "ZipFile":
            planted(workload.name)
        return inner(workload, scale=scale, seed=seed)

    trace_cache.run_traced = failing
take = common._take
common._cpus = lambda: 2
for mode in ("refused", "worker", "parent"):
    # "worker": the parent takes no job; "parent": the worker none
    common._take = lambda queue, mode=mode: (
        take(queue) if (os.getpid() == MAIN) == (mode != "worker")
        else iter(()))
    out[mode] = cold(mode)
    with open(raisers) as handle:
        out[mode]["raisers"] = handle.read().split()
    os.unlink(raisers)
"""


@needs_fork
@pytest.mark.parametrize("plant", ["model-keyed", "shared"])
def test_a_recording_that_raises_raises_its_serial_error(tmp_path, plant):
    out = _fresh(f"""
        ROOT = {str(tmp_path)!r}
        PLANT = {plant!r}
    """, COLD, PLANTED)
    workload = "Gamteb" if plant == "model-keyed" else "ZipFile"
    serial = out["refused"]
    assert serial["error"] == ["LookupError", f"planted {workload}"]
    assert serial["raisers"] == ["True"]
    assert serial["handoff"] is None
    for mode in ("worker", "parent"):
        for field in ("error", "log", "entries", "cache", "results",
                      "handoff"):
            assert out[mode][field] == serial[field], (mode, field)
        assert out[mode]["forks"] == 1, mode
    # made ahead in a worker, it raised there and again at its cell;
    # made ahead in the parent, it raised there and was raised again
    # at its cell without a second run
    assert out["worker"]["raisers"] == ["False", "True"]
    assert out["parent"]["raisers"] == ["True"]


@needs_fork
def test_models_that_may_not_start_as_a_copy_record_inline(tmp_path):
    out = _fresh(STEER, f"""
        from repro.evalx.common import make_nsf, make_segmented
        from repro.workloads import get_workload
        os.environ[columnar.ENV_ENGINE] = "event"
        workload = get_workload("Gamteb")
        inner = type(workload).run

        def logged(self, model, *args, **kwargs):
            if LOG:
                with open({str(tmp_path / "made")!r}, "a") as handle:
                    handle.write(f"{{os.getpid() == MAIN}} "
                                 f"{{model.num_registers}}\\n")
            return inner(self, model, *args, **kwargs)

        type(workload).run = logged

        def batch(cache, refuse):
            global LOG
            LOG = False
            os.environ[trace_cache.ENV_DIR] = cache
            trace_cache._memo.clear()
            common.FANOUT.reset()
            if refuse:
                common.fork_unavailable = lambda: "refused"
            driven = make_nsf(workload, num_registers=96)
            common.run_workload(workload, driven, scale=0.2, seed=5)
            twice = make_nsf(workload, num_registers=64)
            fresh = [make_nsf(workload, num_registers=128),
                     make_segmented(workload, num_registers=96)]
            LOG = True
            common.run_cells([(workload, twice), (workload, driven),
                              (workload, fresh[0]), (workload, twice),
                              (workload, fresh[1])], scale=0.2, seed=7)
            return ([model.capture() for model in [twice, driven] + fresh],
                    common.FANOUT.recordings)

        fanned, out["planned"] = batch({str(tmp_path / "fanout")!r}, False)
        with open({str(tmp_path / "made")!r}) as handle:
            out["made"] = sorted(handle.read().splitlines())
        serial, _ = batch({str(tmp_path / "refused")!r}, True)
        out["same"] = fanned == serial
    """)
    assert out["same"] is True
    # only the two fresh models ran ahead, in the worker; the model two
    # cells drive ran here, at each of its cells, and so did the model
    # driven before the batch
    assert out["planned"] == 2
    assert out["made"] == ["False 128", "False 96", "True 64", "True 64",
                           "True 96"]


# -- guard timing --------------------------------------------------------------


@needs_fork
def test_nothing_forks_after_planning_loads_a_threaded_numpy(tmp_path):
    # each run keeps the traces and drops the entries the run before it
    # published, so its planning asks the closed form and the tables;
    # the Gamteb cells' direct runs fork before planning has loaded
    # NumPy, so forks are counted from the start of planning
    script = f"""
        os.environ[trace_cache.ENV_DIR] = {str(tmp_path)!r}
        trace_cache.clear_results()
        jobs = common._jobs

        def planning(cells):
            out.setdefault("planned_at", forks)
            return jobs(cells)

        common._jobs = planning
        out["numpy_before"] = "numpy" in sys.modules
        out["table"] = run_experiment("fig11", scale=0.2, seed=7).to_dict()
        out["numpy_after"] = "numpy" in sys.modules
        out["summary"] = common.FANOUT.summary()
    """
    # record the traces first, in an interpreter of their own: a cold
    # batch forks its recordings before planning has loaded NumPy
    _fresh(script, env={columnar.ENV_ENGINE: "oracle"})
    threaded = _fresh(script, env={columnar.ENV_ENGINE: "oracle",
                                   "OPENBLAS_NUM_THREADS": "2",
                                   "OMP_NUM_THREADS": "2"})
    assert threaded["numpy_before"] is False
    assert threaded["numpy_after"] is True
    assert threaded["forks"] == threaded["planned_at"]
    assert "not forked:" in threaded["summary"]
    single = _fresh(script, env={columnar.ENV_ENGINE: "oracle"})
    assert single["forks"] > single["planned_at"]
    assert single["table"] == threaded["table"]


#: prints ``[tasks, fork_unavailable(), OPENBLAS_NUM_THREADS,
#: OMP_NUM_THREADS]`` after the script's first use of NumPy
FIRST_LOAD = """
import json, os
from repro.ioutil import fork_unavailable
{load}
tasks = (len(os.listdir("/proc/self/task"))
         if os.path.isdir("/proc/self/task") else 1)
print(json.dumps([tasks, fork_unavailable(),
                  os.environ.get("OPENBLAS_NUM_THREADS"),
                  os.environ.get("OMP_NUM_THREADS")]))
"""


def _first_load(load, **env):
    """Run :data:`FIRST_LOAD` with ``load`` in a fresh interpreter that
    starts without either BLAS thread variable (unless ``env`` sets
    it)."""
    environ = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    environ["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", FIRST_LOAD.format(load=textwrap.dedent(load))],
        env={**environ, **env}, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def test_numpy_loads_with_a_single_threaded_blas_pool():
    load = """
        from repro.trace import columnar
        columnar._numpy()
    """
    assert _first_load(load) == [1, None, "1", "1"]
    tasks, reason, openblas, omp = _first_load(
        load, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3")
    assert (openblas, omp) == ("2", "3")  # the user's values stay
    if os.path.isdir("/proc/self/task"):
        assert tasks > 1 and reason == f"{tasks} threads"


def test_a_line_scan_as_first_numpy_use_keeps_one_thread():
    """The LRU kernel takes NumPy from the one import site: a process
    whose first NumPy use is a table scan below the trace's peak may
    still fork."""
    tasks, reason, openblas, omp = _first_load("""
        from repro.trace import oracle
        from repro.trace.events import OP_BEGIN, OP_READ, OP_WRITE, Trace
        trace = Trace(context_size=4)
        trace.append(OP_BEGIN, 1)
        for offset in range(4):
            trace.append(OP_WRITE, 1, offset, offset)
        trace.append(OP_READ, 1, 0, 0)
        oracle.capacity_tables(trace, [1, 2])
    """)
    assert (tasks, reason) == (1, None)
    assert (openblas, omp) == ("1", "1")


# -- chaos ---------------------------------------------------------------------


@needs_fork
def test_an_armed_fault_plane_draws_the_same_faults(tmp_path):
    script = """
        from repro.chaos import plane
        if os.environ.get("REFUSE"):
            common.fork_unavailable = lambda: "refused"
        out["table"] = run_experiment("fig11", scale=0.2, seed=7).to_dict()
        out["report"] = plane.ACTIVE.report()
        out["cache"] = repr(trace_cache.STATS)
        out["recorded"] = common.FANOUT.recorded
    """
    runs = {}
    for mode in ("fanout", "refused"):
        env = {"REPRO_CHAOS_SEED": "11",
               trace_cache.ENV_DIR: str(tmp_path / mode),
               columnar.ENV_ENGINE: "event"}
        if mode == "refused":
            env["REFUSE"] = "1"
        runs[mode] = _fresh(script, env=env)
    assert runs["fanout"]["forks"] > 0 and runs["refused"]["forks"] == 0
    # the cache starts empty: the batch's recordings were made ahead
    assert runs["fanout"]["recorded"] > 0 == runs["refused"]["recorded"]
    for field in ("table", "report", "cache"):
        assert runs["fanout"][field] == runs["refused"][field], field
    # a schedule that injects nothing would make this test vacuous
    assert runs["fanout"]["report"]["injected"] > 0


@needs_fork
@pytest.mark.parametrize("compressed", [False, True],
                         ids=["memoized", "compressing"])
def test_a_model_two_cells_drive_is_driven_twice(tmp_path, compressed):
    out = _fresh("""
        # the parent takes the first job and a child every other one
        take = common._take
        common._take = lambda queue: (
            iter([0]) if os.getpid() == MAIN
            else (index for index in take(queue) if index != 0))
        common._cpus = lambda: 2
    """, f"""
        from repro.core import compress_spills
        from repro.evalx.common import make_nsf
        from repro.workloads import get_workload
        os.environ[trace_cache.ENV_DIR] = {str(tmp_path)!r}
        os.environ[columnar.ENV_ENGINE] = "event"
        workload = get_workload("GateSim")

        def build():
            model = make_nsf(workload, num_registers=40)
            if {compressed!r}:
                compress_spills(model, codec="raw", shadow_codecs=["zero"])
            return model

        common.run_workload(workload, build(), scale=0.2, seed=3)
        trace_cache.clear_results()
        twice, again = build(), build()
        common.run_cells([(workload, twice), (workload, build()),
                          (workload, twice)], scale=0.2, seed=3)
        for _ in range(2):
            common.run_workload(workload, again, scale=0.2, seed=3)
        out["same"] = twice.capture() == again.capture()
    """)
    assert out["same"] is True
