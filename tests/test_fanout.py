"""Experiments fan their cells out over forked children.

``repro.evalx.common.run_cells`` computes the replays and oracle scans
a batch's memos lack in forked children, then serves every cell in
this process.  Evidence that this never changes a number:

* **Differential.** Every batched experiment (fig09-fig14, claims,
  compression, table1) at two operating points, under ``event`` and
  ``oracle``, prints the same tables, result-memo counters, cache
  counters and cache log with the fan-out as with a fork guard that
  refuses; the fanned-out run really forks, and each cell's trace is
  looked up once.  These run in a fresh interpreter, as do the other
  fork tests, so no thread another test left behind refuses the fork.
* **Dedupe.** Identical cells in one batch replay once.
* **Failures.** A SIGKILLed child's job reruns in the parent; a job
  raising in a child raises the serial error in the parent; a parent
  whose own share raises leaves no child behind.
* **Guard timing.** Under ``oracle`` planning loads NumPy; with a
  multi-threaded BLAS pool nothing forks after that, and NumPy's one
  import site keeps the pool at one thread however it is first used.
* **Chaos.** An armed fault plane sees the same draws either way.
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
from tests.test_result_memo import cache_env  # noqa: F401 (fixture)

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


@needs_fork
def test_fanout_matches_a_refused_fork(tmp_path):
    out = _fresh(f"""
        ROOT = {str(tmp_path)!r}
        BATCHED = {BATCHED!r}
        POINTS = ((0.35, 11), (0.2, 7))
        primed = os.path.join(ROOT, "primed")
        os.environ[trace_cache.ENV_DIR] = primed
        for scale, seed in POINTS:
            for name in BATCHED:
                run_experiment(name, scale=scale, seed=seed)
        guard = common.fork_unavailable
        lookups = 0
        resolve = common.run_workload

        def counted(*args, **kwargs):
            global lookups
            lookups += 1
            return resolve(*args, **kwargs)

        common.run_workload = counted
        for engine in ("event", "oracle"):
            os.environ[columnar.ENV_ENGINE] = engine
            for mode in ("fanout", "refused"):
                cache = os.path.join(ROOT, engine + mode)
                shutil.copytree(primed, cache)
                log = cache + ".log"
                os.environ[trace_cache.ENV_DIR] = cache
                os.environ[trace_cache.ENV_LOG] = log
                trace_cache._memo.clear()
                trace_cache.STATS.reset()
                common.clear_result_memo()
                common.RESULT_STATS.reset()
                oracle._TABLE_MEMO.clear()
                columnar._ANALYSES.clear()
                common.fork_unavailable = (
                    guard if mode == "fanout" else lambda: "refused")
                before, lookups = forks, 0
                tables, compression = {{}}, None
                for scale, seed in POINTS:
                    # within the memos' bounds, so no eviction order
                    # can change a hit count
                    common.clear_result_memo()
                    oracle._TABLE_MEMO.clear()
                    for name in BATCHED:
                        memo = repr(common.RESULT_STATS)
                        tables[f"{{name}} {{scale}} {{seed}}"] = (
                            run_experiment(name, scale=scale,
                                           seed=seed).to_dict())
                        if name == "compression":
                            compression = (memo,
                                           repr(common.RESULT_STATS))
                with open(log) as handle:
                    lines = handle.read().splitlines()
                out[engine + " " + mode] = {{
                    "tables": tables,
                    "results": repr(common.RESULT_STATS),
                    "cache": repr(trace_cache.STATS),
                    "log": lines,
                    "lookups": lookups,
                    "forks": forks - before,
                    "compression": compression,
                }}
    """)
    for engine in ("event", "oracle"):
        fanned, refused = out[f"{engine} fanout"], out[f"{engine} refused"]
        assert fanned["forks"] > 0, engine
        assert refused["forks"] == 0, engine
        for field in ("tables", "results", "cache", "log", "lookups"):
            assert fanned[field] == refused[field], (engine, field)
        # a warm cache: each cell's trace is looked up once, a hit
        assert len(fanned["log"]) == fanned["lookups"] > 0
        assert all(line.startswith("HIT ") for line in fanned["log"])
        assert fanned["cache"] == (
            f"CacheStats(hits={fanned['lookups']}, misses=0, records=0, "
            "quarantined=0)")
        # compressing models travel but never enter the result memo
        before, after = fanned["compression"]
        assert before == after, engine


# -- dedupe --------------------------------------------------------------------


def test_identical_cells_in_one_batch_replay_once(cache_env, monkeypatch,
                                                  tmp_path):
    log = FileLog(tmp_path / "replays.jsonl")
    inner = common.replay

    def logged(trace, model, verify=True):
        log.append(repr(common._result_key(trace, model)))
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
    common.run_cells([], scale=0.2, seed=3)
    workload = get_workload("GateSim")
    batched, alone = make_nsf(workload), make_nsf(workload)
    common.run_cells([(workload, batched)], scale=0.2, seed=3)
    common.clear_result_memo()
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
        common.clear_result_memo()
        common.RESULT_STATS.reset()
        common.FANOUT.reset()
        inner = common.replay
        ran = []

        def dying(trace, model, verify=True):
            if os.getpid() != MAIN:
                os.kill(os.getpid(), signal.SIGKILL)
            ran.append(repr(common._result_key(trace, model)))
            return inner(trace, model, verify=verify)

        common.replay = dying
        before = forks
        out["same"] = run_experiment("fig09", scale=0.2,
                                     seed=7).to_dict() == expected
        out["forked"] = forks - before
        out["parent_replays"] = len(set(ran))
        out["stats"] = repr(common.RESULT_STATS)
        out["summary"] = common.FANOUT.summary()
    """)
    assert out["same"] is True
    assert out["forked"] == 1
    # the dead child's job, and the ones it never took, replay here
    assert out["parent_replays"] == 18
    assert out["stats"] == "MemoStats(hits=0, misses=18)"
    assert out["summary"] == "0 of 0 cell job(s) forked in 1 batch(es)"


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
            common.clear_result_memo()
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
    assert out["forked"] == 1
    # raised in the child first, then in the parent's serial rerun
    assert out["raisers"].count("False") == 9
    assert out["raisers"][-1] == "True"


@needs_fork
def test_an_error_in_the_parents_share_leaves_no_child(tmp_path):
    out = _fresh(f"""
        ROOT = {str(tmp_path)!r}
        os.environ[trace_cache.ENV_DIR] = ROOT
        os.environ[columnar.ENV_ENGINE] = "event"
        run_experiment("fig09", scale=0.2, seed=7)  # records the traces
        common.clear_result_memo()
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
    assert out["forked"] == 1 and out["left"] is False


@needs_fork
def test_an_interrupted_parent_kills_its_children(tmp_path):
    out = _fresh(f"""
        import time
        os.environ[trace_cache.ENV_DIR] = {str(tmp_path)!r}
        os.environ[columnar.ENV_ENGINE] = "event"
        run_experiment("fig09", scale=0.2, seed=7)  # records the traces
        common.clear_result_memo()
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
    assert out["forked"] == 1 and out["left"] is False
    assert out["seconds"] < 30


# -- guard timing --------------------------------------------------------------


@needs_fork
def test_nothing_forks_after_planning_loads_a_threaded_numpy(tmp_path):
    script = f"""
        os.environ[trace_cache.ENV_DIR] = {str(tmp_path)!r}
        out["numpy_before"] = "numpy" in sys.modules
        out["table"] = run_experiment("fig11", scale=0.2, seed=7).to_dict()
        out["numpy_after"] = "numpy" in sys.modules
        out["summary"] = common.FANOUT.summary()
    """
    threaded = _fresh(script, env={columnar.ENV_ENGINE: "oracle",
                                   "OPENBLAS_NUM_THREADS": "2",
                                   "OMP_NUM_THREADS": "2"})
    assert threaded["numpy_before"] is False
    assert threaded["numpy_after"] is True
    assert threaded["forks"] == 0
    assert "not forked:" in threaded["summary"]
    single = _fresh(script, env={columnar.ENV_ENGINE: "oracle"})
    assert single["forks"] > 0
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
    whose first NumPy use is a line-size-2 table scan may still fork."""
    tasks, reason, openblas, omp = _first_load("""
        from repro.trace import oracle
        from repro.trace.events import OP_BEGIN, OP_READ, OP_WRITE, Trace
        trace = Trace(context_size=4)
        trace.append(OP_BEGIN, 1)
        for offset in range(4):
            trace.append(OP_WRITE, 1, offset, offset)
        trace.append(OP_READ, 1, 0, 0)
        oracle.capacity_tables(trace, [1, 2], line_size=2)
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
    assert runs["fanout"]["table"] == runs["refused"]["table"]
    assert runs["fanout"]["report"] == runs["refused"]["report"]
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
        common.clear_result_memo()
        twice, again = build(), build()
        common.run_cells([(workload, twice), (workload, build()),
                          (workload, twice)], scale=0.2, seed=3)
        for _ in range(2):
            common.run_workload(workload, again, scale=0.2, seed=3)
        out["same"] = twice.capture() == again.capture()
    """)
    assert out["same"] is True
