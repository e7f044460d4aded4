"""What a fresh interpreter imports, and what it loads only on use.

Every sweep cell of the journalled runner is a fresh ``run-cell``
interpreter, so its imports are paid once per cell.  On
the default ``event`` engine a cell never touches NumPy, the
compiled-CPU front-end (``repro.cpu``, ``repro.lang``) or the thread
pool; it must not load them either.  Nor does a warm ``oracle`` pass
on a cache the oracle filled: every cell restores its entry.  The
other half of the contract is that the lazy imports still happen where
they are used: the oracle loads NumPy and serves cells with it on a
cold cache, ``CompiledSuite`` loads the CPU and the compiler, and
``run_sweep(jobs=2)`` builds its pool.

The pytest process has loaded most of these modules already, so every
check runs in a subprocess with a private trace cache.  The checks
compare module sets, never times.

A warm parent, which forks the runner's cells, does a ``run-cell``'s
imports once.  An exec'd one may hold no module before its first fork
that such a cell does not load, and whatever a cell loads on use
(NumPy under the oracle) loads in the forked child only.  A parent a
sweep forks from its own process holds whatever that process had
loaded (``concurrent.futures`` after a first ``jobs=2`` sweep); its
cells still import nothing at run time that an exec'd cell does not,
and start no thread.
"""

import contextlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.evalx import runner

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: modules an event-engine cell has no use for
LAZY = ("numpy", "repro.trace.vector", "repro.lang", "repro.cpu",
        "concurrent.futures")

#: the experiments the runner splits into one subprocess per cell
CELL_EXPERIMENTS = ("table1", "compression", "resilience", "chaos")

SCALE = 0.1

def _fresh(cache, engine, body):
    """Run ``body`` in a fresh interpreter on ``cache`` and ``engine``.

    ``body`` may leave JSON-able findings in the dict ``out``; the
    result is that dict plus ``loaded``, the :data:`LAZY` modules the
    interpreter had imported when ``body`` finished.
    """
    code = "import json, sys\nout = {}\n" + textwrap.dedent(body) + (
        "\nout['loaded'] = sorted(m for m in %r if m in sys.modules)"
        "\nprint(json.dumps(out))\n" % (LAZY,))
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_TRACE_CACHE=str(cache),
               REPRO_REPLAY_ENGINE=engine)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


RUN_CELL = """
import runpy

sys.argv = ["repro.evalx.runner", "run-cell", {experiment!r}, {key!r},
            "--scale", {scale!r}, "--seed", "1"]
try:
    runpy.run_module("repro.evalx.runner", run_name="__main__",
                     alter_sys=True)
except SystemExit as exc:
    out["exit"] = exc.code
"""


@pytest.mark.parametrize("experiment", CELL_EXPERIMENTS)
def test_event_cell_loads_nothing_lazy(tmp_path, experiment):
    """``python -m repro.evalx.runner run-cell`` on ``event``, cold
    (recording into an empty cache) and then warm (replaying it)."""
    key = runner.sweep_cells(experiment)[0]
    body = RUN_CELL.format(experiment=experiment, key=key,
                           scale=str(SCALE))
    for _ in ("cold", "warm"):
        found = _fresh(tmp_path / "cache", "event", body)
        assert found["exit"] == 0
        assert found["loaded"] == []


def test_oracle_loads_numpy_and_serves_planned_cells(tmp_path):
    found = _fresh(tmp_path / "cache", "oracle", """
        from repro.evalx import common
        from repro.trace import cache
        from repro.trace.replay import replay
        from repro.workloads import GateSim

        served = []
        serve = common.serve_from_tables

        def watched(*args):
            served.append(serve(*args))
            return served[-1]

        common.serve_from_tables = watched
        workload = GateSim()
        budgets = (8, 16, 80)  # sub-peak table cells and the closed form
        with common.capacity_plan(budgets):
            models = [common.run_workload(
                workload, common.make_nsf(workload, num_registers=n),
                scale=0.1) for n in budgets]
        out["served"] = served
        out["oracle"] = [m.stats.snapshot() for m in models]
        trace = cache.load_or_record(workload, scale=0.1, seed=1)
        out["event"] = [replay(trace, common.make_nsf(
            workload, num_registers=n), verify=False).stats.snapshot()
            for n in budgets]
    """)
    assert found["served"] == [True, True, True]
    assert {"numpy", "repro.trace.vector"} <= set(found["loaded"])
    assert found["oracle"] == found["event"]


SWEEPS = """
from repro.evalx import common, run_experiment

plan = common._jobs
out["scans"] = 0

def counted(cells):
    jobs = plan(cells)
    out["scans"] += sum(job.kind == "scan" for job in jobs)
    return jobs

common._jobs = counted
for name in ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14"):
    run_experiment(name, scale={scale!r}, seed=1)
out["restored"] = common.RESULT_STATS.hits
out["published"] = common.RESULT_STATS.misses
out["jobs"] = common.FANOUT.forked + common.FANOUT.parent
"""


def test_a_warm_oracle_sweep_loads_no_numpy(tmp_path):
    """fig09-fig14 under ``oracle``: the cold pass prices its cells with
    the closed form and the tables, loading NumPy and planning table
    scans, and publishes their oracle entries; the warm pass on that
    cache restores every cell and loads neither NumPy nor the scan
    kernel.

    The cold pass's scans go to forked children and to this process
    from one shared queue, so whether this process ever loads the scan
    kernel (``repro.trace.vector``) is a race; the scans it planned,
    the jobs it computed anywhere and the entries it published are
    counted in this process whichever process took them."""
    body = SWEEPS.format(scale=SCALE)
    cold = _fresh(tmp_path / "cache", "oracle", body)
    assert "numpy" in cold["loaded"]
    assert cold["scans"] > 0 and cold["jobs"] > 0
    assert cold["published"] > 0
    warm = _fresh(tmp_path / "cache", "oracle", body)
    assert "numpy" not in warm["loaded"]
    assert "repro.trace.vector" not in warm["loaded"]
    assert (warm["restored"], warm["published"]) == (138, 0)  # every cell


def test_threads_racing_the_first_load_all_see_numpy(tmp_path):
    """A thread that asks while another is still importing NumPy waits
    for it and gets the whole module, never a partial one or an
    error."""
    found = _fresh(tmp_path / "cache", "oracle", """
        import threading

        from repro.trace import columnar

        out["before"] = "numpy" in sys.modules
        sys.setswitchinterval(1e-6)
        start = threading.Barrier(8)
        answers = []

        def ask():
            start.wait(timeout=60)
            answers.append(columnar._numpy().__name__)

        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        out["alive"] = sum(thread.is_alive() for thread in threads)
        out["answers"] = answers
    """)
    assert not found["before"]
    assert found["alive"] == 0
    assert found["answers"] == ["numpy"] * 8


def test_compiled_suite_loads_its_front_end_on_use(tmp_path):
    found = _fresh(tmp_path / "cache", "event", """
        from repro.evalx.common import make_nsf
        from repro.workloads import CompiledSuite

        out["before"] = sorted(m for m in ("repro.cpu", "repro.lang")
                               if m in sys.modules)
        workload = CompiledSuite()
        out["verified"] = workload.run(make_nsf(workload),
                                       scale=0.2).verified
    """)
    assert found["before"] == []
    assert found["verified"]
    assert {"repro.cpu", "repro.lang"} <= set(found["loaded"])


def test_parallel_sweep_still_runs_its_pool(tmp_path):
    found = _fresh(tmp_path / "cache", "event", f"""
        import threading

        from repro.evalx import runner

        threads = set()
        attempt = runner._attempt_cell

        def watched(*args):
            threads.add(threading.current_thread().name)
            return attempt(*args)

        runner._attempt_cell = watched
        result = runner.run_sweep(
            "table1", scale={SCALE!r}, seed=1, jobs=2,
            journal_path={str(tmp_path / "sweep.jsonl")!r},
            out_path={str(tmp_path / "sweep.json")!r})
        out["ok"] = result.ok
        out["threads"] = sorted(threads)
    """)
    assert found["ok"]
    assert "concurrent.futures" in found["loaded"]
    assert found["threads"]
    assert all(name.startswith("ThreadPoolExecutor")
               for name in found["threads"])


#: logs the modules of each exec'd ``run-cell`` as it exits, and those
#: of a warm parent as it forks and of its child as it leaves (not the
#: forks and exits of the workers a cell's experiment fans out to)
MODULE_LOG_SITE = """
import atexit, json, os, sys

def _dump(where):
    with open(os.environ["MODULE_LOG"], "a") as handle:
        handle.write(json.dumps([where, sorted(sys.modules)]) + "\\n")

if "run-cell" in sys.orig_argv:
    atexit.register(_dump, "run-cell")
if "warm-parent" in sys.orig_argv:
    _fork, _exit = os.fork, os._exit
    _warm = os.getpid()

    def fork():
        if os.getpid() == _warm:
            _dump("fork")
        return _fork()

    def leave(status):
        if os.getppid() == _warm:
            _dump("child")
        _exit(status)

    os.fork, os._exit = fork, leave
"""


def _module_log(tmp_path, engine, commands, warm):
    """Run ``commands`` as cells, warm or exec'd, on a private cache,
    with :data:`MODULE_LOG_SITE` installed; returns ``{where: [module
    set, ...]}`` from the module log."""
    log = tmp_path / "modules.log"
    env = {key: value for key, value in runner._cell_env().items()
           if not key.startswith("REPRO_")}
    env.update(REPRO_TRACE_CACHE=str(tmp_path / "cache"),
               REPRO_REPLAY_ENGINE=engine, MODULE_LOG=str(log))
    scope = runner.WarmCells()
    with scope if warm else contextlib.nullcontext():
        for command in commands:
            returncode, _, stderr, _ = runner.watched_run(command, env=env)
            assert returncode == 0, stderr[-2000:]
    assert scope.forked == (len(commands) if warm else 0)
    found = {}
    for line in log.read_text().splitlines():
        where, modules = json.loads(line)
        found.setdefault(where, []).append(set(modules))
    log.unlink()
    return found


def test_warm_parent_loads_nothing_a_cell_does_not(tmp_path, cell_site):
    cell_site(MODULE_LOG_SITE)
    commands = [runner._cell_command(experiment,
                                     runner.sweep_cells(experiment)[0],
                                     SCALE, 1, 0)
                for experiment in CELL_EXPERIMENTS]
    cells = _module_log(tmp_path, "event", commands, warm=False)
    warm = _module_log(tmp_path, "event", commands, warm=True)
    assert len(cells["run-cell"]) == len(CELL_EXPERIMENTS)
    first_fork = warm["fork"][0]
    assert not first_fork & set(LAZY)
    assert first_fork <= set.intersection(*cells["run-cell"])
    assert all(not child & set(LAZY) for child in warm["child"])


def test_oracle_loads_numpy_in_the_warm_child_only(tmp_path, cell_site):
    """A planned cell (fig10 serves from a capacity plan) loads NumPy on
    a cold cache; its warm parent still has none when it forks the next
    cell, which restores the oracle entries the first one published and
    loads none either."""
    cell_site(MODULE_LOG_SITE)
    commands = [runner._cell_command("fig10", runner.GENERIC_CELL, SCALE,
                                     1, attempt) for attempt in (0, 1)]
    warm = _module_log(tmp_path, "oracle", commands, warm=True)
    assert len(warm["fork"]) == 2
    assert all("numpy" not in parent for parent in warm["fork"])
    assert ["numpy" in child for child in warm["child"]] == [True, False]



#: logs the modules of each warm parent the executor forks as it forks
#: a cell, and of each such cell as it leaves, with its thread count
#: (not the forks and exits of the workers a cell fans out to)
FORK_LOG = """
import json, os

executor = os.getpid()
_fork, _exit = os.fork, os._exit
warm = []


def _dump(where, **extra):
    with open(os.environ["MODULE_LOG"], "a") as handle:
        handle.write(json.dumps([where, sorted(sys.modules), extra]) + "\\n")


def fork():
    if os.getppid() == executor:
        _dump("fork")
        warm[:] = [os.getpid()]
    return _fork()


def leave(status):
    if warm and os.getppid() == warm[0]:
        _dump("child", threads=len(os.listdir("/proc/self/task")))
    _exit(status)


os.fork, os._exit = fork, leave
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts a cell's threads through /proc")
def test_a_forked_cell_imports_nothing_an_execd_cell_does_not(tmp_path,
                                                             cell_site):
    """The first cell of each experiment, exec'd, and then in a sweep
    whose warm parent is forked from an executor that has already run
    a ``jobs=2`` sweep."""
    cell_site(MODULE_LOG_SITE)
    commands = [runner._cell_command(experiment,
                                     runner.sweep_cells(experiment)[0],
                                     SCALE, 1, 0)
                for experiment in CELL_EXPERIMENTS]
    execd = _module_log(tmp_path, "event", commands, warm=False)
    found = _fresh(tmp_path / "cache", "event", FORK_LOG + f"""
import io, pathlib

from repro.evalx import runner

work = pathlib.Path({str(tmp_path)!r})
cells = runner.sweep_cells
out["lines"], out["logs"] = [], []
for sweep, experiment in enumerate(("table1",) + {CELL_EXPERIMENTS!r}):
    keys = cells(experiment)[:2 if sweep == 0 else 1]
    runner.sweep_cells = lambda experiment, keys=keys: keys
    log = work / f"forked-{{sweep}}.log"
    os.environ["MODULE_LOG"] = str(log)
    stream = io.StringIO()
    result = runner.run_sweep(
        experiment, scale={SCALE!r}, seed=1, jobs=2, stream=stream,
        journal_path=work / f"{{sweep}}.jsonl",
        out_path=work / f"{{sweep}}.json")
    assert result.ok, stream.getvalue()
    out["lines"].append(stream.getvalue().splitlines()[-1])
    out["logs"].append([json.loads(line)
                        for line in log.read_text().splitlines()])
""")
    assert all(line.endswith("warm parent(s) forked from the sweep")
               for line in found["lines"]), found["lines"]
    for experiment, cell, log in zip(CELL_EXPERIMENTS, execd["run-cell"],
                                     found["logs"][1:]):
        (_, parent, _), (_, child, extra) = log
        assert "concurrent.futures" in parent
        assert set(child) - set(parent) <= cell, experiment
        assert extra["threads"] == 1, experiment
