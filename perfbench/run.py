"""Cold/warm end-to-end benchmark of the NSF reproduction.

    python3 perfbench/run.py --workload goldens --seed 1 --seconds 26 \
        --trace 0

Workloads: ``goldens``, ``sweeps``, ``sweeps-oracle``, ``runner`` (see
``suites.py`` and ``NOTES.md``).  Each pass is a fresh interpreter
(``onepass.py``) with its own journal and temporary directory.  A run
makes ``SETUPS`` groups of passes, each on its own empty trace cache
under ``.perfbench-work/``:

* the **set-up pass** is cold: it starts from the empty cache;
* the **measured passes** are warm: they reuse the cache the set-up
  filled.  No measured pass writes to it, so each does the same work.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median warm
pass, interpreter start to checked output), ``setup_s`` (median cold
pass), ``peak_rss_mb`` (median warm-pass peak RSS over the pass
process and its cell processes) and ``ok_share`` (1 - failed/attempted over the
warm passes).  ``--trace 1`` makes one traced set-up pass and then
alternates untraced and traced measured passes on its cache; it
reports the per-layer metrics of ``layers.py`` and writes the spans to
``.perfbench-work/traces/<workload>.json`` for ``layers.py`` to report.
The last line of output is one JSON object.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layers
import suites

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"

#: wall-clock limit of one pass
PASS_TIMEOUT_S = 150

#: cold set-up passes per run; setup_s is their median
SETUPS = 2

#: seconds one set-up plus one measured pass take on the reference host
#: (NOTES.md).  Each set-up gets max(1, round(seconds / (SETUPS *
#: nominal))) measured passes, so a run lasts about ``--seconds`` there
#: (at least one pair per set-up), and one ``--seconds`` value does the
#: same work on every host and commit.
NOMINAL_PAIR_S = {"goldens": 21.7, "sweeps": 7.4, "sweeps-oracle": 8.3,
                  "runner": 8.1}

#: untraced/traced measured-pass pairs of a traced run
TRACED_PAIRS = 2

#: fresh interpreters timed for process.import_s
IMPORT_SAMPLES = 3


class PassError(RuntimeError):
    """A pass crashed, timed out or wrote no result."""


def measured_per_setup(workload, seconds):
    return max(1, round(seconds / (SETUPS * NOMINAL_PAIR_S[workload])))


def pass_env(engine, cache_dir, tmp_dir, cache_log=None):
    """The program's environment for one pass: its own trace cache and
    temporary directory, the workload's engine, nothing inherited that
    would steer the program (chaos seeds, cache switches)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PERFBENCH_"))}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "TMPDIR": str(tmp_dir),
        "REPRO_TRACE_CACHE": str(cache_dir),
        "REPRO_REPLAY_ENGINE": engine,
    })
    if cache_log is not None:
        env["REPRO_TRACE_CACHE_LOG"] = str(cache_log)
    return env


def _stop(proc):
    """Kill a pass and everything it started, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.communicate()


def run_pass(workload, seed, cache_dir, workdir, spans=False,
             engine=None):
    """One pass in a fresh interpreter; returns its result dict with
    ``wall_s`` added (and ``spans``/``cache_log`` when traced)."""
    workdir.mkdir(parents=True)
    tmp_dir = workdir / "tmp"
    tmp_dir.mkdir()
    result_path = workdir / "result.json"
    spans_path = workdir / "spans.json"
    cache_log = workdir / "cache.log" if spans else None
    command = [sys.executable, str(HERE / "onepass.py"),
               "--workload", workload, "--seed", str(seed),
               "--workdir", str(workdir), "--result", str(result_path)]
    if spans:
        command += ["--spans", str(spans_path)]
    env = pass_env(engine or suites.WORKLOADS[workload], cache_dir,
                   tmp_dir, cache_log)
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise PassError(f"{workload} pass exceeded {PASS_TIMEOUT_S}s")
    except BaseException:
        _stop(proc)
        raise
    wall_s = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.exists():
        tail = " | ".join(stderr.strip().splitlines()[-5:])
        raise PassError(f"{workload} pass exited {proc.returncode}: {tail}")
    result = json.loads(result_path.read_text())
    result["wall_s"] = wall_s
    if spans:
        result["spans"] = json.loads(spans_path.read_text())
        cell_dir = spans_path.with_suffix(".cells")
        if cell_dir.is_dir():
            result["spans"] = layers.merge_cell_spans(
                result["spans"],
                [json.loads(path.read_text())
                 for path in sorted(cell_dir.glob("cell-*.json"))])
        result["cache_log"] = (cache_log.read_text()
                               if cache_log.exists() else "")
    return result


def committed_digests(seed):
    """The committed event-engine digests for ``seed``, or ``None``."""
    if not DIGESTS.exists():
        return None
    recorded = json.loads(DIGESTS.read_text())
    if recorded.get("scale") != suites.SWEEP_SCALE:
        return None
    return recorded["seeds"].get(str(seed))


def event_digests(seed, scratch):
    """Digests of one event-engine sweeps pass on an empty cache."""
    result = run_pass("sweeps", seed, scratch / "trace-cache",
                      scratch / "reference", engine="event")
    digests = {}
    for outcome in result["outcomes"]:
        if not outcome["ok"]:
            raise PassError(f"reference sweep {outcome['name']} failed: "
                            f"{outcome['error']}")
        digests[outcome["name"]] = outcome["digest"]
    return digests


def check_outcomes(outcomes, reference):
    """Fail every sweep figure whose digest differs from the reference
    (the oracle promises byte-identity with event replay)."""
    if reference is None:
        return outcomes
    checked = []
    for outcome in outcomes:
        if outcome["ok"] and outcome["digest"] != reference.get(
                outcome["name"]):
            outcome = dict(outcome, ok=False,
                           error="table digest differs from the "
                                 "event-engine reference")
        checked.append(outcome)
    return checked


def run_group(workload, seed, base, reference, steps):
    """Passes on one trace cache, empty at the first; ``steps`` lists
    each pass's ``(role, traced)``."""
    cache_dir = base / "trace-cache"
    passes = []
    for index, (role, traced) in enumerate(steps):
        result = run_pass(workload, seed, cache_dir, base / f"{index}",
                          spans=traced)
        result["outcomes"] = check_outcomes(result["outcomes"], reference)
        result["role"] = role
        result["traced"] = traced
        passes.append(result)
    return passes


def import_seconds(samples=IMPORT_SAMPLES):
    """Median fresh-interpreter import of the runner and the modules a
    cell subprocess loads."""
    code = ("import time; t = time.perf_counter(); "
            "import repro.evalx.runner as r; r._cell_modules(); "
            "print(time.perf_counter() - t)")
    env = pass_env("event", WORK / "unused-cache", WORK)
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=PASS_TIMEOUT_S)
        if out.returncode != 0:
            raise PassError(f"import probe exited {out.returncode}")
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def _tally(passes):
    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(1 for p in passes for o in p["outcomes"] if not o["ok"])
    return attempted, failed


def _failures(passes):
    return [f"{o['name']}: {o['error']}" for p in passes
            for o in p["outcomes"] if not o["ok"]]


def measure(workload, seed, seconds, run_dir, reference):
    """Untraced run: the end-to-end metrics and every pass made."""
    steps = ([("setup", False)]
             + [("measured", False)] * measured_per_setup(workload, seconds))
    passes = []
    for index in range(SETUPS):
        passes += run_group(workload, seed, run_dir / f"group{index}",
                            reference, steps)
    setups = [p for p in passes if p["role"] == "setup"]
    warms = [p for p in passes if p["role"] == "measured"]
    attempted, failed = _tally(warms)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in warms), "s"),
        "setup_s": (statistics.median(p["wall_s"] for p in setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kib"] / 1024
                                          for p in warms), "MiB"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }
    return metrics, passes


def measure_traced(workload, seed, run_dir, reference):
    """Traced run: a traced set-up pass, then measured passes that
    alternate untraced and traced on its cache, so the tracing overhead
    compares passes made side by side.  The layer metrics come from the
    set-up pass and the first traced measured pass."""
    steps = [("setup", True)] + [("measured", False),
                                 ("measured", True)] * TRACED_PAIRS
    passes = run_group(workload, seed, run_dir / "traced", reference, steps)
    warm = {traced: [p for p in passes
                     if p["role"] == "measured" and p["traced"] == traced]
            for traced in (False, True)}
    kept = {"setup": passes[0], "measured": warm[True][0]}
    trace = {
        "workload": workload,
        "seed": seed,
        "untraced_wall_s": statistics.median(p["wall_s"]
                                             for p in warm[False]),
        "traced_wall_s": statistics.median(p["wall_s"] for p in warm[True]),
        "process_import_s": (import_seconds() if workload == "runner"
                             else 0.0),
        "passes": {
            role: {
                "wall_s": result["wall_s"],
                "spans": result["spans"],
                "cache_log": result["cache_log"],
                "counters": result["counters"],
            }
            for role, result in kept.items()
        },
    }
    layers.TRACE_DIR.mkdir(parents=True, exist_ok=True)
    (layers.TRACE_DIR / f"{workload}.json").write_text(json.dumps(trace))
    metrics = {name: (value, layers.unit_of(name))
               for name, value in layers.run_metrics(trace).items()}
    return metrics, passes


def preflight():
    """The program's sources and goldens must be in this checkout."""
    missing = [path for path in (ROOT / "src" / "repro",
                                 ROOT / "benchmarks" / "golden")
               if not path.is_dir()]
    if missing:
        raise SystemExit(
            "perfbench: not a checkout of the program (missing "
            + ", ".join(str(path.relative_to(ROOT)) for path in missing)
            + ")")
    # byte-compile once, outside every timed pass
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(HERE)], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suites.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    preflight()

    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        reference = None
        if args.workload in ("sweeps", "sweeps-oracle"):
            reference = (committed_digests(args.seed)
                         or event_digests(args.seed, run_dir / "reference"))
        if args.trace:
            metrics, passes = measure_traced(args.workload, args.seed,
                                             run_dir, reference)
        else:
            metrics, passes = measure(args.workload, args.seed,
                                      args.seconds, run_dir, reference)
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = _tally(passes)
    for failure in _failures(passes):
        print(f"FAILED {failure}")
    print(f"{args.workload} pass wall s: " + " ".join(
        f"{p['role']}{'+traced' if p['traced'] else ''}={p['wall_s']:.3f}"
        for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
