"""The benchmark's four workloads and how each checks its outputs.

Every function here runs inside one pass interpreter (``onepass.py``)
and returns one outcome per operation:
``{"name", "ok", "digest", "error"}``.  An operation fails when it
raised, was dropped, or its output differs from its reference.
"""

import hashlib
import json
import os
import pathlib

#: fig09-fig14: the paper's design-space sweeps
SWEEP_FIGURES = ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14")

#: paper-scale operating point of the two sweep workloads
SWEEP_SCALE = 0.35

#: experiments the journalled runner sweeps, one subprocess per cell
RUNNER_EXPERIMENTS = ("compression", "table1")

#: name -> replay engine (``REPRO_REPLAY_ENGINE``).  ``goldens`` and
#: ``runner`` run at the pinned golden point, so only the two sweep
#: workloads take their program seed from ``--seed``.
WORKLOADS = {
    "goldens": "event",
    "sweeps": "event",
    "sweeps-oracle": "oracle",
    "runner": "event",
}


def table_digest(table):
    """sha256 of an experiment table's canonical JSON."""
    blob = json.dumps(table.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _outcome(name, ok, digest=None, error=None):
    return {"name": name, "ok": bool(ok), "digest": digest,
            "error": error}


def run_goldens(seed, workdir, names=None):
    """Each experiment diffed against its golden (``--check-goldens``);
    ``names`` restricts the suite (smoke tests)."""
    from repro.evalx import EXPERIMENTS
    from repro.evalx.golden import DEFAULT_DIR, compare_golden

    goldens = {path.stem for path in DEFAULT_DIR.glob("*.json")}
    outcomes = []
    for name in sorted(names or set(EXPERIMENTS) | goldens):
        try:
            if name not in EXPERIMENTS:
                deviations = [f"{name}: golden for unknown experiment"]
            else:
                deviations = compare_golden(name)
        except Exception as exc:  # an experiment that raised failed
            deviations = [f"{name} raised {exc!r}"]
        outcomes.append(_outcome(name, not deviations,
                                 error="; ".join(deviations[:3]) or None))
    return outcomes


def run_sweeps(seed, workdir, scale=SWEEP_SCALE):
    """fig09-fig14 at the sweep operating point; digests checked by the
    caller against the event-engine reference for this seed."""
    from repro.evalx import run_experiment

    outcomes = []
    for name in SWEEP_FIGURES:
        try:
            table = run_experiment(name, scale=scale, seed=seed)
        except Exception as exc:
            outcomes.append(_outcome(name, False, error=repr(exc)))
            continue
        outcomes.append(_outcome(name, True, digest=table_digest(table)))
    return outcomes


def runner_jobs():
    """Cell subprocesses at a time: nproc, capped at 2 so every host
    runs the same schedule shape."""
    return max(1, min(2, os.cpu_count() or 1))


def run_runner(seed, workdir, experiments=RUNNER_EXPERIMENTS):
    """Journalled sweeps; each cell checked against its golden rows."""
    from repro.evalx.golden import DEFAULT_DIR, GOLDEN_SCALE, GOLDEN_SEED
    from repro.evalx.journal import Journal
    from repro.evalx.runner import run_sweep

    outcomes = []
    counters = {"runner.dropped": 0}
    for experiment in experiments:
        journal_path = pathlib.Path(workdir, f"{experiment}.journal.jsonl")
        result = run_sweep(
            experiment, scale=GOLDEN_SCALE, seed=GOLDEN_SEED,
            journal_path=journal_path,
            out_path=pathlib.Path(workdir, f"{experiment}-sweep.json"),
            jobs=runner_jobs(), check=True)
        counters["runner.dropped"] += len(result.dropped_keys)
        golden = json.loads(
            (DEFAULT_DIR / f"{experiment}.json").read_text())["rows"]
        _, cells, _ = Journal(journal_path).load()
        cell_outcomes = []
        row = 0
        for key in result.keys:
            record = cells.get(key)
            if record is None or record["status"] != "ok":
                cell_outcomes.append(_outcome(f"{experiment}/{key}", False,
                                              error="dropped"))
                continue
            rows = record["payload"]["rows"]
            ok = rows == golden[row:row + len(rows)]
            row += len(rows)
            cell_outcomes.append(_outcome(
                f"{experiment}/{key}", ok,
                error=None if ok else "rows differ from the golden"))
        if result.deviations and all(o["ok"] for o in cell_outcomes):
            # a table-level deviation no single cell explains
            cell_outcomes[-1] = _outcome(cell_outcomes[-1]["name"], False,
                                         error=result.deviations[0])
        outcomes.extend(cell_outcomes)
    return outcomes, counters


def run(workload, seed, workdir):
    """Run one workload; returns ``(outcomes, counters)``."""
    if workload == "goldens":
        return run_goldens(seed, workdir), {}
    if workload in ("sweeps", "sweeps-oracle"):
        return run_sweeps(seed, workdir), {}
    if workload == "runner":
        return run_runner(seed, workdir)
    raise KeyError(f"unknown workload {workload!r}")
