"""Per-layer metrics from a traced run, and the per-layer report.

``run.py --trace 1`` writes ``.perfbench-work/traces/<workload>.json``.
This module turns its spans into the per-layer metrics and, as a
command, into one table per workload with self time, counts, ratios
and the tracing overhead, followed by a check of each layer's measured
split against the split the benchmark predicts::

    python3 perfbench/layers.py                 # every traced workload
    python3 perfbench/layers.py goldens runner  # just these

A span's self time is its length minus the time its child spans cover.
"""

import json
import pathlib
import statistics
import sys
from collections import defaultdict

TRACE_DIR = (pathlib.Path(__file__).resolve().parent.parent
             / ".perfbench-work" / "traces")

#: every experiment of repro.evalx, in registry order
EXPERIMENTS = ("table1", "fig05", "fig06", "fig07", "fig08", "fig09",
               "fig10", "fig11", "fig12", "fig13", "fig14", "claims",
               "chaos", "compression", "profile", "resilience")

#: layer metrics of one traced pass, in report order
PASS_METRICS = (
    tuple(f"evalx.{name}.s" for name in EXPERIMENTS)
    + ("replay.calls", "replay.events", "replay.s", "replay.ns_per_event",
       "oracle.serve_calls", "oracle.served", "oracle.served_ratio",
       "oracle.serve_s", "oracle.scans", "oracle.scan_s",
       "oracle.fallback_calls", "oracle.fallback_s",
       "cache.hits", "cache.misses", "cache.records", "cache.quarantined",
       "cache.load_s", "cache.record_s",
       "workloads.runs", "workloads.run_s",
       "runner.cells", "runner.cell_s.p50", "runner.cell_busy_s",
       "runner.retries", "runner.dropped",
       "journal.appends", "journal.append_s",
       "core.cells", "core.events")
)

#: the subset also reported for the cold set-up pass, as ``setup.<name>``
SETUP_METRICS = ("cache.hits", "cache.misses", "cache.records",
                 "cache.load_s", "cache.record_s", "workloads.runs",
                 "workloads.run_s", "replay.s", "oracle.scan_s",
                 "runner.cell_busy_s")

#: every per-layer metric a traced run prints
METRICS = (PASS_METRICS
           + tuple(f"setup.{name}" for name in SETUP_METRICS)
           + ("process.import_s", "trace.overhead"))


def unit_of(name):
    if name.endswith("ns_per_event"):
        return "ns"
    if name.endswith(("_ratio", "overhead")):
        return "ratio"
    if name.endswith(("_s", ".s", "_s.p50")):
        return "s"
    return "count"


def cache_counts(log_text):
    """HIT/MISS/RECORD/... lines of ``REPRO_TRACE_CACHE_LOG`` -> counts.

    A recording that could not be published (``PUBFAIL``/``NOPUBLISH``)
    is still a recording."""
    counts = defaultdict(int)
    for line in log_text.splitlines():
        if line.strip():
            counts[line.split()[0]] += 1
    return {
        "cache.hits": counts["HIT"],
        "cache.misses": counts["MISS"],
        "cache.records": (counts["RECORD"] + counts["PUBFAIL"]
                          + counts["NOPUBLISH"]),
        "cache.quarantined": counts["QUARANTINE"],
    }


def merge_cell_spans(spans, cell_spans):
    """Attach a cell subprocess's spans under its ``watched_run`` span.

    Ids are renumbered past the parent's; each child root gets the
    parent ``runner.cell`` span with the same cell id as its parent.
    """
    merged = list(spans)
    roots = {span[5]: span[0] for span in spans if span[2] == "runner.cell"}
    offset = max((span[0] for span in merged), default=0)
    for child in cell_spans:
        top = offset
        for span in child:
            span_id, parent = span[0] + offset, span[1]
            parent = parent + offset if parent is not None else roots.get(
                span[5])
            merged.append([span_id, parent] + list(span[2:]))
            top = max(top, span_id)
        offset = top
    return merged


def _self_ns(spans):
    covered = defaultdict(int)
    for span in spans:
        if span[1] is not None:
            covered[span[1]] += span[4] - span[3]
    return {span[0]: span[4] - span[3] - covered[span[0]] for span in spans}


def _inside_experiment(span, by_id):
    while span[1] is not None:
        span = by_id[span[1]]
        if span[2] == "evalx.run_experiment":
            return True
    return False


def pass_metrics(spans, cache, counters):
    """Layer metrics of one pass from its spans, its cache-log counts
    and the counters its workload reported.

    ``journal.*`` counts the journalled runner's appends; the chaos
    campaign's journal fault cells append inside ``evalx.chaos`` and
    count toward that experiment's time instead."""
    self_ns = _self_ns(spans)
    by_id = {span[0]: span for span in spans}
    by_name = defaultdict(list)
    for span in spans:
        if not (span[2] == "journal.append"
                and _inside_experiment(span, by_id)):
            by_name[span[2]].append(span)

    def self_s(name):
        return sum(self_ns[span[0]] for span in by_name[name]) / 1e9

    def count(name, attr=None):
        return sum(1 for span in by_name[name]
                   if attr is None or span[6].get(attr))

    metrics = {f"evalx.{name}.s": 0.0 for name in EXPERIMENTS}
    for span in by_name["evalx.run_experiment"]:
        key = f"evalx.{span[6]['experiment']}.s"
        if key in metrics:
            metrics[key] += (span[4] - span[3]) / 1e9
    core_events = sum(span[6].get("events", 0)
                      for span in by_name["run_workload"])
    metrics.update({
        "replay.calls": count("replay"),
        "replay.events": sum(span[6]["events"]
                             for span in by_name["replay"]),
        "replay.s": self_s("replay"),
        "replay.ns_per_event": (self_s("replay") * 1e9 / core_events
                                if core_events else 0.0),
        "oracle.serve_calls": count("oracle.serve"),
        "oracle.served": count("oracle.serve", "served"),
        "oracle.served_ratio": (count("oracle.serve", "served")
                                / count("oracle.serve")
                                if by_name["oracle.serve"] else 0.0),
        "oracle.serve_s": self_s("oracle.serve"),
        "oracle.scans": count("oracle.scan"),
        "oracle.scan_s": self_s("oracle.scan"),
        "oracle.fallback_calls": count("oracle.fallback"),
        "oracle.fallback_s": self_s("oracle.fallback"),
        "cache.load_s": self_s("cache.load"),
        "cache.record_s": self_s("cache.record"),
        "workloads.runs": count("workloads.run"),
        "workloads.run_s": self_s("workloads.run"),
        "journal.appends": count("journal.append"),
        "journal.append_s": self_s("journal.append"),
        "core.cells": count("run_workload"),
        "core.events": core_events,
    })
    metrics.update(cache)
    cells = by_name["runner.cell"]
    durations = [(span[4] - span[3]) / 1e9 for span in cells]
    metrics.update({
        "runner.cells": len({span[5].rsplit("/", 1)[0] for span in cells}),
        "runner.cell_s.p50": (statistics.median(durations)
                              if durations else 0.0),
        "runner.cell_busy_s": sum(durations),
        "runner.retries": sum(1 for span in cells
                              if not span[5].endswith("/0")),
        "runner.dropped": counters.get("runner.dropped", 0),
    })
    return {name: metrics[name] for name in PASS_METRICS}


def traced_pass_metrics(traced_pass):
    """Layer metrics of one traced pass as ``run.py`` stores it."""
    return pass_metrics(traced_pass["spans"],
                        cache_counts(traced_pass["cache_log"]),
                        traced_pass["counters"])


def run_metrics(trace):
    """Every per-layer metric of one traced run (``trace`` as written
    by ``run.py``)."""
    measured = trace["passes"]["measured"]
    metrics = traced_pass_metrics(measured)
    setup = traced_pass_metrics(trace["passes"]["setup"])
    for name in SETUP_METRICS:
        metrics[f"setup.{name}"] = setup[name]
    metrics["process.import_s"] = trace["process_import_s"]
    metrics["trace.overhead"] = (trace["traced_wall_s"]
                                 / trace["untraced_wall_s"] - 1.0)
    return {name: metrics[name] for name in METRICS}


# -- the report ---------------------------------------------------------------

#: report rows: (layer, call-count metric, self-time metric)
LAYERS = (
    ("repro.trace.replay -> repro.core", "replay.calls", "replay.s"),
    ("repro.trace.oracle (serve)", "oracle.serve_calls", "oracle.serve_s"),
    ("repro.trace.oracle (scan)", "oracle.scans", "oracle.scan_s"),
    ("repro.trace.oracle (fallback)", "oracle.fallback_calls",
     "oracle.fallback_s"),
    ("repro.trace.cache (load)", "cache.hits", "cache.load_s"),
    ("repro.trace.cache (record)", "cache.records", "cache.record_s"),
    ("repro.workloads front-ends", "workloads.runs", "workloads.run_s"),
    ("repro.evalx.journal", "journal.appends", "journal.append_s"),
)


def _table(trace):
    measured = trace["passes"]["measured"]
    warm = traced_pass_metrics(measured)
    cold = traced_pass_metrics(trace["passes"]["setup"])
    lines = [f"{'layer':34} {'calls':>7} {'self s':>8} {'share':>6}"
             f" {'setup calls':>11} {'setup self s':>12}"]
    for label, calls, self_metric in LAYERS:
        lines.append(
            f"{label:34} {warm[calls]:>7} {warm[self_metric]:>8.3f} "
            f"{warm[self_metric] / measured['wall_s']:>6.1%} "
            f"{cold[calls]:>11} {cold[self_metric]:>12.3f}")
    return lines


SWEEPS = ("sweeps", "sweeps-oracle")


def check_expectations(runs, seeds=None):
    """The predicted split against the measured one.

    ``runs`` maps each traced workload to ``(metrics, warm wall s)``,
    ``seeds`` to the seed it ran.  Returns ``[(workload, prediction,
    holds, measured)]`` for every prediction whose workloads were
    traced.
    """
    seeds = seeds or {}
    checks = []

    def check(workload, text, holds, measured):
        checks.append((workload, text, bool(holds), measured))

    figures = {f"evalx.{name}.s" for name in ("fig09", "fig10", "fig11",
                                                "fig12", "fig13", "fig14")}
    for workload, (m, wall) in runs.items():
        ran = {name for name in m if name.startswith("evalx.") and m[name]}
        if workload == "goldens":
            check(workload, "run_experiment times all 16 experiments",
                  len(ran) == len(EXPERIMENTS), f"{len(ran)} timed")
        elif workload in SWEEPS:
            check(workload, "run_experiment times exactly fig09-fig14",
                  ran == figures, ", ".join(sorted(ran)))
        check(workload, "oracle.scans non-zero only on sweeps-oracle",
              (m["oracle.scans"] > 0) == (workload == "sweeps-oracle"),
              f"{m['oracle.scans']} scans")
        check(workload, "runner.* and journal.* non-zero only on runner",
              all((m[name] > 0) == (workload == "runner")
                  for name in ("runner.cells", "runner.cell_busy_s",
                               "journal.appends", "journal.append_s")),
              f"{m['runner.cells']} cells, {m['journal.appends']} "
              "runner journal appends")
        check(workload, "every set-up pass records traces and runs "
              "front-ends", m["setup.cache.records"] > 0
              and m["setup.workloads.runs"] > 0,
              f"{m['setup.cache.records']} records, "
              f"{m['setup.workloads.runs']} front-end runs")
        check(workload, "core.cells and core.events are non-zero",
              m["core.cells"] > 0 and m["core.events"] > 0,
              f"{m['core.cells']} cells, {m['core.events']} events")
    if "goldens" in runs:
        m, wall = runs["goldens"]
        check("goldens", "warm goldens pays event replay and front-end "
              "execution", m["replay.s"] > 0 and m["workloads.run_s"] > 0,
              f"replay {m['replay.s'] / wall:.0%}, front-ends "
              f"{m['workloads.run_s'] / wall:.0%} of the pass")
    if "sweeps" in runs:
        m, wall = runs["sweeps"]
        check("sweeps", "event replay is most of the warm sweeps pass",
              m["replay.s"] > wall / 2, f"{m['replay.s'] / wall:.0%}")
    if "sweeps-oracle" in runs:
        m, wall = runs["sweeps-oracle"]
        check("sweeps-oracle", "table scans are most of the warm pass "
              "and event replay does nothing",
              m["oracle.scan_s"] > wall / 2 and m["replay.calls"] == 0,
              f"scans {m['oracle.scan_s'] / wall:.0%}, "
              f"{m['replay.calls']} replays")
    for workload in SWEEPS:
        if workload in runs:
            m, _ = runs[workload]
            check(workload, "warm sweeps execute no front-end",
                  m["workloads.runs"] == 0, f"{m['workloads.runs']} runs")
    if "runner" in runs:
        m, _ = runs["runner"]
        check("runner", "replay is a minority of runner cell time",
              m["replay.s"] < m["runner.cell_busy_s"] / 2,
              f"replay {m['replay.s']:.2f} s of "
              f"{m['runner.cell_busy_s']:.2f} s cell time")
    if "runner" in runs and "sweeps" in runs:
        (runner, runner_wall), (sweeps, sweeps_wall) = (runs["runner"],
                                                         runs["sweeps"])
        check("runner", "per-cell trace loads cost the runner a larger "
              "share of wall time than the sweeps' one load per trace",
              runner["cache.load_s"] / runner_wall
              > sweeps["cache.load_s"] / sweeps_wall,
              f"runner {runner['cache.load_s'] / runner_wall:.1%} vs "
              f"sweeps {sweeps['cache.load_s'] / sweeps_wall:.1%}")
    if ("sweeps" in runs and "sweeps-oracle" in runs
            and seeds.get("sweeps") == seeds.get("sweeps-oracle")):
        check("sweeps-oracle", "both engines drive the same events on "
              "the same seed",
              runs["sweeps"][0]["core.events"]
              == runs["sweeps-oracle"][0]["core.events"],
              f"{runs['sweeps'][0]['core.events']} vs "
              f"{runs['sweeps-oracle'][0]['core.events']} events")
    return checks


#: why a prediction does not hold, where that was measured and understood
EXPLAINED = {
    "per-cell trace loads cost the runner a larger share of wall time "
    "than the sweeps' one load per trace":
        "a cell's disk load and CRC check take a few milliseconds, next "
        "to a ~0.3 s cell process of which about half is importing the "
        "runner and the experiment modules (process.import_s) and most "
        "of the rest replay; the sweeps' lookups are as cheap, so trace "
        "loading is a percent or two of either pass",
}


def report(traces):
    """Print the per-layer report of the given traced runs."""
    runs = {}
    seeds = {trace["workload"]: trace["seed"] for trace in traces}
    for trace in traces:
        workload = trace["workload"]
        metrics = run_metrics(trace)
        measured = trace["passes"]["measured"]
        runs[workload] = (metrics, measured["wall_s"])
        print(f"== {workload} (seed {trace['seed']}) ==")
        print(f"measured passes: traced {trace['traced_wall_s']:.3f} s, "
              f"untraced {trace['untraced_wall_s']:.3f} s (medians): "
              f"tracing overhead {metrics['trace.overhead']:+.1%}")
        for line in _table(trace):
            print("  " + line)
        experiments = {name: value for name, value in metrics.items()
                       if name.startswith("evalx.") and value > 0}
        if experiments:
            print("  experiments: " + ", ".join(
                f"{name[6:-2]} {value:.2f}s"
                for name, value in experiments.items()))
        print(f"  ratios: oracle served {metrics['oracle.served']}/"
              f"{metrics['oracle.serve_calls']} "
              f"({metrics['oracle.served_ratio']:.0%}); replay "
              f"{metrics['replay.ns_per_event']:.0f} ns/event over "
              f"{metrics['core.events']} events in "
              f"{metrics['core.cells']} cells; cache "
              f"{metrics['cache.hits']} hits / {metrics['cache.misses']}"
              f" misses")
        if metrics["runner.cells"]:
            print(f"  runner: {metrics['runner.cells']} cells, p50 "
                  f"{metrics['runner.cell_s.p50']:.3f} s, busy "
                  f"{metrics['runner.cell_busy_s']:.2f} s, import "
                  f"{metrics['process.import_s']:.3f} s/process")
    print("== predicted vs measured split ==")
    for workload, text, holds, measured in check_expectations(runs, seeds):
        print(f"  {'MATCH   ' if holds else 'MISMATCH'} {workload}: {text} "
              f"({measured})")
        if not holds and text in EXPLAINED:
            print(f"           why: {EXPLAINED[text]}")


def main(argv=None):
    names = sys.argv[1:] if argv is None else argv
    paths = ([TRACE_DIR / f"{name}.json" for name in names] if names
             else sorted(TRACE_DIR.glob("*.json")))
    missing = [str(path) for path in paths if not path.exists()]
    if missing or not paths:
        print("no traced run found ("
              + (", ".join(missing) or str(TRACE_DIR))
              + "); run perfbench/run.py --trace 1 first", file=sys.stderr)
        return 2
    report([json.loads(path.read_text()) for path in paths])
    return 0


if __name__ == "__main__":
    sys.exit(main())
