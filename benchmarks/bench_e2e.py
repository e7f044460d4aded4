"""End-to-end gate on the fig09-fig14 design-space sweeps.

The micro gates in ``make bench-check`` time one layer each; this one
times what a user waits for: the six sweep figures run back to back in
one process on a warm trace cache, every table checked against the
event engine's.  Five kinds of pass, interleaved, min-of-3 each:

* ``event``       — the default engine, every result entry (file and
  memo) dropped once per pass: each distinct (trace, fresh model)
  cell is replayed once, each Gamteb configuration (which has no
  trace) runs directly once, and the figures that revisit cells
  (fig10, fig12, most of fig14) restore the entries the pass
  published;
* ``event_cold``  — the same, but the result entries dropped before
  every figure, so each figure replays all of its own cells;
* ``oracle``      — ``REPRO_REPLAY_ENGINE=oracle`` with the oracle's
  table and analysis memos and the result entries, its oracle entries
  included, dropped per pass: each planned cell is scanned for and
  served by the closed form or a table once, and the figures that
  revisit cells restore the oracle entries the pass published;
* ``restored``    — the default engine on a warm cache whose result
  entries stay, as in a user's second run: every cell restores its
  entry and nothing replays.  Reported, not gated;
* ``oracle_restored`` — the oracle on a warm cache whose entries an
  oracle pass published and which stay, its table and analysis memos
  dropped: every cell restores its oracle entry or replay result, and
  nothing is scanned, served or replayed.  Reported, not gated.

Two same-box ratios are gated on hard floors:

* ``memo_speedup = event_cold / event`` >= 1.5x;
* ``oracle_speedup = event / oracle`` >= 1.2x.

The recorded baseline is printed next to each ratio but does not
raise the floor: a whole-sweep pass swings with host load more than
the micro gates do.

Usage::

    python benchmarks/bench_e2e.py                  # report
    python benchmarks/bench_e2e.py --write-baseline # refresh 'e2e'
    python benchmarks/bench_e2e.py --check          # CI gate

``--write-baseline`` merges only the ``e2e`` key of
BENCH_baseline.json and leaves every other benchmark's key untouched.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.evalx import common, run_experiment
from repro.trace import cache as trace_cache, columnar, oracle

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"
BASELINE_KEY = "e2e"

SWEEPS = ("fig09", "fig10", "fig11", "fig12", "fig13", "fig14")
SCALE = 0.35
SEED = 3
REPEATS = 3

#: the gate's floors
MIN_MEMO_SPEEDUP = 1.5
MIN_ORACLE_SPEEDUP = 1.2


def _sweep(engine, before_figure=None):
    """One timed pass: (seconds, {figure: table}, result entries
    published): its replays and its Gamteb cells' direct runs, and
    under ``oracle`` the oracle entries of the cells it priced."""
    os.environ[columnar.ENV_ENGINE] = engine
    misses = common.RESULT_STATS.misses
    tables = {}
    start = time.perf_counter()
    for name in SWEEPS:
        if before_figure is not None:
            before_figure()
        tables[name] = run_experiment(name, scale=SCALE, seed=SEED)
    elapsed = time.perf_counter() - start
    return elapsed, tables, common.RESULT_STATS.misses - misses


def _clear_oracle_memos():
    trace_cache.clear_results()
    oracle._TABLE_MEMO.clear()
    columnar._ANALYSES.clear()


def measure():
    """Warm a private trace cache, then time the five pass kinds."""
    saved = {key: os.environ.get(key)
             for key in (trace_cache.ENV_DIR, trace_cache.ENV_DISABLE,
                         columnar.ENV_ENGINE)}
    os.environ.pop(trace_cache.ENV_DISABLE, None)
    with tempfile.TemporaryDirectory(prefix="nsf-bench-e2e-") as tmp:
        os.environ[trace_cache.ENV_DIR] = tmp
        trace_cache._memo.clear()
        try:
            _, reference, _ = _sweep("event")  # records every trace
            reference = {name: table.to_dict()
                         for name, table in reference.items()}

            def event_pass():
                trace_cache.clear_results()
                return _sweep("event")

            def event_cold_pass():
                return _sweep("event",
                              before_figure=trace_cache.clear_results)

            def oracle_pass():
                _clear_oracle_memos()
                return _sweep("oracle")

            def restored_pass():
                _sweep("event")  # publishes what a dropping pass left out
                return _sweep("event")

            def oracle_restored_pass():
                # the oracle's own entries, not the event passes'
                _clear_oracle_memos()
                _sweep("oracle")
                oracle._TABLE_MEMO.clear()
                columnar._ANALYSES.clear()
                return _sweep("oracle")

            kinds = {"event": event_pass, "event_cold": event_cold_pass,
                     "oracle": oracle_pass, "restored": restored_pass,
                     "oracle_restored": oracle_restored_pass}
            best = {kind: float("inf") for kind in kinds}
            replays = {}
            for _ in range(REPEATS):
                for kind, run in kinds.items():
                    elapsed, tables, replays[kind] = run()
                    for name, table in tables.items():
                        assert table.to_dict() == reference[name], \
                            f"{kind} pass deviates from event on {name}"
                    best[kind] = min(best[kind], elapsed)
        finally:
            trace_cache._memo.clear()
            _clear_oracle_memos()
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
    return {
        "figures": list(SWEEPS),
        "scale": SCALE,
        "seed": SEED,
        "event_s": round(best["event"], 4),
        "event_cold_s": round(best["event_cold"], 4),
        "oracle_s": round(best["oracle"], 4),
        "restored_s": round(best["restored"], 4),
        "oracle_restored_s": round(best["oracle_restored"], 4),
        "event_replays": replays["event"],
        "event_cold_replays": replays["event_cold"],
        "oracle_published": replays["oracle"],
        "memo_speedup": round(best["event_cold"] / best["event"], 2),
        "oracle_speedup": round(best["event"] / best["oracle"], 2),
    }


def report(results, stream=sys.stdout):
    stream.write(
        f"e2e fig09-fig14 (scale {results['scale']}, seed "
        f"{results['seed']}, warm cache): event {results['event_s']}s "
        f"({results['event_replays']} replays and runs), entries dropped "
        f"per figure {results['event_cold_s']}s "
        f"({results['event_cold_replays']} replays and runs), oracle "
        f"{results['oracle_s']}s "
        f"({results['oracle_published']} entries published), restored "
        f"{results['restored_s']}s, oracle restored "
        f"{results['oracle_restored_s']}s (not gated)\n")


def check(results, baseline, stream=sys.stdout):
    """True when both ratios hold their floors."""
    ok = True
    for name, floor in (("memo_speedup", MIN_MEMO_SPEEDUP),
                        ("oracle_speedup", MIN_ORACLE_SPEEDUP)):
        got = results[name]
        verdict = "ok" if got >= floor else "REGRESSION"
        ok = ok and got >= floor
        stream.write(f"check e2e.{name}: {got:.2f}x (baseline "
                     f"{baseline[name]:.2f}x, floor {floor:.2f}x) "
                     f"{verdict}\n")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time the fig09-fig14 sweeps end to end under the "
                    "event engine (result entries dropped per pass and "
                    "per figure) and the oracle, gating against "
                    "BENCH_baseline.json.")
    parser.add_argument("--write-baseline", action="store_true",
                        help="measure and refresh the e2e key")
    parser.add_argument("--check", action="store_true",
                        help="measure and fail on regression")
    args = parser.parse_args(argv)

    results = measure()
    report(results)

    if args.write_baseline:
        merged = (json.loads(BASELINE_PATH.read_text())
                  if BASELINE_PATH.exists() else {})
        merged[BASELINE_KEY] = results
        BASELINE_PATH.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"baseline key {BASELINE_KEY!r} written to {BASELINE_PATH}")
        return 0
    if args.check:
        baseline = (json.loads(BASELINE_PATH.read_text())
                    if BASELINE_PATH.exists() else {})
        if BASELINE_KEY not in baseline:
            print(f"no {BASELINE_KEY!r} key in BENCH_baseline.json; "
                  "run --write-baseline first", file=sys.stderr)
            return 2
        if not check(results, baseline[BASELINE_KEY]):
            # one re-measure damps background-load flake before failing
            results = measure()
            report(results)
            if not check(results, baseline[BASELINE_KEY]):
                print("perf regression vs BENCH_baseline.json",
                      file=sys.stderr)
                return 1
        print("bench-check ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
