"""Design-space oracle grid benchmark and gate.

One committed contract under the ``oracle_grid`` key of
BENCH_baseline.json, a same-box ratio (machine-independent, safe to
gate in CI):

* ``grid_speedup`` — a fig09..fig14-style design-space grid (the
  families the tables serve: NSF with one-register lines plus
  segmented {frame, live}, all with LRU victims, each over a capacity
  sweep straddling the trace's peak demand) evaluated end to end two
  ways: every cell through
  :func:`repro.trace.oracle.serve_from_tables` (the closed form at or
  above the peak, one shared scan per design family and an O(1) table
  apply per cell below it) vs every cell through event replay
  (:func:`repro.trace.replay.replay` with ``verify=False``, the
  reference the oracle answers to).  The oracle grid must come in
  **>= 5x** faster — the "whole design space for a few passes"
  contract.

Every oracle-served cell is checked (outside the timed region) to be
snapshot-identical to the per-cell replay before anything is timed —
a fast wrong answer is not a speedup.

Usage::

    python benchmarks/bench_oracle_grid.py                  # report
    python benchmarks/bench_oracle_grid.py --write-baseline # refresh
    python benchmarks/bench_oracle_grid.py --check          # CI gate

``--write-baseline`` merges only the ``oracle_grid`` key and leaves
every other benchmark's key untouched.
"""

import argparse
import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import NamedStateRegisterFile, SegmentedRegisterFile
from repro.evalx.common import make_nsf
from repro.trace import TracingRegisterFile, columnar, oracle, replay
from repro.workloads.compiled import CompiledSuite

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

SEED = 11
REPEATS = 3
TOLERANCE = 1.5

#: hard floor independent of the recorded baseline
MIN_GRID_SPEEDUP = 5.0

#: frames of context per capacity point (registers = frames x context
#: size), straddling the compiled trace's peak demand
FRAME_SWEEP = (1, 2, 3, 4, 6, 8)
SEG_MODES = ("frame", "live")


def _best_times(fns, repeats=REPEATS):
    """Minimum wall time per function over ``repeats`` interleaved runs
    (interleaved so background-load drift lands on both sides)."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _record():
    workload = CompiledSuite()
    tracer = TracingRegisterFile(make_nsf(workload))
    workload.run(tracer, scale=1.0, seed=SEED)
    return tracer.trace


def _grid(ctx):
    """(register budgets, cell descriptors) for the design-space grid."""
    budgets = tuple(frames * ctx for frames in FRAME_SWEEP)
    cells = [("nsf", None, budget) for budget in budgets]
    for spill_mode in SEG_MODES:
        cells.extend(("seg", spill_mode, budget) for budget in budgets)
    return budgets, cells


def _build(cell, ctx):
    kind, spill_mode, budget = cell
    if kind == "nsf":
        return NamedStateRegisterFile(num_registers=budget,
                                      context_size=ctx)
    return SegmentedRegisterFile(num_registers=budget, context_size=ctx,
                                 spill_mode=spill_mode)


def _snapshot(model):
    snap = dict(vars(model.stats))
    snap["words_loaded"] = model.backing.words_loaded
    snap["words_stored"] = model.backing.words_stored
    return snap


def run_grid(trace):
    ctx = trace.context_size
    budgets, cells = _grid(ctx)

    # correctness first: every oracle-served cell must be
    # snapshot-identical to the per-cell replay it replaces
    oracle._TABLE_MEMO.clear()
    columnar._ANALYSES.clear()
    for cell in cells:
        served = _build(cell, ctx)
        assert oracle.serve_from_tables(trace, served, budgets), \
            f"grid cell fell out of the oracle regime: {cell}"
        replayed = replay(trace, _build(cell, ctx), verify=False)
        assert _snapshot(served) == _snapshot(replayed), \
            f"oracle snapshot deviates from replay: {cell}"

    def oracle_pass():
        oracle._TABLE_MEMO.clear()
        columnar._ANALYSES.clear()
        for cell in cells:
            oracle.serve_from_tables(trace, _build(cell, ctx), budgets)

    def replay_pass():
        for cell in cells:
            replay(trace, _build(cell, ctx), verify=False)

    oracle_t, replay_t = _best_times([oracle_pass, replay_pass])
    return {
        "workload": "CompiledSuite",
        "events": len(trace),
        "cells": len(cells),
        "families": 1 + len(SEG_MODES),
        "budgets": list(budgets),
        "oracle_grid_ms": round(oracle_t * 1e3, 3),
        "per_cell_replay_ms": round(replay_t * 1e3, 3),
        "grid_speedup": round(replay_t / oracle_t, 2),
    }


def measure():
    return {"oracle_grid": {"grid": run_grid(_record())}}


def report(results, stream=sys.stdout):
    grid = results["oracle_grid"]["grid"]
    stream.write(
        f"oracle-grid: {grid['cells']} cells / {grid['families']} "
        f"families over {grid['events']:,} events — tables "
        f"{grid['oracle_grid_ms']}ms vs per-cell replay "
        f"{grid['per_cell_replay_ms']}ms "
        f"({grid['grid_speedup']:.1f}x)\n")


def check(results, baseline, tolerance=TOLERANCE, stream=sys.stdout):
    """True when the grid holds its floor: the hard 5x or
    ``baseline / tolerance``, whichever is higher."""
    base = baseline["oracle_grid"]["grid"]["grid_speedup"]
    floor = max(MIN_GRID_SPEEDUP, base / tolerance)
    got = results["oracle_grid"]["grid"]["grid_speedup"]
    verdict = "ok" if got >= floor else "REGRESSION"
    stream.write(f"check oracle-grid.grid_speedup: {got:.1f}x "
                 f"(baseline {base:.1f}x, floor {floor:.1f}x) "
                 f"{verdict}\n")
    return got >= floor


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the design-space oracle grid against "
                    "per-cell replay, gating against "
                    "BENCH_baseline.json.")
    parser.add_argument("--write-baseline", action="store_true",
                        help="measure and refresh the oracle_grid key")
    parser.add_argument("--check", action="store_true",
                        help="measure and fail on regression")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed baseline/measured ratio drift")
    args = parser.parse_args(argv)

    results = measure()
    report(results)

    if args.write_baseline:
        merged = (json.loads(BASELINE_PATH.read_text())
                  if BASELINE_PATH.exists() else {})
        merged.update(results)
        BASELINE_PATH.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"baseline key 'oracle_grid' written to {BASELINE_PATH}")
        return 0
    if args.check:
        baseline = (json.loads(BASELINE_PATH.read_text())
                    if BASELINE_PATH.exists() else {})
        if "oracle_grid" not in baseline:
            print("no 'oracle_grid' key in BENCH_baseline.json; run "
                  "--write-baseline first", file=sys.stderr)
            return 2
        if not check(results, baseline, tolerance=args.tolerance):
            print("perf regression vs BENCH_baseline.json",
                  file=sys.stderr)
            return 1
        print("bench-check ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
