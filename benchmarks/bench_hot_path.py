"""Hot-path benchmark and perf-regression gate for the access fast path.

Two measurements, both comparing the allocation-free fast path against
the legacy tracked path *on the same machine in the same process*.  The
tracked twin is built the way the models' subclass-override guard
builds one, by clearing ``_fast_path`` on the instance (:func:`_twin`):

* ``micro``   — resident-hit read/write loops on the NSF (line sizes 1
  and 4) and the segmented file: the workload every simulated
  instruction pays for.
* ``table1``  — an end-to-end Table-1-style sweep: every workload run
  through the paper's default NSF.

Because both sides of each ratio run on the same box, the recorded
speedups are machine-independent and safe to gate on in CI.  Absolute
ops/sec numbers are recorded for human eyes only and never gated.

Usage::

    python benchmarks/bench_hot_path.py                  # print a report
    python benchmarks/bench_hot_path.py --write-baseline # refresh baseline
    python benchmarks/bench_hot_path.py --check          # CI gate

The gate passes when every measured speedup is at least its baseline
value divided by ``--tolerance`` (default 1.5x — generous on purpose:
this catches "someone reintroduced per-hit allocation", not noise).
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
from repro.workloads import ALL_WORKLOADS, get_workload

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

MICRO_OPS = 4000
MICRO_REPEATS = 5
TABLE1_SCALE = 0.2
TABLE1_SEED = 1
TOLERANCE = 1.5


def _best_times(fns, repeats):
    """Minimum wall time per function over ``repeats`` interleaved runs.

    Interleaving (fast, legacy, fast, legacy, ...) instead of timing
    each side in a block keeps slow drift in background load from
    landing entirely on one side of the ratio.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _twin(model, fast_path):
    """``model`` on the fast path, or switched to the tracked path."""
    if not fast_path:
        model._fast_path = False
    return model


def _resident_model(model_cls, fast_path, **kwargs):
    model = _twin(model_cls(num_registers=128, context_size=32, **kwargs),
                  fast_path)
    cid = model.begin_context()
    model.switch_to(cid)
    for i in range(8):
        model.write(i, i, cid=cid)
    return model, cid


def _hit_loop(model, cid, n=MICRO_OPS):
    write = model.write
    read = model.read
    for i in range(n):
        write(i % 8, i, cid=cid)
        read(i % 8, cid=cid)


MICRO_CASES = [
    ("nsf-line1", NamedStateRegisterFile, {"line_size": 1}),
    ("nsf-line4", NamedStateRegisterFile, {"line_size": 4}),
    ("segmented", SegmentedRegisterFile, {}),
]


def run_micro():
    results = {}
    for name, model_cls, kwargs in MICRO_CASES:
        loops = []
        models = []
        for fast in (True, False):
            model, cid = _resident_model(model_cls, fast, **kwargs)
            loops.append(lambda m=model, c=cid: _hit_loop(m, c))
            models.append(model)
        fast_t, legacy_t = _best_times(loops, MICRO_REPEATS)
        for model in models:
            if model.stats.read_misses:
                raise RuntimeError(f"{name}: hit loop missed")
        ops = 2 * MICRO_OPS
        results[name] = {
            "fast_ops_per_sec": round(ops / fast_t),
            "legacy_ops_per_sec": round(ops / legacy_t),
            "speedup": round(legacy_t / fast_t, 3),
        }
    return results


def _table1_pass(fast_path, scale, seed):
    for workload_cls in ALL_WORKLOADS:
        workload = get_workload(workload_cls.name)
        nsf = _twin(make_nsf(workload), fast_path)
        workload.run(nsf, scale=scale, seed=seed)


def run_table1(scale=TABLE1_SCALE, seed=TABLE1_SEED, repeats=5):
    fast_t, legacy_t = _best_times(
        [lambda: _table1_pass(True, scale, seed),
         lambda: _table1_pass(False, scale, seed)], repeats)
    return {
        "scale": scale,
        "fast_seconds": round(fast_t, 4),
        "legacy_seconds": round(legacy_t, 4),
        "speedup": round(legacy_t / fast_t, 3),
    }


def measure():
    return {"micro": run_micro(), "table1": run_table1()}


def report(results, stream=sys.stdout):
    for name, row in results["micro"].items():
        stream.write(
            f"micro/{name}: {row['fast_ops_per_sec']:,} ops/s fast vs "
            f"{row['legacy_ops_per_sec']:,} legacy "
            f"({row['speedup']:.2f}x)\n")
    t1 = results["table1"]
    stream.write(
        f"table1 sweep (scale={t1['scale']}): {t1['fast_seconds']}s fast "
        f"vs {t1['legacy_seconds']}s legacy ({t1['speedup']:.2f}x)\n")


def check(results, baseline, tolerance=TOLERANCE, stream=sys.stdout):
    """True when every speedup is within ``tolerance`` of its baseline."""
    ok = True
    for name, base_row in baseline["micro"].items():
        floor = base_row["speedup"] / tolerance
        got = results["micro"][name]["speedup"]
        verdict = "ok" if got >= floor else "REGRESSION"
        ok = ok and got >= floor
        stream.write(f"check micro/{name}: {got:.2f}x "
                     f"(baseline {base_row['speedup']:.2f}x, floor "
                     f"{floor:.2f}x) {verdict}\n")
    floor = baseline["table1"]["speedup"] / tolerance
    got = results["table1"]["speedup"]
    verdict = "ok" if got >= floor else "REGRESSION"
    ok = ok and got >= floor
    stream.write(f"check table1: {got:.2f}x (baseline "
                 f"{baseline['table1']['speedup']:.2f}x, floor "
                 f"{floor:.2f}x) {verdict}\n")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the access fast path vs the legacy "
                    "tracked path and gate against BENCH_baseline.json.")
    parser.add_argument("--write-baseline", action="store_true",
                        help="measure and overwrite BENCH_baseline.json")
    parser.add_argument("--check", action="store_true",
                        help="measure and fail on speedup regression")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed baseline/measured speedup ratio")
    args = parser.parse_args(argv)

    results = measure()
    report(results)

    if args.write_baseline:
        BASELINE_PATH.write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0
    if args.check:
        if not BASELINE_PATH.exists():
            print("no BENCH_baseline.json; run --write-baseline first",
                  file=sys.stderr)
            return 2
        baseline = json.loads(BASELINE_PATH.read_text())
        if not check(results, baseline, tolerance=args.tolerance):
            print("perf regression vs BENCH_baseline.json",
                  file=sys.stderr)
            return 1
        print("bench-check ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
