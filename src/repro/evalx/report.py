"""Run every experiment and render a combined report.

``python -m repro.evalx`` prints all tables; ``python -m repro.evalx
fig10`` (or ``--experiment fig10``) runs one; ``--scale`` trades
fidelity for speed.
"""

import argparse
import time

from repro.evalx import EXPERIMENTS, run_experiment


def run_all(scale=1.0, seed=1, stream=None):
    """Run every registered experiment; returns {name: ExperimentTable}."""
    results = {}
    for name in EXPERIMENTS:
        start = time.time()
        table = run_experiment(name, scale=scale, seed=seed)
        results[name] = table
        if stream is not None:
            stream.write(table.render())
            stream.write(f"\n[{name} in {time.time() - start:.1f}s]\n\n")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument("name", nargs="?", choices=sorted(EXPERIMENTS),
                        metavar="experiment",
                        help="run a single experiment (positional form)")
    parser.add_argument("--experiment", choices=sorted(EXPERIMENTS),
                        help="run a single experiment")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--format", choices=["table", "csv", "markdown"],
                        default="table")
    parser.add_argument("--charts", action="store_true",
                        help="render ASCII charts for figure experiments")
    parser.add_argument("--write-goldens", action="store_true",
                        help="lock every experiment's current results")
    parser.add_argument("--check-goldens", action="store_true",
                        help="verify results match the locked goldens")
    parser.add_argument("--check", action="store_true",
                        help="verify one experiment against its golden "
                             "(requires an experiment name)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="run as a crash-safe journalled sweep, "
                             "writing cell results to PATH")
    parser.add_argument("--resume", action="store_true",
                        help="resume a journalled sweep, skipping "
                             "completed cells")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock watchdog per sweep cell "
                             "(seconds; implies the journalled runner)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="where the journalled sweep writes its "
                             "final table (JSON)")
    parser.add_argument("--no-trace-cache", action="store_true",
                        help="execute workload front-ends directly "
                             "instead of replaying cached traces")
    args = parser.parse_args(argv)
    if args.no_trace_cache:
        import os

        from repro.trace import cache as trace_cache

        # via the environment so journalled cell subprocesses inherit it
        os.environ[trace_cache.ENV_DISABLE] = "1"
    if args.name:
        if args.experiment and args.experiment != args.name:
            parser.error("give the experiment either positionally or via "
                         "--experiment, not both")
        args.experiment = args.name

    import sys
    if (args.journal is not None or args.resume
            or args.timeout is not None or args.out is not None):
        if not args.experiment:
            parser.error("--journal/--resume/--timeout/--out need an "
                         "experiment name")
        from repro.evalx.runner import run_sweep

        result = run_sweep(
            args.experiment, scale=args.scale, seed=args.seed,
            journal_path=args.journal, out_path=args.out,
            resume=args.resume, timeout=args.timeout,
            check=args.check, stream=sys.stdout,
        )
        if result.table is not None:
            print(result.table.render())
        return 0 if result.ok else 1
    if args.check:
        if not args.experiment:
            parser.error("--check needs an experiment name")
        from repro.evalx.golden import compare_golden
        deviations = compare_golden(args.experiment)
        if deviations:
            for deviation in deviations:
                print(f"DEVIATION: {deviation}")
            return 1
        print(f"{args.experiment} matches its golden")
        return 0
    if args.write_goldens:
        from repro.evalx.golden import write_goldens
        for path in write_goldens():
            print(f"wrote {path}")
        return 0
    if args.check_goldens:
        from repro.evalx.golden import compare_goldens
        deviations = compare_goldens()
        if deviations:
            for deviation in deviations:
                print(f"DEVIATION: {deviation}")
            return 1
        from repro.evalx.common import FANOUT

        print(f"all experiments match their goldens; {FANOUT.summary()}")
        return 0
    renderers = {
        "table": lambda t: t.render(),
        "csv": lambda t: t.to_csv(),
        "markdown": lambda t: t.to_markdown(),
    }
    render = renderers[args.format]
    if args.experiment:
        table = run_experiment(args.experiment, scale=args.scale,
                               seed=args.seed)
        print(render(table))
        if args.charts:
            from repro.evalx.charts import chart_for
            chart = chart_for(table)
            if chart:
                print()
                print(chart)
    elif args.format in ("csv", "markdown"):
        for name in EXPERIMENTS:
            table = run_experiment(name, scale=args.scale, seed=args.seed)
            if args.format == "csv":
                print(f"# {table.experiment}: {table.title}")
            print(render(table))
    else:
        run_all(scale=args.scale, seed=args.seed, stream=sys.stdout)
    return 0
