"""One benchmark pass: a fresh interpreter runs one workload once.

Invoked by ``run.py`` (never by hand) with the trace cache, journal
directory and replay engine already set in the environment::

    python3 perfbench/onepass.py --workload W --seed N --workdir D \
        --result R.json [--spans S.json]

Writes ``R.json``: the per-operation outcomes, the pass's peak RSS
(maximum over this process and every cell subprocess it waited for),
and any counters the workload reports.  With ``--spans`` the layer
tracer is installed for the pass and its spans are written to ``S``.
"""

import argparse
import json
import os
import pathlib
import resource
import sys

import suites

CELLHOOK_DIR = pathlib.Path(__file__).resolve().parent / "cellhook"

#: set for runner cell subprocesses of a traced pass: where they write
#: their spans (read by ``cellhook/sitecustomize.py``)
ENV_CELL_SPANS = "PERFBENCH_CELL_SPANS"


def peak_rss_kib():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suites.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        import spans

        if args.workload == "runner":
            # cell subprocesses inherit this environment and trace
            # themselves through the cell hook
            os.environ[ENV_CELL_SPANS] = str(
                pathlib.Path(args.spans).with_suffix(".cells"))
            os.makedirs(os.environ[ENV_CELL_SPANS], exist_ok=True)
            os.environ["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(CELLHOOK_DIR),
                              os.environ.get("PYTHONPATH")]))
        tracer = spans.Tracer().install()
    try:
        outcomes, counters = suites.run(args.workload, args.seed,
                                        args.workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.spans)
    result = {
        "outcomes": outcomes,
        "counters": counters,
        "peak_rss_kib": peak_rss_kib(),
    }
    pathlib.Path(args.result).write_text(json.dumps(result),
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
