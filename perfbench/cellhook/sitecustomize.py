"""Traces a runner cell subprocess of a traced benchmark pass.

A traced ``runner`` pass puts this directory on the ``PYTHONPATH`` its
cell subprocesses inherit and names a span directory in
``PERFBENCH_CELL_SPANS``.  Each ``run-cell`` interpreter then installs
the layer tracer at start-up, tags every span with its cell id
(``experiment/key/attempt``, the id the parent's ``watched_run`` span
carries) and writes them to ``cell-<pid>.json`` when it exits.  Any
other interpreter that inherits the environment is left alone.
"""

import os
import sys

_SPAN_DIR = os.environ.get("PERFBENCH_CELL_SPANS")

if _SPAN_DIR and "run-cell" in sys.orig_argv:
    import atexit

    sys.path.insert(1, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import spans

    _tracer = spans.Tracer(cell=spans.cell_id_of(sys.orig_argv))
    # the runner module runs as __main__; importing it here as well
    # would make two copies of it, and the cell never calls it
    _tracer.install(functions=[entry for entry in spans.FUNCTIONS
                               if entry[0] != "repro.evalx.runner"])

    @atexit.register
    def _dump():
        _tracer.uninstall()
        _tracer.dump(os.path.join(_SPAN_DIR, f"cell-{os.getpid()}.json"))
