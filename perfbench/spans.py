"""In-memory span tracer wrapped around the program's layer entry points.

Nothing under ``src/`` is instrumented.  :meth:`Tracer.install` replaces
each entry point with a timing wrapper *where its caller looks it up*:
``repro.evalx.common`` binds ``replay``, ``replay_oracle`` and
``serve_from_tables`` at import, and ``table1``, ``compression`` and
``fig13`` import ``run_workload`` by name, so every loaded module that
holds the original function under the same name gets the wrapper.
Modules imported later copy the wrapper from the module they import it
from.  :meth:`Tracer.uninstall` restores every original binding.

A span is ``[id, parent, name, start_ns, end_ns, cell, attrs]``.  All
spans of one cell share a cell id: in-process the root span of a cell
is ``run_workload``; under the journalled runner it is ``watched_run``,
and the cell subprocess tags its own spans with the same id (see
``cellhook/sitecustomize.py``).  Spans stay in memory until
:meth:`Tracer.dump`.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time

#: (module, attribute, span name) of every wrapped module-level function
FUNCTIONS = (
    ("repro.evalx", "run_experiment", "evalx.run_experiment"),
    ("repro.evalx.common", "run_workload", "run_workload"),
    ("repro.evalx.common", "replay", "replay"),
    ("repro.evalx.common", "serve_from_tables", "oracle.serve"),
    ("repro.evalx.common", "replay_oracle", "oracle.fallback"),
    ("repro.trace.oracle", "_family_tables", "oracle.scan"),
    ("repro.trace.cache", "_lookup", "cache.load"),
    ("repro.trace.cache", "record_trace", "cache.record"),
    ("repro.trace.cache", "record_through", "cache.record"),
    ("repro.evalx.runner", "watched_run", "runner.cell"),
)

#: (module, class, method, span name) of every wrapped method
METHODS = (
    ("repro.workloads.base", "Workload", "run", "workloads.run"),
    ("repro.workloads.compiled", "CompiledSuite", "run", "workloads.run"),
    ("repro.evalx.journal", "Journal", "append", "journal.append"),
)

#: span names whose first positional argument is a trace
_TRACE_SPANS = ("replay", "oracle.serve", "oracle.fallback")


def cell_id_of(command):
    """Cell id of a runner ``run-cell`` command line (or ``None``)."""
    command = list(command)
    if "run-cell" not in command:
        return None
    at = command.index("run-cell")
    attempt = "0"
    if "--attempt" in command:
        attempt = command[command.index("--attempt") + 1]
    return f"{command[at + 1]}/{command[at + 2]}/{attempt}"


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self, cell=None):
        #: fixed cell id for every span (a runner cell subprocess)
        self.cell = cell
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = [next(tracer._ids), parent[0] if parent else None, name,
                    0, 0, None, {}]
            if tracer.cell is not None:
                span[5] = tracer.cell
            elif name == "run_workload":
                span[5] = span[0]
            elif name == "runner.cell":
                span[5] = cell_id_of(args[0] if args
                                     else kwargs["command"])
            elif parent is not None:
                span[5] = parent[5]
            tracer._annotate(span, args, kwargs)
            stack.append(span)
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6]["error"] = type(exc).__name__
                raise
            else:
                tracer._conclude(span, result, stack)
                return result
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _annotate(self, span, args, kwargs):
        """Attributes known from the call's arguments."""
        name = span[2]
        attrs = span[6]
        if name == "evalx.run_experiment":
            attrs["experiment"] = args[0] if args else kwargs["name"]
        elif name in _TRACE_SPANS:
            attrs["events"] = len(args[0])

    def _conclude(self, span, result, stack):
        """Attributes known only once the wrapped call returned."""
        name = span[2]
        attrs = span[6]
        events = None
        if name == "oracle.serve":
            attrs["served"] = bool(result)
            if result:
                events = attrs["events"]
        elif name in ("replay", "oracle.fallback"):
            events = attrs["events"]
        elif name == "cache.record" and result is not None:
            events = len(result)
        if events is None:
            return
        # the register events this cell's model received
        for open_span in reversed(stack):
            if open_span[2] == "run_workload":
                open_span[6]["events"] = events
                break

    # -- installation ----------------------------------------------------

    def install(self, functions=FUNCTIONS, methods=METHODS):
        """Wrap every entry point; returns ``self``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name in functions:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original)
            for holder in list(sys.modules.values()):
                if (getattr(holder, "__name__", "").startswith("repro")
                        and holder.__dict__.get(attr) is original):
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        for module_name, class_name, attr, span_name in methods:
            owner = getattr(importlib.import_module(module_name),
                            class_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original))
        return self

    def uninstall(self):
        """Restore every original binding, newest first."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()

    def dump(self, path):
        """Write the recorded spans as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))

