"""Experiment harness: one module per table/figure of the paper.

Experiment modules are imported **lazily**: importing ``repro.evalx``
(which every sweep-cell subprocess does, via the runner) must not
pay for all sixteen table/figure modules and the workload stack
behind them when it will only ever run one.  The
registry maps names to thin loaders, and submodule attribute access
(``repro.evalx.table1`` et al.) resolves through PEP 562
``__getattr__`` on demand.  ``from repro.evalx import table1`` keeps
working unchanged — the import system falls back to the submodule
import when the attribute is not yet bound.
"""

import importlib

from repro.evalx.tables import ExperimentTable

_EXPERIMENT_NAMES = (
    "table1",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "claims",
    "chaos",
    "compression",
    "profile",
    "resilience",
)

#: non-experiment submodules also resolvable lazily as attributes
_SUBMODULES = _EXPERIMENT_NAMES + (
    "common", "golden", "journal", "report", "runner", "tables",
)


def _loader(name):
    def run(scale=1.0, seed=1):
        module = importlib.import_module(f"repro.evalx.{name}")
        return module.run(scale=scale, seed=seed)

    run.__name__ = f"run_{name}"
    run.__qualname__ = f"run_{name}"
    return run


#: registry of every reproducible table and figure
EXPERIMENTS = {name: _loader(name) for name in _EXPERIMENT_NAMES}


def run_experiment(name, scale=1.0, seed=1):
    """Run one experiment by registry name; returns an ExperimentTable."""
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; expected one of "
            f"{sorted(EXPERIMENTS)}"
        ) from None
    return runner(scale=scale, seed=seed)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"repro.evalx.{name}")
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))


__all__ = ["EXPERIMENTS", "ExperimentTable", "run_experiment"]
