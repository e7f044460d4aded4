"""Table 1: characteristics of the benchmark programs.

The paper reports, per benchmark: source lines, static instructions of
the translated program, instructions executed by the simulator, and the
average number of instructions between context switches.  We measure
the same quantities over our implementations (see DESIGN.md for the
static-metric substitution).
"""

from repro.evalx.common import (
    PAR_REGISTERS,
    SEQ_REGISTERS,
    capacity_plan,
    make_nsf,
    run_cells,
    run_workload,
)
from repro.evalx.tables import ExperimentTable
from repro.workloads import ALL_WORKLOADS, get_workload


def table_skeleton(scale=1.0, seed=1):
    return ExperimentTable(
        experiment="Table 1",
        title="Characteristics of benchmark programs",
        headers=["Benchmark", "Type", "Source lines", "Static instr",
                 "Instructions executed", "Avg instr per switch"],
        notes="static instr = Python bytecode of the benchmark module; "
              "executed instr at harness scale "
              f"{scale} (the paper ran full-size inputs)",
    )


def cell_keys():
    """One independent cell per benchmark, in table order."""
    return [workload_cls.name for workload_cls in ALL_WORKLOADS]


#: the default register budgets the cells run at: the rows read only
#: statistics off fresh models, so under ``--engine oracle`` the closed
#: form or the design-space tables serve them
PLAN = (SEQ_REGISTERS, PAR_REGISTERS)


def run_cell_rows(key, scale=1.0, seed=1):
    workload = get_workload(key)
    nsf = make_nsf(workload)
    with capacity_plan(PLAN):
        run_workload(workload, nsf, scale=scale, seed=seed)
    return _rows(workload, nsf)


def _rows(workload, nsf):
    """The cell's rows, read off its driven NSF."""
    static = workload.static_metrics()
    stats = nsf.stats
    return [[
        workload.name,
        workload.kind.capitalize(),
        static["source_lines"],
        static["static_instructions"],
        stats.instructions,
        round(stats.instructions_per_switch, 1),
    ]]


def run(scale=1.0, seed=1):
    table = table_skeleton(scale=scale, seed=seed)
    cells = [(workload, make_nsf(workload))
             for workload in map(get_workload, cell_keys())]
    with capacity_plan(PLAN):
        run_cells(cells, scale=scale, seed=seed)
    for workload, nsf in cells:
        for row in _rows(workload, nsf):
            table.add_row(*row)
    return table
