"""Figure 14: register spill/reload overhead as % of execution time.

Aggregates every sequential benchmark ("Serial") and every parallel
benchmark ("Parallel"), prices the recorded events under three cost
models — the NSF, a segmented file with hardware-assisted spilling, and
a segmented file using software trap handlers — and reports overhead as
a fraction of total cycles, plus the NSF's end-to-end speedup over each
segmented variant (§8: the paper reports 9-18% sequential and 17-35%
parallel speedups).

All register files hold 128 registers, as in the paper's Figure 14.
"""

from repro.core import (
    NSF_COSTS,
    SEGMENT_HW_COSTS,
    SEGMENT_SW_COSTS,
    speedup,
)
from repro.evalx.common import capacity_plan, run_pair_totals
from repro.evalx.tables import ExperimentTable
from repro.workloads import PARALLEL_WORKLOADS, SEQUENTIAL_WORKLOADS

FIG14_REGISTERS = 128


def run(scale=1.0, seed=1):
    table = ExperimentTable(
        experiment="Figure 14",
        title="Register spill/reload overhead as % of execution time",
        headers=["Workload class", "NSF %", "Segment HW %",
                 "Segment SW %", "NSF speedup vs HW %",
                 "NSF speedup vs SW %"],
        notes="paper: serial 0.01 / 8.5 / 15.5; parallel 12.1 / 26.7 / "
              "38.1; all files hold 128 registers",
    )
    groups = (("Serial", SEQUENTIAL_WORKLOADS),
              ("Parallel", PARALLEL_WORKLOADS))
    with capacity_plan((FIG14_REGISTERS,)):
        totals = run_pair_totals(
            [[(cls(), FIG14_REGISTERS) for cls in classes]
             for _, classes in groups], scale=scale, seed=seed)
    for (label, _), (nsf, seg) in zip(groups, totals):
        nsf_cycles = NSF_COSTS.total_cycles(nsf)
        hw_cycles = SEGMENT_HW_COSTS.total_cycles(seg)
        sw_cycles = SEGMENT_SW_COSTS.total_cycles(seg)
        table.add_row(
            label,
            round(100 * NSF_COSTS.overhead_fraction(nsf), 2),
            round(100 * SEGMENT_HW_COSTS.overhead_fraction(seg), 2),
            round(100 * SEGMENT_SW_COSTS.overhead_fraction(seg), 2),
            round(speedup(hw_cycles, nsf_cycles), 1),
            round(speedup(sw_cycles, nsf_cycles), 1),
        )
    return table
