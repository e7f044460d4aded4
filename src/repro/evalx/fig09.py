"""Figure 9: percentage of registers containing active data.

Per application: maximum and average occupancy of the NSF, and average
occupancy of the equivalent segmented file (4 frames).  The paper finds
the NSF holds 2-3x more active data than the segmented file on
sequential code and 1.3-1.5x more on parallel code.
"""

from repro.evalx.common import (
    SEQ_REGISTERS,
    PAR_REGISTERS,
    capacity_plan,
    run_pairs,
)
from repro.evalx.tables import ExperimentTable
from repro.workloads import ALL_WORKLOADS


def run(scale=1.0, seed=1):
    table = ExperimentTable(
        experiment="Figure 9",
        title="Percentage of registers holding active data",
        headers=["Benchmark", "Type", "NSF max %", "NSF avg %",
                 "Segment avg %", "NSF/Segment"],
        notes="80 registers for sequential runs, 128 for parallel; "
              "segment = 4 frames, NSF line = 1 register",
    )
    workloads = [workload_cls() for workload_cls in ALL_WORKLOADS]
    with capacity_plan((SEQ_REGISTERS, PAR_REGISTERS)):
        pairs = run_pairs([(workload, None) for workload in workloads],
                          scale=scale, seed=seed)
    for workload, (nsf, seg) in zip(workloads, pairs):
        ratio = (nsf.utilization_avg / seg.utilization_avg
                 if seg.utilization_avg else float("inf"))
        table.add_row(
            workload.name,
            workload.kind.capitalize(),
            round(100 * nsf.utilization_max, 1),
            round(100 * nsf.utilization_avg, 1),
            round(100 * seg.utilization_avg, 1),
            round(ratio, 2),
        )
    return table
