"""Figure 10: registers reloaded as a percentage of instructions.

Per application: reload traffic of the NSF, the segmented file, and the
valid-data-only subset of the segmented reloads ("Segment live reg").
The paper finds segmented files reload 1,000-10,000x more registers
than the NSF on sequential code and 10-40x more on parallel code.
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
        experiment="Figure 10",
        title="Registers reloaded as % of instructions executed",
        headers=["Benchmark", "Type", "NSF %", "Segment %",
                 "Segment live %", "Segment/NSF"],
        notes="log-scale figure in the paper; a 0 entry means the NSF "
              "held the entire working set",
    )
    workloads = [workload_cls() for workload_cls in ALL_WORKLOADS]
    with capacity_plan((SEQ_REGISTERS, PAR_REGISTERS)):
        pairs = run_pairs([(workload, None) for workload in workloads],
                          scale=scale, seed=seed)
    for workload, (nsf, seg) in zip(workloads, pairs):
        nsf_rate = nsf.reloads_per_instruction
        seg_rate = seg.reloads_per_instruction
        ratio = seg_rate / nsf_rate if nsf_rate else float("inf")
        table.add_row(
            workload.name,
            workload.kind.capitalize(),
            round(100 * nsf_rate, 4),
            round(100 * seg_rate, 4),
            round(100 * seg.live_reloads_per_instruction, 4),
            "inf" if ratio == float("inf") else round(ratio, 1),
        )
    return table
