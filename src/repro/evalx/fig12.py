"""Figure 12: register reload traffic vs register file size.

The same 2-10 frame sweep as Figure 11, reporting registers reloaded as
a percentage of instructions.  The paper: the smallest NSF reloads an
order of magnitude less than any practical segmented file on sequential
code; on parallel code the NSF reloads 5-6x less than a comparable
segmented file and less than one twice its size.
"""

from repro.evalx.common import (
    REPRESENTATIVE_PARALLEL,
    REPRESENTATIVE_SEQUENTIAL,
)
from repro.evalx.fig11 import sweep_pairs
from repro.evalx.tables import ExperimentTable
from repro.workloads import get_workload


def run(scale=1.0, seed=1):
    table = ExperimentTable(
        experiment="Figure 12",
        title="Registers reloaded (% of instructions) vs file size",
        headers=["Frames", "Seq NSF %", "Seq Segment %", "Par NSF %",
                 "Par Segment %"],
        notes="frame = 20 registers (sequential) or 32 (parallel); "
              f"apps: {REPRESENTATIVE_SEQUENTIAL} / "
              f"{REPRESENTATIVE_PARALLEL}",
    )
    seq = get_workload(REPRESENTATIVE_SEQUENTIAL)
    par = get_workload(REPRESENTATIVE_PARALLEL)
    for frames, (seq_nsf, seq_seg), (par_nsf, par_seg) in sweep_pairs(
            seq, par, scale, seed):
        table.add_row(
            frames,
            round(100 * seq_nsf.reloads_per_instruction, 4),
            round(100 * seq_seg.reloads_per_instruction, 4),
            round(100 * par_nsf.reloads_per_instruction, 4),
            round(100 * par_seg.reloads_per_instruction, 4),
        )
    return table
