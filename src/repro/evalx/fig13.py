"""Figure 13: register reload traffic vs NSF line size.

Sweeps the NSF line size and measures, from a single simulation per
point, the traffic of the three miss-handling strategies the paper
compares:

* **Reload** — reload the entire missing line (counts every slot);
* **Live reload** — reload only registers holding valid data;
* **Active reload** — registers that are referenced again while the
  line is resident (the traffic of per-register demand reloading).

The paper's conclusion: single-register lines with per-register valid
bits dominate; large lines approach segmented-file behaviour.

These cells use line-scope reloads with fetch-on-write, which sit
outside the oracle's exactness boundary (neither its closed form nor
its design-space tables price them), so no
:func:`~repro.evalx.common.capacity_plan` is declared here and under
``--engine oracle`` every cell takes the memoized event replay.
"""

from repro.evalx.common import (
    REPRESENTATIVE_PARALLEL,
    REPRESENTATIVE_SEQUENTIAL,
    make_nsf,
    run_cells,
)
from repro.evalx.tables import ExperimentTable
from repro.workloads import get_workload

#: line sizes must divide the file size (80 sequential, 128 parallel)
SEQ_LINE_SIZES = (1, 2, 4, 5, 10, 20)
PAR_LINE_SIZES = (1, 2, 4, 8, 16, 32)


def run(scale=1.0, seed=1):
    table = ExperimentTable(
        experiment="Figure 13",
        title="Registers reloaded (% of instructions) vs line size",
        headers=["Type", "Regs/line", "Reload %", "Live reload %",
                 "Active reload %"],
        notes="one simulation per point measures all three strategies; "
              f"apps: {REPRESENTATIVE_SEQUENTIAL} / "
              f"{REPRESENTATIVE_PARALLEL}",
    )
    cases = [
        ("Sequential", get_workload(REPRESENTATIVE_SEQUENTIAL),
         SEQ_LINE_SIZES),
        ("Parallel", get_workload(REPRESENTATIVE_PARALLEL),
         PAR_LINE_SIZES),
    ]
    # Strategy A semantics: any miss (read or write) brings the whole
    # line back; curves B and C are counted from the same simulation.
    cells = [(kind, line_size, workload,
              make_nsf(workload, line_size=line_size, reload_scope="line",
                       fetch_on_write=True))
             for kind, workload, line_sizes in cases
             for line_size in line_sizes]
    run_cells([(workload, nsf) for *_, workload, nsf in cells],
              scale=scale, seed=seed)
    for kind, line_size, _, nsf in cells:
        stats = nsf.stats
        instructions = stats.instructions or 1
        table.add_row(
            kind,
            line_size,
            round(100 * stats.lines_reloaded * line_size
                  / instructions, 4),
            round(100 * stats.live_registers_reloaded
                  / instructions, 4),
            round(100 * stats.active_registers_reloaded
                  / instructions, 4),
        )
    return table
