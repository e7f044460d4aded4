"""Figure 11: average resident contexts vs register file size.

Sweeps the file size from 2 to 10 context-sized frames for the two
representative applications (GateSim sequential, Gamteb parallel) and
reports the average number of contexts resident in each organization.
The paper: an N-frame segmented file holds ~0.7N contexts; the NSF
holds ~0.8N for parallel code and more than 2N for sequential code.
"""

from repro.evalx.common import (
    REPRESENTATIVE_PARALLEL,
    REPRESENTATIVE_SEQUENTIAL,
    capacity_plan,
    run_pairs,
)
from repro.evalx.tables import ExperimentTable
from repro.workloads import get_workload

FRAME_SWEEP = range(2, 11)


def sweep_budgets(*workloads):
    """Every register budget the 2-10 frame sweep visits."""
    return [frames * w.context_size
            for w in workloads for frames in FRAME_SWEEP]


def sweep_pairs(seq, par, scale, seed):
    """``(frames, seq (nsf, seg) stats, par (nsf, seg) stats)`` per
    point of the 2-10 frame sweep, every cell in one batch."""
    with capacity_plan(sweep_budgets(seq, par)):
        pairs = run_pairs([(w, frames * w.context_size)
                           for frames in FRAME_SWEEP for w in (seq, par)],
                          scale=scale, seed=seed)
    return zip(FRAME_SWEEP, pairs[0::2], pairs[1::2])


def run(scale=1.0, seed=1):
    table = ExperimentTable(
        experiment="Figure 11",
        title="Average resident contexts vs register file size",
        headers=["Frames", "Seq NSF", "Seq Segment", "Par NSF",
                 "Par Segment"],
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
            round(seq_nsf.avg_resident_contexts, 2),
            round(seq_seg.avg_resident_contexts, 2),
            round(par_nsf.avg_resident_contexts, 2),
            round(par_seg.avg_resident_contexts, 2),
        )
    return table
