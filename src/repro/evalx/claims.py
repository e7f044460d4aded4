"""Section-9 conclusions: every bullet of the paper, checked.

The paper closes with six quantitative claims.  This experiment runs
the measurements behind each one and reports claim / paper value /
measured value / verdict, so the reproduction's fidelity is itself a
regenerable table.
"""

from repro.core import (
    NSF_COSTS,
    SEGMENT_HW_COSTS,
    speedup,
)
from repro.evalx.common import (
    PAR_REGISTERS,
    SEQ_REGISTERS,
    capacity_plan,
    run_pair_totals,
)
from repro.evalx.tables import ExperimentTable
from repro.hw import (
    access_time_penalty,
    area_ratio,
    paper_geometries,
    processor_area_increase,
)
from repro.workloads import PARALLEL_WORKLOADS, SEQUENTIAL_WORKLOADS


def run(scale=1.0, seed=1):
    table = ExperimentTable(
        experiment="Conclusions",
        title="Section 9 claims: paper vs this reproduction",
        headers=["Claim", "Paper", "Measured", "Holds"],
        notes="'Holds' verifies the claim's direction/shape, not the "
              "absolute value",
    )
    # each class at its default budget, and the sequential one at Fig
    # 14's 128 registers for claim 4; only statistics are read off the
    # fresh models, so the oracle engine may serve them from its tables
    with capacity_plan((SEQ_REGISTERS, PAR_REGISTERS)):
        (seq_nsf, seq_seg), (par_nsf, par_seg), (seq_nsf128, seq_seg128) = (
            run_pair_totals([[(cls(), budget) for cls in classes]
                             for classes, budget in (
                                 (SEQUENTIAL_WORKLOADS, None),
                                 (PARALLEL_WORKLOADS, None),
                                 (SEQUENTIAL_WORKLOADS, 128))],
                            scale=scale, seed=seed))

    # 1. More active data than a same-size conventional file.
    seq_gain = (seq_nsf.utilization_avg / seq_seg.utilization_avg - 1
                if seq_seg.utilization_avg else float("inf"))
    par_gain = (par_nsf.utilization_avg / par_seg.utilization_avg - 1
                if par_seg.utilization_avg else float("inf"))
    gain_low = min(seq_gain, par_gain)
    gain_high = max(seq_gain, par_gain)
    table.add_row(
        "holds 30%-200% more active data",
        "+30% .. +200%",
        f"+{100 * gain_low:.0f}% .. +{100 * gain_high:.0f}%",
        "yes" if gain_low > 0.2 else "NO",
    )

    # 2. More concurrent contexts.
    ctx_seq = (seq_nsf.avg_resident_contexts
               / max(1e-9, seq_seg.avg_resident_contexts))
    ctx_par = (par_nsf.avg_resident_contexts
               / max(1e-9, par_seg.avg_resident_contexts))
    table.add_row(
        "holds 2x the call frames (seq), +20% contexts (par)",
        "2x / 1.2x",
        f"{ctx_seq:.1f}x / {ctx_par:.1f}x",
        "yes" if ctx_seq > 1.5 and ctx_par > 1.1 else "NO",
    )

    # 3. Spill/reload traffic reduction.
    seq_rate = (seq_nsf.reloads_per_instruction
                / max(1e-12, seq_seg.reloads_per_instruction))
    par_rate = (par_nsf.reloads_per_instruction
                / max(1e-12, par_seg.reloads_per_instruction))
    table.add_row(
        "spills at 1e-4 the rate (seq), 10% (par)",
        "1e-4 / 0.10",
        f"{seq_rate:.1e} / {par_rate:.2f}",
        "yes" if seq_rate < 1e-3 and par_rate < 0.35 else "NO",
    )

    # 4. Execution speedup (vs hardware-assisted segmented, Fig 14).
    seq_speed = speedup(SEGMENT_HW_COSTS.total_cycles(seq_seg128),
                        NSF_COSTS.total_cycles(seq_nsf128))
    par_speed = speedup(SEGMENT_HW_COSTS.total_cycles(par_seg),
                        NSF_COSTS.total_cycles(par_nsf))
    table.add_row(
        "speeds execution 9-18% (seq), 17-35% (par)",
        "9-18% / 17-35%",
        f"{seq_speed:.0f}% / {par_speed:.0f}%",
        "yes" if seq_speed > 5 and par_speed > 10 else "NO",
    )

    # 5. Access time.
    penalties = [
        access_time_penalty(nsf, seg)
        for nsf, seg in zip(paper_geometries("nsf"),
                            paper_geometries("segmented"))
    ]
    table.add_row(
        "access time only ~5% greater",
        "+5-6%",
        f"+{100 * min(penalties):.1f}% .. +{100 * max(penalties):.1f}%",
        "yes" if max(penalties) < 0.09 else "NO",
    )

    # 6. Area.
    ratios3 = [
        area_ratio(nsf, seg) - 1
        for nsf, seg in zip(paper_geometries("nsf"),
                            paper_geometries("segmented"))
    ]
    ratios6 = [
        area_ratio(nsf, seg) - 1
        for nsf, seg in zip(paper_geometries("nsf", 4, 2),
                            paper_geometries("segmented", 4, 2))
    ]
    chip = processor_area_increase(paper_geometries("nsf")[0],
                                   paper_geometries("segmented")[0])
    spread = ratios3 + ratios6
    table.add_row(
        "16-50% more file area = 1-5% of a processor",
        "+16-50% file / +1-5% chip",
        f"+{100 * min(spread):.0f}-{100 * max(spread):.0f}% file / "
        f"+{100 * chip:.1f}% chip",
        "yes" if 0.10 < min(spread) and max(spread) < 0.60 else "NO",
    )
    return table
