"""Compressed spill path: on-wire bytes by codec, model and workload.

The paper's Figs 10 and 12 count *registers* moved; this experiment
adds the byte axis those figures hide.  Every model configuration runs
one representative sequential and one parallel workload with a
:class:`~repro.core.compress.CompressedSpillPort` on its spill path;
the port measures the identical traffic under every codec broadside
(primary ``raw``, the rest as shadows), so codec choice cannot perturb
the architectural results by construction.

The sweep crosses spill granularities that compress very differently:

* ``nsf-line1/2/4`` — NSF lines of 1, 2 and 4 registers (live
  registers only, the paper's preferred per-register strategy): short,
  dense units, little redundancy for intra-unit codecs at line size 1;
* ``seg-frame`` — whole segmented frames, dead slots included: long
  units padded with don't-care words that zero-elision strips;
* ``seg-live`` — segmented frames shipping valid registers only.

Models run at *half* the paper's register budget: at full size the NSF
absorbs a sequential working set entirely (Fig 10's near-zero traffic
result), leaving nothing on the wire to compress.  Halving the file
pressures the spill path in every cell while keeping the NSF-versus-
segmented comparison fair — both sides shrink alike.

CLI::

    python -m repro.evalx compression             # print the table
    python -m repro.evalx compression --check     # diff vs the golden
    python -m repro.evalx.compression --check     # golden + contract
"""

from repro.core.compress import CODEC_NAMES, compress_spills
from repro.evalx.common import (
    make_nsf,
    make_segmented,
    registers_for,
    run_cells,
    run_workload,
)
from repro.evalx.tables import ExperimentTable
from repro.workloads import get_workload

#: one representative per workload class, as in Figs 10-12
SWEEP_WORKLOADS = ("GateSim", "Gamteb")

#: spill granularities under comparison
MODEL_CONFIGS = (
    ("nsf-line1", {"kind": "nsf", "line_size": 1}),
    ("nsf-line2", {"kind": "nsf", "line_size": 2}),
    ("nsf-line4", {"kind": "nsf", "line_size": 4}),
    ("seg-frame", {"kind": "seg", "spill_mode": "frame"}),
    ("seg-live", {"kind": "seg", "spill_mode": "live"}),
)

CODEC_SWEEP = CODEC_NAMES


def build_model(config, workload):
    """One register-file model for a sweep configuration."""
    num_registers = registers_for(workload) // 2
    if config["kind"] == "nsf":
        return make_nsf(workload, num_registers=num_registers,
                        line_size=config["line_size"])
    return make_segmented(workload, num_registers=num_registers,
                          spill_mode=config["spill_mode"])


def _build_cell(key):
    """``(workload, model, port)`` of one sweep cell, not yet driven.

    The port measures every codec; the primary codec is ``raw`` so the
    model's own stats stay byte-identical to an uncompressed run.
    """
    workload_name, config_name = key.split("/", 1)
    workload = get_workload(workload_name)
    model = build_model(dict(MODEL_CONFIGS)[config_name], workload)
    port = compress_spills(
        model, codec="raw",
        shadow_codecs=[c for c in CODEC_SWEEP if c != "raw"],
    )
    return workload, model, port


def table_skeleton(scale=1.0, seed=1):
    """The sweep's empty table (headers/notes only)."""
    return ExperimentTable(
        experiment="Compression",
        title="Spill-path compression: on-wire bytes by codec, "
              "granularity, workload",
        headers=["Workload", "Model", "Codec", "Raw spill B",
                 "Wire spill B", "Raw reload B", "Wire reload B",
                 "Ratio", "Wire %"],
        notes="one simulation per model measures every codec broadside "
              "on identical traffic; raw = 4 B/word uncompressed wire; "
              "Ratio = raw/wire bytes, Wire % = on-wire share of raw",
    )


def cell_keys():
    """Independent sweep cells, in table order (``workload/config``)."""
    return [f"{workload}/{config}"
            for workload in SWEEP_WORKLOADS
            for config, _ in MODEL_CONFIGS]


def run_cell_rows(key, scale=1.0, seed=1):
    """Run one sweep cell; returns its table rows (one per codec)."""
    workload, model, port = _build_cell(key)
    run_workload(workload, model, scale=scale, seed=seed)
    return _rows(key, port)


def _rows(key, port):
    """A cell's rows, one per codec, read off its driven port."""
    workload_name, config_name = key.split("/", 1)
    rows = []
    for codec in CODEC_SWEEP:
        cs = port.stats_for(codec)
        rows.append([
            workload_name, config_name, codec,
            cs.raw_spill_bytes, cs.wire_spill_bytes,
            cs.raw_reload_bytes, cs.wire_reload_bytes,
            round(cs.total_ratio, 3),
            round(100.0 * cs.wire_fraction, 2),
        ])
    return rows


def run(scale=1.0, seed=1):
    table = table_skeleton(scale=scale, seed=seed)
    cells = [(key, *_build_cell(key)) for key in cell_keys()]
    run_cells([(workload, model) for _, workload, model, _ in cells],
              scale=scale, seed=seed)
    for key, _, _, port in cells:
        for row in _rows(key, port):
            table.add_row(*row)
    return table


def assert_compression_contract(table):
    """The experiment's headline guarantees, as assertions.

    * the identity codec leaves every byte count untouched;
    * for every workload x granularity, at least one non-identity codec
      moves strictly fewer spill bytes than raw;
    * the fallback header bounds worst-case expansion to one byte per
      unit — at the minimum unit of one 4-byte word that is a 1.25x
      ceiling, so no codec can blow traffic up.
    """
    index = {h: table.headers.index(h) for h in table.headers}
    cells = {}
    for row in table.rows:
        key = (row[index["Workload"]], row[index["Model"]])
        cells.setdefault(key, {})[row[index["Codec"]]] = row
    assert cells, "compression table is empty"
    for key, by_codec in cells.items():
        raw = by_codec["raw"]
        assert raw[index["Raw spill B"]] == raw[index["Wire spill B"]], (
            f"{key}: identity codec changed spill bytes"
        )
        assert raw[index["Raw reload B"]] == raw[index["Wire reload B"]], (
            f"{key}: identity codec changed reload bytes"
        )
        assert raw[index["Raw spill B"]] > 0, (
            f"{key}: no spill traffic reached the wire — the sweep "
            f"budget no longer pressures this model"
        )
        winners = [
            codec for codec, row in by_codec.items()
            if codec != "raw"
            and row[index["Wire spill B"]] < row[index["Raw spill B"]]
        ]
        assert winners, (
            f"{key}: no codec moved strictly fewer spill bytes than raw"
        )
        for codec, row in by_codec.items():
            assert (row[index["Wire spill B"]]
                    <= row[index["Raw spill B"]] * 1.25 + 8), (
                f"{key}/{codec}: spill expansion exceeds the fallback "
                f"bound"
            )
    return table


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Run the spill-path compression sweep."
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--check", action="store_true",
                        help="verify the committed golden and the "
                             "traffic-reduction contract instead of "
                             "printing the table")
    args = parser.parse_args(argv)
    if args.check:
        from repro.evalx.golden import compare_golden

        deviations = compare_golden("compression")
        if deviations:
            for deviation in deviations:
                print(f"DEVIATION: {deviation}")
            return 1
        from repro.evalx.golden import GOLDEN_SCALE, GOLDEN_SEED

        table = assert_compression_contract(
            run(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
        )
        print(f"compression clean: {len(table.rows)} cells match the "
              "golden; every workload/granularity has a winning codec")
        return 0
    print(run(scale=args.scale, seed=args.seed).render())
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
