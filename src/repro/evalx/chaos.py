"""Storage-fault chaos campaign: the hardened substrate leaves nothing
silent.

The resilience campaign (PR 1) proved the *register file* cannot
corrupt silently; this campaign proves the same for the *storage
substrate* underneath every sweep.  It drives each (storage fault kind
× injection site × seed) combination through the layer that owns the
site — trace cache, write-ahead journal, or final results write — with
a single-kind, single-site :class:`repro.chaos.FaultPlane` armed so
the fault **must** fire, then asserts the invariant:

    every completed operation is byte-identical to a fault-free run.

Each row classifies what the recovery machinery needed:

* ``recovered`` — retries, CRC quarantine + re-record, torn-tail
  repair or read-back verification absorbed every injected fault;
* ``degraded``  — persistent write failure (disk full) pushed the
  trace cache down the ladder to publishing-disabled, memory-only
  operation — slower, still exact;
* ``errored``   — an exception escaped the hardening (always a
  campaign failure).

``Exact`` is the byte-identity verdict (1 = identical to fault-free).
The campaign contract, asserted by ``assert_campaign_clean`` (and by
``make chaos``): every row ``Exact=1``, every row injected at least
one fault, at least one corruption was quarantined, zero errored rows.

Cells sandbox their storage in a per-cell temporary directory and
restore the cache's degradation state afterwards, so the campaign can
run inside any process (goldens, report, sweeps) without leaking.

The cells are independent, so :func:`run_campaign` spreads them over
the CPUs with :func:`repro.evalx.common.fan_out`: forked workers and
this process take cells from one queue.  Both fault-free reference
traces are recorded here first, so every worker inherits them.  A
worker sends back each cell's record, its plane's report and the
``cache.STATS`` it moved, which this process adds to its own, so the
counters read as a serial pass's do; a cell no worker answered runs
here.  Where the fork guard refuses, or on one CPU, every cell runs
here in table order, as a serial pass.  While every worker answers,
the cache log (``REPRO_TRACE_CACHE_LOG``) gets a serial pass's lines,
possibly in another order.  A worker that dies or raises has already
logged the cells it ran, and this process runs them again, so their
lines appear twice.

CLI::

    python -m repro.evalx chaos             # print the table
    python -m repro.evalx.chaos --check     # assert the contract
"""

import json
import pathlib
import tempfile
import zlib

from repro.chaos import plane as plane_mod
from repro.chaos.plane import KIND_SITES, STORAGE_KINDS, FaultPlane
from repro.evalx.journal import Journal
from repro.evalx.tables import ExperimentTable
from repro.ioutil import atomic_write_text
from repro.trace import cache

CAMPAIGN_WORKLOAD = "GateSim"

OUTCOMES = ("recovered", "degraded", "errored")

#: fault-free reference trace bytes, memoized per operating point
_reference = {}


def _workload_scale(scale):
    """The (small) workload operating point one campaign cell records
    at — deterministic in the experiment scale."""
    return max(0.04, round(0.12 * scale, 3))


def campaign_seeds(seed):
    """The two fault-schedule seeds every (kind, site) pair sweeps."""
    return (seed, seed + 1)


def campaign_pairs():
    """Every valid (storage fault kind, injection site) combination."""
    return [(kind, site) for kind in STORAGE_KINDS
            for site in KIND_SITES[kind]]


def _cell_plane(kind, site, seed):
    """A plane armed so ``kind`` is guaranteed to fire at ``site``.

    ``horizon == count`` arms *every* early operation at the site.
    ``enospc`` gets a deep schedule that outlasts the publish retry
    budget — the one kind meant to push the cache down the ladder to
    publishing-disabled; every other kind is armed twice so recovery
    is exercised on both the first landing and the re-record.
    """
    cell_seed = zlib.crc32(f"{seed}|{kind}|{site}".encode()) & 0x7FFFFFFF
    depth = 8 if kind == "enospc" and site == "cache.publish" else 2
    return FaultPlane(cell_seed, kinds=(kind,), sites=(site,),
                      count=depth, horizon=depth)


def _purge_memo(tmpdir):
    """Drop this sandbox's in-process memo entries."""
    prefix = str(tmpdir)
    for key in [k for k in cache._memo if k[0] == prefix]:
        del cache._memo[key]


def _reference_bytes(wscale, run_seed):
    """Fault-free serialized trace for one operating point (memoized;
    recording touches no storage site, so it is exact anywhere)."""
    key = (wscale, run_seed, cache.recorder_fingerprint())
    blob = _reference.get(key)
    if blob is None:
        from repro.workloads import get_workload

        workload = get_workload(CAMPAIGN_WORKLOAD)
        blob = cache.record_trace(workload, scale=wscale,
                                  seed=run_seed).dumps_binary()
        _reference[key] = blob
    return blob


def _cache_cell(tmpdir, wscale, run_seed):
    """Record/publish/reload through the cache under faults.

    Three rounds, each forced cold (memo purged): the first publishes
    under injection, the later ones must detect whatever landed —
    quarantining corruption and transparently re-recording — and every
    returned trace must equal the fault-free reference byte for byte.
    """
    from repro.workloads import get_workload

    workload = get_workload(CAMPAIGN_WORKLOAD)
    ref = _reference_bytes(wscale, run_seed)
    exact = True
    for _ in range(3):
        trace = cache.load_or_record(workload, scale=wscale,
                                     seed=run_seed, directory=tmpdir)
        exact = exact and trace.dumps_binary() == ref
        _purge_memo(tmpdir)
    return int(exact)


def _journal_cell(tmpdir, run_seed):
    """Append under faults, recover the tail, reload, append again."""
    journal = Journal(pathlib.Path(tmpdir) / "chaos.journal.jsonl")
    journal.write_header("chaos", 1.0, run_seed)
    expected = {}
    for index in range(3):
        payload = {"rows": [[run_seed, index, index * index]]}
        journal.append_cell(f"cell{index}", "ok", payload=payload)
        expected[f"cell{index}"] = payload
    journal.recover_tail()
    header, cells, _ = journal.load()
    ok = (header is not None and header["seed"] == run_seed
          and {key: rec["payload"] for key, rec in cells.items()}
          == expected)
    # a resume-style append after recovery must land intact too
    journal.append_cell("cell3", "ok", payload={"rows": [[7]]})
    _, cells, _ = journal.load()
    record = cells.get("cell3")
    ok = ok and record is not None and record["payload"] == {"rows": [[7]]}
    return int(ok)


def _results_cell(tmpdir, run_seed):
    """Publish a final results file under faults, with verification."""
    out = pathlib.Path(tmpdir) / "results.json"
    payload = json.dumps({"seed": run_seed, "rows": [[1, 2, 3]]},
                         sort_keys=True)
    atomic_write_text(out, payload, site="results.write", attempts=3,
                      verify=True)
    return int(out.read_text(encoding="utf-8") == payload)


def run_campaign_cell(kind, site, seed, scale=1.0):
    """One campaign cell; returns its classification record."""
    return _run_cell(kind, site, seed, scale)[0]


def _run_cell(kind, site, seed, scale):
    """One campaign cell: ``(record, its plane's report())``."""
    plane = _cell_plane(kind, site, seed)
    wscale = _workload_scale(scale)
    quarantined_before = cache.STATS.quarantined
    degraded_before = dict(cache._degraded)
    outcome = "recovered"
    exact = 0
    try:
        with tempfile.TemporaryDirectory(prefix="chaos-cell-") as tmp:
            tmpdir = pathlib.Path(tmp)
            try:
                with plane_mod.activated(plane):
                    if site.startswith("cache."):
                        exact = _cache_cell(tmpdir, wscale, seed)
                    elif site == "journal.append":
                        exact = _journal_cell(tmpdir, seed)
                    else:
                        exact = _results_cell(tmpdir, seed)
            finally:
                _purge_memo(tmpdir)
        if (cache._degraded["publish_disabled"]
                and not degraded_before["publish_disabled"]):
            outcome = "degraded"
    except Exception:
        outcome = "errored"
        exact = 0
    finally:
        # the cell's ladder state is its own; never leak it
        cache._degraded.update(degraded_before)
    record = {
        "kind": kind,
        "site": site,
        "seed": seed,
        "injected": len(plane.injected),
        "quarantined": cache.STATS.quarantined - quarantined_before,
        "outcome": outcome,
        "exact": exact,
    }
    return record, plane.report()


def _forked_cell(kind, site, seed, scale):
    """:func:`_run_cell` in a worker, plus the ``cache.STATS`` it moved."""
    before = cache.STATS.counts()
    record, report = _run_cell(kind, site, seed, scale)
    return record, report, [now - then for now, then in
                            zip(cache.STATS.counts(), before)]


def _serve_campaign(scale, seed):
    """``(records, plane reports, served)``: one record and one plane
    report per cell in table order, and a line saying how the cells
    were served."""
    from repro.evalx.common import fan_out

    cells = [(kind, site, run_seed) for kind, site in campaign_pairs()
             for run_seed in campaign_seeds(seed)]
    for run_seed in campaign_seeds(seed):
        # recorded once here for every worker to inherit; the cells'
        # re-records stay real recordings, compared with these bytes
        _reference_bytes(_workload_scale(scale), run_seed)
    done = {}

    def here(index):
        done[index] = _run_cell(*cells[index], scale)

    replies, reason = fan_out(
        len(cells), lambda index: _forked_cell(*cells[index], scale), here)
    for index, (record, report, moved) in (replies or {}).items():
        cache.STATS.add(moved)
        done[index] = record, report
    for index, cell in enumerate(cells):
        if index not in done:
            done[index] = _run_cell(*cell, scale)
    if replies is None:
        served = f"0 of {len(cells)} cells forked: serial ({reason})"
    else:
        served = (f"{len(replies)} of {len(cells)} cells forked, "
                  f"{len(cells) - len(replies)} run in this process")
    records, reports = zip(*(done[index] for index in range(len(cells))))
    return list(records), list(reports), served


def run_campaign(scale=1.0, seed=1):
    """Full sweep; one record per (kind, site, schedule seed)."""
    return _serve_campaign(scale, seed)[0]


def _cell_row(cell):
    return [cell["kind"], cell["site"], cell["seed"], cell["injected"],
            cell["quarantined"], cell["outcome"], cell["exact"]]


def table_skeleton(scale=1.0, seed=1):
    return ExperimentTable(
        experiment="Chaos",
        title="Storage-fault chaos campaign: recovery by kind, site, "
              "seed",
        headers=["Fault kind", "Site", "Seed", "Injected", "Quarantined",
                 "Outcome", "Exact"],
        notes="Exact=1 is byte-identity with the fault-free run; the "
              "contract is every row Exact=1 with Injected>0 and no "
              "errored outcomes",
    )


def cell_keys():
    """Independent campaign cells (``kind/site/seed``)."""
    return [f"{kind}/{site}/{run_seed}"
            for kind, site in campaign_pairs()
            for run_seed in campaign_seeds(1)]


def run_cell_rows(key, scale=1.0, seed=1):
    kind, site, run_seed = key.split("/")
    # cell seeds are anchored to the sweep seed, not the key literal
    # (the key enumerates offsets from campaign_seeds(1))
    offset = int(run_seed) - 1
    cell = run_campaign_cell(kind, site, campaign_seeds(seed)[offset],
                             scale=scale)
    return [_cell_row(cell)]


def run(scale=1.0, seed=1):
    """The campaign as an experiment table (golden-locked)."""
    table = table_skeleton(scale=scale, seed=seed)
    for cell in run_campaign(scale=scale, seed=seed):
        table.add_row(*_cell_row(cell))
    return table


def assert_campaign_clean(scale=1.0, seed=1):
    """The campaign contract, as an assertion (used by ``make chaos``).

    * every cell byte-identical to its fault-free run (``Exact=1``);
    * every cell actually injected at least one fault (an unarmed
      campaign proves nothing);
    * at least one corrupted entry went through quarantine;
    * zero errored cells, and ``degraded`` appears only where the
      ladder is *supposed* to engage (persistent disk-full on the
      cache publish path).
    """
    cells = run_campaign(scale=scale, seed=seed)
    _assert_clean(cells)
    return cells


def _assert_clean(cells):
    inexact = [c for c in cells if not c["exact"]]
    assert not inexact, (
        f"{len(inexact)} cell(s) were not byte-identical to the "
        f"fault-free run: {inexact}"
    )
    unarmed = [c for c in cells if c["injected"] < 1]
    assert not unarmed, f"cell(s) injected nothing: {unarmed}"
    assert sum(c["quarantined"] for c in cells) > 0, (
        "no corruption was quarantined — the CRC/quarantine path "
        "never engaged"
    )
    errored = [c for c in cells if c["outcome"] == "errored"]
    assert not errored, f"exception(s) escaped the hardening: {errored}"
    for cell in cells:
        if cell["outcome"] == "degraded":
            assert (cell["kind"], cell["site"]) == \
                ("enospc", "cache.publish"), (
                    f"unexpected ladder degradation: {cell}")


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Run the storage-fault chaos campaign."
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--check", action="store_true",
                        help="assert the zero-silent-corruption "
                             "contract instead of printing the table")
    args = parser.parse_args(argv)
    if args.check:
        cells, _, served = _serve_campaign(args.scale, args.seed)
        _assert_clean(cells)
        injected = sum(c["injected"] for c in cells)
        quarantined = sum(c["quarantined"] for c in cells)
        print(f"chaos campaign clean: {injected} storage fault(s) "
              f"injected across {len(cells)} cell(s), "
              f"{quarantined} corrupt file(s) quarantined, every "
              "completed operation byte-identical to fault-free; "
              f"{served}")
        return 0
    print(run(scale=args.scale, seed=args.seed).render())
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
