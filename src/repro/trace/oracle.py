"""One-pass design-space oracle for register-file sweeps.

The paper's capacity studies (figs 9-14) replay the same trace against
many register-file configurations.  Mattson's classic observation is
that for stack algorithms (LRU) a single pass over the reference
stream yields the miss count of *every* capacity at once: keep the
references on a recency stack, record each re-reference's stack depth
in a histogram, and ``misses(C)`` is the histogram's suffix sum from
depth ``C``.

This module turns that pass into the tables of the designs the paper
simulates — one-register NSF lines and segmented frames, both with LRU
victims:

* **Deletions as holes.**  ``END`` and ``FREE`` free registers with no
  spill traffic; in a capacity-``C`` file those lines enter the free
  list.  The oracle models each freed line as a *hole* left in place
  on the recency stack (same timestamp).  A hole above a re-referenced
  item is a free line in every file small enough to matter, so the
  re-reference consumes the topmost hole and leaves a new hole at its
  own old depth; a write-allocate of a fresh line likewise consumes
  the topmost hole.  An allocation evicts in file ``C`` only when
  ``C <= min(depth of topmost hole, stack size)`` — i.e. when file
  ``C`` is full *and* has no free line.
* **Write-allocate.**  A write to a resident line always hits; a write
  to an absent line misses at every ``C <= depth`` and binds the line
  without a reload (``fetch_on_write=False``); only read misses fetch.
* **Segmented frames.**  :func:`segmented_tables` treats frames as
  lines of size ``frame_size`` with whole-frame or live-only spill
  costing (the shared :func:`repro.core.segmented.frame_transfer_cost`
  rule) and the segmented file's window-underflow reload semantics
  (only contexts that were ever evicted pay restore traffic).  One
  synchronized walk produces the exact snapshot for every frame count
  and both spill modes.

:func:`capacity_tables` / :func:`segmented_tables` return the *full*
:class:`~repro.core.stats.RegFileStats` snapshot per capacity —
occupancy and residency tick-integrals, tick-sampled maxima, context
lifecycle counts — so an in-regime sweep cell is an O(1) dictionary
lookup after one shared scan (:func:`serve_from_tables`).  At or above
the trace's peak demand an NSF never evicts, and the closed form of
:mod:`repro.trace.columnar` serves it without a scan.

Exactness boundary: :func:`repro.trace.admit.admit` admits a fresh
exact NSF with one register per line, LRU victims,
``reload_scope="register"``, ``fetch_on_write=False`` and no
watermark, or a fresh exact LRU segmented file, each over a plain
backing store; every scan and the closed form refuse
(``OracleUnsupported``) the traces
:func:`repro.trace.columnar.attribute` refuses: wide values, cold
reads, accesses outside ``BEGIN``/``END`` and the shapes its keying
cannot represent.  Everything else — FIFO, NMRU's RNG draws, lines of
more than one register (fig13), ``reload_scope="line"``,
``fetch_on_write=True``, a driven model, a config key the allowlist
does not name — is served by event-exact replay per cell.

Positions are 0-based depths: the most recent entry is at depth 0, a
re-reference at depth ``p`` hits every file with ``C > p``.

The NSF pass runs on the NumPy kernel of :mod:`repro.trace.vector`
(batched composite-key preprocessing feeding a windowed recency
stack); the segmented walk below is plain Python.  Event replay
(:func:`repro.trace.replay.replay`) is the reference every table is
tested against.
"""

from collections import OrderedDict

from repro.trace import lru
from repro.trace.admit import admit
from repro.trace.columnar import (
    OracleUnsupported,
    analyze,
    apply_stats,
    attribute,
)
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_SWITCH,
    OP_TICK,
    OP_WRITE,
)

__all__ = [
    "OracleUnsupported",
    "capacity_tables",
    "segmented_tables",
    "apply_table",
    "serve_from_tables",
]


class _PerCap:
    """Per-capacity occupancy/residency integrals and tick maxima.

    ``RegFileStats.tick`` integrates ``active * n`` and folds the
    maxima *at tick time*, so a value held across zero ticks is never
    sampled.  This accumulator reproduces that exactly with O(1) ticks:
    the global tick counter only advances on TICK, and each
    per-capacity value is flushed lazily when it changes — if ticks
    elapsed while it was held, the hold is integrated and the held
    value folded into the max (at least one tick sampled it).
    """

    __slots__ = ("caps", "K", "gt", "active", "occ", "occ_mark",
                 "rc", "rcw", "rc_mark", "max_active", "max_rc",
                 "inst_lines")

    def __init__(self, caps):
        K = len(caps)
        self.caps = caps
        self.K = K
        self.gt = 0
        self.active = [0] * K
        self.occ = [0] * K
        self.occ_mark = [0] * K
        self.rc = [0] * K
        self.rcw = [0] * K
        self.rc_mark = [0] * K
        self.max_active = [0] * K
        self.max_rc = [0] * K
        self.inst_lines = {}  # instance -> per-capacity resident lines

    def tick(self, n):
        self.gt += n

    def add_active(self, ci, delta):
        gt = self.gt
        mark = self.occ_mark[ci]
        a = self.active[ci]
        if gt > mark:
            self.occ[ci] += a * (gt - mark)
            self.occ_mark[ci] = gt
            if a > self.max_active[ci]:
                self.max_active[ci] = a
        self.active[ci] = a + delta

    def _bump_rc(self, ci, delta):
        gt = self.gt
        mark = self.rc_mark[ci]
        r = self.rc[ci]
        if gt > mark:
            self.rcw[ci] += r * (gt - mark)
            self.rc_mark[ci] = gt
            if r > self.max_rc[ci]:
                self.max_rc[ci] = r
        self.rc[ci] = r + delta

    def line_in(self, inst, ci):
        lst = self.inst_lines[inst]
        lst[ci] += 1
        if lst[ci] == 1:
            self._bump_rc(ci, 1)

    def line_out(self, inst, ci):
        lst = self.inst_lines[inst]
        lst[ci] -= 1
        if lst[ci] == 0:
            self._bump_rc(ci, -1)

    def begin(self, inst):
        self.inst_lines[inst] = [0] * self.K

    def end(self, inst):
        del self.inst_lines[inst]

    def finalize(self):
        gt = self.gt
        for ci in range(self.K):
            mark = self.occ_mark[ci]
            if gt > mark:
                a = self.active[ci]
                self.occ[ci] += a * (gt - mark)
                if a > self.max_active[ci]:
                    self.max_active[ci] = a
                self.occ_mark[ci] = gt
            mark = self.rc_mark[ci]
            if gt > mark:
                r = self.rc[ci]
                self.rcw[ci] += r * (gt - mark)
                if r > self.max_rc[ci]:
                    self.max_rc[ci] = r
                self.rc_mark[ci] = gt


def _grid(capacities):
    """``capacities`` as a sorted list of distinct positive integers."""
    capacities = sorted(set(int(c) for c in capacities))
    if not capacities or capacities[0] < 1:
        raise OracleUnsupported("capacities must be positive integers")
    return capacities


def _bits(mask):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _scan_segmented(trace, frame_counts):
    """Synchronized segmented-file walk over every frame count.

    Frames are lines of size ``frame_size`` whose valid set, for a
    resident frame, always equals the context's global written-set
    (writes install the frame first in *every* file, and restores
    reload exactly the backed offsets — which frees also discard), so
    one shared valid set serves all frame counts, and one LRU recency
    order over cids names every file's victim: the least recently used
    cid resident in it.  The spill mode does not enter the walk at
    all: it only prices each transfer (whole frame vs live registers),
    so the returned per-capacity entries carry the mode-independent
    transfer counts and :func:`_seg_tables_pair` derives both costings
    from one scan via the model's own
    :func:`~repro.core.segmented.frame_transfer_cost` rule.  Only
    contexts that were ever evicted pay restore traffic
    (window-underflow semantics).  The trace passes
    :func:`~repro.trace.columnar.attribute` first.
    """
    caps = _grid(frame_counts)
    attribute(trace)
    data, _ = trace.packed()
    K = len(caps)
    full = (1 << K) - 1

    lives = set()
    vset = {}       # cid -> set of written (valid) offsets
    res = {}        # cid -> residency mask over the frame-count grid
    esp = {}        # cid -> ever-spilled mask
    pend = {}       # cid -> {offset: pending mask}
    used = [0] * K
    order = OrderedDict()           # shared LRU recency over cids
    reads = writes = 0
    n_begin = n_end = n_switch = 0
    cur_cid = None
    rm = [0] * K
    wm = [0] * K
    sm = [0] * K    # switch misses (frame installs)
    evs = [0] * K   # frames spilled
    lvs = [0] * K   # live registers spilled
    lrl = [0] * K   # live registers reloaded
    frl = [0] * K   # frames reloaded (lines_reloaded)
    arl = [0] * K   # active (pending-flip) reloads
    per = _PerCap(caps)

    def evict_into(ci):
        bit = 1 << ci
        vcid = next(c for c in order if res.get(c, 0) & bit)
        valid = vset[vcid]
        live = len(valid)
        evs[ci] += 1
        lvs[ci] += live
        res[vcid] &= ~bit
        esp[vcid] = esp.get(vcid, 0) | bit
        pmap = pend.get(vcid)
        if pmap:
            for o in list(pmap):
                nm = pmap[o] & ~bit
                if nm:
                    pmap[o] = nm
                else:
                    del pmap[o]
        if live:
            per.add_active(ci, -live)
        per.line_out(vcid, ci)

    def install(cid, ci):
        sm[ci] += 1
        if used[ci] == caps[ci]:
            evict_into(ci)
        else:
            used[ci] += 1
        bit = 1 << ci
        res[cid] = res.get(cid, 0) | bit
        if esp.get(cid, 0) & bit:
            # window underflow: restore the backed image (== the
            # context's current valid set; see the docstring proof)
            valid = vset[cid]
            live = len(valid)
            lrl[ci] += live
            frl[ci] += 1
            if live:
                pmap = pend.setdefault(cid, {})
                for o in valid:
                    pmap[o] = pmap.get(o, 0) | bit
                per.add_active(ci, live)
        per.line_in(cid, ci)

    def flip_pending(cid, offset):
        pmap = pend.get(cid)
        if pmap is None:
            return
        mask = pmap.pop(offset, 0)
        for ci in _bits(mask):
            arl[ci] += 1

    it = iter(data.tolist())
    for op, cid, offset, value in zip(it, it, it, it):
        if op <= OP_WRITE:
            valid = vset[cid]
            rmask = res.get(cid, 0)
            miss = full & ~rmask
            if op == OP_READ:
                reads += 1
                if offset not in valid:
                    raise OracleUnsupported(
                        f"cold read of ({cid}, {offset})")
                if miss:
                    for ci in _bits(miss):
                        rm[ci] += 1
                        install(cid, ci)
            else:
                writes += 1
                if miss:
                    for ci in _bits(miss):
                        wm[ci] += 1
                        install(cid, ci)
                if offset not in valid:
                    valid.add(offset)
                    for ci in range(K):
                        per.add_active(ci, 1)
            flip_pending(cid, offset)
            order[cid] = True
            order.move_to_end(cid)
        elif op == OP_TICK:
            per.tick(value)
        elif op == OP_SWITCH:
            if cid == cur_cid:
                continue
            if cid not in lives:
                raise OracleUnsupported(f"SWITCH to unknown {cid}")
            n_switch += 1
            cur_cid = cid
            miss = full & ~res.get(cid, 0)
            for ci in _bits(miss):
                install(cid, ci)
            order[cid] = True
            order.move_to_end(cid)
        elif op == OP_BEGIN:
            lives.add(cid)
            vset[cid] = set()
            per.begin(cid)
            n_begin += 1
        elif op == OP_END:
            lives.discard(cid)
            n_end += 1
            valid = vset.pop(cid)
            rmask = res.pop(cid, 0)
            live = len(valid)
            for ci in _bits(rmask):
                used[ci] -= 1
                if live:
                    per.add_active(ci, -live)
                per.line_out(cid, ci)
            esp.pop(cid, None)
            pend.pop(cid, None)
            order.pop(cid, None)
            per.end(cid)
            if cur_cid == cid:
                cur_cid = None
        elif op == OP_FREE:
            valid = vset[cid]
            if offset not in valid:
                continue  # no resident copy anywhere: only the
                # backing copy is discarded, with no stats
            valid.discard(offset)
            rmask = res.get(cid, 0)
            for ci in _bits(rmask):
                per.add_active(ci, -1)
            pmap = pend.get(cid)
            if pmap:
                pmap.pop(offset, None)

    per.finalize()
    shared = {
        "reads": reads, "writes": writes, "instructions": per.gt,
        "contexts_created": n_begin, "contexts_ended": n_end,
        "context_switches": n_switch,
    }
    percap = {}
    for ci, cap in enumerate(caps):
        percap[cap] = {
            "read_misses": rm[ci], "write_misses": wm[ci],
            "switch_misses": sm[ci],
            "lines_spilled": evs[ci], "lines_reloaded": frl[ci],
            "live_registers_spilled": lvs[ci],
            "live_registers_reloaded": lrl[ci],
            "active_registers_reloaded": arl[ci],
            "words_stored": lvs[ci], "words_loaded": lrl[ci],
            "occupancy_weighted": per.occ[ci],
            "resident_contexts_weighted": per.rcw[ci],
            "max_active_registers": per.max_active[ci],
            "max_resident_contexts": per.max_rc[ci],
        }
    return shared, percap


# -- public table entry points ----------------------------------------------


_ZERO_FIELDS = (
    "background_registers_spilled", "lines_retired",
    "backing_transient_faults", "backing_retries",
    "backing_exhaustions", "backing_backoff_cycles",
)


def _assemble_tables(shared, percap):
    """Merge shared counters into each per-capacity snapshot patch."""
    tables = {}
    reads = shared["reads"]
    writes = shared["writes"]
    for cap, entry in percap.items():
        patch = dict(entry)
        patch["reads"] = reads
        patch["writes"] = writes
        patch["read_hits"] = reads - entry["read_misses"]
        patch["write_hits"] = writes - entry["write_misses"]
        patch["instructions"] = shared["instructions"]
        patch["contexts_created"] = shared["contexts_created"]
        patch["contexts_ended"] = shared["contexts_ended"]
        patch["context_switches"] = shared["context_switches"]
        for field in _ZERO_FIELDS:
            patch[field] = 0
        tables[cap] = patch
    return tables


def capacity_tables(trace, capacities, word_bytes=4):
    """Full per-capacity NSF snapshots from one shared LRU scan.

    Walks ``trace`` once (the Mattson stack-with-holes pass of
    :mod:`repro.trace.vector`, one walk however many capacities are
    asked) and returns ``{capacity: patch}`` for every capacity in
    ``capacities``: *every* :class:`~repro.core.stats.RegFileStats`
    field an event replay would leave on a fresh
    ``NamedStateRegisterFile(num_registers=C)`` with one register per
    line, LRU victims, register-scope reloads and write-allocate misses
    (hit and miss counts, spill and reload traffic, tick-integrated
    occupancy and residency, tick-sampled maxima, context lifecycle,
    the zero-by-construction fault and watermark counters), plus the
    backing store's word counters.  Feed a patch to
    :func:`apply_table`.  Raises :class:`OracleUnsupported` outside the
    boundary (:func:`~repro.trace.columnar.attribute`).
    """
    from repro.trace import vector

    return _assemble_tables(*vector.lru_scan(trace, capacities, word_bytes))


def _seg_tables_pair(trace, frame_counts, word_bytes):
    """Both spill-mode segmented tables from **one** shared scan.

    The segmented walk's eviction dynamics never depend on the spill
    mode — the mode only prices each transfer, exactly the
    :func:`~repro.core.segmented.frame_transfer_cost` rule: ``frame``
    moves whole frames (registers = lines x frame size), ``live``
    moves only the valid registers.  Pricing both modes off the one
    scan's mode-independent counters halves the segmented half of a
    design-space sweep.  Returns ``{"frame": tables, "live":
    tables}``.
    """
    shared, percap = _scan_segmented(trace, frame_counts)
    fsize = trace.context_size
    pair = {}
    for mode in ("frame", "live"):
        priced = {}
        for cap, entry in percap.items():
            if mode == "frame":
                rsp = entry["lines_spilled"] * fsize
                rrl = entry["lines_reloaded"] * fsize
            else:
                rsp = entry["live_registers_spilled"]
                rrl = entry["live_registers_reloaded"]
            priced[cap] = dict(
                entry,
                registers_spilled=rsp,
                registers_reloaded=rrl,
                raw_bytes_spilled=rsp * word_bytes,
                wire_bytes_spilled=rsp * word_bytes,
                raw_bytes_reloaded=rrl * word_bytes,
                wire_bytes_reloaded=rrl * word_bytes,
            )
        pair[mode] = _assemble_tables(shared, priced)
    return pair


def segmented_tables(trace, frame_counts, word_bytes=4,
                     spill_mode="frame"):
    """Full per-frame-count snapshots of an LRU segmented file from one
    scan."""
    if spill_mode not in ("frame", "live"):
        raise OracleUnsupported(f"unknown spill mode {spill_mode!r}")
    return _seg_tables_pair(trace, frame_counts, word_bytes)[spill_mode]


# -- table application -------------------------------------------------------


def scan_siblings(family):
    """Every family one scan for ``family`` computes: a segmented scan
    prices both spill modes (see :func:`_seg_tables_pair`)."""
    if family[0] == "seg":
        return tuple(("seg", mode) + family[2:]
                     for mode in ("frame", "live"))
    return (family,)


def _family_tables(trace, family, caps):
    """Compute full tables for ``family`` over ``caps`` units.

    Returns ``{family: table}`` for every family in
    :func:`scan_siblings`, so callers should keep every returned
    entry, not just the one they asked for.  This is the one scan
    entry point: every table any caller serves was computed here.
    Only the families :func:`admit` grants have a scan: one-register
    NSF lines and segmented frames, both with LRU victims.
    """
    kind, variant, policy, wb = family
    if policy != "lru" or variant not in (1, "frame", "live"):
        raise OracleUnsupported(f"no scan prices family {family!r}")
    if kind == "nsf":
        return {family: capacity_tables(trace, caps, word_bytes=wb)}
    return {("seg", mode, policy, wb): table
            for mode, table in _seg_tables_pair(trace, caps, wb).items()}


def apply_table(patch, model):
    """Write one capacity's synthesized snapshot onto ``model``.

    Sets every statistics field in ``patch`` on ``model.stats`` and
    the word counters on its backing store.  Like
    :func:`~repro.trace.columnar.apply_stats` this is statistics-only:
    the model's internal line/frame state is *not* rebuilt, so the
    model should be treated as a stats carrier and discarded (exactly
    how sweep drivers use it).
    """
    stats = model.stats
    backing = model.backing
    for field, value in patch.items():
        if field == "words_stored":
            backing.words_stored += value
        elif field == "words_loaded":
            backing.words_loaded += value
        else:
            setattr(stats, field, getattr(stats, field) + value)
    return model


# -- shared-table memo (sweep drivers and the evalx plan hook) --------------

#: trace content (:meth:`Trace.digest`) -> ``{family: {units: patch}}``,
#: ``None`` marking a family whose scan refused the trace.  Kept in
#: least-recently-used order by :mod:`repro.trace.lru`; the tables are
#: small, so the bound only stops a long-lived process from growing
#: without limit.
_TABLE_MEMO = {}
_MEMO_LIMIT = 64


def _fits(trace, verdict):
    """True when the tables admit the model and ``trace`` was recorded
    at its context size: a scan prices the trace's contexts (a
    segmented frame is one), and replay refuses a model whose contexts
    are smaller."""
    return (verdict.family is not None
            and verdict.config["context_size"] == trace.context_size)


def _closed_form(trace, verdict):
    """The trace's columnar analysis when the admitted model is a design
    the no-eviction closed form (:func:`apply_stats`) targets, else
    None."""
    if verdict.closed_form and _fits(trace, verdict):
        return analyze(trace)
    return None


def closed_form(trace, verdict):
    """The analysis :func:`apply_stats` serves the admitted model from,
    or None: the closed form targets the model and the trace's peak
    fits in it, so it never evicts.  The first thing
    :func:`serve_from_tables` tries."""
    analysis = _closed_form(trace, verdict)
    if analysis is None or analysis.peak_lines > verdict.units:
        return None
    return analysis


def table_request(trace, verdict, capacities):
    """What serving an admitted model from its design family's table
    needs.

    Returns ``(key, family, units, missing)``: the memo key (the trace
    digest), the family and the model's capacity in its units, and the
    sorted units one scan must still compute (empty when the table
    already holds ``units``); ``None`` when :func:`admit` refused the
    model, the trace was recorded at another context size, or the
    family's scan refused the trace.  The one home of the
    grid, peak and missing-units rules: :func:`serve_from_tables` and
    the experiments' batch planner
    (:func:`repro.evalx.common.run_cells`) both call it.

    ``capacities`` is in register budget units (the numbers experiment
    modules know) and is converted to the family's units.  Capacities
    at or above the trace's ``peak_lines`` never enter a scan where the
    columnar closed form serves them instead.
    """
    if not _fits(trace, verdict):
        return None
    family, units = verdict.family, verdict.units
    key = trace.digest()
    table = _families(key).get(family, {})
    if table is None:
        return None
    if units in table:
        return key, family, units, ()
    grid = {int(regs) // verdict.unit for regs in capacities}
    analysis = _closed_form(trace, verdict)
    if analysis is not None:
        grid = {u for u in grid if u < analysis.peak_lines}
    grid.add(units)
    return key, family, units, sorted(u for u in grid
                                      if u >= 1 and u not in table)


def _families(key):
    """The memo's ``{family: table}`` for one trace digest (created
    empty, and moved to most recently used)."""
    families = lru.get(_TABLE_MEMO, key)
    if families is None:
        families = lru.put(_TABLE_MEMO, key, {}, _MEMO_LIMIT)
    return families


def scan_tables(trace, family, units):
    """``{family: table}`` of one scan, or ``None`` when it refused the
    trace (:class:`OracleUnsupported`)."""
    try:
        return _family_tables(trace, family, units)
    except OracleUnsupported:
        return None


def merge_tables(key, family, computed):
    """Keep every table one scan for ``family`` returned in the memo
    entry of trace digest ``key``; ``computed`` ``None`` marks the
    scan's siblings refused."""
    families = _families(key)
    if computed is None:
        for sibling in scan_siblings(family):
            families[sibling] = None
        return
    for sibling, sibling_table in computed.items():
        families.setdefault(sibling, {}).update(sibling_table)


def serve_from_tables(trace, model, capacities):
    """Serve one replay from the cheapest exact answer, or decline.

    :func:`admit` decides, once, whether a shortcut may serve
    ``model``.  At or above the trace's ``peak_lines`` a line-size-1
    NSF never evicts, and the columnar closed form
    (:func:`~repro.trace.columnar.apply_stats`) serves the cell in
    O(1).  Any other admitted cell is served from its design family's
    table, memoized by trace content for the life of the process:
    ``capacities`` announces the register budgets the surrounding
    sweep will visit, so on a miss one scan computes every one of them
    the table still lacks (:func:`table_request`).  Returns True and
    patches ``model.stats`` when the cell is served; False leaves the
    model untouched for the caller's event replay.
    """
    verdict = admit(model)
    analysis = closed_form(trace, verdict)
    if analysis is not None:
        apply_stats(analysis, model)
        return True
    request = table_request(trace, verdict, capacities)
    if request is None:
        return False
    key, family, units, missing = request
    if missing:
        merge_tables(key, family, scan_tables(trace, family, missing))
    table = _families(key).get(family)
    if table is None:
        return False
    apply_table(table[units], model)
    return True
