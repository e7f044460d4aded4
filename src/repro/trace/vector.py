"""NumPy-accelerated Mattson kernel for the LRU capacity oracle.

The kernel keeps per-event interpreted work to a minimum in two moves:

1. **Vectorized preprocessing.**  :func:`repro.trace.columnar.attribute`
   validates the trace and attributes every access, ``FREE`` and
   ``END`` to its context *begin instance* (the closed form's own
   check, so the two agree on which traces are in regime), and a
   segmented cummax over the reference stream partitioned by register
   key — sorted once by ``(key, position)`` — classifies every event up
   front: first-touch vs re-reference, real free vs no-op, a read after
   its register's ``FREE`` (raises), and each instance's live-key set
   at its ``END``.  The surviving events compile into a compact integer
   program with switches already stripped and tick runs coalesced.

2. **A windowed recency stack.**  The histograms are clamped at
   ``cmax + 1`` (every deeper reference lands in the overflow bin),
   so the walk only needs *exact* stack positions for the top
   ``cmax + 1`` entries.  Those live in one flat Python list —
   re-reference depth is a C-speed ``list.index``, the MRU move is a
   C-level ``del`` + ``insert``, holes are an interchangeable
   sentinel found by the same scan, and entries falling off the
   window are, by construction, exactly the clamped ones.  Every
   window operation is length-preserving (each hole consumed is paid
   for by a hole or entry pushed), so the window never under-covers
   the top of the stack; the stack total is tracked exactly until it
   exceeds the clamp, after which it can never matter again (it is
   non-decreasing).  The eviction victim of file ``C`` is simply
   ``window[C - 1]``, which prices the per-capacity residency
   integrals of the full tables.

``lru_scan`` raises :class:`~repro.trace.columnar.OracleUnsupported`
for every trace it cannot price exactly (see
:func:`~repro.trace.columnar.attribute`); such cells fall back to event
replay.

NumPy comes from :func:`repro.trace.columnar._numpy`, the program's
one import site, which keeps the BLAS pool at one thread so the
process may still fork.
"""

from bisect import bisect_right

from repro.trace.columnar import OracleUnsupported, _numpy, attribute
from repro.trace.events import OP_FREE, OP_READ, OP_TICK, OP_WRITE

_HOLE = -1

# program opcodes (what survives preprocessing); ticks stay
# interleaved, because the occupancy integrals advance on them
_P_READ, _P_WRITE, _P_FIRST, _P_FREE, _P_END, _P_TICK = range(6)


def _suffix_sums(histogram):
    out = histogram[:]
    for i in range(len(out) - 2, -1, -1):
        out[i] += out[i + 1]
    return out


def _segmented_last_before(group, hit_pos, n):
    """Exclusive per-group running max of ``hit_pos``.

    ``group`` is sorted ascending; within each group, element ``i``
    receives the max ``hit_pos`` among elements strictly before it
    (-1 when none).  Vectorized with the offset trick: adding
    ``group * stride`` makes cross-group pollution impossible under a
    global ``maximum.accumulate``.
    """
    np = _numpy()
    stride = n + 2
    lifted = hit_pos + group * stride
    incl = np.maximum.accumulate(lifted)
    excl = np.empty_like(incl)
    excl[0] = -1
    excl[1:] = incl[:-1]
    first_of_group = np.empty(len(group), dtype=bool)
    first_of_group[0] = True
    first_of_group[1:] = group[1:] != group[:-1]
    out = excl - group * stride
    out[first_of_group] = -1
    np.maximum(out, -1, out=out)
    return out


def _compile(trace):
    """Validate + compile ``trace`` into the kernel's integer program.

    Returns ``(program_columns, end_lists, key_inst, n_reads,
    n_writes, p0_reads, p0_writes, events)``.  The program interleaves
    coalesced ``TICK`` events (their value in the key column),
    ``key_inst`` maps each dense register key to its context instance,
    and ``events`` is the trace's
    :class:`~repro.trace.columnar.Attribution`.  Raises
    ``OracleUnsupported`` for traces outside the oracle's boundary.
    """
    np = _numpy()
    events = attribute(trace)
    ops = events.ops
    n = len(ops)
    ctx = trace.context_size
    used = events.used
    end_pos = events.end_pos
    einst = events.end_inst

    # -- per-key event classification (segmented cummax) --------------------
    # dense register keys: ``used`` lists every key in ascending order
    kpos = events.kpos
    dense = np.searchsorted(used, events.keys)
    order = np.argsort(dense, kind="stable")  # (key, time) partition
    skey = dense[order]
    spos = kpos[order]
    sops = ops[kpos][order]
    is_w = sops == OP_WRITE
    is_f = sops == OP_FREE
    if len(order):
        prev_w = _segmented_last_before(
            skey, np.where(is_w, spos, -1), n)
        prev_f = _segmented_last_before(
            skey, np.where(is_f, spos, -1), n)
        present = prev_w > prev_f
        if bool(((sops == OP_READ) & ~present).any()):
            bad = int(spos[(sops == OP_READ) & ~present].min())
            raise OracleUnsupported(
                f"cold read of ({int(events.cids[bad])}, "
                f"{int(events.offs[bad])})")
        ptype = np.where(
            is_f, _P_FREE,
            np.where(is_w, np.where(present, _P_WRITE, _P_FIRST),
                     _P_READ))
        keep = ~(is_f & ~present)  # a FREE of an absent key is a no-op
        # final state per key: present after its last event
        last_of_key = np.empty(len(skey), dtype=bool)
        last_of_key[-1] = True
        last_of_key[:-1] = skey[1:] != skey[:-1]
        final_present = (is_w | (~is_f & present))[last_of_key]
        live_keys = np.flatnonzero(final_present)
    else:
        ptype = keep = spos = skey = order
        live_keys = np.empty(0, dtype=np.int64)

    # -- per-instance live-key lists at END ---------------------------------
    # dense keys ascend with their instance, so each instance's live
    # keys are one contiguous run
    end_lists = {}
    if len(live_keys) and len(end_pos):
        live_inst = used[live_keys] // ctx
        ended = np.zeros(events.n_inst, dtype=bool)
        ended[einst] = True
        sel = ended[live_inst]
        li = live_inst[sel]
        lk = live_keys[sel].tolist()
        bounds = np.searchsorted(li, einst)
        bounds_hi = np.searchsorted(li, einst, side="right")
        for inst, lo, hi in zip(einst.tolist(), bounds.tolist(),
                                bounds_hi.tolist()):
            end_lists[inst] = lk[lo:hi]

    # -- merge into one time-ordered program --------------------------------
    # the occupancy/residency integrals advance on TICK, so ticks join
    # the program (value in the key column)
    kept = np.flatnonzero(keep) if len(order) else order
    tick_pos = np.flatnonzero(ops == OP_TICK)
    ev_pos = np.concatenate([spos[kept], end_pos, tick_pos])
    ev_type = np.concatenate([
        ptype[kept], np.full(len(end_pos), _P_END, dtype=np.int64),
        np.full(len(tick_pos), _P_TICK, dtype=np.int64)])
    ev_key = np.concatenate([skey[kept], einst, events.vals[tick_pos]])
    morder = np.argsort(ev_pos, kind="stable")
    mtype = ev_type[morder]
    mkey = ev_key[morder]

    # -- strip depth-0 re-references ----------------------------------------
    # An access whose immediately preceding access (any key) touched
    # the same key sits at stack depth 0 with no hole above it: the MRU
    # move is the identity and every histogram contribution lands in
    # bin 0.  Intervening FREE / END events cannot disturb this (a FREE
    # of the key itself would reclassify the access as a first touch,
    # and deletions of other keys punch holes in place without
    # reordering the stack).  They are counted here in bulk and dropped
    # from the walk.
    p0_reads = p0_writes = 0
    acc = np.flatnonzero(mtype <= _P_FIRST)
    if len(acc) > 1:
        ak = mkey[acc]
        at = mtype[acc]
        rem = np.zeros(len(acc), dtype=bool)
        rem[1:] = (ak[1:] == ak[:-1]) & (at[1:] <= _P_WRITE)
        p0_reads = int((at[rem] == _P_READ).sum())
        p0_writes = int(rem.sum()) - p0_reads
        if p0_reads or p0_writes:
            keepm = np.ones(len(mtype), dtype=bool)
            keepm[acc[rem]] = False
            mtype = mtype[keepm]
            mkey = mkey[keepm]

    # coalesce tick runs (stripping depth-0 accesses above leaves many
    # adjacent): only the run head survives, carrying the sum
    tm = mtype == _P_TICK
    if bool(tm.any()):
        is_start = tm.copy()
        is_start[1:] &= ~tm[:-1]
        starts = np.flatnonzero(is_start)
        tick_idx = np.flatnonzero(tm)
        rid = np.searchsorted(starts, tick_idx, side="right") - 1
        sums = np.zeros(len(starts), dtype=np.int64)
        np.add.at(sums, rid, mkey[tick_idx])
        mkey = mkey.copy()
        mkey[starts] = sums
        keepm = ~tm
        keepm[starts] = True
        mtype = mtype[keepm]
        mkey = mkey[keepm]

    n_writes = int(is_w.sum()) if len(order) else 0
    n_reads = int((sops == OP_READ).sum()) if len(order) else 0
    return ((mtype.tolist(), mkey.tolist()), end_lists,
            (used // ctx).tolist(), n_reads, n_writes, p0_reads, p0_writes,
            events)


def _walk(program, end_lists, nk, hists, clamp, caps, per, kinst):
    """The windowed-stack walk, with the per-capacity residency
    integrals.

    With one register per line, read depth, live-span close and stack
    depth coincide, so no per-key validity table is needed.  ``nh``
    counts the holes currently inside the window: while it is zero
    (the common case) the hole scan and its exception are skipped
    entirely.  While the stack has never exceeded the window
    (``total <= limit``) the window *is* the whole stack, so every
    present key and every hole is in-window and ``total`` is exact.

    The window is the top of the recency stack, so the eviction
    victim of file ``C`` on a depth-``eb`` insertion is simply
    ``window[C - 1]`` read against the pre-access window (always a
    real line: ``C <= eb`` bounds it above the topmost hole).  Every
    victim carries exactly one live register, and a line re-enters
    (and its register revalidates in) every file with ``C <= depth``.
    """
    read_hist, write_hist, fill_hist, evict_hist, live_hist = hists
    ev_type, ev_key = program
    window = []
    windex = window.index
    winsert = window.insert
    elget = end_lists.get
    present = bytearray(nk)
    HOLE = _HOLE
    limit = clamp + 1
    total = 0
    frozen = False
    nh = 0
    K = len(caps)
    line_in = per.line_in
    line_out = per.line_out
    add_active = per.add_active

    for op, k in zip(ev_type, ev_key):
        if op <= _P_WRITE:  # re-reference of a present register
            try:
                p = windex(k)
            except ValueError:
                p = -1
            if p > 0:
                pc = p if p < clamp else clamp
                if op:
                    write_hist[pc] += 1
                else:
                    read_hist[pc] += 1
                    fill_hist[pc] += 1
                live_hist[pc] += 1
                if nh:
                    try:
                        h = windex(HOLE, 0, p)
                    except ValueError:
                        h = -1
                else:
                    h = -1
                eb = h if h >= 0 else p
                for ci in range(bisect_right(caps, eb)):
                    vkey = window[caps[ci] - 1]
                    add_active(ci, -1)
                    line_out(kinst[vkey], ci)
                inst = kinst[k]
                for ci in range(bisect_right(caps, p)):
                    line_in(inst, ci)
                    add_active(ci, 1)
                if h >= 0:
                    evict_hist[h] += 1
                    del window[h]
                    window[p - 1] = HOLE
                else:
                    evict_hist[pc] += 1
                    del window[p]
                winsert(0, k)
            elif p == 0:
                if op:
                    write_hist[0] += 1
                else:
                    read_hist[0] += 1
                    fill_hist[0] += 1
                evict_hist[0] += 1
            else:  # below the window: everything bins at the clamp
                if op:
                    write_hist[clamp] += 1
                else:
                    read_hist[clamp] += 1
                    fill_hist[clamp] += 1
                live_hist[clamp] += 1
                if nh:
                    h = windex(HOLE)
                    eb = h
                else:
                    h = -1
                    eb = clamp
                for ci in range(bisect_right(caps, eb)):
                    vkey = window[caps[ci] - 1]
                    add_active(ci, -1)
                    line_out(kinst[vkey], ci)
                inst = kinst[k]
                for ci in range(K):
                    line_in(inst, ci)
                    add_active(ci, 1)
                if h >= 0:
                    evict_hist[h] += 1
                    del window[h]
                    nh -= 1
                    winsert(0, k)
                else:
                    evict_hist[clamp] += 1
                    winsert(0, k)
                    if len(window) > limit:
                        del window[limit:]
        elif op == _P_FIRST:
            write_hist[clamp] += 1
            if nh:
                h = windex(HOLE)
                eb = h
            elif frozen:
                h = -1
                eb = clamp
            else:
                h = -1
                eb = total
            for ci in range(bisect_right(caps, eb)):
                vkey = window[caps[ci] - 1]
                add_active(ci, -1)
                line_out(kinst[vkey], ci)
            inst = kinst[k]
            for ci in range(K):
                line_in(inst, ci)
                add_active(ci, 1)
            if h >= 0:
                evict_hist[h] += 1
                del window[h]
                nh -= 1
            elif frozen:
                evict_hist[clamp] += 1
            else:
                evict_hist[total if total < clamp else clamp] += 1
                total += 1
                if total > limit:
                    frozen = True
            winsert(0, k)
            if len(window) > limit:
                del window[limit:]
            present[k] = 1
        elif op == _P_FREE:
            try:
                d = windex(k)
            except ValueError:
                live_hist[clamp] += 1
            else:
                window[d] = HOLE
                nh += 1
                if d:
                    live_hist[d if d < clamp else clamp] += 1
                inst = kinst[k]
                for ci in range(bisect_right(caps, d), K):
                    add_active(ci, -1)
                    line_out(inst, ci)
            present[k] = 0
        elif op == _P_END:
            for dk in elget(k, ()):
                try:
                    d = windex(dk)
                except ValueError:
                    live_hist[clamp] += 1
                else:
                    window[d] = HOLE
                    nh += 1
                    if d:
                        live_hist[d if d < clamp else clamp] += 1
                    for ci in range(bisect_right(caps, d), K):
                        add_active(ci, -1)
                        line_out(k, ci)
                present[dk] = 0
            per.end(k)
        else:  # TICK: value travels in the key column
            per.tick(k)

    if nk:
        at = {}
        for i, k in enumerate(window):
            if k != HOLE:
                at[k] = i
        get = at.get
        for k in range(nk):
            if present[k]:
                d = get(k, clamp)
                if d > 0:
                    live_hist[d if d < clamp else clamp] += 1


def lru_scan(trace, capacities, word_bytes):
    """Windowed-stack LRU pass over ``trace``: ``(shared, percap)``.

    ``shared`` holds the capacity-independent counters (accesses, ticks,
    context lifecycle); ``percap`` maps each capacity in registers to
    its hit, miss, spill and reload counts, occupancy and residency
    integrals and tick maxima, which
    :func:`repro.trace.oracle.capacity_tables` assembles into full
    snapshot tables.
    """
    from repro.trace.oracle import _PerCap, _grid

    caps = _grid(capacities)
    (program, end_lists, key_inst, n_reads, n_writes,
     p0_reads, p0_writes, events) = _compile(trace)

    cmax = caps[-1]
    clamp = cmax + 1
    read_hist = [0] * (clamp + 1)
    write_hist = [0] * (clamp + 1)
    fill_hist = [0] * (clamp + 1)
    evict_hist = [0] * (clamp + 1)
    live_hist = [0] * (clamp + 1)
    read_hist[0] = fill_hist[0] = p0_reads
    write_hist[0] = p0_writes
    evict_hist[0] = p0_reads + p0_writes
    hists = (read_hist, write_hist, fill_hist, evict_hist, live_hist)
    per = _PerCap(caps)
    # BEGIN only seeds the per-instance residency vector, so all
    # instances can be registered up front
    K = len(caps)
    per.inst_lines = {i: [0] * K for i in range(events.n_inst)}
    _walk(program, end_lists, len(key_inst), hists, clamp, caps, per,
          key_inst)
    per.finalize()

    rm = _suffix_sums(read_hist)
    wm = _suffix_sums(write_hist)
    fills = _suffix_sums(fill_hist)
    evs = _suffix_sums(evict_hist)
    lvs = _suffix_sums(live_hist)
    shared = {
        "reads": n_reads, "writes": n_writes, "instructions": per.gt,
        "contexts_created": events.n_inst,
        "contexts_ended": len(events.end_pos),
        "context_switches": events.context_switches,
    }
    percap = {}
    for ci, cap in enumerate(caps):
        percap[cap] = {
            "read_misses": rm[cap], "write_misses": wm[cap],
            "lines_reloaded": fills[cap], "lines_spilled": evs[cap],
            "registers_reloaded": rm[cap],
            "live_registers_reloaded": rm[cap],
            "active_registers_reloaded": rm[cap],
            "registers_spilled": lvs[cap],
            "live_registers_spilled": lvs[cap],
            "words_loaded": rm[cap], "words_stored": lvs[cap],
            "raw_bytes_reloaded": rm[cap] * word_bytes,
            "wire_bytes_reloaded": rm[cap] * word_bytes,
            "raw_bytes_spilled": lvs[cap] * word_bytes,
            "wire_bytes_spilled": lvs[cap] * word_bytes,
            "switch_misses": 0,
            "occupancy_weighted": per.occ[ci],
            "resident_contexts_weighted": per.rcw[ci],
            "max_active_registers": per.max_active[ci],
            "max_resident_contexts": per.max_rc[ci],
        }
    return shared, percap
