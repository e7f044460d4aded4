"""Columnar replay: whole-trace vectorized analysis of packed traces.

The packed event array (four int64s per event, :mod:`repro.trace.events`)
is already columnar in spirit; this module finishes the job.  NumPy
views the flat ``array('q')`` buffer as an ``(n, 4)`` matrix and a
single global pass derives everything the scalar replay loop would have
computed one event at a time:

* context *instances* (the i-th ``BEGIN`` event; front-ends recycle
  context ids hundreds of times, so register lifetimes key on the
  instance, not the cid),
* per-register first/last access positions (scatter stores over a dense
  ``instance * context_size + offset`` key space),
* the allocation / context-end timeline and its running line-usage
  curve,
* tick-weighted occupancy and resident-context integrals
  (``searchsorted`` of tick positions into the timeline),
* context-switch runs and the final current context.

The analysis is **model independent** — it is computed once per trace
and memoized — and :func:`apply_analysis` then *synthesizes* the exact
replay outcome onto a concrete model in O(registers + contexts) work
instead of O(events).

Exactness boundary
------------------

Synthesis reproduces the scalar replay byte for byte only in the regime
the analysis can prove from the trace alone:

* the model is a pristine (freshly built) ``NamedStateRegisterFile``
  with ``line_size=1``, an LRU-family policy (``lru``/``fifo``),
  write-allocate misses (``fetch_on_write=False``) and no dribble-back
  watermark;
* the trace never calls ``free_register``, carries no wide values,
  accesses contexts only between their ``BEGIN`` and ``END``, and every
  register's first access is a write (true of every recorder-produced
  trace whose workload ran strict);
* the peak number of simultaneously live registers fits in the file —
  i.e. **no eviction ever happens**.  Below that capacity the replay
  outcome depends on per-access stack depths; that is
  :mod:`repro.trace.oracle`'s job, and the engine falls back to event
  replay.

Anything outside the boundary silently degrades to the scalar fast
path (:func:`repro.trace.replay.replay`), which is exact by
construction.  When NumPy is not installed every entry point degrades
the same way, so the ``perf`` extra is genuinely optional.
"""

import os

from repro.core.backing import BackingStore
from repro.core.nsf import NamedStateRegisterFile
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_SWITCH,
    OP_TICK,
    OP_WRITE,
    Trace,
)
from repro.trace.replay import _replay_fast, replay as _event_replay

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: env var selecting the replay engine used by the experiment harness
ENV_ENGINE = "REPRO_REPLAY_ENGINE"

#: recognized engine names (``event`` is the scalar exact loop)
ENGINES = ("event", "columnar", "oracle")

#: refuse to allocate dense scatter tables beyond this many keys
_MAX_KEY_SPACE = 1 << 20

#: in-process memo of analyses, keyed by :meth:`Trace.digest` and kept
#: in least-recently-used order (a plain dict: the oldest key is first).
#: An analysis takes a fraction of its trace's memory, and one sweep
#: process visits a few dozen distinct traces.
_ANALYSES = {}
_MEMO_LIMIT = 32


def numpy_available():
    """True when the optional ``perf`` extra (NumPy) is importable."""
    return _np is not None


def selected_engine(default="event"):
    """The replay engine chosen via ``REPRO_REPLAY_ENGINE``.

    Unknown names fall back to ``default`` rather than erroring: a
    sweep cell inheriting a typo'd environment must still produce
    correct numbers.
    """
    name = os.environ.get(ENV_ENGINE, "").strip().lower()
    return name if name in ENGINES else default


class TraceAnalysis:
    """Model-independent columnar digest of one packed trace."""

    __slots__ = (
        "context_size", "n_events", "n_reads", "n_writes", "n_keys",
        "instructions", "peak_lines", "contexts_created", "contexts_ended",
        "context_switches", "final_current_cid", "occupancy_weighted",
        "resident_contexts_weighted", "max_active", "max_resident",
        "alloc_order_keys", "key_first", "key_last", "key_final_value",
        "inst_cid", "end_events", "alive_instances",
    )


def _column_view(trace):
    """The packed buffer as an ``(n, 4)`` int64 matrix (zero copy)."""
    data, wide = trace.packed()
    if wide:
        return None
    if not len(data):
        return _np.empty((0, 4), dtype=_np.int64)
    return _np.frombuffer(data, dtype=_np.int64).reshape(-1, 4)


def analyze(trace):
    """Columnar analysis of ``trace``; ``None`` when out of regime.

    The result is memoized by trace content: a capacity sweep replays
    one trace against many models, and the analysis is the expensive
    (though vectorized) half of synthesis.
    """
    if _np is None or not isinstance(trace, Trace):
        return None
    key = trace.digest()
    if key in _ANALYSES:
        analysis = _ANALYSES.pop(key)
    else:
        analysis = _analyze_uncached(trace)
        if len(_ANALYSES) >= _MEMO_LIMIT:
            del _ANALYSES[next(iter(_ANALYSES))]
    _ANALYSES[key] = analysis  # most recently used last
    return analysis


def _analyze_uncached(trace):
    np = _np
    arr = _column_view(trace)
    if arr is None:
        return None
    ops = arr[:, 0]
    cids = arr[:, 1]
    offs = arr[:, 2]
    vals = arr[:, 3]

    if bool((ops == OP_FREE).any()):
        return None

    ctx = trace.context_size
    acc_mask = ops <= OP_WRITE
    acc_pos = np.flatnonzero(acc_mask)
    a = TraceAnalysis()
    a.context_size = ctx
    a.n_events = len(ops)

    # -- context instances --------------------------------------------------
    # Front-ends recycle context ids heavily (a call-depth-indexed cid
    # is begun and ended hundreds of times), so register lifetimes are
    # keyed by the *begin instance*, not the cid: instance i is the
    # i-th BEGIN event, and each access/END is attributed to the most
    # recent instance of its cid (vectorized searchsorted per cid).
    bg_pos = np.flatnonzero(ops == OP_BEGIN)
    bg_cids = cids[bg_pos]
    end_pos = np.flatnonzero(ops == OP_END)
    end_cids = cids[end_pos]
    n_inst = len(bg_pos)
    if n_inst * ctx > _MAX_KEY_SPACE:
        return None
    acc_cids = cids[acc_pos]
    acc_offs = offs[acc_pos]
    if len(acc_pos) and (int(acc_offs.min()) < 0
                         or int(acc_offs.max()) >= ctx):
        return None
    # One searchsorted over composite (cid, position) keys attributes
    # every access/END to the latest prior BEGIN of its cid: begins
    # sorted by (cid, pos) give strictly increasing keys, the query's
    # predecessor is the right instance iff its cid matches.
    if len(cids) and int(cids.min()) < 0:
        return None
    stride = len(ops) + 1
    max_cid = int(bg_cids.max()) if n_inst else 0
    if max_cid >= (1 << 62) // stride:
        return None  # composite key would overflow int64
    border = np.argsort(bg_cids, kind="stable")
    bkeys = bg_cids[border] * stride + bg_pos[border]

    def _attribute(q_cids, q_pos):
        g = np.searchsorted(bkeys, q_cids * stride + q_pos) - 1
        if not len(g):
            return g
        if int(g.min()) < 0:
            return None  # before the very first BEGIN in the trace
        inst = border[g]
        if not bool((bg_cids[inst] == q_cids).all()):
            return None  # access/END of a not-currently-begun context
        return inst

    acc_inst = _attribute(acc_cids, acc_pos)
    end_inst = _attribute(end_cids, end_pos)
    if acc_inst is None or end_inst is None:
        return None
    inst_cid = bg_cids.tolist()

    # -- per-register first/last/value scatter ------------------------------
    if len(acc_pos):
        acc_keys = acc_inst * ctx + acc_offs
        key_space = n_inst * ctx
        first = np.full(key_space, -1, dtype=np.int64)
        last = np.empty(key_space, dtype=np.int64)
        last_w = np.full(key_space, -1, dtype=np.int64)
        # scatter stores: duplicate indices keep the *last* write, so a
        # reversed scatter yields first occurrences
        last[acc_keys] = acc_pos
        first[acc_keys[::-1]] = acc_pos[::-1]
        w_sel = ops[acc_pos] == OP_WRITE
        w_pos = acc_pos[w_sel]
        last_w[acc_keys[w_sel]] = w_pos
        used = np.flatnonzero(first >= 0)
        if not bool((ops[first[used]] == OP_WRITE).all()):
            return None  # a cold read: demand reload, out of regime
        a.n_reads = int(len(acc_pos) - len(w_pos))
        a.n_writes = int(len(w_pos))
        a.n_keys = int(len(used))
        # reorder every per-key array into allocation (first write) order
        # so synthesis can walk the timeline with plain zips
        order = np.argsort(first[used], kind="stable")
        used = used[order]
        key_first = first[used]
        key_last = last[used]
        key_inst = used // ctx
        key_final_value = vals[last_w[used]]
    else:
        used = np.empty(0, dtype=np.int64)
        key_first = key_last = key_inst = used
        key_final_value = used
        a.n_reads = a.n_writes = a.n_keys = 0

    a.alloc_order_keys = used
    a.key_first = key_first
    a.key_last = key_last
    a.key_final_value = key_final_value

    # -- line-usage timeline ------------------------------------------------
    # +1 line at each first write, -k at each END freeing its context
    # instance's k lines (END spills nothing: nsf._on_end_context).
    inst_keys = np.bincount(key_inst, minlength=max(n_inst, 1))
    end_freed = inst_keys[end_inst] if len(end_pos) else end_inst
    alloc_sorted = np.sort(key_first) if len(used) else key_first
    tl_pos = np.concatenate([alloc_sorted, end_pos])
    tl_delta = np.concatenate([
        np.ones(len(alloc_sorted), dtype=np.int64), -end_freed])
    usage = np.cumsum(tl_delta[np.argsort(tl_pos, kind="stable")])
    a.peak_lines = int(usage.max()) if len(usage) else 0

    # -- tick integrals -----------------------------------------------------
    tick_pos = np.flatnonzero(ops == OP_TICK)
    tick_ns = vals[tick_pos]
    a.instructions = int(tick_ns.sum()) if len(tick_pos) else 0
    if len(tick_pos):
        allocs_before = np.searchsorted(alloc_sorted, tick_pos)
        if len(end_pos):
            freed_cum = np.concatenate([[0], np.cumsum(end_freed)])
            freed_before = freed_cum[np.searchsorted(end_pos, tick_pos)]
            active = allocs_before - freed_before
        else:
            active = allocs_before
        a.occupancy_weighted = int(np.dot(active, tick_ns))
        a.max_active = int(active.max())
        # resident contexts: +1 at an instance's first allocation, -1
        # at its END (ENDs of instances that never wrote change nothing)
        if len(used):
            inst_first = np.full(n_inst, a.n_events, dtype=np.int64)
            np.minimum.at(inst_first, key_inst, key_first)
            res_up = np.sort(inst_first[inst_first < a.n_events])
        else:
            res_up = used
        res_down = end_pos[end_freed > 0] if len(end_pos) else end_pos
        resident = (np.searchsorted(res_up, tick_pos)
                    - np.searchsorted(res_down, tick_pos))
        a.resident_contexts_weighted = int(np.dot(resident, tick_ns))
        a.max_resident = int(resident.max())
    else:
        a.occupancy_weighted = a.resident_contexts_weighted = 0
        a.max_active = a.max_resident = 0

    # -- switches and the final current context -----------------------------
    # switch_to counts only actual changes; END of the current context
    # clears it.  Sparse walk over the few hundred S/E events.
    sw_pos = np.flatnonzero(ops == OP_SWITCH)
    merged = np.concatenate([sw_pos, end_pos])
    morder = np.argsort(merged, kind="stable")
    mcids = np.concatenate([cids[sw_pos], end_cids])[morder].tolist()
    mis_end = ([False] * len(sw_pos) + [True] * len(end_pos))
    mis_end = [mis_end[i] for i in morder.tolist()]
    current = None
    switches = 0
    for cid, is_end in zip(mcids, mis_end):
        if is_end:
            if current == cid:
                current = None
        elif cid != current:
            switches += 1
            current = cid
    a.context_switches = switches
    a.final_current_cid = current

    a.contexts_created = int(len(bg_pos))
    a.contexts_ended = int(len(end_pos))
    a.inst_cid = inst_cid
    a.end_events = list(zip(end_pos.tolist(), end_inst.tolist()))
    ended_inst = set(end_inst.tolist())
    a.alive_instances = [
        (i, c) for i, c in enumerate(inst_cid) if i not in ended_inst]
    return a


def supported_model(model):
    """True when ``model`` is a pristine NSF synthesis can target."""
    return (
        type(model) is NamedStateRegisterFile
        and model.line_size == 1
        and model._policy.name in ("lru", "fifo")
        and not model.fetch_on_write
        and not model.spill_watermark
        and not model._retired
        and not model._cam
        and not model._known_cids
        and model._active == 0
        and len(model._free) == model.num_lines
        and model.current_cid is None
        and type(model.backing) is BackingStore
        and not model.backing.ctable._entries
    )


def apply_stats(analysis, model):
    """Accumulate the synthesized statistics onto ``model.stats`` only.

    Same regime checks and same False-means-untouched contract as
    :func:`apply_analysis`, but skips the end-state rebuild: O(1) per
    model instead of O(registers + contexts).  For sweep drivers that
    keep ``model.stats`` and discard the model itself — a whole
    capacity sweep then costs one shared analysis plus a constant-time
    apply per cell.
    """
    if analysis is None or not supported_model(model):
        return False
    if analysis.peak_lines > model.num_lines:
        return False  # evictions: per-access stack depth territory
    stats = model.stats
    stats.reads += analysis.n_reads
    stats.writes += analysis.n_writes
    stats.read_hits += analysis.n_reads
    stats.write_hits += analysis.n_writes - analysis.n_keys
    stats.write_misses += analysis.n_keys
    stats.instructions += analysis.instructions
    stats.occupancy_weighted += analysis.occupancy_weighted
    stats.resident_contexts_weighted += analysis.resident_contexts_weighted
    if analysis.max_active > stats.max_active_registers:
        stats.max_active_registers = analysis.max_active
    if analysis.max_resident > stats.max_resident_contexts:
        stats.max_resident_contexts = analysis.max_resident
    stats.contexts_created += analysis.contexts_created
    stats.contexts_ended += analysis.contexts_ended
    stats.context_switches += analysis.context_switches
    return True


def apply_analysis(analysis, model):
    """Synthesize the exact replay outcome onto ``model``.

    Returns False (model untouched) when the model is out of regime or
    the trace's peak register demand would force an eviction; True when
    the model now carries byte-identical stats *and* end state to a
    scalar ``replay(trace, model, verify=False)``.
    """
    if not apply_stats(analysis, model):
        return False

    # -- end state ----------------------------------------------------------
    # Replays the sparse allocation/END timeline so the free list, the
    # policy order, the CAM and the interning order all finish exactly
    # where the scalar loop leaves them.  Work here is O(registers +
    # contexts), not O(events).
    ctx = analysis.context_size
    free = model._free
    inst_cid = analysis.inst_cid
    key_line = {}
    key_meta = {}  # key -> (first position, last position, final value)
    inst_keys = {}
    end_events = analysis.end_events
    next_end = 0
    n_ends = len(end_events)
    if analysis.n_keys:
        keys_sorted = analysis.alloc_order_keys.tolist()
        firsts = analysis.key_first.tolist()
        lasts = analysis.key_last.tolist()
        finals = analysis.key_final_value.tolist()
    else:
        keys_sorted = firsts = lasts = finals = []
    cid_index = model._cid_index
    cid_list = model._cids
    for key, pos, last, final in zip(keys_sorted, firsts, lasts, finals):
        while next_end < n_ends and end_events[next_end][0] < pos:
            _release_context(model, key_line, inst_keys,
                             end_events[next_end][1])
            next_end += 1
        cid = inst_cid[key // ctx]
        if cid not in cid_index:  # intern in first-allocation order,
            cid_index[cid] = len(cid_list)  # exactly as _pack would
            cid_list.append(cid)
        key_line[key] = free.pop()
        key_meta[key] = (pos, last, final)
        inst_keys.setdefault(key // ctx, []).append(key)
    while next_end < n_ends:
        _release_context(model, key_line, inst_keys,
                         end_events[next_end][1])
        next_end += 1

    # survivors: bind lines, store final values, rebuild the policy
    # order (LRU: last-touch order; FIFO: insertion order)
    lru = model._policy.name == "lru"
    pick = 1 if lru else 0
    for key in sorted(key_line, key=lambda k: key_meta[k][pick]):
        inst, offset = divmod(key, ctx)
        cid = inst_cid[inst]
        index = key_line[key]
        tag = cid_index[cid] << model._tag_shift | offset
        line = model._lines[index]
        line.tag = tag
        line.values[0] = key_meta[key][2]
        line.valid[0] = True
        line.valid_count = 1
        model._cam[tag] = index
        model._policy.insert(index)
        owned = model._context_lines.get(cid)
        if owned is None:
            owned = model._context_lines[cid] = set()
        owned.add(index)
    model._active = len(key_line)

    # -- context bookkeeping ------------------------------------------------
    # A context that ended and re-began reuses its cid but got a fresh
    # base from the bump allocator at each BEGIN, so ctable entries for
    # the surviving instances carry their begin-ordinal base.
    base = model._next_base
    for i, cid in analysis.alive_instances:
        model.backing.ctable.set(cid, base + 0x100 * i)
    model._next_base = base + 0x100 * analysis.contexts_created
    model._known_cids = {cid for _, cid in analysis.alive_instances}
    model.current_cid = analysis.final_current_cid
    return True


def _release_context(model, key_line, inst_keys, inst):
    """END during the sparse timeline replay: free the instance's lines
    in the same sorted-physical-index order as ``_on_end_context``."""
    keys = inst_keys.pop(inst, None)
    if not keys:
        return
    model._free.extend(sorted(key_line.pop(key) for key in keys))


def replay_columnar(trace, model):
    """Drive ``model`` with ``trace`` through the columnar engine.

    Synthesizes the outcome from the vectorized whole-trace analysis
    when the (trace, model) pair is inside the exactness boundary, and
    falls back to the scalar packed loop otherwise.  Either way the
    statistics are byte-identical to ``replay(trace, model,
    verify=False)``.
    """
    if not isinstance(trace, Trace):
        return _event_replay(trace, model, verify=False)
    if model.context_size < trace.context_size:
        raise ValueError(
            f"model context_size {model.context_size} smaller than the "
            f"trace's {trace.context_size}"
        )
    if not (supported_model(model)
            and apply_analysis(analyze(trace), model)):
        _replay_fast(trace, model)
    return model
