"""The oracle's closed form: a whole-trace analysis of packed traces.

The packed event array (four int64s per event, :mod:`repro.trace.events`)
is already columnar in spirit; this module finishes the job.  NumPy
views the flat ``array('q')`` buffer as an ``(n, 4)`` matrix and a
single global pass derives the counts a replay that never evicts would
accumulate one event at a time:

* context *instances* (the i-th ``BEGIN`` event; front-ends recycle
  context ids hundreds of times, so register lifetimes key on the
  instance, not the cid),
* per-register first accesses (scatter stores over a dense
  ``instance * context_size + offset`` key space),
* the allocation / context-end timeline and its running line-usage
  curve, whose maximum is the trace's peak register demand,
* tick-weighted occupancy and resident-context integrals
  (``searchsorted`` of tick positions into the timeline),
* context-switch runs.

The analysis is **model independent**: it is computed once per trace
and memoized, and :func:`apply_stats` then writes the exact statistics
of a replay onto a model in O(1).  :mod:`repro.trace.oracle` serves
every capacity at or above the trace's peak this way and scans for the
capacities below it.

Exactness boundary
------------------

The closed form reproduces event replay's statistics only in the regime
the analysis can prove from the trace alone:

* :func:`repro.trace.admit.admit` admits the model to the tables'
  NSF family: a fresh exact ``NamedStateRegisterFile`` with one
  register per line, LRU victims, write-allocate misses
  (``fetch_on_write=False``) and no dribble-back watermark, over a
  plain backing store;
* the trace passes :func:`attribute`, the one trace check the closed
  form shares with the oracle's scans (no wide values, contexts
  accessed only between their ``BEGIN`` and ``END``, every register's
  first access a write: true of every recorder-produced trace whose
  workload ran strict), and never calls ``free_register``;
* the peak number of simultaneously live registers fits in the file —
  i.e. **no eviction ever happens** (:func:`repro.trace.oracle.closed_form`).

NumPy is imported on first use, by the ``oracle`` engine only:
importing this module (which ``repro.trace`` does) costs a process on
the default ``event`` engine nothing.
"""

import os
import sys

from repro.trace import lru
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_SWITCH,
    OP_TICK,
    OP_WRITE,
)

#: env var selecting the replay engine used by the experiment harness
ENV_ENGINE = "REPRO_REPLAY_ENGINE"

#: recognized engine names (``event`` is the scalar exact loop)
ENGINES = ("event", "oracle")

#: refuse to allocate dense scatter tables beyond this many keys
_MAX_KEY_SPACE = 1 << 20

#: in-process memo of analyses, keyed by :meth:`Trace.digest` and kept
#: in least-recently-used order by :mod:`repro.trace.lru`.  An analysis
#: is a dozen integers, and one sweep process visits a few dozen
#: distinct traces.
_ANALYSES = {}
_MEMO_LIMIT = 32


def _numpy():
    """NumPy, imported on first use.

    The program's only NumPy import.  It keeps no flag of its own: once
    NumPy is loaded the import statement is a ``sys.modules`` lookup,
    and a thread that asks while another is still importing NumPy
    waits on the import system's module lock.

    Before the first import it defaults NumPy's BLAS pool to one
    thread (a value the user set is kept).  This program's NumPy work
    is integer and boolean vectors, which never use the pool, and the
    pool's threads would make the process refuse every fork
    (:func:`repro.ioutil.fork_unavailable`).
    """
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        os.environ.setdefault("OMP_NUM_THREADS", "1")
    import numpy

    return numpy


def selected_engine():
    """The replay engine chosen via ``REPRO_REPLAY_ENGINE``.

    Unknown names fall back to ``event`` rather than erroring: a sweep
    cell inheriting a typo'd environment must still produce correct
    numbers.
    """
    name = os.environ.get(ENV_ENGINE, "").strip().lower()
    return name if name in ENGINES else "event"


class TraceAnalysis:
    """Model-independent columnar digest of one packed trace."""

    __slots__ = (
        "n_reads", "n_writes", "n_keys", "instructions", "peak_lines",
        "contexts_created", "contexts_ended", "context_switches",
        "occupancy_weighted", "resident_contexts_weighted", "max_active",
        "max_resident",
    )


def _column_view(trace):
    """The packed buffer as an ``(n, 4)`` int64 matrix (zero copy)."""
    data, wide = trace.packed()
    if wide:
        return None
    np = _numpy()
    if not len(data):
        return np.empty((0, 4), dtype=np.int64)
    return np.frombuffer(data, dtype=np.int64).reshape(-1, 4)


class OracleUnsupported(ValueError):
    """The trace or model is outside the oracle's exactness boundary."""


class Attribution:
    """One trace's columns, its register events attributed to context
    instances (:func:`attribute`); ``frees`` is True when the trace
    holds ``FREE`` ops, which the tables price and the closed form
    refuses."""

    __slots__ = ("ops", "cids", "offs", "vals", "kpos", "keys", "used",
                 "key_first", "n_inst", "end_pos", "end_inst",
                 "context_switches", "frees")


def attribute(trace):
    """Validate ``trace`` for the oracle and attribute its register
    events to context instances; the one trace check of the closed
    form, the LRU kernel and the segmented walk.

    Front-ends recycle context ids heavily (a call-depth-indexed cid is
    begun and ended hundreds of times), so register lifetimes are keyed
    by the *begin instance*, not the cid: instance i is the i-th
    ``BEGIN`` event, and each register event and ``END`` belongs to the
    latest prior ``BEGIN`` of its cid.  The register events are the
    reads, writes and ``FREE`` ops, and each one's key is
    ``instance * context_size + offset``.

    Raises :class:`OracleUnsupported` for wide values, offsets outside
    the context, negative context ids, a composite key that would
    overflow int64, a key space above ``_MAX_KEY_SPACE``, a register
    event or ``END`` outside its context's ``BEGIN``/``END`` (before
    its ``BEGIN`` or after its ``END``), a second ``END`` of one
    instance, a ``BEGIN`` of a context that is still live, and a
    register whose first event is a read (a cold read: demand
    reload).
    """
    np = _numpy()
    arr = _column_view(trace)
    if arr is None:
        raise OracleUnsupported("trace carries wide values")
    ops = arr[:, 0]
    cids = arr[:, 1]
    offs = arr[:, 2]
    n = len(ops)
    ctx = trace.context_size
    free_mask = ops == OP_FREE
    kpos = np.flatnonzero((ops <= OP_WRITE) | free_mask)
    koffs = offs[kpos]
    if len(kpos) and (int(koffs.min()) < 0 or int(koffs.max()) >= ctx):
        raise OracleUnsupported("register offset outside the context")
    if n and int(cids.min()) < 0:
        raise OracleUnsupported("negative context id")
    bg_pos = np.flatnonzero(ops == OP_BEGIN)
    bg_cids = cids[bg_pos]
    n_inst = len(bg_pos)
    if n_inst * ctx > _MAX_KEY_SPACE:
        raise OracleUnsupported("too many registers to key densely")
    # One searchsorted over composite (cid, position) keys attributes
    # every event to the latest prior BEGIN of its cid: begins sorted
    # by (cid, pos) give strictly increasing keys, the query's
    # predecessor is the right instance iff its cid matches.
    stride = n + 1
    if n_inst and int(bg_cids.max()) >= (1 << 62) // stride:
        raise OracleUnsupported("context id overflows the composite key")
    border = np.argsort(bg_cids, kind="stable")
    bkeys = bg_cids[border] * stride + bg_pos[border]

    def _instances(pos, what):
        q_cids = cids[pos]
        g = np.searchsorted(bkeys, q_cids * stride + pos) - 1
        if len(g) and (int(g.min()) < 0
                       or not bool((bg_cids[border[g]] == q_cids).all())):
            raise OracleUnsupported(f"{what} outside BEGIN/END")
        return border[g]

    end_pos = np.flatnonzero(ops == OP_END)
    kinst = _instances(kpos, "register access")
    end_inst = _instances(end_pos, "END")
    if len(end_inst) != len(np.unique(end_inst)):
        raise OracleUnsupported("a second END of one context")
    inst_end = np.full(max(n_inst, 1), n, dtype=np.int64)
    inst_end[end_inst] = end_pos
    if len(kpos) and not bool((kpos < inst_end[kinst]).all()):
        raise OracleUnsupported("register access after its context's END")
    # begins sorted by (cid, pos): each instance must end before the
    # next BEGIN of its cid
    later = border[1:]
    if bool(((bg_cids[later] == bg_cids[border[:-1]])
             & (inst_end[border[:-1]] > bg_pos[later])).any()):
        raise OracleUnsupported("BEGIN of a context that is still live")

    # each register's first event: scatter stores keep the *last* of
    # duplicate indices, so a reversed scatter yields first occurrences
    keys = kinst * ctx + koffs
    first = np.full(n_inst * ctx, -1, dtype=np.int64)
    first[keys[::-1]] = kpos[::-1]
    used = np.flatnonzero(first >= 0)
    key_first = first[used]
    cold = key_first[ops[key_first] == OP_READ]
    if len(cold):
        bad = int(cold.min())
        raise OracleUnsupported(
            f"cold read of ({int(cids[bad])}, {int(offs[bad])})")

    # switch_to counts only actual changes; END of the current context
    # clears it.  Sparse walk over the few hundred S/E events.
    switches = 0
    sw_pos = np.flatnonzero(ops == OP_SWITCH)
    if len(sw_pos):
        at = np.concatenate([sw_pos, end_pos])
        order = np.argsort(at, kind="stable")
        ended = (order >= len(sw_pos)).tolist()
        current = None
        for cid, is_end in zip(cids[at[order]].tolist(), ended):
            if is_end:
                if current == cid:
                    current = None
            elif cid != current:
                switches += 1
                current = cid

    events = Attribution()
    events.ops, events.cids, events.offs = ops, cids, offs
    events.vals = arr[:, 3]
    events.kpos, events.keys, events.used = kpos, keys, used
    events.key_first, events.n_inst = key_first, n_inst
    events.end_pos, events.end_inst = end_pos, end_inst
    events.context_switches = switches
    events.frees = bool(free_mask.any())
    return events


def analyze(trace):
    """Columnar analysis of ``trace``; ``None`` when out of regime.

    The result is memoized by trace content: a capacity sweep serves
    one trace to many models.
    """
    key = trace.digest()
    if key in _ANALYSES:  # an out-of-regime ``None`` is memoized too
        return lru.get(_ANALYSES, key)
    return lru.put(_ANALYSES, key, _analyze_uncached(trace), _MEMO_LIMIT)


def _analyze_uncached(trace):
    try:
        events = attribute(trace)
    except OracleUnsupported:
        return None
    if events.frees:
        return None
    np = _numpy()
    ops = events.ops
    n_events = len(ops)
    n_inst = events.n_inst
    end_pos = events.end_pos
    end_inst = events.end_inst
    key_first = events.key_first
    key_inst = events.used // trace.context_size
    a = TraceAnalysis()
    a.n_writes = int((ops[events.kpos] == OP_WRITE).sum())
    a.n_reads = len(events.kpos) - a.n_writes
    a.n_keys = len(events.used)

    # -- line-usage timeline ------------------------------------------------
    # +1 line at each first write, -k at each END freeing its context
    # instance's k lines (END spills nothing: nsf._on_end_context).
    inst_keys = np.bincount(key_inst, minlength=max(n_inst, 1))
    end_freed = inst_keys[end_inst] if len(end_pos) else end_inst
    alloc_sorted = np.sort(key_first)
    tl_pos = np.concatenate([alloc_sorted, end_pos])
    tl_delta = np.concatenate([
        np.ones(len(alloc_sorted), dtype=np.int64), -end_freed])
    usage = np.cumsum(tl_delta[np.argsort(tl_pos, kind="stable")])
    a.peak_lines = int(usage.max()) if len(usage) else 0

    # -- tick integrals -----------------------------------------------------
    tick_pos = np.flatnonzero(ops == OP_TICK)
    tick_ns = events.vals[tick_pos]
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
        if len(key_first):
            inst_first = np.full(n_inst, n_events, dtype=np.int64)
            np.minimum.at(inst_first, key_inst, key_first)
            res_up = np.sort(inst_first[inst_first < n_events])
        else:
            res_up = key_first
        res_down = end_pos[end_freed > 0] if len(end_pos) else end_pos
        resident = (np.searchsorted(res_up, tick_pos)
                    - np.searchsorted(res_down, tick_pos))
        a.resident_contexts_weighted = int(np.dot(resident, tick_ns))
        a.max_resident = int(resident.max())
    else:
        a.occupancy_weighted = a.resident_contexts_weighted = 0
        a.max_active = a.max_resident = 0

    a.context_switches = events.context_switches
    a.contexts_created = n_inst
    a.contexts_ended = int(len(end_pos))
    return a


def apply_stats(analysis, model):
    """Accumulate the synthesized statistics onto ``model.stats``.

    Only for a model the closed form serves
    (:func:`repro.trace.oracle.closed_form`): ``model.stats`` then
    equals what ``replay(trace, model, verify=False)`` would leave.
    The model's internal state is not rebuilt: O(1) per model, for
    sweeps that keep ``model.stats`` and discard the model itself.
    Returns the model.
    """
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
    return model
