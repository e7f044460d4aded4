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
  NSF family at ``line_size=1``: a fresh exact
  ``NamedStateRegisterFile`` with an LRU-family policy
  (``lru``/``fifo``), write-allocate misses (``fetch_on_write=False``)
  and no dribble-back watermark, over a plain backing store;
* the trace never calls ``free_register``, carries no wide values,
  accesses contexts only between their ``BEGIN`` and ``END``, and every
  register's first access is a write (true of every recorder-produced
  trace whose workload ran strict);
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
    np = _numpy()
    arr = _column_view(trace)
    if arr is None:
        return None
    ops = arr[:, 0]
    cids = arr[:, 1]
    offs = arr[:, 2]
    vals = arr[:, 3]

    if bool((ops == OP_FREE).any()):
        return None

    n_events = len(ops)
    ctx = trace.context_size
    acc_pos = np.flatnonzero(ops <= OP_WRITE)
    a = TraceAnalysis()

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
    stride = n_events + 1
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
    if len(end_inst) != len(np.unique(end_inst)):
        return None  # a second END of one instance
    inst_end = np.full(max(n_inst, 1), n_events, dtype=np.int64)
    inst_end[end_inst] = end_pos
    if len(acc_pos) and not bool((acc_pos < inst_end[acc_inst]).all()):
        return None  # an access after its context's END

    # -- per-register first access ------------------------------------------
    if len(acc_pos):
        acc_keys = acc_inst * ctx + acc_offs
        first = np.full(n_inst * ctx, -1, dtype=np.int64)
        # scatter stores: duplicate indices keep the *last* write, so a
        # reversed scatter yields first occurrences
        first[acc_keys[::-1]] = acc_pos[::-1]
        used = np.flatnonzero(first >= 0)
        key_first = first[used]
        if not bool((ops[key_first] == OP_WRITE).all()):
            return None  # a cold read: demand reload, out of regime
        n_writes = int((ops[acc_pos] == OP_WRITE).sum())
        a.n_reads = len(acc_pos) - n_writes
        a.n_writes = n_writes
        a.n_keys = len(used)
        key_inst = used // ctx
    else:
        key_first = key_inst = np.empty(0, dtype=np.int64)
        a.n_reads = a.n_writes = a.n_keys = 0

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

    # -- switches -----------------------------------------------------------
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

    a.contexts_created = int(len(bg_pos))
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
