"""Shared configuration for the experiment harness.

The paper's §7 simulation setup:

* sequential programs: 20-register contexts, 80-register files;
* parallel programs: 32-register contexts, 128-register files;
* the segmented baseline has 4 equal frames;
* the NSF is organized with one register per line, LRU victims.

Execution engine: every sweep here is **replay-driven** by default.
The workload front-ends (activation machine, thread scheduler) are the
expensive part of a cell, and their event stream depends only on
``(workload, scale, seed)`` — so :func:`run_workload` fetches the
recorded trace from the content-addressed cache
(:mod:`repro.trace.cache`) and replays it onto the model under test,
exactly the paper's record-once/replay-many methodology.  The stats
are identical to direct execution by construction (pinned by
``tests/test_trace_crossvalidation.py`` and the golden tables); set
``REPRO_NO_TRACE_CACHE=1`` (or pass ``--no-trace-cache`` to the CLIs)
to force direct execution.

A timing-sensitive workload (Gamteb) has no shared trace: its cell
runs the front-end directly on the model under test.

Each distinct (cell, fresh model) pair is served at most once per
cache: the figures read different statistics off the same cells, and
the first end state is kept as a *result entry* of the trace cache
(:class:`repro.trace.cache.Result`, named by the cell's workload,
context size, scale and seed, the model's class and config, and the
model and replay sources).  A fresh model the result memo holds looks
its entry up before the engine is asked, under either engine, and
``restore()``s it instead of replaying or running; an event replay of
such a model publishes one, and so does a direct run of a
timing-sensitive cell.  Under ``REPRO_REPLAY_ENGINE=oracle`` the other
cells of a :func:`capacity_plan` are served from the oracle's closed
form and design-space tables where they can be, and each such cell
publishes the served model as its *oracle entry*, which only a later
cell the oracle could serve itself restores; every other cell takes
the same event replay.

An experiment that drives many models hands them to :func:`run_cells`
in one batch.  It first runs the front-ends of the traces the batch
lacks, and the direct runs of its fresh timing-sensitive cells (each
on a copy of its model), then computes the replays and oracle scans
its cache and memos lack, both in forked children on every CPU the
process may use, and serves each cell in-process exactly as
:func:`run_workload` would have: every cache lookup, lock, publish and
fault draw, result entries' too, stays here, in cell order.
:func:`fan_out` is the one fork-worker loop behind it; the storage-
fault chaos campaign spreads its cells with it too.
"""

import collections
import copy
import marshal
import os
import threading
from contextlib import contextmanager

from repro.core import NamedStateRegisterFile, SegmentedRegisterFile
from repro.ioutil import (
    fork_unavailable,
    kill_and_reap,
    read_reply,
    reply_and_exit,
)
from repro.trace import cache as trace_cache, lru
from repro.trace.admit import admit
from repro.trace.columnar import selected_engine
from repro.trace.events import Trace

# ``perfbench/spans.py`` wraps ``replay``, ``serve_from_tables`` and
# ``replay_oracle`` (below) where this module's callers look them up,
# as attributes of this module: renaming one breaks ``perfbench/tests``
# (ROADMAP item 7).
from repro.trace.oracle import (
    closed_form,
    merge_tables,
    scan_siblings,
    scan_tables,
    serve_from_tables,
    table_request,
)
from repro.trace.replay import replay

SEQ_REGISTERS = 80
PAR_REGISTERS = 128

#: the two representative applications of §7.2
REPRESENTATIVE_SEQUENTIAL = "GateSim"
REPRESENTATIVE_PARALLEL = "Gamteb"


def registers_for(workload):
    return SEQ_REGISTERS if workload.kind == "sequential" else PAR_REGISTERS


def make_nsf(workload, num_registers=None, line_size=1, **kw):
    """The paper's default NSF for a workload's register budget."""
    return NamedStateRegisterFile(
        num_registers=num_registers or registers_for(workload),
        context_size=workload.context_size,
        line_size=line_size,
        **kw,
    )


def make_segmented(workload, num_registers=None, **kw):
    """The paper's default segmented file (frames = context size)."""
    return SegmentedRegisterFile(
        num_registers=num_registers or registers_for(workload),
        context_size=workload.context_size,
        **kw,
    )


#: active :func:`capacity_plan` grids (innermost last)
_PLAN = []


@contextmanager
def capacity_plan(register_budgets):
    """Announce the register budgets the enclosed sweep will visit.

    Under ``--engine oracle`` every in-regime cell inside the block is
    served without a replay (:func:`~repro.trace.oracle.serve_from_tables`):
    at or above the trace's peak demand by the O(1) columnar closed
    form, below it from the design-space tables of
    :mod:`repro.trace.oracle`.  Those are memoized by trace content for
    the whole process, and one stack-distance scan per (trace, design
    family) covers every announced capacity the table still lacks, so
    each further capacity point costs an O(1) table application.  A
    timing-sensitive workload (``trace_stable=False``) has no trace to
    price: its cell restores its result entry or runs directly.  A
    fresh model whose cell already has a result
    entry restores it before the plan is consulted, and a cell the
    closed form or a table served publishes its oracle entry, which a
    later cell of the block restores.  Declaring a plan says the
    experiment reads statistics alone off its models: an oracle entry
    holds a fresh model's internals under the served statistics.
    Cells outside the oracle's exactness boundary
    (FIFO or NMRU victims, lines of more than one register, line-scope
    reloads, wide-value traces) transparently fall back to event
    replay, and the ``event`` engine ignores the plan entirely —
    results are byte-identical across engines by construction.
    """
    _PLAN.append(tuple(int(b) for b in register_budgets))
    try:
        yield
    finally:
        _PLAN.pop()


#: process-local counters of the result store: ``hits`` counts cells
#: that restored an entry of either kind, ``misses`` cells that
#: published one: an event replay or a timing-sensitive cell's direct
#: run its replay result (a forked job's at its cell), and a cell the
#: closed form or a table served its oracle entry
RESULT_STATS = lru.MemoStats()


def _restored(result, model):
    """Restore the end state ``result`` (a cell's
    :class:`~repro.trace.cache.Result`, ``None`` for a model the store
    does not hold) has stored onto ``model``, a counted hit; False when
    there is none to take."""
    if result is None:
        return False
    state = result.load()
    if state is None:
        return False
    RESULT_STATS.hits += 1
    model.restore(state)
    return True


def _published(result, payload):
    """Publish a served cell's end state as ``result``, a counted
    miss."""
    RESULT_STATS.misses += 1
    result.publish(payload)


def _replay_event(trace, model, result=None):
    """Event replay of ``trace`` onto ``model``; when ``result`` is the
    cell's result entry (the model is fresh and the result memo holds
    it), the end state is published there, so the next fresh model of
    this configuration restores it instead."""
    replay(trace, model, verify=False)
    if result is not None:
        _published(result, result.payload(model))
    return model


#: the oracle engine's route for every cell its closed form and tables
#: do not serve: the same event replay, under a name of its own so that
#: the two routes can be told apart where callers look them up
replay_oracle = _replay_event


def _replay(trace, model, result=None, oracle=None):
    """Replay through the engine ``REPRO_REPLAY_ENGINE`` selects.

    ``event`` (the default) is the scalar packed loop
    (:func:`_replay_event`).  Under ``oracle`` a cell inside a
    :func:`capacity_plan` block is served by
    :func:`~repro.trace.oracle.serve_from_tables` when it can be: at or
    above the trace's peak demand by the closed form, below it from the
    shared design-space tables; the served model's end state is then
    published as ``oracle``, the cell's oracle entry (when it has one).
    Every other cell goes to :func:`replay_oracle`, the event replay,
    which publishes ``result``; both engines leave byte-identical
    statistics by construction.  The cell's entries were looked up
    before (:meth:`_Cell.drive`).
    """
    if selected_engine() == "oracle":
        if _PLAN and serve_from_tables(trace, model, _PLAN[-1]):
            if oracle is not None:
                _published(oracle, oracle.payload(model))
            return model
        return replay_oracle(trace, model, result)
    return _replay_event(trace, model, result)


def _oracle_entry(workload, scale, seed, result):
    """The oracle entry of a cell whose replay result is ``result``,
    when the oracle could serve the cell itself: the engine is
    ``oracle``, a :func:`capacity_plan` is open and the result memo
    holds the fresh model (``result`` is not ``None``); else ``None``.
    The ``event`` engine needs a full end state, and a cell outside a
    plan may be read for more than its statistics, so neither ever
    restores one."""
    if result is None or not _PLAN or selected_engine() != "oracle":
        return None
    return trace_cache.Result(workload, scale, seed, result.key,
                              result.path.parent, oracle=True)


class _Cell:
    """One cell whose trace is resolved and whose serving is pending.

    ``trace`` ``None`` is a direct run of the front-end.  ``result`` is
    the cell's replay result, read off the model while it was fresh
    (``None`` for a model the store does not hold), and ``oracle`` its
    oracle entry (:func:`_oracle_entry`).
    """

    __slots__ = ("workload", "model", "scale", "seed", "trace", "result",
                 "oracle", "done", "end", "error")

    def __init__(self, workload, model, scale, seed, trace, result=None):
        self.workload = workload
        self.model = model
        self.scale = scale
        self.seed = seed
        self.trace = trace
        self.result = result
        self.oracle = _oracle_entry(workload, scale, seed, result)
        #: a fanned-out job already left the model in its end state
        self.done = False
        #: that end state, as :meth:`Result.payload
        #: <repro.trace.cache.Result.payload>` encodes it
        self.end = None
        #: what that job raised in this process instead
        self.error = None

    def drive(self):
        """Serve the cell here, as :func:`run_workload` does: restore
        its entry (:meth:`entry`), else take what its job left
        (publishing the end state) or raised, else ask the engine; the
        same last rung."""
        if self.trace is None:
            self.workload.run(self.model, scale=self.scale, seed=self.seed)
            return
        try:
            if _restored(self.entry(), self.model):
                return
            if self.error is not None:
                raise self.error
            if not self.done:
                _replay(self.trace, self.model, self.result, self.oracle)
            elif self.result is not None:
                _published(self.result, self.end)
        except OSError:
            self.workload.run(self.model, scale=self.scale,
                              seed=self.seed)

    def entry(self):
        """The one entry the cell looks up: its oracle entry when that
        is cached and its replay result is not, else its replay result
        (``None`` for a model the store does not hold).  Chosen by
        :meth:`~repro.trace.cache.Result.cached`, with no fault draw,
        count or log line."""
        oracle = self.oracle
        if (oracle is not None and not self.result.cached()
                and oracle.cached()):
            return oracle
        return self.result


#: per thread, the pending cells of the innermost open
#: :func:`run_cells` batch (absent outside one)
_BATCH = threading.local()


def run_workload(workload, model, scale=1.0, seed=1):
    """Drive ``model`` with ``workload``; returns the model.

    Replays the cached register-reference trace (recording it on first
    use) when the trace cache is enabled; falls back to executing the
    workload front-end directly when it is not.  Both paths leave
    byte-identical statistics on the model.  A fresh model the result
    memo holds (:func:`~repro.trace.cache.result_entry`) first looks up
    the result entry of its cell and ``restore()``s it when there is
    one, under either engine; otherwise the engine serves the cell, and
    an event replay publishes that entry.

    A workload whose stream is timing-sensitive (``trace_stable`` is
    False) has no shared trace.  A fresh model the result memo holds
    looks its cell's result entry up here, once: a hit restores it, and
    a miss runs the front-end directly
    (:func:`~repro.trace.cache.record_through`), which publishes the
    run's end state as that entry.  A fresh model the memo does not
    hold (a compressing backing store, whose codec round trips must all
    run) runs directly too, with no lookup and no publish, and so does
    any other model (driven, wrapped, subclassed): its run need not be
    the fresh run an entry memoizes.

    Degradation ladder: warm cache -> quarantine + re-record (inside
    the cache) -> on persistent storage failure, **direct execution**
    with the cache out of the loop — slower, but statistics identical
    by construction.  A cell therefore only ever surfaces an error in
    the journal when the computation itself fails, never because the
    disk lied.

    Inside :func:`run_cells` the trace is resolved here as always, and
    the rest of the cell is left to the batch; a model an earlier cell
    of the batch drives counts as driven, so its cell is served in
    order after that one, as a serial pass serves it.
    """
    pending = getattr(_BATCH, "cells", None)
    # inside a batch, a model an earlier cell drives is driven already
    driven = pending is not None and any(cell.model is model
                                         for cell in pending)
    verdict = admit(model)
    fresh = verdict.fresh and not driven
    trace = result = None
    if trace_cache.enabled() and (workload.trace_stable or fresh):
        try:
            if fresh:
                result = trace_cache.result_entry(workload, model, scale,
                                                  seed, verdict)
            if not workload.trace_stable:
                if not _restored(result, model):
                    if result is not None:
                        RESULT_STATS.misses += 1
                    trace_cache.record_through(workload, model, scale=scale,
                                               seed=seed, result=result)
                return model
            trace = trace_cache.load_or_record(workload, scale=scale,
                                               seed=seed)
        except OSError:
            # the cache's own retries/quarantine already failed: last
            # rung, direct execution
            trace = result = None
    cell = _Cell(workload, model, scale, seed, trace, result)
    if pending is None or (trace is None and not driven):
        cell.drive()
    else:
        pending.append(cell)
    return model


# -- fanning a batch of cells out over the CPUs ------------------------------


class FanoutStats:
    """Process-local account of :func:`run_cells` batches.

    ``forked`` counts jobs a child computed and the parent merged,
    ``parent`` the jobs the parent computed itself, and ``refused``
    maps each reason a step with jobs did not fork to its count.  A
    job whose child failed is neither: its cell replays in-process.
    ``recordings`` counts the recordings and direct runs batches tried
    to make ahead of their lookups (a batch's lone one is made at its
    cell and not counted) and ``recorded`` those a child made; every
    other one is made in this process.
    """

    __slots__ = ("batches", "forked", "parent", "refused", "recordings",
                 "recorded")

    def __init__(self):
        self.reset()

    def reset(self):
        self.batches = self.forked = self.parent = 0
        self.recordings = self.recorded = 0
        self.refused = {}

    def summary(self):
        line = (f"{self.forked} of {self.forked + self.parent} cell "
                f"job(s) forked in {self.batches} batch(es)")
        if self.recordings:
            line += (f"; {self.recorded} of {self.recordings} "
                     "recording(s) forked")
        if self.refused:
            line += "; not forked: " + ", ".join(
                f"{reason} ({count}x)"
                for reason, count in self.refused.items())
        return line


FANOUT = FanoutStats()

#: task indices the pre-filled queue pipe takes without blocking (4 KiB,
#: within every pipe's capacity); later tasks are the caller's to run
_QUEUE_LIMIT = 1024


def run_cells(cells, scale=1.0, seed=1):
    """Drive every ``(workload, model)`` cell of one experiment.

    Leaves each model exactly as :func:`run_workload` on each cell in
    order would, in five steps:

    1. plan, without side effects, the traces the cells would record
       and the direct runs their fresh timing-sensitive cells would make
       (:func:`_recordings`), and run those front-ends in forked
       children on every CPU this process may use, the parent taking
       jobs too; a direct run runs on a copy of its model, whose end
       state comes back;
    2. resolve every cell's trace in order, in this process, through
       :func:`run_workload` itself, so every lookup, lock, publish,
       quarantine, chaos draw, cache count and log line happens once
       and in the serial order; a recording or run step 1 made is
       handed to the recorder (:func:`repro.trace.cache.handoff`)
       instead of executing the front-end again, and a timing-sensitive
       cell is served there, as it is resolved;
    3. plan, without side effects, what the cells lack: nothing for a
       cell whose result entry is memoized or on disk, else a table
       scan for a cell the oracle's tables will serve and a replay for
       every other cell the engine would replay;
    4. compute those jobs the same way as step 1's, merging the tables
       they send back into the oracle's memo and each end state into
       its cell's model;
    5. serve every cell in order (:meth:`_Cell.drive`): its result
       entry is looked up here, and a miss takes what its job left,
       publishing the end state, or a table hit, or the plain serial
       path for anything no job covered.

    Where forking is refused (a second thread, one CPU) steps 1 and 4
    compute nothing ahead, and steps 2 and 5 are the serial pass
    itself.  A job a child could not finish (it died, was killed or
    raised) is left to the serial path, which runs it here, so a
    failure never changes a number or an error; a recording that
    raised in this process raises again at its cell.  If resolving a
    cell raises, the cells before it are driven first, as a serial
    pass would have, and no replay forks.  A recording no lookup took
    is dropped with the batch.
    """
    FANOUT.batches += 1
    cells = list(cells)
    outer = getattr(_BATCH, "cells", None)
    _BATCH.cells = pending = []
    try:
        with trace_cache.handoff():
            _record_ahead(_recordings(cells, scale, seed))
            try:
                for workload, model in cells:
                    run_workload(workload, model, scale=scale, seed=seed)
            except Exception:
                for cell in pending:
                    cell.drive()
                raise
    finally:
        _BATCH.cells = outer
    _fan_out_jobs(_jobs(pending))
    for cell in pending:
        cell.drive()


def run_pairs(pairs, scale=1.0, seed=1):
    """One fresh NSF and segmented file per ``(workload, register
    budget)`` pair, all driven in one :func:`run_cells` batch; returns
    their ``(nsf stats, segmented stats)`` in pair order.  A budget of
    ``None`` is the workload's default."""
    models = [(workload,
               make_nsf(workload, num_registers=budget),
               make_segmented(workload, num_registers=budget))
              for workload, budget in pairs]
    run_cells([(workload, model) for workload, nsf, seg in models
               for model in (nsf, seg)], scale=scale, seed=seed)
    return [(nsf.stats, seg.stats) for _, nsf, seg in models]


def run_pair_totals(groups, scale=1.0, seed=1):
    """:func:`run_pairs` over every group of pairs in one batch;
    returns each group's summed ``(nsf stats, segmented stats)``."""
    pairs = iter(run_pairs([pair for group in groups for pair in group],
                           scale=scale, seed=seed))
    totals = []
    for group in groups:
        nsf_total = seg_total = None
        for _ in group:
            nsf, seg = next(pairs)
            nsf_total = nsf if nsf_total is None else nsf_total + nsf
            seg_total = seg if seg_total is None else seg_total + seg
        totals.append((nsf_total, seg_total))
    return totals


class _Recording:
    """One front-end a batch runs ahead of its lookups (step 1 of
    :func:`run_cells`), into the hand-off ``planned`` of its lookup.

    ``model`` is ``None`` for a ``trace_stable`` trace, which records
    over the cache's own model; otherwise the front-end runs directly
    on a copy of the cell's fresh model, never driven, so the model
    itself stays untouched until its cell ``restore()``s the copy's end
    state.
    """

    __slots__ = ("workload", "model", "scale", "seed", "planned")

    def __init__(self, workload, model, scale, seed, planned):
        self.workload = workload
        self.model = model
        self.scale = scale
        self.seed = seed
        self.planned = planned

    def _make(self, model):
        """The recording of a shared trace (``model`` ``None``), or the
        :func:`~repro.trace.cache.end_payload` of a direct run on
        ``model``."""
        if model is None:
            return trace_cache.run_traced(self.workload, scale=self.scale,
                                          seed=self.seed)
        key = trace_cache.end_key(model, admit(model))
        self.workload.run(model, scale=self.scale, seed=self.seed)
        return trace_cache.end_payload(key, model)

    def reply(self):
        """What a worker sends back: the packed trace, published as it
        is, or the end payload (the worker's model is its own copy)."""
        made = self._make(self.model)
        return made.dumps_binary() if self.model is None else made

    def here(self):
        """Make it in this process, on a copy of the model; what it
        raises is raised again at its cell."""
        model = None if self.model is None else copy.deepcopy(self.model)
        try:
            self.planned.made = self._make(model)
        except Exception as exc:
            self.planned.error = exc

    def merge(self, reply):
        """Keep what a worker made, a trace decoded once."""
        if self.model is None:
            self.planned.payload = reply
            reply = Trace.loads_binary(reply)
        self.planned.made = reply


def _recordings(cells, scale, seed):
    """What the cells' lookups will miss, planned without side effects:
    the recording of each shared trace that is neither memoized nor on
    disk, at its first cell (:func:`trace_cache.plan_lookup`), and the
    direct run of each timing-sensitive cell on a fresh model
    (:func:`trace_cache.plan_run`) whose result entry is not cached, one
    per entry, or which the result memo does not hold (a compressing
    store, run on every pass).  A run is planned only for a model no
    other cell drives: a model two cells drive runs inline, as a serial
    pass would, and a driven one looks nothing up.
    """
    if not trace_cache.enabled():
        return []
    drives = collections.Counter(id(model) for _, model in cells)
    jobs = []
    paths = set()
    for workload, model in cells:
        if workload.trace_stable:
            entry = trace_cache.plan_lookup(workload, scale, seed)
            if entry is not None:
                jobs.append(_Recording(workload, None, scale, seed, entry))
            continue
        verdict = admit(model)
        if not verdict.fresh or drives[id(model)] > 1:
            continue
        result = trace_cache.result_entry(workload, model, scale, seed,
                                          verdict)
        if result is not None:
            if result.path in paths or result.cached():
                continue
            paths.add(result.path)
        jobs.append(_Recording(workload, model, scale, seed,
                               trace_cache.plan_run(workload, model, scale,
                                                    seed)))
    return jobs


def _record_ahead(jobs):
    """Make ``jobs`` on every CPU this process may use
    (:func:`fan_out`), leaving each recording in its hand-off entry.
    Fewer than two jobs are left to their cells, like :func:`fan_out`
    leaves them, and are not counted."""
    if len(jobs) < 2:
        return
    FANOUT.recordings += len(jobs)
    replies, reason = fan_out(len(jobs), lambda index: jobs[index].reply(),
                              lambda index: jobs[index].here())
    if replies is None:
        if reason is not None:
            FANOUT.refused[reason] = FANOUT.refused.get(reason, 0) + 1
        return
    FANOUT.recorded += len(replies)
    for index, reply in replies.items():
        jobs[index].merge(reply)


class _Job:
    """One unit of fanned-out work.

    A replay job (``kind`` ``"event"``) drives its cell's model through
    the scalar loop; a scan job (``kind`` ``"scan"``, no cell) prices
    ``units`` of one design family for the trace digest ``key``.
    """

    __slots__ = ("kind", "cell", "key", "trace", "family", "units")

    def __init__(self, kind, cell, key, trace, family=None, units=None):
        self.kind = kind
        self.cell = cell
        self.key = key
        self.trace = trace
        self.family = family
        self.units = units


def _jobs(cells):
    """The jobs the result store and the selected engine's memos lack
    for ``cells``, planned without a fault draw, a count or a log line.

    A cell whose result entry is memoized or on disk needs nothing: it
    restores the entry when served.  A cell the oracle could serve
    itself (one with an oracle entry, :func:`_oracle_entry`) needs
    nothing either when that entry is cached, which is checked before
    the closed form and the tables, which load NumPy, are asked; else
    nothing when the closed form serves it, and the scan its family's
    table lacks when a table does.  Every other cell is planned as
    under ``event``, a replay per distinct
    result entry, or per cell for a model that travels but the store
    does not hold.  A model that several cells drive gets no job: only
    its first cell starts from the state planning sees, so all of them
    are served in order instead.
    """
    models = collections.Counter(id(cell.model) for cell in cells)
    jobs = []
    paths = set()
    scans = {}
    for cell in cells:
        if models[id(cell.model)] > 1 or cell.trace is None:
            continue
        trace, result = cell.trace, cell.result
        if result is not None and (result.path in paths
                                   or result.cached()):
            continue
        verdict = admit(cell.model)
        if cell.oracle is not None:
            if (cell.oracle.cached()
                    or closed_form(trace, verdict) is not None):
                continue
            request = table_request(trace, verdict, _PLAN[-1])
            if request is not None:
                key, family, _, missing = request
                if missing:
                    # one scan per trace and sibling families covers
                    # every capacity the plan asks for
                    group = (key, scan_siblings(family))
                    if group not in scans:
                        scans[group] = _Job("scan", None, key, trace,
                                            family, set())
                        jobs.append(scans[group])
                    scans[group].units.update(missing)
                continue
        if result is not None:
            paths.add(result.path)
        elif not verdict.travels:
            continue
        jobs.append(_Job("event", cell, None, trace))
    return jobs


def _compute(job):
    """Run ``job``'s serial function here; returns a scan's tables."""
    if job.kind == "scan":
        return scan_tables(job.trace, job.family, sorted(job.units))
    replay(job.trace, job.cell.model, verify=False)
    return None


def _end(cell):
    """A replay job's end state: its cell's model's capture behind the
    key of its result entry (``None`` for a model the store does not
    hold), as :func:`~repro.trace.cache.end_payload` encodes it."""
    key = None if cell.result is None else cell.result.key
    return trace_cache.end_payload(key, cell.model)


def _run_here(job):
    """Compute ``job`` in this process and keep its result.

    A job that raises is not retried here: a scan is rerun by the
    first cell that needs it, and a replay's error is raised when the
    batch reaches its cell (its model is left half driven), so the
    error a batch raises is the one a serial pass would.
    """
    FANOUT.parent += 1
    try:
        tables = _compute(job)
    except Exception as exc:
        if job.cell is not None:
            job.cell.error = exc
        return
    if job.kind == "scan":
        merge_tables(job.key, job.family, tables)
        return
    if job.cell.result is not None:
        job.cell.end = _end(job.cell)
    job.cell.done = True


def _merge(job, reply):
    """Keep what a child computed for ``job``: a scan's tables go to
    the oracle's memo, and a replay's end state onto its cell's model;
    the cell publishes it when it is served."""
    FANOUT.forked += 1
    if job.kind == "scan":
        merge_tables(job.key, job.family, reply)
        return
    job.cell.model.restore(marshal.loads(reply)[1])
    job.cell.end = reply
    job.cell.done = True


def _take(queue):
    """Task indices from the shared queue pipe until it runs dry."""
    while True:
        data = os.read(queue, 4)
        if not data:
            return
        yield int.from_bytes(data, "little")


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def _fan_out_jobs(jobs):
    """Compute ``jobs`` on every CPU this process may use, longest
    first (:func:`fan_out`).  The fork guard is asked there, after
    planning, which may have loaded NumPy."""
    if not jobs:
        return
    jobs.sort(key=lambda job: len(job.trace), reverse=True)
    replies, reason = fan_out(len(jobs), lambda index: _reply(jobs[index]),
                              lambda index: _run_here(jobs[index]))
    if replies is None:
        # the cells' serial path computes the same jobs, in cell order
        if reason is not None:
            FANOUT.refused[reason] = FANOUT.refused.get(reason, 0) + 1
        FANOUT.parent += len(jobs)
        return
    for index, reply in replies.items():
        _merge(jobs[index], reply)


def _reply(job):
    """What a worker sends back for ``job``: a replay's end state
    (:func:`_end`) or a scan's tables.  Neither touches a cache,
    journal or results file."""
    tables = _compute(job)
    if job.kind == "scan":
        return tables
    return _end(job.cell)


def fan_out(count, work, here):
    """Spread tasks ``0 .. count - 1`` over every CPU this process may use.

    This process and its forked workers take task indices one at a
    time, in index order, from one pipe pre-filled with them: a static
    split leaves CPUs idle when task costs vary.  This process passes
    each index it takes to ``here``.  A worker passes each to ``work``
    and sends back one marshalled ``{index: work(index)}``, leaving out
    a task whose ``work`` raised.  Workers stay in the caller's process
    group (a watchdog's group kill reaches them) and leave through
    ``os._exit``.

    Returns ``(replies, reason)``: every worker's replies, merged in
    worker order, or ``None`` and why nothing forked (one CPU, the fork
    guard, no pipe), the reason ``None`` too for fewer than two tasks.
    Tasks neither process ran are the caller's to run: those of a
    worker that died or raised, and those past the queue's capacity.
    """
    if count < 2:
        return None, None
    workers = min(count, _cpus())
    reason = "1 CPU" if workers < 2 else fork_unavailable()
    if reason is None:
        try:
            queue, fill = os.pipe()
        except OSError as exc:
            reason = exc.strerror
    if reason is not None:
        return None, reason
    os.write(fill, b"".join(index.to_bytes(4, "little") for index in
                            range(min(count, _QUEUE_LIMIT))))
    os.close(fill)
    children = []
    replies = {}
    try:
        for _ in range(workers - 1):
            child = _fork_worker(queue, work)
            if child is None:
                break
            children.append(child)
        for index in _take(queue):
            here(index)
        while children:
            pid, fd = children[0]
            reply, _ = read_reply(pid, fd)
            del children[0]
            replies.update(reply or {})
    except BaseException:
        kill_and_reap(children)
        raise
    finally:
        os.close(queue)
    return replies, None


def _fork_worker(queue, work):
    """Fork one :func:`fan_out` worker; ``(pid, reply fd)``, or
    ``None`` if the OS refuses."""
    try:
        reply, send = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(reply)
        os.close(send)
        return None
    if pid:
        os.close(send)
        return pid, reply
    replies = {}
    try:
        os.close(reply)
        for index in _take(queue):
            try:
                replies[index] = work(index)
            except Exception:
                pass  # unanswered: the caller runs the task itself
    finally:
        reply_and_exit(send, replies)
