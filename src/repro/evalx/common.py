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

Under the default ``event`` engine each distinct (trace content, model
start state) pair is replayed at most once per process: the figures
read different statistics off the same cells, and every repeat gets
the first replay's complete end state back through the snapshot
protocol (see :func:`_replay_event`).
"""

import hashlib
import marshal
from contextlib import contextmanager

from repro.core import (
    BackingStore,
    ConventionalRegisterFile,
    NamedStateRegisterFile,
    RegFileStats,
    SegmentedRegisterFile,
)
from repro.trace import cache as trace_cache, lru
from repro.trace.columnar import replay_columnar, selected_engine
from repro.trace.events import Trace
from repro.trace.oracle import replay_oracle, serve_from_tables
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
    per-model trace (``trace_stable=False``) only ever meets one model
    configuration, so it is scanned at that cell's capacity alone.
    Cells outside the oracle's exactness boundary (NMRU, line-scope
    reloads, wide-value traces) transparently fall back, and the
    other engines ignore the plan entirely — results are
    byte-identical across engines by construction.
    """
    _PLAN.append(tuple(int(b) for b in register_budgets))
    try:
        yield
    finally:
        _PLAN.pop()


#: process-local hit/miss counters of the replay-result memo
RESULT_STATS = lru.MemoStats()

#: the exact model classes whose ``capture()``/``restore()`` round trip
#: everything a replay changes; subclasses and wrappers (faults,
#: protection, tracing) are always replayed
_MEMO_MODELS = (NamedStateRegisterFile, SegmentedRegisterFile,
                ConventionalRegisterFile)

#: (trace digest, model class, fast-path flag, start state) -> the
#: marshalled end-state ``capture()``, in least-recently-used order
#: (:mod:`repro.trace.lru`); one fig09-fig14 pass needs 68 entries
_RESULT_MEMO = {}
_RESULT_MEMO_LIMIT = 128

#: the capture of a backing store nothing has spilled to
_FRESH_BACKING = BackingStore().capture()


def clear_result_memo():
    """Forget every memoized replay result (the counters are kept)."""
    _RESULT_MEMO.clear()


def _start_state(model):
    """The start-state part of a memo key.

    A model that was never driven is exactly what its constructor
    built (see ``RegisterFile._driven``), so its configuration names
    its whole state without a capture; the config carries the policy
    seed, and so every RNG state.  Any other model is named by a
    16-byte blake2b of its whole ``capture()``; equal bytes mean equal
    captures, and an equal capture encoded differently only misses.
    """
    if (not model._driven
            and model.stats == RegFileStats(capacity=model.num_registers)
            and model.backing.capture() == _FRESH_BACKING):
        return tuple(model._config().items())
    return hashlib.blake2b(marshal.dumps(model.capture()),
                           digest_size=16).digest()


def _result_key(trace, model):
    """Memo key of replaying ``trace`` onto ``model``, or ``None`` when
    the pair is outside the memo (a non-``Trace`` iterable, a model
    class off the allowlist, or a wrapped backing store)."""
    if (not isinstance(trace, Trace) or type(model) not in _MEMO_MODELS
            or type(model.backing) is not BackingStore):
        return None
    return (trace.digest(), type(model), model._fast_path,
            _start_state(model))


def _replay_event(trace, model):
    """Event replay, each distinct (trace, start state) once per process.

    The key names the model's whole start state, so only a model that
    would replay identically can be served.  A hit decodes a fresh copy
    of the memoized end state and ``restore()``s it, so the model ends
    exactly as a replay would have left it, and a caller that drives it
    further cannot corrupt the entry.  The end state is kept as
    ``marshal`` bytes, the cheapest round trip for the snapshot
    protocol's plain values, and never leaves the process.
    """
    key = _result_key(trace, model)
    if key is None:
        return replay(trace, model, verify=False)
    end = lru.get(_RESULT_MEMO, key)
    if end is None:
        RESULT_STATS.misses += 1
        replay(trace, model, verify=False)
        lru.put(_RESULT_MEMO, key, marshal.dumps(model.capture()),
                _RESULT_MEMO_LIMIT)
    else:
        RESULT_STATS.hits += 1
        model.restore(marshal.loads(end))
    return model


def _replay(trace, model, shared=True):
    """Replay through the engine ``REPRO_REPLAY_ENGINE`` selects.

    ``event`` (the default) is the scalar packed loop behind the
    replay-result memo (:func:`_replay_event`); ``columnar``
    and ``oracle`` synthesize the outcome from the shared NumPy
    whole-trace analysis when the (trace, model) pair sits inside the
    exactness boundary and fall back to the scalar loop otherwise —
    every engine leaves byte-identical statistics by construction.
    Inside a :func:`capacity_plan` block the oracle engine serves
    cells from the closed form and the shared design-space tables
    first; a trace that is not ``shared`` across model configurations
    is scanned at the model's own capacity, not the plan's.
    """
    engine = selected_engine()
    if engine == "columnar":
        return replay_columnar(trace, model)
    if engine == "oracle":
        if _PLAN and serve_from_tables(trace, model,
                                       _PLAN[-1] if shared else ()):
            return model
        return replay_oracle(trace, model)
    return _replay_event(trace, model)


def run_workload(workload, model, scale=1.0, seed=1):
    """Drive ``model`` with ``workload``; returns the model.

    Replays the cached register-reference trace (recording it on first
    use) when the trace cache is enabled; falls back to executing the
    workload front-end directly when it is not.  Both paths leave
    byte-identical statistics on the model.

    Workloads whose stream is timing-sensitive (``trace_stable`` is
    False) get memoized execution instead of a shared trace: the cold
    run executes directly through a recorder, and only models with the
    identical configuration replay the cached stream.

    Degradation ladder: warm cache -> quarantine + re-record (inside
    the cache) -> on persistent storage failure, **direct execution**
    with the cache out of the loop — slower, but statistics identical
    by construction.  A cell therefore only ever surfaces an error in
    the journal when the computation itself fails, never because the
    disk lied.
    """
    if not trace_cache.enabled():
        workload.run(model, scale=scale, seed=seed)
        return model
    try:
        if workload.trace_stable:
            trace = trace_cache.load_or_record(workload, scale=scale,
                                               seed=seed)
            _replay(trace, model)
            return model
        trace = trace_cache.load_for_model(workload, model, scale=scale,
                                           seed=seed)
        if trace is not None:
            _replay(trace, model, shared=False)
        else:
            trace_cache.record_through(workload, model, scale=scale,
                                       seed=seed)
        return model
    except OSError:
        # the cache's own retries/quarantine already failed: last rung
        workload.run(model, scale=scale, seed=seed)
        return model


def run_pair(workload, scale=1.0, seed=1, num_registers=None,
             nsf_kwargs=None, seg_kwargs=None):
    """Run one workload on a fresh NSF and segmented file; return stats.

    One recorded execution feeds both models (and every other cell that
    asks for the same ``(workload, scale, seed)``)."""
    nsf = make_nsf(workload, num_registers=num_registers,
                   **(nsf_kwargs or {}))
    seg = make_segmented(workload, num_registers=num_registers,
                         **(seg_kwargs or {}))
    run_workload(workload, nsf, scale=scale, seed=seed)
    run_workload(workload, seg, scale=scale, seed=seed)
    return nsf.stats, seg.stats
