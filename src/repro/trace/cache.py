"""Content-addressed disk cache of recorded workload traces and of the
end states cells leave.

The expensive half of every sweep is executing a workload front-end
(the activation machine or thread scheduler); for every workload with
``trace_stable = True`` the event stream it produces depends only on
``(workload, scale, seed)`` — never on the register-file model
underneath (pinned by ``tests/test_trace_crossvalidation.py``).  This
cache therefore lets such a workload execute **once**: the first
request records the trace and atomically publishes it
(write-then-rename via :mod:`repro.ioutil`, so concurrent sweep cells
racing on the same key are safe — both write identical bytes and the
rename is atomic); every later cell, model variant, codec and
line-size configuration replays the packed binary trace instead of
re-running the program.

Timing-sensitive workloads (``trace_stable = False``, e.g. Gamteb,
whose thread wake-up order races the model-dependent stall cycles of
spills and reloads) cannot share one stream across models, and the
cache keeps no trace of theirs: a cell of one runs the front-end
directly (:func:`record_through` for a fresh model), and a fresh model
the result memo holds publishes its end state as the cell's result
entry, which the next fresh model of that configuration restores.

**Result entries.**  Beside the traces the cache keeps the end state
a cell leaves on a fresh model (:class:`Result`): a ``.result`` file
whose payload is ``marshal.dumps((end_key, capture()), 2)``
(:func:`end_payload`), named by its cell: the :func:`trace_key` of
``(workload, context size, scale, seed)``, the model's
:func:`end_key`, the model sources (:func:`core_fingerprint`) and the
replay loop's (:func:`replay_fingerprint`).  A later fresh model of the
same class and config ``restore()``s it instead of serving the cell
(:func:`repro.evalx.common.run_workload`, under either engine).  Two
things produce such a *replay result*, both for a model that
``admit`` calls fresh and lets the result memo hold: an event replay
of a shared trace (:func:`repro.evalx.common._replay_event`) and a
direct run of a timing-sensitive workload (:func:`record_through`).  A
cell the oracle's closed form or tables serve publishes an *oracle
entry*: the same kind of file, holding the served model's
``capture()`` (a fresh model's internals under the served statistics
and store word counters), named with :func:`oracle_fingerprint` where
a replay result has :func:`replay_fingerprint`; only a cell the oracle
could serve itself restores one.

Inside a :func:`repro.evalx.common.run_cells` batch the front-ends of
the traces a batch lacks, and the direct runs of its fresh
timing-sensitive cells, may already have run on other CPUs
(:func:`plan_lookup`, :func:`plan_run`): the batch hands each recording
and each run's end state over through :func:`handoff`, and
:func:`record_trace` and :func:`record_through` take it instead of
executing the front-end again.  Every lookup, lock, publish, fault
draw, :data:`STATS` count and log line still happens here, at the cell
that needs the entry.

Keying is content-addressed: ``(workload name, context size, scale,
seed)`` plus a fingerprint of the recorder/format implementation
(sha256 of this package's sources and a schema version), so any change
to recording semantics invalidates every stale entry automatically —
old files are simply never looked up again.  A result entry's name
adds the model, the ``repro/core`` sources with the interpreter's
bytecode tag, and the code that priced the cell.

Storage-fault hardening (PR 6) — the cache assumes the disk lies:

* every entry, trace or result, is published inside a CRC-32
  integrity frame (``NSFC``, :func:`repro.trace.events.frame`); a cold
  load whose checksum disagrees **quarantines** the file — moved into
  ``<cache>/quarantine/`` beside a ``.reason`` file — and records or
  replays it again transparently, so bit rot can never surface as a
  wrong number;
* in-process memo hits are re-validated against the disk file's
  ``(size, mtime_ns)`` signature, so an entry corrupted *after* it was
  memoized cannot keep serving from memory while cold readers see
  garbage;
* cold recordings take a pid-stamped single-flight lock
  (``<entry>.trace.lock``); stale locks (dead pid, or older than
  ``LOCK_STALE_SECONDS``) are broken, and lock starvation degrades to
  lock-less recording — duplicate publishes are safe by construction
  (a result entry takes no lock: a duplicate writes identical bytes);
* reads and publishes retry transient ``EIO``/``ENOSPC`` with bounded
  deterministic backoff; when publishing keeps failing the cache drops
  one rung down the degradation ladder — entries stay usable
  in-process but publishing is disabled (``NOPUBLISH``) until
  :func:`reset_degradation`, so a full disk degrades throughput,
  never correctness.

Environment knobs:

* ``REPRO_TRACE_CACHE``     — cache directory (default:
  ``.trace-cache/`` at the repo root);
* ``REPRO_NO_TRACE_CACHE``  — any non-empty value disables the cache
  (sweeps fall back to direct execution);
* ``REPRO_TRACE_CACHE_LOG`` — append one ``HIT``/``MISS``/``RECORD``/
  ``QUARANTINE``/``PUBFAIL``/``NOPUBLISH`` line per event to this file
  (used by CI to assert a warm second sweep actually replays).

CLI::

    python -m repro.trace.cache info     # entries, sizes, quarantine
    python -m repro.trace.cache clear    # delete every cached entry
"""

import hashlib
import marshal
import os
import pathlib
import sys
import threading
import time
from contextlib import contextmanager

from repro.chaos import plane as _chaos
from repro.ioutil import TRANSIENT_ERRNOS, atomic_write_bytes
from repro.trace import events as _events, lru
from repro.trace.admit import admit
from repro.trace.events import Trace, TraceFormatError
from repro.trace.recorder import TracingRegisterFile

ENV_DIR = "REPRO_TRACE_CACHE"
ENV_DISABLE = "REPRO_NO_TRACE_CACHE"
ENV_LOG = "REPRO_TRACE_CACHE_LOG"

#: bump to invalidate every cached trace on a semantic change that the
#: source fingerprint cannot see (e.g. a workload build() change)
SCHEMA_VERSION = 1

#: default location: ``<repo root>/.trace-cache`` (gitignored)
DEFAULT_DIR = pathlib.Path(__file__).resolve().parents[3] / ".trace-cache"

#: the register-file models, whose code every result entry depends on
CORE_DIR = pathlib.Path(__file__).resolve().parents[1] / "core"

#: the replay loop, whose code every replay result depends on
REPLAY_SOURCE = pathlib.Path(__file__).resolve().parent / "replay.py"

#: the oracle's closed form, tables and admission rule, whose code
#: every oracle entry depends on
ORACLE_SOURCES = tuple(pathlib.Path(__file__).resolve().parent / name
                       for name in ("oracle.py", "vector.py",
                                    "columnar.py", "admit.py"))

#: file suffixes of the two kinds of entry
TRACE_SUFFIX = ".trace"
RESULT_SUFFIX = ".result"

#: ``marshal`` format of a result entry: version 2 writes no object
#: references, so equal captures always encode to equal bytes (an end
#: state computed on another CPU is byte-identical to a serial one)
_END_MARSHAL = 2

#: entries :data:`_memo` keeps: a warm golden pass at the golden point
#: looks up 84 under either engine on a cache it filled (16 traces, the
#: ``profile`` experiment's shared Gamteb trace among them, and 68
#: result entries, under ``oracle`` 30 replay results and 38 oracle
#: entries; 7 of the 84 in the private caches of chaos cells) and
#: evicts none
MEMO_LIMIT = 128

#: a recording lock older than this is debris from a crashed recorder
LOCK_STALE_SECONDS = 60.0

#: bounded waits before recording lock-less (duplicates are safe)
_LOCK_WAITS = 3

#: consecutive publish failures before the ladder disables publishing
PUBLISH_FAILURE_LIMIT = 2


class CacheStats:
    """Process-local hit/miss/quarantine accounting."""

    __slots__ = ("hits", "misses", "records", "quarantined")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.records = 0
        self.quarantined = 0

    def reset(self):
        self.hits = self.misses = self.records = self.quarantined = 0

    def counts(self):
        """Every counter, in ``__slots__`` order (what :meth:`add` takes)."""
        return [getattr(self, name) for name in self.__slots__]

    def add(self, counts):
        """Add a :meth:`counts`-shaped list of deltas to the counters."""
        for name, count in zip(self.__slots__, counts):
            setattr(self, name, getattr(self, name) + count)

    def __repr__(self):
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"records={self.records}, "
                f"quarantined={self.quarantined})")


STATS = CacheStats()

#: entries already loaded in this process, keyed by (directory, file
#: name), in least-recently-used order (:mod:`repro.trace.lru`, bound
#: :data:`MEMO_LIMIT`); each value is ``(entry, stat_sig)``, the entry
#: a :class:`~repro.trace.events.Trace` or a result entry's payload,
#: and ``stat_sig`` the disk file's (size, mtime_ns) at memoization
#: time — ``None`` marks a memory-only entry (publish failed or
#: disabled) with no disk copy to re-validate against
_memo = {}

#: the degradation ladder's process-local rung state
_degraded = {"publish_failures": 0, "publish_disabled": False}

_fingerprint = None
_core_fingerprint = None
_replay_fingerprint = None
_oracle_fingerprint = None


def enabled():
    """True unless ``REPRO_NO_TRACE_CACHE`` is set (to anything)."""
    return not os.environ.get(ENV_DISABLE)


def cache_dir():
    """The active cache directory (env override or repo default)."""
    configured = os.environ.get(ENV_DIR)
    return pathlib.Path(configured) if configured else DEFAULT_DIR


def recorder_fingerprint():
    """sha256 over the trace package's sources + schema version.

    Any edit to the event format, the recorder or the cache itself
    yields new keys, so stale entries can never be replayed.
    """
    global _fingerprint
    if _fingerprint is None:
        digest = hashlib.sha256(f"schema={SCHEMA_VERSION}".encode())
        package = pathlib.Path(__file__).resolve().parent
        for name in ("events.py", "recorder.py", "cache.py"):
            digest.update(name.encode())
            digest.update((package / name).read_bytes())
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


def core_fingerprint():
    """sha256 over the ``repro/core`` sources and the interpreter's
    bytecode tag (``sys.implementation.cache_tag``, which names its
    ``marshal`` format too).

    Every result key carries it: a result entry holds a model's end
    state, so an edit to a model, or another interpreter, must run or
    replay its cell again.
    """
    global _core_fingerprint
    if _core_fingerprint is None:
        digest = hashlib.sha256(
            f"tag={sys.implementation.cache_tag}".encode())
        for path in sorted(CORE_DIR.glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        _core_fingerprint = digest.hexdigest()[:16]
    return _core_fingerprint


def replay_fingerprint():
    """sha256 over the replay loop's source (:data:`REPLAY_SOURCE`) and
    :func:`recorder_fingerprint`: what drives a trace onto a model, so
    an edit to either replays every result entry again."""
    global _replay_fingerprint
    if _replay_fingerprint is None:
        digest = hashlib.sha256(recorder_fingerprint().encode())
        digest.update(REPLAY_SOURCE.read_bytes())
        _replay_fingerprint = digest.hexdigest()[:16]
    return _replay_fingerprint


def oracle_fingerprint():
    """sha256 over the oracle's sources (:data:`ORACLE_SOURCES`) and
    :func:`recorder_fingerprint`: what prices a cell the closed form or
    a table serves, so an edit to either prices every oracle entry
    again.  NumPy's version is left out: the kernel's results are exact
    integers, held to event replay by
    ``tests/test_oracle_differential.py``, and reading it would import
    NumPy on a pass that restores every cell."""
    global _oracle_fingerprint
    if _oracle_fingerprint is None:
        digest = hashlib.sha256(recorder_fingerprint().encode())
        for path in ORACLE_SOURCES:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        _oracle_fingerprint = digest.hexdigest()[:16]
    return _oracle_fingerprint


def trace_key(workload_name, context_size, scale, seed):
    """Content-addressed key of one cell's execution: the name of its
    shared trace, and the cell part of its result entries' names."""
    canonical = (f"{workload_name}|ctx={context_size}|scale={scale!r}"
                 f"|seed={seed!r}|{recorder_fingerprint()}")
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def trace_path(workload, scale, seed, directory=None):
    """Where the cached trace for one execution lives."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    key = trace_key(workload.name, workload.context_size, scale, seed)
    return directory / f"{workload.name.lower()}-{key}.trace"


def _log(outcome, workload, path):
    log_path = os.environ.get(ENV_LOG)
    if not log_path:
        return
    try:
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{outcome} {workload.name} {path.name}\n")
    except OSError:
        pass


def run_traced(workload, scale=1.0, seed=1):
    """Execute ``workload`` through a recorder over a generously-sized
    NSF, which keeps recording fast by avoiding spills (a
    ``trace_stable`` stream is model-independent); returns the trace.
    Touches no cache state or counter."""
    from repro.core import NamedStateRegisterFile

    tracer = TracingRegisterFile(NamedStateRegisterFile(
        num_registers=4 * workload.context_size,
        context_size=workload.context_size,
    ))
    workload.run(tracer, scale=scale, seed=seed)
    return tracer.trace


# ``perfbench/spans.py`` wraps ``record_trace``, ``record_through`` and
# ``_lookup`` where their callers look them up, as attributes of this
# module: renaming one breaks ``perfbench/tests`` (ROADMAP item 7).


def record_trace(workload, scale=1.0, seed=1):
    """Execute ``workload`` once over a recording register file
    (:func:`run_traced`), or take the recording its batch made ahead."""
    trace = _handed(_planned(workload, None, scale, seed))
    if trace is None:
        trace = run_traced(workload, scale=scale, seed=seed)
    STATS.records += 1
    return trace


def record_through(workload, model, scale=1.0, seed=1, result=None):
    """Execute ``workload`` directly over ``model``, a fresh model of a
    timing-sensitive cell, and publish its end state as ``result``, the
    cell's :class:`Result` (``None`` for a model the store does not
    hold, which publishes nothing).

    A run its batch made ahead on a copy of the model arrives as the
    copy's :func:`end_payload`, which the model ``restore()``s and which
    is published as it is.  Records no trace and returns ``None``.
    """
    end = _handed(_planned(workload, model, scale, seed))
    if end is None:
        workload.run(model, scale=scale, seed=seed)
    else:
        model.restore(marshal.loads(end)[1])
    if result is not None:
        result.publish(result.payload(model) if end is None else end)


# -- result entries ----------------------------------------------------------


def end_key(model, verdict):
    """The key of a fresh model, which a result entry stores beside its
    end state to name the model that left it: the exact class and the
    ``_config()`` that ``admit`` read off the model while it was fresh
    (``verdict``)."""
    cls = type(model)
    return (f"{cls.__module__}.{cls.__qualname__}",
            tuple(verdict.config.items()))


def end_payload(key, model):
    """A result entry's payload: ``(key, model.capture())``, marshalled
    in the version that encodes equal captures to equal bytes."""
    return marshal.dumps((key, model.capture()), _END_MARSHAL)


class Result:
    """The result entry of the cell ``(workload, scale, seed)`` on a
    fresh model whose :func:`end_key` is ``key``: the end state its event
    replay or direct run leaves (a *replay result*), or, with
    ``oracle``, the one the oracle's closed form or tables serve (an
    *oracle entry*: the fresh model's internals with the served
    statistics and store word counters).  ``workload`` also names the
    cell in the cache log.  The entry's name is a sha256 over the
    cell's :func:`trace_key`, ``key``, :func:`core_fingerprint` and
    :func:`replay_fingerprint`, or :func:`oracle_fingerprint` for an
    oracle entry."""

    __slots__ = ("workload", "key", "path")

    def __init__(self, workload, scale, seed, key, directory=None,
                 oracle=False):
        self.workload = workload
        self.key = key
        directory = pathlib.Path(directory) if directory else cache_dir()
        source = (f"oracle={oracle_fingerprint()}" if oracle
                  else f"replay={replay_fingerprint()}")
        cell = trace_key(workload.name, workload.context_size, scale, seed)
        canonical = f"{cell}|{key!r}|core={core_fingerprint()}|{source}"
        name = hashlib.sha256(canonical.encode()).hexdigest()[:32]
        self.path = directory / f"{name}{RESULT_SUFFIX}"

    def cached(self):
        """True when the entry is memoized or on disk: no fault draw, no
        count and no log line, as :func:`plan_lookup` checks."""
        return _known(self.path)

    def load(self):
        """The stored end-state capture, decoded afresh (a caller that
        drives the model on cannot change the entry), after a counted,
        logged lookup; ``None`` on a miss or for an entry that names
        another model than :attr:`key`."""
        payload = _lookup(self.workload, self.path)
        if payload is None:
            return None
        key, state = marshal.loads(payload)
        return state if key == self.key else None

    def payload(self, model):
        """What :meth:`publish` takes for ``model``'s end state."""
        return end_payload(self.key, model)

    def publish(self, payload):
        """Publish an :func:`end_payload` as it is (no record lock: a
        duplicate publish writes identical bytes)."""
        _publish(self.workload, self.path, payload, payload)


def result_entry(workload, model, scale=1.0, seed=1, verdict=None):
    """The :class:`Result` of the cell ``(workload, scale, seed)`` on
    ``model``, or ``None`` for a model the store does not hold: only a
    model that :func:`~repro.trace.admit.admit` (``verdict``, when the
    caller has it) calls fresh and lets the result memo hold.  Driven,
    wrapped, subclassed and compressing models neither look one up nor
    publish one."""
    verdict = verdict or admit(model)
    if not (verdict.memo and verdict.fresh):
        return None
    return Result(workload, scale, seed, end_key(model, verdict))


def _check_result(payload):
    """A result entry's payload as bytes; raises
    :class:`TraceFormatError` for anything :func:`end_payload` does not
    write."""
    payload = bytes(payload)
    try:
        key, state = marshal.loads(payload)
    except (EOFError, ValueError, TypeError) as exc:
        raise TraceFormatError(f"unreadable result entry: {exc}") from None
    if not (isinstance(key, tuple) and isinstance(state, dict)):
        raise TraceFormatError("result entry is not (end_key, capture)")
    return payload


# -- a batch's hand-off ------------------------------------------------------


class _Planned:
    """One planned lookup of a batch: once its batch made it ahead,
    what it made (``made``: a shared trace's recording, or the
    :func:`end_payload` of a direct run on a copy of a fresh model) and
    the trace payload a worker sent (``payload``), or what making it
    raised (``error``)."""

    __slots__ = ("made", "payload", "error")

    def __init__(self):
        self.made = self.payload = self.error = None


#: per thread, the :class:`_Planned` lookups of the innermost open
#: :func:`handoff` block, by :func:`_plan_key` (absent outside one)
_HANDOFF = threading.local()


@contextmanager
def handoff():
    """Open a batch's hand-off for this thread for the block.

    :func:`plan_lookup` and :func:`plan_run` fill it, the batch stores
    each recording or run it made ahead in its entry, and the recorders
    of this thread take them from it.  It is dropped when the block
    ends, however it ends, with whatever no recorder consumed.
    """
    outer = getattr(_HANDOFF, "plan", None)
    _HANDOFF.plan = {}
    try:
        yield
    finally:
        _HANDOFF.plan = outer


def _plan_key(workload, model, scale, seed):
    """Hand-off key of one lookup: a direct run's names its model."""
    key = (workload.name, workload.context_size, scale, seed)
    return key if model is None else key + (id(model),)


def _planned(workload, model, scale, seed, directory=None):
    """The open hand-off's entry for one lookup (in the default
    directory only), or ``None``."""
    plan = getattr(_HANDOFF, "plan", None)
    if plan is None or directory is not None:
        return None
    return plan.get(_plan_key(workload, model, scale, seed))


def _handed(planned):
    """What was made ahead for a planned lookup, once, or ``None`` when
    nothing was; raises what making it raised.  Its payload stays for
    :func:`_sent`."""
    if planned is None:
        return None
    made, error = planned.made, planned.error
    planned.made = planned.error = None
    if error is not None:
        raise error
    return made


def _sent(planned):
    """The trace payload a worker sent for a planned lookup, once, to
    be published as it is; ``None`` when none was."""
    if planned is None:
        return None
    payload, planned.payload = planned.payload, None
    return payload


def _known(path):
    """True when the entry at ``path`` is memoized or on disk; no
    fault draw, no count, no log line."""
    return (str(path.parent), path.name) in _memo or path.exists()


def plan_lookup(workload, scale, seed):
    """Plan the lookup of a ``trace_stable`` workload's trace in the
    open hand-off, without side effects.  Returns the entry where the
    batch leaves the recording it makes ahead when the trace is neither
    memoized nor on disk (a recording would be made); ``None`` for a
    trace planned before or cached."""
    plan = _HANDOFF.plan
    key = _plan_key(workload, None, scale, seed)
    if key in plan:
        return None
    plan[key] = entry = _Planned()
    return None if _known(trace_path(workload, scale, seed)) else entry


def plan_run(workload, model, scale, seed):
    """Plan :func:`record_through`'s run of a timing-sensitive
    ``workload`` on the fresh ``model`` in the open hand-off; returns
    the entry where the batch leaves the end payload of the run it
    makes ahead on a copy of the model."""
    plan = _HANDOFF.plan
    plan[_plan_key(workload, model, scale, seed)] = entry = _Planned()
    return entry


# -- degradation ladder ------------------------------------------------------


def publishing_enabled():
    """False once repeated publish failures disabled cache writes."""
    return not _degraded["publish_disabled"]


def publish_failures():
    return _degraded["publish_failures"]


def reset_degradation():
    """Re-arm cache publishing after the operator fixed the disk."""
    _degraded["publish_failures"] = 0
    _degraded["publish_disabled"] = False


# -- quarantine --------------------------------------------------------------


def quarantine_dir(directory=None):
    """Where corrupt entries of ``directory`` are moved aside."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    return directory / "quarantine"


def _quarantine(workload, path, reason):
    """Move a corrupt entry aside (with a ``.reason`` file) so it can
    be inspected, and the key transparently re-recorded."""
    qdir = quarantine_dir(path.parent)
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        dest = qdir / path.name
        suffix = 0
        while dest.exists():
            suffix += 1
            dest = qdir / f"{path.name}.{suffix}"
        os.replace(path, dest)
        with open(f"{dest}.reason", "w", encoding="utf-8") as handle:
            handle.write(reason + "\n")
    except OSError:
        # quarantine dir unwritable: at minimum get the corrupt entry
        # out of the lookup path
        try:
            path.unlink()
        except OSError:
            pass
    STATS.quarantined += 1
    _log("QUARANTINE", workload, path)


def quarantine_entries(directory=None):
    """``(path, reason)`` of every quarantined entry, sorted by name."""
    qdir = quarantine_dir(directory)
    if not qdir.is_dir():
        return []
    listing = []
    for path in sorted(qdir.iterdir()):
        if path.name.endswith(".reason"):
            continue
        reason_path = qdir / f"{path.name}.reason"
        try:
            reason = reason_path.read_text(encoding="utf-8").strip()
        except OSError:
            reason = "(no reason file)"
        listing.append((path, reason))
    return listing


def clear_quarantine(directory=None):
    """Delete every quarantined entry; returns the number removed."""
    qdir = quarantine_dir(directory)
    removed = 0
    if qdir.is_dir():
        for path in sorted(qdir.iterdir()):
            try:
                path.unlink()
            except OSError:
                continue
            if not path.name.endswith(".reason"):
                removed += 1
    return removed


# -- disk access -------------------------------------------------------------


def _stat_sig(path):
    """``(size, mtime_ns)`` of the disk file, or ``None`` if absent."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_size, st.st_mtime_ns)


def _read_bytes(path, attempts=3, backoff=0.005):
    """Read a cache entry, retrying transient (injected) ``EIO``."""
    for attempt in range(attempts):
        try:
            if _chaos.ACTIVE is not None:
                token = _chaos.ACTIVE.storage_fault("cache.load")
                if token is not None and token[0] == "eio":
                    raise _chaos.oserror("eio", path)
            with open(path, "rb") as handle:
                return handle.read()
        except OSError as exc:
            if (exc.errno not in TRANSIENT_ERRNOS
                    or attempt >= attempts - 1):
                raise
            _chaos.backoff(exc, backoff * (2 ** attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def _parse_entry(path, blob):
    """Decode one on-disk entry, its kind named by the suffix of
    ``path``: a payload in the CRC frame :func:`_publish` writes, the
    packed trace of a trace entry or the :func:`end_payload` of a
    result entry.  Anything else (a bare binary or text trace carries
    no CRC to check) raises :class:`TraceFormatError`.  The frame is
    checked and stripped in place, without copying the payload."""
    payload = _events.unframe(memoryview(blob))
    if path.suffix == RESULT_SUFFIX:
        return _check_result(payload)
    return Trace.loads_binary(payload)


def _lookup(workload, path):
    """Memo-then-disk lookup; returns the entry (a trace, or a result
    entry's payload) or ``None`` on a miss.

    Memo hits are re-validated against the disk file's stat signature:
    if the file changed (or vanished) since memoization the entry is
    invalidated, so a poisoned memo can never outlive the bytes it
    mirrors.  Corrupt or truncated disk entries (torn copy, bit rot —
    the CRC frame catches both) are quarantined and treated as misses,
    so callers transparently record or replay them again.
    """
    memo_key = (str(path.parent), path.name)
    cached = lru.get(_memo, memo_key)
    if cached is not None:
        entry, sig = cached
        if sig is None or sig == _stat_sig(path):
            STATS.hits += 1
            _log("HIT", workload, path)
            return entry
        del _memo[memo_key]
    entry = None
    if path.exists():
        try:
            entry = _parse_entry(path, _read_bytes(path))
        except TraceFormatError as exc:
            _quarantine(workload, path, str(exc))
        except OSError:
            entry = None
        if entry is not None:
            lru.put(_memo, memo_key, (entry, _stat_sig(path)), MEMO_LIMIT)
    if entry is not None:
        STATS.hits += 1
        _log("HIT", workload, path)
        return entry
    STATS.misses += 1
    _log("MISS", workload, path)
    return None


# -- single-flight recording lock --------------------------------------------


def _lock_is_stale(lock_path):
    try:
        st = os.stat(lock_path)
    except OSError:
        return False  # vanished; the next open attempt decides
    if time.time() - st.st_mtime > LOCK_STALE_SECONDS:
        return True
    try:
        with open(lock_path, "r", encoding="utf-8") as handle:
            pid = int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return True
    if pid == os.getpid():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False
    return False


def _acquire_record_lock(path):
    """Take the single-flight recording lock for one cache entry.

    Returns ``(lock_path_or_None, contended)``.  Stale locks — a dead
    pid, or debris older than :data:`LOCK_STALE_SECONDS` — are broken.
    After :data:`_LOCK_WAITS` bounded waits the caller proceeds
    lock-less: a duplicate recording publishes identical bytes through
    an atomic rename, so starvation costs time, never correctness.
    """
    lock_path = path.with_name(path.name + ".lock")
    if _chaos.ACTIVE is not None:
        token = _chaos.ACTIVE.storage_fault("cache.lock")
        if token is not None and token[0] == "stale_lock":
            _chaos.ACTIVE.plant_stale_lock(lock_path)
    contended = False
    for attempt in range(_LOCK_WAITS + 1):
        try:
            fd = os.open(lock_path,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            contended = True
            if _lock_is_stale(lock_path):
                try:
                    os.unlink(lock_path)
                except OSError:
                    pass
                continue
            time.sleep(0.01 * (2 ** attempt))
            continue
        except OSError:
            return None, contended  # lock dir unwritable: go lock-less
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return lock_path, contended
    return None, contended


def _release_record_lock(lock_path):
    if lock_path is None:
        return
    try:
        os.unlink(lock_path)
    except OSError:
        pass


# -- publishing --------------------------------------------------------------


def _publish(workload, path, entry, payload=None):
    """Atomically write ``payload`` (CRC-framed) to ``path``; memoize
    ``entry``.

    ``payload`` ``None`` serializes a trace ``entry`` here, once; a
    recording its batch made ahead is published as the payload it
    arrived in, and a result entry as its :func:`end_payload`.
    Transient write failures retry with deterministic backoff; when
    failures persist past :data:`PUBLISH_FAILURE_LIMIT` the ladder
    disables publishing for this process — entries remain usable
    in-memory (``stat_sig=None`` memo entries), results stay exact,
    only warm-start reuse is lost.
    """
    memo_key = (str(path.parent), path.name)
    sig = None
    if publishing_enabled():
        if payload is None:
            payload = entry.dumps_binary()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(path, _events.frame(payload),
                               site="cache.publish", attempts=3)
        except OSError:
            _degraded["publish_failures"] += 1
            if _degraded["publish_failures"] >= PUBLISH_FAILURE_LIMIT:
                _degraded["publish_disabled"] = True
            _log("PUBFAIL", workload, path)
        else:
            _log("RECORD", workload, path)
            sig = _stat_sig(path)
    else:
        _log("NOPUBLISH", workload, path)
    lru.put(_memo, memo_key, (entry, sig), MEMO_LIMIT)


def load_or_record(workload, scale=1.0, seed=1, directory=None):
    """Return the trace for ``(workload, scale, seed)``, recording once.

    Only correct for workloads with ``trace_stable = True``; a
    timing-sensitive workload's cell runs directly instead
    (:func:`record_through`).
    """
    path = trace_path(workload, scale, seed, directory=directory)
    trace = _lookup(workload, path)
    if trace is None:
        lock_path, contended = _acquire_record_lock(path)
        try:
            if contended:
                # a concurrent recorder may have published while we
                # waited on its lock
                trace = _lookup(workload, path)
            if trace is None:
                trace = record_trace(workload, scale=scale, seed=seed)
                _publish(workload, path, trace, _sent(
                    _planned(workload, None, scale, seed, directory)))
        finally:
            _release_record_lock(lock_path)
    return trace


def _remove(directory, pattern):
    """Delete the files of ``directory`` that ``pattern`` matches;
    returns how many went."""
    removed = 0
    if directory.is_dir():
        for path in directory.glob(pattern):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def clear(directory=None):
    """Delete every cached trace and result entry (and lock debris) and
    forget every memoized entry; returns the number of entries removed.
    Quarantined entries are kept for inspection — see
    :func:`clear_quarantine`."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    removed = (_remove(directory, "*" + TRACE_SUFFIX)
               + _remove(directory, "*" + RESULT_SUFFIX))
    _remove(directory, f"*{TRACE_SUFFIX}.lock")
    _memo.clear()
    return removed


def clear_results(directory=None):
    """Delete every result entry of ``directory`` and forget every
    memoized one, so the next cell of each configuration replays;
    returns the number of files removed.  Traces stay."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    for key in [key for key in _memo if key[1].endswith(RESULT_SUFFIX)]:
        del _memo[key]
    return _remove(directory, "*" + RESULT_SUFFIX)


def entries(directory=None):
    """``(path, size_bytes)`` of every cached trace and result entry,
    sorted by name."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    if not directory.is_dir():
        return []
    return sorted((path, path.stat().st_size) for suffix in
                  (TRACE_SUFFIX, RESULT_SUFFIX)
                  for path in directory.glob("*" + suffix))


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Inspect or clear the content-addressed trace cache."
    )
    parser.add_argument("command", choices=["info", "clear"],
                        help="info: list trace and result entries; "
                             "clear: delete them")
    parser.add_argument("--dir", default=None,
                        help="cache directory (default: "
                             f"$" + ENV_DIR + " or .trace-cache)")
    args = parser.parse_args(argv)
    directory = pathlib.Path(args.dir) if args.dir else cache_dir()
    if args.command == "clear":
        removed = clear(directory)
        print(f"removed {removed} cached entr"
              f"{'y' if removed == 1 else 'ies'} from {directory}")
        return 0
    listing = entries(directory)
    total = sum(size for _, size in listing)
    results = sum(path.suffix == RESULT_SUFFIX for path, _ in listing)
    print(f"trace cache: {directory}"
          + ("" if enabled() else "  [DISABLED via $" + ENV_DISABLE + "]"))
    for path, size in listing:
        print(f"  {path.name}  {size:,} B")
    print(f"{len(listing)} entr{'y' if len(listing) == 1 else 'ies'} "
          f"({len(listing) - results} trace, {results} result), "
          f"{total:,} B")
    quarantined = quarantine_entries(directory)
    if quarantined:
        print(f"quarantine: {len(quarantined)} entr"
              f"{'y' if len(quarantined) == 1 else 'ies'}")
        for path, reason in quarantined:
            print(f"  {path.name}  [{reason}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
