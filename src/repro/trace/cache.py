"""Content-addressed disk cache of recorded workload traces.

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
spills and reloads) cannot share one stream across models.  For those
the cache degrades gracefully to *memoized execution*: the entry is
additionally keyed by the target model's configuration fingerprint
(:func:`model_fingerprint`) and the kind of its backing store, and it
is recorded straight through the target model on the cold run
(:func:`record_through` — so the cold run IS a direct run, exact by
construction).  It holds the whole execution: the trace, and the
recording model's marshalled end-state ``capture()`` beside the memo
key of that model (:func:`end_key`).  Later fresh models of the same
configuration ``restore()`` that end state instead of replaying the
trace (:func:`repro.evalx.common.run_workload`); only a model that
:func:`repro.trace.admit.admit` calls fresh looks such an entry up,
records or publishes one.

Inside a :func:`repro.evalx.common.run_cells` batch the front-ends
of the recordings a batch lacks may already have run on other CPUs
(:func:`plan_lookup`, :func:`record_entry`): the batch hands each
recording over through :func:`handoff` as the entry payload it will
publish, and :func:`record_trace` and :func:`record_through` take it
instead of executing the front-end again.  Every lookup, lock,
publish, fault draw, :data:`STATS` count and log line still happens
here, at the cell that needs the trace.

Keying is content-addressed: ``(workload name, context size, scale,
seed)`` plus a fingerprint of the recorder/format implementation
(sha256 of this package's sources and a schema version), so any change
to recording semantics invalidates every stale entry automatically —
old files are simply never looked up again.  A model-keyed key also
names the register-file models' sources (``repro/core``) and the
interpreter's bytecode tag (:func:`core_fingerprint`): both the trace
and the marshalled end state depend on them.

Storage-fault hardening (PR 6) — the cache assumes the disk lies:

* every entry is published inside a CRC-32 integrity frame
  (``NSFC``, :func:`repro.trace.events.frame`); a cold load whose
  checksum disagrees **quarantines** the file — moved into
  ``<cache>/quarantine/`` beside a ``.reason`` file — and re-records
  transparently, so bit rot can never replay as a wrong number;
* in-process memo hits are re-validated against the disk file's
  ``(size, mtime_ns)`` signature, so an entry corrupted *after* it was
  memoized cannot keep serving from memory while cold readers see
  garbage;
* cold recordings take a pid-stamped single-flight lock
  (``<entry>.trace.lock``); stale locks (dead pid, or older than
  ``LOCK_STALE_SECONDS``) are broken, and lock starvation degrades to
  lock-less recording — duplicate publishes are safe by construction;
* reads and publishes retry transient ``EIO``/``ENOSPC`` with bounded
  deterministic backoff; when publishing keeps failing the cache drops
  one rung down the degradation ladder — recordings stay usable
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
    python -m repro.trace.cache clear    # delete every cached trace
"""

import hashlib
import marshal
import os
import pathlib
import sys
import threading
import time
from contextlib import contextmanager
from struct import Struct

from repro.chaos import plane as _chaos
from repro.ioutil import TRANSIENT_ERRNOS, atomic_write_bytes
from repro.trace import events as _events
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

#: the register-file models, whose code a model-keyed entry's trace and
#: end state both depend on
CORE_DIR = pathlib.Path(__file__).resolve().parents[1] / "core"

#: a model-keyed entry's payload: this header (magic, byte length of
#: the packed trace), the packed trace, then the marshalled
#: ``(end_key, end-state capture)``.  A shared entry's payload is the
#: packed trace alone
_END_MAGIC = b"NSFE"
_END_HEADER = Struct("<4sQ")

#: ``marshal`` format of the stored end state: version 2 writes no
#: object references, so equal captures always encode to equal bytes
#: (an entry recorded on another CPU is byte-identical to a serial one)
_END_MARSHAL = 2

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

#: traces already loaded in this process, keyed by (directory, key);
#: each entry is ``(trace, stat_sig)`` where ``stat_sig`` is the disk
#: file's (size, mtime_ns) at memoization time — ``None`` marks a
#: memory-only entry (publish failed or disabled) with no disk copy to
#: re-validate against
_memo = {}

#: the degradation ladder's process-local rung state
_degraded = {"publish_failures": 0, "publish_disabled": False}

_fingerprint = None
_core_fingerprint = None


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

    Only model-keyed keys carry it: a model-keyed entry holds a model's
    end state as well as the trace the model's stalls shaped, so an
    edit to a model, or another interpreter, must record it again.
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


def model_fingerprint(model):
    """Stable digest of a register-file model's configuration.

    Derived from the snapshot protocol's ``kind`` and ``config``
    (construction parameters only, no mutable state), so two freshly
    built models compare equal exactly when direct execution over them
    is guaranteed to produce the same event stream.  A model whose class
    defines ``_config()`` (the one ``capture()`` files under
    ``config``) is read without a capture; a wrapper, whose attribute
    forwarding could answer for the model inside it, is captured.
    Returns ``None`` for objects outside the snapshot protocol.
    """
    config = getattr(type(model), "_config", None)
    try:
        if config is not None:
            kind, config = model.kind, config(model)
        else:
            state = model.capture()
            kind, config = state["kind"], state["config"]
        config = sorted(config.items())
    except (TypeError, KeyError, AttributeError):
        return None
    digest = hashlib.sha256(repr((kind, config)).encode())
    return digest.hexdigest()[:16]


def model_part(model):
    """The model's part of a model-keyed key: its configuration
    fingerprint and the kind of its backing store, whose state the
    entry's end state holds; ``None`` outside the snapshot protocol."""
    fp = model_fingerprint(model)
    if fp is None:
        return None
    return f"{fp}|backing={type(model.backing).__name__}"


def trace_key(workload_name, context_size, scale, seed, model_fp=None):
    """Content-addressed key for one recorded execution."""
    canonical = (f"{workload_name}|ctx={context_size}|scale={scale!r}"
                 f"|seed={seed!r}|{recorder_fingerprint()}")
    if model_fp is not None:
        canonical += f"|model={model_fp}|core={core_fingerprint()}"
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def trace_path(workload, scale, seed, directory=None, model_fp=None):
    """Where the cached trace for one execution lives."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    key = trace_key(workload.name, workload.context_size, scale, seed,
                    model_fp=model_fp)
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


def run_traced(workload, model=None, scale=1.0, seed=1):
    """Execute ``workload`` over ``model`` through a recorder; returns
    the trace.  ``None`` records over a generously-sized NSF, which
    keeps recording fast by avoiding spills (a ``trace_stable`` stream
    is model-independent).  Touches no cache state or counter."""
    if model is None:
        from repro.core import NamedStateRegisterFile

        model = NamedStateRegisterFile(
            num_registers=4 * workload.context_size,
            context_size=workload.context_size,
        )
    tracer = TracingRegisterFile(model)
    workload.run(tracer, scale=scale, seed=seed)
    return tracer.trace


def record_trace(workload, scale=1.0, seed=1):
    """Execute ``workload`` once over a recording register file
    (:func:`run_traced`), or take the recording its batch made ahead."""
    handed = _handed(_planned(workload, None, scale, seed))
    trace = (run_traced(workload, scale=scale, seed=seed)
             if handed is None else handed.trace)
    STATS.records += 1
    return trace


# -- entries -----------------------------------------------------------------


def end_key(model, verdict):
    """The memo key of a fresh model, which a model-keyed entry stores
    beside its end state to name the model that left it: the exact
    class and the ``_config()`` that ``admit`` read off the model while
    it was fresh (``verdict``)."""
    cls = type(model)
    return (f"{cls.__module__}.{cls.__qualname__}",
            tuple(verdict.config.items()))


class Entry:
    """One cache entry in memory: the recorded ``trace`` and, for a
    model-keyed entry, ``end``: the marshalled ``(end_key, end-state
    capture)`` of the model it was recorded through (``None`` for a
    shared entry)."""

    __slots__ = ("trace", "end")

    def __init__(self, trace, end=None):
        self.trace = trace
        self.end = end

    def payload(self):
        """The bytes :func:`_publish` frames: the packed trace, behind
        an end-state header and followed by the end state when there is
        one."""
        data = self.trace.dumps_binary()
        if self.end is None:
            return data
        return b"".join((_END_HEADER.pack(_END_MAGIC, len(data)), data,
                         self.end))

    def end_state(self):
        """``(end_key, capture)``, decoded afresh on every call."""
        return marshal.loads(self.end)


def decode_entry(payload):
    """The :class:`Entry` of one payload (bytes or a memoryview of
    them); raises :class:`TraceFormatError` for anything
    :meth:`Entry.payload` does not write.  The trace is copied out of
    the payload once, and only the small end state is kept."""
    view = memoryview(payload)
    end = None
    if view[:4] == _END_MAGIC:
        if len(view) < _END_HEADER.size:
            raise TraceFormatError("entry shorter than its end-state "
                                   "header")
        _, length = _END_HEADER.unpack_from(view)
        start = _END_HEADER.size
        if length > len(view) - start:
            raise TraceFormatError("end-state header promises more trace "
                                   "than the entry holds")
        end = bytes(view[start + length:])
        view = view[start:start + length]
        try:
            marshal.loads(end)
        except (EOFError, ValueError, TypeError) as exc:
            raise TraceFormatError(f"unreadable end state: {exc}") from None
    return Entry(Trace.loads_binary(view), end)


def record_entry(workload, model=None, scale=1.0, seed=1):
    """:func:`run_traced`, as an :class:`Entry` that also carries the
    end state of a model :func:`~repro.trace.admit.admit` calls fresh
    beforehand.  Touches no cache state or counter: a batch's worker
    sends back its :meth:`Entry.payload`, to be published as it is."""
    verdict = None if model is None else admit(model)
    trace = run_traced(workload, model, scale=scale, seed=seed)
    if verdict is None or not verdict.fresh:
        return Entry(trace)
    end = (end_key(model, verdict), model.capture())
    return Entry(trace, marshal.dumps(end, _END_MARSHAL))


# -- a batch's hand-off ------------------------------------------------------


class _Planned:
    """One planned lookup of a batch: once a recording was made ahead
    of it, that recording's :class:`Entry` and the payload it will be
    published as, or what making it raised."""

    __slots__ = ("entry", "payload", "error")

    def __init__(self):
        self.entry = self.payload = self.error = None


#: per thread, the :class:`_Planned` lookups of the innermost open
#: :func:`handoff` block, by :func:`_plan_key` (absent outside one)
_HANDOFF = threading.local()


@contextmanager
def handoff():
    """Open a batch's hand-off for this thread for the block.

    :func:`plan_lookup` fills it, the batch stores each recording it
    made ahead in its entry, and the recorders of this thread take
    those recordings from it.  It is dropped when the block ends,
    however it ends, with whatever no recorder consumed.
    """
    outer = getattr(_HANDOFF, "plan", None)
    _HANDOFF.plan = {}
    try:
        yield
    finally:
        _HANDOFF.plan = outer


def _plan_key(workload, model, scale, seed):
    """Hand-off key of one lookup: a model-keyed one names its model."""
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
    """The :class:`Entry` made ahead for a planned lookup, once, or
    ``None`` when nothing was; raises what making it raised.  Its
    payload stays for :func:`_publish`."""
    if planned is None or (planned.entry is None and planned.error is None):
        return None
    entry, error = planned.entry, planned.error
    planned.entry = planned.error = None
    if error is not None:
        raise error
    return entry


def plan_lookup(workload, model, scale, seed):
    """Plan one lookup of the open hand-off, without side effects.

    ``model`` is ``None`` for a ``trace_stable`` workload.  Returns
    ``(path, entry)`` when the trace at ``path`` is neither memoized
    nor on disk (a recording would be made), ``entry`` being where the
    batch leaves a recording it makes ahead; ``None`` for a lookup
    planned before, a cached trace or a model outside the snapshot
    protocol.
    """
    plan = _HANDOFF.plan
    key = _plan_key(workload, model, scale, seed)
    if key in plan:
        return None
    part = None
    if model is not None:
        part = model_part(model)
        if part is None:
            return None
    path = trace_path(workload, scale, seed, model_fp=part)
    plan[key] = entry = _Planned()
    if (str(path.parent), path.name) in _memo or path.exists():
        return None
    return path, entry


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


def _parse_entry(blob):
    """Decode one on-disk entry: a payload (:func:`decode_entry`) in the
    CRC frame :func:`_publish` writes.  Anything else (a bare binary or
    text trace carries no CRC to check) raises
    :class:`TraceFormatError`.  The frame is checked and stripped in
    place, without copying the payload."""
    return decode_entry(_events.unframe(memoryview(blob)))


def _lookup(workload, path):
    """Memo-then-disk lookup; returns the :class:`Entry` or ``None`` on
    a miss.

    Memo hits are re-validated against the disk file's stat signature:
    if the file changed (or vanished) since memoization the entry is
    invalidated, so a poisoned memo can never outlive the bytes it
    mirrors.  Corrupt or truncated disk entries (torn copy, bit rot —
    the CRC frame catches both, in the trace and the end state alike)
    are quarantined and treated as misses, so callers transparently
    re-record them.
    """
    memo_key = (str(path.parent), path.name)
    cached = _memo.get(memo_key)
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
            entry = _parse_entry(_read_bytes(path))
        except TraceFormatError as exc:
            _quarantine(workload, path, str(exc))
        except OSError:
            entry = None
        if entry is not None:
            _memo[memo_key] = (entry, _stat_sig(path))
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


def _publish(workload, path, entry, planned=None):
    """Atomically write ``entry`` (CRC-framed) to ``path``; memoize.

    A recording its batch made ahead (``planned``) is published as the
    payload it arrived in; any other is serialized here, once.
    Transient write failures retry with deterministic backoff; when
    failures persist past :data:`PUBLISH_FAILURE_LIMIT` the ladder
    disables publishing for this process — recordings remain usable
    in-memory (``stat_sig=None`` memo entries), results stay exact,
    only warm-start reuse is lost.
    """
    memo_key = (str(path.parent), path.name)
    payload = None
    if planned is not None:
        payload, planned.payload = planned.payload, None
    if publishing_enabled():
        if payload is None:
            payload = entry.payload()
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
            _memo[memo_key] = (entry, _stat_sig(path))
            return
    else:
        _log("NOPUBLISH", workload, path)
    _memo[memo_key] = (entry, None)


def load_or_record(workload, scale=1.0, seed=1, directory=None):
    """Return the trace for ``(workload, scale, seed)``, recording once.

    The model-independent entry point — only correct for workloads with
    ``trace_stable = True``; timing-sensitive workloads go through
    :func:`load_for_model` / :func:`record_through` instead.
    """
    path = trace_path(workload, scale, seed, directory=directory)
    entry = _lookup(workload, path)
    if entry is None:
        lock_path, contended = _acquire_record_lock(path)
        try:
            if contended:
                # a concurrent recorder may have published while we
                # waited on its lock
                entry = _lookup(workload, path)
            if entry is None:
                entry = Entry(record_trace(workload, scale=scale,
                                           seed=seed))
                _publish(workload, path, entry,
                         _planned(workload, None, scale, seed, directory))
        finally:
            _release_record_lock(lock_path)
    return entry.trace


def _model_path(workload, model, scale, seed, directory):
    """Where the model-keyed entry of a model :func:`admit` calls fresh
    lives; ``None`` for any other model, which may neither look one up
    nor publish one: its run need not be the fresh run an entry
    memoizes."""
    if not admit(model).fresh:
        return None
    part = model_part(model)
    if part is None:
        return None
    return trace_path(workload, scale, seed, directory=directory,
                      model_fp=part)


def load_for_model(workload, model, scale=1.0, seed=1, directory=None):
    """Cached :class:`Entry` for this exact model configuration, or
    ``None``.

    The lookup path for timing-sensitive workloads, open only to a
    model :func:`~repro.trace.admit.admit` calls fresh: the entry was
    recorded through a fresh model of the same configuration and
    backing kind, so its trace may be replayed onto this one, and a
    model whose :func:`end_key` the entry names may ``restore()`` its
    end state instead.  A ``None`` return (miss, or a model that may
    not look up) means the caller must execute the workload directly —
    through :func:`record_through` for a fresh model, so the next run
    hits.
    """
    path = _model_path(workload, model, scale, seed, directory)
    return None if path is None else _lookup(workload, path)


def record_through(workload, model, scale=1.0, seed=1, directory=None):
    """Execute ``workload`` directly over ``model``, recording as it runs.

    The cold-run path for timing-sensitive workloads: the model ends up
    with genuine direct-execution statistics (no replay involved), and
    for a model :func:`~repro.trace.admit.admit` calls fresh the
    recorded stream and the model's end state are published under the
    model-keyed entry, so future runs on the same configuration restore
    or replay instead.  Any other model is recorded and nothing is
    published.  A recording its batch made ahead on a copy of the model
    arrives as the copy's entry, whose end state the model
    ``restore()``s.  Returns the trace.
    """
    path = _model_path(workload, model, scale, seed, directory)
    planned = _planned(workload, model, scale, seed, directory)
    entry = _handed(planned)
    if entry is None:
        entry = record_entry(workload, model, scale=scale, seed=seed)
    else:
        model.restore(entry.end_state()[1])
    STATS.records += 1
    if path is not None:
        _publish(workload, path, entry, planned)
    return entry.trace


def clear(directory=None):
    """Delete every cached trace (and lock debris); returns the number
    of traces removed.  Quarantined entries are kept for inspection —
    see :func:`clear_quarantine`."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    removed = 0
    if directory.is_dir():
        for path in directory.glob("*.trace"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in directory.glob("*.trace.lock"):
            try:
                path.unlink()
            except OSError:
                pass
    _memo.clear()
    return removed


def entries(directory=None):
    """``(path, size_bytes)`` of every cached trace, sorted by name."""
    directory = pathlib.Path(directory) if directory else cache_dir()
    if not directory.is_dir():
        return []
    return sorted((path, path.stat().st_size)
                  for path in directory.glob("*.trace"))


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Inspect or clear the content-addressed trace cache."
    )
    parser.add_argument("command", choices=["info", "clear"],
                        help="info: list entries; clear: delete them")
    parser.add_argument("--dir", default=None,
                        help="cache directory (default: "
                             f"$" + ENV_DIR + " or .trace-cache)")
    args = parser.parse_args(argv)
    directory = pathlib.Path(args.dir) if args.dir else cache_dir()
    if args.command == "clear":
        removed = clear(directory)
        print(f"removed {removed} cached trace(s) from {directory}")
        return 0
    listing = entries(directory)
    total = sum(size for _, size in listing)
    print(f"trace cache: {directory}"
          + ("" if enabled() else "  [DISABLED via $" + ENV_DISABLE + "]"))
    for path, size in listing:
        print(f"  {path.name}  {size:,} B")
    print(f"{len(listing)} entr{'y' if len(listing) == 1 else 'ies'}, "
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
