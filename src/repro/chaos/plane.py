"""Deterministic, seedable fault plane for storage and process failures.

Everything below :mod:`repro.core.faults` (which models register-array
faults) trusted the filesystem completely: the trace cache, the sweep
journal and the atomic-write helpers assumed every byte they wrote came
back intact.  This module is the other half of the zero-silent-
corruption contract — a *fault plane* that the storage substrate itself
consults, injecting the failures real disks and real fleets produce:

========== ================================================== =========
kind       effect                                             class
========== ================================================== =========
torn_rename a publish lands as a prefix of the new file       storage
truncate   a write persists only its first half               storage
bitflip    one bit of the payload flips on its way to disk    storage
enospc     the write raises ``OSError(ENOSPC)``               storage
eio        the operation raises ``OSError(EIO)`` (transient)  storage
stale_lock a crashed recorder's lock file is left behind      storage
crash      a sweep worker exits nonzero on its first attempt  process
hang       a sweep worker parks until the watchdog fires      process
slow       a sweep worker stalls ``slow_delay`` seconds       process
========== ================================================== =========

Faults fire from a **seeded schedule**: a :class:`FaultPlane` arms, per
injection site, a small set of operation indices (drawn once from its
seed) and consumes each armed token exactly once — so a bounded retry
always makes progress, and two runs with the same seed inject the same
faults at the same operations.  The plane is process-local; sweep cell
subprocesses build their own plane from the ``REPRO_CHAOS_*``
environment, which is exactly what makes a multi-worker chaos run
deterministic.  A cell forked from the runner's warm parent inherits
the plane that parent armed and never consumed: an exec'd parent arms
it here, at import, and a parent a sweep forks from its own process
re-arms it with :func:`refresh_from_env` under the cell environment,
whatever the sweep's own plane had drawn.

Injection sites (the storage operations the substrate exposes):

* ``cache.publish``  — the trace cache's atomic write of a recording;
* ``cache.load``     — reading a cache entry back from disk;
* ``cache.lock``     — acquiring the single-flight recording lock;
* ``journal.append`` — appending one write-ahead journal record;
* ``results.write``  — publishing a sweep's final output file.

Environment knobs (read once at import; ``refresh_from_env()``
re-reads them):

* ``REPRO_CHAOS_SEED``  — any integer arms the plane for this process
  (and, inherited, for every sweep cell subprocess);
* ``REPRO_CHAOS_KINDS`` — comma list of fault kinds (default: every
  storage kind plus ``crash`` and ``slow`` — ``hang`` is opt-in
  because it is only safe under a watchdog);
* ``REPRO_CHAOS_SITES`` — comma list of injection sites (default all);
* ``REPRO_CHAOS_COUNT`` — armed faults per site (default 2).

The plane never hides what it did: every injection is appended to
``FaultPlane.injected`` and summarized by :meth:`FaultPlane.report`.

Retry loops back off through :func:`backoff`.  A retry after a fault
the plane injected is counted in ``FaultPlane.backoff_s`` instead of
slept, the way :class:`repro.core.resilience.RetryingBackingStore`
prices its retries in simulated cycles; a real OS error still sleeps.
"""

import contextlib
import errno
import os
import random
import time
import zlib

from repro.errors import ReproError

ENV_SEED = "REPRO_CHAOS_SEED"
ENV_KINDS = "REPRO_CHAOS_KINDS"
ENV_SITES = "REPRO_CHAOS_SITES"
ENV_COUNT = "REPRO_CHAOS_COUNT"

STORAGE_KINDS = ("torn_rename", "truncate", "bitflip", "enospc", "eio",
                 "stale_lock")
PROCESS_KINDS = ("crash", "hang", "slow")
FAULT_KINDS = STORAGE_KINDS + PROCESS_KINDS

#: every storage operation the substrate routes through the plane
SITES = ("cache.publish", "cache.load", "cache.lock", "journal.append",
         "results.write")

#: which storage kind can fire at which site
KIND_SITES = {
    "torn_rename": ("cache.publish", "results.write"),
    "truncate": ("cache.publish", "journal.append", "results.write"),
    "bitflip": ("cache.publish", "results.write"),
    "enospc": ("cache.publish", "journal.append", "results.write"),
    "eio": ("cache.publish", "cache.load", "journal.append",
            "results.write"),
    "stale_lock": ("cache.lock",),
}

DEFAULT_COUNT = 2
DEFAULT_HORIZON = 4

#: kinds an env-armed plane injects by default; ``hang`` needs a
#: watchdog to be survivable, so it must be requested explicitly
DEFAULT_ENV_KINDS = STORAGE_KINDS + ("crash", "slow")

_ERRNOS = {"enospc": errno.ENOSPC, "eio": errno.EIO}


class ChaosError(ReproError):
    """The fault plane was configured with unknown kinds/sites."""


def oserror(kind, path):
    """The OSError one injected ``enospc``/``eio`` fault raises."""
    return mark_injected(OSError(_ERRNOS[kind],
                                 f"chaos[{kind}]: injected fault",
                                 os.fspath(path)))


def mark_injected(exc):
    """Mark ``exc`` as caused by an injected fault; returns it."""
    exc.chaos_injected = True
    return exc


def backoff(exc, seconds):
    """Back off ``seconds`` before retrying the operation ``exc`` failed.

    After an error :func:`mark_injected` marked, with a plane active,
    the seconds are added to that plane's ``backoff_s`` and no time
    passes.  Any other error sleeps exactly ``seconds``.
    """
    plane = ACTIVE
    if plane is not None and getattr(exc, "chaos_injected", False):
        plane.backoff_s += seconds
    else:
        time.sleep(seconds)


def corrupt_bytes(kind, data, aux=0):
    """Apply one storage corruption to a payload; pure and seedable.

    ``aux`` picks the flipped bit for ``bitflip`` (any int); truncating
    kinds keep the first half, the shape a torn write leaves behind.
    """
    if kind in ("truncate", "torn_rename"):
        return data[:len(data) // 2]
    if kind == "bitflip":
        if not data:
            return data
        mutable = bytearray(data)
        bit = aux % (len(mutable) * 8)
        mutable[bit >> 3] ^= 1 << (bit & 7)
        return bytes(mutable)
    raise ChaosError(f"cannot corrupt bytes with fault kind {kind!r}")


class FaultPlane:
    """A seeded, consumable schedule of storage and process faults.

    Each armed fault is a token ``(kind, aux)`` keyed by the index of
    the operation (per site) it fires at; tokens are consumed on
    injection, so retried operations eventually succeed and the whole
    schedule is exhausted in bounded work.
    """

    def __init__(self, seed, kinds=STORAGE_KINDS, sites=SITES,
                 count=DEFAULT_COUNT, horizon=DEFAULT_HORIZON,
                 slow_delay=0.05):
        unknown = sorted(set(kinds) - set(FAULT_KINDS))
        if unknown:
            raise ChaosError(f"unknown fault kind(s) {unknown}; expected "
                             f"a subset of {list(FAULT_KINDS)}")
        unknown = sorted(set(sites) - set(SITES))
        if unknown:
            raise ChaosError(f"unknown injection site(s) {unknown}; "
                             f"expected a subset of {list(SITES)}")
        if count < 0:
            raise ChaosError(f"count must be >= 0, got {count}")
        if horizon < 1:
            raise ChaosError(f"horizon must be >= 1, got {horizon}")
        self.seed = int(seed)
        self.kinds = tuple(kinds)
        self.sites = tuple(sites)
        self.count = int(count)
        self.horizon = int(horizon)
        self.slow_delay = slow_delay
        #: log of every fault actually fired, in order
        self.injected = []
        #: retry backoff counted, not slept, after injected faults
        self.backoff_s = 0.0
        self._counts = {}
        self._armed = {}
        rng = random.Random(zlib.crc32(repr(
            (self.seed, self.kinds, self.sites, self.count, self.horizon)
        ).encode()))
        for site in self.sites:
            kinds_here = [k for k in self.kinds
                          if site in KIND_SITES.get(k, ())]
            if not kinds_here:
                continue
            indices = sorted(rng.sample(range(self.horizon),
                                        min(self.count, self.horizon)))
            armed = {op: (kinds_here[rng.randrange(len(kinds_here))],
                          rng.getrandbits(32))
                     for op in indices}
            if armed:
                self._armed[site] = armed
                self._counts[site] = 0
        self._process_kinds = tuple(k for k in self.kinds
                                    if k in PROCESS_KINDS)

    # -- storage faults ------------------------------------------------------

    def storage_fault(self, site):
        """Consume the token armed for this site's next operation.

        Returns ``(kind, aux)`` when a fault fires, else ``None``.  The
        caller implements the fault's effect — raising the OSError,
        corrupting the payload, planting the stale lock — because only
        the call site knows which effects are physically possible.
        """
        armed = self._armed.get(site)
        if armed is None:
            return None
        op = self._counts[site]
        self._counts[site] = op + 1
        token = armed.pop(op, None)
        if token is not None:
            self.injected.append({"site": site, "kind": token[0],
                                  "op": op})
        return token

    def plant_stale_lock(self, lock_path):
        """Leave the debris of a crashed recorder: a lock file with an
        ancient mtime (so age-based staleness detection must fire)."""
        try:
            with open(lock_path, "w", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            os.utime(lock_path, (1, 1))
        except OSError:
            pass

    # -- process faults ------------------------------------------------------

    def process_fault(self, key, attempt):
        """Fault kind for one sweep-cell attempt, or ``None``.

        Deterministic in ``(seed, key)``: roughly one cell in three is
        selected, always on its first attempt only — so a single retry
        is guaranteed to make progress.
        """
        if not self._process_kinds or attempt != 0:
            return None
        digest = zlib.crc32(f"{self.seed}|{key}".encode())
        if digest % 3:
            return None
        kind = self._process_kinds[(digest >> 8)
                                   % len(self._process_kinds)]
        self.injected.append({"site": "process", "kind": kind, "op": 0,
                              "key": key})
        return kind

    # -- reporting -----------------------------------------------------------

    def armed_remaining(self):
        """Storage-fault tokens not yet consumed."""
        return sum(len(armed) for armed in self._armed.values())

    def armed_schedule(self):
        """``{site: {op_index: kind}}`` of the tokens still armed."""
        return {site: {op: token[0] for op, token in sorted(armed.items())}
                for site, armed in sorted(self._armed.items())}

    def report(self):
        by_kind = {}
        for entry in self.injected:
            by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0) + 1
        return {
            "seed": self.seed,
            "injected": len(self.injected),
            "by_kind": dict(sorted(by_kind.items())),
            "armed_remaining": self.armed_remaining(),
            "backoff_s": self.backoff_s,
        }

    def __repr__(self):
        return (f"FaultPlane(seed={self.seed}, kinds={self.kinds}, "
                f"sites={self.sites}, injected={len(self.injected)}, "
                f"armed={self.armed_remaining()})")


# -- activation --------------------------------------------------------------

#: the process-wide active plane; ``None`` = chaos disabled, and every
#: hook in the substrate is a single attribute load + None test
ACTIVE = None


def activate(plane):
    """Install ``plane`` as the process-wide fault plane."""
    global ACTIVE
    ACTIVE = plane
    return plane


def deactivate():
    global ACTIVE
    ACTIVE = None


@contextlib.contextmanager
def activated(plane):
    """Scope a fault plane; restores whatever was active before."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = plane
    try:
        yield plane
    finally:
        ACTIVE = previous


def _csv(raw):
    if not raw:
        return None
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def plane_from_env(environ=None):
    """Build a plane from ``REPRO_CHAOS_*``, or ``None`` if unarmed."""
    environ = os.environ if environ is None else environ
    raw = environ.get(ENV_SEED)
    if raw in (None, ""):
        return None
    try:
        seed = int(raw)
    except ValueError:
        raise ChaosError(
            f"{ENV_SEED} must be an integer, got {raw!r}") from None
    kinds = _csv(environ.get(ENV_KINDS)) or DEFAULT_ENV_KINDS
    sites = _csv(environ.get(ENV_SITES)) or SITES
    try:
        count = int(environ.get(ENV_COUNT) or DEFAULT_COUNT)
    except ValueError:
        raise ChaosError(f"{ENV_COUNT} must be an integer") from None
    return FaultPlane(seed, kinds=kinds, sites=sites, count=count)


def refresh_from_env():
    """Re-read ``REPRO_CHAOS_*`` and (de)activate accordingly."""
    global ACTIVE
    ACTIVE = plane_from_env()
    return ACTIVE


# arm at import so sweep cell subprocesses inherit the schedule from
# their environment with no extra plumbing
ACTIVE = plane_from_env()
