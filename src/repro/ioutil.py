"""Crash-safe file I/O: atomic write-then-rename.

Experiment CLIs used to write results with a plain ``open()``/
``write()`` — an interrupt (SIGKILL, OOM, power loss) mid-write left a
half-written file that a later run would happily parse.  Every durable
artifact of the repo (golden tables, ``benchmarks/results/`` reports,
sweep journals, snapshots) now goes through :func:`atomic_write_bytes`:
the payload lands in a temporary file in the *same directory* (same
filesystem, so the rename is atomic), is flushed and fsynced, and only
then renamed over the destination — the ``O_TMPFILE``-and-link
discipline, portably.  Readers therefore observe either the old
complete file or the new complete file, never a torn mixture.

Two hardening layers ride on top (PR 6):

* **Bounded retries** — ``attempts``/``backoff`` retry transient
  ``EIO``/``ENOSPC``/``EAGAIN`` failures with deterministic
  exponential backoff (``backoff * 2**attempt``; no jitter, so a
  seeded chaos run replays identically).  Backoff after a fault the
  chaos plane injected is counted, not slept
  (:func:`repro.chaos.plane.backoff`).
* **Read-back verification** — ``verify=True`` re-reads the
  destination after the rename and raises ``OSError(EIO)`` on any
  mismatch, converting silent corruption (a torn rename, a bit flip
  between page cache and platter) into a retryable failure.  Reserved
  for the files nothing downstream re-validates, e.g. a sweep's final
  output; cache entries carry their own CRC frame instead.

When a :class:`repro.chaos.FaultPlane` is active, every write that
names an injection ``site`` consults it first — this module is where
torn renames, truncated writes, bit flips and ``ENOSPC``/``EIO`` are
physically injected.
"""

import errno
import os
import tempfile

from repro.chaos import plane as _chaos

#: errnos worth retrying: transient device errors and contention
TRANSIENT_ERRNOS = frozenset({errno.EIO, errno.ENOSPC, errno.EAGAIN})


def atomic_write_bytes(path, data, site=None, attempts=1, backoff=0.01,
                       verify=False):
    """Atomically replace ``path`` with ``data``; returns ``path``.

    The temporary file is created next to the destination so
    ``os.replace`` stays within one filesystem.  On any failure the
    temporary is removed and the destination is left untouched (unless
    an injected torn rename deliberately tears it).

    ``site`` names the chaos injection site this write belongs to;
    ``attempts``/``backoff`` bound the retry loop for transient
    errors; ``verify`` re-reads the destination and treats a mismatch
    as a transient ``EIO``.
    """
    path = os.fspath(path)
    for attempt in range(max(1, attempts)):
        try:
            return _atomic_write_once(path, data, site=site,
                                      verify=verify)
        except OSError as exc:
            if (exc.errno not in TRANSIENT_ERRNOS
                    or attempt >= max(1, attempts) - 1):
                raise
            _chaos.backoff(exc, backoff * (2 ** attempt))
    raise AssertionError("unreachable")  # pragma: no cover


def atomic_write_text(path, text, encoding="utf-8", **kwargs):
    """Atomically replace ``path`` with ``text``; returns ``path``."""
    return atomic_write_bytes(path, text.encode(encoding), **kwargs)


def _atomic_write_once(path, data, site=None, verify=False):
    payload = data
    fault = None
    if site is not None and _chaos.ACTIVE is not None:
        fault = _chaos.ACTIVE.storage_fault(site)
    if fault is not None:
        kind, aux = fault
        if kind in ("enospc", "eio"):
            raise _chaos.oserror(kind, path)
        if kind in ("truncate", "bitflip"):
            payload = _chaos.corrupt_bytes(kind, data, aux)
        elif kind == "torn_rename":
            # the rename "succeeds" but only a prefix of the new file
            # lands — written straight to the destination, exactly the
            # artefact a non-atomic writer leaves after a crash
            with open(path, "wb") as handle:
                handle.write(data[:len(data) // 2])
                handle.flush()
                os.fsync(handle.fileno())
            payload = None
    if payload is not None:
        directory = os.path.dirname(path) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".atomic-",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_directory(directory)
    if verify:
        try:
            with open(path, "rb") as handle:
                landed = handle.read()
        except OSError:
            landed = None
        if landed != data:
            exc = OSError(errno.EIO, "read-back verification failed: "
                          "destination does not hold the written "
                          "payload", path)
            if fault is not None:
                # this attempt's own injected fault tore the payload
                _chaos.mark_injected(exc)
            raise exc
    return path


def _fsync_directory(directory):
    """Persist the rename itself (best effort — not all platforms
    allow opening a directory)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
