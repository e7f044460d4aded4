"""Write-ahead journal for resumable experiment sweeps.

One JSON record per line, appended with flush+fsync *before* the sweep
moves on — so a crash (or SIGKILL) can lose at most the record being
written, never a completed one.  Every record carries a sha256 over its
own canonical JSON; :meth:`Journal.load` silently drops truncated or
corrupted lines (a half-written tail is the expected crash artefact)
and reports how many it dropped, so a resume re-runs exactly the cells
whose results did not land intact.

The first record is a *header* naming the experiment and its operating
point (scale, seed).  Resuming against a journal whose header disagrees
raises :class:`~repro.errors.JournalError` — mixing cells from two
operating points would silently corrupt the assembled table.

Storage-fault hardening (PR 6):

* :meth:`Journal.append` retries transient ``EIO``/``ENOSPC`` with
  deterministic exponential backoff, and guards against a torn tail —
  if the file does not end in a newline (a crash or injected partial
  write mid-append), the new record starts on a fresh line so it can
  never fuse with the debris;
* :meth:`Journal.recover_tail` physically truncates trailing garbage
  back to the end of the last intact record — the scan-back step a
  resuming sweep performs before trusting the journal, so repeated
  crashes cannot accrete an unbounded corrupt tail;
* when a :class:`repro.chaos.FaultPlane` is active, appends consult
  the ``journal.append`` injection site — partial writes land exactly
  the torn artefacts the recovery paths must survive.
"""

import hashlib
import json
import os
import pathlib

from repro.chaos import plane as _chaos
from repro.errors import JournalError
from repro.ioutil import TRANSIENT_ERRNOS

JOURNAL_VERSION = 1

#: bounded retries for one append (transient EIO/ENOSPC)
_APPEND_ATTEMPTS = 3


def _record_sha(record):
    """Integrity hash over the record's canonical JSON (minus ``sha``)."""
    payload = {key: value for key, value in record.items()
               if key != "sha"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _parse_line(raw):
    """One journal line -> intact record dict, or ``None`` if corrupt."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
    raw = raw.strip()
    if not raw:
        return None
    try:
        record = json.loads(raw)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict) or "sha" not in record:
        return None
    if record["sha"] != _record_sha(record):
        return None
    return record


class Journal:
    """Append-only JSONL journal with per-record integrity hashes."""

    def __init__(self, path):
        self.path = pathlib.Path(path)

    def exists(self):
        return self.path.exists()

    # -- writing -----------------------------------------------------------

    def append(self, record):
        """Stamp, write and fsync one record; returns the stamped dict.

        Transient write failures are retried with deterministic
        exponential backoff; each retry rewrites the full record on a
        fresh line, so a partial write from a failed attempt is dropped
        as a corrupt line, never fused into the retried record.
        """
        record = dict(record)
        record["sha"] = _record_sha(record)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        data = (line + "\n").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for attempt in range(_APPEND_ATTEMPTS):
            try:
                self._append_once(data)
                return record
            except OSError as exc:
                if (exc.errno not in TRANSIENT_ERRNOS
                        or attempt >= _APPEND_ATTEMPTS - 1):
                    raise
                _chaos.backoff(exc, 0.01 * (2 ** attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def _append_once(self, data):
        kind = None
        if _chaos.ACTIVE is not None:
            token = _chaos.ACTIVE.storage_fault("journal.append")
            if token is not None:
                kind = token[0]
        if kind in ("enospc", "eio"):
            raise _chaos.oserror(kind, self.path)
        needs_newline = False
        try:
            with open(self.path, "rb") as check:
                check.seek(0, os.SEEK_END)
                if check.tell() > 0:
                    check.seek(-1, os.SEEK_END)
                    needs_newline = check.read(1) != b"\n"
        except FileNotFoundError:
            pass
        with open(self.path, "ab") as handle:
            if needs_newline:
                # torn tail from a previous crash/fault: start this
                # record on its own line so it cannot fuse with debris
                handle.write(b"\n")
            if kind == "truncate":
                # partial append: half the record lands, then the
                # device errors — the caller's retry must cope
                handle.write(data[:len(data) // 2])
                handle.flush()
                os.fsync(handle.fileno())
                raise _chaos.oserror("eio", self.path)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def write_header(self, experiment, scale, seed):
        return self.append({
            "record": "header",
            "version": JOURNAL_VERSION,
            "experiment": experiment,
            "scale": scale,
            "seed": seed,
        })

    def append_cell(self, key, status, payload=None, attempts=1,
                    error=None):
        return self.append({
            "record": "cell",
            "key": key,
            "status": status,
            "payload": payload,
            "attempts": attempts,
            "error": error,
        })

    # -- recovery ----------------------------------------------------------

    def recover_tail(self):
        """Truncate trailing garbage back to the last intact record.

        Scans forward tracking the byte offset just past the last
        newline-terminated, integrity-valid record, then physically
        truncates everything after it — the half-written tail a crash
        leaves, or the corrupt suffix a torn append accretes.  Corrupt
        or blank lines *between* valid records are left in place
        (``load`` skips them); only the tail is cut, so no intact
        record is ever discarded.  Trailing blank lines are debris and
        are cut with the tail — only a valid record advances the keep
        offset.  Returns the number of bytes removed (0 for a clean or
        absent journal).
        """
        try:
            with open(self.path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return 0
        keep = 0
        offset = 0
        while offset < len(blob):
            newline = blob.find(b"\n", offset)
            if newline < 0:
                break  # unterminated tail: never part of the keep
            line = blob[offset:newline]
            offset = newline + 1
            if _parse_line(line) is not None:
                keep = offset
        removed = len(blob) - keep
        if removed:
            with open(self.path, "r+b") as handle:
                handle.truncate(keep)
                handle.flush()
                os.fsync(handle.fileno())
        return removed

    # -- reading -----------------------------------------------------------

    def load(self):
        """Parse the journal; returns ``(header, cells, dropped)``.

        * ``header`` — the header record, or None if absent/corrupt;
        * ``cells`` — ``{key: record}``, last intact record wins;
        * ``dropped`` — count of unparsable/corrupt/unknown lines.
        """
        header = None
        cells = {}
        dropped = 0
        if not self.path.exists():
            return header, cells, dropped
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for raw in lines:
            if not raw.strip():
                continue
            record = _parse_line(raw)
            if record is None:
                dropped += 1
                continue
            kind = record.get("record")
            if kind == "header":
                if record.get("version") != JOURNAL_VERSION:
                    raise JournalError(
                        f"{self.path}: journal version "
                        f"{record.get('version')!r}, this build reads "
                        f"{JOURNAL_VERSION}"
                    )
                if header is None:
                    header = record
                elif record != header:
                    raise JournalError(
                        f"{self.path}: conflicting header records — "
                        "two different sweeps wrote to one journal"
                    )
            elif kind == "cell" and "key" in record:
                cells[record["key"]] = record
            else:
                dropped += 1
        return header, cells, dropped

    def check_header(self, experiment, scale, seed):
        """Validate this journal belongs to the requested sweep.

        Returns ``(cells, dropped)`` on success; raises
        :class:`~repro.errors.JournalError` on any mismatch.
        """
        header, cells, dropped = self.load()
        if header is None:
            raise JournalError(
                f"{self.path}: no intact header record — the journal is "
                "corrupt from the start; delete it to run fresh"
            )
        for field, wanted in (("experiment", experiment),
                              ("scale", scale), ("seed", seed)):
            if header[field] != wanted:
                raise JournalError(
                    f"{self.path}: journal {field} is "
                    f"{header[field]!r}, sweep requested {wanted!r} — "
                    "refusing to mix operating points"
                )
        return cells, dropped
