"""Register-reference trace format.

The authors evaluated the NSF by feeding register-reference traces from
cross-compiled programs to a register file simulator.  This package
makes that methodology a first-class feature: a
:class:`TracingRegisterFile` records every event a front-end generates,
and :func:`repro.trace.replay.replay` re-drives any model configuration
from the recording — so one (expensive) workload execution can evaluate
an entire design-space sweep.

Logically an event is a 4-tuple ``(op, cid, offset, value)``:

====== =====================================
op     meaning
====== =====================================
B      begin_context(cid)
E      end_context(cid)
S      switch_to(cid)
R      read(offset) in context cid
W      write(offset, value) in context cid
F      free_register(offset) in context cid
T      tick(n)  (n carried in ``value``)
====== =====================================

Physically a :class:`Trace` is *packed*: one flat ``array('q')`` holding
four signed 64-bit ints per event (int opcode, cid, offset, value) —
no per-event tuple objects, sized for multi-million-event traces.
Values outside the int64 range (Python ints are unbounded) are escaped
through a side table, so packing is lossless.  Iterating a trace still
yields the classic ``(str_op, cid, offset, value)`` tuples, and the
replay engine consumes the flat array directly.

Two serializations:

* the original text format — one event per line (``op cid offset
  value``) under a ``# nsf-trace v1`` header, trivially diffable;
* a struct-packed binary format (``NSFT`` magic) that is essentially a
  header plus the raw little-endian event array — the on-disk form of
  the trace cache, ~6x smaller and ~30x faster to load than text.

On disk the trace cache additionally wraps the binary form in an
*integrity frame* (``NSFC`` magic): a 20-byte header carrying a CRC-32
of the payload plus its exact length.  A frame whose checksum or length
disagrees raises :class:`TraceIntegrityError` — the signal the cache
uses to quarantine bit-rotted or torn entries instead of replaying
them.  CRC-32 (:func:`zlib.crc32`) is the stamp because it runs at
C speed on multi-hundred-kilobyte traces; the threat model is random
corruption, not an adversary (the sweep journal already carries sha256
for end-to-end results).
"""

import hashlib
import sys
import zlib
from array import array
from struct import Struct

from repro.errors import ReproError

BEGIN, END, SWITCH, READ, WRITE, FREE, TICK = "B", "E", "S", "R", "W", "F", "T"

#: int opcodes of the packed representation (hot ops first)
OP_READ, OP_WRITE, OP_TICK, OP_SWITCH, OP_BEGIN, OP_END, OP_FREE = range(7)

#: str op -> int opcode
OP_CODES = {
    READ: OP_READ,
    WRITE: OP_WRITE,
    TICK: OP_TICK,
    SWITCH: OP_SWITCH,
    BEGIN: OP_BEGIN,
    END: OP_END,
    FREE: OP_FREE,
}

#: int opcode -> str op
OP_NAMES = tuple(sorted(OP_CODES, key=OP_CODES.get))

_VALID_OPS = set(OP_CODES)

#: int64 bounds of the packed value slot
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

#: in-array marker for "look the value up in the wide-value table".
#: INT64_MIN itself remains representable: resolution is
#: ``wide.get(index, marker)``, whose default returns the marker — i.e.
#: the literal value — when no escape was registered for the event.
WIDE_VALUE = INT64_MIN

_MAGIC = b"NSFT"
_BIN_VERSION = 1
#: magic, version, reserved, context_size, n_events, n_wide
_HEADER = Struct("<4sBBqqq")
#: event index, byte length of the decimal value that follows
_WIDE_ENTRY = Struct("<qI")

FRAME_MAGIC = b"NSFC"
_FRAME_VERSION = 1
#: magic, version, 3 pad bytes, crc32(payload), payload length
_FRAME_HEADER = Struct("<4sBxxxIQ")


class TraceFormatError(ReproError):
    """Raised for malformed serialized traces (text or binary)."""


class TraceIntegrityError(TraceFormatError):
    """An integrity frame's CRC or length disagrees with its payload —
    the file was corrupted after it was written (bit rot, torn copy)."""


def frame(payload):
    """Wrap serialized bytes in a CRC-32 integrity frame."""
    return _FRAME_HEADER.pack(FRAME_MAGIC, _FRAME_VERSION,
                              zlib.crc32(payload), len(payload)) + payload


def unframe(blob):
    """Verify and strip an integrity frame; returns the payload.

    Raises :class:`TraceIntegrityError` when the frame is truncated,
    its length promise is wrong, or the CRC does not match — i.e. the
    bytes on disk are not the bytes that were framed.
    """
    if len(blob) < _FRAME_HEADER.size:
        raise TraceIntegrityError(
            "integrity frame shorter than its header")
    magic, version, crc, length = _FRAME_HEADER.unpack_from(blob)
    if magic != FRAME_MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}; not an integrity "
                               "frame")
    if version != _FRAME_VERSION:
        raise TraceFormatError(
            f"unsupported integrity frame version {version}")
    payload = blob[_FRAME_HEADER.size:]
    if len(payload) != length:
        raise TraceIntegrityError(
            f"torn frame: header promises {length} payload byte(s), "
            f"file holds {len(payload)}")
    if zlib.crc32(payload) != crc:
        raise TraceIntegrityError(
            "frame CRC mismatch: payload corrupted on disk")
    return payload


class Trace:
    """A recorded register-reference stream, packed four int64s/event."""

    __slots__ = ("_data", "_wide", "_pending", "_digest", "context_size")

    def __init__(self, events=None, context_size=32):
        self._data = array("q")
        self._wide = {}
        self._pending = []
        self._digest = None
        self.context_size = context_size
        if events:
            for op, cid, offset, value in events:
                self.append(op, cid, offset, value)

    def append(self, op, cid=0, offset=0, value=0):
        """Append one event; ``op`` is a str op or an int opcode."""
        if type(op) is not int:
            try:
                op = OP_CODES[op]
            except KeyError:
                raise TraceFormatError(f"unknown trace op {op!r}") from None
        self._pending.extend((op, cid, offset, value))

    def append_wide(self, op, cid, offset, value):
        """Append an event whose value does not fit in int64."""
        self._flush()
        data = self._data
        self._wide[len(data) >> 2] = value
        data.extend((op, cid, offset, WIDE_VALUE))

    def _flush(self):
        """Drain buffered events into the packed array.

        Appending to a plain list is ~3x cheaper per event than
        ``array.extend`` (which validates and converts each int), so
        the recording hot path buffers and the int64 conversion is
        paid once here, on first read.  The fallback escapes values
        outside int64 through the wide table and coerces non-int
        values to 0, the recorded placeholder for opaque payloads.
        """
        pending = self._pending
        if not pending:
            return
        data = self._data
        base = len(data)
        try:
            data.extend(pending)
        except (OverflowError, TypeError):
            # array.extend appends element-wise; drop the partial batch
            del data[base:]
            for i in range(0, len(pending), 4):
                op, cid, offset, value = pending[i:i + 4]
                try:
                    data.extend((op, cid, offset, value))
                except (OverflowError, TypeError) as exc:
                    excess = len(data) & 3
                    if excess:
                        del data[-excess:]
                    if isinstance(exc, OverflowError):
                        self._wide[len(data) >> 2] = value
                        data.extend((op, cid, offset, WIDE_VALUE))
                    else:
                        data.extend((op, cid, offset, 0))
        del pending[:]

    def packed(self):
        """The raw representation: ``(array('q'), wide_value_dict)``.

        The array holds four ints per event — opcode, cid, offset,
        value.  A value equal to :data:`WIDE_VALUE` is resolved as
        ``wide.get(event_index, WIDE_VALUE)``.
        """
        self._flush()
        return self._data, self._wide

    def digest(self):
        """Content key of the trace (16 bytes), for in-process memos.

        blake2b over the packed events, the wide-value table and
        ``context_size``: two traces with equal content share a key,
        so no memo has to key on ``id()``.  The digest is cached on the
        object and recomputed only once the trace has grown (events are
        only ever appended), so a repeated lookup costs O(1).
        """
        self._flush()
        stamp = (len(self._data), self.context_size)
        cached = self._digest
        if cached is None or cached[0] != stamp:
            h = hashlib.blake2b(self._data, digest_size=16)
            h.update(repr(stamp).encode())
            h.update(repr(sorted(self._wide.items())).encode())
            cached = self._digest = (stamp, h.digest())
        return cached[1]

    def __len__(self):
        self._flush()
        return len(self._data) >> 2

    def __iter__(self):
        """Yield classic ``(str_op, cid, offset, value)`` tuples."""
        self._flush()
        data, wide, names = self._data, self._wide, OP_NAMES
        for base in range(0, len(data), 4):
            value = data[base + 3]
            if value == WIDE_VALUE:
                value = wide.get(base >> 2, value)
            yield (names[data[base]], data[base + 1], data[base + 2],
                   value)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        self._flush()
        other._flush()
        return (self.context_size == other.context_size
                and self._data == other._data
                and self._wide == other._wide)

    @property
    def events(self):
        """The trace as a list of ``(str_op, cid, offset, value)``
        tuples (materialized on demand; the packed array is the store).
        """
        return list(self)

    @property
    def nbytes(self):
        """In-memory footprint of the packed event array."""
        self._flush()
        return self._data.itemsize * len(self._data)

    # -- statistics ----------------------------------------------------------

    def counts(self):
        """Event-type histogram."""
        self._flush()
        histogram = {}
        data = self._data
        for base in range(0, len(data), 4):
            op = OP_NAMES[data[base]]
            histogram[op] = histogram.get(op, 0) + 1
        return histogram

    def instructions(self):
        self._flush()
        data = self._data
        total = 0
        for base in range(0, len(data), 4):
            if data[base] == OP_TICK:
                total += data[base + 3]
        return total

    def context_ids(self):
        self._flush()
        data = self._data
        return {data[base + 1] for base in range(0, len(data), 4)
                if data[base] == OP_BEGIN}

    # -- text serialization --------------------------------------------------

    def dumps(self):
        """Serialize to trace text."""
        lines = [f"# nsf-trace v1 context_size={self.context_size}"]
        for op, cid, offset, value in self:
            lines.append(f"{op} {cid} {offset} {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text):
        """Parse trace text produced by :meth:`dumps`."""
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# nsf-trace v1"):
            raise TraceFormatError("missing trace header")
        try:
            context_size = int(lines[0].rsplit("=", 1)[1])
        except (IndexError, ValueError):
            raise TraceFormatError("bad context_size in header") from None
        trace = cls(context_size=context_size)
        for lineno, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4 or parts[0] not in _VALID_OPS:
                raise TraceFormatError(f"line {lineno}: bad event {line!r}")
            try:
                trace.append(parts[0], int(parts[1]), int(parts[2]),
                             int(parts[3]))
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: non-integer field in {line!r}"
                ) from None
        return trace

    # -- binary serialization ------------------------------------------------

    def dumps_binary(self):
        """Serialize to the packed binary format (bytes)."""
        self._flush()
        data = self._data
        if sys.byteorder != "little":
            data = array("q", data)
            data.byteswap()
        chunks = [_HEADER.pack(_MAGIC, _BIN_VERSION, 0, self.context_size,
                               len(self._data) >> 2, len(self._wide)),
                  data.tobytes()]
        for index in sorted(self._wide):
            digits = str(self._wide[index]).encode("ascii")
            chunks.append(_WIDE_ENTRY.pack(index, len(digits)))
            chunks.append(digits)
        return b"".join(chunks)

    @classmethod
    def loads_binary(cls, blob):
        """Parse bytes produced by :meth:`dumps_binary` (or a memoryview
        of them, which the events are copied out of once)."""
        if len(blob) < _HEADER.size:
            raise TraceFormatError("binary trace shorter than its header")
        magic, version, _, context_size, n_events, n_wide = \
            _HEADER.unpack_from(blob)
        if magic != _MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}; not a binary "
                                   "nsf-trace")
        if version != _BIN_VERSION:
            raise TraceFormatError(f"unsupported binary trace version "
                                   f"{version}")
        if n_events < 0 or n_wide < 0 or context_size <= 0:
            raise TraceFormatError("negative count in binary trace header")
        body_end = _HEADER.size + 32 * n_events
        if len(blob) < body_end:
            raise TraceFormatError(
                f"truncated binary trace: header promises {n_events} "
                f"events, payload holds {(len(blob) - _HEADER.size) // 32}"
            )
        trace = cls(context_size=context_size)
        trace._data.frombytes(blob[_HEADER.size:body_end])
        if sys.byteorder != "little":
            trace._data.byteswap()
        cursor = body_end
        for _ in range(n_wide):
            if len(blob) < cursor + _WIDE_ENTRY.size:
                raise TraceFormatError("truncated wide-value table")
            index, length = _WIDE_ENTRY.unpack_from(blob, cursor)
            cursor += _WIDE_ENTRY.size
            if not 0 <= index < n_events:
                raise TraceFormatError(
                    f"wide-value index {index} out of range")
            digits = bytes(blob[cursor:cursor + length])
            if len(digits) != length:
                raise TraceFormatError("truncated wide-value digits")
            cursor += length
            try:
                trace._wide[index] = int(digits)
            except ValueError:
                raise TraceFormatError(
                    f"non-integer wide value {digits!r}") from None
        if cursor != len(blob):
            raise TraceFormatError(
                f"{len(blob) - cursor} trailing byte(s) after binary trace")
        # validate opcodes via a strided slice — min/max over the op
        # column beats a Python-level loop ~10x on big traces; the
        # loop only runs to name the offender
        ops = trace._data[0::4]
        if ops and not 0 <= min(ops) <= max(ops) < len(OP_NAMES):
            for base in range(0, len(trace._data), 4):
                if not 0 <= trace._data[base] < len(OP_NAMES):
                    raise TraceFormatError(
                        f"event {base >> 2}: bad opcode {trace._data[base]}")
        return trace

    # -- files ---------------------------------------------------------------

    def dump(self, path, binary=False):
        if binary:
            with open(path, "wb") as handle:
                handle.write(self.dumps_binary())
        else:
            with open(path, "w") as handle:
                handle.write(self.dumps())

    @classmethod
    def load(cls, path):
        """Load a trace file, auto-detecting framed/binary/text."""
        with open(path, "rb") as handle:
            blob = handle.read()
        if blob.startswith(FRAME_MAGIC):
            blob = unframe(blob)
        if blob.startswith(_MAGIC):
            return cls.loads_binary(blob)
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError:
            raise TraceFormatError(
                f"{path}: neither a binary nor a text nsf-trace") from None
        return cls.loads(text)
