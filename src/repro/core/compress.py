"""Compressed spill path: register-value codecs on the way to memory.

The paper's traffic figures (Figs 10 and 12) count *registers* moved;
every spilled word is implicitly a full-width wire transfer.  Register
values, though, are highly compressible — most are narrow integers,
zeros, small pointers offset from a common base, or members of a tiny
frequent-value set (Angerd et al., *A GPU Register File using Static
Data Compression*; Sadrosadati et al. on SW/HW-cooperative spill
paths).  This module adds the missing axis: how many **bytes** actually
cross the spill port, per codec, per spill granularity.

The unit of compression is the architectural *transfer unit* — an NSF
line's live registers (plus its dead slots when the line strategy ships
them) or a segmented file's whole frame.  The two organizations feed
very different units to the same codec: NSF lines are short and mostly
live; segmented frames are long and padded with dead registers, which
compress to almost nothing.  That asymmetry is exactly what the
``compression`` experiment measures.

Codecs
------
``raw``
    identity: every word ships at full width (the baseline wire).
``zero``
    zero-elision: a one-bit-per-word mask, then only nonzero words.
``narrow``
    significance packing: the unit ships at the width of its widest
    value (zigzag-coded so small negatives stay narrow).
``basedelta``
    intra-unit base+delta: first word at full width, the rest as
    narrow deltas from it (pointer-heavy frames collapse well).
``dict``
    frequent-value dictionary: words matching a small fixed table ship
    as 4-bit indices, everything else at full width plus a flag bit.

Every non-identity codec carries a one-bit mode header and falls back
to the raw payload when packing would expand the unit, so on-wire size
is bounded by ``raw + 1 bit`` per unit.  Dead (``None``) slots ship for
free under every non-identity codec: the valid mask that travels with
a transfer in the live-tracking baselines already identifies them.
Values outside the 32-bit word domain (floats, tuples, bools, huge
ints — the simulation stores Python objects in registers) escape at
full word width.

The in-word integer path genuinely bit-packs and unpacks, so the
round-trip tests exercise real encode/decode logic, not bookkeeping.

Wiring
------
:class:`CompressedSpillPort` is the engine: it frames each unit once,
encodes it once per codec, verifies every codec's round trip (raising
:class:`repro.errors.CompressionIntegrityError` on any mismatch), and
keeps per-codec :class:`CodecStats`.  It builds no
:class:`CompressedBlock`: that is the one-unit API
(:meth:`SpillCodec.compress` / ``decompress``), built on the port's
framing, packed-or-raw decision and put-back helpers.  A port measures
one *primary* codec — whose on-wire bytes feed the model's
:class:`~repro.core.stats.RegFileStats` — plus any number of *shadow*
codecs measured broadside on the same traffic, the same
one-simulation-many-counts trick the repo uses for Fig 13.

:class:`CompressingBackingStore` wraps any
:class:`~repro.core.backing.BackingStore` and routes the unit-transfer
API (``spill_unit`` / ``reload_unit``) through a port; word-granular
access passes through untouched.  :func:`compress_spills` attaches one
to an existing model in place.
"""

from dataclasses import dataclass, fields

from repro.core.backing import BackingStore
from repro.core.stats import TransferRecord
from repro.errors import CompressionIntegrityError

#: architectural word width on the spill wire (matches the 4-byte
#: ``BackingStore.word_bytes`` default)
WORD_BITS = 32
_WORD_MIN = -(1 << 31)
_WORD_MAX = (1 << 31) - 1
_U32 = (1 << 32) - 1
#: ``(u ^ _SIGN) - _SIGN`` sign-extends a 32-bit field ``u``
_SIGN = 1 << 31


def _is_word(value):
    """True when ``value`` is a plain int in the 32-bit word domain."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and _WORD_MIN <= value <= _WORD_MAX)


@dataclass(frozen=True)
class CompressedBlock:
    """One transfer unit after encoding.

    ``wire_bits`` is the honest on-wire size including every header the
    codec needs; ``state`` is the codec's decode state (bit-packed
    integers plus any escaped literals).
    """

    codec: str
    mode: str   # "packed" | "raw" (fallback or identity)
    count: int  # words in the unit, dead slots included
    raw_bits: int
    wire_bits: int
    state: tuple

    @property
    def raw_bytes(self):
        return (self.raw_bits + 7) // 8

    @property
    def wire_bytes(self):
        return (self.wire_bits + 7) // 8

    @property
    def ratio(self):
        """Compression ratio (>1 means the codec shrank the unit)."""
        if self.wire_bytes == 0:
            return 1.0
        return self.raw_bytes / self.wire_bytes


def frame_unit(values):
    """Split one transfer unit into what every codec compresses.

    Returns ``(values, dead, escape positions, escaped values, words)``:
    the unit as a tuple, the indices of its dead (``None``) slots, the
    positions and values of its live slots outside the 32-bit word
    domain, and its in-word integers in slot order.
    """
    values = tuple(values)
    dead = []
    esc_pos = []
    esc_vals = []
    words = []
    for i, v in enumerate(values):
        if v is None:
            dead.append(i)
        elif (type(v) is int and _WORD_MIN <= v <= _WORD_MAX
              or _is_word(v)):
            words.append(v)
        else:
            esc_pos.append(i)
            esc_vals.append(v)
    return (values, tuple(dead), tuple(esc_pos), tuple(esc_vals),
            tuple(words))


def _encode_frame(codec, frame):
    """How ``codec`` ships one framed unit: ``(packed, wire_bits, state)``.

    A packed unit's ``state`` is the codec's word state, and its
    ``wire_bits`` count the mode bit, the escape header, the escaped
    literals and the payload.  Whenever packing is inapplicable or
    would not win, the unit ships its raw payload (``state`` is the
    framed values) at full width plus the codec's mode bits; an empty
    unit ships nothing.  Both :meth:`SpillCodec.compress_frame` and
    :meth:`CompressedSpillPort.transmit` decide here.
    """
    values, dead, esc_pos, _, words = frame
    count = len(values)
    if not count:
        return False, 0, values
    fallback = count * WORD_BITS + codec.mode_bits
    encoded = codec._encode_words(words)
    if encoded is not None:
        payload_bits, word_state = encoded
        # mode bit + has-escapes flag + escape mask (only when some
        # live word escaped) + escaped literals at word width
        bits = 2 + payload_bits
        if esc_pos:
            bits += count - len(dead) + WORD_BITS * len(esc_pos)
        if bits < fallback:
            return True, bits, word_state
    return False, fallback, values


def _unframe(count, dead, esc_pos, esc_vals, words):
    """A packed unit of ``count`` slots as it decodes: its decoded
    in-word integers ``words`` with its dead slots and escapes put
    back."""
    if not esc_pos and (not dead or dead[0] == count - len(dead)):
        # the usual shape: live words, then any dead slots at the tail
        return [*words, *(None,) * len(dead)]
    out = [None] * count
    for i, v in zip(esc_pos, esc_vals):
        out[i] = v
    skip = set(dead).union(esc_pos)
    it = iter(words)
    for i in range(count):
        if i not in skip:
            # a decoder that returned too few words leaves a hole
            out[i] = next(it, None)
    out.extend(it)  # and one that returned too many, a longer unit
    return out


class SpillCodec:
    """Base codec: shared unit framing plus the raw fallback.

    Subclasses implement ``_encode_words`` / ``_decode_words`` over the
    unit's in-word integers only; :func:`frame_unit` strips dead
    (``None``) slots and escapes out-of-domain values at full width, and
    the base class falls back to the raw payload whenever packing would
    not win.
    """

    name = "abstract"
    #: the one-bit packed-or-raw header every non-identity unit carries
    mode_bits = 1

    def compress(self, values):
        return self.compress_frame(frame_unit(values))

    def compress_frame(self, frame):
        """Compress one unit already split by :func:`frame_unit`."""
        values, dead, esc_pos, esc_vals, _ = frame
        count = len(values)
        packed, wire_bits, state = _encode_frame(self, frame)
        if packed:
            return CompressedBlock(self.name, "packed", count,
                                   count * WORD_BITS, wire_bits,
                                   (dead, esc_pos, esc_vals, state))
        return CompressedBlock(self.name, "raw", count, count * WORD_BITS,
                               wire_bits, state)

    def decompress(self, block):
        if block.mode == "raw":
            return list(block.state)
        dead, esc_pos, esc_vals, word_state = block.state
        words = self._decode_words(
            word_state, block.count - len(dead) - len(esc_pos))
        return _unframe(block.count, dead, esc_pos, esc_vals, words)

    # -- to implement --------------------------------------------------------

    def _encode_words(self, words):
        """Return ``(payload_bits, state)`` or ``None`` when inapplicable."""
        raise NotImplementedError

    def _decode_words(self, state, count):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class RawCodec(SpillCodec):
    """Identity codec: the uncompressed wire, and the fallback payload."""

    name = "raw"
    #: the identity wire needs no mode header: every unit ships raw
    mode_bits = 0

    def _encode_words(self, words):
        return None


class ZeroElisionCodec(SpillCodec):
    """One mask bit per word; only nonzero words ship, at full width."""

    name = "zero"

    def _encode_words(self, words):
        mask = 0
        packed = 0
        shift = 0
        for i, v in enumerate(words):
            if v:
                mask |= 1 << i
                packed |= (v & _U32) << shift
                shift += WORD_BITS
        return len(words) + shift, (mask, packed)

    def _decode_words(self, state, count):
        mask, packed = state
        out = []
        for i in range(count):
            if mask >> i & 1:
                out.append(((packed & _U32) ^ _SIGN) - _SIGN)
                packed >>= WORD_BITS
            else:
                out.append(0)
        return out


class NarrowValueCodec(SpillCodec):
    """Significance packing: the unit ships at its widest value's width."""

    name = "narrow"
    _WIDTH_FIELD = 6  # enough for widths 0..33

    def _encode_words(self, words):
        width, packed = _pack_zigzag(words)
        return self._WIDTH_FIELD + width * len(words), (width, packed)

    def _decode_words(self, state, count):
        width, packed = state
        if width == 0:
            return [0] * count
        return _unpack_zigzag(packed, width, count)


class BaseDeltaCodec(SpillCodec):
    """Intra-unit base+delta: one full-width base, narrow deltas after."""

    name = "basedelta"
    _WIDTH_FIELD = 6  # delta widths 0..33

    def _encode_words(self, words):
        if not words:
            return None
        base = words[0]
        width, packed = _pack_zigzag([v - base for v in words[1:]])
        bits = WORD_BITS + self._WIDTH_FIELD + width * (len(words) - 1)
        return bits, (base, width, packed)

    def _decode_words(self, state, count):
        base, width, packed = state
        if width == 0:
            return [base] * count
        return [base] + [base + d for d in
                         _unpack_zigzag(packed, width, count - 1)]


def _pack_zigzag(values):
    """``(width, packed)``: signed ``values`` (each under 2**63 in
    magnitude) zigzag-coded, so small negatives stay narrow, and packed
    in order at the width of the widest, the first in the low bits."""
    fields = [(v << 1) ^ (v >> 63) for v in values]
    width = max(fields).bit_length() if fields else 0
    packed = 0
    for z in reversed(fields):
        packed = packed << width | z
    return width, packed


def _unpack_zigzag(packed, width, count):
    """The inverse of :func:`_pack_zigzag`: ``count`` signed values from
    the ``width``-bit fields of ``packed``, the first from the low bits."""
    mask = (1 << width) - 1
    out = []
    for _ in range(count):
        z = packed & mask
        out.append((z >> 1) ^ -(z & 1))
        packed >>= width
    return out


class DictionaryCodec(SpillCodec):
    """Frequent-value dictionary: table hits ship as 4-bit indices.

    The table is fixed (zeros, small counters, powers of two, common
    sentinels) so results are deterministic and the decoder needs no
    learned state — the static flavour of frequent-value compression.
    """

    name = "dict"
    TABLE = (0, 1, 2, 3, 4, 5, 8, 10, 16, 32, 64, 100, 256, 1024, -1, -2)
    _INDEX = {v: i for i, v in enumerate(TABLE)}
    _INDEX_BITS = 4

    def _encode_words(self, words):
        index_of = self._INDEX.get
        flags = 0
        packed = 0
        shift = 0
        for i, v in enumerate(words):
            index = index_of(v)
            if index is not None:
                flags |= 1 << i
                packed |= index << shift
                shift += self._INDEX_BITS
            else:
                packed |= (v & _U32) << shift
                shift += WORD_BITS
        # one flag bit per word, then the indices and literals
        return len(words) + shift, (flags, packed)

    def _decode_words(self, state, count):
        flags, packed = state
        table = self.TABLE
        out = []
        for i in range(count):
            if flags >> i & 1:
                out.append(table[packed & 0xF])
                packed >>= self._INDEX_BITS
            else:
                out.append(((packed & _U32) ^ _SIGN) - _SIGN)
                packed >>= WORD_BITS
        return out


#: every available codec, identity first
CODECS = (RawCodec, ZeroElisionCodec, NarrowValueCodec, BaseDeltaCodec,
          DictionaryCodec)
CODEC_NAMES = tuple(c.name for c in CODECS)
_BY_NAME = {c.name: c for c in CODECS}


def make_codec(codec):
    """Instantiate a codec by name (codec instances pass through)."""
    if isinstance(codec, SpillCodec):
        return codec
    try:
        return _BY_NAME[codec]()
    except KeyError:
        raise ValueError(
            f"unknown codec {codec!r}; expected one of {CODEC_NAMES}"
        ) from None


@dataclass
class CodecStats:
    """Byte-level traffic one codec observed on a spill port."""

    spill_units: int = 0
    reload_units: int = 0
    words_spilled: int = 0
    words_reloaded: int = 0
    raw_spill_bytes: int = 0
    wire_spill_bytes: int = 0
    raw_reload_bytes: int = 0
    wire_reload_bytes: int = 0

    def snapshot(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def capture(self):
        return self.snapshot()

    def restore(self, state):
        from repro.errors import SnapshotError

        expected = {f.name for f in fields(self)}
        if set(state) != expected:
            raise SnapshotError(
                f"codec-stats snapshot fields do not match: "
                f"got {sorted(state)}, expected {sorted(expected)}"
            )
        for name, value in state.items():
            setattr(self, name, value)

    @property
    def spill_ratio(self):
        if self.wire_spill_bytes == 0:
            return 1.0
        return self.raw_spill_bytes / self.wire_spill_bytes

    @property
    def reload_ratio(self):
        if self.wire_reload_bytes == 0:
            return 1.0
        return self.raw_reload_bytes / self.wire_reload_bytes

    @property
    def total_ratio(self):
        wire = self.wire_spill_bytes + self.wire_reload_bytes
        if wire == 0:
            return 1.0
        return (self.raw_spill_bytes + self.raw_reload_bytes) / wire

    @property
    def wire_fraction(self):
        """On-wire bytes as a fraction of raw bytes (lower is better)."""
        raw = self.raw_spill_bytes + self.raw_reload_bytes
        if raw == 0:
            return 1.0
        return (self.wire_spill_bytes + self.wire_reload_bytes) / raw


class CompressedSpillPort:
    """The compression engine between a register file and its memory.

    One *primary* codec determines the bytes a wrapped model records in
    its :class:`~repro.core.stats.RegFileStats`; *shadow* codecs are
    measured broadside over the identical traffic so one simulation
    yields every codec's byte counts at once.  Every codec's round trip
    is verified on every unit unless ``verify`` is off.
    """

    def __init__(self, codec="narrow", shadow_codecs=(), verify=True):
        self.codec = make_codec(codec)
        measured = {self.codec.name: self.codec}
        for shadow in shadow_codecs:
            shadow = make_codec(shadow)
            # the first codec of each name is the one measured
            measured.setdefault(shadow.name, shadow)
        self.shadows = tuple(measured.values())[1:]
        self.verify = verify
        self.stats = {name: CodecStats() for name in measured}
        self._measured = tuple((codec, self.stats[name])
                               for name, codec in measured.items())

    @property
    def codec_names(self):
        return tuple(self.stats)

    def stats_for(self, codec):
        """The :class:`CodecStats` of one measured codec, by name."""
        return self.stats[codec]

    def transmit(self, wire_values, spill=True):
        """Push one transfer unit through every codec; returns a record.

        ``wire_values`` is the unit as it would cross the wire: live
        values in slot order, dead slots as ``None``.  The unit is
        framed once (:func:`frame_unit`) and each codec encodes it once
        (``_encode_words``); unless ``verify`` is off, each codec then
        decodes what it would ship (``_decode_words``, dead slots and
        escapes put back, or the raw payload) and compares it with the
        unit, raising :class:`~repro.errors.CompressionIntegrityError`
        on any difference.
        """
        sent = list(wire_values)
        frame = _, dead, esc_pos, esc_vals, words = frame_unit(sent)
        count = len(sent)
        raw_bytes = count * WORD_BITS // 8
        verify = self.verify
        primary_bytes = None
        for codec, stats in self._measured:
            packed, wire_bits, state = _encode_frame(codec, frame)
            if verify:
                if packed:
                    decoded = _unframe(
                        count, dead, esc_pos, esc_vals,
                        codec._decode_words(state, len(words)))
                else:
                    decoded = list(state)
                if decoded != sent:
                    raise CompressionIntegrityError(codec.name, sent,
                                                    decoded)
            wire_bytes = (wire_bits + 7) // 8
            if spill:
                stats.spill_units += 1
                stats.words_spilled += count
                stats.raw_spill_bytes += raw_bytes
                stats.wire_spill_bytes += wire_bytes
            else:
                stats.reload_units += 1
                stats.words_reloaded += count
                stats.raw_reload_bytes += raw_bytes
                stats.wire_reload_bytes += wire_bytes
            if primary_bytes is None:
                primary_bytes = wire_bytes
        return TransferRecord(self.codec.name, count, raw_bytes,
                              primary_bytes)

    # -- checkpointing -------------------------------------------------------
    # The port's only mutable state is its per-codec shadow counters.
    # Their order is pinned by construction (primary first, then the
    # shadow tuple) — never by id() or set iteration — so capture emits
    # them in that explicit order and restore validates it.

    def capture(self):
        return {
            "kind": "spill-port",
            "config": {
                "codec": self.codec.name,
                "shadows": [c.name for c in self.shadows],
                "verify": self.verify,
            },
            "stats": [
                [name, self.stats[name].capture()]
                for name in self.codec_names
            ],
        }

    def restore(self, state):
        from repro.core.snapshot import expect_config, expect_kind

        expect_kind(state, "spill-port")
        expect_config(state, codec=self.codec.name,
                      shadows=[c.name for c in self.shadows],
                      verify=self.verify)
        saved = dict(state["stats"])
        if set(saved) != set(self.stats):
            from repro.errors import SnapshotError
            raise SnapshotError(
                f"spill-port snapshot measures codecs {sorted(saved)}, "
                f"this port measures {sorted(self.stats)}"
            )
        for name, stats in self.stats.items():
            stats.restore(saved[name])

    def __repr__(self):
        return (f"<CompressedSpillPort codec={self.codec.name!r} "
                f"shadows={[c.name for c in self.shadows]}>")


class CompressingBackingStore:
    """Backing-store wrapper that compresses each spill unit on the wire.

    Unit-granular transfers (``spill_unit`` / ``reload_unit``) cross a
    :class:`CompressedSpillPort`; storage itself stays word-granular —
    compression lives on the spill *path*, not in memory — so partial
    reloads, discards and the resilience layer's word-level diagnostics
    all keep working unchanged.  Everything else forwards to the
    wrapped store.
    """

    def __init__(self, inner=None, codec="narrow", shadow_codecs=(),
                 verify=True, port=None):
        self.inner = inner if inner is not None else BackingStore()
        self.port = port if port is not None else CompressedSpillPort(
            codec, shadow_codecs=shadow_codecs, verify=verify)

    def spill_unit(self, cid, pairs, dead_words=0):
        for offset, value in pairs:
            self.inner.spill(cid, offset, value)
        wire = [value for _, value in pairs] + [None] * dead_words
        return self.port.transmit(wire, spill=True)

    def reload_unit(self, cid, offsets, dead_words=0):
        values = [self.inner.reload(cid, offset) for offset in offsets]
        record = self.port.transmit(values + [None] * dead_words,
                                    spill=False)
        return values, record

    # -- checkpointing -------------------------------------------------------

    def capture(self):
        return {
            "kind": "compressing-backing",
            "config": {},
            "port": self.port.capture(),
            "inner": self.inner.capture(),
        }

    def restore(self, state):
        from repro.core.snapshot import expect_kind

        expect_kind(state, "compressing-backing")
        self.port.restore(state["port"])
        self.inner.restore(state["inner"])

    # -- drop-in plumbing ----------------------------------------------------

    def __getattr__(self, name):
        if name == "inner":
            # a copy under construction has no store to forward to yet
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __len__(self):
        return len(self.inner)

    def __repr__(self):
        return (f"<CompressingBackingStore port={self.port!r} "
                f"inner={self.inner!r}>")


def compress_spills(model, codec="narrow", shadow_codecs=(), verify=True):
    """Route ``model``'s spill path through a compressed port, in place.

    Wraps the model's current backing store (existing contents and
    Ctable entries stay live inside the wrapper) and returns the
    :class:`CompressedSpillPort` for stats access.  The primary codec's
    on-wire bytes flow into ``model.stats``; shadows are measured only
    on the port.
    """
    store = CompressingBackingStore(model.backing, codec=codec,
                                    shadow_codecs=shadow_codecs,
                                    verify=verify)
    model.backing = store
    return store.port
