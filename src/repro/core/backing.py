"""Backing store and Ctable: where spilled registers live.

The paper's NSF spills registers "directly into the data cache" at a
virtual address computed from a small indexed table, the **Ctable**,
that maps a Context ID to the virtual base address of that context's
save area (Fig 4 of the paper).  The mapping is written by software
(the thread scheduler or the compiler's calling convention).

:class:`BackingStore` plays the role of the memory the registers spill
into.  It stores *real values*, not just presence bits, so that a
functionally incorrect spill/reload path corrupts benchmark output and
is caught by the test suite.
"""

from repro.core.stats import TransferRecord
from repro.errors import UnknownContextError


class Ctable:
    """Context-ID → virtual-address translation table.

    A short indexed table (the paper suggests it is small enough to sit
    beside the register file).  Entries are written under program
    control; the register file consults it when computing spill/reload
    addresses.
    """

    def __init__(self):
        self._entries = {}

    def set(self, cid, base_address):
        """Map ``cid`` to the virtual base address of its save area."""
        self._entries[cid] = base_address

    def lookup(self, cid):
        """Return the base address for ``cid``.

        Raises :class:`UnknownContextError` when no translation has been
        programmed, mirroring the fault a real implementation would take.
        """
        try:
            return self._entries[cid]
        except KeyError:
            raise UnknownContextError(cid) from None

    def drop(self, cid):
        self._entries.pop(cid, None)

    def __contains__(self, cid):
        return cid in self._entries

    def __len__(self):
        return len(self._entries)

    # -- checkpointing -----------------------------------------------------

    def capture(self):
        # pairs, not a dict: cids may be ints or strings and canonical
        # dict keys must stay exactly typed
        return {"entries": sorted(
            [[cid, base] for cid, base in self._entries.items()],
            key=repr,
        )}

    def restore(self, state):
        self._entries = {cid: base for cid, base in state["entries"]}


class BackingStore:
    """Holds spilled register values per ``(cid, offset)``.

    Also exposes the per-context *presence set* — which offsets currently
    have a memory-resident copy — which the models use to reload only
    live registers and to count "live" reload traffic (Fig 13, curve B).
    """

    def __init__(self, word_bytes=4):
        self._values = {}
        self._by_context = {}
        self.word_bytes = word_bytes
        self.ctable = Ctable()
        #: total spill (store) and reload (load) words, for memory-traffic
        #: accounting by the cache model
        self.words_stored = 0
        self.words_loaded = 0

    # -- spill / reload ----------------------------------------------------

    def spill(self, cid, offset, value):
        """Save one register to memory."""
        self._values[(cid, offset)] = value
        self._by_context.setdefault(cid, set()).add(offset)
        self.words_stored += 1

    def reload(self, cid, offset):
        """Load one register back from memory.

        The caller must know the register is present (``offset in
        backed_offsets(cid)``); reloading a register that was never
        spilled is a model bug, so this raises ``KeyError`` eagerly.
        """
        value = self._values[(cid, offset)]
        self.words_loaded += 1
        return value

    # -- unit-granular transfers ------------------------------------------

    def spill_unit(self, cid, pairs, dead_words=0):
        """Spill one architectural transfer unit (an NSF line's live
        registers, a segmented frame) and account its wire size.

        ``pairs`` are the live ``(offset, value)`` registers to store;
        ``dead_words`` counts the unit's invalid slots that still cross
        the wire at frame/line granularity (don't-care words).  Returns
        a :class:`~repro.core.stats.TransferRecord`; the plain store
        moves every word at full width, so ``wire_bytes == raw_bytes``
        — :class:`repro.core.compress.CompressingBackingStore` narrows
        the wire figure.
        """
        for offset, value in pairs:
            self.spill(cid, offset, value)
        words = len(pairs) + dead_words
        size = words * self.word_bytes
        return TransferRecord("raw", words, size, size)

    def reload_unit(self, cid, offsets, dead_words=0):
        """Reload one transfer unit; returns ``(values, record)``.

        ``offsets`` are the memory-resident registers to fetch (in slot
        order); ``dead_words`` pads the wire unit exactly as in
        :meth:`spill_unit`.
        """
        values = [self.reload(cid, offset) for offset in offsets]
        words = len(offsets) + dead_words
        size = words * self.word_bytes
        return values, TransferRecord("raw", words, size, size)

    def peek(self, cid, offset):
        """Inspect a saved register without counting a memory load.

        Diagnostic access used by the resilience layer to judge whether
        a memory copy is *clean* before committing to a reload; returns
        ``None`` when the register has no memory copy.
        """
        return self._values.get((cid, offset))

    def contains(self, cid, offset):
        return (cid, offset) in self._values

    def discard(self, cid, offset):
        """Drop one register's memory copy (after it is reloaded or freed)."""
        if self._values.pop((cid, offset), None) is not None or True:
            offsets = self._by_context.get(cid)
            if offsets is not None:
                offsets.discard(offset)
                if not offsets:
                    del self._by_context[cid]

    def backed_offsets(self, cid):
        """Offsets of ``cid`` that currently have a memory copy (sorted)."""
        return sorted(self._by_context.get(cid, ()))

    def drop_context(self, cid):
        """Forget every saved register of a finished context."""
        for offset in self._by_context.pop(cid, ()):
            self._values.pop((cid, offset), None)
        self.ctable.drop(cid)

    def address_of(self, cid, offset):
        """Virtual address of a register's save slot, via the Ctable."""
        return self.ctable.lookup(cid) + offset * self.word_bytes

    def __len__(self):
        return len(self._values)

    # -- checkpointing -----------------------------------------------------

    def capture(self):
        return {
            "kind": "backing-store",
            "config": {"word_bytes": self.word_bytes},
            # insertion order of _values is deterministic (it follows
            # the spill sequence) and must survive the round trip
            "values": [
                [[cid, offset], value]
                for (cid, offset), value in self._values.items()
            ],
            "words_stored": self.words_stored,
            "words_loaded": self.words_loaded,
            "ctable": self.ctable.capture(),
        }

    def restore(self, state):
        from repro.core.snapshot import expect_config, expect_kind

        expect_kind(state, "backing-store")
        expect_config(state, word_bytes=self.word_bytes)
        self._values = {
            (cid, offset): value
            for (cid, offset), value in state["values"]
        }
        self._by_context = {}
        for (cid, offset) in self._values:
            self._by_context.setdefault(cid, set()).add(offset)
        self.words_stored = state["words_stored"]
        self.words_loaded = state["words_loaded"]
        self.ctable.restore(state["ctable"])
