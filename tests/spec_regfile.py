"""An executable specification of the paper's register files.

Plain dicts and lists, one rule per paper sentence, no fast path and
no physical indices: the production models in :mod:`repro.core` are
checked against these classes step by step
(``tests/test_spec_regfile.py``).

* **NSF (§4).**  A fully-associative file of lines of ``line_size``
  registers, addressed by ``(cid, line)``.  Each register slot has a
  valid bit; a slot reloaded from memory also has a pending bit until
  its first access (Fig 13's "active" reloads).  A write allocates its
  line (write-allocate) or, with ``fetch_on_write``, fetches the
  line's saved registers first.  A read miss reloads the missing
  register (``reload_scope="register"``) or the line's saved registers
  (``"line"``).  The victim is the least recently used line (or the
  first one in, under FIFO), and it spills its valid registers.
  ``rfree`` frees one register and END a whole context, with no spill.
* **Segmented file (§3.1).**  One frame of ``context_size`` registers
  per resident context.  Touching a context that is not resident
  evicts a victim frame and installs the context's frame; only a
  context that was ever spilled reloads its saved registers.  ``frame``
  mode moves whole frames, ``live`` mode only valid registers.
* **Conventional file.**  A segmented file with one frame.

Memory keeps a spilled register until it is freed or its context ends:
a reload copies it, and the next spill of the register overwrites it.
A transfer unit moves 4-byte words, dead slots included where the
strategy ships them.
"""

from repro.core import RegFileStats
from repro.errors import (
    DuplicateContextError,
    NoCurrentContextError,
    ReadBeforeWriteError,
    RegisterRangeError,
    UnknownContextError,
)

WORD_BYTES = 4


class Unit:
    """One NSF line or segmented frame: values, valid and pending bits."""

    def __init__(self, size):
        self.values = [None] * size
        self.valid = [False] * size
        self.pending = [False] * size


class SpecFile:
    """What every organization shares: contexts, the current context,
    memory, the resident units and their victim order, the counters.

    A unit of ``unit_size`` registers is keyed ``(cid, n)``: the
    context's ``n``-th line, or its frame (``n`` is 0).
    """

    def __init__(self, num_registers, context_size, unit_size, policy):
        self.context_size = context_size
        self.unit_size = unit_size
        self.num_units = num_registers // unit_size
        self.policy = policy
        self.stats = RegFileStats(capacity=num_registers)
        self.contexts = set()
        self.current = None
        self.memory = {}   # (cid, offset) -> spilled value
        self.units = {}    # (cid, n) -> resident Unit
        self.order = []    # resident unit keys, the next victim first

    # -- the operations ----------------------------------------------------

    def begin(self, cid):
        if cid in self.contexts:
            raise DuplicateContextError(cid)
        self.contexts.add(cid)
        self.stats.contexts_created += 1

    def end(self, cid):
        self._known(cid)
        for key in [key for key in self.units if key[0] == cid]:
            self._unbind(key)  # END frees registers: nothing spills
        for key in [key for key in self.memory if key[0] == cid]:
            del self.memory[key]
        self.contexts.discard(cid)
        self.stats.contexts_ended += 1
        if self.current == cid:
            self.current = None

    def switch(self, cid):
        self._known(cid)
        if cid != self.current:
            self.stats.context_switches += 1
            self._switch_in(cid)
            self.current = cid

    def read(self, offset, cid=None):
        cid = self._resolve(cid, offset)
        self.stats.reads += 1
        value, hit = self._read(cid, offset)
        if hit:
            self.stats.read_hits += 1
        else:
            self.stats.read_misses += 1
        return value

    def write(self, offset, value, cid=None):
        cid = self._resolve(cid, offset)
        self.stats.writes += 1
        if self._write(cid, offset, value):
            self.stats.write_hits += 1
        else:
            self.stats.write_misses += 1

    def free(self, offset, cid=None):
        cid = self._resolve(cid, offset)
        self.memory.pop((cid, offset), None)
        key, slot = self._locate(cid, offset)
        unit = self.units.get(key)
        if unit is not None and unit.valid[slot]:
            unit.valid[slot] = unit.pending[slot] = False
            unit.values[slot] = None
            self._emptied(key, unit)

    def tick(self, n):
        s = self.stats
        active = len(self.held())
        resident = len({cid for cid, _ in self.units})
        s.instructions += n
        s.occupancy_weighted += active * n
        s.resident_contexts_weighted += resident * n
        s.max_active_registers = max(s.max_active_registers, active)
        s.max_resident_contexts = max(s.max_resident_contexts, resident)

    def held(self):
        """``{(cid, offset): (value, pending bit)}`` of every register
        the file holds."""
        return {self._address(key, slot): (unit.values[slot],
                                           unit.pending[slot])
                for key, unit in self.units.items()
                for slot, valid in enumerate(unit.valid) if valid}

    # -- shared rules ------------------------------------------------------

    def _resolve(self, cid, offset):
        if not 0 <= offset < self.context_size:
            raise RegisterRangeError(offset, self.context_size)
        if cid is None:
            if self.current is None:
                raise NoCurrentContextError()
            return self.current
        self._known(cid)
        return cid

    def _known(self, cid):
        if cid not in self.contexts:
            raise UnknownContextError(cid)

    def _locate(self, cid, offset):
        """The key of the unit holding ``(cid, offset)``, and its slot."""
        n, slot = divmod(offset, self.unit_size)
        return (cid, n), slot

    def _address(self, key, slot):
        """The ``(cid, offset)`` of a unit's slot."""
        return key[0], key[1] * self.unit_size + slot

    def _touch(self, key):
        if self.policy == "lru":
            self.order.remove(key)
            self.order.append(key)

    def _bind(self, key):
        """A new resident unit for ``key``, spilling the victim if full."""
        if len(self.units) == self.num_units:
            self._spill(self.order[0])
        self.units[key] = unit = Unit(self.unit_size)
        self.order.append(key)
        return unit

    def _unbind(self, key):
        self.order.remove(key)
        return self.units.pop(key)

    def _spill(self, key):
        """The victim's valid registers go to memory."""
        unit = self._unbind(key)
        live = [slot for slot, valid in enumerate(unit.valid) if valid]
        for slot in live:
            self.memory[self._address(key, slot)] = unit.values[slot]
        self._count("spilled", self._moved(len(live)), len(live))

    def _load(self, unit, key, slots):
        """Copy the saved registers ``slots`` of ``key``'s unit in."""
        for slot in slots:
            unit.values[slot] = self.memory[self._address(key, slot)]
            unit.valid[slot] = unit.pending[slot] = True

    def _saved(self, key):
        return [slot for slot in range(self.unit_size)
                if self._address(key, slot) in self.memory]

    def _access(self, unit, slot):
        """An access to a valid register: a pending reload turns active."""
        if unit.pending[slot]:
            unit.pending[slot] = False
            self.stats.active_registers_reloaded += 1
        return unit.values[slot]

    def _count(self, direction, moved, live, units=1):
        """``units`` transfer units ``spilled`` or ``reloaded``: ``moved``
        words on the wire, ``live`` of them valid registers."""
        counts = vars(self.stats)
        for name, n in (("registers", moved), ("live_registers", live),
                        ("lines", units), ("raw_bytes", moved * WORD_BYTES),
                        ("wire_bytes", moved * WORD_BYTES)):
            counts[f"{name}_{direction}"] += n

    def _switch_in(self, cid):
        pass

    def _emptied(self, key, unit):
        pass


class SpecNSF(SpecFile):
    """The Named-State Register File: a unit is a line."""

    def __init__(self, num_registers, context_size, line_size=1,
                 policy="lru", reload_scope="register",
                 fetch_on_write=False):
        super().__init__(num_registers, context_size, line_size, policy)
        self.reload_scope = reload_scope
        self.fetch_on_write = fetch_on_write

    def _moved(self, live):
        return self.unit_size if self.reload_scope == "line" else live

    def _read(self, cid, offset):
        key, slot = self._locate(cid, offset)
        line = self.units.get(key)
        if line is not None:
            self._touch(key)  # the decoder matched the line
            if line.valid[slot]:
                return self._access(line, slot), True
        if (cid, offset) not in self.memory:
            raise ReadBeforeWriteError(cid, offset)
        if line is not None:  # a resident line missing one register
            self._load(line, key, [slot])
            self._count("reloaded", 1, 1, units=0)
        elif self.reload_scope == "line":
            line = self._bind(key)
            self._fill(line, key)
        else:
            line = self._bind(key)
            self._load(line, key, [slot])
            self._count("reloaded", 1, 1)
        return self._access(line, slot), False

    def _write(self, cid, offset, value):
        key, slot = self._locate(cid, offset)
        line = self.units.get(key)
        hit = line is not None
        if hit:
            self._touch(key)
        else:
            line = self._bind(key)
            if self.fetch_on_write:
                self._fill(line, key)
        line.valid[slot] = True
        self._access(line, slot)
        line.values[slot] = value
        return hit

    def _fill(self, line, key):
        """Reload a whole line: its saved registers, dead slots shipped."""
        saved = self._saved(key)
        if saved:
            self._load(line, key, saved)
            self._count("reloaded", self.unit_size, len(saved))

    def _emptied(self, key, line):
        if not any(line.valid):
            self._unbind(key)  # an empty line returns to the free pool


class SpecSegmented(SpecFile):
    """The segmented file: a unit is a context's whole frame."""

    def __init__(self, num_registers, context_size, policy="lru",
                 spill_mode="frame"):
        super().__init__(num_registers, context_size, context_size, policy)
        self.spill_mode = spill_mode
        self.spilled = set()  # contexts evicted at least once

    def _moved(self, live):
        return self.unit_size if self.spill_mode == "frame" else live

    def _frame(self, cid):
        """The context's frame, installed first if not resident."""
        key = (cid, 0)
        frame = self.units.get(key)
        if frame is not None:
            self._touch(key)
            return frame, True
        self.stats.switch_misses += 1
        frame = self._bind(key)
        if cid in self.spilled:  # window underflow: restore the image
            saved = self._saved(key)
            self._load(frame, key, saved)
            self._count("reloaded", self._moved(len(saved)), len(saved))
        return frame, False

    _switch_in = _frame

    def _read(self, cid, offset):
        frame, hit = self._frame(cid)
        if not frame.valid[offset]:
            raise ReadBeforeWriteError(cid, offset)
        return self._access(frame, offset), hit

    def _write(self, cid, offset, value):
        frame, hit = self._frame(cid)
        frame.valid[offset] = True
        self._access(frame, offset)
        frame.values[offset] = value
        return hit

    def _spill(self, key):
        super()._spill(key)
        self.spilled.add(key[0])

    def end(self, cid):
        super().end(cid)
        self.spilled.discard(cid)


def spec_conventional(context_size):
    """The conventional file: one frame."""
    return SpecSegmented(context_size, context_size)
