"""Common interface and bookkeeping for register-file models.

All three organizations (NSF, segmented, conventional) present the same
event API so that both front-ends — the activation-trace machine and the
ISA-level CPU simulator — can drive any of them interchangeably:

* ``begin_context(cid, base)``   a new activation's register set exists
* ``switch_to(cid)``             make a context current (charged traffic)
* ``read(offset)`` / ``write(offset, value)``  operand accesses
* ``free_register(offset)``      explicit deallocation (NSF §4.2)
* ``end_context(cid)``           destroy a context and all its registers
* ``tick(n)``                    advance time by ``n`` instructions

Models store **real values**; the front-ends run real computations
through them, so a broken spill path breaks benchmark results.
"""

from repro.core.backing import BackingStore
from repro.core.stats import (
    HIT_READ,
    HIT_SWITCH,
    HIT_WRITE,
    AccessResult,
    RegFileStats,
)
from repro.errors import (
    DuplicateContextError,
    NoCurrentContextError,
    RegisterRangeError,
    UnknownContextError,
)

#: sentinel a ``_read_fast`` hook returns when it cannot service the
#: access (distinct from every storable register value, None included)
MISS = object()


class RegisterFile:
    """Abstract base register file.

    Parameters
    ----------
    num_registers:
        Total physical registers in the file.
    context_size:
        Architectural registers per context (the paper uses 20 for
        sequential and 32 for parallel runs).
    strict:
        When true, reading a register that was never written raises
        :class:`repro.errors.ReadBeforeWriteError` instead of silently
        returning junk.
    """

    kind = "abstract"

    def __init__(self, num_registers, context_size, strict=True,
                 track_moves=False):
        if num_registers <= 0:
            raise ValueError("num_registers must be positive")
        if context_size <= 0:
            raise ValueError("context_size must be positive")
        self.num_registers = num_registers
        self.context_size = context_size
        self.strict = strict
        #: when true, AccessResults carry the exact (cid, offset) pairs
        #: moved, so callers can price traffic at real addresses
        self.track_moves = track_moves
        #: hits return a shared flyweight result instead of allocating;
        #: semantics (stats, victims, snapshots) are identical either
        #: way.  Cleared only for a subclass that overrides the tracked
        #: access path (see the models' constructors), which the inlined
        #: hit path would bypass.
        self._fast_path = True
        self.backing = BackingStore()
        self.stats = RegFileStats(capacity=num_registers)
        self.current_cid = None
        self._known_cids = set()
        # plain integer bump allocator (itertools.count cannot be
        # captured into a snapshot)
        self._next_base = 0x1000_0000
        #: False until a context is begun or a snapshot restored.  Any
        #: other call that changes a model without contexts also changes
        #: its ``stats`` (``tick``, line retirement) or ``backing``, so
        #: a model with this flag clear and untouched ``stats`` and
        #: ``backing`` is exactly what its constructor built
        self._driven = False

    # -- context lifecycle ---------------------------------------------------

    def begin_context(self, cid=None, base_address=None):
        """Declare a new context; returns its cid.

        ``base_address`` programs the Ctable entry for the context's
        spill area; when omitted a fresh area is carved from a bump
        allocator (what a thread scheduler would do).
        """
        if cid is None:
            cid = self._fresh_cid()
        if cid in self._known_cids:
            raise DuplicateContextError(cid)
        self._driven = True
        self._known_cids.add(cid)
        if base_address is None:
            base_address = self._next_base
            self._next_base += 0x100
        self.backing.ctable.set(cid, base_address)
        self.stats.contexts_created += 1
        self._on_begin_context(cid)
        return cid

    def end_context(self, cid):
        """Destroy a context: free its registers, drop its save area."""
        if cid not in self._known_cids:
            raise UnknownContextError(cid)
        self._on_end_context(cid)
        self.backing.drop_context(cid)
        self._known_cids.discard(cid)
        self.stats.contexts_ended += 1
        if self.current_cid == cid:
            self.current_cid = None

    def switch_to(self, cid):
        """Make ``cid`` the current context; returns an AccessResult.

        For the NSF this just loads the CID field of the processor
        status word.  Segmented and conventional files may have to evict
        and restore whole frames here.
        """
        if cid not in self._known_cids:
            raise UnknownContextError(cid)
        if cid == self.current_cid:
            if self._fast_path:
                return HIT_SWITCH
            return AccessResult(kind="switch")
        result = AccessResult(kind="switch")
        self.stats.context_switches += 1
        self._on_switch(cid, result)
        self.current_cid = cid
        return result

    # -- operand access ------------------------------------------------------

    def read(self, offset, cid=None):
        """Read a register; returns ``(value, AccessResult)``."""
        cid = self._resolve(cid, offset)
        stats = self.stats
        stats.reads += 1
        if self._fast_path:
            value = self._read_fast(cid, offset)
            if value is not MISS:
                stats.read_hits += 1
                return value, HIT_READ
        result = AccessResult(kind="read")
        value = self._do_read(cid, offset, result)
        if result.hit:
            stats.read_hits += 1
        else:
            stats.read_misses += 1
        return value, result

    def write(self, offset, value, cid=None):
        """Write a register; returns an AccessResult."""
        cid = self._resolve(cid, offset)
        stats = self.stats
        stats.writes += 1
        if self._fast_path and self._write_fast(cid, offset, value):
            stats.write_hits += 1
            return HIT_WRITE
        result = AccessResult(kind="write")
        self._do_write(cid, offset, value, result)
        if result.hit:
            stats.write_hits += 1
        else:
            stats.write_misses += 1
        return result

    def free_register(self, offset, cid=None):
        """Explicitly deallocate one register (no spill)."""
        cid = self._resolve(cid, offset)
        self._do_free(cid, offset)

    # -- time ---------------------------------------------------------------

    def tick(self, n=1):
        """Advance time by ``n`` executed instructions."""
        self.stats.tick(n, self.active_register_count(),
                        self.resident_context_count())

    # -- introspection (subclasses maintain O(1) counters) -------------------

    def active_register_count(self):
        """Physical registers currently holding valid data."""
        raise NotImplementedError

    def resident_context_count(self):
        """Distinct contexts with at least one register resident."""
        raise NotImplementedError

    def resident_context_ids(self):
        raise NotImplementedError

    def is_resident(self, cid, offset):
        """True when the register's value is in the file (not spilled)."""
        raise NotImplementedError

    # -- hooks for subclasses -------------------------------------------------

    def _read_fast(self, cid, offset):
        """Service a resident read with no allocation, or return ``MISS``.

        A hit must perform *exactly* the side effects the tracked path
        would (policy touch, pending-flag accounting, value return);
        anything else — miss, reload, fault — returns ``MISS`` and the
        tracked path re-runs the access from scratch.
        """
        return MISS

    def _write_fast(self, cid, offset, value):
        """Service a resident write with no allocation; False on miss."""
        return False

    def _on_begin_context(self, cid):
        pass

    def _on_end_context(self, cid):
        raise NotImplementedError

    def _on_switch(self, cid, result):
        pass

    def _do_read(self, cid, offset, result):
        raise NotImplementedError

    def _do_write(self, cid, offset, value, result):
        raise NotImplementedError

    def _do_free(self, cid, offset):
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------------

    def _resolve(self, cid, offset):
        if offset < 0 or offset >= self.context_size:
            raise RegisterRangeError(offset, self.context_size)
        if cid is None:
            cid = self.current_cid
            if cid is None:
                raise NoCurrentContextError()
        elif cid not in self._known_cids:
            raise UnknownContextError(cid)
        return cid

    def _note_moved_out(self, result, cid, offset):
        if self.track_moves:
            if result.moved_out is None:
                result.moved_out = []
            result.moved_out.append((cid, offset))

    def _note_moved_in(self, result, cid, offset):
        if self.track_moves:
            if result.moved_in is None:
                result.moved_in = []
            result.moved_in.append((cid, offset))

    def _fresh_cid(self):
        cid = len(self._known_cids)
        while cid in self._known_cids:
            cid += 1
        return cid

    # -- checkpointing ---------------------------------------------------------
    # Subclasses implement capture()/restore() (see repro.core.snapshot)
    # and use these helpers for the state every model shares.

    def _capture_base(self):
        return {
            "current_cid": self.current_cid,
            "known_cids": sorted(self._known_cids),
            "next_base": self._next_base,
            "stats": self.stats.capture(),
            "backing": self.backing.capture(),
        }

    def _restore_base(self, state):
        self._driven = True
        self.current_cid = state["current_cid"]
        self._known_cids = set(state["known_cids"])
        self._next_base = state["next_base"]
        self.stats.restore(state["stats"])
        self.backing.restore(state["backing"])

    def _base_config(self):
        """Construction parameters every model validates on restore."""
        return {
            "num_registers": self.num_registers,
            "context_size": self.context_size,
            "strict": self.strict,
            "track_moves": self.track_moves,
        }

    # -- container protocol ---------------------------------------------------
    # A register file is a collection of live contexts: ``cid in model``
    # asks whether a context exists, ``len(model)`` counts registers
    # currently holding data, iteration yields the known cids.  Wrapper
    # layers (faults, protection) must forward these explicitly —
    # ``__getattr__`` delegation does not cover dunder lookup.

    def __contains__(self, cid):
        return cid in self._known_cids

    def __len__(self):
        return self.active_register_count()

    def __bool__(self):
        # An empty file is still a file: keep ``rf or default()`` idioms
        # working despite ``__len__``.
        return True

    def __iter__(self):
        return iter(sorted(self._known_cids))

    def __repr__(self):
        return (
            f"<{type(self).__name__} registers={self.num_registers} "
            f"context_size={self.context_size} "
            f"resident={self.resident_context_count()}>"
        )
