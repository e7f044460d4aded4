"""The Named-State Register File (the paper's contribution, §4).

A fully-associative register file with very small lines.  A register is
addressed by the pair ``<Context ID : offset>``; the CAM decoder maps
the line-granularity tag ``(cid, offset // line_size)`` to a physical
line.  Registers are allocated on first write, spilled lazily to the
context's save area (through the Ctable) only when the file runs out of
lines, and reloaded on demand when a miss occurs.  Each register slot
carries a valid bit, which is what lets a single register be replaced
within a line (§7.3).

Two policy knobs reproduce the paper's design discussion:

``reload_scope``
    ``"register"`` (default) reloads only the missing register on a miss
    — the paper's preferred fine-grain strategy.  ``"line"`` reloads the
    whole missing line, which is how Figure 13's strategy comparison is
    measured: one simulation yields the *all-slots*, *live-only* and
    *active-only* traffic counts simultaneously.

``fetch_on_write``
    When true a write miss fetches the line's memory-resident registers
    before writing (§4.2 "fetch on write"); the default is
    write-allocate, which allocates the line without any reload.

``spill_watermark``
    Dribble-back extension (Soundararajan [29], contrasted in the
    paper's related work): keep at least this many lines free by
    spilling LRU victims *in the background* whenever the free pool
    drains below the watermark.  Foreground allocations then rarely
    stall on a spill; the proactive traffic is counted separately in
    ``stats.background_registers_spilled`` so cost models can price it
    as hidden (a register spilled in the background and touched again
    before reuse simply reloads on demand, like any other miss).
"""

from repro.core.base import RegisterFile
from repro.core.policies import make_policy
from repro.core.stats import (
    HIT_READ,
    HIT_WRITE,
    MISS_WRITE_ALLOC,
    AccessResult,
)
from repro.errors import (
    CapacityError,
    NoCurrentContextError,
    ReadBeforeWriteError,
    UnknownContextError,
)


class _Line:
    """One line of the register array plus its decoder entry."""

    __slots__ = ("tag", "values", "valid", "pending", "valid_count")

    def __init__(self, line_size):
        self.tag = None
        self.values = [None] * line_size
        self.valid = [False] * line_size
        #: "pending" marks slots reloaded from memory and not yet accessed;
        #: an access flips them into the active-reload count (Fig 13, curve C)
        self.pending = [False] * line_size
        self.valid_count = 0

    def clear(self):
        self.tag = None
        for i in range(len(self.values)):
            self.values[i] = None
            self.valid[i] = False
            self.pending[i] = False
        self.valid_count = 0


class NamedStateRegisterFile(RegisterFile):
    """Fully-associative register file with per-register valid bits."""

    kind = "nsf"

    def __init__(self, num_registers=128, context_size=32, line_size=1,
                 policy="lru", reload_scope="register",
                 fetch_on_write=False, spill_watermark=0, strict=True,
                 policy_seed=0, track_moves=False):
        super().__init__(num_registers, context_size, strict=strict,
                         track_moves=track_moves)
        if line_size <= 0:
            raise ValueError("line_size must be positive")
        if num_registers % line_size:
            raise ValueError("num_registers must be a multiple of line_size")
        if reload_scope not in ("register", "line"):
            raise ValueError("reload_scope must be 'register' or 'line'")
        self.line_size = line_size
        self.num_lines = num_registers // line_size
        if self.num_lines < 1:
            raise CapacityError("register file has no lines")
        self.reload_scope = reload_scope
        self.fetch_on_write = fetch_on_write
        if not 0 <= spill_watermark < self.num_lines:
            raise ValueError("spill_watermark must be in [0, num_lines)")
        self.spill_watermark = spill_watermark
        self._lines = [_Line(line_size) for _ in range(self.num_lines)]
        #: CAM decoder: packed tag ``cid_index << shift | line_no`` ->
        #: physical line.  Packed integer keys hash in one word where
        #: the old ``(cid, line_no)`` tuples allocated and hashed twice.
        self._cam = {}
        #: dense interning of context ids into the packed tag's CID
        #: field (cids are arbitrary hashables; the CAM needs integers)
        self._cid_index = {}
        self._cids = []
        line_no_bits = ((context_size - 1) // line_size).bit_length()
        self._tag_shift = max(1, line_no_bits)
        self._tag_mask = (1 << self._tag_shift) - 1
        #: per-context MRU line latch (the decoder's last-match latch):
        #: cid -> (line_no, physical index); consecutive accesses to a
        #: context's hot line skip the CAM dict entirely
        self._mru_latch = {}
        self._free = list(range(self.num_lines - 1, -1, -1))
        self.policy_seed = policy_seed
        self._policy = make_policy(policy, seed=policy_seed)
        #: pre-bound hot-path methods (restore() mutates the policy in
        #: place, never replaces it, so the bindings stay valid)
        self._policy_touch = self._policy.touch
        self._policy_insert = self._policy.insert
        cls = type(self)
        if (cls._do_read is not NamedStateRegisterFile._do_read
                or cls._do_write is not NamedStateRegisterFile._do_write):
            # A subclass replaced the tracked access path (fault
            # injection, test doubles).  The inlined hit fast path would
            # silently bypass the override, so honor it instead.
            self._fast_path = False
        self._context_lines = {}
        self._active = 0
        #: physical lines taken out of service after hard faults; the
        #: fully-associative file keeps running at reduced capacity
        self._retired = set()

    # -- packed CAM tags -----------------------------------------------------

    def _pack(self, cid, line_no):
        """Packed decoder tag for ``(cid, line_no)``, interning the cid."""
        index = self._cid_index.get(cid)
        if index is None:
            index = len(self._cids)
            self._cid_index[cid] = index
            self._cids.append(cid)
        return (index << self._tag_shift) | line_no

    def _pack_get(self, cid, line_no):
        """Packed tag without interning; None when the cid is unseen."""
        index = self._cid_index.get(cid)
        if index is None:
            return None
        return (index << self._tag_shift) | line_no

    def _unpack(self, tag):
        """Recover ``(cid, line_no)`` from a packed decoder tag."""
        return self._cids[tag >> self._tag_shift], tag & self._tag_mask

    # -- introspection -------------------------------------------------------

    def active_register_count(self):
        return self._active

    def resident_context_count(self):
        return len(self._context_lines)

    def resident_context_ids(self):
        return set(self._context_lines)

    def is_resident(self, cid, offset):
        tag = self._pack_get(cid, offset // self.line_size)
        index = None if tag is None else self._cam.get(tag)
        if index is None:
            return False
        return self._lines[index].valid[offset % self.line_size]

    def allocated_lines(self):
        """Number of lines currently bound in the decoder."""
        return len(self._cam)

    def line_index_of(self, cid, offset):
        """Physical line currently holding ``(cid, offset)``, or None."""
        tag = self._pack_get(cid, offset // self.line_size)
        return None if tag is None else self._cam.get(tag)

    def retired_line_count(self):
        return len(self._retired)

    def retired_register_count(self):
        return len(self._retired) * self.line_size

    def serviceable_registers(self):
        """Registers still in service after hard-fault retirements."""
        return self.num_registers - self.retired_register_count()

    # -- context lifecycle -----------------------------------------------------

    def _on_end_context(self, cid):
        self._mru_latch.pop(cid, None)
        # sorted: the owned-line set is rebuilt on snapshot restore, and
        # raw set iteration order need not survive that rebuild — the
        # release order decides future free-list pops, so pin it
        for index in sorted(self._context_lines.pop(cid, ())):
            line = self._lines[index]
            self._active -= line.valid_count
            del self._cam[line.tag]
            self._policy.remove(index)
            line.clear()
            self._release(index)

    # -- operand access ----------------------------------------------------------

    # The fast paths below are the base-class read/write with the hit
    # case fully inlined: one dict probe through the MRU latch (or one
    # packed-tag CAM probe on a latch miss), no helper calls, and the
    # shared flyweight result instead of an allocation.  Every hit-side
    # effect the tracked path performs — exactly one policy touch, the
    # pending-flag flip, the hit counters — happens here identically;
    # anything else (miss, replaced slot, fault) falls through to the
    # tracked path, which re-runs the access from scratch.

    def read(self, offset, cid=None):
        """Read a register; returns ``(value, AccessResult)``."""
        if not self._fast_path:
            return RegisterFile.read(self, offset, cid)
        if offset < 0 or offset >= self.context_size:
            self._resolve(cid, offset)  # raises RegisterRangeError
        if cid is None:
            cid = self.current_cid
            if cid is None:
                raise NoCurrentContextError()
        elif cid not in self._known_cids:
            raise UnknownContextError(cid)
        stats = self.stats
        stats.reads += 1
        line_size = self.line_size
        if line_size == 1:
            # One register per line: consecutive accesses almost never
            # share a line, so the last-match latch would thrash — probe
            # the CAM directly (two dict hits, no latch bookkeeping).
            line_no = offset
            slot = 0
            cindex = self._cid_index.get(cid)
            index = (None if cindex is None else
                     self._cam.get(cindex << self._tag_shift | offset))
        else:
            line_no = offset // line_size
            slot = offset - line_no * line_size
            latch = self._mru_latch.get(cid)
            if latch is not None and latch[0] == line_no:
                index = latch[1]
            else:
                cindex = self._cid_index.get(cid)
                index = (None if cindex is None else
                         self._cam.get(cindex << self._tag_shift | line_no))
                if index is not None:
                    self._mru_latch[cid] = (line_no, index)
        if index is not None:
            line = self._lines[index]
            if line.valid[slot]:
                self._policy_touch(index)
                if line.pending[slot]:
                    line.pending[slot] = False
                    stats.active_registers_reloaded += 1
                stats.read_hits += 1
                return line.values[slot], HIT_READ
            # replaced-within-line miss: the tracked path reloads it
            # (and performs the single policy touch itself)
        result = AccessResult(kind="read")
        value = self._do_read(cid, offset, result)
        if result.hit:
            stats.read_hits += 1
        else:
            stats.read_misses += 1
        return value, result

    def write(self, offset, value, cid=None):
        """Write a register; returns an AccessResult."""
        if not self._fast_path:
            return RegisterFile.write(self, offset, value, cid)
        if offset < 0 or offset >= self.context_size:
            self._resolve(cid, offset)  # raises RegisterRangeError
        if cid is None:
            cid = self.current_cid
            if cid is None:
                raise NoCurrentContextError()
        elif cid not in self._known_cids:
            raise UnknownContextError(cid)
        stats = self.stats
        stats.writes += 1
        line_size = self.line_size
        if line_size == 1:
            # see read(): the latch only pays off for multi-register lines
            line_no = offset
            slot = 0
            cindex = self._cid_index.get(cid)
            index = (None if cindex is None else
                     self._cam.get(cindex << self._tag_shift | offset))
        else:
            line_no = offset // line_size
            slot = offset - line_no * line_size
            latch = self._mru_latch.get(cid)
            if latch is not None and latch[0] == line_no:
                index = latch[1]
            else:
                cindex = self._cid_index.get(cid)
                index = (None if cindex is None else
                         self._cam.get(cindex << self._tag_shift | line_no))
                if index is not None:
                    self._mru_latch[cid] = (line_no, index)
        if index is not None:
            line = self._lines[index]
            self._policy_touch(index)
            if not line.valid[slot]:
                line.valid[slot] = True
                line.valid_count += 1
                self._active += 1
            if line.pending[slot]:
                line.pending[slot] = False
                stats.active_registers_reloaded += 1
            line.values[slot] = value
            stats.write_hits += 1
            return HIT_WRITE
        if not self.fetch_on_write:
            # Write-allocate of an unbound line while a free line is
            # still available: bind it with zero traffic and hand back
            # the shared miss flyweight.  (Popping retired entries off
            # the free list here mirrors the tracked pop-loop exactly,
            # so bailing to it below leaves identical state.)
            free = self._free
            windex = None
            while free:
                candidate = free.pop()
                if candidate not in self._retired:
                    windex = candidate
                    break
            if windex is not None:
                if cindex is None:
                    cindex = len(self._cids)
                    self._cid_index[cid] = cindex
                    self._cids.append(cid)
                tag = cindex << self._tag_shift | line_no
                line = self._lines[windex]
                line.tag = tag
                self._cam[tag] = windex
                self._policy_insert(windex)
                owned = self._context_lines.get(cid)
                if owned is None:
                    owned = self._context_lines[cid] = set()
                owned.add(windex)
                if self.spill_watermark:
                    self._dribble_back(windex)
                line.valid[slot] = True
                line.valid_count += 1
                self._active += 1
                line.values[slot] = value
                stats.write_misses += 1
                return MISS_WRITE_ALLOC
        result = AccessResult(kind="write")
        self._do_write(cid, offset, value, result)
        if result.hit:
            stats.write_hits += 1
        else:
            stats.write_misses += 1
        return result

    def tick(self, n=1):
        """Advance time by ``n`` executed instructions.

        :meth:`RegFileStats.tick` inlined over the file's O(1) counters:
        the front-ends call this once per simulated instruction, which
        makes it the single hottest entry point after read/write.
        """
        stats = self.stats
        active = self._active
        resident = len(self._context_lines)
        stats.instructions += n
        stats.occupancy_weighted += active * n
        stats.resident_contexts_weighted += resident * n
        if active > stats.max_active_registers:
            stats.max_active_registers = active
        if resident > stats.max_resident_contexts:
            stats.max_resident_contexts = resident

    def _do_read(self, cid, offset, result):
        cindex = self._cid_index.get(cid)
        if cindex is None:  # _pack, inlined (misses are half the wall)
            cindex = len(self._cids)
            self._cid_index[cid] = cindex
            self._cids.append(cid)
        tag = cindex << self._tag_shift | offset // self.line_size
        slot = offset % self.line_size
        index = self._cam.get(tag)
        if index is not None:
            line = self._lines[index]
            self._policy.touch(index)
            if line.valid[slot]:
                self._note_access(line, slot)
                return line.values[slot]
            # Line resident but this register was replaced within it.
            result.hit = False
            if not self.backing.contains(cid, offset):
                return self._fault(cid, offset)
            self._reload_single(line, cid, offset, slot, result)
            self._note_access(line, slot)
            return line.values[slot]
        # Full line miss.
        result.hit = False
        if not self.backing.contains(cid, offset):
            return self._fault(cid, offset)
        line = self._allocate_line(cid, tag, result)
        self._fill_line(line, cid, tag, offset, result)
        self._note_access(line, slot)
        return line.values[slot]

    def _do_write(self, cid, offset, value, result):
        cindex = self._cid_index.get(cid)
        if cindex is None:  # _pack, inlined (misses are half the wall)
            cindex = len(self._cids)
            self._cid_index[cid] = cindex
            self._cids.append(cid)
        tag = cindex << self._tag_shift | offset // self.line_size
        slot = offset % self.line_size
        index = self._cam.get(tag)
        if index is None:
            result.hit = False
            line = self._allocate_line(cid, tag, result)
            if self.fetch_on_write:
                self._fill_line(line, cid, tag, None, result)
        else:
            line = self._lines[index]
            self._policy.touch(index)
        if not line.valid[slot]:
            line.valid[slot] = True
            line.valid_count += 1
            self._active += 1
        if line.pending[slot]:  # _note_access, inlined
            line.pending[slot] = False
            self.stats.active_registers_reloaded += 1
        line.values[slot] = value

    def _do_free(self, cid, offset):
        tag = self._pack_get(cid, offset // self.line_size)
        slot = offset % self.line_size
        self.backing.discard(cid, offset)
        index = None if tag is None else self._cam.get(tag)
        if index is None:
            return
        line = self._lines[index]
        if line.valid[slot]:
            line.valid[slot] = False
            line.pending[slot] = False
            line.values[slot] = None
            line.valid_count -= 1
            self._active -= 1
        if line.valid_count == 0:
            del self._cam[tag]
            self._mru_latch.pop(cid, None)
            self._policy.remove(index)
            self._context_lines[cid].discard(index)
            if not self._context_lines[cid]:
                del self._context_lines[cid]
            line.clear()
            self._release(index)

    # -- resilience hooks ----------------------------------------------------

    def invalidate(self, cid, offset):
        """Drop a register's *resident* copy, keeping any memory copy.

        Unlike :meth:`free_register` this does not discard the backing
        store entry: the next read demand-reloads through the normal
        miss path.  Used by the resilience layer to recover a detected
        corruption whose memory copy is known clean.
        """
        tag = self._pack_get(cid, offset // self.line_size)
        slot = offset % self.line_size
        index = None if tag is None else self._cam.get(tag)
        if index is None:
            return
        line = self._lines[index]
        if line.valid[slot]:
            line.valid[slot] = False
            line.pending[slot] = False
            line.values[slot] = None
            line.valid_count -= 1
            self._active -= 1

    def recover_register(self, cid, offset):
        """Recover a corrupted register from its clean memory copy.

        The NSF recovers for free through its existing miss machinery:
        invalidate the slot, then demand-reload exactly one register.
        Returns ``(value, AccessResult)``; the traffic is recorded like
        any other miss so cost models price the recovery.
        """
        self.invalidate(cid, offset)
        return self.read(offset, cid=cid)

    def retire_line(self, index):
        """Take one physical line out of service (hard-fault degradation).

        The fully-associative file just loses one line of capacity; any
        resident registers are spilled first so no data is lost.  Raises
        :class:`CapacityError` rather than retiring the last line.
        """
        if not 0 <= index < self.num_lines:
            raise ValueError(f"no line {index} in a {self.num_lines}-line file")
        if index in self._retired:
            return
        if self.num_lines - len(self._retired) <= 1:
            raise CapacityError(
                "cannot retire the last serviceable line of the file"
            )
        line = self._lines[index]
        if line.tag is not None:
            self._evict(index, AccessResult(kind="retire"))
        # A retired line still sitting in the free list is skipped
        # lazily at pop time — an O(1) retire instead of the old O(n)
        # ``list.remove`` scan; pop order of live lines is unchanged.
        self._retired.add(index)
        self.stats.lines_retired += 1
        self.stats.capacity = self.serviceable_registers()

    def retire_containing(self, cid, offset):
        """Retire the line currently holding ``(cid, offset)``; returns
        the retired physical index, or ``None`` if not resident."""
        index = self.line_index_of(cid, offset)
        if index is not None:
            self.retire_line(index)
        return index

    def _release(self, index):
        """Return a line to the free pool unless it has been retired."""
        if index not in self._retired:
            self._free.append(index)

    # -- allocation / spill / reload machinery ------------------------------------

    def _allocate_line(self, cid, tag, result):
        """Bind ``tag`` to a physical line, evicting the victim if full."""
        index = None
        while self._free:
            candidate = self._free.pop()
            if candidate not in self._retired:
                index = candidate
                break
        if index is None:
            index = self._policy.victim()
            self._evict(index, result)
        line = self._lines[index]
        line.tag = tag
        self._cam[tag] = index
        self._policy.insert(index)
        # setdefault would allocate a throwaway set on every call
        owned = self._context_lines.get(cid)
        if owned is None:
            owned = self._context_lines[cid] = set()
        owned.add(index)
        if self.spill_watermark:
            self._dribble_back(index)
        return line

    def _dribble_back(self, protected_index):
        """Proactively spill LRU lines until the watermark is restored.

        The just-allocated line is protected; traffic is recorded as
        background spills (hidden from the critical path by the spill
        engine).
        """
        while len(self._free) < self.spill_watermark:
            index = self._policy.victim()
            if index == protected_index:
                break
            before = self.stats.registers_spilled
            self._evict(index, AccessResult())
            moved = self.stats.registers_spilled - before
            # Reclassify the traffic as background work.
            self.stats.registers_spilled -= moved
            self.stats.background_registers_spilled += moved
            self._release(index)

    def _evict(self, index, result):
        """Spill a victim line's valid registers to its save area.

        The line is one transfer unit on the spill wire: under the
        ``"line"`` strategy its dead slots ship too (as don't-care
        words), under ``"register"`` only live registers move — the two
        granularities compress very differently.
        """
        line = self._lines[index]
        victim_cid, line_no = self._unpack(line.tag)
        self._mru_latch.pop(victim_cid, None)
        base_offset = line_no * self.line_size
        pairs = []
        for slot in range(self.line_size):
            if line.valid[slot]:
                pairs.append((base_offset + slot, line.values[slot]))
                self._note_moved_out(result, victim_cid,
                                     base_offset + slot)
        live = len(pairs)
        dead = self.line_size - live if self.reload_scope == "line" else 0
        record = self.backing.spill_unit(victim_cid, pairs,
                                         dead_words=dead)
        self.stats.raw_bytes_spilled += record.raw_bytes
        self.stats.wire_bytes_spilled += record.wire_bytes
        self._active -= line.valid_count
        self.stats.lines_spilled += 1
        self.stats.live_registers_spilled += live
        moved = self.line_size if self.reload_scope == "line" else live
        self.stats.registers_spilled += moved
        result.spilled += moved
        result.lines_spilled += 1
        del self._cam[line.tag]
        self._policy.remove(index)
        owned = self._context_lines[victim_cid]
        owned.discard(index)
        if not owned:
            del self._context_lines[victim_cid]
        line.clear()

    def _fill_line(self, line, cid, tag, miss_offset, result):
        """Reload a freshly-allocated line according to ``reload_scope``.

        A read miss (``miss_offset`` set) under register scope reloads
        the missing register only; line scope, and a fetch-on-write
        write miss (``miss_offset`` None), reload the line's saved
        registers.
        """
        line_no = tag & self._tag_mask
        base_offset = line_no * self.line_size
        if self.reload_scope == "line" or miss_offset is None:
            offsets = [base_offset + slot
                       for slot in range(self.line_size)
                       if self.backing.contains(cid, base_offset + slot)]
            if not offsets:
                # A brand-new line (write-allocate of a fresh context):
                # there is nothing in the save area to fetch, so no
                # reload traffic happens.
                return
            live = len(offsets)
            values, record = self.backing.reload_unit(
                cid, offsets, dead_words=self.line_size - live)
            for offset, value in zip(offsets, values):
                slot = offset - base_offset
                line.values[slot] = value
                line.valid[slot] = True
                line.pending[slot] = True
                line.valid_count += 1
                self._note_moved_in(result, cid, offset)
            self._active += live
            self.stats.lines_reloaded += 1
            self.stats.registers_reloaded += self.line_size
            self.stats.live_registers_reloaded += live
            self.stats.raw_bytes_reloaded += record.raw_bytes
            self.stats.wire_bytes_reloaded += record.wire_bytes
            result.reloaded += self.line_size
            result.lines_reloaded += 1
        else:
            self.stats.lines_reloaded += 1
            result.lines_reloaded += 1
            if miss_offset is not None:
                slot = miss_offset % self.line_size
                self._reload_single(line, cid, miss_offset, slot, result)

    def _reload_single(self, line, cid, offset, slot, result):
        values, record = self.backing.reload_unit(cid, [offset])
        line.values[slot] = values[0]
        self.stats.raw_bytes_reloaded += record.raw_bytes
        self.stats.wire_bytes_reloaded += record.wire_bytes
        line.valid[slot] = True
        line.pending[slot] = True
        line.valid_count += 1
        self._active += 1
        self.stats.registers_reloaded += 1
        self.stats.live_registers_reloaded += 1
        self._note_moved_in(result, cid, offset)
        result.reloaded += 1

    def _note_access(self, line, slot):
        """Flip a pending reload into the active-reload count (curve C)."""
        if line.pending[slot]:
            line.pending[slot] = False
            self.stats.active_registers_reloaded += 1

    def _fault(self, cid, offset):
        if self.strict:
            raise ReadBeforeWriteError(cid, offset)
        return 0

    # -- checkpointing -------------------------------------------------------

    def _config(self):
        """Construction parameters: ``capture()["config"]``."""
        return dict(
            self._base_config(),
            line_size=self.line_size,
            policy=self._policy.name,
            # restore() does not check the seed (the RNG state is
            # restored with the policy), but direct execution under
            # two seeds differs, so the config fingerprint needs it
            policy_seed=self.policy_seed,
            reload_scope=self.reload_scope,
            fetch_on_write=self.fetch_on_write,
            spill_watermark=self.spill_watermark,
        )

    def capture(self):
        """Complete mutable state as a plain dict (snapshot protocol)."""
        return {
            "kind": self.kind,
            "config": self._config(),
            "base": self._capture_base(),
            # tags are serialized in their architectural (cid, line_no)
            # form, not the packed-integer internal form: snapshots stay
            # bit-identical to pre-packing captures and independent of
            # the interning order of this process
            "lines": [
                {
                    "tag": (None if line.tag is None
                            else self._unpack(line.tag)),
                    "values": list(line.values),
                    "valid": list(line.valid),
                    "pending": list(line.pending),
                    "valid_count": line.valid_count,
                }
                for line in self._lines
            ],
            # lazily-retired entries are dropped here exactly as the old
            # eager ``list.remove`` dropped them at retire time
            "free": [index for index in self._free
                     if index not in self._retired],
            "retired": sorted(self._retired),
            "active": self._active,
            "policy": self._policy.capture(),
        }

    def restore(self, state):
        """Overwrite all mutable state from a ``capture()`` dict."""
        from repro.core.snapshot import expect_config, expect_kind

        expect_kind(state, self.kind)
        expect_config(
            state,
            line_size=self.line_size,
            policy=self._policy.name,
            reload_scope=self.reload_scope,
            fetch_on_write=self.fetch_on_write,
            spill_watermark=self.spill_watermark,
            **self._base_config(),
        )
        self._restore_base(state["base"])
        self._cam = {}
        self._cid_index = {}
        self._cids = []
        self._mru_latch = {}
        self._context_lines = {}
        for index, saved in enumerate(state["lines"]):
            line = self._lines[index]
            tag = saved["tag"]
            line.values = list(saved["values"])
            line.valid = list(saved["valid"])
            line.pending = list(saved["pending"])
            line.valid_count = saved["valid_count"]
            if tag is None:
                line.tag = None
            else:
                cid, line_no = tuple(tag)
                line.tag = self._pack(cid, line_no)
                self._cam[line.tag] = index
                self._context_lines.setdefault(cid, set()).add(index)
        self._free = list(state["free"])
        self._retired = set(state["retired"])
        self._active = state["active"]
        self._policy.restore(state["policy"])
