"""Segmented register files: the paper's baseline (§3.1).

The file is statically partitioned into equal-sized *frames*, one per
resident context; a frame pointer selects the active frame.  Switching
between resident contexts only moves the frame pointer.  Switching to a
non-resident context must evict a victim frame (spilling its registers
to the context's save area) and restore the incoming context's frame.

``spill_mode`` selects the traffic accounting:

``"frame"`` (default)
    the hardware moves whole frames — every switch miss transfers
    ``frame_size`` registers in each direction, whether or not they hold
    data.  This is the classic organization of Sparcle / HEP / MASA.
``"live"``
    the hardware tracks a valid bit per register and transfers only
    registers holding data (the middle strategy of Fig 13).

Both counts are recorded regardless of mode (``live_registers_*``), so a
single simulation yields Figure 10's "Segment" and "Segment live reg"
series at once.
"""

from repro.core.base import MISS, RegisterFile
from repro.core.policies import make_policy
from repro.core.stats import AccessResult
from repro.errors import CapacityError, ReadBeforeWriteError


def frame_transfer_cost(live, frame_size, spill_mode):
    """Registers moved and dead words shipped by one frame transfer.

    Returns ``(moved, dead)``: in ``"frame"`` mode the engine moves the
    whole frame (``moved == frame_size``) and ``frame_size - live`` of
    those words are don't-cares; in ``"live"`` mode only the ``live``
    valid registers cross the wire.  This is the single costing rule
    shared by the event-exact model below and the one-pass segmented
    oracle (:mod:`repro.trace.oracle`), so both price a spill or
    restore identically by construction.
    """
    if spill_mode == "frame":
        return frame_size, frame_size - live
    return live, 0


class _Frame:
    __slots__ = ("cid", "values", "valid", "pending", "valid_count")

    def __init__(self, frame_size):
        self.cid = None
        self.values = [None] * frame_size
        self.valid = [False] * frame_size
        self.pending = [False] * frame_size
        self.valid_count = 0

    def clear(self):
        self.cid = None
        for i in range(len(self.values)):
            self.values[i] = None
            self.valid[i] = False
            self.pending[i] = False
        self.valid_count = 0


class SegmentedRegisterFile(RegisterFile):
    """Frame-per-context register file with whole-frame spill/reload."""

    kind = "segmented"

    def __init__(self, num_registers=128, context_size=32, policy="lru",
                 spill_mode="frame", strict=True, policy_seed=0,
                 track_moves=False):
        super().__init__(num_registers, context_size, strict=strict,
                         track_moves=track_moves)
        if spill_mode not in ("frame", "live"):
            raise ValueError("spill_mode must be 'frame' or 'live'")
        self.frame_size = context_size
        self.num_frames = num_registers // context_size
        if self.num_frames < 1:
            raise CapacityError(
                f"{num_registers} registers cannot hold one "
                f"{context_size}-register frame"
            )
        self.spill_mode = spill_mode
        self._frames = [_Frame(self.frame_size) for _ in range(self.num_frames)]
        self._resident = {}
        self._free = list(range(self.num_frames - 1, -1, -1))
        self.policy_seed = policy_seed
        self._policy = make_policy(policy, seed=policy_seed)
        self._active = 0
        #: contexts that have been evicted at least once — only these pay
        #: reload traffic when re-installed (window-underflow semantics);
        #: a brand-new activation's frame has nothing to fetch.
        self._ever_spilled = set()
        #: frames taken out of service after hard faults; the segmented
        #: file loses a whole frame of capacity per fault (contrast with
        #: the NSF, which retires a single small line)
        self._retired = set()
        cls = type(self)
        if (cls._do_read is not SegmentedRegisterFile._do_read
                or cls._do_write is not SegmentedRegisterFile._do_write):
            # A subclass replaced the tracked access path (fault
            # injection, test doubles).  The hit fast path would
            # silently bypass the override, so honor it instead.
            self._fast_path = False

    # -- introspection -------------------------------------------------------

    def active_register_count(self):
        return self._active

    def resident_context_count(self):
        return len(self._resident)

    def resident_context_ids(self):
        return set(self._resident)

    def is_resident(self, cid, offset):
        index = self._resident.get(cid)
        if index is None:
            return False
        return self._frames[index].valid[offset]

    def line_index_of(self, cid, offset):
        """Physical frame currently holding ``cid`` (offset-independent).

        Named for API parity with the NSF: the segmented file's decoder
        granularity *is* the frame, which is exactly why a hard fault
        costs it a whole frame.
        """
        return self._resident.get(cid)

    def retired_frame_count(self):
        return len(self._retired)

    def retired_register_count(self):
        return len(self._retired) * self.frame_size

    def serviceable_registers(self):
        """Registers still in service after hard-fault retirements."""
        return self.num_registers - self.retired_register_count()

    # -- context lifecycle ------------------------------------------------------

    def _on_end_context(self, cid):
        self._ever_spilled.discard(cid)
        index = self._resident.pop(cid, None)
        if index is not None:
            frame = self._frames[index]
            self._active -= frame.valid_count
            self._policy.remove(index)
            frame.clear()
            self._release(index)

    def _on_switch(self, cid, result):
        if cid in self._resident:
            self._policy.touch(self._resident[cid])
            return
        result.switch_miss = True
        self.stats.switch_misses += 1
        self._install_frame(cid, result)

    # -- operand access ------------------------------------------------------------

    def _read_fast(self, cid, offset):
        index = self._resident.get(cid)
        if index is None:
            return MISS
        frame = self._frames[index]
        if not frame.valid[offset]:
            # resident but never written: the tracked path reproduces
            # the strict-mode fault / junk-read accounting exactly
            return MISS
        self._policy.touch(index)
        if frame.pending[offset]:
            frame.pending[offset] = False
            self.stats.active_registers_reloaded += 1
        return frame.values[offset]

    def _write_fast(self, cid, offset, value):
        index = self._resident.get(cid)
        if index is None:
            return False
        frame = self._frames[index]
        self._policy.touch(index)
        if not frame.valid[offset]:
            frame.valid[offset] = True
            frame.valid_count += 1
            self._active += 1
        if frame.pending[offset]:
            frame.pending[offset] = False
            self.stats.active_registers_reloaded += 1
        frame.values[offset] = value
        return True

    def _do_read(self, cid, offset, result):
        frame = self._frame_for(cid, result)
        if not frame.valid[offset]:
            if self.strict:
                raise ReadBeforeWriteError(cid, offset)
            return 0
        self._note_access(frame, offset)
        return frame.values[offset]

    def _do_write(self, cid, offset, value, result):
        frame = self._frame_for(cid, result)
        if not frame.valid[offset]:
            frame.valid[offset] = True
            frame.valid_count += 1
            self._active += 1
        self._note_access(frame, offset)
        frame.values[offset] = value

    def _do_free(self, cid, offset):
        self.backing.discard(cid, offset)
        index = self._resident.get(cid)
        if index is None:
            return
        frame = self._frames[index]
        if frame.valid[offset]:
            frame.valid[offset] = False
            frame.pending[offset] = False
            frame.values[offset] = None
            frame.valid_count -= 1
            self._active -= 1

    # -- resilience hooks ----------------------------------------------------

    def invalidate(self, cid, offset):
        """Drop one register's resident copy, keeping any memory copy."""
        index = self._resident.get(cid)
        if index is None:
            return
        frame = self._frames[index]
        if frame.valid[offset]:
            frame.valid[offset] = False
            frame.pending[offset] = False
            frame.values[offset] = None
            frame.valid_count -= 1
            self._active -= 1

    def recover_register(self, cid, offset):
        """Recover a corrupted register from its clean memory copy.

        The segmented file has no per-register miss path: its transfer
        engine moves frames.  Recovery therefore re-fetches through the
        frame engine and is charged at frame granularity in ``"frame"``
        spill mode — one measurable cost of coarse-grain organization.
        Returns ``(value, AccessResult)``.
        """
        self.invalidate(cid, offset)
        result = AccessResult(kind="read", hit=False)
        self.stats.reads += 1
        self.stats.read_misses += 1
        moved, dead = frame_transfer_cost(1, self.frame_size,
                                          self.spill_mode)
        values, record = self.backing.reload_unit(cid, [offset],
                                                  dead_words=dead)
        value = values[0]
        self.stats.raw_bytes_reloaded += record.raw_bytes
        self.stats.wire_bytes_reloaded += record.wire_bytes
        index = self._resident.get(cid)
        if index is not None:
            frame = self._frames[index]
            frame.values[offset] = value
            frame.valid[offset] = True
            frame.valid_count += 1
            self._active += 1
        self.stats.registers_reloaded += moved
        self.stats.live_registers_reloaded += 1
        self.stats.lines_reloaded += 1
        result.reloaded += moved
        result.lines_reloaded += 1
        self._note_moved_in(result, cid, offset)
        return value, result

    def retire_frame(self, index):
        """Take one frame out of service (hard-fault degradation).

        Where the NSF loses a single line, the segmented file must
        retire the whole frame — its decoder cannot address around a
        faulty cell.  Raises :class:`CapacityError` rather than retiring
        the last frame.
        """
        if not 0 <= index < self.num_frames:
            raise ValueError(
                f"no frame {index} in a {self.num_frames}-frame file"
            )
        if index in self._retired:
            return
        if self.num_frames - len(self._retired) <= 1:
            raise CapacityError(
                "cannot retire the last serviceable frame of the file"
            )
        frame = self._frames[index]
        if frame.cid is not None:
            self._evict(index, AccessResult(kind="retire"))
        # A retired frame still in the free list is skipped lazily at
        # pop time (O(1) retire; live-frame pop order is unchanged).
        self._retired.add(index)
        self.stats.lines_retired += 1
        self.stats.capacity = self.serviceable_registers()

    def retire_containing(self, cid, offset):
        """Retire the frame currently holding ``cid``; returns the
        retired physical index, or ``None`` if not resident."""
        index = self._resident.get(cid)
        if index is not None:
            self.retire_frame(index)
        return index

    def _release(self, index):
        """Return a frame to the free pool unless it has been retired."""
        if index not in self._retired:
            self._free.append(index)

    # -- frame machinery ----------------------------------------------------------

    def _frame_for(self, cid, result):
        """Return the resident frame for ``cid``, faulting it in if needed."""
        index = self._resident.get(cid)
        if index is not None:
            frame = self._frames[index]
            self._policy.touch(index)
            return frame
        # An operand access to a non-resident context behaves like a
        # switch miss: the frame must be brought in first.
        result.hit = False
        result.switch_miss = True
        self.stats.switch_misses += 1
        return self._install_frame(cid, result)

    def _install_frame(self, cid, result):
        index = None
        while self._free:
            candidate = self._free.pop()
            if candidate not in self._retired:
                index = candidate
                break
        if index is None:
            index = self._policy.victim()
            self._evict(index, result)
        frame = self._frames[index]
        frame.cid = cid
        self._resident[cid] = index
        self._policy.insert(index)
        self._restore(frame, cid, result)
        return frame

    def _evict(self, index, result):
        frame = self._frames[index]
        victim = frame.cid
        pairs = []
        for offset in range(self.frame_size):
            if frame.valid[offset]:
                pairs.append((offset, frame.values[offset]))
                self._note_moved_out(result, victim, offset)
        live = len(pairs)
        # The frame is one transfer unit: in "frame" mode its dead
        # slots cross the wire as don't-care words (which a spill-path
        # codec elides almost for free).
        moved, dead = frame_transfer_cost(live, self.frame_size,
                                          self.spill_mode)
        record = self.backing.spill_unit(victim, pairs, dead_words=dead)
        self.stats.raw_bytes_spilled += record.raw_bytes
        self.stats.wire_bytes_spilled += record.wire_bytes
        self._active -= frame.valid_count
        self.stats.registers_spilled += moved
        self.stats.live_registers_spilled += live
        self.stats.lines_spilled += 1
        result.spilled += moved
        result.lines_spilled += 1
        del self._resident[victim]
        self._policy.remove(index)
        self._ever_spilled.add(victim)
        frame.clear()
        # The caller (_install_frame) immediately reuses this frame, so it
        # is deliberately NOT returned to the free list.

    def _restore(self, frame, cid, result):
        """Reload a context's saved registers into its fresh frame.

        A context that was never evicted (a brand-new activation) has no
        save-area image: installing its frame moves nothing, like a
        register-window push.  Re-installing an evicted context is a
        window underflow and pays for the whole frame (or, in ``live``
        mode, its valid registers).
        """
        if cid not in self._ever_spilled:
            return
        offsets = self.backing.backed_offsets(cid)
        live = len(offsets)
        moved, dead = frame_transfer_cost(live, self.frame_size,
                                          self.spill_mode)
        values, record = self.backing.reload_unit(cid, offsets,
                                                  dead_words=dead)
        for offset, value in zip(offsets, values):
            frame.values[offset] = value
            frame.valid[offset] = True
            frame.pending[offset] = True
            frame.valid_count += 1
            self._note_moved_in(result, cid, offset)
        self._active += live
        self.stats.raw_bytes_reloaded += record.raw_bytes
        self.stats.wire_bytes_reloaded += record.wire_bytes
        self.stats.registers_reloaded += moved
        self.stats.live_registers_reloaded += live
        self.stats.lines_reloaded += 1
        result.reloaded += moved
        result.lines_reloaded += 1

    def _note_access(self, frame, offset):
        if frame.pending[offset]:
            frame.pending[offset] = False
            self.stats.active_registers_reloaded += 1

    # -- checkpointing -------------------------------------------------------

    def _config(self):
        """Construction parameters: ``capture()["config"]``."""
        return dict(
            self._base_config(),
            spill_mode=self.spill_mode,
            policy=self._policy.name,
            # not checked by restore(); see the NSF's _config()
            policy_seed=self.policy_seed,
        )

    def capture(self):
        """Complete mutable state as a plain dict (snapshot protocol).

        ``kind`` follows the class (``segmented`` or ``conventional``),
        so a conventional file's snapshot cannot be restored into a
        multi-frame segmented file by accident.
        """
        return {
            "kind": self.kind,
            "config": self._config(),
            "base": self._capture_base(),
            "frames": [
                {
                    "cid": frame.cid,
                    "values": list(frame.values),
                    "valid": list(frame.valid),
                    "pending": list(frame.pending),
                    "valid_count": frame.valid_count,
                }
                for frame in self._frames
            ],
            # lazily-retired entries are dropped here exactly as the old
            # eager ``list.remove`` dropped them at retire time
            "free": [index for index in self._free
                     if index not in self._retired],
            "retired": sorted(self._retired),
            "ever_spilled": sorted(self._ever_spilled, key=repr),
            "active": self._active,
            "policy": self._policy.capture(),
        }

    def restore(self, state):
        """Overwrite all mutable state from a ``capture()`` dict."""
        from repro.core.snapshot import expect_config, expect_kind

        expect_kind(state, self.kind)
        expect_config(
            state,
            spill_mode=self.spill_mode,
            policy=self._policy.name,
            **self._base_config(),
        )
        self._restore_base(state["base"])
        self._resident = {}
        for index, saved in enumerate(state["frames"]):
            frame = self._frames[index]
            frame.cid = saved["cid"]
            frame.values = list(saved["values"])
            frame.valid = list(saved["valid"])
            frame.pending = list(saved["pending"])
            frame.valid_count = saved["valid_count"]
            if frame.cid is not None:
                self._resident[frame.cid] = index
        self._free = list(state["free"])
        self._retired = set(state["retired"])
        self._ever_spilled = set(state["ever_spilled"])
        self._active = state["active"]
        self._policy.restore(state["policy"])


class ConventionalRegisterFile(SegmentedRegisterFile):
    """A single-context register file (the degenerate one-frame case).

    Every context switch spills and restores the whole file — the
    behaviour of a conventional processor without multithreading
    support, used as the worst-case baseline in §1 of the paper.
    """

    kind = "conventional"

    def __init__(self, num_registers=32, context_size=None, policy="lru",
                 spill_mode="frame", strict=True, track_moves=False):
        if context_size is None:
            context_size = num_registers
        # A conventional file holds exactly one context: its capacity IS
        # one frame, whatever the architectural context size.
        super().__init__(num_registers=context_size,
                         context_size=context_size, policy=policy,
                         spill_mode=spill_mode, strict=strict,
                         track_moves=track_moves)

    def _config(self):
        """Construction parameters: ``capture()["config"]``.  The
        constructor takes no policy seed (it is always 0), so the config
        names none: ``type(model)(**model._config())`` builds a twin."""
        config = super()._config()
        del config["policy_seed"]
        return config
