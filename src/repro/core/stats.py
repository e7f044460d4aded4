"""Event counters shared by every register-file model.

The simulator separates *what happened* (these counters) from *what it
costs* (:mod:`repro.core.costs`).  Every model maintains one
:class:`RegFileStats`; the evaluation harness reads the derived
properties to regenerate the paper's figures.

Occupancy and resident-context figures are time-weighted: each call to
``tick(n)`` on a model integrates the current occupancy over ``n``
instructions, so averages are per-instruction averages exactly as in the
paper ("average fraction of active registers").
"""

from dataclasses import dataclass, field, fields
from typing import NamedTuple


class TransferRecord(NamedTuple):
    """One spill-unit transfer as it crossed the wire (sizes in bytes).

    Returned by :meth:`repro.core.backing.BackingStore.spill_unit` /
    ``reload_unit``; an uncompressed store reports ``wire_bytes ==
    raw_bytes``, a :class:`repro.core.compress.CompressingBackingStore`
    reports the primary codec's on-wire size.  Every unit transfer of
    every store builds one, so it is a named tuple, which builds in
    about a third of a frozen dataclass's time.
    """

    codec: str = "raw"
    words: int = 0
    raw_bytes: int = 0
    wire_bytes: int = 0

    @property
    def ratio(self):
        if self.wire_bytes == 0:
            return 1.0
        return self.raw_bytes / self.wire_bytes


@dataclass
class RegFileStats:
    """Raw event counts recorded by a register-file model."""

    #: total registers in the file (copied from the model for ratios)
    capacity: int = 0

    #: emulated instructions executed while this model was attached
    instructions: int = 0

    # -- operand traffic ---------------------------------------------------
    reads: int = 0
    writes: int = 0
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0

    # -- spill / reload traffic --------------------------------------------
    #: registers moved per the model's policy (frames for segmented files,
    #: single registers or lines for the NSF)
    registers_spilled: int = 0
    registers_reloaded: int = 0
    #: subset of the above that actually carried valid data
    live_registers_spilled: int = 0
    live_registers_reloaded: int = 0
    #: reloaded registers that were referenced again before eviction
    active_registers_reloaded: int = 0
    #: line-granularity events (NSF) or frame events (segmented)
    lines_spilled: int = 0
    lines_reloaded: int = 0
    #: registers spilled proactively by the dribble-back extension
    #: (moved in the background, off the critical path)
    background_registers_spilled: int = 0
    #: lines (NSF) or frames (segmented) permanently retired after hard
    #: faults — the file keeps running at reduced capacity
    lines_retired: int = 0

    # -- wire-level (bytes) spill traffic ----------------------------------
    #: bytes each transfer unit would occupy uncompressed (word width x
    #: words moved, dead slots included at frame/line granularity)
    raw_bytes_spilled: int = 0
    raw_bytes_reloaded: int = 0
    #: bytes actually crossing the spill port (equal to the raw figures
    #: unless a :mod:`repro.core.compress` codec sits on the path)
    wire_bytes_spilled: int = 0
    wire_bytes_reloaded: int = 0

    # -- backing-store retry traffic ---------------------------------------
    #: transient backing-store faults absorbed by the retry layer
    backing_transient_faults: int = 0
    #: retry attempts issued after a transient fault
    backing_retries: int = 0
    #: accesses that failed every attempt (surfaced as
    #: BackingStoreFaultError after the budget ran out)
    backing_exhaustions: int = 0
    #: simulated cycles of deterministic exponential backoff between
    #: retry attempts (priced by CostModel.backing_backoff_weight)
    backing_backoff_cycles: int = 0

    # -- context events -----------------------------------------------------
    contexts_created: int = 0
    contexts_ended: int = 0
    context_switches: int = 0
    #: switches that found the target context not resident
    switch_misses: int = 0

    # -- time-weighted occupancy -------------------------------------------
    occupancy_weighted: int = 0
    resident_contexts_weighted: int = 0
    max_active_registers: int = 0
    max_resident_contexts: int = 0

    # ------------------------------------------------------------------ API

    def tick(self, n, active_registers, resident_contexts):
        """Advance time by ``n`` instructions at the given occupancy."""
        self.instructions += n
        self.occupancy_weighted += active_registers * n
        self.resident_contexts_weighted += resident_contexts * n
        if active_registers > self.max_active_registers:
            self.max_active_registers = active_registers
        if resident_contexts > self.max_resident_contexts:
            self.max_resident_contexts = resident_contexts

    # -- derived figures -----------------------------------------------------

    @property
    def utilization_avg(self):
        """Average fraction of registers holding active data (Fig 9 'Avg')."""
        if self.instructions == 0 or self.capacity == 0:
            return 0.0
        return self.occupancy_weighted / (self.instructions * self.capacity)

    @property
    def utilization_max(self):
        """Peak fraction of registers holding active data (Fig 9 'Max')."""
        if self.capacity == 0:
            return 0.0
        return self.max_active_registers / self.capacity

    @property
    def avg_resident_contexts(self):
        """Average number of contexts resident in the file (Fig 11)."""
        if self.instructions == 0:
            return 0.0
        return self.resident_contexts_weighted / self.instructions

    @property
    def reloads_per_instruction(self):
        """Registers reloaded per instruction executed (Figs 10, 12, 13)."""
        if self.instructions == 0:
            return 0.0
        return self.registers_reloaded / self.instructions

    @property
    def live_reloads_per_instruction(self):
        if self.instructions == 0:
            return 0.0
        return self.live_registers_reloaded / self.instructions

    @property
    def active_reloads_per_instruction(self):
        if self.instructions == 0:
            return 0.0
        return self.active_registers_reloaded / self.instructions

    @property
    def spills_per_instruction(self):
        if self.instructions == 0:
            return 0.0
        return self.registers_spilled / self.instructions

    @property
    def instructions_per_switch(self):
        """Average run length between context switches (Table 1)."""
        if self.context_switches == 0:
            return float(self.instructions)
        return self.instructions / self.context_switches

    @property
    def spill_compression_ratio(self):
        """Raw over on-wire spilled bytes (>1 means compression won)."""
        if self.wire_bytes_spilled == 0:
            return 1.0
        return self.raw_bytes_spilled / self.wire_bytes_spilled

    @property
    def reload_compression_ratio(self):
        if self.wire_bytes_reloaded == 0:
            return 1.0
        return self.raw_bytes_reloaded / self.wire_bytes_reloaded

    @property
    def wire_traffic_fraction(self):
        """On-wire bytes as a fraction of raw bytes (lower is better)."""
        raw = self.raw_bytes_spilled + self.raw_bytes_reloaded
        if raw == 0:
            return 1.0
        return (self.wire_bytes_spilled + self.wire_bytes_reloaded) / raw

    @property
    def wire_bytes_per_instruction(self):
        if self.instructions == 0:
            return 0.0
        return ((self.wire_bytes_spilled + self.wire_bytes_reloaded)
                / self.instructions)

    @property
    def read_miss_rate(self):
        if self.reads == 0:
            return 0.0
        return self.read_misses / self.reads

    @property
    def write_miss_rate(self):
        if self.writes == 0:
            return 0.0
        return self.write_misses / self.writes

    # -- bookkeeping -----------------------------------------------------

    def snapshot(self):
        """Return a plain dict of every raw counter (for reports/tests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- checkpointing ---------------------------------------------------

    def capture(self):
        """Snapshot-protocol state dict (same payload as ``snapshot``)."""
        return self.snapshot()

    def restore(self, state):
        """Overwrite every counter from a ``capture()`` dict.

        The field sets must match exactly: silently dropping a counter
        (or zero-filling a missing one) would corrupt resumed stats.
        """
        from repro.errors import SnapshotError

        expected = {f.name for f in fields(self)}
        if set(state) != expected:
            missing = expected - set(state)
            extra = set(state) - expected
            raise SnapshotError(
                f"stats snapshot fields do not match: "
                f"missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, value in state.items():
            setattr(self, name, value)

    def reset(self):
        """Zero every counter except the capacity."""
        capacity = self.capacity
        for f in fields(self):
            setattr(self, f.name, 0)
        self.capacity = capacity

    def __add__(self, other):
        """Merge counters from two runs (max fields take the max)."""
        if not isinstance(other, RegFileStats):
            return NotImplemented
        merged = RegFileStats()
        for f in fields(RegFileStats):
            a = getattr(self, f.name)
            b = getattr(other, f.name)
            if f.name.startswith("max_") or f.name == "capacity":
                setattr(merged, f.name, max(a, b))
            else:
                setattr(merged, f.name, a + b)
        return merged


@dataclass
class AccessResult:
    """Outcome of a single register-file operation.

    The machine layers hand these to a :class:`repro.core.costs.CostModel`
    to price stalls; tests use them to assert hit/miss behaviour.
    """

    kind: str = "read"  # "read" | "write" | "switch"
    hit: bool = True
    #: registers physically moved by this operation
    reloaded: int = 0
    spilled: int = 0
    #: lines (or frames) moved
    lines_reloaded: int = 0
    lines_spilled: int = 0
    #: a context switch that had to evict / restore a frame
    switch_miss: bool = False
    #: exact registers moved, as (cid, offset) pairs — populated only
    #: when the model was built with ``track_moves=True`` (lets a CPU
    #: route spill traffic through its data cache at real addresses)
    moved_out: list = None
    moved_in: list = None

    @property
    def stalled(self):
        """True when the access could not complete in the register file."""
        return (not self.hit) or self.switch_miss or self.reloaded > 0

    def clone(self):
        """Fresh mutable copy (use before merging into a shared result)."""
        return AccessResult(
            kind=self.kind,
            hit=self.hit,
            reloaded=self.reloaded,
            spilled=self.spilled,
            lines_reloaded=self.lines_reloaded,
            lines_spilled=self.lines_spilled,
            switch_miss=self.switch_miss,
            moved_out=list(self.moved_out) if self.moved_out else None,
            moved_in=list(self.moved_in) if self.moved_in else None,
        )

    def merge(self, other):
        """Fold a second result into this one (multi-step operations)."""
        self.hit = self.hit and other.hit
        self.reloaded += other.reloaded
        self.spilled += other.spilled
        self.lines_reloaded += other.lines_reloaded
        self.lines_spilled += other.lines_spilled
        self.switch_miss = self.switch_miss or other.switch_miss
        return self


class _SharedAccessResult(AccessResult):
    """Sealed flyweight returned by the hit fast path.

    Resident hits vastly outnumber misses, and a hit's result is always
    the same value (``hit=True``, nothing moved) — so the fast path
    hands every hit the same immutable instance instead of allocating.
    Mutation raises: a caller that needs a private result (e.g. to
    ``merge`` recovery traffic into it) must take a ``clone()`` first.
    """

    #: a clean hit never stalls; shadowing the base property with a
    #: plain class attribute spares every front-end instruction the
    #: property-call overhead of asking
    stalled = False

    def __setattr__(self, name, value):
        if getattr(self, "_sealed", False):
            raise AttributeError(
                "shared hit-result flyweights are immutable; take a "
                ".clone() before mutating"
            )
        super().__setattr__(name, value)


class _SharedMissResult(_SharedAccessResult):
    """Sealed flyweight for a miss that moved nothing.

    A write-allocate miss binds a fresh line but transfers no
    registers, so its result is always ``hit=False`` with zero traffic.
    ``stalled`` must still read ``True`` (``not hit``), exactly as the
    tracked path's freshly-built result would report.
    """

    stalled = True


def _shared_hit(kind):
    result = _SharedAccessResult(kind=kind)
    result._sealed = True
    return result


#: the flyweights: one per operation kind, field-identical to the fresh
#: ``AccessResult`` the slow path would have built for a clean hit
HIT_READ = _shared_hit("read")
HIT_WRITE = _shared_hit("write")
HIT_SWITCH = _shared_hit("switch")

#: a write-allocate miss that found a free line: nothing spilled,
#: nothing reloaded — the single most common miss in every workload
MISS_WRITE_ALLOC = _SharedMissResult(kind="write", hit=False)
MISS_WRITE_ALLOC._sealed = True
