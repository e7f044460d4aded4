"""Fault injection for register-file models (testing utility).

Wraps any model and injects one of several corruption classes at a
chosen operation index.  The point of the library's values-are-real
design is that *every* such corruption is caught — by the activation
machine's shadow check, a workload's output verification, trace replay
divergence, or (since the resilience layer) the ECC/parity protection
of :class:`repro.core.resilience.ProtectedRegisterFile` — and the
fault-injection campaign proves it.

Fault kinds
-----------
Model-bug classes (the original suite):

``drop_write``      a write is acknowledged but the value is discarded
``corrupt_write``   the written value is perturbed (+1)
``corrupt_reload``  the value read back differs from what was stored
``lose_spill``      an evicted register's memory copy is dropped
``stale_read``      a read returns the *previous* value of the register

Hardware-fault classes (exercise the ECC recovery ladder):

``flip_write_bit``  transient single-bit upset in the stored value
                    (SEC-DED corrects it in place)
``flip_read_bit``   transient single-bit glitch on the read path
``alias_read``      transient CAM-tag/decoder glitch: the read returns
                    a multi-bit-wrong word once (tag parity territory)
``flip_clean_bits`` persistent double-bit corruption of a *clean*
                    register (detected-uncorrectable; recovered by
                    demand-reload from the backing store)
``stuck_line``      hard fault: the physical line under the triggering
                    read sticks bit 0 high on every subsequent read
                    until the line is retired from service
"""

from repro.errors import ReproError

FAULT_KINDS = (
    "drop_write", "corrupt_write", "corrupt_reload", "lose_spill",
    "stale_read", "flip_write_bit", "flip_read_bit", "alias_read",
    "flip_clean_bits", "stuck_line",
)

#: the hardware-fault kinds the resilience campaign sweeps
TRANSIENT_FAULT_KINDS = ("flip_write_bit", "flip_read_bit", "alias_read",
                         "flip_clean_bits")
HARD_FAULT_KINDS = ("stuck_line",)


class FaultConfigError(ReproError):
    pass


class FaultyRegisterFile:
    """Injects a single fault into the wrapped model's event stream.

    Transient kinds corrupt exactly one event; ``stuck_line`` plants a
    single *hard* fault whose corruption persists until the line is
    retired.  Either way ``injected`` flips true at the moment the
    fault lands.
    """

    def __init__(self, inner, kind, trigger_at=100):
        if kind not in FAULT_KINDS:
            raise FaultConfigError(
                f"unknown fault kind {kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        self.inner = inner
        self.kind = kind
        self.trigger_at = trigger_at
        self.operations = 0
        self.injected = False
        self._current_values = {}
        self._previous_values = {}
        #: physical index of the hard-faulted line (``stuck_line`` only)
        self.stuck_index = None
        # The front-ends tick once per simulated instruction: bind the
        # model's own method once rather than reach it through
        # ``__getattr__`` on every call.
        self.tick = inner.tick

    # -- faulted operations ---------------------------------------------------
    # Reads, writes and switches each pay one ``not injected and
    # operations >= trigger_at`` guard; the kind dispatch runs only
    # inside it, so the wrapper costs a counter and a test until its
    # fault lands.

    def write(self, offset, value, cid=None):
        self.operations += 1
        key = (cid if cid is not None else self.inner.current_cid, offset)
        if not self.injected and self.operations >= self.trigger_at:
            kind = self.kind
            if kind == "drop_write":
                # The write is lost: the register keeps its old value
                # (or dies entirely when it never had one).
                self.injected = True
                old = self._current_values.get(key)
                if old is not None:
                    return self.inner.write(offset, old, cid=cid)
                result = self.inner.write(offset, value, cid=cid)
                self.inner.free_register(offset, cid=cid)
                return result
            if kind == "corrupt_write":
                self.injected = True
                if isinstance(value, int):
                    value = value + 1
            elif kind == "flip_write_bit" and isinstance(value, int):
                # A particle strike flips one bit of the stored word.
                self.injected = True
                value = value ^ (1 << (self.operations % 24))
        result = self.inner.write(offset, value, cid=cid)
        self._previous_values[key] = self._current_values.get(key)
        self._current_values[key] = value
        return result

    def read(self, offset, cid=None):
        self.operations += 1
        value, result = self.inner.read(offset, cid=cid)
        if not self.injected:
            if self.operations >= self.trigger_at:
                value = self._read_fault(offset, cid, value)
        elif self.stuck_index is not None:
            value = self._stuck_value(offset, cid, value)
        return value, result

    def free_register(self, offset, cid=None):
        self.operations += 1
        # Evict the freed key from the value-tracking maps: a later
        # allocation of the same (cid, offset) must not inherit this
        # incarnation's values, or ``stale_read`` could fire against a
        # phantom from a previous life of the register.
        cid_key = cid if cid is not None else self.inner.current_cid
        self._current_values.pop((cid_key, offset), None)
        self._previous_values.pop((cid_key, offset), None)
        return self.inner.free_register(offset, cid=cid)

    def switch_to(self, cid):
        self.operations += 1
        if (not self.injected and self.operations >= self.trigger_at
                and self.kind == "lose_spill"):
            # Drop the context's save area: every backed offset whose
            # only copy is in memory vanishes.  (A backed-but-resident
            # offset merely has a stale shadow — losing it is harmless.)
            lost = [
                offset
                for offset in self.inner.backing.backed_offsets(cid)
                if not self.inner.is_resident(cid, offset)
            ]
            if lost:
                self.injected = True
                for offset in lost:
                    self.inner.backing.discard(cid, offset)
        return self.inner.switch_to(cid)

    # -- plumbing ------------------------------------------------------------------

    def _read_fault(self, offset, cid, value):
        """The armed fault's effect on one read's ``value``.

        Some kinds need a suitable victim first (an int, a clean
        register, a value that differs from the previous one, a
        resident line) and stay armed until a read offers one.
        """
        kind = self.kind
        if kind == "corrupt_reload":
            self.injected = True
            return value + 1 if isinstance(value, int) else value
        cid_key = cid if cid is not None else self.inner.current_cid
        if kind == "stuck_line":
            # Plant the hard fault on the line under this read; every
            # later read replays it (:meth:`_stuck_value`).
            locate = getattr(self.inner, "line_index_of", None)
            index = locate(cid_key, offset) if locate is not None else None
            if index is None:
                return value
            self.injected = True
            self.stuck_index = index
            return self._stuck_value(offset, cid, value)
        if kind == "stale_read":
            # Only consume the injection when the staleness is
            # observable (a previous value exists and differs).
            previous = self._previous_values.get((cid_key, offset))
            if previous is not None and previous != value:
                self.injected = True
                return previous
            return value
        if not isinstance(value, int):
            return value
        if kind == "flip_read_bit":
            self.injected = True
            return value ^ (1 << (self.operations % 24))
        if kind == "alias_read":
            # The CAM/decoder selects the wrong word for one access: the
            # returned value differs in several bits, the signature a
            # tag parity check exists to catch.
            self.injected = True
            return value ^ 0b110
        if (kind == "flip_clean_bits"
                and self.inner.backing.peek(cid_key, offset) == value):
            # Double-bit upset of a *clean* register: uncorrectable by
            # SEC-DED, but the backing store still has a good copy.
            # Persist the corruption into the stored state.
            self.injected = True
            value = value ^ 0b101
            self.inner.write(offset, value, cid=cid)
        return value

    def _stuck_value(self, offset, cid, value):
        """Replay the planted hard fault: bit 0 of every word read from
        the stuck line reads as 1."""
        if not isinstance(value, int) or value & 1:
            return value
        cid_key = cid if cid is not None else self.inner.current_cid
        if self.inner.line_index_of(cid_key, offset) == self.stuck_index:
            return value | 1
        return value

    # -- checkpointing -------------------------------------------------------

    def capture(self):
        # "fault_kind" inside config, not "kind": the snapshot protocol
        # reserves the top-level "kind" tag for the wrapper class itself
        return {
            "kind": "faulty",
            "config": {
                "fault_kind": self.kind,
                "trigger_at": self.trigger_at,
            },
            "operations": self.operations,
            "injected": self.injected,
            "stuck_index": self.stuck_index,
            "current_values": [
                [key, value]
                for key, value in self._current_values.items()
            ],
            "previous_values": [
                [key, value]
                for key, value in self._previous_values.items()
            ],
            "inner": self.inner.capture(),
        }

    def restore(self, state):
        from repro.core.snapshot import expect_config, expect_kind

        expect_kind(state, "faulty")
        expect_config(state, fault_kind=self.kind,
                      trigger_at=self.trigger_at)
        self.operations = state["operations"]
        self.injected = state["injected"]
        self.stuck_index = state["stuck_index"]
        self._current_values = {
            tuple(key): value for key, value in state["current_values"]
        }
        self._previous_values = {
            tuple(key): value for key, value in state["previous_values"]
        }
        self.inner.restore(state["inner"])

    def __getattr__(self, name):
        return getattr(self.inner, name)

    # ``__getattr__`` cannot delegate dunder-based protocol use (the
    # interpreter looks dunders up on the type), so forward them
    # explicitly: wrapped models must remain drop-in everywhere the
    # bare model is accepted.
    def __contains__(self, item):
        return item in self.inner

    def __len__(self):
        return len(self.inner)

    def __bool__(self):
        return bool(self.inner)

    def __iter__(self):
        return iter(self.inner)

    def __repr__(self):
        return (f"<FaultyRegisterFile kind={self.kind} "
                f"trigger_at={self.trigger_at} injected={self.injected} "
                f"inner={self.inner!r}>")
