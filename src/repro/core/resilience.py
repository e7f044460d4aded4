"""Resilience layer: ECC/parity protection and the recovery ladder.

The NSF spills lazily to a backing store, so most resident registers
have a clean memory copy — which makes single-event upsets recoverable
*for free* through the demand-reload path the file already has.  This
module turns that observation into a protection wrapper usable over any
register-file model:

* register **values** are protected by a SEC-DED Hamming code
  (single-error-correct, double-error-detect) computed at write time;
* CAM **tags** and frame decoders are parity-protected — a decoder
  glitch selects the wrong word, which the per-register code exposes as
  a mismatched codeword (the functional signature of a tag parity hit).

Detected errors descend a **recovery ladder**, cheapest rung first:

1. *correct* — a single-bit data error is fixed in place (and scrubbed
   back into the array);
2. *reread* — an uncorrectable mismatch is re-read once: transient
   read-path/decoder glitches vanish on retry;
3. *reload* — a persistent uncorrectable error on a **clean** register
   (its backing-store copy still decodes correctly) is recovered by
   invalidating the resident copy and demand-reloading through the
   model's existing miss machinery;
4. *trap* — a persistent uncorrectable error on a **dirty** register is
   unrecoverable in hardware: :class:`repro.errors.MachineCheckError`
   is raised (optionally through a
   :class:`repro.cpu.traps.MachineCheckTrapUnit` that prices the trap);
5. *retire* — a physical line that keeps erring is treated as a hard
   fault and taken out of service (``retire_containing``): the NSF
   loses one small line, the segmented baseline a whole frame.

Every rung is counted in :class:`ResilienceStats` and priced by
:meth:`repro.core.costs.CostModel.resilience_cycles`, so Fig-14-style
overhead accounting includes recovery cycles.

The module also provides :class:`RetryingBackingStore`, a bounded-retry
wrapper for transient backing-store faults (a flaky memory port), used
by the scheduler-robustness story.
"""

import random
import zlib
from dataclasses import dataclass, fields

from repro.errors import BackingStoreFaultError, MachineCheckError

PROTECTION_LEVELS = ("none", "parity", "ecc")

#: data word width the SEC-DED code covers (two's-complement view)
ECC_WIDTH = 64
_ECC_MASK = (1 << ECC_WIDTH) - 1
_SIGN_BIT = 1 << (ECC_WIDTH - 1)


def _codeable(value):
    """True when ``value`` fits the 64-bit SEC-DED data word."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and -_SIGN_BIT <= value < _SIGN_BIT)


#: ``secded_encode`` results for values whose type is exactly ``int``
#: (an int's code is a pure function of its value).  The campaign's
#: GateSim runs encode 126 distinct ints at the golden point, 174 at
#: scale 1.0 and 588 at scale 4.0, so over 92% of one run's encodes
#: repeat a value; the bound holds about 7x the largest of those
#: counts in under 1 MiB
_ECC_MEMO = {}
_ECC_MEMO_LIMIT = 4096


def secded_encode(value):
    """Compute the check word stored alongside a register value.

    64-bit-representable ints get a true Hamming SEC-DED code: the
    syndrome is the XOR of the position codes (``bit index + 1``) of
    every set data bit, plus an overall parity bit.  Other values
    (floats, tuples, out-of-range ints) get a CRC fingerprint — any
    corruption is *detected*, but only reload/trap can recover it,
    exactly like a detected-uncorrectable ECC event.

    Codes of plain ints are memoized (up to ``_ECC_MEMO_LIMIT`` values,
    then the memo starts over).  ``bool``, int subclasses and every
    other type are encoded afresh: a memo keyed by value would hand
    ``True`` and ``1.0`` the code of ``1``, and a subclass may redefine
    equality.
    """
    if type(value) is int:
        code = _ECC_MEMO.get(value)
        if code is None:
            if len(_ECC_MEMO) >= _ECC_MEMO_LIMIT:
                _ECC_MEMO.clear()
            code = _ECC_MEMO[value] = _encode(value)
        return code
    return _encode(value)


def _encode(value):
    if _codeable(value):
        x = value & _ECC_MASK
        syndrome = 0
        bits = x
        while bits:
            low = bits & -bits
            syndrome ^= low.bit_length()  # position code = index + 1
            bits ^= low
        parity = x.bit_count() & 1
        # The tag-parity contribution: a CRC of the whole word.  SEC-DED
        # alone miscorrects some >=3-bit deltas (e.g. reading the wrong
        # word entirely can alias into a plausible single-bit fix); the
        # fingerprint makes such miscorrections fail verification, the
        # job CAM-tag/decoder parity does in hardware.
        tag = zlib.crc32(x.to_bytes(8, "little"))
        return ("ecc", syndrome, parity, tag)
    digest = zlib.crc32(repr(value).encode("utf-8", "replace"))
    return ("crc", digest, type(value).__name__)


def secded_check(value, code):
    """Verify ``value`` against its stored check word.

    Returns ``(status, fixed_value)`` where status is ``"ok"``,
    ``"corrected"`` (single-bit error; ``fixed_value`` is the repaired
    value) or ``"uncorrectable"``.
    """
    fresh = secded_encode(value)
    if fresh == code:
        return "ok", value
    if code[0] != "ecc" or fresh[0] != "ecc":
        return "uncorrectable", None
    delta_syndrome = fresh[1] ^ code[1]
    delta_parity = fresh[2] ^ code[2]
    if delta_parity == 1 and 1 <= delta_syndrome <= ECC_WIDTH:
        x = (value & _ECC_MASK) ^ (1 << (delta_syndrome - 1))
        fixed = x - (1 << ECC_WIDTH) if x & _SIGN_BIT else x
        if secded_encode(fixed) == code:
            return "corrected", fixed
    return "uncorrectable", None


@dataclass
class ResilienceStats:
    """Counts of detection and recovery events, one field per rung."""

    #: protected reads verified against their check word
    checks: int = 0
    #: reads whose value failed verification (any rung)
    detected: int = 0
    #: rung 1 — single-bit errors corrected (and scrubbed) in place
    corrected: int = 0
    #: rung 2 — transient read-path/decoder glitches gone on reread
    reread_recoveries: int = 0
    #: rung 3 — clean registers recovered by invalidate + demand-reload
    reload_recoveries: int = 0
    #: rung 4 — dirty uncorrectable errors escalated to machine checks
    machine_checks: int = 0
    #: rung 5 — physical lines/frames retired as hard faults
    lines_retired: int = 0

    def snapshot(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def capture(self):
        return self.snapshot()

    def restore(self, state):
        from repro.errors import SnapshotError

        expected = {f.name for f in fields(self)}
        if set(state) != expected:
            raise SnapshotError(
                f"resilience-stats snapshot fields do not match: "
                f"got {sorted(state)}, expected {sorted(expected)}"
            )
        for name, value in state.items():
            setattr(self, name, value)

    @property
    def recovered(self):
        """Detected errors the layer recovered without a trap."""
        return (self.corrected + self.reread_recoveries
                + self.reload_recoveries)


class ProtectedRegisterFile:
    """Wraps any register-file model with ECC/parity plus the ladder.

    Parameters
    ----------
    inner:
        The model to protect (NSF, segmented, conventional — or a
        :class:`repro.core.faults.FaultyRegisterFile` wrapping one, the
        configuration the fault-injection campaign uses).
    level:
        ``"ecc"`` (SEC-DED data + tag parity, the default), ``"parity"``
        (detection only — no rung-1 correction), or ``"none"``
        (transparent pass-through, for ablations).
    trap_unit:
        Optional :class:`repro.cpu.traps.MachineCheckTrapUnit`; its
        ``handle`` is invoked before a :class:`MachineCheckError`
        propagates, so trap entry/exit cycles are accounted.
    hard_fault_threshold:
        Distinct detected errors on the same physical line before it is
        declared a hard fault and retired (rung 5).
    """

    def __init__(self, inner, level="ecc", trap_unit=None,
                 hard_fault_threshold=3):
        if level not in PROTECTION_LEVELS:
            raise ValueError(
                f"unknown protection level {level!r}; expected one of "
                f"{PROTECTION_LEVELS}"
            )
        if hard_fault_threshold < 2:
            raise ValueError("hard_fault_threshold must be >= 2")
        self.inner = inner
        self.level = level
        self.trap_unit = trap_unit
        self.hard_fault_threshold = hard_fault_threshold
        self.rstats = ResilienceStats()
        self._codes = {}
        self._line_errors = {}
        # bound once, as in :class:`repro.core.faults.FaultyRegisterFile`
        self.tick = inner.tick

    # -- protected operations ----------------------------------------------

    def write(self, offset, value, cid=None):
        cid_key = cid if cid is not None else self.inner.current_cid
        result = self.inner.write(offset, value, cid=cid)
        if self.level != "none":
            self._codes[(cid_key, offset)] = secded_encode(value)
        return result

    def read(self, offset, cid=None):
        cid_key = cid if cid is not None else self.inner.current_cid
        value, result = self.inner.read(offset, cid=cid)
        if self.level == "none":
            return value, result
        code = self._codes.get((cid_key, offset))
        if code is None:
            # Never written through the wrapper (e.g. strict=False junk
            # reads): nothing to verify against.
            return value, result
        self.rstats.checks += 1
        if secded_encode(value) == code:
            return value, result
        status, fixed = secded_check(value, code)
        return self._recover(cid_key, offset, value, code, status, fixed,
                             result)

    def free_register(self, offset, cid=None):
        cid_key = cid if cid is not None else self.inner.current_cid
        self._codes.pop((cid_key, offset), None)
        return self.inner.free_register(offset, cid=cid)

    def end_context(self, cid):
        for key in [k for k in self._codes if k[0] == cid]:
            del self._codes[key]
        return self.inner.end_context(cid)

    # -- the recovery ladder ------------------------------------------------

    def _recover(self, cid, offset, value, code, status, fixed, result):
        # Hit results are shared immutable flyweights; recovery merges
        # extra traffic into the result, so take a private copy first.
        result = result.clone()
        self.rstats.detected += 1
        line = self._line_errors_for(cid, offset)
        # Rung 1: SEC-DED corrects a single-bit error in place.
        if status == "corrected" and self.level == "ecc":
            self.rstats.corrected += 1
            self.inner.write(offset, fixed, cid=cid)  # scrub
            self._maybe_retire(cid, offset, line)
            return fixed, result
        # Rung 2: reread once — transient glitches vanish on retry.
        value2, again = self.inner.read(offset, cid=cid)
        result.merge(again)
        status2, fixed2 = secded_check(value2, code)
        if status2 == "ok":
            self.rstats.reread_recoveries += 1
            return value2, result
        if status2 == "corrected" and self.level == "ecc":
            self.rstats.corrected += 1
            self.inner.write(offset, fixed2, cid=cid)
            self._maybe_retire(cid, offset, line)
            return fixed2, result
        # Rung 3: clean register — invalidate and demand-reload.
        backing = self.inner.backing
        if backing.contains(cid, offset):
            saved = backing.peek(cid, offset)
            if secded_check(saved, code)[0] == "ok":
                value3, recovery = self.inner.recover_register(cid, offset)
                result.merge(recovery)
                self.rstats.reload_recoveries += 1
                self._maybe_retire(cid, offset, line)
                return value3, result
        # Rung 4: dirty and uncorrectable — machine check.
        self.rstats.machine_checks += 1
        error = MachineCheckError(
            cid, offset, observed=value2,
            detail="detected-uncorrectable, backing copy stale or absent",
        )
        if self.trap_unit is not None:
            self.trap_unit.handle(error)
        raise error

    def _line_errors_for(self, cid, offset):
        """Bump the error count of the physical line holding the register."""
        index = None
        locate = getattr(self.inner, "line_index_of", None)
        if locate is not None:
            index = locate(cid, offset)
        if index is None:
            return None
        self._line_errors[index] = self._line_errors.get(index, 0) + 1
        return index

    def _maybe_retire(self, cid, offset, line):
        """Rung 5: repeated errors on one line mean a hard fault."""
        if line is None or self._line_errors.get(line, 0) < \
                self.hard_fault_threshold:
            return
        retire = getattr(self.inner, "retire_containing", None)
        if retire is None:
            return
        if retire(cid, offset) is not None:
            self.rstats.lines_retired += 1
            self._line_errors.pop(line, None)

    # -- checkpointing -------------------------------------------------------

    def capture(self):
        """Wrapper state plus the wrapped model's capture.

        Explicit (not left to ``__getattr__`` forwarding): the check
        words, per-line error counts, and resilience counters live in
        the wrapper and would silently vanish from a forwarded capture.
        """
        return {
            "kind": "protected",
            "config": {
                "level": self.level,
                "hard_fault_threshold": self.hard_fault_threshold,
            },
            # insertion order of _codes follows the write sequence;
            # keys and code words are tuples, which the canonical
            # encoding preserves exactly
            "codes": [
                [key, code] for key, code in self._codes.items()
            ],
            "line_errors": sorted(
                [index, count]
                for index, count in self._line_errors.items()
            ),
            "rstats": self.rstats.capture(),
            "inner": self.inner.capture(),
        }

    def restore(self, state):
        from repro.core.snapshot import expect_config, expect_kind

        expect_kind(state, "protected")
        expect_config(state, level=self.level,
                      hard_fault_threshold=self.hard_fault_threshold)
        self._codes = {
            tuple(key): tuple(code) for key, code in state["codes"]
        }
        self._line_errors = {
            index: count for index, count in state["line_errors"]
        }
        self.rstats.restore(state["rstats"])
        self.inner.restore(state["inner"])

    # -- drop-in plumbing ----------------------------------------------------

    def __getattr__(self, name):
        return getattr(self.inner, name)

    # ``__getattr__`` cannot forward dunder-based protocol use (the
    # interpreter looks those up on the type), so the wrapper forwards
    # them explicitly — wrapped models stay drop-in for ``in``/``len``/
    # iteration wherever the bare model is accepted.
    def __contains__(self, item):
        return item in self.inner

    def __len__(self):
        return len(self.inner)

    def __bool__(self):
        return bool(self.inner)

    def __iter__(self):
        return iter(self.inner)

    def __repr__(self):
        return (f"<ProtectedRegisterFile level={self.level} "
                f"inner={self.inner!r}>")


class RetryingBackingStore:
    """Bounded retry with deterministic exponential backoff.

    Real memory ports drop requests transiently (arbitration conflicts,
    ECC scrub collisions).  This wrapper retries ``spill``/``reload``
    up to ``max_retries`` extra times and raises
    :class:`BackingStoreFaultError` only when the fault is persistent.
    Transient faults are injected deterministically from ``fault_rate``
    and ``seed`` so campaigns are reproducible.

    Each retry waits out an exponential backoff window — **in simulated
    cycles, never wall-clock sleeps**: the k-th retry of an access is
    charged ``backoff_base * 2**k`` cycles, accumulated into the
    attached :class:`~repro.core.stats.RegFileStats` as
    ``backing_backoff_cycles`` (priced by
    ``CostModel.backing_backoff_weight``).  Attach a model's stats with
    :meth:`attach_stats` so retries, exhaustions, and backoff show up in
    reports instead of only surfacing as raised errors.
    """

    def __init__(self, inner, max_retries=3, fault_rate=0.0, seed=0,
                 backoff_base=2, stats=None):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= fault_rate < 1.0:
            raise ValueError("fault_rate must be in [0, 1)")
        if backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        self.inner = inner
        self.max_retries = max_retries
        self.fault_rate = fault_rate
        self.backoff_base = backoff_base
        self._rng = random.Random(seed)
        self.transient_faults = 0
        self.retries = 0
        self.exhaustions = 0
        self.backoff_cycles = 0
        self._stats = stats

    def attach_stats(self, stats):
        """Mirror retry counters into a model's :class:`RegFileStats`."""
        self._stats = stats
        return self

    def spill(self, cid, offset, value):
        return self._attempt("spill", cid, offset,
                             lambda: self.inner.spill(cid, offset, value))

    def reload(self, cid, offset):
        return self._attempt("reload", cid, offset,
                             lambda: self.inner.reload(cid, offset))

    # Unit-granular transfers retry as one port transaction — without
    # these overrides ``__getattr__`` would hand back the inner store's
    # bound methods and the fault injection would be bypassed entirely.

    def spill_unit(self, cid, pairs, dead_words=0):
        first = pairs[0][0] if pairs else -1
        return self._attempt(
            "spill", cid, first,
            lambda: self.inner.spill_unit(cid, pairs,
                                          dead_words=dead_words))

    def reload_unit(self, cid, offsets, dead_words=0):
        first = offsets[0] if offsets else -1
        return self._attempt(
            "reload", cid, first,
            lambda: self.inner.reload_unit(cid, offsets,
                                           dead_words=dead_words))

    def _attempt(self, op, cid, offset, thunk):
        for attempt in range(self.max_retries + 1):
            if self.fault_rate and self._rng.random() < self.fault_rate:
                self.transient_faults += 1
                if self._stats is not None:
                    self._stats.backing_transient_faults += 1
                if attempt < self.max_retries:
                    self.retries += 1
                    self._backoff(attempt)
                    continue
                self.exhaustions += 1
                if self._stats is not None:
                    self._stats.backing_exhaustions += 1
                raise BackingStoreFaultError(op, cid, offset, attempt + 1)
            return thunk()
        raise BackingStoreFaultError(op, cid, offset, self.max_retries + 1)

    def _backoff(self, attempt):
        """Charge the k-th retry's deterministic backoff window."""
        penalty = self.backoff_base << attempt
        self.backoff_cycles += penalty
        if self._stats is not None:
            self._stats.backing_retries += 1
            self._stats.backing_backoff_cycles += penalty

    # -- checkpointing -------------------------------------------------------

    def capture(self):
        """Retry counters, injection RNG, and the inner store's capture.

        The attached :class:`RegFileStats` (if any) is deliberately NOT
        part of this capture — it belongs to the owning model, whose own
        capture carries it; capturing it twice would double-restore.
        """
        return {
            "kind": "retrying-backing",
            "config": {
                "max_retries": self.max_retries,
                "fault_rate": self.fault_rate,
                "backoff_base": self.backoff_base,
            },
            "transient_faults": self.transient_faults,
            "retries": self.retries,
            "exhaustions": self.exhaustions,
            "backoff_cycles": self.backoff_cycles,
            "rng": self._rng.getstate(),
            "inner": self.inner.capture(),
        }

    def restore(self, state):
        from repro.core.snapshot import expect_config, expect_kind

        expect_kind(state, "retrying-backing")
        expect_config(state, max_retries=self.max_retries,
                      fault_rate=self.fault_rate,
                      backoff_base=self.backoff_base)
        self.transient_faults = state["transient_faults"]
        self.retries = state["retries"]
        self.exhaustions = state["exhaustions"]
        self.backoff_cycles = state["backoff_cycles"]
        self._rng.setstate(state["rng"])
        self.inner.restore(state["inner"])

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __contains__(self, item):
        return item in self.inner

    def __len__(self):
        return len(self.inner)
