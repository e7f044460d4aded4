"""Working-set analysis of register-reference traces.

Section 7.1.1 of the paper rests on two measured facts: compiled
sequential procedures keep "an average of 8-10 active registers" while
the TAM translator inflates parallel contexts to "18-22 [active
registers] per parallel context".  Those numbers drive everything —
they are why fixed frames waste space and why fine-grain binding wins.

:func:`profile_trace` extracts exactly these statistics from any
recorded trace, so the claim can be measured for our workloads instead
of assumed.
"""

from dataclasses import dataclass, field

from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_SWITCH,
    OP_TICK,
    OP_WRITE,
)


@dataclass
class ContextProfile:
    """Lifetime statistics of one context."""

    cid: int
    registers_written: int = 0
    peak_live: int = 0
    reads: int = 0
    writes: int = 0
    #: instructions executed while this context was current
    instructions: int = 0


@dataclass
class TraceProfile:
    """Aggregate working-set statistics of a trace."""

    contexts: list = field(default_factory=list)
    total_instructions: int = 0
    total_switches: int = 0
    #: peak number of simultaneously-live contexts (sequential programs:
    #: the maximum call depth; parallel: peak live threads)
    max_concurrent_contexts: int = 0
    #: instruction-weighted average of live contexts
    avg_concurrent_contexts: float = 0.0

    @property
    def num_contexts(self):
        return len(self.contexts)

    @property
    def avg_registers_per_context(self):
        if not self.contexts:
            return 0.0
        return (sum(c.registers_written for c in self.contexts)
                / len(self.contexts))

    @property
    def max_registers_per_context(self):
        if not self.contexts:
            return 0
        return max(c.registers_written for c in self.contexts)

    @property
    def avg_peak_live(self):
        if not self.contexts:
            return 0.0
        return sum(c.peak_live for c in self.contexts) / len(self.contexts)

    @property
    def avg_instructions_per_context(self):
        if not self.contexts:
            return 0.0
        return (sum(c.instructions for c in self.contexts)
                / len(self.contexts))

    def histogram(self, bucket=4):
        """Histogram of registers written per context."""
        counts = {}
        for c in self.contexts:
            key = (c.registers_written // bucket) * bucket
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))


def _flat_events(trace):
    """The packed trace as one flat int-opcode list, wide values
    resolved (``tolist`` pre-boxes every int once)."""
    data, wide = trace.packed()
    flat = data.tolist()
    for index, value in wide.items():
        flat[4 * index + 3] = value
    return flat


def profile_trace(trace):
    """Compute a :class:`TraceProfile` from a recorded trace."""
    open_contexts = {}
    live_sets = {}
    finished = []
    current = None
    switches = 0
    total_instructions = 0
    max_concurrent = 0
    concurrency_weighted = 0
    it = iter(_flat_events(trace))
    for op, cid, offset, value in zip(it, it, it, it):
        if op == OP_BEGIN:
            open_contexts[cid] = ContextProfile(cid=cid)
            live_sets[cid] = (set(), set())  # (ever written, now live)
            max_concurrent = max(max_concurrent, len(open_contexts))
        elif op == OP_END:
            profile = open_contexts.pop(cid, None)
            if profile is not None:
                finished.append(profile)
                live_sets.pop(cid, None)
            if current == cid:
                current = None
        elif op == OP_SWITCH:
            if cid != current:
                switches += 1
                current = cid
        elif op == OP_TICK:
            total_instructions += value
            concurrency_weighted += value * len(open_contexts)
            if current in open_contexts:
                open_contexts[current].instructions += value
        elif op == OP_WRITE:
            profile = open_contexts.get(cid)
            if profile is not None:
                ever, live = live_sets[cid]
                ever.add(offset)
                live.add(offset)
                profile.writes += 1
                profile.registers_written = len(ever)
                profile.peak_live = max(profile.peak_live, len(live))
        elif op == OP_READ:
            profile = open_contexts.get(cid)
            if profile is not None:
                profile.reads += 1
        elif op == OP_FREE:
            if cid in live_sets:
                live_sets[cid][1].discard(offset)
    # Contexts still open at the end of the trace count too.
    finished.extend(open_contexts.values())
    return TraceProfile(
        contexts=finished,
        total_instructions=total_instructions,
        total_switches=switches,
        max_concurrent_contexts=max_concurrent,
        avg_concurrent_contexts=(
            concurrency_weighted / total_instructions
            if total_instructions else 0.0
        ),
    )
