"""Replay a recorded trace against any register-file configuration.

This is the cheap half of the paper's methodology: one recorded
workload evaluates an arbitrary number of file organizations.

Two engines over the packed int-opcode event array:

* the **verified** engine (``verify=True``, the default) shadows every
  write per context and checks each replayed read against the most
  recent recorded value, so a model bug surfaces during sweeps too.
  Shadow state is indexed *per cid* — an ``END`` event drops the whole
  context in O(1) instead of scanning every live register.
* the **fast path** (``verify=False``) drives the model with no
  bookkeeping at all: an inlined int-opcode dispatch over the flat
  array with the hot ops (read/write/tick) tested first.  This is what
  the experiment sweeps use once a trace is value-verified at record
  time.
"""

from repro.errors import ReproError
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_SWITCH,
    OP_TICK,
    OP_WRITE,
    WIDE_VALUE,
)


class ReplayDivergenceError(ReproError):
    """A replayed read returned a different value than was written."""

    def __init__(self, index, cid, offset, expected, actual):
        super().__init__(
            f"replay diverged at event {index}: context {cid} r{offset} "
            f"returned {actual!r}, trace wrote {expected!r}"
        )


def replay(trace, model, verify=True):
    """Drive ``model`` with the packed ``trace``; returns the model
    (stats filled).

    ``model.context_size`` must be at least the trace's recorded
    context size, or offsets will fault.
    """
    if model.context_size < trace.context_size:
        raise ValueError(
            f"model context_size {model.context_size} smaller than the "
            f"trace's {trace.context_size}"
        )
    if verify:
        _replay_verified(trace, model)
    else:
        _replay_fast(trace, model)
    return model


def _replay_fast(trace, model):
    """Verify-off fast path: inlined int-opcode dispatch, zero
    bookkeeping.

    The loop unpacks the flat array four-at-a-time through a shared
    iterator (one tuple per event, no index arithmetic) over a plain
    list — list items are pre-boxed ints, where ``array`` re-boxes on
    every subscript.  Traces with out-of-range values take the indexed
    variant, which can resolve the side table by event position.
    """
    data, wide = trace.packed()
    if wide:
        _replay_fast_wide(data, wide, model)
        return
    read = model.read
    write = model.write
    tick = model.tick
    # cold-op dispatch table, indexed by opcode (hot slots unused)
    cold = _dispatch_table(model)
    it = iter(data.tolist())
    for op, cid, offset, value in zip(it, it, it, it):
        if op == OP_READ:
            read(offset, cid)
        elif op == OP_WRITE:
            write(offset, value, cid)
        elif op == OP_TICK:
            tick(value)
        else:
            cold[op](cid, offset)


def _replay_fast_wide(data, wide, model):
    """Indexed fast path for traces carrying >64-bit values."""
    read = model.read
    write = model.write
    tick = model.tick
    cold = _dispatch_table(model)
    lst = data.tolist()
    n = len(lst)
    for base in range(0, n, 4):
        op = lst[base]
        if op == OP_READ:
            read(lst[base + 2], lst[base + 1])
        elif op == OP_WRITE:
            value = lst[base + 3]
            if value == WIDE_VALUE:
                value = wide.get(base >> 2, value)
            write(lst[base + 2], value, lst[base + 1])
        elif op == OP_TICK:
            tick(lst[base + 3])
        else:
            cold[op](lst[base + 1], lst[base + 2])


def _dispatch_table(model):
    """Cold-op handlers ``(cid, offset) -> None``, indexed by opcode.

    The four adapter closures are cached on the model so repeated
    replays (sweep cells re-replaying onto the same recorder inner,
    the trace cache's verify pass) build them once; slotted wrappers
    that cannot grow attributes just rebuild per call.  The cache is
    probed through ``object.__getattribute__`` on the instance dict:
    delegating wrappers (``TracingRegisterFile.__getattr__``) must not
    surface their *inner* model's table, which would route cold ops
    around the wrapper.
    """
    try:
        cached = object.__getattribute__(model, "__dict__")
    except AttributeError:
        cached = None
    if cached is not None:
        table = cached.get("_replay_dispatch")
        if table is not None:
            return table
    table = [None] * 7
    table[OP_SWITCH] = lambda cid, offset: model.switch_to(cid)
    table[OP_BEGIN] = lambda cid, offset: model.begin_context(cid=cid)
    table[OP_END] = lambda cid, offset: model.end_context(cid)
    table[OP_FREE] = lambda cid, offset: model.free_register(offset,
                                                            cid=cid)
    try:
        model._replay_dispatch = table
    except AttributeError:
        pass
    return table


def _replay_verified(trace, model):
    """Verified engine: per-cid shadow of the most recent writes."""
    data, wide = trace.packed()
    read = model.read
    write = model.write
    tick = model.tick
    end_context = model.end_context
    free_register = model.free_register
    cold = _dispatch_table(model)
    # hoisted: traces without wide values (the overwhelming case) skip
    # the per-write sentinel compare and side-table probe entirely
    has_wide = bool(wide)
    #: cid -> {offset: last written value}; dropping a finished context
    #: is a single dict pop, not a scan of every live register
    shadow = {}
    n = len(data)
    base = 0
    while base < n:
        op = data[base]
        if op == OP_READ:
            cid = data[base + 1]
            offset = data[base + 2]
            got, _ = read(offset, cid=cid)
            context = shadow.get(cid)
            if context is not None:
                expected = context.get(offset)
                if expected is not None and got != expected:
                    raise ReplayDivergenceError(base >> 2, cid, offset,
                                                expected, got)
        elif op == OP_WRITE:
            cid = data[base + 1]
            offset = data[base + 2]
            value = data[base + 3]
            if has_wide and value == WIDE_VALUE:
                value = wide.get(base >> 2, value)
            write(offset, value, cid=cid)
            context = shadow.get(cid)
            if context is None:
                context = shadow[cid] = {}
            context[offset] = value
        elif op == OP_TICK:
            tick(data[base + 3])
        elif op == OP_END:
            cid = data[base + 1]
            end_context(cid)
            shadow.pop(cid, None)
        elif op == OP_FREE:
            cid = data[base + 1]
            offset = data[base + 2]
            free_register(offset, cid=cid)
            context = shadow.get(cid)
            if context is not None:
                context.pop(offset, None)
        else:
            cold[op](data[base + 1], data[base + 2])
        base += 4


def sweep(trace, model_factory, configurations, verify=True):
    """Replay one trace over many configurations.

    ``model_factory(**config)`` builds a model; returns a list of
    ``(config, stats)`` pairs.
    """
    results = []
    for config in configurations:
        model = model_factory(**config)
        replay(trace, model, verify=verify)
        results.append((config, model.stats))
    return results
