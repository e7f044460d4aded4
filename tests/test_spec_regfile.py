"""The production register files against the executable spec.

One Hypothesis state machine drives ``tests/spec_regfile.py`` and the
production model of one design side by side — the idiom of lizard's
``run_test_state_machine(RegisterFile, RegisterFileFL, ...)``.  Its
rules are the paper's operations: begin, end, switch, read, write,
free (``rfree``) and tick.  After every step the returned values, the
raised error types and the whole ``stats.snapshot()`` agree.

* ``spill_and_reload`` fills ``cid``'s lines, makes the other
  contexts spill them and reads one register back, so every design
  meets a reload miss whose line partners wait in memory.
* ``capture_restore`` builds a new model of the same config, restores
  it from the model's ``capture()`` and drives both in lockstep, their
  captures equal after every step.  The result memo and the fork
  hand-off send end states through exactly that round trip.  A second
  production model, over a compressing backing store with built-in
  codecs, goes through it too (in lockstep only: the spec has no
  codecs).
* At teardown the example's successful operations, as a ``Trace``,
  are served by :func:`repro.trace.oracle.serve_from_tables` on a fresh
  model of every design :func:`~repro.trace.admit.admit` sends to the
  tables; whenever it serves, its stats equal the spec's.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import (
    CODEC_NAMES,
    ConventionalRegisterFile,
    NamedStateRegisterFile,
    SegmentedRegisterFile,
    compress_spills,
)
from repro.errors import RegisterFileError
from repro.trace.admit import admit
from repro.trace.events import (
    OP_BEGIN,
    OP_END,
    OP_FREE,
    OP_READ,
    OP_SWITCH,
    OP_TICK,
    OP_WRITE,
    Trace,
)
from repro.trace.oracle import serve_from_tables
from tests.spec_regfile import SpecNSF, SpecSegmented, spec_conventional

#: context sizes: at 2 a 2-register line is a whole context, so lines
#: fill and spill often; at 4 a context owns two such lines
CONTEXT_SIZES = (2, 4)

#: register budgets: every one holds an NSF of 2-register lines and at
#: least one segmented frame
CAPACITIES = (4, 6, 8)

NSF_CONFIGS = [dict(line_size=line_size, policy=policy,
                    reload_scope=scope, fetch_on_write=fetch)
               for line_size in (1, 2) for policy in ("lru", "fifo")
               for scope in ("register", "line")
               for fetch in (False, True)]
SEG_CONFIGS = [dict(spill_mode=mode, policy=policy)
               for mode in ("frame", "live") for policy in ("lru", "fifo")]

#: (kind, config) of every design
DESIGNS = ([("nsf", config) for config in NSF_CONFIGS]
           + [("seg", config) for config in SEG_CONFIGS]
           + [("conventional", {})])


def build(design, capacity, ctx):
    """``(production model, spec)`` of one design, both new."""
    kind, config = design
    if kind == "nsf":
        return (NamedStateRegisterFile(capacity, ctx, **config),
                SpecNSF(capacity, ctx, **config))
    if kind == "seg":
        return (SegmentedRegisterFile(capacity, ctx, **config),
                SpecSegmented(capacity, ctx, **config))
    return ConventionalRegisterFile(ctx), spec_conventional(ctx)


def design_id(design):
    kind, config = design
    return "-".join([kind] + [str(value) for value in config.values()])


def restored(model):
    """``type(model)(**config)`` restored from ``model.capture()``, its
    spill path rebuilt first."""
    twin = type(model)(**model._config())
    port = getattr(model.backing, "port", None)
    if port is not None:
        compress_spills(twin, codec=port.codec.name,
                        shadow_codecs=[c.name for c in port.shadows])
    twin.restore(model.capture())
    return twin


def held(state):
    """``{(cid, offset): (value, pending bit)}`` of every register a
    model holds, read off its ``capture()``."""
    if "lines" in state:
        size = state["config"]["line_size"]
        units = [(tuple(line["tag"]), line) for line in state["lines"]
                 if line["tag"] is not None]
    else:
        size = state["config"]["context_size"]
        units = [((frame["cid"], 0), frame) for frame in state["frames"]
                 if frame["cid"] is not None]
    return {(cid, n * size + slot): (unit["values"][slot],
                                     unit["pending"][slot])
            for (cid, n), unit in units for slot in range(size)
            if unit["valid"][slot]}


#: each rule's method on a production model (the spec's is the rule)
METHODS = {"begin": "begin_context", "end": "end_context",
           "switch": "switch_to", "read": "read", "write": "write",
           "free": "free_register", "tick": "tick"}

OPCODES = {"begin": OP_BEGIN, "end": OP_END, "switch": OP_SWITCH,
           "read": OP_READ, "write": OP_WRITE, "free": OP_FREE,
           "tick": OP_TICK}


def drive_model(model, op, args):
    """Run one rule on a production model; a read returns its value."""
    result = getattr(model, METHODS[op])(*args)
    return result[0] if op == "read" else None


def drive_spec(spec, op, args):
    return getattr(spec, op)(*args)


def outcome(drive, target, op, args):
    """``(returned value, raised error type)`` of one operation."""
    try:
        return drive(target, op, args), None
    except RegisterFileError as error:
        return None, type(error)


cids = st.integers(0, 2)
bursts = st.integers(1, 8)


class RegisterFileMachine(RuleBasedStateMachine):
    """One design's production model and spec, driven side by side."""

    design = None

    @initialize(capacity=st.sampled_from(CAPACITIES),
                ctx=st.sampled_from(CONTEXT_SIZES),
                codec=st.sampled_from(CODEC_NAMES))
    def build(self, capacity, ctx, codec):
        self.capacity, self.ctx = capacity, ctx
        self.registers = [(offset, cid)
                          for offset in 3 * list(range(ctx)) + [ctx]
                          for cid in (0, 1, 2, None)]
        self.writes = [register + (value,) for register in self.registers
                       for value in range(-2, 3)]
        self.model, self.spec = build(self.design, capacity, ctx)
        self.packed, _ = build(self.design, capacity, ctx)
        compress_spills(self.packed, codec=codec,
                        shadow_codecs=[c for c in CODEC_NAMES
                                       if c != codec])
        self.twins = []  # (model, its restored twin), in lockstep
        self.done = []  # the successful operations, cids resolved
        for cid in (0, 1, 2):  # so that most accesses find a context
            self.begin(cid)
        self.switch(0)

    def _step(self, op, *args, cid=None):
        """Run one operation everywhere.  Every outcome agrees; the
        model and the spec agree on their stats and on every register
        they hold (value and pending bit); every twin's capture equals
        its original's."""
        if op in ("read", "write", "free"):
            args += (cid,)
            resolved = cid if cid is not None else self.spec.current
        expected = outcome(drive_spec, self.spec, op, args)
        models = [self.model, self.packed]
        models += [twin for _, twin in self.twins]
        for model in models:
            assert outcome(drive_model, model, op, args) == expected, op
        assert self.model.stats == self.spec.stats
        state = self.model.capture()
        assert held(state) == self.spec.held()
        for model, twin in self.twins:
            assert twin.capture() == (state if model is self.model
                                      else model.capture())
        if expected[1] is not None:
            return
        if op in ("read", "write", "free"):
            args = args[:-1] + (resolved,)
        self.done.append((op, args))

    def _register(self, data):
        """``(offset, cid)`` of any register: an offset of ``ctx`` is out
        of range, and a cid of ``None`` names the current context."""
        return data.draw(st.sampled_from(self.registers))

    def _held(self, data):
        """``(offset, cid)`` of a register only memory holds (a reload),
        of one the file holds (a hit), or of any register."""
        resident = set(self.spec.held())
        pools = [sorted(pool) for pool in
                 (set(self.spec.memory) - resident, resident) if pool]
        pick = data.draw(st.integers(0, len(pools)))
        if pick == len(pools):
            return self._register(data)
        cid, offset = data.draw(st.sampled_from(pools[pick]))
        return offset, cid

    @rule(cid=cids)
    def begin(self, cid):
        self._step("begin", cid)

    @rule(cid=cids)
    def end(self, cid):
        self._step("end", cid)

    @rule(cid=cids)
    def switch(self, cid):
        self._step("switch", cid)

    # accesses come in bursts, so that lines and frames fill, spill and
    # come back between two context ends

    @rule(data=st.data(), n=bursts)
    def read(self, data, n):
        for _ in range(n):
            offset, cid = self._held(data)
            self._step("read", offset, cid=cid)

    @rule(data=st.data(), n=bursts)
    def write(self, data, n):
        for _ in range(n):
            offset, cid, value = data.draw(st.sampled_from(self.writes))
            self._step("write", offset, value, cid=cid)

    @rule(cid=cids)
    def spill_and_reload(self, cid):
        """Begin any context that has ended, write every register of
        ``cid``, then every register of the other contexts, so that a
        small file spills ``cid``'s lines, then read ``cid``'s first
        register back: a read miss whose line partners wait in memory,
        where reload scopes differ."""
        for other in (0, 1, 2):
            if other not in self.model:
                self._step("begin", other)
        for offset in range(self.ctx):
            self._step("write", offset, offset, cid=cid)
        for other in (0, 1, 2):
            if other != cid:
                for offset in range(self.ctx):
                    self._step("write", offset, other, cid=other)
        self._step("read", 0, cid=cid)

    @rule(data=st.data())
    def free(self, data):
        offset, cid = self._held(data)
        self._step("free", offset, cid=cid)

    @rule(n=st.integers(1, 3))
    def tick(self, n):
        self._step("tick", n)

    @precondition(lambda self: not self.twins)
    @rule()
    def capture_restore(self):
        self.twins = [(model, restored(model))
                      for model in (self.model, self.packed)]

    def trace(self):
        """The successful operations as a packed trace."""
        trace = Trace(context_size=self.ctx)
        for op, args in self.done:
            if op == "tick":
                trace.append(OP_TICK, 0, 0, args[0])
            elif op in ("begin", "end", "switch"):
                trace.append(OPCODES[op], args[0])
            elif op == "write":
                offset, value, cid = args
                trace.append(OP_WRITE, cid, offset, value)
            else:
                offset, cid = args
                trace.append(OPCODES[op], cid, offset)
        return trace

    def teardown(self):
        """Serve the successful operations from the oracle on a fresh
        model of every design the tables admit; wherever it serves,
        its stats are the spec's."""
        if not getattr(self, "done", None):
            return
        trace = self.trace()
        for design in DESIGNS:
            model, spec = build(design, self.capacity, self.ctx)
            if admit(model).family is None:
                continue
            for op, args in self.done:
                drive_spec(spec, op, args)
            if serve_from_tables(trace, model, (self.capacity,)):
                assert model.stats.snapshot() == spec.stats.snapshot(), \
                    design_id(design)


@pytest.mark.parametrize("design", DESIGNS, ids=map(design_id, DESIGNS))
def test_models_follow_the_spec(design):
    machine = type("Machine", (RegisterFileMachine,), {"design": design})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=10, stateful_step_count=30, deadline=None,
        database=None))


@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_read_miss_under_fetch_on_write_reloads_one_register(policy):
    """Fetch-on-write names write misses (§4.2): under register scope a
    read miss reloads the missing register only, not its line."""
    design = ("nsf", dict(line_size=2, policy=policy,
                          reload_scope="register", fetch_on_write=True))
    model, spec = build(design, 2, 2)  # one line: a context each
    for op, args in [("begin", (0,)), ("begin", (1,)),
                     ("write", (0, 5, 0)), ("write", (0, 6, 1)),
                     ("read", (0, 0))]:
        assert (outcome(drive_model, model, op, args)
                == outcome(drive_spec, spec, op, args))
    assert model.stats.snapshot() == spec.stats.snapshot()


#: one seeded model of each exact class
EXACT = {
    "nsf": lambda: NamedStateRegisterFile(6, 2, line_size=2, policy="nmru",
                                          policy_seed=3),
    "seg": lambda: SegmentedRegisterFile(6, 2, spill_mode="live",
                                         policy="random", policy_seed=5),
    "conventional": lambda: ConventionalRegisterFile(2),
}


@pytest.mark.parametrize("kind", sorted(EXACT))
def test_a_twin_built_from_the_config_restores_the_capture(kind):
    """Each exact class's ``_config()`` names exactly its constructor's
    parameters: a twin built from it restores the model's capture."""
    model = EXACT[kind]()
    for cid in (0, 1, 2, 3):
        model.begin_context(cid)
        model.switch_to(cid)
        model.write(1, cid)
    model.read(1, cid=0)
    twin = type(model)(**model._config())
    assert twin._config() == model._config()
    twin.restore(model.capture())
    assert twin.capture() == model.capture()
