"""One admission rule for every shortcut (``repro.trace.admit``).

* **What each shortcut admits.**  The result memo, the fork hand-off,
  the oracle's tables and its closed form each serve exactly the models
  the rule names, and every refusal names its reason.
* **Allowlists, not denylists.**  A ``_config()`` key the rule does not
  know refuses the tables, so a model with a new constructor knob is
  replayed, by the same memoized event replay as any other cell.
* **Freshness is one test.**  A driven model, one whose counters moved
  or whose store holds anything is not fresh, whatever else it looks
  like.
"""

import pytest

from repro.core import (
    CODECS,
    ConventionalRegisterFile,
    NamedStateRegisterFile,
    ProtectedRegisterFile,
    RawCodec,
    RetryingBackingStore,
    SegmentedRegisterFile,
    compress_spills,
)
from repro.core.faults import FaultyRegisterFile
from repro.evalx import common
from repro.trace import columnar, oracle
from repro.trace.admit import admit
from repro.trace.events import OP_BEGIN, OP_READ, OP_TICK, OP_WRITE, Trace
from repro.trace.recorder import TracingRegisterFile
from repro.trace.replay import replay

CTX = 4
BUDGET = 8


def _nsf(**kw):
    return NamedStateRegisterFile(num_registers=BUDGET, context_size=CTX,
                                  **kw)


def _seg(**kw):
    return SegmentedRegisterFile(num_registers=BUDGET, context_size=CTX,
                                 **kw)


def _driven():
    model = _nsf()
    model.begin_context(cid=1)
    return model


def _restored():
    model = _nsf()
    model.restore(_nsf().capture())
    return model


def _ticked():
    model = _nsf()
    model.tick(3)
    return model


def _ctable_entry():
    model = _nsf()
    model.backing.ctable.set(7, 0x2000)
    return model


def _compressed(codec="narrow"):
    model = _nsf()
    compress_spills(model, codec=codec)
    return model


def _nsf_over(backing):
    model = _nsf()
    model.backing = backing
    return model


class _Subclassed(NamedStateRegisterFile):
    pass


class _HomeMadeCodec(RawCodec):
    name = "home-made"


#: model -> (memo, travels, fresh, table family, closed form, reason)
VERDICTS = {
    "nsf": (_nsf, True, True, True, ("nsf", 1, "lru", 4), True, None),
    "nsf-fifo": (lambda: _nsf(policy="fifo"), True, True, True, None,
                 False, "config policy='fifo'"),
    "nsf-line2": (lambda: _nsf(line_size=2), True, True, True, None, False,
                  "config line_size=2"),
    "nsf-fifo-line2": (lambda: _nsf(policy="fifo", line_size=2), True,
                       True, True, None, False, "config line_size=2"),
    "nsf-seeded-strict-off-moves": (
        lambda: _nsf(policy_seed=5, strict=False, track_moves=True), True,
        True, True, ("nsf", 1, "lru", 4), True, None),
    "nsf-nmru": (lambda: _nsf(policy="nmru"), True, True, True, None,
                 False, "config policy='nmru'"),
    "nsf-random": (lambda: _nsf(policy="random"), True, True, True, None,
                   False, "config policy='random'"),
    "nsf-line-scope": (lambda: _nsf(line_size=2, reload_scope="line"),
                       True, True, True, None, False,
                       "config line_size=2"),
    "nsf-fetch-on-write": (lambda: _nsf(fetch_on_write=True), True, True,
                           True, None, False, "config fetch_on_write=True"),
    "nsf-watermark": (lambda: _nsf(spill_watermark=2), True, True, True,
                      None, False, "config spill_watermark=2"),
    "seg-frame": (_seg, True, True, True, ("seg", "frame", "lru", 4),
                  False, None),
    "seg-live-fifo": (lambda: _seg(spill_mode="live", policy="fifo"), True,
                      True, True, None, False, "config policy='fifo'"),
    "seg-nmru": (lambda: _seg(policy="nmru"), True, True, True, None,
                 False, "config policy='nmru'"),
    "conventional": (lambda: ConventionalRegisterFile(CTX), True, True,
                     True, None, False, "class ConventionalRegisterFile"),
    "driven": (_driven, True, True, False, None, False, "driven"),
    "restored": (_restored, True, True, False, None, False, "driven"),
    "ticked": (_ticked, True, True, False, None, False, "used stats"),
    "ctable-entry": (_ctable_entry, True, True, False, None, False,
                     "used backing"),
    "compressed": (_compressed, False, True, True, None, False,
                   "backing CompressingBackingStore"),
    "compressed-home-made-codec": (
        lambda: _compressed(_HomeMadeCodec()), False, False, False, None,
        False, "backing CompressingBackingStore"),
    "retrying-backing": (
        lambda: _nsf_over(RetryingBackingStore(_nsf().backing)), False,
        False, False, None, False, "backing RetryingBackingStore"),
    "subclass": (lambda: _Subclassed(BUDGET, CTX), False, False, False,
                 None, False, "class _Subclassed"),
    "faulty": (lambda: FaultyRegisterFile(_nsf(), "corrupt_reload",
                                          trigger_at=10 ** 9),
               False, False, False, None, False,
               "class FaultyRegisterFile"),
    "protected": (lambda: ProtectedRegisterFile(_nsf()), False, False,
                  False, None, False, "class ProtectedRegisterFile"),
    "tracing": (lambda: TracingRegisterFile(_nsf()), False, False, False,
                None, False, "class TracingRegisterFile"),
}


@pytest.mark.parametrize("kind", sorted(VERDICTS))
def test_each_shortcut_admits_what_the_rule_names(kind):
    build, memo, travels, fresh, family, closed, reason = VERDICTS[kind]
    verdict = admit(build())
    assert (verdict.memo, verdict.travels, verdict.fresh, verdict.family,
            verdict.closed_form, verdict.reason) == (
                memo, travels, fresh, family, closed, reason)
    if family is not None:
        unit = CTX if family[0] == "seg" else 1
        assert (verdict.unit, verdict.units) == (unit, BUDGET // unit)


def test_built_in_codecs_all_travel():
    for codec in CODECS:
        model = _nsf()
        compress_spills(model, codec=codec.name,
                        shadow_codecs=[c.name for c in CODECS])
        assert admit(model).travels


def _churn():
    """Four contexts writing and reading every register: an 8-register
    file evicts."""
    trace = Trace(context_size=CTX)
    for cid in range(4):
        trace.append(OP_BEGIN, cid)
        for offset in range(CTX):
            trace.append(OP_WRITE, cid, offset, cid * CTX + offset)
            trace.append(OP_TICK, 0, 0, 1)
    for cid in range(4):
        for offset in range(CTX):
            trace.append(OP_READ, cid, offset, cid * CTX + offset)
    return trace


@pytest.mark.parametrize("build", [_nsf, _seg], ids=["nsf", "seg"])
def test_an_unknown_config_key_is_replayed(build, monkeypatch):
    """A model with a constructor knob the rule does not name (planted
    here by patching its ``_config()``) falls back to the memoized event
    replay, with event replay's numbers."""
    trace = _churn()
    model = build()
    config = model._config()
    monkeypatch.setattr(model, "_config",
                        lambda: dict(config, victim_bias=3))
    verdict = admit(model)
    assert verdict.reason == "config key 'victim_bias'"
    assert verdict.family is None and verdict.memo and verdict.fresh
    assert not oracle.serve_from_tables(trace, model, (BUDGET,))

    replays = []
    fallback = common.replay_oracle
    monkeypatch.setattr(common, "replay_oracle",
                        lambda *args: replays.append(1) or fallback(*args))
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    with common.capacity_plan((BUDGET,)):
        common._replay(trace, model)
    assert replays == [1]
    twin = replay(trace, build(), verify=False)
    assert twin.stats.registers_spilled > 0
    assert model.stats.snapshot() == twin.stats.snapshot()
    # without the planted key the same cell is a table hit
    assert oracle.serve_from_tables(trace, build(), (BUDGET,))


@pytest.mark.parametrize("ctx", [2, 8])
@pytest.mark.parametrize("build", [NamedStateRegisterFile,
                                   SegmentedRegisterFile],
                         ids=["nsf", "seg"])
def test_a_trace_of_another_context_size_is_replayed(build, ctx):
    """The tables price the trace's contexts: a model of another context
    size is left to event replay, which prices a wider frame right and
    refuses a narrower context."""
    trace = _churn()
    model = build(4 * ctx, ctx)
    assert admit(model).family is not None
    assert not oracle.serve_from_tables(trace, model, (4 * ctx,))
    assert model.stats.snapshot() == build(4 * ctx, ctx).stats.snapshot()


#: the designs the tables refuse by their config, whatever the trace:
#: FIFO victims and lines of more than one register
REFUSED = ("nsf-fifo", "nsf-line2", "nsf-fifo-line2", "nsf-line-scope",
           "seg-live-fifo")


@pytest.mark.parametrize("kind", REFUSED)
def test_a_refused_design_is_replayed_once_and_never_scanned(kind,
                                                             monkeypatch):
    """Under the oracle engine, inside a plan, a design the tables refuse
    makes no scan and takes the memoized event replay once, with event
    replay's numbers."""
    trace = _churn()
    build = VERDICTS[kind][0]
    replays, scans = [], []
    fallback = common.replay_oracle
    monkeypatch.setattr(common, "replay_oracle",
                        lambda *args: replays.append(1) or fallback(*args))
    scan = oracle._family_tables
    monkeypatch.setattr(oracle, "_family_tables",
                        lambda *args: scans.append(1) or scan(*args))
    monkeypatch.setenv(columnar.ENV_ENGINE, "oracle")
    model = build()
    with common.capacity_plan((BUDGET // 2, BUDGET)):
        common._replay(trace, model)
    assert (replays, scans) == ([1], [])
    twin = replay(trace, build(), verify=False)
    assert twin.stats.registers_spilled > 0
    assert model.stats.snapshot() == twin.stats.snapshot()
