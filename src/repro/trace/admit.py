"""One admission rule for every shortcut that serves a cell unreplayed.

Four shortcuts hand a sweep cell what an event replay would leave
without running one: the result memo (the trace cache's result
entries) and the fork hand-off of :mod:`repro.evalx.common`, and the
oracle's tables and closed form
(:mod:`repro.trace.oracle`).  :func:`admit` decides for all four from
allowlists — exact model classes, exact backing stores, one fresh-model
test and every key of the model's declared ``_config()`` — so a class,
store or config key it does not name (a new constructor knob, say)
sends the cell to event replay by default.  A refusal of the tables
names its reason in a short, stable string: ``class <Name>``,
``backing <Name>``, ``driven``, ``used stats``, ``used backing``,
``config <key>=<value>`` or ``config key '<key>'``.
"""

from repro.core.backing import BackingStore
from repro.core.compress import (
    CODECS,
    CompressedSpillPort,
    CompressingBackingStore,
)
from repro.core.nsf import NamedStateRegisterFile
from repro.core.segmented import (
    ConventionalRegisterFile,
    SegmentedRegisterFile,
)
from repro.core.stats import RegFileStats

#: the exact classes whose ``capture()``/``restore()`` round trip
#: everything a replay changes; subclasses and wrappers (faults,
#: protection, tracing) are always replayed
EXACT_MODELS = (NamedStateRegisterFile, SegmentedRegisterFile,
                ConventionalRegisterFile)

#: per table family's class, every ``_config()`` key it serves, with its
#: allowed values or ``None`` for any value: the shape keys its family
#: and units come from, the keys that cannot change stats on an
#: in-regime trace (no cold reads), and the regime keys.  The scans
#: price the designs the paper simulates: one-register NSF lines and
#: segmented frames, both with LRU victims
TABLE_CONFIG = {
    NamedStateRegisterFile: {
        "num_registers": None, "context_size": None, "line_size": (1,),
        "strict": None, "track_moves": None, "policy_seed": None,
        "policy": ("lru",), "reload_scope": ("register",),
        "fetch_on_write": (False,), "spill_watermark": (0,),
    },
    SegmentedRegisterFile: {
        "num_registers": None, "context_size": None,
        "strict": None, "track_moves": None, "policy_seed": None,
        "policy": ("lru",), "spill_mode": ("frame", "live"),
    },
}

#: the capture of a store nothing has spilled to
_NEW_STORE = BackingStore().capture()


class Admission:
    """What :func:`admit` lets serve one model.

    ``memo``: the result memo may key and serve it (an exact class over
    an exact store, in any start state).  ``travels``: a forked child
    may drive it and ship its end state back (also over a compressing
    store whose port, codecs and inner store are built in).  ``fresh``:
    it travels and is exactly what its constructor built; ``config`` is
    then its ``_config()``.  ``family``, ``units``, ``unit``: its table
    family, its capacity in the family's units and the registers per
    unit, ``None`` when the tables refuse it, and ``reason`` says why.
    ``closed_form``: the closed form may serve it where a trace's peak
    fits (a table NSF with one register per line).
    """

    __slots__ = ("memo", "travels", "fresh", "config", "family", "units",
                 "unit", "closed_form", "reason")

    def __init__(self):
        self.memo = self.travels = self.fresh = self.closed_form = False
        self.config = self.family = self.units = self.unit = None
        self.reason = None


def admit(model):
    """The :class:`Admission` of ``model`` for every shortcut."""
    verdict = Admission()
    cls = type(model)
    if cls not in EXACT_MODELS:
        verdict.reason = f"class {cls.__name__}"
        return verdict
    backing = model.backing
    verdict.memo = type(backing) is BackingStore
    if not (verdict.memo or _built_in_compression(backing)):
        verdict.reason = f"backing {type(backing).__name__}"
        return verdict
    verdict.travels = True
    store = backing if verdict.memo else backing.inner
    verdict.reason = _freshness(model, store)
    if verdict.reason is not None:
        return verdict
    verdict.fresh = True
    verdict.config = config = model._config()
    allowed = TABLE_CONFIG.get(cls)
    if not verdict.memo:
        verdict.reason = f"backing {type(backing).__name__}"
    elif allowed is None:
        verdict.reason = f"class {cls.__name__}"
    else:
        verdict.reason = _off_allowlist(config, allowed)
    if verdict.reason is not None:
        return verdict
    if cls is NamedStateRegisterFile:
        verdict.unit = config["line_size"]
        verdict.family = ("nsf", verdict.unit, config["policy"],
                          store.word_bytes)
        verdict.closed_form = verdict.unit == 1
    else:
        verdict.unit = config["context_size"]
        verdict.family = ("seg", config["spill_mode"], config["policy"],
                          store.word_bytes)
    verdict.units = config["num_registers"] // verdict.unit
    return verdict


def _freshness(model, store):
    """``None`` when ``model`` is exactly what its constructor built,
    else why not.  A model that never began a context nor restored a
    snapshot (``RegisterFile._driven``) and whose ``stats`` and store
    are a new file's is that: every other call that changes a model
    also changes one of the two."""
    if model._driven:
        return "driven"
    if model.stats != RegFileStats(capacity=model.num_registers):
        return "used stats"
    if store.capture() != _NEW_STORE:
        return "used backing"
    return None


def _off_allowlist(config, allowed):
    """The first config key ``allowed`` does not name or whose value it
    does not allow, as a reason; ``None`` when there is none."""
    for key, value in config.items():
        if key not in allowed:
            return f"config key {key!r}"
        if allowed[key] is not None and value not in allowed[key]:
            return f"config {key}={value!r}"
    return None


def _built_in_compression(backing):
    """True for a compressing store whose port, codecs and inner store
    are all built in, so that its capture round-trips its state."""
    return (type(backing) is CompressingBackingStore
            and type(backing.inner) is BackingStore
            and type(backing.port) is CompressedSpillPort
            and all(type(codec) in CODECS
                    for codec in (backing.port.codec,)
                    + backing.port.shadows))
