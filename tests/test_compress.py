"""Tests for the compressed spill path: codecs, port, model wiring.

The round-trip property — ``decompress(compress(x)) == x`` for every
codec over arbitrary transfer units — is the subsystem's load-bearing
contract, so it runs under hypothesis.  The wiring tests then pin the
other half of the design: codec choice changes *bytes*, never
architectural behaviour.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CODEC_NAMES,
    BackingStore,
    CompressedSpillPort,
    CompressingBackingStore,
    NamedStateRegisterFile,
    NSF_COSTS,
    RawCodec,
    RetryingBackingStore,
    SegmentedRegisterFile,
    compress_spills,
    make_codec,
)
from repro.core import compress
from repro.core.compress import CodecStats, WORD_BITS, ZeroElisionCodec
from repro.errors import BackingStoreFaultError, CompressionIntegrityError
from repro.workloads import get_workload
from repro.workloads.zipfile_bench import ZipFile, _reference_tokens

# -- round-trip property ------------------------------------------------------

# The register file stores Python objects: in-word ints take the packed
# path, everything else (None = dead slot, big ints, bools, floats,
# tuples) must survive via the dead mask or the escape path.
word_values = st.one_of(
    st.none(),
    st.integers(-(2 ** 40), 2 ** 40),
    st.booleans(),
    st.floats(allow_nan=False),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
)
units = st.lists(word_values, max_size=24)


@pytest.mark.parametrize("name", CODEC_NAMES)
@given(values=units)
@settings(max_examples=60, deadline=None)
def test_roundtrip_arbitrary_units(name, values):
    codec = make_codec(name)
    block = codec.compress(values)
    assert codec.decompress(block) == values
    assert block.count == len(values)
    assert block.raw_bits == len(values) * WORD_BITS
    # The fallback bounds expansion to the mode bit.
    assert block.wire_bits <= block.raw_bits + 1


@pytest.mark.parametrize("name", CODEC_NAMES)
@pytest.mark.parametrize("values", [
    [],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [7, 7, 7, 7],
    [5, -3, 120, 0],                      # mixed narrow widths
    [2 ** 31 - 1, -(2 ** 31), 0, 1],      # word-domain extremes
    [None, None, None],                   # all-dead unit
    [None, 12, None, -4],                 # live/dead interleave
    [1.5, True, (1, 2), 10 ** 20, "x"],   # all escapes
    [4096, 4097, 4099, 4102],             # base+delta friendly
    [0, 1, 1024, -1, 99999],              # dictionary hits and a miss
])
def test_roundtrip_edge_units(name, values):
    codec = make_codec(name)
    assert codec.decompress(codec.compress(values)) == values


def test_compression_wins_on_classic_patterns():
    zeros = [0] * 16
    narrow = [3, -2, 7, 0, 5, 1, -8, 2]
    pointers = [0x1000 + 4 * i for i in range(8)]
    assert make_codec("zero").compress(zeros).wire_bytes < 4 * 16
    assert make_codec("narrow").compress(narrow).wire_bytes < 4 * 8
    assert make_codec("basedelta").compress(pointers).wire_bytes < 4 * 8
    assert make_codec("dict").compress([0, 1, 2, 1024] * 4).wire_bytes \
        < 4 * 16
    # The identity codec is bit-exact raw width, never more.
    raw = make_codec("raw").compress(narrow)
    assert raw.wire_bits == raw.raw_bits


def test_dead_slots_ship_free_except_raw():
    unit = [None] * 15 + [42]
    raw = make_codec("raw").compress(unit)
    assert raw.wire_bytes == 4 * 16
    for name in CODEC_NAMES:
        if name == "raw":
            continue
        block = make_codec(name).compress(unit)
        assert block.wire_bytes < raw.wire_bytes, name


def test_make_codec_rejects_unknown():
    with pytest.raises(ValueError, match="unknown codec"):
        make_codec("lz77")
    codec = RawCodec()
    assert make_codec(codec) is codec


# -- shared corpus (ZipFile token stream) -------------------------------------

def token_corpus(seed=1, scale=0.5):
    """Flattened LZSS token words — a shared compressible test corpus.

    Reuses the ZipFile benchmark's synthetic text and reference LZSS
    tokenizer; the flattened ``(kind, a, b)`` stream has exactly the
    value mix spill-path codecs face in practice: small non-negative
    integers, heavy repeats (phrase matches) and zero runs (the
    distance field of literal tokens) — without being trivially
    constant.  It lives here, not in the workload module, because
    table1's static metrics count that module's source verbatim.
    """
    spec = ZipFile().build(seed, scale)
    words = []
    for token in _reference_tokens(spec["text"]):
        words.extend(token)
    return words


def test_token_corpus_is_representative():
    words = token_corpus(seed=1, scale=0.5)
    assert len(words) > 100
    assert all(isinstance(w, int) for w in words)
    assert 0 in words                  # literal tokens carry a zero field
    assert max(words) < 2 ** 16        # small values: codecs should win


@pytest.mark.parametrize("name", [n for n in CODEC_NAMES if n != "raw"])
def test_codecs_compress_the_corpus(name):
    words = token_corpus(seed=1, scale=0.5)
    codec = make_codec(name)
    raw = wire = 0
    for start in range(0, len(words) - 8, 8):
        block = codec.compress(words[start:start + 8])
        assert codec.decompress(block) == words[start:start + 8]
        raw += block.raw_bytes
        wire += block.wire_bytes
    assert wire < raw, f"{name} failed to shrink the token corpus"


# -- the port -----------------------------------------------------------------

def test_port_measures_shadows_broadside():
    port = CompressedSpillPort(codec="raw",
                               shadow_codecs=["narrow", "zero", "raw"])
    assert port.codec_names == ("raw", "narrow", "zero")  # deduped
    record = port.transmit([1, 2, 3, 0], spill=True)
    port.transmit([0, 0, 0, 0], spill=False)
    assert record.codec == "raw" and record.raw_bytes == 16
    for name in port.codec_names:
        cs = port.stats_for(name)
        assert cs.spill_units == 1 and cs.reload_units == 1
        assert cs.words_spilled == 4 and cs.words_reloaded == 4
        assert cs.raw_spill_bytes == 16 and cs.raw_reload_bytes == 16
    assert port.stats_for("raw").wire_spill_bytes == 16
    assert port.stats_for("narrow").wire_spill_bytes < 16
    assert port.stats_for("zero").wire_reload_bytes < 16
    assert port.stats_for("zero").reload_ratio > 1.0


def test_port_verify_catches_corruption():
    class BrokenCodec(ZeroElisionCodec):
        name = "broken"

        def _decode_words(self, state, count):
            out = super()._decode_words(state, count)
            if out:
                out[0] ^= 1
            return out

    unit = [0, 0, 0, 0, 0, 0, 2, 3]  # compressible, so decode runs
    port = CompressedSpillPort(codec=BrokenCodec())
    with pytest.raises(CompressionIntegrityError) as info:
        port.transmit(unit, spill=True)
    assert info.value.codec == "broken"
    assert info.value.sent == unit
    # With verification off the corruption passes silently (the user
    # asked for speed over checking); bytes still get counted.
    port = CompressedSpillPort(codec=BrokenCodec(), verify=False)
    port.transmit(unit, spill=True)
    assert port.stats_for("broken").spill_units == 1


def _flip_first(words):
    """A decoder's lie: the first in-word integer is off by one bit."""
    words = list(words)
    if words:
        words[0] ^= 1
    return words


def _drop_last(words):
    """A decoder's lie: the last in-word integer never arrives."""
    return list(words)[:-1]


def _add_zero(words):
    """A decoder's lie: an in-word integer the unit never held."""
    return list(words) + [0]


def _liar(name, lie):
    """The built-in codec ``name`` (same name, same encoder) with a
    decoder that tells ``lie``."""

    class Liar(type(make_codec(name))):
        def _decode_words(self, state, count):
            return lie(super()._decode_words(state, count))

    return Liar()


def _has_packed_words(block):
    """True when ``block`` is packed and carries an in-word integer, so
    its codec's decoder runs and has a word to lie about."""
    return (block.mode == "packed"
            and block.count > len(block.state[0]) + len(block.state[1]))


def _is_packed(block):
    """True when ``block`` is packed, so its codec's decoder runs."""
    return block.mode == "packed"


@given(batch=st.lists(units, max_size=10), spill=st.booleans())
@settings(max_examples=60, deadline=None)
def test_transmit_counts_what_each_codec_compresses_alone(batch, spill):
    # the port frames each unit once for all its codecs; every codec
    # must still see the unit its own compress() sees
    port = CompressedSpillPort(codec="raw", shadow_codecs=CODEC_NAMES)
    for unit in batch:
        port.transmit(unit, spill=spill)
    for name in CODEC_NAMES:
        codec = make_codec(name)
        blocks = [codec.compress(unit) for unit in batch]
        units_moved = len(blocks)
        words = sum(block.count for block in blocks)
        raw = sum(block.raw_bytes for block in blocks)
        wire = sum(block.wire_bytes for block in blocks)
        expected = (CodecStats(spill_units=units_moved, words_spilled=words,
                               raw_spill_bytes=raw, wire_spill_bytes=wire)
                    if spill else
                    CodecStats(reload_units=units_moved,
                               words_reloaded=words, raw_reload_bytes=raw,
                               wire_reload_bytes=wire))
        assert port.stats_for(name) == expected, name
        for unit, block in zip(batch, blocks):
            # escapes, dead slots and words keep their types
            assert [type(v) for v in codec.decompress(block)] == \
                [type(v) for v in unit], name
    # a shadow whose decoder lies still fails the unit it garbles, for
    # every built-in codec
    for name in CODEC_NAMES:
        others = [other for other in CODEC_NAMES if other != name]
        broken = CompressedSpillPort(
            codec=others[0],
            shadow_codecs=others[1:] + [_liar(name, _flip_first)])
        for unit in batch:
            if _has_packed_words(make_codec(name).compress(unit)):
                with pytest.raises(CompressionIntegrityError) as info:
                    broken.transmit(unit, spill=spill)
                assert info.value.codec == name
            else:
                broken.transmit(unit, spill=spill)


#: the unit shapes the compression experiment ships: one-word lines,
#: lines with dead slots, 20- and 32-word segmented frames with dead
#: tails, units with escaped values, and units too wide for any codec
#: to pack (every codec ships those raw)
SHIPPED_UNITS = [
    [5], [0], [-3], [1024],
    [7, None], [0, 12, None, None], [None, 3], [9, None, 4, None],
    [i % 5 - 1 for i in range(13)] + [None] * 7,
    [0x1000 + 4 * i for i in range(21)] + [None] * 11,
    [3, -2, 0, 1, 100, 0, 0, 5, 2, 1, -1, 0, 0, 16, 4, 2, 1, 0, 9, 0],
    [1.5, 3, None], [True, 7, 0], [2 ** 40, 1, 2, None],
    [2 ** 31 - 1], [123456789, -987654321, 55555555],
]


@pytest.mark.parametrize("lie,lies_on", [
    (_flip_first, _has_packed_words),
    (_drop_last, _has_packed_words),
    (_add_zero, _is_packed),
], ids=["flip", "drop", "add"])
@pytest.mark.parametrize("name", CODEC_NAMES)
def test_a_lying_decoder_is_caught_on_every_shipped_shape(name, lie,
                                                          lies_on):
    """Every unit a codec packs is decoded by its own decoder and
    compared with the sent unit, whether the codec is the port's
    primary or a shadow; a unit it ships raw never reaches the
    decoder, so the lie goes unseen and the unit passes."""
    others = [other for other in CODEC_NAMES if other != name]
    lied = []
    for unit in SHIPPED_UNITS:
        lies = lies_on(make_codec(name).compress(unit))
        lied.append(lies)
        for port in (
                CompressedSpillPort(codec=_liar(name, lie),
                                    shadow_codecs=others),
                CompressedSpillPort(codec=others[0],
                                    shadow_codecs=others[1:]
                                    + [_liar(name, lie)])):
            if lies:
                with pytest.raises(CompressionIntegrityError) as info:
                    port.transmit(unit, spill=True)
                assert info.value.codec == name
                assert info.value.sent == unit
                assert info.value.received != unit
            else:
                record = port.transmit(unit, spill=False)
                assert record.words == len(unit)
    # the shapes exercise both of the codec's paths (raw has only one)
    assert any(lied) == (name != "raw") and not all(lied)


def test_a_garbled_raw_payload_is_caught(monkeypatch):
    """A unit a codec ships raw, as the identity codec ships every
    unit and every other codec ships a unit it cannot pack, is checked
    by comparing the raw payload that would cross the wire with the
    sent unit."""
    frame_unit = compress.frame_unit

    def garbled(values):
        values, *rest = frame_unit(values)
        return (values[:-1] + ("garbled",), *rest)

    monkeypatch.setattr(compress, "frame_unit", garbled)
    unit = [2 ** 31 - 1]  # too wide for any codec to pack
    for name in CODEC_NAMES:
        port = CompressedSpillPort(codec=name)
        with pytest.raises(CompressionIntegrityError) as info:
            port.transmit(unit, spill=True)
        assert info.value.codec == name
        assert (info.value.sent, info.value.received) == (unit, ["garbled"])
        assert port.stats_for(name).spill_units == 0


def test_a_duplicated_shadow_is_measured_once():
    first = make_codec("narrow")
    port = CompressedSpillPort(codec="raw",
                               shadow_codecs=[first, "narrow", "zero",
                                              "raw", "zero"])
    port.transmit([1, 2, 3, 0], spill=True)
    assert port.codec_names == ("raw", "narrow", "zero")
    assert port.shadows[0] is first  # the first codec of each name
    for name in port.codec_names:
        assert port.stats_for(name).spill_units == 1, name
    state = port.capture()
    assert state["config"]["shadows"] == ["narrow", "zero"]
    assert [name for name, _ in state["stats"]] == ["raw", "narrow", "zero"]
    again = CompressedSpillPort(codec="raw",
                                shadow_codecs=["narrow", "zero"])
    again.restore(state)
    assert again.capture() == state


# -- backing-store wrapper ----------------------------------------------------

def test_compressing_store_roundtrips_and_forwards():
    store = CompressingBackingStore(codec="narrow")
    record = store.spill_unit("ctx", [(0, 5), (1, -3)], dead_words=2)
    assert record.words == 4 and record.raw_bytes == 16
    assert record.wire_bytes < 16
    # Storage stays word-granular underneath.
    assert store.contains("ctx", 0) and store.contains("ctx", 1)
    values, record = store.reload_unit("ctx", [0, 1], dead_words=2)
    assert values == [5, -3]
    assert record.raw_bytes == 16
    assert len(store) == 2  # __len__ forwards to the inner store


def test_retrying_store_routes_units_through_fault_injection():
    flaky = RetryingBackingStore(BackingStore(), max_retries=2,
                                 fault_rate=0.999, seed=7)
    with pytest.raises(BackingStoreFaultError):
        flaky.spill_unit("ctx", [(0, 1)])
    assert flaky.transient_faults > 0
    with pytest.raises(BackingStoreFaultError):
        flaky.reload_unit("ctx", [0])
    # A reliable port passes units through to the inner store intact.
    steady = RetryingBackingStore(BackingStore(), max_retries=1)
    steady.spill_unit("ctx", [(0, 9), (3, 8)], dead_words=1)
    values, record = steady.reload_unit("ctx", [0, 3], dead_words=1)
    assert values == [9, 8] and record.words == 3


# -- model wiring and architectural invariance --------------------------------

def _run_workload(model, codec=None):
    port = None
    if codec is not None:
        port = compress_spills(model, codec=codec)
    get_workload("GateSim").run(model, scale=0.25, seed=5)
    return model.stats.snapshot(), port


BYTE_FIELDS = ("raw_bytes_spilled", "raw_bytes_reloaded",
               "wire_bytes_spilled", "wire_bytes_reloaded")


def _pressured_nsf():
    return NamedStateRegisterFile(num_registers=40, context_size=20,
                                  line_size=2)


def _pressured_seg():
    return SegmentedRegisterFile(num_registers=40, context_size=20,
                                 spill_mode="frame")


@pytest.mark.parametrize("make_model", [_pressured_nsf, _pressured_seg],
                         ids=["nsf", "segmented"])
def test_codec_choice_never_changes_architecture(make_model):
    """The cross-validation contract: compression is invisible above
    the wire.  Hit/miss/spill counts are identical whatever the codec;
    only the four byte counters may move."""
    baseline, _ = _run_workload(make_model())
    raw_run, _ = _run_workload(make_model(), codec="raw")
    # The identity codec reproduces an unwrapped run bit for bit.
    assert raw_run == baseline
    for codec in CODEC_NAMES:
        snap, port = _run_workload(make_model(), codec=codec)
        for field, value in baseline.items():
            if field in BYTE_FIELDS:
                continue
            assert snap[field] == value, (codec, field)
        assert snap["raw_bytes_spilled"] == baseline["raw_bytes_spilled"]
        assert snap["raw_bytes_spilled"] > 0
        cs = port.stats_for(codec)
        assert snap["wire_bytes_spilled"] == cs.wire_spill_bytes
        assert snap["wire_bytes_reloaded"] == cs.wire_reload_bytes
        if codec == "raw":
            assert snap["wire_bytes_spilled"] == snap["raw_bytes_spilled"]


def test_byte_stats_feed_ratio_properties():
    model = _pressured_nsf()
    _, port = _run_workload(model, codec="narrow")
    stats = model.stats
    assert stats.raw_bytes_spilled == 4 * stats.registers_spilled
    assert stats.wire_bytes_spilled < stats.raw_bytes_spilled
    assert stats.spill_compression_ratio > 1.0
    assert 0.0 < stats.wire_traffic_fraction < 1.0
    assert stats.wire_bytes_per_instruction > 0.0
    # Port and model agree on the primary codec's traffic.
    assert port.stats_for("narrow").wire_spill_bytes == \
        stats.wire_bytes_spilled


# -- cost model ---------------------------------------------------------------

def test_wire_cycles_price_the_bandwidth_latency_trade():
    model = _pressured_nsf()
    _run_workload(model, codec="narrow")
    stats = model.stats
    free_engine = NSF_COSTS  # zero-latency codec, 4 B/cycle port
    assert free_engine.wire_cycles(stats, compressed=False) == \
        (stats.raw_bytes_spilled + stats.raw_bytes_reloaded) / 4.0
    assert free_engine.wire_cycles(stats) < \
        free_engine.wire_cycles(stats, compressed=False)
    assert free_engine.wire_cycles_saved(stats) > 0

    priced = NSF_COSTS.with_compression(compress_unit_cycles=2.0,
                                        decompress_unit_cycles=2.0)
    assert priced.wire_cycles(stats) > free_engine.wire_cycles(stats)
    # Uncompressed pricing never pays codec latency.
    assert priced.wire_cycles(stats, compressed=False) == \
        free_engine.wire_cycles(stats, compressed=False)

    wide = NSF_COSTS.with_compression(0.0, 0.0,
                                      spill_port_bytes_per_cycle=8.0)
    assert wide.wire_cycles(stats) == free_engine.wire_cycles(stats) / 2
    # An absurdly slow engine can lose: saved cycles go negative.
    slow = NSF_COSTS.with_compression(compress_unit_cycles=10_000.0,
                                      decompress_unit_cycles=10_000.0)
    assert slow.wire_cycles_saved(stats) < 0
    # Existing pricing is untouched: traffic_cycles never sees bytes.
    assert dataclasses.replace(NSF_COSTS).traffic_cycles(stats) == \
        NSF_COSTS.traffic_cycles(stats)
