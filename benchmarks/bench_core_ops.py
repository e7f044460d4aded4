"""Microbenchmarks of raw register-file model operations and of the
compressed spill port.

These time the *simulator itself* (operations per second of the Python
models, units per second through a port that checks five codecs), not
the modeled hardware — useful for tracking regressions in the hot paths
every experiment depends on.  None has a floor or a baseline.
"""

import random

import pytest

from repro.core import (
    CODEC_NAMES,
    CompressedSpillPort,
    NamedStateRegisterFile,
    SegmentedRegisterFile,
)


def _hit_loop(model, cid, n=2000):
    for i in range(n):
        model.write(i % 8, i, cid=cid)
        model.read(i % 8, cid=cid)


@pytest.mark.parametrize("model_cls,kwargs", [
    (NamedStateRegisterFile, {"line_size": 1}),
    (NamedStateRegisterFile, {"line_size": 4}),
    (SegmentedRegisterFile, {}),
], ids=["nsf-line1", "nsf-line4", "segmented"])
def test_hit_path_throughput(benchmark, model_cls, kwargs):
    model = model_cls(num_registers=128, context_size=32, **kwargs)
    cid = model.begin_context()
    model.switch_to(cid)
    model.write(0, 0)
    benchmark(_hit_loop, model, cid)
    assert model.stats.read_misses == 0


def test_miss_path_throughput(benchmark):
    # Two contexts fighting over a tiny file: every access migrates a
    # register.
    model = NamedStateRegisterFile(num_registers=4, context_size=8)
    a = model.begin_context()
    b = model.begin_context()
    for i in range(8):
        model.write(i % 8, i, cid=a)
        model.write(i % 8, i, cid=b)

    def thrash():
        for i in range(500):
            model.read(i % 8, cid=a)
            model.read(i % 8, cid=b)

    benchmark(thrash)
    assert model.stats.registers_reloaded > 0


def test_context_switch_throughput(benchmark):
    model = SegmentedRegisterFile(num_registers=64, context_size=16)
    cids = [model.begin_context() for _ in range(8)]
    for cid in cids:
        model.switch_to(cid)
        for i in range(8):
            model.write(i, i)

    def spin():
        for i in range(400):
            model.switch_to(cids[i % len(cids)])

    benchmark(spin)
    assert model.stats.switch_misses > 0


def _spill_mix(units=2000, seed=11):
    """A seeded mix of ``(unit, spill)`` transfers shaped like the ones
    the compression experiment ships at its golden point: 61% one-word
    units, 11% two-word units, 11% of 3-7 words and 17% frames of 15,
    20 or 32 words, the 20- and 32-word frames with dead tails, so that
    about a third of all slots are dead; live values are narrow ints,
    and about 62% of the transfers are spills."""
    rng = random.Random(seed)
    mix = []
    for _ in range(units):
        roll = rng.random()
        if roll < 0.61:
            size = 1
        elif roll < 0.72:
            size = 2
        elif roll < 0.83:
            size = rng.randint(3, 7)
        else:
            size = rng.choice((15, 20, 32))
        dead = round(size * 0.6) if size >= 20 else 0
        live = [rng.getrandbits(rng.choice((0, 1, 2, 3, 4, 5, 6, 8, 16)))
                for _ in range(size - dead)]
        mix.append((live + [None] * dead, rng.random() < 0.62))
    return mix


def test_spill_port_throughput(benchmark):
    """Every codec encodes, decodes and checks every unit of the mix."""
    mix = _spill_mix()
    slots = sum(len(unit) for unit, _ in mix)
    dead = sum(value is None for unit, _ in mix for value in unit)
    assert 0.30 < dead / slots < 0.37

    def transmit_all():
        port = CompressedSpillPort(codec="raw", shadow_codecs=CODEC_NAMES,
                                   verify=True)
        for unit, spill in mix:
            port.transmit(unit, spill=spill)
        return port

    port = benchmark(transmit_all)
    assert port.codec_names == CODEC_NAMES
    for name in CODEC_NAMES:
        stats = port.stats_for(name)
        assert stats.spill_units + stats.reload_units == len(mix), name
