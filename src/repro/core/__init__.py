"""Register-file models: the Named-State Register File and its baselines.

This package is the paper's primary contribution.  Everything else in
:mod:`repro` exists to drive these models with realistic register
reference streams and to price the events they record.

Public API
----------
* :class:`NamedStateRegisterFile` — fully-associative, small-line file (§4)
* :class:`SegmentedRegisterFile` — frame-per-context baseline (§3.1)
* :class:`ConventionalRegisterFile` — single-context baseline
* :class:`RegFileStats`, :class:`AccessResult` — event accounting
* :class:`CostModel` and the three calibrated pricings of Figure 14
* :class:`BackingStore`, :class:`Ctable` — the spill target (§4.3)
* victim policies: LRU (paper default), FIFO, random
* :class:`ProtectedRegisterFile` — ECC/parity protection plus the
  recovery ladder (correct, reread, demand-reload, machine check,
  line retirement); :class:`RetryingBackingStore` — bounded retry for
  transient backing-store faults
* :mod:`repro.core.compress` — the compressed spill path: register
  value codecs (zero-elision, narrow, base+delta, dictionary),
  :class:`CompressedSpillPort` and :class:`CompressingBackingStore`
  for bytes-level spill-traffic accounting
"""

from repro.core.backing import BackingStore, Ctable
from repro.core.base import MISS, RegisterFile
from repro.core.compress import (
    CODEC_NAMES,
    CODECS,
    BaseDeltaCodec,
    CodecStats,
    CompressedBlock,
    CompressedSpillPort,
    CompressingBackingStore,
    DictionaryCodec,
    NarrowValueCodec,
    RawCodec,
    SpillCodec,
    ZeroElisionCodec,
    compress_spills,
    make_codec,
)
from repro.core.costs import (
    NSF_COSTS,
    SEGMENT_HW_COSTS,
    SEGMENT_SW_COSTS,
    CostModel,
    speedup,
)
from repro.core.nsf import NamedStateRegisterFile
from repro.core.resilience import (
    PROTECTION_LEVELS,
    ProtectedRegisterFile,
    ResilienceStats,
    RetryingBackingStore,
    secded_check,
    secded_encode,
)
from repro.core.policies import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    VictimPolicy,
    make_policy,
)
from repro.core.segmented import ConventionalRegisterFile, SegmentedRegisterFile
from repro.core.snapshot import (
    SNAPSHOT_VERSION,
    canonical_bytes,
    dumps,
    from_canonical_bytes,
    integrity_hash,
    load_snapshot,
    loads,
    save_snapshot,
)
from repro.core.stats import (
    HIT_READ,
    HIT_SWITCH,
    HIT_WRITE,
    AccessResult,
    RegFileStats,
    TransferRecord,
)

__all__ = [
    "AccessResult",
    "HIT_READ",
    "HIT_SWITCH",
    "HIT_WRITE",
    "MISS",
    "BackingStore",
    "BaseDeltaCodec",
    "CODECS",
    "CODEC_NAMES",
    "CodecStats",
    "CompressedBlock",
    "CompressedSpillPort",
    "CompressingBackingStore",
    "ConventionalRegisterFile",
    "CostModel",
    "Ctable",
    "DictionaryCodec",
    "FIFOPolicy",
    "LRUPolicy",
    "NSF_COSTS",
    "NamedStateRegisterFile",
    "NarrowValueCodec",
    "PROTECTION_LEVELS",
    "ProtectedRegisterFile",
    "RandomPolicy",
    "RawCodec",
    "RegFileStats",
    "RegisterFile",
    "ResilienceStats",
    "RetryingBackingStore",
    "SNAPSHOT_VERSION",
    "SEGMENT_HW_COSTS",
    "SEGMENT_SW_COSTS",
    "SegmentedRegisterFile",
    "SpillCodec",
    "TransferRecord",
    "VictimPolicy",
    "ZeroElisionCodec",
    "canonical_bytes",
    "compress_spills",
    "dumps",
    "from_canonical_bytes",
    "integrity_hash",
    "load_snapshot",
    "loads",
    "make_codec",
    "make_policy",
    "save_snapshot",
    "secded_check",
    "secded_encode",
    "speedup",
]
