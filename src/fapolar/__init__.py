"""Polar coding toolkit: CRC-aided list decoding, fast pruned-tree schedules,
and finite-alphabet decoding with mutual-information-maximizing lookup tables."""

from .codes import (
    CRC16,
    CodeConstructionError,
    CrcConfig,
    PolarCode,
    ReliabilitySequence,
    assemble_u,
    construct,
    crc_bits,
    crc_check,
    encode,
    extract_info_bits,
    load_sequence,
    nr_sequence,
    polar_transform,
)
from .tree import (
    ALL_NODE_KINDS,
    DecoderTree,
    NodeKind,
    build_tree,
    dump_schedule,
    parse_kinds,
    sc_tree,
    table_counts,
)
from .listdec import (
    DecodeResult,
    ListConfig,
    ListEngine,
    ca_select,
    decode_rate0,
    decode_rate1,
    decode_rep,
    decode_spc,
)

__version__ = "0.1.0"
