"""Polar code construction, encoding and CRC handling.

Codes are built from a ranked reliability sequence (the 5G NR universal
sequence for block lengths up to 1024 ships with the package). Encoding is
the non-systematic butterfly transform; frozen bits are fixed to zero.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np

NR_SEQUENCE_FILE = "nr_reliability_1024_v1.txt"


class CodeConstructionError(ValueError):
    """Raised when code parameters or inputs are inconsistent."""


@dataclass(frozen=True)
class CrcConfig:
    """CRC register description: MSB-first polynomial without the leading term."""

    width: int
    polynomial: int = 0x1021

    def __post_init__(self):
        if self.width < 0:
            raise CodeConstructionError(f"CRC width must be >= 0, got {self.width}")
        if self.polynomial >> self.width:
            raise CodeConstructionError(f"CRC polynomial {self.polynomial:#x} wider than "
                                        f"its {self.width}-bit register")


# CRC-16/CCITT (XModem flavour: zero init, no output xor).
CRC16 = CrcConfig(width=16, polynomial=0x1021)


def default_crc_config(width: int) -> CrcConfig:
    """CRC-16/CCITT for 16-bit CRCs; an odd truncation of it for other widths."""
    if width <= 0:  # no register; CrcConfig refuses a negative width
        return CrcConfig(width=width, polynomial=0)
    return CrcConfig(width=width, polynomial=(0x1021 % (1 << width)) | 1)


@lru_cache(maxsize=None)
def _crc_generator(cfg: CrcConfig, length: int) -> np.ndarray:
    """(length, width) GF(2) matrix whose row i is the CRC of unit vector e_i,
    MSB-first: with zero init and no output XOR the CRC is linear. Built back
    to front in ``length`` register shifts, as e_(i-1) is e_i shifted once more."""
    top, mask = (1 << cfg.width) >> 1, (1 << cfg.width) - 1  # width 0: no register, no columns
    regs, reg = np.empty(length, dtype=np.int64), top
    for i in range(length - 1, -1, -1):
        reg = ((reg << 1) ^ cfg.polynomial) & mask if reg & top else (reg << 1) & mask
        regs[i] = reg
    gen = (regs[:, None] >> np.arange(cfg.width - 1, -1, -1) & 1).astype(np.uint8)
    gen.flags.writeable = False  # shared by every caller
    return gen


def crc_bits(payload, cfg: CrcConfig) -> np.ndarray:
    """CRC of a bit vector (or of each along the last axis), MSB-first as 0/1
    uint8s: one product with the cached generator of (cfg, payload length)."""
    payload = np.asarray(payload, dtype=np.uint8)
    # uint8 sums wrap mod 256, which keeps their parity
    return payload @ _crc_generator(cfg, payload.shape[-1]) & 1


@dataclass(frozen=True)
class ReliabilitySequence:
    """Bit indices ordered least to most reliable for some maximum length."""

    order: np.ndarray

    def __post_init__(self):
        order = np.asarray(self.order, dtype=np.int64)
        object.__setattr__(self, "order", order)
        if not np.array_equal(np.sort(order), np.arange(order.size)):
            raise CodeConstructionError("reliability order is not a permutation")

    @property
    def n_max(self) -> int:
        return self.order.size

    def for_length(self, block_len: int) -> np.ndarray:
        """Sub-sequence for a shorter block: keep indices < block_len in order."""
        if block_len > self.n_max:
            raise CodeConstructionError(
                f"sequence covers {self.n_max} positions, need {block_len}"
            )
        return self.order[self.order < block_len]


def load_sequence(path) -> ReliabilitySequence:
    """Load a reliability sequence file: one index per line, least reliable first."""
    order = np.loadtxt(path, dtype=np.int64, ndmin=1)
    return ReliabilitySequence(order)


def nr_sequence() -> ReliabilitySequence:
    """The 5G NR universal reliability sequence (max block length 1024)."""
    ref = resources.files("fapolar.data").joinpath(NR_SEQUENCE_FILE)
    with resources.as_file(ref) as path:
        return load_sequence(path)


@dataclass(frozen=True)
class PolarCode:
    """An (N, K) polar code with an optional CRC occupying the top of the info set.
    The frozen mask is the code: block length and info set are read from it."""

    payload_len: int
    crc: CrcConfig
    frozen_mask: np.ndarray
    block_len: int = field(init=False)
    info_set: np.ndarray = field(init=False)  # the unfrozen positions, ascending

    def __post_init__(self):
        frozen = np.asarray(self.frozen_mask, dtype=bool)
        object.__setattr__(self, "frozen_mask", frozen)
        object.__setattr__(self, "block_len", frozen.size)
        object.__setattr__(self, "info_set", np.flatnonzero(~frozen))
        if self.block_len < 2 or self.block_len & (self.block_len - 1):
            raise CodeConstructionError("block length must be a power of two >= 2")
        if self.info_set.size != self.payload_len + self.crc.width:
            raise CodeConstructionError("info set size != payload + CRC bits")

    @property
    def rate(self) -> float:
        return self.payload_len / self.block_len

    @property
    def crc_len(self) -> int:
        return self.crc.width

    @property
    def info_len(self) -> int:
        return self.info_set.size


def construct(
    block_len: int,
    payload_len: int,
    crc_len: int = 0,
    seq: ReliabilitySequence = None,
    crc_cfg: CrcConfig = None,
) -> PolarCode:
    """Build a polar code: the payload_len + crc_len most reliable positions carry data.

    ``crc_cfg`` overrides ``default_crc_config(crc_len)``, which gives a CRC of
    any width (CRC-16/CCITT itself at width 16).
    """
    n_info = payload_len + crc_len
    if not 0 < n_info <= block_len:
        raise CodeConstructionError("need 0 < payload + CRC <= block length")
    if seq is None:
        seq = nr_sequence()
    if crc_cfg is None:
        crc_cfg = default_crc_config(crc_len)
    if crc_cfg.width != crc_len:
        raise CodeConstructionError("crc config width != crc_len")
    ranked = seq.for_length(block_len)
    if ranked.size != block_len:
        raise CodeConstructionError("sequence does not cover the block length")
    frozen = np.ones(block_len, dtype=bool)
    frozen[ranked[block_len - n_info:]] = False
    return PolarCode(payload_len, crc_cfg, frozen)


def polar_transform(u) -> np.ndarray:
    """GF(2) butterfly transform along the last axis in log2 N XOR stages; self-inverse."""
    x = np.array(u, dtype=np.uint8, order="C")
    n_bits = x.shape[-1]
    if n_bits & (n_bits - 1):
        raise CodeConstructionError("transform length must be a power of two")
    rows = x.reshape(-1, n_bits)
    half = 1
    while half < n_bits:
        blocks = rows.reshape(rows.shape[0], n_bits // (2 * half), 2, half)
        blocks[:, :, 0] ^= blocks[:, :, 1]
        half *= 2
    return x


def encode(code: PolarCode, u) -> np.ndarray:
    """Encode a full input vector (frozen positions must be zero)."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape != (code.block_len,):
        raise CodeConstructionError("encoder input length != block length")
    if np.any(u[code.frozen_mask]):
        raise CodeConstructionError("frozen positions must be zero")
    return polar_transform(u)


def assemble_u(code: PolarCode, payload) -> np.ndarray:
    """Place payload + CRC at the information positions, zeros elsewhere."""
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.shape != (code.payload_len,):
        raise CodeConstructionError("payload length mismatch")
    info_bits = np.concatenate([payload, crc_bits(payload, code.crc)])
    u = np.zeros(code.block_len, dtype=np.uint8)
    u[code.info_set] = info_bits
    return u


def extract_info_bits(code: PolarCode, u) -> np.ndarray:
    """Gather the payload + CRC bits of one (or a batch of) input vectors."""
    u = np.asarray(u, dtype=np.uint8)
    return u[..., code.info_set]


def crc_check(code: PolarCode, info_bits) -> bool:
    """True iff the trailing CRC bits match the CRC of the leading payload bits."""
    info_bits = np.asarray(info_bits, dtype=np.uint8)
    if info_bits.shape != (code.info_len,):
        raise CodeConstructionError("info bit length mismatch")
    expect = crc_bits(info_bits[: code.payload_len], code.crc)
    return bool(np.array_equal(info_bits[code.payload_len:], expect))
