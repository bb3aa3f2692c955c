"""Finite-alphabet list decoding driven by designed lookup tables.

Control flow is identical to the floating-point decoders: interior f/g
updates become table lookups on w-bit integer messages, and each leaf
translates its messages to LLRs before the usual metric updates or constituent
decoding. Path metrics stay floating-point.

The MSIB f update is the index rule ``msib_f_index`` on every edge, tabulated
once per alphabet size at run time: not a designed table, so neither stored,
nor recorded in ``touched_decoding``, nor counted by ``table_counts``.
"""

from functools import lru_cache

import numpy as np

from .codes import PolarCode
from .listdec import DecodeResult, ListConfig, ListEngine
from .lutdesign import LutSet, msib_f_index
from .tree import DecoderTree


class LutMismatchError(ValueError):
    """LUT set does not belong to this code/tree."""


def quantize_rx(thresholds, y_real) -> np.ndarray:
    """Map channel outputs to messages: count of thresholds strictly below."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    return np.searchsorted(thresholds, np.asarray(y_real, dtype=np.float64),
                           side="left").astype(np.int16)


@lru_cache(maxsize=None)
def _msib_f_rule(alphabet_size: int) -> np.ndarray:
    """Read-only (size, size) tabulation of ``msib_f_index``. Built at the
    first f update, so it exists only beside the set's (size, size, 2) g
    tables, each twice its size."""
    idx = np.arange(alphabet_size, dtype=np.int16)
    rule = msib_f_index(idx[:, None], idx[None, :], alphabet_size)  # int16, as its inputs
    rule.flags.writeable = False
    return rule


class _LutOps:
    """Message arithmetic backed by a LutSet; records the table ids it uses."""

    dtype = np.int16

    def __init__(self, lutset: LutSet):
        self.lutset = lutset
        self.msib = lutset.variant == "msib"
        self.size = lutset.alphabet_size
        self.touched_decoding = set()
        self.touched_translation = set()

    def _table(self, edge_id):
        try:
            return self.lutset.decoding_tables[edge_id]
        except KeyError:
            raise LutMismatchError(f"missing decoding table for edge {edge_id}") from None

    def root_messages(self, y):
        msgs = np.asarray(y)
        if msgs.dtype.kind not in "iu":
            raise LutMismatchError("LUT decoders take quantized channel symbols")
        if msgs.size and (msgs.min() < 0 or msgs.max() >= self.size):
            raise LutMismatchError("channel symbol out of alphabet range")
        return msgs.astype(np.int16)

    def f_update(self, node, a, b, out):
        if self.msib:
            out[...] = _msib_f_rule(self.size)[a, b]
        else:
            self.touched_decoding.add(node.f_edge_id)
            out[...] = self._table(node.f_edge_id)[a, b]

    def g_update(self, node, a, b, bit, out):
        self.touched_decoding.add(node.g_edge_id)
        out[...] = self._table(node.g_edge_id)[a, b, bit]

    def leaf_llrs(self, node, msgs):
        try:
            table = self.lutset.translation_tables[node.leaf_id]
        except KeyError:
            raise LutMismatchError(f"missing translation table for leaf {node.leaf_id}") from None
        self.touched_translation.add(node.leaf_id)
        return table[msgs]

    def note_result(self, result: DecodeResult):
        result.touched_decoding = self.touched_decoding
        result.touched_translation = self.touched_translation


def _check_match(code: PolarCode, tree: DecoderTree, lutset: LutSet):
    if lutset.block_len != code.block_len or lutset.payload_len != code.payload_len \
            or lutset.crc_len != code.crc_len:
        raise LutMismatchError("LUT set was designed for a different code")
    if lutset.schedule_hash != tree.schedule_hash():
        raise LutMismatchError("LUT set was designed for a different schedule")


def lut_scl_decode(code: PolarCode, tree: DecoderTree, y_msgs, lutset: LutSet,
                   cfg: ListConfig) -> DecodeResult:
    """LUT-based SCL on the unpruned schedule."""
    if tree.enabled_kinds:
        raise ValueError("lut_scl_decode expects a tree without special nodes")
    return lut_fscl_decode(code, tree, y_msgs, lutset, cfg)


def lut_fscl_decode(code: PolarCode, tree: DecoderTree, y_msgs, lutset: LutSet,
                    cfg: ListConfig) -> DecodeResult:
    """LUT-based list decoding on any schedule; special leaves translate their
    messages to LLRs and run the constituent decoders with approximate metrics."""
    _check_match(code, tree, lutset)
    return ListEngine(code, tree, cfg, _LutOps(lutset)).decode(y_msgs)
