"""Finite-alphabet message arithmetic driven by designed lookup tables.

A ``listdec.ListEngine`` given a LUT set walks the tree as it does on LLRs,
with these ops: interior f/g updates become table lookups on w-bit integer
messages, and each leaf translates its messages to LLRs before the usual
metric updates or constituent decoding. Path metrics stay floating-point.
The set is checked against the code and tree when the decoder is built, so a
missing, mis-shaped or stray table is a ``LutMismatchError`` naming its edge or leaf.

The MSIB f update is the index rule ``msib_f_index`` on every edge, at design
time and here, where it is tabulated once per alphabet size: not a stored
table (``tree.stored_tables``), so not among the tables a frame reads.
"""

from functools import lru_cache

import numpy as np

from .codes import PolarCode
from .lutdesign import LutSet, msib_f_index
from .tree import DecoderTree, stored_tables


class LutMismatchError(ValueError):
    """LUT set does not belong to this code/tree."""


def quantize_rx(thresholds, y_real) -> np.ndarray:
    """Map channel outputs to messages: count of thresholds strictly below."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    y_real = np.asarray(y_real, dtype=np.float64)
    if np.isnan(y_real).any():
        raise ValueError("channel outputs contain NaN")
    return np.searchsorted(thresholds, y_real, side="left").astype(np.int16)


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
    """Message arithmetic backed by a LutSet, checked once when built."""

    dtype = np.int16
    levelwise_frozen = False  # tables are per edge, so frozen nodes walk node by node

    def __init__(self, code: PolarCode, tree: DecoderTree, lutset: LutSet):
        _check_match(code, tree, lutset)
        self.lutset = lutset
        self.msib = lutset.variant == "msib"
        self.size = lutset.alphabet_size
        # (decoding, translation) table ids: the walk reads each of them on every frame
        self.tables = frozenset(stored_tables(tree, lutset.variant)), frozenset(range(tree.leaf_count))

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
            out[...] = self.lutset.decoding_tables[node.f_edge_id][a, b]

    def g_update(self, node, a, b, bit, out):
        out[...] = self.lutset.decoding_tables[node.g_edge_id][a, b, bit]

    def leaf_llrs(self, node, msgs):
        return self.lutset.translation_tables[node.leaf_id][msgs]


def _check_match(code: PolarCode, tree: DecoderTree, lutset: LutSet):
    """The set belongs to this code and schedule and stores exactly the tables
    of ``stored_tables``, each of its arity, and translation ids 0..leaves-1."""
    if lutset.block_len != code.block_len or lutset.payload_len != code.payload_len \
            or lutset.crc_len != code.crc_len:
        raise LutMismatchError("LUT set was designed for a different code")
    if lutset.schedule_hash != tree.schedule_hash():
        raise LutMismatchError("LUT set was designed for a different schedule")
    size = lutset.alphabet_size
    shapes = {2: (size, size), 3: (size, size, 2)}
    plan = stored_tables(tree, lutset.variant)
    for edge_id, arity in plan.items():
        if getattr(lutset.decoding_tables.get(edge_id), "shape", None) != shapes[arity]:
            raise LutMismatchError(f"{tree.edge_kinds[edge_id]} edge {edge_id} needs an "
                                   f"arity-{arity} decoding table of {size} levels")
    if len(lutset.decoding_tables) != len(plan):
        stray = min(lutset.decoding_tables.keys() - plan.keys())
        raise LutMismatchError(f"decoding table {stray} is not stored by a "
                               f"{lutset.variant} decoder on this schedule")
    leaves = range(tree.leaf_count)
    if sorted(lutset.translation_tables) != list(leaves):
        leaf = min(set(leaves) ^ set(lutset.translation_tables))
        raise LutMismatchError(f"translation table ids must be 0..{tree.leaf_count - 1}: "
                               f"leaf {leaf} is missing or extra")
