"""Pruned decoder trees for fast list decoding.

The full decode of a length-N code is a binary tree with N single-bit leaves.
Subtrees whose frozen pattern matches a special node type (rate-0, rate-1,
repetition, single parity check) are condensed into one leaf, which shortens
the schedule and shrinks the number of lookup tables a quantized decoder
needs: one decoding table per surviving edge, one translation table per leaf.
The schedule is the tuple of leaf ``TreeNode``s in activation order.
"""

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate

import numpy as np

from .codes import PolarCode


class NodeKind(str, Enum):
    SC = "SC"
    R0 = "R0"
    R1 = "R1"
    REP = "Rep"
    SPC = "SPC"


SPECIAL_KINDS = (NodeKind.R0, NodeKind.R1, NodeKind.REP, NodeKind.SPC)
ALL_NODE_KINDS = frozenset(SPECIAL_KINDS)


def classify_span(frozen_span) -> NodeKind:
    """Match a frozen pattern against the special node types (``_span_kind``)."""
    frozen_span = np.asarray(frozen_span, dtype=bool)
    if frozen_span.size < 1:
        raise ValueError("empty span")
    return _span_kind(frozen_span.size, int(frozen_span.sum()), frozen_span[0], frozen_span[-1])


def _span_kind(size: int, n_frozen: int, first_frozen, last_frozen) -> NodeKind:
    """The rule on a span's frozen count and end bits, tie order R0, R1, Rep
    (all frozen but the last), SPC (only the first frozen): single-bit spans
    come out as R0/R1, the two-bit pattern (frozen, info) as Rep."""
    if n_frozen in (0, size):
        return NodeKind.R0 if n_frozen else NodeKind.R1
    if n_frozen == size - 1 and not last_frozen:
        return NodeKind.REP
    return NodeKind.SPC if n_frozen == 1 and first_frozen else NodeKind.SC


@dataclass
class TreeNode:
    """One node of the pruned tree: leaves carry a leaf id (their place in
    activation order), interior nodes their f/g edge ids and two children.
    ``kind`` is the span's pattern, also on interior nodes (R0: all frozen)."""

    depth: int
    span_start: int
    size: int
    kind: NodeKind
    leaf_id: int = -1
    f_edge_id: int = -1
    g_edge_id: int = -1
    left: "TreeNode" = None
    right: "TreeNode" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class DecoderTree:
    """Pruned decode schedule plus the edge/leaf numbering used for table files."""

    block_len: int
    root: TreeNode
    schedule: tuple            # the leaf TreeNodes, in activation order
    edge_kinds: tuple          # edge id -> "f" | "g", in activation order
    leaf_count: int = field(init=False)
    _schedule_hash: str = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "leaf_count", len(self.schedule))

    def schedule_hash(self) -> str:
        """Identity of the schedule; hashed on the first call (a LUT decoder checks
        it when built), so trees never used with a LUT set skip the cost."""
        if self._schedule_hash is None:
            text = str(self.block_len) + "".join(
                f"{s.depth},{s.size},{s.span_start},{s.kind.value};" for s in self.schedule)
            object.__setattr__(self, "_schedule_hash", hashlib.sha256(text.encode()).hexdigest()[:16])
        return self._schedule_hash


def build_tree(code: PolarCode, enabled_kinds=ALL_NODE_KINDS) -> DecoderTree:
    """Prune the decode tree top-down: the largest span matching an enabled
    special pattern becomes a leaf, everything else recurses. Single-bit spans
    always terminate (as R0/R1). Edge and leaf ids follow activation order."""
    enabled = frozenset(NodeKind(k) for k in enabled_kinds)
    frozen = code.frozen_mask.tolist()
    before = [0, *accumulate(frozen)]  # before[i]: frozen bits in positions 0..i-1
    schedule = []
    edge_kinds = []

    def rec(lo: int, size: int, depth: int) -> TreeNode:
        end = lo + size
        kind = _span_kind(size, before[end] - before[lo], frozen[lo], frozen[end - 1])
        if size == 1 or (kind != NodeKind.SC and kind in enabled):
            schedule.append(TreeNode(depth, lo, size, kind, leaf_id=len(schedule)))
            return schedule[-1]
        node = TreeNode(depth, lo, size, kind)
        node.f_edge_id = len(edge_kinds)
        edge_kinds.append("f")
        node.left = rec(lo, size // 2, depth + 1)
        node.g_edge_id = len(edge_kinds)
        edge_kinds.append("g")
        node.right = rec(lo + size // 2, size // 2, depth + 1)
        return node

    root = rec(0, code.block_len, 0)
    return DecoderTree(code.block_len, root, tuple(schedule), tuple(edge_kinds))


def sc_tree(code: PolarCode) -> DecoderTree:
    """The unpruned schedule: N single-bit leaves, 2N-2 edges."""
    return build_tree(code, enabled_kinds=frozenset())


LUT_VARIANTS = ("ib", "msib")  # the quantized decoders; ``stored_tables`` is what each stores


def stored_tables(tree: DecoderTree, variant: str) -> dict:
    """Edge id -> arity of every decoding table a quantized decoder stores: IB
    one per edge (arity 2 on f edges, 3 with the fed-back bit on g edges), MSIB
    the g tables only, as its f updates are the index rule on every edge."""
    if variant not in LUT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return {edge_id: 3 if kind == "g" else 2 for edge_id, kind in enumerate(tree.edge_kinds)
            if kind == "g" or variant == "ib"}


def decoding_count(stored, variant: str) -> int:
    """The ``stored`` tables plus the channel quantizer, counted in place of MSIB's f tables."""
    return len(stored) + (variant == "msib")


def table_counts(tree: DecoderTree, variant: str) -> tuple:
    """(decoding_tables, translation_tables) needed by a quantized decoder on ``tree``."""
    return decoding_count(stored_tables(tree, variant), variant), tree.leaf_count


def dump_schedule(tree: DecoderTree):
    """Rows (1-based index, depth, kind, size, span_start) in activation order."""
    return [(s.leaf_id + 1, s.depth, s.kind.value, s.size, s.span_start) for s in tree.schedule]


def parse_kinds(text: str) -> frozenset:
    """The special node kinds a schedule prunes: "fast" all four, "sc" (or an
    empty list) none, else a node-kind list like "r0,rep"."""
    text = text.strip().lower()
    if text == "fast":
        return ALL_NODE_KINDS
    if text in ("", "sc"):
        return frozenset()
    alias = {kind.value.lower(): kind for kind in SPECIAL_KINDS}
    kinds = set()
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in alias:
            raise ValueError(f"unknown node kind {tok!r}")
        kinds.add(alias[tok])
    return frozenset(kinds)


def schedule_text(kinds) -> str:
    """The one spelling of a schedule, the inverse of ``parse_kinds``: "sc",
    "fast", or the pruned kinds in R0, R1, Rep, SPC order, like "r0,rep"."""
    if not kinds:
        return "sc"
    if kinds == ALL_NODE_KINDS:
        return "fast"
    return ",".join(kind.value.lower() for kind in SPECIAL_KINDS if kind in kinds)
