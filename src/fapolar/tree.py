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


def span_kinds(frozen_mask):
    """The NodeKind of every span of the full decode tree on ``frozen_mask``, a
    list in heap order (the root first, node i's children at 2i+1 and 2i+2),
    from each span's frozen count and end bits in one vectorized pass.
    Tie order R0, R1, Rep (all frozen but the last), SPC (only the first
    frozen): single bits come out as R0/R1, the two-bit (frozen, info) as Rep."""
    frozen = np.asarray(frozen_mask, dtype=bool)
    levels = np.arange(frozen.size.bit_length())
    sizes = frozen.size >> np.repeat(levels, 1 << levels)
    starts = (np.arange(sizes.size) + 1 - frozen.size // sizes) * sizes
    ends = starts + sizes
    before = np.concatenate(([0], np.cumsum(frozen)))
    n_frozen = before[ends] - before[starts]
    rules = [n_frozen == sizes, n_frozen == 0,  # one per SPECIAL_KINDS entry, in tie order
             (n_frozen == sizes - 1) & ~frozen[ends - 1], (n_frozen == 1) & frozen[starts]]
    kinds = np.array([*SPECIAL_KINDS, NodeKind.SC], dtype=object)
    return kinds[np.select(rules, range(len(rules)), len(rules))].tolist()


@dataclass(slots=True)
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
    schedule, edge_kinds = [], []
    kinds = span_kinds(code.frozen_mask)
    root = _grow(0, 0, code.block_len, 0, kinds, enabled, schedule, edge_kinds)
    return DecoderTree(code.block_len, root, tuple(schedule), tuple(edge_kinds))


def _grow(heap, lo, size, depth, kinds, enabled, schedule, edge_kinds) -> TreeNode:
    """``build_tree``'s recursion, at ``span_kinds`` entry ``heap``. Not a closure: one
    that calls itself is a reference cycle, which keeps the tree alive until a collection."""
    kind = kinds[heap]
    if size == 1 or (kind != NodeKind.SC and kind in enabled):
        schedule.append(TreeNode(depth, lo, size, kind, leaf_id=len(schedule)))
        return schedule[-1]
    half, f_edge_id = size // 2, len(edge_kinds)
    edge_kinds.append("f")
    left = _grow(2 * heap + 1, lo, half, depth + 1, kinds, enabled, schedule, edge_kinds)
    g_edge_id = len(edge_kinds)
    edge_kinds.append("g")
    right = _grow(2 * heap + 2, lo + half, half, depth + 1, kinds, enabled, schedule, edge_kinds)
    return TreeNode(depth, lo, size, kind, -1, f_edge_id, g_edge_id, left, right)


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
