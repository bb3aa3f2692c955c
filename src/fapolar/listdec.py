"""SC / SCL / fast-SCL decoding: one entry point, ``decode``.

The list engine walks a decoder tree, unpruned (SCL) or pruned (fast SCL).
Interior nodes apply the f/g updates; leaves either fork paths bit-by-bit
(single-bit leaves) or run a one-shot constituent decoder (rate-0, rate-1,
repetition, single parity check). Given a LUT set, the walk swaps the LLR
arithmetic for table lookups (``lutdec``) and translates messages at leaves.

All constituent decoders use the hardware-friendly approximate path metric.
Candidate order is deterministic: parent path first, fork flag 0 before 1,
and ties in the pruning sort keep that order. The rate-1 and SPC decoders
split on their least reliable bits (Hashemi, Condo & Gross, IEEE TSP 2017),
stop once a split leaves the list in place, and flip the survivors' bits once.

Every fork copies the path state, so it holds only what the rest of the walk
reads (Tal & Vardy's per-depth layout, LLR form). Messages into the current
node of size s sit in ``msgs[:, s:2s]`` of a (paths, N) array; the root reads
the channel row, shared by all paths. That node's two child outputs sit in
``bits[:, s:2s]`` of a (paths, 2N) array; the codeword estimate ends in
``bits[:, N:2N]``, and the input estimate is one transform of the final list.
"""

from dataclasses import dataclass, field

import numpy as np

from .arith import f_exact, f_minsum, g_func, combine_bits, hard_decision, metric_increment
from .codes import PolarCode, polar_transform, extract_info_bits, crc_check
from .lutdec import _LutOps
from .lutdesign import LutSet
from .tree import DecoderTree, NodeKind


@dataclass(frozen=True)
class ListConfig:
    list_size: int = 8
    metric_mode: str = "approx"

    def __post_init__(self):
        if self.list_size < 1:
            raise ValueError("list size must be >= 1")
        if self.metric_mode not in ("approx", "exact"):
            raise ValueError(f"unknown metric mode {self.metric_mode!r}")


@dataclass
class DecodeResult:
    """Final list, best metric first. Rows of u_hats/x_hats are one candidate."""

    u_hats: np.ndarray
    x_hats: np.ndarray
    metrics: np.ndarray
    touched_decoding: set = field(default_factory=set)
    touched_translation: set = field(default_factory=set)

    def __len__(self):
        return self.metrics.size


def _fork_prune(metrics_keep, metrics_fork, list_size):
    """Interleave (parent-major, keep before fork) and keep the ``list_size``
    smallest; ties keep candidate order.

    Returns (parent_idx, fork_flag, metrics) for the survivors.
    """
    cands = np.empty(2 * len(metrics_keep))
    cands[0::2] = metrics_keep
    cands[1::2] = metrics_fork
    sel = cands.argsort(kind="stable")[:list_size]
    parent, fork = np.divmod(sel, 2)
    return parent, fork.astype(np.uint8), cands[sel]


def decode_rate0(metrics, alpha):
    """All-frozen span: no forking, charge the hard-decision mismatch penalty."""
    alpha = np.atleast_2d(alpha)
    penalty = np.sum(np.where(alpha < 0, np.abs(alpha), 0.0), axis=1)
    parent = np.arange(alpha.shape[0])
    beta = np.zeros(alpha.shape, dtype=np.uint8)
    return parent, metrics + penalty, beta


def decode_rep(metrics, alpha, list_size):
    """Repetition span: each path forks to the all-zero and all-one word."""
    alpha = np.atleast_2d(alpha)
    mag = np.abs(alpha)
    pen0 = np.sum(np.where(alpha < 0, mag, 0.0), axis=1)
    pen1 = np.sum(np.where(alpha < 0, 0.0, mag), axis=1)
    parent, fork, mu = _fork_prune(metrics + pen0, metrics + pen1, list_size)
    beta = np.repeat(fork[:, None], alpha.shape[1], axis=1).astype(np.uint8)
    return parent, mu, beta


def _flip_splits(hard, order, origin, splits, first):
    """Survivor words: the origin path's hard decision, with the bit of split k
    (sorted position ``first + k``) flipped where the survivor's lineage forked."""
    flips = np.empty((origin.size, len(splits)), dtype=np.uint8)
    idx = np.arange(origin.size)
    for k, (parent, fork) in reversed(list(enumerate(splits))):  # walk lineages back once
        flips[:, k] = fork[idx]
        idx = parent[idx]
    beta = hard[origin]
    beta[np.arange(origin.size)[:, None], order[origin, first:first + len(splits)]] ^= flips
    return beta


def decode_rate1(metrics, alpha, list_size):
    """All-information span: split on the min(L-1, size) least reliable bits,
    up to a split that forks no path and keeps the list in place. That stop is
    exact, ties included: per path the magnitudes ascend, so no later fork is
    cheaper, and a list kept in place is sorted, so no later tied fork gets in."""
    alpha = np.atleast_2d(alpha)
    mag = np.abs(alpha)
    order = np.argsort(mag, axis=1, kind="stable")
    mag.sort(axis=1)
    mu = np.asarray(metrics, dtype=np.float64).copy()
    origin = np.arange(alpha.shape[0])
    splits = []
    for step in range(min(list_size - 1, alpha.shape[1])):
        parent, fork, new_mu = _fork_prune(mu, mu + mag[origin, step], list_size)
        if not fork.any() and np.array_equal(parent, np.arange(mu.size)):
            break
        splits.append((parent, fork))
        origin, mu = origin[parent], new_mu
    return origin, mu, _flip_splits(hard_decision(alpha), order, origin, splits, 0)


def decode_spc(metrics, alpha, list_size):
    """Single-parity-check span.

    Start from the hard decision, pre-charge the parity fix at the least
    reliable position, then split on the next min(L, size) - 1 least reliable
    positions. Each split toggles whether the least reliable bit needs
    flipping, so the running parity state of a path decides the sign of the
    |alpha_min| term in its fork increment. The least reliable bit is set
    last to restore even parity. Splitting stops as in ``decode_rate1``,
    exactly too: a path's parity term is fixed while it does not fork.
    """
    alpha = np.atleast_2d(alpha)
    mag = np.abs(alpha)
    order = np.argsort(mag, axis=1, kind="stable")
    mag.sort(axis=1)
    hard = hard_decision(alpha)
    min_mag = mag[:, 0]
    parity = np.bitwise_xor.reduce(hard, axis=1)
    mu = np.asarray(metrics, dtype=np.float64) + parity * min_mag
    origin = np.arange(alpha.shape[0])
    splits = []
    for step in range(1, min(list_size, alpha.shape[1])):
        cost = mag[origin, step] + (1.0 - 2.0 * parity) * min_mag[origin]
        parent, fork, new_mu = _fork_prune(mu, mu + cost, list_size)
        if not fork.any() and np.array_equal(parent, np.arange(mu.size)):
            break
        splits.append((parent, fork))
        origin, parity, mu = origin[parent], parity[parent] ^ fork, new_mu
    beta = _flip_splits(hard, order, origin, splits, 1)
    rows = np.arange(beta.shape[0])
    min_pos = order[origin, 0]
    beta[rows, min_pos] = 0
    beta[rows, min_pos] = np.bitwise_xor.reduce(beta, axis=1)
    return origin, mu, beta


_BIT_PAIR = np.array([[0], [1]])  # one metric_increment call prices both decisions

_SPECIAL_DECODERS = {
    NodeKind.R0: lambda mu, a, L: decode_rate0(mu, a),
    NodeKind.REP: decode_rep,
    NodeKind.R1: decode_rate1,
    NodeKind.SPC: decode_spc,
}


class _FloatOps:
    """Message arithmetic for LLR-domain decoding; updates write into ``out``."""

    dtype = np.float64
    levelwise_frozen = True  # all-frozen interior nodes evaluate level by level

    def __init__(self, metric_mode: str):
        self.f = f_minsum if metric_mode == "approx" else f_exact

    def root_messages(self, y):
        llrs = np.asarray(y, dtype=np.float64)
        if np.isnan(llrs).any():
            raise ValueError("channel LLRs contain NaN")
        return llrs

    def f_update(self, node, a, b, out):
        self.f(a, b, out=out)

    def g_update(self, node, a, b, bit, out):
        g_func(a, b, bit, out=out)

    def leaf_llrs(self, node, msgs):
        return msgs

    def note_result(self, result):
        pass


class ListEngine:
    """A list decoder, set up (LUT set checked) once; each ``decode`` call walks one frame."""

    def __init__(self, code: PolarCode, tree: DecoderTree, cfg: ListConfig,
                 lutset: LutSet = None):
        if tree.block_len != code.block_len:
            raise ValueError("tree and code block lengths differ")
        self.code = code
        self.tree = tree
        self.cfg = cfg
        self.ops = _FloatOps(cfg.metric_mode) if lutset is None else _LutOps(code, tree, lutset)

    def decode(self, channel_msgs) -> DecodeResult:
        n_bits = self.code.block_len
        root_msgs = self.ops.root_messages(channel_msgs)
        if root_msgs.shape != (n_bits,):
            raise ValueError("channel message length != block length")
        self.channel = root_msgs[None, :]
        self.msgs = np.zeros((1, n_bits), dtype=self.ops.dtype)
        self.bits = np.zeros((1, 2 * n_bits), dtype=np.uint8)
        self.mu = np.zeros(1, dtype=np.float64)
        self._walk(self.tree.root, n_bits)
        order = np.argsort(self.mu, kind="stable")
        x_hats = self.bits[order, n_bits:]
        result = DecodeResult(u_hats=polar_transform(x_hats), x_hats=x_hats,
                              metrics=self.mu[order])
        self.ops.note_result(result)
        return result

    def _permute(self, parent_idx):
        self.msgs = self.msgs[parent_idx]
        self.bits = self.bits[parent_idx]

    def _inputs(self, size):
        """Messages into the current node of this size (the channel at the root)."""
        return self.channel if size == self.code.block_len else self.msgs[:, size:2 * size]

    def _walk(self, node, out):
        """Decode the subtree at ``node`` into ``bits[:, out:out + node.size]``."""
        size = node.size
        if node.is_leaf:
            llrs = self.ops.leaf_llrs(node, self._inputs(size))
            if size == 1:
                self._bit_leaf(node.span_start, out, llrs[:, 0])
            else:
                handler = _SPECIAL_DECODERS[node.kind]
                parent, self.mu, beta = handler(self.mu, llrs, self.cfg.list_size)
                if node.kind is not NodeKind.R0:  # rate-0 keeps every path in place
                    self._permute(parent)
                self.bits[:, out:out + size] = beta
            return
        if node.kind is NodeKind.R0 and self.ops.levelwise_frozen:
            self._frozen_subtree(self._inputs(size), out, size)
            return
        half = size // 2
        alpha = self._inputs(size)
        self.ops.f_update(node, alpha[:, :half], alpha[:, half:], self.msgs[:, half:size])
        self._walk(node.left, size)
        alpha = self._inputs(size)
        self.ops.g_update(node, alpha[:, :half], alpha[:, half:],
                          self.bits[:, size:size + half], self.msgs[:, half:size])
        self._walk(node.right, size + half)
        combine_bits(self.bits[:, size:size + half], self.bits[:, size + half:2 * size],
                     out=self.bits[:, out:out + size])

    def _frozen_subtree(self, alpha, out, size):
        """An all-frozen interior node on LLRs. No leaf LLR depends on a decision,
        so each level takes one f call and one add (g with bit 0) for all of its
        nodes; the bit-0 increments are then added in leaf order, as the
        node-by-node walk adds them."""
        paths = alpha.shape[0]
        llrs = alpha[:, None, :]            # (paths, nodes of this level, node size)
        while llrs.shape[2] > 1:
            half = llrs.shape[2] // 2
            a, b = llrs[:, :, :half], llrs[:, :, half:]
            child = np.empty((paths, llrs.shape[1], 2, half))
            self.ops.f(a, b, out=child[:, :, 0])
            np.add(a, b, out=child[:, :, 1])
            llrs = child.reshape(paths, -1, half)
        terms = np.empty((size + 1, paths))
        terms[0] = self.mu
        terms[1:] = metric_increment(0, llrs[:, :, 0].T, self.cfg.metric_mode)
        self.mu = np.add.accumulate(terms)[-1]
        self.bits[:, out:out + size] = 0

    def _bit_leaf(self, pos, out, llrs):
        mode = self.cfg.metric_mode
        if self.code.frozen_mask[pos]:
            self.mu = self.mu + metric_increment(0, llrs, mode)
            self.bits[:, out] = 0
            return
        keep, fork = self.mu + metric_increment(_BIT_PAIR, llrs, mode)
        parent, fork, self.mu = _fork_prune(keep, fork, self.cfg.list_size)
        self._permute(parent)
        self.bits[:, out] = fork


def decode(code: PolarCode, tree: DecoderTree, msgs, cfg: ListConfig,
           lutset: LutSet = None) -> DecodeResult:
    """List decoding of one frame on any schedule (``sc_tree(code)`` for
    conventional SCL). ``msgs`` are channel LLRs, or with a ``lutset`` quantized
    channel symbols, decoded by table lookups; the set is checked against the
    code and tree before the walk."""
    return ListEngine(code, tree, cfg, lutset).decode(msgs)


def ca_select(code: PolarCode, result: DecodeResult):
    """CRC-aided selection: first CRC-passing candidate, else the metric winner.

    Returns (candidate_index, info_bits, crc_ok).
    """
    infos = extract_info_bits(code, result.u_hats)
    for idx in range(len(result)):
        if crc_check(code, infos[idx]):
            return idx, infos[idx], True
    return 0, infos[0], False
