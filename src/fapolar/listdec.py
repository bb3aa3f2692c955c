"""SC / SCL / fast-SCL decoding: one entry point, ``ListEngine``.

A ``ListEngine`` compiles a decoder tree, unpruned (SCL) or pruned (fast SCL),
once into a flat tuple of steps in activation order: the f, g and combine of
each interior node, and leaves, where a single bit is decided (frozen) or
forks every path, and a special span runs a one-shot constituent decoder
(rate-0, rate-1, repetition, single parity check). On LLRs, all-frozen and
repetition interior nodes are one step each, level by level, and so is each
information pair, with every bit still decided in order. A frame is one loop
over the steps. Given a LUT set, f/g steps are table lookups (``lutdec``) and
leaves first translate messages to LLRs.

All constituent decoders use the hardware-friendly approximate path metric.
Candidate order is deterministic: parent path first, fork flag 0 before 1,
and ties in the pruning sort keep that order. The rate-1 and SPC decoders
split on their least reliable bits (Hashemi, Condo & Gross, IEEE TSP 2017),
stop once a split leaves the list in place, and flip the survivors' bits once.

A leaf that moves paths copies the path state, which holds only what later
steps read (Tal & Vardy's per-depth layout, LLR form): messages into a node of
size s in ``msgs[:, s:2s]`` of a (paths, N) array (the root reads the shared
channel row), and partial sums in codeword order in a (paths, N) ``bits``: the
children of a node on positions [o, o + s) write its two halves, and its
combine XORs the right half into the left in place, so ``bits`` ends as the
codewords. Steps hold column slices and edge or leaf ids, never arrays or tree
nodes: no replaced path state outlives its step, and the engine keeps no tree.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .arith import f_exact, f_minsum, g_func, combine_bits, hard_decision, metric_increment
from .codes import PolarCode, polar_transform, extract_info_bits, crc_check
from .lutdec import _LutOps
from .lutdesign import LutSet
from .tree import DecoderTree, NodeKind, span_kinds


@dataclass(frozen=True)
class ListConfig:
    list_size: int = 8
    metric_mode: str = "approx"

    def __post_init__(self):
        size = self.list_size  # an integer, numpy ones too; a bool is no list size
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
            raise ValueError(f"list size must be an integer >= 1, got {size!r}")
        object.__setattr__(self, "list_size", int(size))
        if self.metric_mode not in ("approx", "exact"):
            raise ValueError(f"unknown metric mode {self.metric_mode!r}")


@dataclass
class DecodeResult:
    """Final list, best metric first. Rows of u_hats/x_hats are one candidate;
    ``touched_*`` are the decoder's table ids, as a LUT walk reads all of them."""

    u_hats: np.ndarray
    x_hats: np.ndarray
    metrics: np.ndarray
    touched_decoding: frozenset = frozenset()
    touched_translation: frozenset = frozenset()

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


@lru_cache(maxsize=None)
def _rows(paths):
    return np.arange(paths).tobytes()


def _in_place(parent, paths):
    """True when the survivors are the ``paths`` incoming paths, each in its own
    row (compared as bytes: a tenth of the cost of a numpy comparison)."""
    return parent.tobytes() == _rows(paths)


def decode_rate0(metrics, alpha, list_size=None):
    """All-frozen span: no forking, charge the hard-decision mismatch penalty
    (``list_size`` is unused: every constituent decoder takes it)."""
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
        if not fork.any() and _in_place(parent, mu.size):
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
        if not fork.any() and _in_place(parent, mu.size):
            break
        splits.append((parent, fork))
        origin, parity, mu = origin[parent], parity[parent] ^ fork, new_mu
    beta = _flip_splits(hard, order, origin, splits, 1)
    rows = np.arange(beta.shape[0])
    min_pos = order[origin, 0]
    beta[rows, min_pos] = 0
    beta[rows, min_pos] = np.bitwise_xor.reduce(beta, axis=1)
    return origin, mu, beta


_BIT_PAIR = np.array([[False], [True]])  # one metric_increment call prices both decisions


def _decode_levelwise(metrics, llrs, list_size, f, mode, info_last):
    """All-frozen span (a single bit or a subtree), or with ``info_last`` a
    repetition span, on LLRs. Frozen bits are 0, so no leaf LLR depends on a
    decision: each level takes one f call and one add (g with bit 0) for all
    its nodes, and the frozen bit-0 increments are added in leaf order, as a
    node-by-node walk adds them. A repetition span's last bit then forks."""
    paths, size = llrs.shape
    llrs = llrs[:, None, :]            # (paths, nodes of this level, node size)
    while llrs.shape[2] > 1:
        half = llrs.shape[2] // 2
        a, b = llrs[:, :, :half], llrs[:, :, half:]
        child = np.empty((paths, llrs.shape[1], 2, half))
        f(a, b, out=child[:, :, 0])
        np.add(a, b, out=child[:, :, 1])
        llrs = child.reshape(paths, -1, half)
    n_frozen = size - info_last
    terms = np.empty((n_frozen + 1, paths))
    terms[0] = metrics
    terms[1:] = metric_increment(0, llrs[:, :n_frozen, 0].T, mode)
    mu = np.add.accumulate(terms)[-1]
    return _decode_info(mu, llrs[:, -1], list_size, f, mode) if info_last else (None, mu, 0)


def _decode_info(metrics, llrs, list_size, f, mode):
    """Information bit: every path forks to both decisions, then prune. A pair (two
    information bits) runs its node's walk: f, fork u0, fork u1 on g for the survivor's
    u0 (g is formed for both before u0 forks), combine; the paths move once."""
    if llrs.shape[1] == 1:
        keep, fork = metrics + metric_increment(_BIT_PAIR, llrs[:, 0], mode)
        parent, fork, mu = _fork_prune(keep, fork, list_size)
        return parent, mu, fork[:, None]
    a, b = llrs[:, :1], llrs[:, 1:]
    g = np.concatenate((a + b, b - a), axis=1)  # g_func exactly: a * 1 + b, a * -1 + b
    parent0, mu, u0 = _decode_info(metrics, f(a, b), list_size, f, mode)
    parent1, mu, u1 = _decode_info(mu, g[parent0[:, None], u0], list_size, f, mode)
    beta = np.repeat(u1, 2, axis=1)
    beta[:, :1] ^= u0[parent1]  # combined: (u0 ^ u1, u1)
    return parent0[parent1], mu, beta


_SPECIAL_DECODERS = {
    NodeKind.R0: decode_rate0,
    NodeKind.REP: decode_rep,
    NodeKind.R1: decode_rate1,
    NodeKind.SPC: decode_spc,
}


class _FloatOps:
    """Message arithmetic for LLR-domain decoding; updates write into ``out``."""

    dtype = np.float64
    levelwise_frozen = True  # all-frozen, rep and information-pair interior nodes are one step
    tables = frozenset(), frozenset()  # no lookup tables

    def __init__(self, f, block_len):
        self.f = f
        # g sums stay within N * bound <= sqrt(float max): no f_minsum product
        # or path metric overflows
        self.llr_bound = np.sqrt(np.finfo(np.float64).max) / block_len

    def root_messages(self, y):
        llrs = np.asarray(y, dtype=np.float64)
        if not (np.abs(llrs) <= self.llr_bound).all():
            raise ValueError(f"channel LLRs must be finite with |LLR| <= {self.llr_bound:.6g} "
                             "(sqrt of the float64 maximum over N): NaN, +-inf or larger found")
        return llrs

    def f_update(self, edge_id, a, b, out):
        self.f(a, b, out=out)

    def g_update(self, edge_id, a, b, bit, out):
        g_func(a, b, bit, out=out)

    def leaf_llrs(self, leaf_id, msgs):
        return msgs


@lru_cache(maxsize=None)
def _cols(lo, hi):
    """Columns lo..hi-1 of every path, one shared index per span."""
    return slice(None), slice(lo, hi)


class ListEngine:
    """A list decoder on any schedule, set up once (LUT set checked, tree
    compiled to steps); each ``decode`` call runs the steps on one frame."""

    def __init__(self, code: PolarCode, tree: DecoderTree, cfg: ListConfig,
                 lutset: LutSet = None):
        if tree.block_len != code.block_len:
            raise ValueError("tree and code block lengths differ")
        self.code = code
        self.cfg = cfg
        f = f_minsum if cfg.metric_mode == "approx" else f_exact
        kinds, n = span_kinds(code.frozen_mask), code.block_len  # in heap order
        for leaf in tree.schedule:  # a tree built for another frozen mask would mis-decode
            lo, end = leaf.span_start, leaf.span_start + leaf.size
            if kinds[n // leaf.size - 1 + lo // leaf.size] is not leaf.kind:
                raise ValueError(f"{leaf.kind.value} leaf on positions {lo}..{end - 1} disagrees "
                                 "with the code's frozen mask")
        self.ops = _FloatOps(f, code.block_len) if lutset is None else _LutOps(code, tree, lutset)
        levelwise = partial(_decode_levelwise, f=f, mode=cfg.metric_mode)
        # single bits, and the interior nodes that ``_compile`` folds on float ops
        self._folds = {NodeKind.R0: partial(levelwise, info_last=False),
                       NodeKind.REP: partial(levelwise, info_last=True),
                       NodeKind.R1: partial(_decode_info, f=f, mode=cfg.metric_mode)}
        steps = []
        self._compile(tree.root, 0, steps)
        self.steps = tuple(steps)

    def decode(self, channel_msgs) -> DecodeResult:
        n_bits = self.code.block_len
        root_msgs = self.ops.root_messages(channel_msgs)
        if root_msgs.shape != (n_bits,):
            raise ValueError("channel message length != block length")
        self.channel = root_msgs[None, :]
        self.msgs = np.zeros((1, n_bits), dtype=self.ops.dtype)
        self.bits = np.zeros((1, n_bits), dtype=np.uint8)
        self.mu = np.zeros(1, dtype=np.float64)
        for run, args in self.steps:
            run(self, *args)
        order = np.argsort(self.mu, kind="stable")
        x_hats, metrics = self.bits[order], self.mu[order]
        del self.channel, self.msgs, self.bits, self.mu  # else pickled into every pool job
        return DecodeResult(polar_transform(x_hats), x_hats, metrics, *self.ops.tables)

    def _compile(self, node, out, steps):
        """Append, in activation order, the (step function, arguments) pairs that
        decode the subtree at ``node`` into codeword positions ``bits[:, out:out + size]``."""
        cls, size = type(self), node.size
        # messages into the node: the channel row at the root, else msgs[:, size:2 size]
        src, lo = ("channel", 0) if size == self.code.block_len else ("msgs", size)
        alpha, dest = _cols(lo, lo + size), _cols(out, out + size)
        if node.is_leaf and size > 1:
            steps.append((cls._leaf, (node.leaf_id, src, alpha, dest, _SPECIAL_DECODERS[node.kind])))
        elif node.is_leaf or self.ops.levelwise_frozen and (
                node.kind in (NodeKind.R0, NodeKind.REP) or node.kind is NodeKind.R1 and size == 2):
            steps.append((cls._leaf, (node.leaf_id, src, alpha, dest, self._folds[node.kind])))
        else:
            half = size // 2
            halves, child_in = (_cols(lo, lo + half), _cols(lo + half, lo + size)), _cols(half, size)
            steps.append((cls._f, (node.f_edge_id, src, *halves, child_in)))
            self._compile(node.left, out, steps)
            steps.append((cls._g, (node.g_edge_id, src, *halves, _cols(out, out + half), child_in)))
            self._compile(node.right, out + half, steps)
            steps.append((cls._combine, (dest,)))

    # steps: each looks up the current path state, which forks replace

    def _f(self, edge_id, src, upper, lower, child_in):
        alpha = getattr(self, src)
        self.ops.f_update(edge_id, alpha[upper], alpha[lower], self.msgs[child_in])

    def _g(self, edge_id, src, upper, lower, left, child_in):
        alpha = getattr(self, src)
        self.ops.g_update(edge_id, alpha[upper], alpha[lower], self.bits[left], self.msgs[child_in])

    def _combine(self, dest):
        beta = self.bits[dest]
        combine_bits(beta, out=beta)

    def _leaf(self, leaf_id, src, alpha, dest, decoder):
        """Decode a span into ``bits[dest]``, moving paths unless all stay in place."""
        llrs = self.ops.leaf_llrs(leaf_id, getattr(self, src)[alpha])
        paths = self.mu.size
        parent, self.mu, beta = decoder(self.mu, llrs, self.cfg.list_size)
        if parent is not None and not _in_place(parent, paths):
            self._permute(parent)
        self.bits[dest] = beta

    def _permute(self, parent_idx):
        self.msgs = self.msgs[parent_idx]
        self.bits = self.bits[parent_idx]


def ca_select(code: PolarCode, result: DecodeResult):
    """CRC-aided selection: first CRC-passing candidate, else the metric winner.

    Returns (candidate_index, info_bits, crc_ok).
    """
    infos = extract_info_bits(code, result.u_hats)
    for idx in range(len(result)):
        if crc_check(code, infos[idx]):
            return idx, infos[idx], True
    return 0, infos[0], False
