"""Offline design of the finite-alphabet decoder tables.

A w-bit message alphabet stands in for LLRs. The channel output and every
f/g update along the decoder tree are quantized by placing 2^w - 1 boundaries
in the sorted meta-LLR space so that the mutual information between the
relevant bit and the quantizer output is maximal: the contiguous-quantizer
dynamic program of Kurkoski & Yagi (IEEE Trans. IT 2014), optimal for a
sorted space, costing time K*M^2/2 and memory one block of cost rows plus a
(K+1, M+1) table for K levels over M observations. Each pruned-tree edge
yields a decoding table, designed from the parent distribution that both of
its input messages follow, and each leaf a translation table mapping messages
to LLRs. MSIB f edges are the exception: their mapping is the min-sum index
rule ``msib_f_index``, at design time as in the decoder, so they store no table.

Alphabets are kept sorted by LLR and exactly odd-symmetric: boundaries are
designed on the nonnegative half of the score space and mirrored, and the
translation LLRs are symmetrized by averaging mirrored magnitudes.
"""

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .arith import f_exact
from .codes import PolarCode
from .tree import DecoderTree

PROB_FLOOR = 1e-300
CHANNEL_GRID_CELLS = 2000
# Meta-LLR spaces larger than this are pre-binned (mass quantiles) before the
# quantizer DP; spaces at w <= 4 stay below it untouched.
MAX_DESIGN_GROUPS = 512
# Interval ends per block of the quantizer DP's cost fill and argmax steps.
DP_BLOCK_ROWS = 64

LUTSET_FORMAT = "fapolar-lutset-v1"


class LutDesignError(ValueError):
    pass


@dataclass(frozen=True)
class MessageAlphabet:
    """Integer message alphabet with its translation LLRs."""

    llr_table: np.ndarray

    def __post_init__(self):
        llr = np.asarray(self.llr_table, dtype=np.float64)
        object.__setattr__(self, "llr_table", llr)
        if llr.size < 2 or llr.size % 2:
            raise LutDesignError("alphabet size must be even and >= 2")
        if not np.all(np.isfinite(llr)):
            raise LutDesignError("translation LLRs must be finite")
        if not np.all(np.diff(llr) > 0):
            raise LutDesignError("translation LLRs must be strictly increasing")
        if not np.array_equal(llr, -llr[::-1]):
            raise LutDesignError("translation LLRs must be odd-symmetric")

    @property
    def size(self) -> int:
        return self.llr_table.size


@dataclass(frozen=True)
class MessageDist:
    """Joint distribution p(x, t) of a bit and a message, with the alphabet."""

    alphabet: MessageAlphabet
    joint: np.ndarray

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=np.float64)
        object.__setattr__(self, "joint", joint)
        if joint.shape != (2, self.alphabet.size):
            raise LutDesignError("joint shape must be (2, alphabet size)")
        if np.any(joint < 0) or abs(joint.sum() - 1.0) > 1e-9:
            raise LutDesignError("joint must be a distribution")


def symmetrize_llrs(llr_table) -> np.ndarray:
    """Force exact odd symmetry by averaging mirrored magnitudes."""
    llr = np.asarray(llr_table, dtype=np.float64)
    half = llr.size // 2
    mag = (llr[half:] - llr[:half][::-1]) / 2.0
    return np.concatenate([-mag[::-1], mag])


def _llrs_from_joint(joint) -> np.ndarray:
    p0 = np.maximum(joint[0], PROB_FLOOR)
    p1 = np.maximum(joint[1], PROB_FLOOR)
    return np.log(p0) - np.log(p1)


def mutual_information(joint) -> float:
    """I(X;T) in bits for a joint distribution of shape (2, |T|)."""
    joint = np.asarray(joint, dtype=np.float64)
    px = joint.sum(axis=1, keepdims=True)
    pt = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    terms = np.zeros_like(joint)
    terms[mask] = joint[mask] * np.log2(joint[mask] / (px * pt)[mask])
    return float(terms.sum())


def _sum_by(index, joint, size):
    """(2, size) masses: joint[x, y] summed into column index[y], in y order."""
    return np.stack([np.bincount(index, weights=row, minlength=size) for row in joint])


def merge_equal_llrs(scores, joint):
    """Group observations with identical scores (a lossless merge).

    Returns (group_scores, group_joint, group_index) where group_index maps
    each observation to its group. Scores must arrive sorted ascending.
    """
    scores = np.asarray(scores, dtype=np.float64)
    joint = np.asarray(joint, dtype=np.float64)
    if np.any(np.diff(scores) < 0):
        raise LutDesignError("scores must be sorted ascending")
    new_group = np.empty(scores.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = scores[1:] != scores[:-1]
    group_index = np.cumsum(new_group) - 1
    return scores[new_group], _sum_by(group_index, joint, group_index[-1] + 1), group_index


def _cost_rows(p0, p1, j0, j1, scratch):
    """cost[j, i] for ends j0 <= j < j1 and starts i < j1, the MI (bits) of interval
    [i, j) from the cumulative masses p0, p1 (-inf where i >= j), in scratch row 3."""
    a, b, tot, term0, term1, px_tot = scratch[:, :(j1 - j0) * j1].reshape(6, j1 - j0, j1)
    np.subtract(p0[j0:j1, None], p0[None, :j1], out=a)
    np.subtract(p1[j0:j1, None], p1[None, :j1], out=b)
    np.add(a, b, out=tot)
    with np.errstate(divide="ignore", invalid="ignore"):
        for mass, px, term in ((a, p0[-1], term0), (b, p1[-1], term1)):
            # term = where(mass > 0, mass * (log2(max(mass, F)) - log2(max(px * tot, F))), 0)
            np.log2(np.maximum(mass, PROB_FLOOR, out=term), out=term)
            np.multiply(px, tot, out=px_tot)
            np.log2(np.maximum(px_tot, PROB_FLOOR, out=px_tot), out=px_tot)
            np.multiply(mass, np.subtract(term, px_tot, out=term), out=term)
            np.copyto(term, 0.0, where=~(mass > 0))
    cost = np.add(term0, term1, out=term0)
    cost[:, j0:][np.triu_indices(j1 - j0)] = -np.inf  # forbid empty/backwards intervals
    return cost


def _optimal_partition(joint, out_size):
    """Boundaries of the MI-maximizing split into out_size contiguous intervals.

    Returns (split_points, value): split_points[k] is the first observation of
    interval k+1, so intervals are [0, s0), [s0, s1), ..., [s_last, M).

    End-major DP over cost[j, i], the MI contribution (bits) of merging
    observations [i, j), i < j. Ends go DP_BLOCK_ROWS at a time: a block's
    cost rows are filled once, then each of the out_size steps takes a
    leftmost argmax along them, reading ``best`` of earlier ends only (earlier
    blocks, or this block's previous step). Time about K*M^2/2 for
    K = out_size and M observations; memory six DP_BLOCK_ROWS * (M+1) scratch rows
    for all blocks plus the (K+1, M+1) ``best`` table, never an (M+1)^2 matrix.
    """
    n_obs = joint.shape[1]
    if n_obs < out_size:
        raise LutDesignError(f"cannot split {n_obs} observations into {out_size} intervals")
    p0 = np.concatenate([[0.0], np.cumsum(joint[0])])
    p1 = np.concatenate([[0.0], np.cumsum(joint[1])])
    best = np.full((out_size + 1, n_obs + 1), -np.inf)  # best[k, j]: k intervals cover [0, j)
    best[0, 0] = 0.0
    back = np.zeros((out_size, n_obs + 1), dtype=np.int64)
    # every block's temporaries, each contiguous: fresh ones per block re-fault
    # their pages each time, and strided views of (rows, M+1) planes are ~35% slower
    scratch = np.empty((6, min(DP_BLOCK_ROWS, n_obs) * (n_obs + 1)))
    for j0 in range(1, n_obs + 1, DP_BLOCK_ROWS):
        j1 = min(j0 + DP_BLOCK_ROWS, n_obs + 1)
        cost = _cost_rows(p0, p1, j0, j1, scratch)
        for k in range(out_size):
            # interval k+1 ends at j: j must leave enough room on both sides
            lo, hi = max(j0, k + 1), min(j1, n_obs - (out_size - 1 - k) + 1)
            if lo < hi:
                cand = np.add(cost[lo - j0:hi - j0, k:hi], best[k, k:hi],
                              out=scratch[5, :(hi - lo) * (hi - k)].reshape(hi - lo, hi - k))
                arg = np.argmax(cand, axis=1)
                back[k, lo:hi] = arg + k
                best[k + 1, lo:hi] = cand[np.arange(hi - lo), arg]
    splits = [n_obs]
    for k in range(out_size - 1, 0, -1):
        splits.append(back[k, splits[-1]])
    return np.array(splits[:0:-1], dtype=np.int64), float(best[out_size, n_obs])


def mi_max_quantize(joint, out_size):
    """Optimal contiguous quantizer for observations sorted by LLR.

    ``joint`` has shape (2, |Y|) with columns in strictly ascending LLR order
    (merge ties first). Returns (split_points, assignment, llr_table,
    joint_out): ``assignment[y] = t`` and ``llr_table[t]`` is the output LLR.
    """
    joint = np.asarray(joint, dtype=np.float64)
    scores = _llrs_from_joint(joint)
    if np.any(np.diff(scores) <= 0):
        raise LutDesignError("observations must be strictly sorted by LLR")
    splits, _ = _optimal_partition(joint, out_size)
    assignment = np.searchsorted(splits, np.arange(joint.shape[1]), side="right")
    joint_out = _sum_by(assignment, joint, out_size)
    return splits, assignment, _llrs_from_joint(joint_out), joint_out


def _prebin_groups(group_joint, limit):
    """Reduce adjacent groups to at most ``limit`` mass-balanced bins."""
    n_groups = group_joint.shape[1]
    if limit is None or n_groups <= limit:
        return group_joint, np.arange(n_groups)
    mass = group_joint.sum(axis=0)
    quantile = np.cumsum(mass) / mass.sum()
    bin_of = np.minimum((quantile * limit).astype(np.int64), limit - 1)
    # ensure bins stay nonempty and monotone
    bin_of = np.maximum.accumulate(bin_of)
    first = np.ones(n_groups, dtype=bool)
    first[1:] = bin_of[1:] != bin_of[:-1]
    bin_of = np.cumsum(first) - 1
    return _sum_by(bin_of, group_joint, bin_of[-1] + 1), bin_of


def _design_symmetric(scores, joint, out_size, zero_upper=None, max_groups=MAX_DESIGN_GROUPS):
    """Quantize a symmetric score space into an odd-symmetric alphabet.

    Observations are sorted by score and tie-merged; boundaries are designed
    on the nonnegative half and mirrored. Zero-score observations (possible
    for g updates) map to one of the two middle levels according to
    ``zero_upper`` so that mirror pairs split evenly.

    Returns (level_of_obs, MessageDist).
    """
    scores = np.asarray(scores, dtype=np.float64)
    joint = np.asarray(joint, dtype=np.float64)
    half_out = out_size // 2
    order = np.argsort(scores, kind="stable")
    g_scores, g_joint, group_of = merge_equal_llrs(scores[order], joint[:, order])

    n_neg = int(np.searchsorted(g_scores, 0.0, side="left"))
    n_zero = int(np.searchsorted(g_scores, 0.0, side="right")) - n_neg
    n_pos = g_scores.size - n_neg - n_zero
    if n_neg != n_pos or not np.array_equal(g_scores[:n_neg], -g_scores[::-1][:n_pos]):
        raise LutDesignError("score space is not symmetric")

    # Boundaries are placed among the strictly positive groups. Zero-score
    # mass is uninformative; it is pinned to the two middle levels afterwards,
    # which keeps every level's aggregate LLR strictly away from its
    # neighbours'.
    right = g_joint[:, n_neg + n_zero:]
    binned, bin_of = _prebin_groups(right, max_groups)
    if binned.shape[1] < half_out:
        raise LutDesignError("not enough distinct score levels for the alphabet")
    splits, _ = _optimal_partition(binned, half_out)
    interval_of_right = np.searchsorted(splits, np.arange(binned.shape[1]), side="right")[bin_of]

    level_of_group = np.empty(g_scores.size, dtype=np.int64)
    pos_levels = half_out + interval_of_right
    level_of_group[n_neg + n_zero:] = pos_levels
    level_of_group[:n_neg] = out_size - 1 - pos_levels[::-1]
    level_sorted = level_of_group[group_of]
    if n_zero:  # the single merged zero group, left unset above, splits by side
        if zero_upper is None:
            raise LutDesignError("zero-score observations need a side rule")
        upper_sorted = np.asarray(zero_upper, dtype=bool)[order]
        level_sorted = np.where(group_of == n_neg, np.where(upper_sorted, half_out, half_out - 1),
                                level_sorted)
    level_of_obs = np.empty(scores.size, dtype=np.int64)
    level_of_obs[order] = level_sorted
    return level_of_obs, _output_dist(level_of_obs, joint, out_size)


def _output_dist(level_of_obs, joint, out_size) -> MessageDist:
    """Distribution of the messages that ``level_of_obs`` gives the observations."""
    joint_out = _sum_by(level_of_obs, joint, out_size)
    alphabet = MessageAlphabet(symmetrize_llrs(_llrs_from_joint(joint_out)))
    return MessageDist(alphabet, joint_out)


def quantize_channel(design_ebn0_db, rate, w):
    """MI-maximizing quantizer of the binary-input AWGN channel.

    Returns (thresholds, MessageDist): ``thresholds`` are the 2^w - 1 sorted
    real boundaries on the channel output; a received value maps to the count
    of thresholds strictly below it.
    """
    if w < 1:
        raise LutDesignError("bit width must be >= 1")
    if not 0 < rate <= 1:
        raise LutDesignError("rate must be in (0, 1]")
    if CHANNEL_GRID_CELLS < 4 * (1 << w):
        raise LutDesignError("grid too coarse for the alphabet")
    sigma2 = 1.0 / (2.0 * rate * 10.0 ** (design_ebn0_db / 10.0))
    sigma = float(np.sqrt(sigma2))

    span = 1.0 + 6.0 * sigma
    half_edges = np.linspace(0.0, span, CHANNEL_GRID_CELLS // 2 + 1)
    edges = np.concatenate([-half_edges[:0:-1], half_edges])
    # p(cell | x=0) for BPSK mean +1; x=1 masses are the exact mirror
    mass0 = np.maximum(np.diff(ndtr((edges - 1.0) / sigma)), 0.0)
    joint = np.stack([mass0, mass0[::-1]]) * 0.5
    joint /= joint.sum()

    # Cells are scored by their center LLR 2y/sigma^2: same (strict) ordering
    # as the cell-mass posterior, exactly antisymmetric, and free of ties even
    # where far-tail cell masses underflow.
    centers = (edges[:-1] + edges[1:]) / (2.0 * sigma2) * 2.0
    level_of_obs, dist = _design_symmetric(centers, joint, 1 << w, max_groups=None)
    steps = np.diff(level_of_obs)
    if np.any(steps < 0):
        raise LutDesignError("channel quantizer mapping is not monotone")
    # a threshold is the grid edge between two cells of adjacent levels
    return edges[1:-1][steps > 0], dist


def _f_pair_joint(p):
    """p(x, t1, t2) as (2, size^2): x is the XOR of two branch bits, each with joint p."""
    return np.stack([
        p[0][:, None] * p[0][None, :] + p[1][:, None] * p[1][None, :],
        p[0][:, None] * p[1][None, :] + p[1][:, None] * p[0][None, :],
    ]).reshape(2, -1)


def build_f_table(dist: MessageDist):
    """Decoding table for an upper-branch (f) update of two messages t1, t2
    that follow the parent ``dist``; the output keeps its alphabet size.

    The relevant bit is the XOR of the two branch bits; the pair is scored
    with the exact box-plus on the translation LLRs. Returns (mapping,
    MessageDist), mapping[t1, t2] = t_out.
    """
    llr = dist.alphabet.llr_table
    size = llr.size
    # unclipped scores: these are sort keys, and clipping would alias
    # distinct levels once deep distributions saturate; below ~1e-8 the
    # box-plus of two LLRs can cancel to 0 in float: those take t1's side
    scores = f_exact(llr[:, None], llr[None, :], clip=np.inf)
    t1_upper = np.broadcast_to((np.arange(size) >= size // 2)[:, None], scores.shape)
    level_of_obs, out = _design_symmetric(scores.ravel(), _f_pair_joint(dist.joint), size,
                                          zero_upper=t1_upper.ravel())
    return level_of_obs.reshape(size, size).astype(np.int16), out


def _msib_f_dist(dist: MessageDist) -> MessageDist:
    """Output of an MSIB f update on ``dist``: min-sum scores take exactly 2^w
    values, one level each, so the designed mapping is the index rule."""
    size = dist.alphabet.size
    idx = np.arange(size)
    level_of_obs = msib_f_index(idx[:, None], idx[None, :], size).ravel()
    return _output_dist(level_of_obs, _f_pair_joint(dist.joint), size)


def build_g_table(dist: MessageDist):
    """Decoding table for a lower-branch (g) update of two messages t1, t2
    that follow the parent ``dist``; the output keeps its alphabet size.

    The relevant bit is the lower-branch bit; the upper-branch bit b is
    assumed correctly fed back at design time. The observation (t1, t2, b) is
    scored with (-1)^b * L(t1) + L(t2), which is exact (no min-sum
    counterpart). Returns (mapping, MessageDist), mapping[t1, t2, b] = t_out.
    """
    llr, p = dist.alphabet.llr_table, dist.joint
    size = llr.size
    # p(x, t1, t2, b) = p[b ^ x, t1] * p[x, t2]
    joint = np.empty((2, size, size, 2))
    for x in (0, 1):
        for b in (0, 1):
            joint[x, :, :, b] = p[b ^ x][:, None] * p[x][None, :]
    scores = np.empty((size, size, 2))
    scores[:, :, 0] = llr[:, None] + llr[None, :]
    scores[:, :, 1] = -llr[:, None] + llr[None, :]
    t1_upper = np.broadcast_to((np.arange(size) >= size // 2)[:, None, None], scores.shape)
    level_of_obs, out = _design_symmetric(scores.ravel(), joint.reshape(2, -1), size,
                                          zero_upper=t1_upper.ravel())
    return level_of_obs.reshape(size, size, 2).astype(np.int16), out


def msib_f_index(t1, t2, alphabet_size: int):
    """Closed-form f update on message indices of an odd-symmetric alphabet.

    Output sign is the product of the input signs, output magnitude rank the
    smaller of the input ranks; reproduces the min-sum rule exactly. Computed
    in the inputs' integer dtype, which holds every index, so nothing overflows.
    """
    if alphabet_size < 2 or alphabet_size % 2:
        raise LutDesignError("index rule needs an even alphabet size")
    t1, t2 = np.asarray(t1), np.asarray(t2)
    half = alphabet_size // 2
    up1, up2 = t1 >= half, t2 >= half
    mag1 = np.where(up1, t1 - half, half - 1 - t1)
    mag2 = np.where(up2, t2 - half, half - 1 - t2)
    mag = np.minimum(mag1, mag2)
    positive = up1 == up2
    return np.where(positive, half + mag, half - 1 - mag)


@dataclass
class LutSet:
    """All tables one quantized decoder needs, keyed by the tree's edge/leaf ids."""

    block_len: int
    payload_len: int
    crc_len: int
    variant: str
    w: int
    design_ebn0_db: float
    schedule_hash: str
    channel_thresholds: np.ndarray
    decoding_tables: dict = field(default_factory=dict)
    translation_tables: dict = field(default_factory=dict)

    @property
    def alphabet_size(self) -> int:
        return 1 << self.w

    def table_counts(self):
        """(decoding, translation) counts: ``tree.table_counts`` of any tree it decodes on."""
        return len(self.decoding_tables) + (self.variant == "msib"), len(self.translation_tables)


def design_lutset(code: PolarCode, tree: DecoderTree, variant: str,
                  design_ebn0_db: float, w: int) -> LutSet:
    """Evolve the channel distribution down the pruned tree and emit tables.

    Per g-edge, and per f-edge of an IB set, a decoding table is designed
    from the parent node's distribution, which both of its inputs follow. An
    MSIB f-edge stores no table: its mapping is the index rule, which gives
    its output distribution directly. The distribution arriving at each leaf
    provides that leaf's translation table.
    """
    if variant not in ("ib", "msib"):
        raise LutDesignError(f"unknown variant {variant!r}")
    thresholds, channel = quantize_channel(design_ebn0_db, code.rate, w)
    lutset = LutSet(
        block_len=code.block_len,
        payload_len=code.payload_len,
        crc_len=code.crc_len,
        variant=variant,
        w=w,
        design_ebn0_db=float(design_ebn0_db),
        schedule_hash=tree.schedule_hash(),
        channel_thresholds=thresholds,
    )

    def rec(node, dist):
        if node.is_leaf:
            lutset.translation_tables[node.leaf_id] = dist.alphabet.llr_table
            return
        if variant == "ib":
            lutset.decoding_tables[node.f_edge_id], f_dist = build_f_table(dist)
        else:
            f_dist = _msib_f_dist(dist)
        rec(node.left, f_dist)
        g_map, g_dist = build_g_table(dist)
        lutset.decoding_tables[node.g_edge_id] = g_map
        rec(node.right, g_dist)

    rec(tree.root, channel)
    return lutset


def save_lutset(lutset: LutSet, path):
    """Write a LUT set as canonical JSON (stable bytes, exact float round-trip)."""
    doc = {
        "format": LUTSET_FORMAT,
        "block_len": lutset.block_len,
        "payload_len": lutset.payload_len,
        "crc_len": lutset.crc_len,
        "variant": lutset.variant,
        "w": lutset.w,
        "design_ebn0_db": lutset.design_ebn0_db,
        "schedule_hash": lutset.schedule_hash,
        "channel_thresholds": [float(v) for v in lutset.channel_thresholds],
        "decoding_tables": {
            str(k): {"arity": v.ndim, "table": v.ravel().tolist()}
            for k, v in sorted(lutset.decoding_tables.items())
        },
        "translation_tables": {
            str(k): [float(x) for x in v]
            for k, v in sorted(lutset.translation_tables.items())
        },
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _field(doc, key, *types):
    """``doc[key]``, of one of ``types`` (a JSON true is no int here)."""
    if key not in doc:
        raise LutDesignError(f"missing key {key!r}")
    if type(doc[key]) not in types:
        raise LutDesignError(f"{key!r} must be {' or '.join(t.__name__ for t in types)}, "
                             f"got {type(doc[key]).__name__}")
    return doc[key]


def _table_id(kind, key):
    """Keys are canonical ids ("0", "17"): no two name one table, none is negative."""
    if key.isascii() and key.isdecimal() and key == str(int(key)):
        return int(key)
    raise LutDesignError(f"{kind} table {key!r}: not a canonical non-negative integer id")


def load_lutset(path) -> LutSet:
    """Read a LUT set written by ``save_lutset``. Every key is checked here, so
    a bad file fails with a ``LutDesignError`` naming the key, not mid-decode."""
    with open(path) as fh:
        doc = json.load(fh)
    if type(doc) is not dict or doc.get("format") != LUTSET_FORMAT:
        raise LutDesignError("unrecognized LUT file format")
    w = doc.get("w")
    if type(w) is not int or not 1 <= w <= 15:  # int16 messages hold 2^w levels
        raise LutDesignError(f"'w' must be an integer in [1, 15], got {w!r}")
    size = 1 << w
    variant = _field(doc, "variant", str)
    if variant not in ("ib", "msib"):
        raise LutDesignError(f"'variant' must be 'ib' or 'msib', got {variant!r}")
    thresholds = _field(doc, "channel_thresholds", list)
    if len(thresholds) != size - 1 or any(type(t) is not float for t in thresholds) \
            or not np.all(np.isfinite(thresholds)) or not np.all(np.diff(thresholds) > 0):
        raise LutDesignError(f"'channel_thresholds' must be {size - 1} finite, "
                             f"strictly increasing floats at w={w}")
    decoding = {}
    for key, entry in _field(doc, "decoding_tables", dict).items():
        table_id = _table_id("decoding", key)
        if type(entry) is not dict:
            raise LutDesignError(f"decoding table {key}: must be a JSON object")
        arity = entry.get("arity")
        if arity not in (2, 3):
            raise LutDesignError(f"decoding table {key}: arity must be 2 or 3, got {arity!r}")
        shape = (size, size) if arity == 2 else (size, size, 2)
        table = entry.get("table")
        # JSON integers only: numpy would read a true as message 1
        if type(table) is not list or len(table) != np.prod(shape) \
                or set(map(type, table)) != {int}:
            raise LutDesignError(f"decoding table {key}: arity {arity} at w={w} needs "
                                 f"{np.prod(shape)} integer entries")
        try:
            table = np.fromiter(table, dtype=np.int16, count=len(table))
        except OverflowError:  # beyond int16, so beyond any alphabet
            table = np.array([size])
        if table.min() < 0 or table.max() >= size:
            raise LutDesignError(f"decoding table {key}: entries must lie in [0, {size})")
        decoding[table_id] = table.reshape(shape)
    translation = {}
    for key, llrs in _field(doc, "translation_tables", dict).items():
        table_id = _table_id("translation", key)
        try:
            alphabet = MessageAlphabet(llrs)
        except (LutDesignError, TypeError, ValueError) as err:
            raise LutDesignError(f"translation table {key}: {err}") from None
        if alphabet.size != size:
            raise LutDesignError(f"translation table {key}: {alphabet.size} LLRs, w={w} needs {size}")
        translation[table_id] = alphabet.llr_table
    return LutSet(
        block_len=_field(doc, "block_len", int),
        payload_len=_field(doc, "payload_len", int),
        crc_len=_field(doc, "crc_len", int),
        variant=variant,
        w=w,
        design_ebn0_db=float(_field(doc, "design_ebn0_db", int, float)),
        schedule_hash=_field(doc, "schedule_hash", str),
        channel_thresholds=np.array(thresholds, dtype=np.float64),
        decoding_tables=decoding,
        translation_tables=translation,
    )
