"""Offline design of the finite-alphabet decoder tables.

A w-bit message alphabet stands in for LLRs. The channel output and every f/g
update along the decoder tree are quantized by placing 2^w - 1 boundaries in
the sorted meta-LLR space so that the mutual information between the relevant
bit and the quantizer output is maximal: the contiguous-quantizer dynamic
program of Kurkoski & Yagi (IEEE Trans. IT 2014), optimal for a sorted space
(``_optimal_partition``, which states its cost). Each pruned-tree edge yields
a decoding table, designed from the parent distribution that both of its
input messages follow, and each leaf a translation table mapping messages to
LLRs. MSIB f edges are the exception: their mapping is the min-sum index rule
``msib_f_index``, at design time as in the decoder, so they store no table.

Alphabets are kept sorted by LLR and exactly odd-symmetric: boundaries are
designed on the nonnegative half of the score space and mirrored, and the
translation LLRs are symmetrized by averaging mirrored magnitudes.

Every design step carries a leading table axis: ``build_f_table`` and
``build_g_table`` take a list of parent distributions and run one sort, one
tie merge and one quantizer DP for all of them, rows with fewer groups
padded with zero mass at the end. ``design_lutset`` batches the tables of
each tree depth (``_batch_cap``): no batch needs more DP memory than the
channel quantizer, which, like any table at w >= 6, is a batch of one. Each
row's arithmetic is elementwise and in the order a lone table would use, so
a table comes out the same, bit for bit, in any batch.
"""

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .arith import f_exact
from .codes import PolarCode
from .tree import LUT_VARIANTS, DecoderTree, decoding_count

PROB_FLOOR = 1e-300
CHANNEL_GRID_CELLS = 2000
# Meta-LLR spaces larger than this are pre-binned (mass quantiles) before the
# quantizer DP; spaces at w <= 4 stay below it untouched.
MAX_DESIGN_GROUPS = 512
# Interval ends per block of the quantizer DP's cost fill and argmax steps.
DP_BLOCK_ROWS = 64
# Cells per scratch plane of one quantizer DP: the channel quantizer's block,
# so a batch of tables never needs more scratch than the channel does.
DP_BUDGET_CELLS = DP_BLOCK_ROWS * (CHANNEL_GRID_CELLS // 2 + 1)

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
    """Force exact odd symmetry by averaging mirrored magnitudes (along the last axis)."""
    llr = np.asarray(llr_table, dtype=np.float64)
    half = llr.shape[-1] // 2
    mag = (llr[..., half:] - llr[..., :half][..., ::-1]) / 2.0
    return np.concatenate([-mag[..., ::-1], mag], axis=-1)


def _llrs_from_joint(joint) -> np.ndarray:
    """LLRs of the columns of a (..., 2, |T|) joint."""
    p0 = np.maximum(joint[..., 0, :], PROB_FLOOR)
    p1 = np.maximum(joint[..., 1, :], PROB_FLOOR)
    return np.log(p0) - np.log(p1)


def noise_variance(ebn0_db, rate) -> float:
    """Noise variance 1/(2 R 10^(EbN0/10)) of BPSK over AWGN at ``ebn0_db`` dB.
    A ``ValueError`` names an Eb/N0 that is not finite or gives no finite
    positive variance (the power overflows or underflows)."""
    ebn0_db = float(ebn0_db)
    if not np.isfinite(ebn0_db):
        raise ValueError(f"Eb/N0 must be finite, got {ebn0_db!r} dB")
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma2 = np.inf
    if not 0.0 < sigma2 < np.inf:
        raise ValueError(f"Eb/N0 {ebn0_db!r} dB gives no finite positive noise variance")
    return sigma2


def _sum_by(index, joint, size):
    """(T, 2, size) masses: joint[r, x, y] summed into column index[r, y] of row r,
    in y order (one bincount over all rows, each row offset by ``size``)."""
    n_rows = joint.shape[0]
    flat = (index + size * np.arange(n_rows)[:, None]).ravel()
    out = np.empty((n_rows, 2, size))
    for x in (0, 1):
        out[:, x] = np.bincount(flat, weights=joint[:, x].ravel(),
                                minlength=n_rows * size).reshape(n_rows, size)
    return out


def _merge_sorted(scores, joint):
    """Group equal neighbours in each row of ascending ``scores`` (T, n) and
    sum their ``joint`` (T, 2, n) masses, a lossless merge. Returns
    (group_scores, group_joint, group_of, n_groups): row r has n_groups[r]
    groups, padded to the most groups of any row with score 0 and zero mass,
    and group_of[r, y] is observation y's group."""
    new_group = np.ones(scores.shape, dtype=bool)
    np.not_equal(scores[:, 1:], scores[:, :-1], out=new_group[:, 1:])
    group_of = np.cumsum(new_group, axis=1) - 1
    n_groups = group_of[:, -1] + 1
    group_scores = np.zeros((len(scores), n_groups.max()))
    group_scores[np.nonzero(new_group)[0], group_of[new_group]] = scores[new_group]
    return group_scores, _sum_by(group_of, joint, group_scores.shape[1]), group_of, n_groups


@lru_cache(maxsize=None)  # n <= DP_BLOCK_ROWS
def _upper_mask(n):
    """Read-only (n, n) mask of the entries on and above the diagonal."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def _cost_rows(p0, p1, j0, j1, scratch):
    """cost[r, j, i] for ends j0 <= j < j1 and starts i < j1 of each row r, the MI
    (bits) of interval [i, j) from the cumulative masses p0, p1 (T, M+1), -inf
    where i >= j; in scratch plane 3. Planes a, b (0, 1) take the bit masses,
    a then term 1, and x (2) log2(px * (a + b)). A zero mass gives a +-0 term,
    and a -0 only meets the other bit's +0 or nonzero term: no mask needed."""
    n_rows = p0.shape[0]
    a, b, x, cost = scratch[:, :n_rows * (j1 - j0) * j1].reshape(4, n_rows, j1 - j0, j1)
    np.subtract(p0[:, j0:j1, None], p0[:, None, :j1], out=a)
    np.subtract(p1[:, j0:j1, None], p1[:, None, :j1], out=b)
    for mass, px, term in ((a, p0[:, -1, None, None], cost), (b, p1[:, -1, None, None], a)):
        # term = mass * (log2(max(mass, F)) - log2(max(px * (a + b), F)))
        np.multiply(px, np.add(a, b, out=x), out=x)
        np.log2(np.maximum(x, PROB_FLOOR, out=x), out=x)
        np.log2(np.maximum(mass, PROB_FLOOR, out=term), out=term)
        np.multiply(mass, np.subtract(term, x, out=term), out=term)
    np.add(cost, a, out=cost)
    # forbid empty/backwards intervals
    np.copyto(cost[:, :, j0:], -np.inf, where=_upper_mask(j1 - j0))
    return cost


def _optimal_partition(joint, out_size, lengths=None):
    """Boundaries of the MI-maximizing split of each row into out_size contiguous intervals.

    ``joint`` is (T, 2, M): T tables at once, row r's observations in its
    first lengths[r] columns (all M by default) and zero mass after them.
    Returns (splits, values): splits[r, k] is the first observation of
    interval k+1 of row r, so its intervals are [0, s0), [s0, s1), ...,
    [s_last, lengths[r]).

    End-major DP over cost[r, j, i], the MI contribution (bits) of merging
    observations [i, j), i < j. Ends go DP_BLOCK_ROWS at a time: a block's
    cost rows are filled once for all T rows, then each of the out_size steps
    takes a leftmost argmax along them, reading ``best`` of earlier ends only
    (earlier blocks, or this block's previous step). The first interval's only
    start is 0, so it takes no argmax; the last is taken only at each row's
    length. A row's ends and starts beyond its length only meet its own
    trailing zero mass, and each row's arithmetic is elementwise, so every row
    gets the splits it would get alone, bit for bit. Time about K*M^2/2 per
    row for K = out_size; memory four T * DP_BLOCK_ROWS * (M+1) scratch planes
    for all blocks (``_cost_rows``', the third reused for the step candidates)
    plus the (T, K+1, M+1) ``best`` table, never an (M+1)^2 matrix.
    ``design_lutset`` keeps each plane within DP_BUDGET_CELLS.
    """
    n_rows, _, width = joint.shape
    lengths = np.full(n_rows, width) if lengths is None else np.asarray(lengths)
    if lengths.min() < out_size:
        raise LutDesignError(f"cannot split {lengths.min()} observations into {out_size} intervals")
    p0 = np.zeros((n_rows, width + 1))
    p1 = np.zeros((n_rows, width + 1))
    np.cumsum(joint[:, 0], axis=1, out=p0[:, 1:])
    np.cumsum(joint[:, 1], axis=1, out=p1[:, 1:])
    best = np.full((n_rows, out_size + 1, width + 1), -np.inf)  # best[r, k, j]: k intervals cover [0, j)
    best[:, 0, 0] = 0.0
    back = np.zeros((n_rows, out_size, width + 1), dtype=np.int64)
    # every block's temporaries, each contiguous: fresh ones per block re-fault
    # their pages each time, and strided views of (rows, M+1) planes are ~35% slower
    scratch = np.empty((4, n_rows * min(DP_BLOCK_ROWS, width) * (width + 1)))
    ends = np.arange(n_rows * min(DP_BLOCK_ROWS, width))
    rows = np.arange(n_rows)
    last = out_size - 1
    for j0 in range(1, width + 1, DP_BLOCK_ROWS):
        j1 = min(j0 + DP_BLOCK_ROWS, width + 1)
        cost = _cost_rows(p0, p1, j0, j1, scratch)
        np.add(cost[:, :, 0], best[:, 0, :1], out=best[:, 1, j0:j1])  # back stays 0
        for k in range(1, last):
            # interval k+1 ends at j: j must leave enough room on both sides
            lo, hi = max(j0, k + 1), min(j1, width - (last - k) + 1)
            if lo < hi:
                n_ends, n_starts = n_rows * (hi - lo), hi - k
                cand = scratch[2, :n_ends * n_starts].reshape(n_ends, n_starts)  # (row, end) by start
                np.add(cost[:, lo - j0:hi - j0, k:hi], best[:, k, None, k:hi],
                       out=cand.reshape(n_rows, hi - lo, n_starts))
                arg = np.argmax(cand, axis=1)
                back[:, k, lo:hi] = (arg + k).reshape(n_rows, hi - lo)
                best[:, k + 1, lo:hi] = cand[ends[:n_ends], arg].reshape(n_rows, hi - lo)
        here = rows[(j0 <= lengths) & (lengths < j1)]
        if last and here.size:  # the last interval, at the rows' ends in this block
            end = lengths[here]
            cand = cost[here, end - j0, last:] + best[here, last, last:j1]
            arg = np.argmax(cand, axis=1)
            back[here, last, end] = arg + last
            best[here, out_size, end] = cand[ends[:here.size], arg]
    splits = np.empty((n_rows, last), dtype=np.int64)
    end = lengths
    for k in range(last, 0, -1):
        end = splits[:, k - 1] = back[rows, k, end]
    return splits, best[rows, out_size, lengths]


def _prebin_groups(group_joint, lengths, limit):
    """Reduce each row's adjacent groups to at most ``limit`` mass-balanced bins.

    ``group_joint`` is (T, 2, n), row r's groups in its first lengths[r]
    columns. Returns (binned, bin_of, n_bins): group y of row r falls in bin
    bin_of[r, y]; rows of at most ``limit`` groups keep one bin per group."""
    n_rows, _, width = group_joint.shape
    keep = np.broadcast_to(np.arange(width), (n_rows, width))
    if limit is None or lengths.max() <= limit:
        return group_joint, keep, lengths
    mass = group_joint.sum(axis=1)
    # pairwise sums over each row's own groups: trailing zeros would change the rounding
    total = np.array([row[:n].sum() for row, n in zip(mass, lengths)])
    quantile = np.cumsum(mass, axis=1) / total[:, None]
    bin_of = np.minimum((quantile * limit).astype(np.int64), limit - 1)
    # ensure bins stay nonempty and monotone
    bin_of = np.maximum.accumulate(bin_of, axis=1)
    first = np.ones(bin_of.shape, dtype=bool)
    first[:, 1:] = bin_of[:, 1:] != bin_of[:, :-1]
    # a row kept whole puts its padding in its last group, which adds zero mass there
    bin_of = np.where((lengths > limit)[:, None], np.cumsum(first, axis=1) - 1,
                      np.minimum(keep, (lengths - 1)[:, None]))
    n_bins = bin_of[np.arange(n_rows), lengths - 1] + 1
    return _sum_by(bin_of, group_joint, n_bins.max()), bin_of, n_bins


def _positive_groups(scores, joint):
    """Sort and tie-merge each row of ``scores`` (T, n), check that its score
    space is symmetric, and gather the strictly positive groups' masses.

    Returns (order, group_of, n_pos, n_zero, right): the stable sort order,
    each sorted observation's group, the counts of positive groups (as many
    as negative ones) and of zero-score groups (0 or 1), and the (T, 2, P)
    masses of each row's positive groups, padded with zero mass to the
    widest row. The merged scores and masses are freed on return, before the
    quantizer DP allocates its scratch.
    """
    order = np.argsort(scores, axis=1, kind="stable")
    g_scores, g_joint, group_of, n_groups = _merge_sorted(
        np.take_along_axis(scores, order, axis=1), np.take_along_axis(joint, order[:, None], axis=2))
    idx = np.arange(g_scores.shape[1])
    n_neg = np.count_nonzero(g_scores < 0, axis=1)
    n_zero = np.count_nonzero((g_scores == 0) & (idx < n_groups[:, None]), axis=1)
    mirror = np.take_along_axis(g_scores, np.maximum(n_groups[:, None] - 1 - idx, 0), axis=1)
    if np.any(2 * n_neg + n_zero != n_groups) \
            or not np.all((g_scores == -mirror) | (idx >= n_neg[:, None])):
        raise LutDesignError("score space is not symmetric")
    pos = np.arange(n_neg.max())
    first_pos = np.minimum((n_neg + n_zero)[:, None] + pos, g_scores.shape[1] - 1)
    right = np.take_along_axis(g_joint, first_pos[:, None], axis=2)
    right *= (pos < n_neg[:, None])[:, None]  # zero mass past each row's groups
    return order, group_of, n_neg, n_zero, right


def _design_symmetric(scores, joint, out_size, zero_upper=None, max_groups=MAX_DESIGN_GROUPS):
    """Quantize T symmetric score spaces at once into odd-symmetric alphabets.

    ``scores`` is (T, n) and ``joint`` (T, 2, n), one table per row. Each
    row's observations are sorted by score and tie-merged; boundaries are
    designed on the nonnegative half and mirrored. Zero-score observations
    (possible for g updates) map to one of the two middle levels according to
    ``zero_upper`` (n,) so that mirror pairs split evenly. Rows with fewer
    positive groups are padded with zero mass for the one quantizer DP.

    Returns (level_of_obs (T, n), [MessageDist] * T).
    """
    scores = np.asarray(scores, dtype=np.float64)
    joint = np.asarray(joint, dtype=np.float64)
    n_rows, n_obs = scores.shape
    half_out = out_size // 2
    # Boundaries are placed among the strictly positive groups. Zero-score
    # mass is uninformative; it is pinned to the two middle levels afterwards,
    # which keeps every level's aggregate LLR strictly away from its
    # neighbours'.
    order, group_of, n_pos, n_zero, right = _positive_groups(scores, joint)
    binned, bin_of, n_bins = _prebin_groups(right, n_pos, max_groups)
    if n_bins.min() < half_out:
        raise LutDesignError("not enough distinct score levels for the alphabet")
    splits, _ = _optimal_partition(binned, half_out, n_bins)
    # searchsorted(splits, bin, side="right") of each row
    interval = np.count_nonzero(np.arange(binned.shape[2])[:, None] >= splits[:, None, :], axis=2)
    pos_levels = half_out + np.take_along_axis(interval, bin_of, axis=1)

    # a negative group takes the mirror level of its mirror positive group
    group = np.arange(2 * n_pos.max() + 1)
    first_pos = (n_pos + n_zero)[:, None]
    mirror_pos = np.where(group >= first_pos, group - first_pos, (n_pos - 1)[:, None] - group)
    level_of_group = np.take_along_axis(pos_levels, np.clip(mirror_pos, 0, right.shape[2] - 1), axis=1)
    level_of_group = np.where(group < n_pos[:, None], out_size - 1 - level_of_group, level_of_group)
    level_sorted = np.take_along_axis(level_of_group, group_of, axis=1)
    zero_sorted = (group_of == n_pos[:, None]) & (n_zero > 0)[:, None]
    if zero_sorted.any():  # the single merged zero group of a row splits by side
        if zero_upper is None:
            raise LutDesignError("zero-score observations need a side rule")
        upper_sorted = np.asarray(zero_upper, dtype=bool)[order]
        level_sorted = np.where(zero_sorted, np.where(upper_sorted, half_out, half_out - 1),
                                level_sorted)
    level_of_obs = np.empty((n_rows, n_obs), dtype=np.int64)
    np.put_along_axis(level_of_obs, order, level_sorted, axis=1)
    return level_of_obs, _output_dists(level_of_obs, joint, out_size)


def _output_dists(level_of_obs, joint, out_size):
    """Per row, the distribution of the messages that ``level_of_obs`` gives the
    observations; each alphabet is checked as it is built."""
    joint_out = _sum_by(level_of_obs, joint, out_size)
    llrs = symmetrize_llrs(_llrs_from_joint(joint_out))
    return [MessageDist(MessageAlphabet(llr), p) for llr, p in zip(llrs, joint_out)]


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
    sigma2 = noise_variance(design_ebn0_db, rate)
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
    (level_of_obs,), (dist,) = _design_symmetric(centers[None], joint[None], 1 << w, max_groups=None)
    steps = np.diff(level_of_obs)
    if np.any(steps < 0):
        raise LutDesignError("channel quantizer mapping is not monotone")
    # a threshold is the grid edge between two cells of adjacent levels
    return edges[1:-1][steps > 0], dist


def _stack(dists):
    """(T, size) translation LLRs and (T, 2, size) joints of parent distributions
    of one alphabet size."""
    return (np.stack([d.alphabet.llr_table for d in dists]), np.stack([d.joint for d in dists]))


def _f_pair_joint(p):
    """p(x, t1, t2) as (T, 2, size^2) for each row of p (T, 2, size): x is the
    XOR of two branch bits, each with joint p[r]."""
    a, b = p[:, 0], p[:, 1]
    return np.stack([
        a[:, :, None] * a[:, None, :] + b[:, :, None] * b[:, None, :],
        a[:, :, None] * b[:, None, :] + b[:, :, None] * a[:, None, :],
    ], axis=1).reshape(p.shape[0], 2, -1)


def build_f_table(dists):
    """Decoding tables for upper-branch (f) updates, one per parent distribution
    in ``dists`` (one alphabet size), designed together: the two messages t1,
    t2 of an update follow its parent; the output keeps the alphabet size.

    The relevant bit is the XOR of the two branch bits; the pair is scored
    with the exact box-plus on the translation LLRs. Returns (mappings,
    [MessageDist]), mappings[r, t1, t2] = t_out for parent r.
    """
    llr, p = _stack(dists)
    size = llr.shape[1]
    # unclipped scores: these are sort keys, and clipping would alias
    # distinct levels once deep distributions saturate; below ~1e-8 the
    # box-plus of two LLRs can cancel to 0 in float: those take t1's side
    scores = f_exact(llr[:, :, None], llr[:, None, :], clip=np.inf)
    t1_upper = np.broadcast_to((np.arange(size) >= size // 2)[:, None], (size, size))
    level_of_obs, outs = _design_symmetric(scores.reshape(len(llr), -1), _f_pair_joint(p), size,
                                           zero_upper=t1_upper.ravel())
    return level_of_obs.reshape(-1, size, size).astype(np.int16), outs


def _msib_f_dist(dists):
    """Outputs of MSIB f updates on ``dists``: min-sum scores take exactly 2^w
    values, one level each, so the designed mapping is the index rule."""
    _, p = _stack(dists)
    size = p.shape[2]
    idx = np.arange(size)
    level_of_obs = msib_f_index(idx[:, None], idx[None, :], size).ravel()
    return _output_dists(np.broadcast_to(level_of_obs, (len(p), size * size)), _f_pair_joint(p), size)


def build_g_table(dists):
    """Decoding tables for lower-branch (g) updates, one per parent distribution
    in ``dists`` (one alphabet size), designed together: the two messages t1,
    t2 of an update follow its parent; the output keeps the alphabet size.

    The relevant bit is the lower-branch bit; the upper-branch bit b is
    assumed correctly fed back at design time. The observation (t1, t2, b) is
    scored with (-1)^b * L(t1) + L(t2), which is exact (no min-sum
    counterpart). Returns (mappings, [MessageDist]), mappings[r, t1, t2, b]
    = t_out for parent r.
    """
    llr, p = _stack(dists)
    n_rows, size = llr.shape
    # p(x, t1, t2, b) = p[b ^ x, t1] * p[x, t2]
    joint = np.empty((n_rows, 2, size, size, 2))
    for x in (0, 1):
        for b in (0, 1):
            joint[:, x, :, :, b] = p[:, b ^ x, :, None] * p[:, x, None, :]
    scores = np.empty((n_rows, size, size, 2))
    scores[..., 0] = llr[:, :, None] + llr[:, None, :]
    scores[..., 1] = -llr[:, :, None] + llr[:, None, :]
    t1_upper = np.broadcast_to((np.arange(size) >= size // 2)[:, None, None], (size, size, 2))
    level_of_obs, outs = _design_symmetric(scores.reshape(n_rows, -1), joint.reshape(n_rows, 2, -1),
                                           size, zero_upper=t1_upper.ravel())
    return level_of_obs.reshape(-1, size, size, 2).astype(np.int16), outs


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
        return decoding_count(self.decoding_tables, self.variant), len(self.translation_tables)


def _batch_cap(size):
    """Tables of alphabet size ``size`` per design batch: as many as keep the
    quantizer DP's scratch planes within DP_BUDGET_CELLS each. A g table has
    at most size^2/4 positive score groups, the unordered pairs {t1, t2} with
    L(t1) + L(t2) > 0 (every g score is such a sum, as -L(t) = L(mirror of t)),
    and at most MAX_DESIGN_GROUPS after pre-binning; an f table has fewer."""
    groups = min(size * size // 4, MAX_DESIGN_GROUPS)
    return max(1, DP_BUDGET_CELLS // (min(DP_BLOCK_ROWS, groups) * (groups + 1)))


def design_lutset(code: PolarCode, tree: DecoderTree, variant: str,
                  design_ebn0_db: float, w: int) -> LutSet:
    """Evolve the channel distribution down the pruned tree and emit tables.

    Per g-edge, and per f-edge of an IB set, a decoding table is designed
    from the parent node's distribution, which both of its inputs follow. An
    MSIB f-edge stores no table: its mapping is the index rule, which gives
    its output distribution directly. The distribution arriving at each leaf
    provides that leaf's translation table.

    The tree is walked one depth at a time: the inner nodes of a depth are
    split into as few equal batches as ``_batch_cap`` allows, and each batch
    is one ``build_g_table`` call (and one ``build_f_table`` or
    ``_msib_f_dist`` call), so the cost follows the depth count, not the
    table count. Each table comes out as it would alone, bit for bit.
    """
    if variant not in LUT_VARIANTS:
        raise LutDesignError(f"unknown variant {variant!r}")
    thresholds, channel = quantize_channel(design_ebn0_db, code.rate, w)
    decoding, translation = {}, {}
    cap = _batch_cap(channel.alphabet.size)
    level = [(tree.root, channel)]
    while level:
        inner = [(node, dist) for node, dist in level if not node.is_leaf]
        translation.update((node.leaf_id, dist.alphabet.llr_table)
                           for node, dist in level if node.is_leaf)
        level = []
        n_batches = -(-len(inner) // cap)
        for i in range(n_batches):
            nodes, dists = zip(*inner[i * len(inner) // n_batches:(i + 1) * len(inner) // n_batches])
            if variant == "ib":
                f_maps, f_dists = build_f_table(dists)
                decoding.update(zip((node.f_edge_id for node in nodes), f_maps))
            else:
                f_dists = _msib_f_dist(dists)
            g_maps, g_dists = build_g_table(dists)
            decoding.update(zip((node.g_edge_id for node in nodes), g_maps))
            level += [*zip((node.left for node in nodes), f_dists),
                      *zip((node.right for node in nodes), g_dists)]
    return LutSet(
        block_len=code.block_len,
        payload_len=code.payload_len,
        crc_len=code.crc_len,
        variant=variant,
        w=w,
        design_ebn0_db=float(design_ebn0_db),
        schedule_hash=tree.schedule_hash(),
        channel_thresholds=thresholds,
        # in id order, which is activation order
        decoding_tables=dict(sorted(decoding.items())),
        translation_tables=dict(sorted(translation.items())),
    )


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
    if variant not in LUT_VARIANTS:
        raise LutDesignError(f"'variant' must be {' or '.join(map(repr, LUT_VARIANTS))}, "
                             f"got {variant!r}")
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
    raw_ebn0 = _field(doc, "design_ebn0_db", int, float)
    try:
        design_ebn0_db = float(raw_ebn0)
    except OverflowError:  # a JSON integer beyond any float
        design_ebn0_db = np.inf
    if not np.isfinite(design_ebn0_db):  # json reads NaN and Infinity too
        raise LutDesignError(f"'design_ebn0_db' must be a finite number, got {raw_ebn0!r}")
    return LutSet(
        block_len=_field(doc, "block_len", int),
        payload_len=_field(doc, "payload_len", int),
        crc_len=_field(doc, "crc_len", int),
        variant=variant,
        w=w,
        design_ebn0_db=design_ebn0_db,
        schedule_hash=_field(doc, "schedule_hash", str),
        channel_thresholds=np.array(thresholds, dtype=np.float64),
        decoding_tables=decoding,
        translation_tables=translation,
    )
