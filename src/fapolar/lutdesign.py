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

Alphabets are kept sorted by LLR and exactly odd-symmetric. A score space's
observations are grouped by score magnitude, every magnitude held by as many
positive as negative scores; boundaries are placed among the magnitudes, on
the masses of their positive members, and a negative score takes the mirror
of the level its magnitude gets. The translation LLRs are symmetrized by
averaging mirrored magnitudes.

A tree depth's distributions are two stacked arrays, one row per node:
translation LLRs (T, S) and joints (T, 2, S). ``build_f_table`` and
``build_g_table`` take a batch of parent rows and run one sort, one tie merge
and one quantizer DP for all of them, rows with fewer groups padded with zero
mass at the end, and return their outputs' rows, checked once per batch
(``_check_dists``). The DP's scratch holds a fixed cell count whatever the
batch, and ``design_lutset`` batches each depth's rows (``_batch_cap``). Each
row's arithmetic is elementwise and in the order a lone table would use, so a
table comes out the same, bit for bit, in any batch.
"""

import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt

import numpy as np

from .arith import f_exact
from .codes import PolarCode
from .tree import LUT_VARIANTS, DecoderTree, decoding_count

PROB_FLOOR = 1e-300
CHANNEL_GRID_CELLS = 2000
# Meta-LLR spaces larger than this are pre-binned (mass quantiles) before the
# quantizer DP; spaces at w <= 4 stay below it untouched.
MAX_DESIGN_GROUPS = 512
# Cells per scratch plane of one quantizer DP call: 16 ends of the channel's 1001 starts.
DP_BUDGET_CELLS = 16 * (CHANNEL_GRID_CELLS // 2 + 1)

LUTSET_FORMAT = "fapolar-lutset-v1"


class LutDesignError(ValueError):
    pass


# what a row of translation LLRs (T, S) or joints (T, 2, S) must be, in checking order
DIST_RULES = ("translation LLRs must be finite", "translation LLRs must be strictly increasing",
              "translation LLRs must be odd-symmetric", "joint must be a distribution")


def _check_dists(llr, joint=None):
    """Raise a ``LutDesignError`` for the first row of ``llr`` (T, S), and of
    ``joint`` (T, 2, S) if given, that breaks a rule: even alphabet size >= 2,
    then ``DIST_RULES``, the text of the first rule that row breaks."""
    if llr.ndim != 2 or llr.shape[1] < 2 or llr.shape[1] % 2:
        raise LutDesignError("alphabet size must be even and >= 2")
    with np.errstate(invalid="ignore"):  # inf - inf, in a row refused as not finite
        bad = np.stack([~np.isfinite(llr).all(axis=1),
                        ~(np.diff(llr, axis=1) > 0).all(axis=1),
                        ~(llr == -llr[:, ::-1]).all(axis=1),
                        np.zeros(len(llr), dtype=bool) if joint is None else
                        (joint < 0).any(axis=(1, 2)) | (abs(joint.sum(axis=(1, 2)) - 1.0) > 1e-9)])
    if bad.any():
        raise LutDesignError(DIST_RULES[np.argmax(bad[:, np.argmax(bad.any(axis=0))])])


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


def _merge_sorted(keys, joint):
    """Group equal neighbours in each row of ascending ``keys`` (T, n) and sum
    their ``joint`` (T, 2, n) masses, a lossless merge. Returns (group_joint,
    group_of, n_groups): row r has n_groups[r] groups, padded with zero mass to
    the most groups of any row, and group_of[r, y] is observation y's group."""
    new_group = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=new_group[:, 1:])
    group_of = np.cumsum(new_group, axis=1) - 1
    n_groups = group_of[:, -1] + 1
    return _sum_by(group_of, joint, n_groups.max()), group_of, n_groups


@lru_cache(maxsize=1)  # the tallest block's, sliced for the others
def _upper_mask(n):
    """Read-only (n, n) mask of the entries on and above the diagonal."""
    mask = np.triu(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def _cost_rows(p0, p1, j0, j1, scratch, upper):
    """cost[r, j, i] for ends j0 <= j < j1 and starts i < j1 of each row r, the MI
    (bits) of interval [i, j) from the cumulative masses p0, p1 (T, M+1), -inf
    where ``upper`` (i >= j); in scratch plane 3. Planes a, b (0, 1) take the bit
    masses, a then term 1, and x (2) log2(px * (a + b)). A zero mass gives a +-0
    term, and a -0 only meets the other bit's +0 or nonzero term: no mask needed."""
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
    np.copyto(cost[:, :, j0:], -np.inf, where=upper)
    return cost


def _optimal_partition(joint, out_size, lengths=None):
    """Boundaries of the MI-maximizing split of each row into out_size contiguous intervals.

    ``joint`` is (T, 2, M): T tables at once, row r's observations in its
    first lengths[r] columns (all M by default) and zero mass after them.
    Returns (splits, values): splits[r, k] is the first observation of
    interval k+1 of row r, so its intervals are [0, s0), [s0, s1), ...,
    [s_last, lengths[r]).

    End-major DP over cost[r, j, i], the MI contribution (bits) of merging
    observations [i, j), i < j. Ends go in blocks of DP_BUDGET_CELLS cells
    (K/2 ends at least, as each block runs all K steps): narrow early blocks
    take many ends, wide late ones few. A block's cost rows are filled once
    for all T rows, then each of the out_size steps takes a leftmost argmax
    along them, reading ``best`` of earlier ends only. The first interval's
    only start is 0, so it takes no argmax; the last is taken only at each
    row's length. A row's ends and starts beyond its length only meet its own
    trailing zero mass, and each row's arithmetic is elementwise, so every
    row gets the splits it would get alone, bit for bit, in any blocks. Time
    about K*M^2/2 per row for K = out_size; memory four scratch planes of the
    largest block (``_cost_rows``', the third for step candidates) and the
    (T, K+1, M+1) ``best``, no (M+1)^2 matrix.
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
    back = np.zeros((n_rows, out_size, width + 1), dtype=np.min_scalar_type(width))
    blocks, j0, cap = [], 1, DP_BUDGET_CELLS // n_rows
    while j0 <= width:  # the most ends r whose n_rows * r * (j0 + r) cells fit, K/2 at least
        r = max(1, out_size // 2, (isqrt(j0 * j0 + 4 * cap) - j0) // 2)
        blocks.append((j0, min(j0 + r, width + 1)))
        j0 = blocks[-1][1]
    upper = _upper_mask(max(j1 - j0 for j0, j1 in blocks))
    # every block's temporaries, each contiguous: fresh ones per block re-fault
    # their pages each time, and strided views of (rows, M+1) planes are ~35% slower
    scratch = np.empty((4, n_rows * max((j1 - j0) * j1 for j0, j1 in blocks)))
    ends = np.arange(n_rows * len(upper))
    rows = np.arange(n_rows)
    last = out_size - 1
    for j0, j1 in blocks:
        cost = _cost_rows(p0, p1, j0, j1, scratch, upper[:j1 - j0, :j1 - j0])
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


def _magnitude_groups(scores, joint):
    """Group the observations of each row of ``scores`` (T, n) by score
    magnitude, check that the row's score space is symmetric, and gather the
    masses of each magnitude's positive-score members.

    One stable sort on |score| puts each row's magnitudes in ascending order,
    zero scores keyed +inf so that they form one last group. A row is
    symmetric when every magnitude has as many positive as negative
    observations: the running sign sum is 0 at every group end.

    Returns (group_of, sign, n_pos, right): each observation's group (in the
    narrowest integer type that holds a row's positions) and score sign
    (int8), in observation order; the count of nonzero magnitudes; and
    the (T, 2, P) masses of their positive members, ascending, padded with
    zero mass to the widest row. The sorted copies are freed on return,
    before the quantizer DP allocates its scratch.
    """
    n_rows, n_obs = scores.shape
    rows = np.arange(n_rows)[:, None]
    key = np.abs(scores)
    key[scores == 0] = np.inf
    order = np.argsort(key, axis=1, kind="stable")
    key = key[rows, order]
    sign = np.sign(scores).astype(np.int8)
    sorted_sign = sign[rows, order]
    positive = np.take_along_axis(joint, order[:, None], axis=2)
    positive *= (sorted_sign > 0)[:, None]
    right, sorted_group, n_groups = _merge_sorted(key, positive)
    del key, positive
    group_end = np.ones(scores.shape, dtype=bool)
    np.not_equal(sorted_group[:, 1:], sorted_group[:, :-1], out=group_end[:, :-1])
    if np.cumsum(sorted_sign, axis=1)[group_end].any():
        raise LutDesignError("score space is not symmetric")
    group_of = np.empty(scores.shape, dtype=np.min_scalar_type(n_obs))
    group_of[rows, order] = sorted_group
    n_pos = n_groups - (sign == 0).any(axis=1)
    return group_of, sign, n_pos, right[:, :, :n_pos.max()]


def _design_symmetric(scores, joint, out_size, max_groups=MAX_DESIGN_GROUPS):
    """Quantize T symmetric score spaces at once into odd-symmetric alphabets.

    ``scores`` is (T, n) and ``joint`` (T, 2, n), one table per row. Each
    row's observations are grouped by score magnitude (``_magnitude_groups``)
    and the quantizer DP splits the positive members' masses into out_size/2
    intervals of ascending magnitude. An observation in interval k takes level
    out_size/2 + k if its score is positive, out_size/2 - 1 - k if negative.
    A zero score is uninformative and takes a middle level by its position:
    the upper one in the upper half of its row's observation order, the lower
    one in the lower half. The f and g callers order observations t1-major,
    so that half is t1's, and each mirror pair splits evenly; pinning zero
    mass there keeps every level's LLR strictly away from its neighbours'.
    Rows with fewer magnitudes are padded with zero mass for the one DP.

    Returns level_of_obs (T, n) and the outputs' (llr, joint) of ``_output_dists``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    joint = np.asarray(joint, dtype=np.float64)
    n_obs = scores.shape[1]
    half_out = out_size // 2
    group_of, sign, n_pos, right = _magnitude_groups(scores, joint)
    del scores  # f and g callers pass theirs in unnamed: freed here, before the DP
    binned, bin_of, n_bins = _prebin_groups(right, n_pos, max_groups)
    if n_bins.min() < half_out:
        raise LutDesignError("not enough distinct score levels for the alphabet")
    splits, _ = _optimal_partition(binned, half_out, n_bins)
    # searchsorted(splits, bin, side="right") of each row
    interval = np.count_nonzero(np.arange(binned.shape[2])[:, None] >= splits[:, None, :], axis=2)
    interval = np.take_along_axis(interval, bin_of, axis=1)
    # the zero group (past every row's nonzero magnitudes) reads any interval: sign 0 drops it
    rank = np.take_along_axis(interval, np.minimum(group_of, interval.shape[1] - 1), axis=1)
    middle = np.where(np.arange(n_obs) >= n_obs // 2, half_out, half_out - 1)
    level_of_obs = np.select([sign > 0, sign < 0], [half_out + rank, half_out - 1 - rank], middle)
    return level_of_obs, *_output_dists(level_of_obs, joint, out_size)


def _output_dists(level_of_obs, joint, out_size):
    """Translation LLRs (T, out_size) and joints (T, 2, out_size) of the messages
    that ``level_of_obs`` gives each row's observations, checked once for the batch."""
    joint_out = _sum_by(level_of_obs, joint, out_size)
    llr = symmetrize_llrs(_llrs_from_joint(joint_out))
    _check_dists(llr, joint_out)
    return llr, joint_out


def quantize_channel(design_ebn0_db, rate, w):
    """MI-maximizing quantizer of the binary-input AWGN channel.

    Returns (thresholds, llr, joint): ``thresholds`` are the 2^w - 1 sorted
    real boundaries on the channel output; a received value maps to the count
    of thresholds strictly below it, a message whose translation LLR is
    llr[t] (2^w,) and whose joint with the code bit is joint[:, t] (2, 2^w).
    """
    from scipy.special import ndtr  # not at module level: it is most of `import fapolar`
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
    (level_of_obs,), (llr,), (out,) = _design_symmetric(centers[None], joint[None], 1 << w,
                                                        max_groups=None)
    steps = np.diff(level_of_obs)
    if np.any(steps < 0):
        raise LutDesignError("channel quantizer mapping is not monotone")
    # a threshold is the grid edge between two cells of adjacent levels
    return edges[1:-1][steps > 0], llr, out


def _f_pair_joint(p):
    """p(x, t1, t2) as (T, 2, size^2) for each row of p (T, 2, size): x is the
    XOR of two branch bits, each with joint p[r]."""
    a, b = p[:, 0], p[:, 1]
    return np.stack([
        a[:, :, None] * a[:, None, :] + b[:, :, None] * b[:, None, :],
        a[:, :, None] * b[:, None, :] + b[:, :, None] * a[:, None, :],
    ], axis=1).reshape(p.shape[0], 2, -1)


def build_f_table(llr, p):
    """Decoding tables for upper-branch (f) updates, one per parent row of
    translation LLRs ``llr`` (T, S) and joints ``p`` (T, 2, S), designed
    together: the two messages t1, t2 of an update follow its parent; the
    output keeps the alphabet size.

    The relevant bit is the XOR of the two branch bits; the pair is scored
    with the exact box-plus on the translation LLRs. Returns mappings[r, t1,
    t2] = t_out for parent r, then the outputs' (llr, joint) rows.
    """
    size = llr.shape[1]
    # unclipped scores: these are sort keys, and clipping would alias
    # distinct levels once deep distributions saturate; below ~1e-8 the
    # box-plus of two LLRs can cancel to 0 in float: such a pair takes the
    # middle level on t1's side (its half of the t1-major observation order)
    level_of_obs, *out = _design_symmetric(
        f_exact(llr[:, :, None], llr[:, None, :], clip=np.inf).reshape(len(llr), -1),
        _f_pair_joint(p), size)
    return level_of_obs.reshape(-1, size, size).astype(np.int16), *out


def _msib_f_dist(p):
    """(llr, joint) outputs of MSIB f updates on parent joints ``p`` (T, 2, S):
    min-sum scores take exactly 2^w values, one level each, so the designed
    mapping is the index rule."""
    size = p.shape[2]
    idx = np.arange(size)
    level_of_obs = msib_f_index(idx[:, None], idx[None, :], size).ravel()
    return _output_dists(np.broadcast_to(level_of_obs, (len(p), size * size)), _f_pair_joint(p), size)


def build_g_table(llr, p):
    """Decoding tables for lower-branch (g) updates, one per parent row of
    translation LLRs ``llr`` (T, S) and joints ``p`` (T, 2, S), designed
    together: the two messages t1, t2 of an update follow its parent; the
    output keeps the alphabet size.

    The relevant bit is the lower-branch bit; the upper-branch bit b is
    assumed correctly fed back at design time. The observation (t1, t2, b) is
    scored with (-1)^b * L(t1) + L(t2), which is exact (no min-sum
    counterpart). Returns mappings[r, t1, t2, b] = t_out for parent r, then
    the outputs' (llr, joint) rows.
    """
    n_rows, size = llr.shape
    # p(x, t1, t2, b) = p[b ^ x, t1] * p[x, t2]
    joint = np.empty((n_rows, 2, size, size, 2))
    for x in (0, 1):
        for b in (0, 1):
            joint[:, x, :, :, b] = p[:, b ^ x, :, None] * p[:, x, None, :]
    level_of_obs, *out = _design_symmetric(
        np.stack([llr[:, :, None] + llr[:, None, :], -llr[:, :, None] + llr[:, None, :]],
                 axis=-1).reshape(n_rows, -1),
        joint.reshape(n_rows, 2, -1), size)
    return level_of_obs.reshape(-1, size, size, 2).astype(np.int16), *out


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
    """Tables of alphabet size ``size`` per design batch: as many as let a DP block
    hold 16 ends of the widest, as the channel's widest blocks do: 15 at w=4, 1 at
    w >= 6. A g table has at most size^2/4 positive score groups, the unordered
    pairs {t1, t2} with L(t1) + L(t2) > 0 (every g score is such a sum, as -L(t)
    = L(mirror of t)), and at most MAX_DESIGN_GROUPS after binning; f has fewer."""
    groups = min(size * size // 4, MAX_DESIGN_GROUPS)
    ends = DP_BUDGET_CELLS // (CHANNEL_GRID_CELLS // 2 + 1)
    return max(1, DP_BUDGET_CELLS // (min(ends, groups) * (groups + 1)))


def design_lutset(code: PolarCode, tree: DecoderTree, variant: str,
                  design_ebn0_db: float, w: int) -> LutSet:
    """Evolve the channel distribution down the pruned tree and emit tables.

    Per g-edge, and per f-edge of an IB set, a decoding table is designed
    from the parent node's distribution, which both of its inputs follow. An
    MSIB f-edge stores no table: its mapping is the index rule, which gives
    its output distribution directly. The distribution arriving at each leaf
    provides that leaf's translation table.

    The tree is walked one depth at a time, one (llr, joint) row per node:
    the inner rows are split into as few equal batches as ``_batch_cap``
    allows, and each batch is one ``build_g_table`` call (and one
    ``build_f_table`` or ``_msib_f_dist`` call), so the cost follows the depth
    count, not the table count. Each table comes out as it would alone.
    """
    if variant not in LUT_VARIANTS:
        raise LutDesignError(f"unknown variant {variant!r}")
    thresholds, llr, joint = quantize_channel(design_ebn0_db, code.rate, w)
    decoding, translation = {}, {}
    cap = _batch_cap(llr.size)
    nodes, llr, joint = [tree.root], llr[None], joint[None]  # a depth's nodes, one row each
    while nodes:
        translation.update((node.leaf_id, row) for node, row in zip(nodes, llr) if node.is_leaf)
        inner = [i for i, node in enumerate(nodes) if not node.is_leaf]
        nodes, llr, joint = [nodes[i] for i in inner], llr[inner], joint[inner]
        f_outs, g_outs = [], []
        n_batches = -(-len(nodes) // cap)
        for i in range(n_batches):
            rows = slice(i * len(nodes) // n_batches, (i + 1) * len(nodes) // n_batches)
            if variant == "ib":
                f_maps, *f_out = build_f_table(llr[rows], joint[rows])
                decoding.update(zip((node.f_edge_id for node in nodes[rows]), f_maps))
            else:
                f_out = _msib_f_dist(joint[rows])
            g_maps, *g_out = build_g_table(llr[rows], joint[rows])
            decoding.update(zip((node.g_edge_id for node in nodes[rows]), g_maps))
            f_outs.append(f_out)
            g_outs.append(g_out)
        nodes = [node.left for node in nodes] + [node.right for node in nodes]
        if nodes:
            llr, joint = map(np.concatenate, zip(*f_outs, *g_outs))
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
    for key, entry in _field(doc, "translation_tables", dict).items():
        table_id = _table_id("translation", key)
        try:
            llr = np.asarray(entry, dtype=np.float64)
            _check_dists(llr[None])
        except (LutDesignError, TypeError, ValueError) as err:
            raise LutDesignError(f"translation table {key}: {err}") from None
        if llr.size != size:
            raise LutDesignError(f"translation table {key}: {llr.size} LLRs, w={w} needs {size}")
        translation[table_id] = llr
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
