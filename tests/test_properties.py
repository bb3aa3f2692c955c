"""Property tests (hypothesis): the list engine against a node-by-node
reference walk of the same tree, the rate-1/SPC constituent decoders against
their split-by-split form, the arithmetic kernels' in-place forms against
their allocating forms and against the formulas they replaced, the blocked
quantizer DP against the full-matrix DP, tables designed in one batch against
the same tables designed one at a time, and the CRC generator product against
the per-bit register loop. Examples are derandomized (see conftest)."""

import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import fapolar as fp
from fapolar import lutdesign
from fapolar.arith import LLR_CLIP, combine_bits, f_exact, f_minsum, g_func, metric_increment
from fapolar.codes import crc_bits
from fapolar.listdec import decode_rate0, decode_rate1, decode_rep, decode_spc
from fapolar.tree import NodeKind

LLRS = st.floats(-2 * LLR_CLIP, 2 * LLR_CLIP, allow_nan=False)  # past the clip, with +-0.0


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# engine vs reference walk

CONSTITUENT_DECODERS = {
    NodeKind.R0: decode_rate0,
    NodeKind.REP: decode_rep,
    NodeKind.R1: decode_rate1,
    NodeKind.SPC: decode_spc,
}


def reference_scl(llr, code, tree, list_size, mode):
    """List decoding node by node on any decoder tree: recursive f/g over all
    paths, one metric increment per single-bit leaf added in leaf order, the
    constituent decoder at each special leaf. Returns (x_hats, metrics), best
    metric first."""
    f = f_exact if mode == "exact" else f_minsum

    def rec(alpha, node, mu):
        """(origin, beta, mu): survivor i descends from path origin[i] of alpha."""
        if node.size == 1:
            keep = mu + metric_increment(0, alpha[:, 0], mode)
            if code.frozen_mask[node.span_start]:
                return np.arange(mu.size), np.zeros((mu.size, 1), np.uint8), keep
            fork = mu + metric_increment(1, alpha[:, 0], mode)
            cands = np.stack([keep, fork], axis=1).ravel()
            sel = np.argsort(cands, kind="stable")[:list_size]
            return sel // 2, (sel % 2).astype(np.uint8)[:, None], cands[sel]
        if node.is_leaf:
            origin, mu, beta = CONSTITUENT_DECODERS[node.kind](mu, alpha, list_size)
            return origin, beta, mu
        half = node.size // 2
        a, b = alpha[:, :half], alpha[:, half:]
        o1, left, mu = rec(f(a, b), node.left, mu)
        o2, right, mu = rec(g_func(a[o1], b[o1], left), node.right, mu)
        return o1[o2], np.concatenate([left[o2] ^ right, right], axis=1), mu

    _, x_hats, metrics = rec(np.asarray(llr)[None, :], tree.root, np.zeros(1))
    order = np.argsort(metrics, kind="stable")
    return x_hats[order], metrics[order]


@st.composite
def frames(draw):
    """(code with a random frozen mask, channel LLRs)."""
    block_len = draw(st.sampled_from([8, 16, 32, 64]))
    frozen_frac = draw(st.floats(0.2, 0.95))
    uniform = draw(hnp.arrays(np.float64, block_len, elements=st.floats(0, 1)))
    frozen = uniform < frozen_frac
    frozen[-1] = False                              # at least one information bit
    info = np.flatnonzero(~frozen)
    code = dataclasses.replace(fp.construct(block_len, info.size, 0), frozen_mask=frozen)
    return code, draw(hnp.arrays(np.float64, block_len, elements=LLRS))


@given(frames(), st.sampled_from([1, 2, 4, 8]), st.sampled_from(["approx", "exact"]))
def test_engine_equals_reference_walk_bit_for_bit(frame, list_size, mode):
    code, llr = frame
    tree = fp.sc_tree(code)
    cfg = fp.ListConfig(list_size=list_size, metric_mode=mode)
    res = fp.ListEngine(code, tree, cfg).decode(llr)
    x_hats, metrics = reference_scl(llr, code, tree, list_size, mode)
    assert same_bits(res.x_hats, x_hats)
    assert same_bits(res.metrics, metrics)


@given(frames(), st.sets(st.sampled_from(["r0", "r1", "rep", "spc"]), min_size=1),
       st.sampled_from([1, 2, 4, 8]), st.sampled_from(["approx", "exact"]))
def test_engine_equals_reference_walk_on_pruned_trees(frame, kinds, list_size, mode):
    # the compiled steps on random pruned trees: special leaves, and all-frozen
    # interior nodes (level by level in the engine) when R0 is not pruned
    code, llr = frame
    tree = fp.build_tree(code, fp.parse_kinds(",".join(sorted(kinds))))
    cfg = fp.ListConfig(list_size=list_size, metric_mode=mode)
    res = fp.ListEngine(code, tree, cfg).decode(llr)
    x_hats, metrics = reference_scl(llr, code, tree, list_size, mode)
    assert same_bits(res.x_hats, x_hats)
    assert same_bits(res.metrics, metrics)


# ---------------------------------------------------------------------------
# rate-1 / SPC decoders vs their split-by-split form

def stepwise_prune(keep, fork, list_size):
    cands = np.stack([keep, fork], axis=1).ravel()
    sel = np.argsort(cands, kind="stable")[:list_size]
    return sel // 2, (sel % 2).astype(np.uint8), cands[sel]


def stepwise_rate1(metrics, alpha, list_size):
    """Every one of the min(L-1, size) splits, flipping ``beta`` as it goes."""
    order = np.argsort(np.abs(alpha), axis=1, kind="stable")
    mag = np.take_along_axis(np.abs(alpha), order, axis=1)
    beta = (alpha < 0).astype(np.uint8)
    mu = np.asarray(metrics, dtype=np.float64).copy()
    parent = np.arange(alpha.shape[0])
    for step in range(min(list_size - 1, alpha.shape[1])):
        sel, fork, mu = stepwise_prune(mu, mu + mag[parent, step], list_size)
        parent, beta = parent[sel], beta[sel]
        flip = fork == 1
        beta[flip, order[parent[flip], step]] ^= 1
    return parent, mu, beta


def stepwise_spc(metrics, alpha, list_size):
    """Every one of the min(L, size) - 1 splits, tracking parity per path."""
    order = np.argsort(np.abs(alpha), axis=1, kind="stable")
    mag = np.take_along_axis(np.abs(alpha), order, axis=1)
    beta = (alpha < 0).astype(np.uint8)
    min_mag = mag[:, 0]
    parity = np.bitwise_xor.reduce(beta, axis=1)
    mu = np.asarray(metrics, dtype=np.float64) + parity * min_mag
    parent = np.arange(alpha.shape[0])
    for step in range(1, min(list_size, alpha.shape[1])):
        cost = mag[parent, step] + (1.0 - 2.0 * parity) * min_mag[parent]
        sel, fork, mu = stepwise_prune(mu, mu + cost, list_size)
        parent, beta, parity = parent[sel], beta[sel], parity[sel]
        flip = fork == 1
        beta[flip, order[parent[flip], step]] ^= 1
        parity[flip] ^= 1
    rows = np.arange(beta.shape[0])
    min_pos = order[parent, 0]
    beta[rows, min_pos] = 0
    beta[rows, min_pos] = np.bitwise_xor.reduce(beta, axis=1)
    return parent, mu, beta


# 16 odd-symmetric levels, as a 4-bit translation table gives: magnitudes tie often
LEVELS16 = np.array([-4.0, -3.0, -2.0, -1.5, -1.0, -0.75, -0.5, -0.25,
                     0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0])


@st.composite
def span_inputs(draw):
    """(incoming metrics, tied and unsorted; span LLRs; list size)."""
    list_size = draw(st.sampled_from([1, 2, 3, 4, 8, 32]))
    size = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    paths = draw(st.integers(1, list_size))
    metrics = draw(hnp.arrays(np.float64, paths, elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    levels = draw(hnp.arrays(np.int8, (paths, size), elements=st.integers(0, 15)))
    return metrics, LEVELS16[levels], list_size


@given(span_inputs(), st.sampled_from(["r1", "spc"]))
def test_rate1_spc_equal_split_by_split_form_in_order(inputs, kind):
    decoder, reference = {"r1": (decode_rate1, stepwise_rate1),
                          "spc": (decode_spc, stepwise_spc)}[kind]
    for got, want in zip(decoder(*inputs), reference(*inputs), strict=True):
        assert same_bits(got, want)  # parent, mu, beta


# ---------------------------------------------------------------------------
# kernels: out= forms

@st.composite
def operand_pairs(draw):
    """Two operands of one shape: Python floats, lists, or 2-D arrays."""
    form = draw(st.sampled_from(["scalar", "list", "array"]))
    if form == "scalar":
        return draw(LLRS), draw(LLRS)
    shape = (draw(st.integers(1, 6)),) if form == "list" else \
        (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    a, b = (draw(hnp.arrays(np.float64, shape, elements=LLRS)) for _ in range(2))
    return (a.tolist(), b.tolist()) if form == "list" else (a, b)


def out_like(*operands):
    return np.full(np.broadcast(*operands).shape, np.nan)


@given(operand_pairs())
def test_f_exact_out_equals_allocating_form(ab):
    out = out_like(*ab)
    assert f_exact(*ab, out=out) is out
    assert same_bits(out, f_exact(*ab))


@given(operand_pairs())
def test_f_minsum_out_equals_allocating_form(ab):
    out = out_like(*ab)
    assert f_minsum(*ab, out=out) is out
    assert same_bits(out, f_minsum(*ab))


@given(operand_pairs(), st.data())
def test_g_func_out_equals_allocating_form(ab, data):
    shape = np.broadcast(*ab).shape
    bit = data.draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 1)))
    out = out_like(*ab)
    assert g_func(*ab, bit, out=out) is out
    assert same_bits(out, g_func(*ab, bit))


@given(st.integers(1, 4), st.integers(1, 8), st.data())
def test_combine_bits_out_equals_allocating_form(rows, half, data):
    left, right = (data.draw(hnp.arrays(np.uint8, (rows, half), elements=st.integers(0, 1)))
                   for _ in range(2))
    beta = np.concatenate([left, right], axis=1)
    parent = np.concatenate([left ^ right, right], axis=1)  # the two-argument form's result
    out = np.full((rows, 2 * half), 7, dtype=np.uint8)
    assert combine_bits(beta, out=out) is out
    assert same_bits(out, parent)
    assert same_bits(combine_bits(beta), parent)
    assert same_bits(combine_bits(beta[0].tolist()), parent[0])
    assert same_bits(beta, np.concatenate([left, right], axis=1))  # inputs left as they were
    assert combine_bits(beta, out=beta) is beta
    assert same_bits(beta, parent)


# ---------------------------------------------------------------------------
# kernels: the values of the first formulation

def f_exact_clip_form(a, b, clip=LLR_CLIP):
    """The box-plus as first written: clip, four abs, clip of the result."""
    a = np.clip(np.asarray(a, dtype=np.float64), -clip, clip)
    b = np.clip(np.asarray(b, dtype=np.float64), -clip, clip)
    sign = np.where((a < 0) != (b < 0), -1.0, 1.0)
    mag_lo = np.minimum(np.abs(a), np.abs(b))
    mag_hi = np.maximum(np.abs(a), np.abs(b))
    mag = mag_lo + np.log1p(np.exp(-(mag_hi + mag_lo))) - np.log1p(np.exp(-(mag_hi - mag_lo)))
    return np.clip(sign * mag, -clip, clip)


@given(operand_pairs())
def test_f_exact_keeps_clip_form_values(ab):
    assert same_bits(np.asarray(f_exact(*ab)), np.asarray(f_exact_clip_form(*ab)))


# the kernels as they were before their bodies were cut to fewer numpy passes

def f_exact_where_form(a, b, clip=LLR_CLIP):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sign = np.where((a < 0) != (b < 0), -1.0, 1.0)
    mag_a = np.minimum(np.abs(a), clip)
    mag_b = np.minimum(np.abs(b), clip)
    far = np.log1p(np.exp(-(mag_a + mag_b)))
    near = np.log1p(np.exp(-np.abs(mag_a - mag_b)))
    return np.multiply(np.minimum(mag_a, mag_b) + far - near, sign)


def f_minsum_where_form(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sign = np.where((a < 0) != (b < 0), -1.0, 1.0)
    return np.multiply(np.minimum(np.abs(a), np.abs(b)), sign)


def g_func_where_form(a, b, bit):
    a = np.asarray(a, dtype=np.float64)
    return np.add(np.where(np.asarray(bit) != 0, -a, a), b)


def metric_increment_where_form(bit, llr, mode):
    llr = np.asarray(llr, dtype=np.float64)
    flip = np.asarray(bit) != 0
    if mode == "approx":
        return np.where(flip != (llr < 0), np.abs(llr), 0.0)
    clipped = np.minimum(np.maximum(llr, -LLR_CLIP), LLR_CLIP)
    return np.logaddexp(0.0, np.where(flip, clipped, -clipped))


def equal_but_zero_signs(x, y):
    """Equal values, and equal signs wherever they are not zero."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.shape == y.shape and np.array_equal(x, y)
            and np.array_equal(np.signbit(x[x != 0]), np.signbit(y[y != 0])))


# +-0.0, beyond +-LLR_CLIP, 1e-300..1e-6 (where the box-plus cancels) and the
# subnormal end, so that products of two operands underflow
EDGE_LLRS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160]),
    st.floats(-4 * LLR_CLIP, 4 * LLR_CLIP, allow_nan=False),
    st.builds(lambda mag, neg: -mag if neg else mag, st.floats(1e-300, 1e-6), st.booleans()),
)


@st.composite
def edge_operands(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    return tuple(draw(hnp.arrays(np.float64, shape, elements=EDGE_LLRS)) for _ in range(2))


@given(edge_operands(), st.sampled_from([LLR_CLIP, np.inf]))
def test_f_exact_equals_where_form(ab, clip):
    # bit for bit, zero signs included
    assert same_bits(f_exact(*ab, clip=clip), f_exact_where_form(*ab, clip=clip))


@given(edge_operands())
def test_f_minsum_equals_where_form(ab):
    # copysign takes a zero's sign from a*b: only the sign of zeros may differ
    assert equal_but_zero_signs(f_minsum(*ab), f_minsum_where_form(*ab))


@given(edge_operands(), st.data())
def test_g_func_equals_where_form(ab, data):
    bit = data.draw(hnp.arrays(np.uint8, ab[0].shape, elements=st.integers(0, 1)))
    assert same_bits(g_func(*ab, bit), g_func_where_form(*ab, bit))


@given(hnp.arrays(np.float64, st.integers(1, 8), elements=EDGE_LLRS),
       st.sampled_from([0, 1, "pair", "array"]), st.sampled_from(["approx", "exact"]), st.data())
def test_metric_increment_equals_where_form(llr, bit, mode, data):
    if bit == "pair":
        bit = np.array([[False], [True]])
    elif bit == "array":
        bit = data.draw(hnp.arrays(np.int64, llr.shape, elements=st.integers(0, 1)))
    assert same_bits(metric_increment(bit, llr, mode), metric_increment_where_form(bit, llr, mode))


@given(hnp.arrays(np.float64, st.integers(1, 8), elements=LLRS),
       st.sampled_from(["approx", "exact"]))
def test_metric_increment_pair_equals_single_bits(llr, mode):
    pair = metric_increment(np.array([[0], [1]]), llr, mode)
    assert same_bits(pair[0], metric_increment(0, llr, mode))
    assert same_bits(pair[1], metric_increment(1, llr, mode))


# ---------------------------------------------------------------------------
# quantizer DP vs the full-matrix DP it replaced

def matrix_partition(joint, out_size):
    """The quantizer DP as first written: the whole cost[i, j] matrix, and per
    step an argmax down each column of best[:, None] + cost."""
    p0 = np.concatenate([[0.0], np.cumsum(joint[0])])
    p1 = np.concatenate([[0.0], np.cumsum(joint[1])])
    px0, px1 = p0[-1], p1[-1]
    a = p0[None, :] - p0[:, None]
    b = p1[None, :] - p1[:, None]
    tot = a + b
    floor = lutdesign.PROB_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        term0 = np.where(a > 0, a * (np.log2(np.maximum(a, floor)) -
                                     np.log2(np.maximum(px0 * tot, floor))), 0.0)
        term1 = np.where(b > 0, b * (np.log2(np.maximum(b, floor)) -
                                     np.log2(np.maximum(px1 * tot, floor))), 0.0)
    cost = term0 + term1
    n_obs = joint.shape[1]
    cost[np.tril_indices(n_obs + 1)] = -np.inf
    best = np.full(n_obs + 1, -np.inf)
    best[0] = 0.0
    back = np.zeros((out_size, n_obs + 1), dtype=np.int64)
    for k in range(out_size):
        cand = best[:, None] + cost
        lo_j, hi_j = k + 1, n_obs - (out_size - 1 - k)
        nxt = np.full(n_obs + 1, -np.inf)
        sl = cand[:, lo_j:hi_j + 1]
        back[k, lo_j:hi_j + 1] = np.argmax(sl, axis=0)
        nxt[lo_j:hi_j + 1] = sl[back[k, lo_j:hi_j + 1], np.arange(hi_j + 1 - lo_j)]
        best = nxt
    splits = []
    j = n_obs
    for k in range(out_size - 1, 0, -1):
        j = back[k, j]
        splits.append(j)
    return np.array(splits[::-1], dtype=np.int64), float(best[n_obs])


# the module's block height, and smaller ones that put more block edges in reach
DP_ROWS = [1, 2, 3, 7, lutdesign.DP_BLOCK_ROWS]


@st.composite
def dp_joints(draw, rows, min_obs=1):
    """(2, n_obs) masses, n_obs on both sides of the block height. Masses are
    zero (all-zero columns make exact cost ties), near PROB_FLOOR, or ordinary."""
    n_obs = draw(st.integers(max(min_obs, rows - 3), rows + 4))
    mass = st.one_of(st.just(0.0), st.floats(1e-305, 1e-295), st.floats(1e-3, 1.0))
    return draw(hnp.arrays(np.float64, (2, n_obs), elements=mass, fill=st.nothing()))


@pytest.mark.parametrize("rows", DP_ROWS)
@settings(max_examples=30)  # each example runs every out_size
@given(data=st.data())
def test_blocked_dp_equals_matrix_dp_bit_for_bit(rows, data):
    joint = data.draw(dp_joints(rows))
    n_obs = joint.shape[1]
    with mock.patch.object(lutdesign, "DP_BLOCK_ROWS", rows):
        for out_size in range(1, n_obs + 1):
            (splits,), (value,) = lutdesign._optimal_partition(joint[None], out_size)
            ref_splits, ref_value = matrix_partition(joint, out_size)
            assert same_bits(splits, ref_splits)
            assert same_bits(np.float64(value), np.float64(ref_value))


@pytest.mark.parametrize("rows", DP_ROWS[:-1])
@settings(max_examples=30)  # each example runs every out_size
@given(data=st.data())
def test_blocked_dp_batched_rows_equal_matrix_dp_bit_for_bit(rows, data):
    # rows of different lengths, zero-padded into one call, so that their ends
    # (where the last interval is taken) fall in different blocks; out_size 1
    # and 2 make the first and the last interval one, or neighbours
    joints = data.draw(st.lists(dp_joints(rows, min_obs=2), min_size=2, max_size=4,
                                unique_by=lambda joint: joint.shape[1]))
    lengths = [joint.shape[1] for joint in joints]
    padded = np.zeros((len(joints), 2, max(lengths)))
    for row, joint in zip(padded, joints):
        row[:, :joint.shape[1]] = joint
    with mock.patch.object(lutdesign, "DP_BLOCK_ROWS", rows):
        for out_size in range(1, min(lengths) + 1):
            splits, values = lutdesign._optimal_partition(padded, out_size, lengths)
            for joint, row_splits, value in zip(joints, splits, values):
                ref_splits, ref_value = matrix_partition(joint, out_size)
                assert same_bits(row_splits, ref_splits)
                assert same_bits(value, np.float64(ref_value))


# ---------------------------------------------------------------------------
# tables designed in one batch vs the same tables designed one at a time

@st.composite
def parent_dists(draw, w, kind=None):
    """A parent MessageDist at alphabet size 2^w. Its odd-symmetric LLRs are
    halves of small integers ("grid": many tied g and f scores, few positive
    groups), spread floats ("float": few ties, many groups; past 512 positive
    g groups at w=6, so pre-binned), or floats whose weakest level is 1e-9
    ("tiny": that level's box-plus with itself cancels to a zero f score).
    Every g space has zero scores, L(t) - L(t)."""
    half = 1 << (w - 1)
    kind = kind or draw(st.sampled_from(["grid", "float", "tiny"]))
    if kind == "grid":
        mags = np.array(sorted(draw(st.sets(st.integers(1, 4 * half), min_size=half,
                                            max_size=half)))) / 2.0
    else:
        mags = np.sort(draw(st.lists(st.floats(0.01, 20.0), min_size=half, max_size=half,
                                     unique=True)))
        if kind == "tiny":
            mags[0] = 1e-9
    llr = np.concatenate([-mags[::-1], mags])
    # p(x, t) = q(t) e^(+-L(t)/2): the masses' LLRs are the alphabet's, with q(t) even
    q_half = draw(hnp.arrays(np.float64, half, elements=st.floats(1e-3, 1.0)))
    q = np.concatenate([q_half[::-1], q_half])
    joint = np.stack([q * np.exp(llr / 2), q * np.exp(-llr / 2)])
    return lutdesign.MessageDist(lutdesign.MessageAlphabet(llr), joint / joint.sum())


def check_batch_equals_singles(build, w, data):
    # a grid row and a float row differ in positive-group count, so the batch is padded
    rows = [data.draw(parent_dists(w, "grid")), data.draw(parent_dists(w, "float"))]
    rows += data.draw(st.lists(parent_dists(w), max_size=2))
    dists = data.draw(st.permutations(rows))
    try:
        singles = [build([dist]) for dist in dists]
    except lutdesign.LutDesignError as err:
        with pytest.raises(lutdesign.LutDesignError, match=re.escape(str(err))):
            build(dists)
        return
    maps, outs = build(dists)
    assert len(maps) == len(outs) == len(dists)
    for ((one_map,), (one_out,)), batch_map, batch_out in zip(singles, maps, outs):
        assert same_bits(batch_map, one_map)
        assert same_bits(batch_out.joint, one_out.joint)
        assert same_bits(batch_out.alphabet.llr_table, one_out.alphabet.llr_table)


TABLE_BUILDERS = pytest.mark.parametrize(
    "build", [lutdesign.build_f_table, lutdesign.build_g_table], ids=["f", "g"])


@pytest.mark.parametrize("w", [2, 4])
@TABLE_BUILDERS
@settings(max_examples=30)
@given(data=st.data())
def test_batched_tables_equal_batches_of_one(w, build, data):
    check_batch_equals_singles(build, w, data)


@TABLE_BUILDERS
@settings(max_examples=4)  # w=6 tables take ~0.1 s each
@given(data=st.data())
def test_batched_prebinned_tables_equal_batches_of_one(build, data):
    check_batch_equals_singles(build, 6, data)


# ---------------------------------------------------------------------------
# CRC generator product vs the per-bit register loop it replaced

def crc_register_loop(payload, cfg):
    """The CRC as first written: one MSB-first register shift per payload bit."""
    reg, top, mask = 0, 1 << (cfg.width - 1), (1 << cfg.width) - 1
    for b in payload:
        reg ^= int(b) << (cfg.width - 1)
        reg = ((reg << 1) ^ cfg.polynomial) & mask if reg & top else (reg << 1) & mask
    return np.array([(reg >> (cfg.width - 1 - i)) & 1 for i in range(cfg.width)], dtype=np.uint8)


@given(st.sampled_from([1, 8, 16]), st.data())
def test_crc_generator_product_equals_register_loop(width, data):
    cfg = fp.CrcConfig(width, data.draw(st.integers(0, (1 << width) - 1)))
    payloads = data.draw(hnp.arrays(np.uint8, (3, data.draw(st.integers(0, 600))),
                                    elements=st.integers(0, 1)))
    for payload in payloads:
        assert same_bits(crc_bits(payload, cfg), crc_register_loop(payload, cfg))
    # a stack of payloads along the last axis: one CRC per row
    assert same_bits(crc_bits(payloads, cfg),
                     np.stack([crc_register_loop(p, cfg) for p in payloads]))
