"""Property tests (hypothesis): the list engine against a node-by-node
reference walk, the rate-1/SPC constituent decoders against their
split-by-split form, and the arithmetic kernels' in-place forms against their
allocating forms. Examples are derandomized (see conftest)."""

import dataclasses

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import fapolar as fp
from fapolar.arith import LLR_CLIP, combine_bits, f_exact, f_minsum, g_func, metric_increment
from fapolar.listdec import decode_rate1, decode_spc

LLRS = st.floats(-2 * LLR_CLIP, 2 * LLR_CLIP, allow_nan=False)  # past the clip, with +-0.0


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# engine vs reference walk

def reference_scl(llr, frozen, list_size, mode):
    """SCL node by node: recursive f/g over all paths, one metric increment per
    leaf added in leaf order. Returns (x_hats, metrics), best metric first."""
    f = f_exact if mode == "exact" else f_minsum

    def rec(alpha, frozen, mu):
        """(origin, beta, mu): survivor i descends from path origin[i] of alpha."""
        if frozen.size == 1:
            keep = mu + metric_increment(0, alpha[:, 0], mode)
            if frozen[0]:
                return np.arange(mu.size), np.zeros((mu.size, 1), np.uint8), keep
            fork = mu + metric_increment(1, alpha[:, 0], mode)
            cands = np.stack([keep, fork], axis=1).ravel()
            sel = np.argsort(cands, kind="stable")[:list_size]
            return sel // 2, (sel % 2).astype(np.uint8)[:, None], cands[sel]
        half = frozen.size // 2
        a, b = alpha[:, :half], alpha[:, half:]
        o1, left, mu = rec(f(a, b), frozen[:half], mu)
        o2, right, mu = rec(g_func(a[o1], b[o1], left), frozen[half:], mu)
        return o1[o2], np.concatenate([left[o2] ^ right, right], axis=1), mu

    _, x_hats, metrics = rec(np.asarray(llr)[None, :], frozen, np.zeros(1))
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
    code = dataclasses.replace(fp.construct(block_len, info.size, 0),
                               info_set=info, frozen_mask=frozen)
    return code, draw(hnp.arrays(np.float64, block_len, elements=LLRS))


@given(frames(), st.sampled_from([1, 2, 4, 8]), st.sampled_from(["approx", "exact"]))
def test_engine_equals_reference_walk_bit_for_bit(frame, list_size, mode):
    code, llr = frame
    res = fp.decode(code, fp.sc_tree(code), llr,
                    fp.ListConfig(list_size=list_size, metric_mode=mode))
    x_hats, metrics = reference_scl(llr, code.frozen_mask, list_size, mode)
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
    out = np.full((rows, 2 * half), 7, dtype=np.uint8)
    assert combine_bits(left, right, out=out) is out
    assert same_bits(out, combine_bits(left, right))
    assert same_bits(combine_bits(left[0].tolist(), right[0].tolist()), out[0])


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


@given(hnp.arrays(np.float64, st.integers(1, 8), elements=LLRS),
       st.sampled_from(["approx", "exact"]))
def test_metric_increment_pair_equals_single_bits(llr, mode):
    pair = metric_increment(np.array([[0], [1]]), llr, mode)
    assert same_bits(pair[0], metric_increment(0, llr, mode))
    assert same_bits(pair[1], metric_increment(1, llr, mode))
