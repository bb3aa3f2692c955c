"""Table design tests: DP optimality, symmetry invariants, density evolution."""

import hashlib
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

import fapolar as fp
from fapolar import lutdesign
from fapolar.arith import f_exact, f_minsum
from fapolar.lutdesign import (
    LutDesignError,
    MessageAlphabet,
    MessageDist,
    _design_symmetric,
    _merge_sorted,
    _msib_f_dist,
    _optimal_partition,
    build_f_table,
    build_g_table,
    design_lutset,
    load_lutset,
    msib_f_index,
    quantize_channel,
    save_lutset,
    symmetrize_llrs,
)
from fapolar.tree import stored_tables

W4 = 4
SIZE4 = 16


# ---------------------------------------------------------------------------
# oracles

def mi_bits(joint):
    """Entropy-based mutual information, independent of the package formula."""
    joint = np.asarray(joint, dtype=np.float64)
    px = joint.sum(axis=1)
    pt = joint.sum(axis=0)

    def ent(p):
        p = p[p > 0]
        return -(p * np.log2(p)).sum()

    return ent(px) + ent(pt) - ent(joint.ravel())


def partition_mi(joint, splits):
    """I(X;T) of the contiguous partition of the columns of ``joint`` whose
    intervals after the first start at ``splits``, from the interval sums."""
    bounds = (0, *splits, joint.shape[1])
    agg = np.stack([
        [joint[x, a:b].sum() for a, b in zip(bounds, bounds[1:])]
        for x in (0, 1)
    ])
    return mi_bits(agg)


def exhaustive_best_partition(joint, out_size):
    """Maximum I(X;T) over all contiguous partitions, by enumeration."""
    return max(partition_mi(joint, cuts)
               for cuts in itertools.combinations(range(1, joint.shape[1]), out_size - 1))


def dp_partition_mi(joint, out_size):
    """I(X;T) of the split that the design's quantizer DP picks for ``joint``."""
    (splits,), _ = _optimal_partition(joint[None], out_size)
    return partition_mi(joint, splits)


def sorted_random_joint(rng, n_obs):
    raw = rng.uniform(0.01, 1.0, (2, n_obs))
    raw /= raw.sum()
    order = np.argsort(np.log(raw[0] / raw[1]), kind="stable")
    srt = raw[:, order]
    scores = np.log(srt[0] / srt[1])
    _, grouped, _, (n_groups,) = _merge_sorted(scores[None], srt[None])
    return grouped[0, :, :n_groups]


def fine_grid_channel_mi(ebn0_db, rate, cells=2000):
    sigma = float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))))
    span = 1.0 + 6.0 * sigma
    half = np.linspace(0.0, span, cells // 2 + 1)
    edges = np.concatenate([-half[:0:-1], half])
    mass0 = np.diff(ndtr((edges - 1.0) / sigma))
    joint = np.stack([mass0, mass0[::-1]]) * 0.5
    return mi_bits(joint / joint.sum())


@pytest.fixture(scope="module")
def channel4():
    return quantize_channel(0.5, 0.5, W4)


# ---------------------------------------------------------------------------
# alphabet plumbing

def test_message_alphabet_invariants():
    MessageAlphabet(np.array([-2.0, -1.0, 1.0, 2.0]))
    with pytest.raises(LutDesignError):
        MessageAlphabet(np.array([-2.0, 1.0, -1.0, 2.0]))      # not sorted
    with pytest.raises(LutDesignError):
        MessageAlphabet(np.array([-2.0, -1.0, 1.0, 2.5]))      # not symmetric
    with pytest.raises(LutDesignError):
        MessageAlphabet(np.array([-1.0, 0.0, 1.0]))            # odd size
    with pytest.raises(LutDesignError, match="finite"):
        MessageAlphabet(np.array([-np.inf, -1.0, 1.0, np.inf]))


def test_symmetrize_averages_mirrored_magnitudes():
    out = symmetrize_llrs(np.array([-3.0, -1.0, 1.5, 2.0]))
    assert out.tolist() == [-2.5, -1.25, 1.25, 2.5]
    assert np.array_equal(out, -out[::-1])


def test_merge_equal_llrs_is_lossless():
    joint = np.array([[0.1, 0.2, 0.05, 0.15], [0.05, 0.1, 0.025, 0.325]])
    scores = np.array([-1.0, 0.5, 0.5, 2.0])
    group_scores, grouped, group_of, n_groups = _merge_sorted(scores[None], joint[None])
    assert n_groups.tolist() == [3] and grouped.shape == (1, 2, 3)
    assert group_scores.tolist() == [[-1.0, 0.5, 2.0]]
    assert group_of.tolist() == [[0, 1, 1, 2]]
    assert abs(mi_bits(grouped[0]) - mi_bits(joint)) < 1e-12  # same-LLR merge loses nothing


# ---------------------------------------------------------------------------
# quantizer DP

def test_identity_partition_preserves_everything():
    rng = np.random.default_rng(0)
    joint = sorted_random_joint(rng, 12)
    (splits,), _ = _optimal_partition(joint[None], joint.shape[1])
    assert splits.tolist() == list(range(1, joint.shape[1]))  # one observation per level
    assert abs(partition_mi(joint, splits) - mi_bits(joint)) < 1e-12


def test_dp_matches_exhaustive_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n_obs = int(rng.integers(6, 21))
        out_size = int(rng.integers(2, 5))
        joint = sorted_random_joint(rng, n_obs)
        if joint.shape[1] < out_size:
            continue
        best = exhaustive_best_partition(joint, out_size)
        assert abs(dp_partition_mi(joint, out_size) - best) < 1e-12


def test_dp_matches_exhaustive_on_64_symbol_space():
    rng = np.random.default_rng(7)
    joint = sorted_random_joint(rng, 64)
    assert abs(dp_partition_mi(joint, 4) - exhaustive_best_partition(joint, 4)) < 1e-12


def test_channel_design_peak_memory():
    # four scratch planes of DP_BLOCK_ROWS * (M+1) floats for M = 1000 cells,
    # reused by every block (2.4 MiB peak in all; six planes peaked at 3.35
    # MiB); holding the (M+1)^2 cost matrix peaked at 11.7 MiB here, and the
    # full-matrix DP at 54.7 MiB
    tracemalloc.start()
    try:
        quantize_channel(0.5, 0.5, W4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2 ** 20


def test_quantize_rejects_too_small_space():
    rng = np.random.default_rng(1)
    joint = sorted_random_joint(rng, 3)
    with pytest.raises(LutDesignError, match="cannot split 3 observations into 4 intervals"):
        _optimal_partition(joint[None], joint.shape[1] + 1)


# ---------------------------------------------------------------------------
# channel quantizer

def test_channel_alphabet_exactly_symmetric(channel4):
    _, dist = channel4
    llr = dist.alphabet.llr_table
    assert np.array_equal(llr, -llr[::-1])
    assert np.all(np.diff(llr) > 0)
    # joint masses mirror up to summation order
    assert np.allclose(dist.joint[0], dist.joint[1][::-1], rtol=0, atol=1e-15)


def test_channel_thresholds_sorted_and_symmetric(channel4):
    thresholds, _ = channel4
    assert thresholds.size == SIZE4 - 1
    assert np.all(np.diff(thresholds) > 0)
    assert np.array_equal(thresholds, -thresholds[::-1])


def test_channel_mi_within_data_processing_bounds(channel4):
    _, dist = channel4
    grid_mi = fine_grid_channel_mi(0.5, 0.5)
    got = mi_bits(dist.joint)
    assert got <= grid_mi <= 1.0
    assert got >= 0.99 * grid_mi


def test_channel_rejects_bad_parameters():
    with pytest.raises(LutDesignError):
        quantize_channel(0.5, 0.0, 4)
    with pytest.raises(LutDesignError):
        quantize_channel(0.5, 0.5, 0)
    with pytest.raises(LutDesignError):
        quantize_channel(0.5, 0.5, 9)  # 2^9 levels need > 2000 grid cells


# sha256 of thresholds.tobytes() + dist.joint.tobytes(), recorded while the
# thresholds were still read off the DP split indices instead of the level map
CHANNEL_DIGESTS = {
    (-2.0, 0.25, 1): "ea45f4eb3c2d6a139f701843d947caf6b7f0f29919f7d65dc83f77668d2e851f",
    (-2.0, 0.25, 4): "a5805b323886040d64d5abadf102087e0b5d9ffcca8a3999023cf89151e4a7e8",
    (-2.0, 0.25, 6): "63b3d72e26f5da65ba94d477a3c360bad48803bd630c7736fd522178e0e1f534",
    (-2.0, 0.5, 1): "912558662039af1efd1fc1857366f892a2d702b9a230e7c87ffcd8008975d4fd",
    (-2.0, 0.5, 4): "9bea2ef0f49224d8ae52d0a08dad4fb7a39fb1573363d833a3e97bb979f9bfce",
    (-2.0, 0.5, 6): "82276e5a28754fcc4018adc60c6f988892c8b6ba8b219423fcdb005add3ea2ec",
    (0.5, 0.25, 1): "0120f7017fd6e4897e27bfbf009775359a51bfccc66db653fb37e9fd3aecbed9",
    (0.5, 0.25, 4): "7927bbe42d8e90a4f54b0379b744492869c2a906cc1095876d5bcabea544c4c1",
    (0.5, 0.25, 6): "aa8bb502a307c126e15eb4e167fc9c750dc06e803f2fa54d808a86f38bfac35c",
    (0.5, 0.5, 1): "d53775da1cbdb694ccbe675060d9cf43aab4fdd99e9a7773bd68e595c2c075d5",
    (0.5, 0.5, 4): "448774ac68bc1a9aef4091f61f4090905fd0bd7c07b28d5ff52643b3ef227fbc",
    (0.5, 0.5, 6): "86814f4eabaf4e3d3f6a0825f9f44dbd43da68f7a05419e35caea4c765a1e544",
    (3.0, 0.25, 1): "3d91f9e86ffe30914639acce564fb2781831a6aa2616e567119317344df974db",
    (3.0, 0.25, 4): "b722335119f724db2a16f1b6e6d03db357cb3b71900b7f97b3fe0fae3c97e70a",
    (3.0, 0.25, 6): "e07397d4cc8c588bee47ef4448b27eeb2876aa73ebc83e39a9df44f210622f96",
    (3.0, 0.5, 1): "ddbb25fbf3b817a4f1e37a818c32c80876bcb18afa628fdab144f627dc2e5f10",
    (3.0, 0.5, 4): "4f2c4a21d8f201269d37e19c36f2da3141876e75125dbf9b98ae2dc91813f819",
    (3.0, 0.5, 6): "797046c2621f27e69fc90812d51b7fd6703bac44a20bafe291e9a1bd71442e82",
    (6.0, 0.25, 1): "23fea3033583ab580529b4e8d947e079139f41391c60a7946c343f4da5a7dd6c",
    (6.0, 0.25, 4): "581bfa53f65860bc538591b5efdce14cb8ba6dfde7dc43a3c4f1e8dce3337470",
    (6.0, 0.25, 6): "b7bb5b72dbc0d0af172dc55d33206f2e1d692d890fb4c233b63023f43e6aa1d4",
    (6.0, 0.5, 1): "e7dcc301fcb4e09eb11f70fcad35561b0aef76e2abf0b786fd21f04841df51ef",
    (6.0, 0.5, 4): "c956f6470b608a0d6f602c474e0813fc46c1d0d42df1f700e859e01364b7c230",
    (6.0, 0.5, 6): "6e9bd5cf3bbca56748cde18ca63998b031aace10f17cf1e1436a38a7066e8e68",
}


@pytest.mark.parametrize("ebn0_db,message", [
    (4000.0, "Eb/N0 4000.0 dB gives no finite positive noise variance"),    # 10^400 overflows
    (-3300.0, "Eb/N0 -3300.0 dB gives no finite positive noise variance"),  # 10^-330 is 0
    (-3100.0, "Eb/N0 -3100.0 dB gives no finite positive noise variance"),  # the variance is inf
    (np.inf, "Eb/N0 must be finite, got inf dB"),
    (np.nan, "Eb/N0 must be finite, got nan dB"),
])
def test_channel_quantizer_refuses_ebn0_without_noise_variance(ebn0_db, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        quantize_channel(ebn0_db, 0.5, W4)


@pytest.mark.parametrize("ebn0_db,rate,w", CHANNEL_DIGESTS)
def test_channel_quantizer_bytes_pinned(ebn0_db, rate, w):
    thresholds, dist = quantize_channel(ebn0_db, rate, w)
    digest = hashlib.sha256(thresholds.tobytes() + dist.joint.tobytes()).hexdigest()
    assert digest == CHANNEL_DIGESTS[ebn0_db, rate, w]


# ---------------------------------------------------------------------------
# f / g tables

def test_f_table_symmetric_output_and_mi_bound(channel4):
    _, dist = channel4
    (mapping,), (out,) = build_f_table([dist])
    assert mapping.shape == (SIZE4, SIZE4)
    assert set(np.unique(mapping)) == set(range(SIZE4))  # every level used
    for out in (out, *_msib_f_dist([dist])):
        llr = out.alphabet.llr_table
        assert np.array_equal(llr, -llr[::-1])
        assert mi_bits(out.joint) <= mi_bits(dist.joint) + 1e-12


def test_f_table_places_zero_box_plus_scores():
    # in float the box-plus of two LLRs below ~1e-8 cancels to 0; such pairs
    # still get a middle level by the side of t1 (the N=64 SC IB design at
    # w=6 and -1 dB meets them)
    llr = np.array([-2.0, -1e-9, 1e-9, 2.0])
    assert f_exact(llr[1], llr[1], clip=np.inf) == 0.0
    p0 = np.array([0.025, 0.1, 0.125, 0.25])
    (mapping,), (out,) = build_f_table([MessageDist(MessageAlphabet(llr), np.stack([p0, p0[::-1]]))])
    assert mapping.tolist() == [[3, 2, 1, 0], [2, 1, 1, 1], [1, 2, 2, 2], [0, 1, 2, 3]]
    assert np.array_equal(out.alphabet.llr_table, -out.alphabet.llr_table[::-1])


def minsum_designed_f(dist):
    """The MSIB f update as the quantizer DP designs it on min-sum scores:
    (mapping, MessageDist)."""
    llr, p = dist.alphabet.llr_table, dist.joint
    size = llr.size
    joint = np.stack([
        p[0][:, None] * p[0][None, :] + p[1][:, None] * p[1][None, :],
        p[0][:, None] * p[1][None, :] + p[1][:, None] * p[0][None, :],
    ])
    scores = f_minsum(llr[:, None], llr[None, :])
    t1_upper = np.broadcast_to((np.arange(size) >= size // 2)[:, None], scores.shape)
    (level_of_obs,), (out,) = _design_symmetric(
        scores.reshape(1, -1), joint.reshape(1, 2, -1), size, zero_upper=t1_upper.ravel()
    )
    return level_of_obs.reshape(size, size), out


def test_f_table_minsum_equals_index_rule():
    # the MSIB design skips the DP: its f mapping is the index rule and its
    # output distribution sums the pair joint through it, bit for bit
    for w in range(1, 7):
        size = 1 << w
        t1, t2 = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        frontier = [quantize_channel(0.5, 0.5, w)[1]]
        for _ in range(3):  # the channel, then every f/g path of 1 and 2 steps
            deeper = []
            for dist in frontier:
                mapping, designed = minsum_designed_f(dist)
                assert np.array_equal(mapping, msib_f_index(t1, t2, size))
                (shortcut,) = _msib_f_dist([dist])
                assert shortcut.joint.tobytes() == designed.joint.tobytes()
                assert shortcut.alphabet.llr_table.tobytes() == designed.alphabet.llr_table.tobytes()
                deeper += [designed, *build_g_table([dist])[1]]
            frontier = deeper


def test_g_table_covers_full_domain_and_gains_information(channel4):
    _, dist = channel4
    (mapping,), (out,) = build_g_table([dist])
    assert mapping.shape == (SIZE4, SIZE4, 2)
    assert mapping.size == 2 ** (2 * W4 + 1)
    # unquantized g observation: (t1, t2, b) kept distinct
    pa = dist.joint
    unq = np.empty((2, SIZE4 * SIZE4 * 2))
    idx = 0
    for t1 in range(SIZE4):
        for t2 in range(SIZE4):
            for b in (0, 1):
                unq[0, idx] = pa[b, t1] * pa[0, t2]
                unq[1, idx] = pa[1 ^ b, t1] * pa[1, t2]
                idx += 1
    unquantized_mi = mi_bits(unq)
    got = mi_bits(out.joint)
    assert got >= mi_bits(dist.joint) - 1e-12  # combining two looks helps
    assert got >= 0.95 * unquantized_mi


def test_g_table_b_marginal_uniform(channel4):
    _, dist = channel4
    pa = dist.joint
    mass_b0 = sum(pa[b, t1] * pa[x ^ b, t2]
                  for x in (0, 1) for t1 in range(SIZE4) for t2 in range(SIZE4)
                  for b in (0,))
    assert abs(mass_b0 - 0.5) < 1e-12


def test_msib_index_rule_examples():
    # opposite extreme signs: strongest magnitude, negative -> level 0
    assert msib_f_index(SIZE4 - 1, 0, SIZE4) == 0
    # strongest agreeing negatives give the strongest positive
    assert msib_f_index(0, 0, SIZE4) == SIZE4 - 1
    # a weakest-level input forces a weakest-magnitude output
    for t1 in range(SIZE4):
        out = msib_f_index(t1, SIZE4 // 2, SIZE4)
        assert out in (SIZE4 // 2 - 1, SIZE4 // 2)
    with pytest.raises(LutDesignError):
        msib_f_index(0, 0, 7)


def msib_f_index_int64(t1, t2, alphabet_size):
    """The index rule evaluated in int64, as first written."""
    t1 = np.asarray(t1, dtype=np.int64)
    t2 = np.asarray(t2, dtype=np.int64)
    half = alphabet_size // 2
    up1, up2 = t1 >= half, t2 >= half
    mag = np.minimum(np.where(up1, t1 - half, half - 1 - t1),
                     np.where(up2, t2 - half, half - 1 - t2))
    return np.where(up1 == up2, half + mag, half - 1 - mag)


@pytest.mark.parametrize("w", range(1, 7))
def test_msib_index_in_message_dtype_equals_int64_form(w):
    size = 1 << w
    t1, t2 = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    out = msib_f_index(t1.astype(np.int16), t2.astype(np.int16), size)
    assert out.dtype == np.int16
    assert np.array_equal(out, msib_f_index_int64(t1, t2, size))


def test_msib_index_commutes_with_translation_sign(channel4):
    _, dist = channel4
    llr = dist.alphabet.llr_table
    t1, t2 = np.meshgrid(np.arange(SIZE4), np.arange(SIZE4), indexing="ij")
    out = msib_f_index(t1, t2, SIZE4)
    reference = f_minsum(llr[t1], llr[t2])
    assert np.all(np.sign(llr[out]) == np.sign(reference))


# ---------------------------------------------------------------------------
# whole decoder designs

def test_design_counts_n8(code8):
    sc = design_lutset(code8, fp.sc_tree(code8), "ib", 0.5, W4)
    assert sc.table_counts() == (14, 8)
    ssc = design_lutset(code8, fp.build_tree(code8, {"R0", "R1"}), "ib", 0.5, W4)
    assert ssc.table_counts() == (10, 6)
    fast = design_lutset(code8, fp.build_tree(code8), "ib", 0.5, W4)
    assert fast.table_counts() == (2, 2)
    msib = design_lutset(code8, fp.build_tree(code8), "msib", 0.5, W4)
    assert msib.table_counts() == (2, 2)
    assert len(msib.decoding_tables) == 1  # only the g edge is stored


def test_design_counts_match_tree_counts():
    code = fp.construct(32, 10, 4)
    for variant in ("ib", "msib"):
        for kinds in (frozenset(), {"R0", "R1"}, fp.ALL_NODE_KINDS):
            tree = fp.build_tree(code, kinds)
            lutset = design_lutset(code, tree, variant, 1.0, 3)
            assert lutset.table_counts() == fp.table_counts(tree, variant)
            assert {edge_id: table.ndim for edge_id, table in lutset.decoding_tables.items()} \
                == stored_tables(tree, variant)


def test_design_translation_tables_all_valid(code8):
    code = fp.construct(32, 16, 0)
    lutset = design_lutset(code, fp.build_tree(code), "ib", 0.5, W4)
    for table in lutset.translation_tables.values():
        MessageAlphabet(table)  # sorted + odd-symmetric or it raises


def test_design_evolution_respects_data_processing():
    # per update: an f output cannot beat either input, a g output cannot do
    # worse than a single branch, and everything stays a valid bit of MI
    code = fp.construct(16, 8, 0)
    tree = fp.sc_tree(code)
    _, channel = quantize_channel(0.5, code.rate, W4)

    def rec(node, dist):
        if node.is_leaf:
            return
        parent_mi = mi_bits(dist.joint)
        _, (f_out,) = build_f_table([dist])
        assert mi_bits(f_out.joint) <= parent_mi + 1e-12
        _, (g_out,) = build_g_table([dist])
        assert mi_bits(g_out.joint) >= parent_mi - 1e-12
        assert 0.0 <= mi_bits(f_out.joint) <= 1.0
        assert 0.0 <= mi_bits(g_out.joint) <= 1.0
        rec(node.left, f_out)
        rec(node.right, g_out)

    rec(tree.root, channel)


def test_fast_design_is_restriction_of_sc_design():
    for n_bits, payload in ((8, 3), (32, 16)):
        code = fp.construct(n_bits, payload, 1 if n_bits == 8 else 0)
        fast_tree = fp.build_tree(code)
        sc = fp.sc_tree(code)
        fast_set = design_lutset(code, fast_tree, "ib", 0.5, W4)
        sc_set = design_lutset(code, sc, "ib", 0.5, W4)

        def by_span(tree, lutset):
            found = {}

            def rec(node):
                if node.is_leaf:
                    return
                found[("f", node.depth, node.span_start)] = \
                    lutset.decoding_tables.get(node.f_edge_id)
                found[("g", node.depth, node.span_start)] = \
                    lutset.decoding_tables.get(node.g_edge_id)
                rec(node.left)
                rec(node.right)

            rec(tree.root)
            return found

        sc_tables = by_span(sc, sc_set)
        for key, table in by_span(fast_tree, fast_set).items():
            assert np.array_equal(table, sc_tables[key])


def test_design_builds_g_tables_once_per_depth_batch(monkeypatch):
    # the tree is designed one depth at a time: each depth's g edges are split
    # into as few equal batches as the scratch budget allows, one call each
    code = fp.construct(1024, 512, 16)
    tree = fp.build_tree(code)
    inner_per_depth = []
    inner = [tree.root]
    while inner:
        inner_per_depth.append(len(inner))
        inner = [child for node in inner for child in (node.left, node.right) if not child.is_leaf]
    cap = lutdesign._batch_cap(SIZE4)
    expected = []
    for count in inner_per_depth:
        n_batches = -(-count // cap)
        expected += [count * (i + 1) // n_batches - count * i // n_batches for i in range(n_batches)]
    batches = []
    build = lutdesign.build_g_table
    monkeypatch.setattr(lutdesign, "build_g_table",
                        lambda dists: batches.append(len(dists)) or build(dists))
    lutset = design_lutset(code, tree, "msib", 2.0, W4)
    assert sum(batches) == len(lutset.decoding_tables) == 85
    assert batches == expected
    assert len(batches) <= 2 * len(inner_per_depth) < 85


def test_lutset_roundtrip_bit_exact(tmp_path, code8):
    lutset = design_lutset(code8, fp.build_tree(code8, {"R0", "R1"}), "ib", 0.5, W4)
    path = tmp_path / "tables.json"
    save_lutset(lutset, path)
    back = load_lutset(path)
    assert np.array_equal(back.channel_thresholds, lutset.channel_thresholds)
    assert back.decoding_tables.keys() == lutset.decoding_tables.keys()
    for key, table in lutset.decoding_tables.items():
        assert np.array_equal(back.decoding_tables[key], table)
    for key, table in lutset.translation_tables.items():
        assert np.array_equal(back.translation_tables[key], table)
    second = tmp_path / "tables2.json"
    save_lutset(back, second)
    assert path.read_bytes() == second.read_bytes()


def saved_sha256(lutset, path):
    save_lutset(lutset, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the saved bytes, recorded with the full-matrix quantizer DP and
# np.add.at mass sums that the blocked DP and bincount sums replaced
@pytest.mark.parametrize("block_len,payload_len,variant,design_db,digest", [
    (256, 128, "msib", 2.0, "cbae2ef8366f51f108901be825b5866fbdd6ed5ef2d7a7a331a500b76a5155a4"),
    (256, 128, "ib", 2.0, "dacffb0e522598e620a0198a53d3dee3555f99767a3280e10211b4cc1bc0f319"),
    (1024, 512, "msib", 0.5, "9c50c61d1295b6a053c11122b4893025fcff16542ebb142d36678feba0e8ad52"),
    (1024, 512, "ib", 0.5, "3f9b17ac5ef46eafe030c1ba5672a4aa2ef29047276a20607dd0e4ddbcda294f"),
])
def test_fast_lutset_bytes_pinned(tmp_path, block_len, payload_len, variant, design_db, digest):
    code = fp.construct(block_len, payload_len, 16)
    lutset = design_lutset(code, fp.build_tree(code), variant, design_db, W4)
    assert saved_sha256(lutset, tmp_path / "set.json") == digest


# sha256 of the saved bytes, recorded while MSIB f edges were still designed
# with the quantizer DP on min-sum scores
@pytest.mark.parametrize("w,digest", [
    (1, "95fe993cdfff1f686a8cdf48fa3dcb1a1b9866eaabc3e94fb0bdd62918101987"),
    (2, "91e1c51c04a6e8b29bee1492c6ab877bfdb75677d3ddc25c47e1edbe2ce7eb49"),
    (6, "259dc9241ca3036a6d36aa6a8b3ea5e41f7c9f096fd367d97c5e30679782071a"),
    (8, "f0240e3f6e5afca99edbc576adb3cbf3d528ca90110dbfdc4f08630918830fb7"),
])
def test_n64_msib_lutset_bytes_pinned(tmp_path, w, digest):
    code = fp.construct(64, 32, 16)
    lutset = design_lutset(code, fp.build_tree(code), "msib", 2.0, w)
    assert saved_sha256(lutset, tmp_path / "set.json") == digest


@pytest.mark.slow  # shares the w=8 design with test_w8_lut_scl_nearly_lossless
def test_sc_w8_lutset_bytes_pinned(tmp_path, n64_sc_ib_w8):
    digest = "67e1b4b6eef3a1ce173dbf67f44df6a51a075bd665ba88c3141c58cbb42eaedb"
    assert saved_sha256(n64_sc_ib_w8[2], tmp_path / "set.json") == digest


def test_load_rejects_wrong_format(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other"}')
    with pytest.raises(LutDesignError):
        load_lutset(bad)


# ---------------------------------------------------------------------------
# LUT files are validated when loaded

@pytest.fixture(scope="module")
def lut_doc(tmp_path_factory, code8):
    path = tmp_path_factory.mktemp("lut") / "ib.json"
    save_lutset(design_lutset(code8, fp.build_tree(code8, {"R0", "R1"}), "ib", 0.5, W4), path)
    return json.loads(path.read_text())


def set_w(value):
    def edit(doc):
        doc["w"] = value
        return "'w'"
    return edit


def set_decoding_entry(value):
    def edit(doc):
        key = min(doc["decoding_tables"], key=int)
        doc["decoding_tables"][key]["table"][5] = value
        return f"decoding table {key}"
    return edit


def set_arity(value):
    def edit(doc):
        key = min(doc["decoding_tables"], key=int)
        doc["decoding_tables"][key]["arity"] = value
        return f"decoding table {key}"
    return edit


def set_translation(values):
    def edit(doc):
        key = min(doc["translation_tables"], key=int)
        doc["translation_tables"][key] = values
        return f"translation table {key}"
    return edit


def set_key(name, value):
    def edit(doc):
        doc[name] = value(doc) if callable(value) else value
        return repr(name)
    return edit


def drop_key(name):
    def edit(doc):
        del doc[name]
        return repr(name)
    return edit


def move_table(section, new_key, keep_old=False):
    """Store table "1" of ``section`` under ``new_key`` (beside it if keep_old)."""
    def edit(doc):
        tables = doc[section]
        tables[new_key] = tables["1"] if keep_old else tables.pop("1")
        return f"{section.split('_')[0]} table {new_key!r}"
    return edit


def set_decoding_table(value):
    def edit(doc):
        key = min(doc["decoding_tables"], key=int)
        doc["decoding_tables"][key] = value
        return f"decoding table {key}"
    return edit


@pytest.mark.parametrize("edit,message", [
    (set_w(0), "integer in [1, 15]"),
    (set_w(16), "integer in [1, 15]"),
    (set_w(20), "integer in [1, 15]"),
    (set_w(4.0), "integer in [1, 15]"),
    (set_arity(4), "arity must be 2 or 3"),
    (set_arity(3), "integer entries"),            # arity 3 needs twice the entries
    (set_decoding_entry(-3), "in [0, 16)"),       # used to index from the end
    (set_decoding_entry(16), "in [0, 16)"),
    (set_decoding_entry(2.5), "integer entries"),
    (set_decoding_entry(True), "integer entries"),  # numpy would read message 1
    (set_decoding_entry(2 ** 70), "in [0, 16)"),
    (set_translation([-1.0, 1.0]), "w=4 needs 16"),
    (set_translation([float(v) for v in range(-8, 8)]), "odd-symmetric"),
    (set_translation([float(v) for v in range(8, -8, -1)]), "strictly increasing"),
    (set_translation("llrs"), "could not convert"),
    (set_translation([-np.inf] + [float(v) for v in range(-7, 0)]
                     + [float(v) for v in range(1, 8)] + [np.inf]), "finite"),
    (set_decoding_table([0, 1, 2]), "must be a JSON object"),
    (move_table("decoding_tables", "x"), "canonical non-negative integer id"),
    (move_table("decoding_tables", "01", keep_old=True), "canonical non-negative integer id"),
    (move_table("translation_tables", "-1"), "canonical non-negative integer id"),
    (drop_key("schedule_hash"), "missing key"),
    (drop_key("decoding_tables"), "missing key"),
    (set_key("block_len", "8"), "must be int"),
    (set_key("design_ebn0_db", None), "must be int or float"),
    (set_key("design_ebn0_db", float("nan")), "must be a finite number, got nan"),  # json reads NaN
    (set_key("design_ebn0_db", float("inf")), "must be a finite number, got inf"),  # and Infinity
    (set_key("design_ebn0_db", -10 ** 400), "must be a finite number"),  # no float holds it
    (set_key("translation_tables", []), "must be dict"),
    (set_key("variant", "xyz"), "'ib' or 'msib'"),
    (set_key("channel_thresholds", lambda doc: doc["channel_thresholds"][::-1]),
     "strictly increasing"),
    (set_key("channel_thresholds", [-1.0, 0.0, 1.0]), "15 finite"),
    (set_key("channel_thresholds", lambda doc: doc["channel_thresholds"][:-1] + [1e999]),
     "finite"),
    (set_key("channel_thresholds", list(range(-7, 8))), "floats"),
], ids=["w0", "w16", "w20", "w-float", "arity4", "arity-shape", "entry-negative",
        "entry-too-large", "entry-float", "entry-bool", "entry-huge", "translation-size", "translation-asymmetric",
        "translation-decreasing", "translation-string", "translation-infinite",
        "decoding-entry-list", "decoding-id-word", "decoding-id-leading-zero",
        "translation-id-negative",
        "missing-schedule-hash", "missing-decoding-tables", "block-len-string",
        "ebn0-null", "ebn0-nan", "ebn0-infinity", "ebn0-huge-int", "translation-tables-list", "variant-unknown", "thresholds-unsorted",
        "thresholds-short", "thresholds-infinite", "thresholds-ints"])
def test_load_rejects_invalid_tables(tmp_path, lut_doc, edit, message):
    doc = json.loads(json.dumps(lut_doc))
    names = edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LutDesignError, match=re.escape(message)) as err:
        load_lutset(path)
    assert names in str(err.value)


def test_load_accepts_saved_set(tmp_path, lut_doc):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(lut_doc))
    assert load_lutset(path).w == W4
