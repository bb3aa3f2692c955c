"""List decoder tests against independent brute-force oracles."""

import hashlib
import itertools
import re

import numpy as np
import pytest

import fapolar as fp
from fapolar.listdec import ListEngine, decode_rate0, decode_rate1, decode_rep, decode_spc
from fapolar.lutdec import quantize_rx
from fapolar.lutdesign import design_lutset

from conftest import noisy_frame, refuse_walk


# ---------------------------------------------------------------------------
# oracles

def subtree_codewords(kind, size):
    """Everything a constituent decoder of this type may output."""
    if kind == "R0":
        return [np.zeros(size, dtype=np.uint8)]
    if kind == "Rep":
        return [np.zeros(size, dtype=np.uint8), np.ones(size, dtype=np.uint8)]
    words = [np.array(bits, dtype=np.uint8)
             for bits in itertools.product((0, 1), repeat=size)]
    if kind == "R1":
        return words
    if kind == "SPC":
        return [w for w in words if int(w.sum()) % 2 == 0]
    raise AssertionError(kind)


def brute_force_survivors(kind, metrics, alpha, list_size):
    """Exhaustive subtree list decode under the approximate metric.

    Every (incoming path, valid codeword) pair is a candidate whose penalty
    is the summed |alpha| over positions disagreeing with the hard decision.
    """
    candidates = []
    for path, (mu, a) in enumerate(zip(metrics, alpha)):
        hard = (a < 0).astype(np.uint8)
        for word in subtree_codewords(kind, a.size):
            penalty = float(np.abs(a)[word != hard].sum())
            candidates.append((mu + penalty, path, tuple(word)))
    candidates.sort(key=lambda item: item[0])
    return candidates[:list_size]


def sc_decode_reference(code, llr):
    """Plain successive cancellation, recursive, independent of the package."""
    def rec(llrs, frozen):
        if llrs.size == 1:
            bit = 0 if frozen[0] else int(llrs[0] < 0)
            return np.array([bit], dtype=np.uint8), np.array([bit], dtype=np.uint8)
        half = llrs.size // 2
        a, b = llrs[:half], llrs[half:]
        sign = np.where((a < 0) != (b < 0), -1.0, 1.0)
        u_l, x_l = rec(sign * np.minimum(np.abs(a), np.abs(b)), frozen[:half])
        u_r, x_r = rec(np.where(x_l, -a, a) + b, frozen[half:])
        return np.concatenate([u_l, u_r]), np.concatenate([x_l ^ x_r, x_r])

    u, _ = rec(np.asarray(llr, dtype=np.float64), code.frozen_mask)
    return u


def ml_metric_oracle(code, llr):
    """Min over all codewords of the min-sum mismatch metric."""
    best = np.inf
    free = code.info_set
    for bits in itertools.product((0, 1), repeat=free.size):
        u = np.zeros(code.block_len, dtype=np.uint8)
        u[free] = bits
        x = fp.polar_transform(u)
        hard = (np.asarray(llr) < 0).astype(np.uint8)
        best = min(best, float(np.abs(llr)[x != hard].sum()))
    return best


def survivors_as_set(parent, metrics, beta):
    return sorted((round(m, 9), int(p), tuple(b)) for m, p, b in zip(metrics, parent, beta))


# ---------------------------------------------------------------------------
# constituent decoders

def test_rate0_spec_examples():
    _, mu, beta = decode_rate0(np.zeros(1), np.array([[1.0, 2.0, 0.5]]))
    assert mu[0] == 0.0 and not beta.any()
    _, mu, _ = decode_rate0(np.zeros(1), np.array([[-1.5, 2.0]]))
    assert mu[0] == 1.5


def test_rep_spec_examples():
    parent, mu, beta = decode_rep(np.zeros(1), np.array([[3.0, -1.0]]), 2)
    assert survivors_as_set(parent, mu, beta) == [(1.0, 0, (0, 0)), (3.0, 0, (1, 1))]
    parent, mu, beta = decode_rep(np.zeros(1), np.array([[2.0, 1.0, 0.5]]), 2)
    assert mu.tolist() == [0.0, 3.5]


def test_rate1_spec_examples():
    # list size 1: pure hard decision
    _, mu, beta = decode_rate1(np.zeros(1), np.array([[0.5, -2.0, 1.0]]), 1)
    assert mu[0] == 0.0 and beta.tolist() == [[0, 1, 0]]
    # list size 2: the cheapest fork flips the least reliable position
    parent, mu, beta = decode_rate1(np.zeros(1), np.array([[0.5, -2.0, 1.0]]), 2)
    rows = survivors_as_set(parent, mu, beta)
    assert rows == [(0.0, 0, (0, 1, 0)), (0.5, 0, (1, 1, 0))]


def test_spc_spec_example():
    parent, mu, beta = decode_spc(np.zeros(1), np.array([[-0.5, 2.0, 3.0, 4.0]]), 1)
    assert mu[0] == 0.5
    assert beta.tolist() == [[0, 0, 0, 0]]


@pytest.mark.parametrize("kind,decoder", [
    ("R0", lambda mu, a, L: decode_rate0(mu, a)),
    ("Rep", decode_rep),
    ("R1", decode_rate1),
])
def test_constituent_decoders_match_brute_force(kind, decoder):
    rng = np.random.default_rng(42)
    for size in (2, 4, 8):
        for list_size in (1, 2, 4, 8):
            for _ in range(100):
                n_in = int(rng.integers(1, list_size + 1))
                metrics = np.sort(rng.uniform(0, 2, n_in))
                alpha = rng.normal(0, 2, (n_in, size))
                parent, mu, beta = decoder(metrics, alpha, list_size)
                want = brute_force_survivors(kind, metrics, alpha,
                                             list_size if kind != "R0" else n_in)
                got = survivors_as_set(parent, mu, beta)
                want_set = sorted((round(m, 9), p, w) for m, p, w in want)
                assert got == want_set


def test_spc_matches_brute_force():
    rng = np.random.default_rng(43)
    for list_size in (2, 3, 4, 8):
        for size in (4, 8):
            for _ in range(200):
                n_in = int(rng.integers(1, list_size + 1))
                metrics = np.sort(rng.uniform(0, 2, n_in))
                alpha = rng.normal(0, 2, (n_in, size))
                parent, mu, beta = decode_spc(metrics, alpha, list_size)
                want = sorted((round(m, 9), p, w) for m, p, w in
                              brute_force_survivors("SPC", metrics, alpha, list_size))
                assert survivors_as_set(parent, mu, beta) == want


def test_spc_always_even_parity_with_true_costs():
    rng = np.random.default_rng(44)
    for list_size in (1, 2, 4, 8):
        for _ in range(100):
            alpha = rng.normal(0, 2, (1, 8))
            parent, mu, beta = decode_spc(np.zeros(1), alpha, list_size)
            assert not np.bitwise_xor.reduce(beta, axis=1).any()
            hard = (alpha[0] < 0).astype(np.uint8)
            for m, b in zip(mu, beta):
                assert abs(m - np.abs(alpha[0])[b != hard].sum()) < 1e-9


# ---------------------------------------------------------------------------
# full decoders

def test_fork_prune_keeps_smallest_with_stable_ties():
    from fapolar.listdec import _fork_prune

    rng = np.random.default_rng(9)
    for _ in range(200):
        n_paths = int(rng.integers(1, 9))
        keep = int(rng.integers(1, 9))
        m_keep = rng.uniform(0, 4, n_paths)
        m_fork = rng.uniform(0, 4, n_paths)
        parent, fork, mu = _fork_prune(m_keep, m_fork, keep)
        pool = sorted(np.concatenate([m_keep, m_fork]))
        assert len(mu) == min(keep, 2 * n_paths)
        assert np.allclose(np.sort(mu), pool[: len(mu)])
    # tie break: parent order first, keep-fork before flip-fork
    parent, fork, mu = _fork_prune(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 3)
    assert parent.tolist() == [0, 0, 1]
    assert fork.tolist() == [0, 1, 0]


def test_scl_noiseless_recovers_input(code8):
    rng = np.random.default_rng(6)
    cfg = fp.ListConfig(list_size=4, metric_mode="approx")
    decoder = ListEngine(code8, fp.sc_tree(code8), cfg)
    for _ in range(10):
        payload = rng.integers(0, 2, 3, dtype=np.uint8)
        u = fp.assemble_u(code8, payload)
        llr = 29.0 * (1.0 - 2.0 * fp.encode(code8, u).astype(np.float64))
        res = decoder.decode(llr)
        assert np.array_equal(res.u_hats[0], u)
        assert res.metrics[0] == 0.0


def test_scl_full_list_reaches_ml_metric(code8):
    # with the list large enough to hold every info pattern, the metric winner
    # agrees with exhaustive maximum likelihood under the min-sum metric
    rng = np.random.default_rng(7)
    cfg = fp.ListConfig(list_size=16, metric_mode="approx")
    decoder = ListEngine(code8, fp.sc_tree(code8), cfg)
    for trial in range(25):
        _, _, y = noisy_frame(code8, sigma=1.0, seed=(100, trial))
        llr = 2.0 * y
        res = decoder.decode(llr)
        assert len(res) == 16
        assert abs(res.metrics[0] - ml_metric_oracle(code8, llr)) < 1e-9


def test_scl_list_one_equals_reference_sc():
    rng = np.random.default_rng(8)
    code = fp.construct(32, 13, 0)
    cfg = fp.ListConfig(list_size=1, metric_mode="approx")
    decoder = ListEngine(code, fp.sc_tree(code), cfg)
    for trial in range(50):
        _, _, y = noisy_frame(code, sigma=0.9, seed=(200, trial))
        llr = 2.0 * y / 0.81
        res = decoder.decode(llr)
        assert np.array_equal(res.u_hats[0], sc_decode_reference(code, llr))


def test_metrics_nonnegative_nondecreasing_and_pruned_correctly():
    code = fp.construct(64, 30, 0)
    cfg = fp.ListConfig(list_size=8, metric_mode="approx")
    decoder = ListEngine(code, fp.sc_tree(code), cfg)
    for trial in range(20):
        _, _, y = noisy_frame(code, sigma=1.0, seed=(300, trial))
        res = decoder.decode(2.0 * y)
        assert len(res) == 8
        assert np.all(res.metrics >= 0)
        assert np.all(np.diff(res.metrics) >= 0)


def test_fscl_empty_kinds_identical_to_scl():
    # "SC schedule = fast tree with no special nodes": both spellings decode alike
    code = fp.construct(64, 24, 8)
    sc = fp.sc_tree(code)
    empty = fp.build_tree(code, frozenset())
    assert empty.schedule_hash() == sc.schedule_hash()
    for mode in ("approx", "exact"):
        cfg = fp.ListConfig(list_size=4, metric_mode=mode)
        dec_a, dec_b = ListEngine(code, sc, cfg), ListEngine(code, empty, cfg)
        for trial in range(30):
            _, _, y = noisy_frame(code, sigma=0.9, seed=(400, trial))
            llr = 2.0 * y / 0.81
            a = dec_a.decode(llr)
            b = dec_b.decode(llr)
            assert np.array_equal(a.u_hats, b.u_hats)
            assert np.array_equal(a.metrics, b.metrics)


def test_fscl_textbook_tree_touches_two_nodes(code8):
    tree = fp.build_tree(code8)
    assert tree.leaf_count == 2
    cfg = fp.ListConfig(list_size=4)
    _, _, y = noisy_frame(code8, sigma=0.8, seed=500)
    res = ListEngine(code8, tree, cfg).decode(2.0 * y)
    assert len(res) <= 4
    # both constituent outputs must be valid for their node types; the root
    # combine maps them to x = [beta_l ^ beta_r, beta_r]
    for x_hat in res.x_hats:
        beta_r = x_hat[4:]
        beta_l = x_hat[:4] ^ beta_r
        assert beta_l.min() == beta_l.max()      # repetition word
        assert int(beta_r.sum()) % 2 == 0        # even parity word


def test_fscl_r0_rep_frame_identical_to_scl():
    code = fp.construct(64, 24, 8)
    tree = fp.build_tree(code, {"R0", "Rep"})
    sc = fp.sc_tree(code)
    cfg = fp.ListConfig(list_size=4)
    dec_a, dec_b = ListEngine(code, sc, cfg), ListEngine(code, tree, cfg)
    for trial in range(100):
        _, _, y = noisy_frame(code, sigma=0.95, seed=(600, trial))
        llr = 2.0 * y / (0.95 ** 2)
        a = dec_a.decode(llr)
        b = dec_b.decode(llr)
        assert {tuple(r) for r in a.x_hats} == {tuple(r) for r in b.x_hats}
        assert np.allclose(np.sort(a.metrics), np.sort(b.metrics), atol=1e-9)


@pytest.mark.parametrize("kinds", ["sc", "r0,r1,rep,spc"])
def test_nan_llrs_refused_before_walk(monkeypatch, kinds):
    # a NaN LLR used to reach the metrics and could still pass the CRC; +-inf
    # are refused too (opposite infinities met in g and gave NaN metrics)
    code = fp.construct(64, 28, 8)
    tree = fp.sc_tree(code) if kinds == "sc" else fp.build_tree(code)
    refuse_walk(monkeypatch)
    engine = ListEngine(code, tree, fp.ListConfig(list_size=4))
    llr = np.ones(64)
    with pytest.raises(AssertionError, match="the walk started"):
        engine.decode(llr)  # the guard is in place: finite LLRs reach the first step
    llr[[5, 40]] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        engine.decode(llr)
    llr[[5, 40]] = np.inf, -np.inf
    with pytest.raises(ValueError, match="finite"):
        engine.decode(llr)


@pytest.mark.parametrize("kinds", ["sc", "fast"])
@pytest.mark.parametrize("mode", ["approx", "exact"])
def test_huge_llrs_refused_above_overflow_bound(monkeypatch, kinds, mode):
    # at |LLR| <= sqrt(float max) / N every g sum stays below sqrt(float max), so
    # f_minsum's a*b and the path metrics stay finite (+-1e308 gave all-inf metrics)
    code = fp.construct(64, 28, 8)
    tree = fp.build_tree(code, fp.parse_kinds(kinds))
    cfg = fp.ListConfig(list_size=4, metric_mode=mode)
    bound = np.sqrt(np.finfo(np.float64).max) / code.block_len
    llr = bound * np.random.default_rng(4).choice([-1.0, 1.0], code.block_len)
    assert np.isfinite(ListEngine(code, tree, cfg).decode(llr).metrics).all()
    refuse_walk(monkeypatch)
    llr[7] = np.nextafter(bound, np.inf)
    with pytest.raises(ValueError, match=re.escape(f"{bound:.6g}")):
        ListEngine(code, tree, cfg).decode(llr)


def test_reused_engine_equals_fresh_decode_frame_by_frame():
    # one engine per decoder, frames interleaved across decoders and sizes:
    # every result equals a decode on a freshly built engine, bit for bit,
    # touched tables included
    decoders = []
    for n, k in ((64, 28), (256, 128)):
        code = fp.construct(n, k, 8)
        sc, fast = fp.sc_tree(code), fp.build_tree(code)
        for tree, mode, variant in ((sc, "exact", None), (fast, "approx", None),
                                    (fast, "approx", "msib"), (fast, "approx", "ib")):
            lutset = design_lutset(code, fast, variant, 2.0, 4) if variant else None
            cfg = fp.ListConfig(list_size=4, metric_mode=mode)
            decoders.append((code, tree, cfg, lutset, ListEngine(code, tree, cfg, lutset)))
    touched_counts = set()
    for frame in range(50):
        sigma = (0.7, 0.85, 1.0)[frame % 3]
        turn = frame % len(decoders)
        for code, tree, cfg, lutset, engine in decoders[turn:] + decoders[:turn]:
            _, _, y = noisy_frame(code, sigma, seed=(1200, code.block_len, frame))
            msgs = quantize_rx(lutset.channel_thresholds, y) if lutset else 2.0 * y / sigma ** 2
            got = engine.decode(msgs)
            want = ListEngine(code, tree, cfg, lutset).decode(msgs)  # a fresh engine
            assert np.array_equal(got.u_hats, want.u_hats)
            assert np.array_equal(got.x_hats, want.x_hats)
            assert got.metrics.tobytes() == want.metrics.tobytes()
            assert got.touched_decoding == want.touched_decoding
            assert got.touched_translation == want.touched_translation
            touched_counts.add(len(got.touched_decoding) + len(got.touched_translation))
            # one immutable record per decoder, safely shared by all its results
            assert isinstance(got.touched_decoding, frozenset)
            assert isinstance(got.touched_translation, frozenset)
    assert len(touched_counts) > 1  # LUT frames touched tables, float frames none


def test_ca_select_prefers_crc_pass():
    code = fp.construct(64, 16, 16)
    cfg = fp.ListConfig(list_size=8)
    decoder = ListEngine(code, fp.sc_tree(code), cfg)
    hits = 0
    for trial in range(50):
        payload, _, y = noisy_frame(code, sigma=0.85, seed=(700, trial))
        res = decoder.decode(2.0 * y / 0.85 ** 2)
        idx, info, ok = fp.ca_select(code, res)
        if ok and idx > 0:
            hits += 1
        if ok:
            assert fp.crc_check(code, info)
    assert hits > 0  # CRC really does rescue non-top candidates sometimes


# sha256 prefixes of metrics.tobytes() and x_hats.tobytes() over 20 frames,
# recorded before the in-place kernels and the level-wise all-frozen subtrees.
# "r1,rep,spc" leaves frozen interior nodes to the level-wise path.
PINNED_DIGESTS = {
    ("sc", "exact"): ("94f935d7a09e4a41", "bec0fc451ddec627"),
    ("sc", "approx"): ("a58758c8f73ff2c2", "3f4f60fe35a98388"),
    ("", "exact"): ("94f935d7a09e4a41", "bec0fc451ddec627"),
    ("", "approx"): ("a58758c8f73ff2c2", "3f4f60fe35a98388"),
    ("r1,rep,spc", "exact"): ("68b1d0b6e0f8f9f0", "1116caca36e2538b"),
    ("r1,rep,spc", "approx"): ("67cbf1fe4963024f", "3f4f60fe35a98388"),
    ("r0,r1,rep,spc", "exact"): ("68ea256d5be78c2a", "1f1927cf9ec702b3"),
    ("r0,r1,rep,spc", "approx"): ("586e6ff285cdc483", "3f4f60fe35a98388"),
}


@pytest.mark.parametrize("kinds,mode", sorted(PINNED_DIGESTS))
def test_decodes_bit_identical_to_pinned_digests(kinds, mode):
    code = fp.construct(256, 128, 16)
    cfg = fp.ListConfig(list_size=8, metric_mode=mode)
    tree = fp.sc_tree(code) if kinds == "sc" else fp.build_tree(code, fp.parse_kinds(kinds))
    decoder = ListEngine(code, tree, cfg)
    metrics, x_hats = hashlib.sha256(), hashlib.sha256()
    for trial in range(20):
        _, _, y = noisy_frame(code, 0.8, seed=(900, trial))
        llr = 2.0 * y / 0.8 ** 2
        res = decoder.decode(llr)
        metrics.update(res.metrics.tobytes())
        x_hats.update(res.x_hats.tobytes())
    assert (metrics.hexdigest()[:16], x_hats.hexdigest()[:16]) == PINNED_DIGESTS[kinds, mode]
