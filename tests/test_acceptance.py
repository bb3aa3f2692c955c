"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. The paper-scale spot check (criterion 9) is opt-in via
``FAPOLAR_FULLSCALE=1`` since it needs hours of CPU.
"""

import functools
import itertools
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import fapolar as fp
from fapolar.listdec import decode_rate0, decode_rate1, decode_rep, decode_spc
from fapolar.lutdec import quantize_rx
from fapolar.lutdesign import (
    _merge_sorted,
    _optimal_partition,
    design_lutset,
    load_lutset,
    quantize_channel,
    save_lutset,
)
from fapolar.sim import ChannelModel, DecoderSpec, FrameDecoder, run_point

from conftest import noisy_frame

DATA = Path(__file__).parent / "data"
WORKERS = min(2, os.cpu_count() or 1)


def criterion(num, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:2d}] FAIL  {title}")
                raise
            print(f"\n[criterion {num:2d}] PASS  {title}")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------

@criterion(1, "lookup table counts at N=1024 match the published table")
def test_criterion_01_table_counts():
    expected = {256: (71, 140), 512: (86, 170), 768: (75, 148)}
    for payload, (leaves, ib_dec) in expected.items():
        code = fp.construct(1024, payload, 16)
        tree = fp.build_tree(code)
        assert tree.leaf_count == leaves
        assert fp.table_counts(tree, "ib") == (ib_dec, leaves)
        assert fp.table_counts(tree, "msib") == (leaves, leaves)


@criterion(2, "fast schedule for N=1024, K=512 matches the golden sequence")
def test_criterion_02_schedule_regression():
    code = fp.construct(1024, 512, 16)
    rows = fp.dump_schedule(fp.build_tree(code))
    assert len(rows) == 86
    assert rows[0][:3] == (1, 3, "Rep")
    assert rows[-1][:3] == (86, 3, "SPC")
    golden = (DATA / "fast_schedule_n1024_k512_crc16.tsv").read_text().splitlines()
    got = ["\t".join(str(v) for v in row) for row in rows]
    assert got == golden[1:]


@criterion(3, "unpruned and SSC designs produce the textbook table counts")
def test_criterion_03_sc_schedule_counts(code8):
    code = fp.construct(1024, 512, 16)
    assert fp.table_counts(fp.sc_tree(code), "ib") == (2046, 1024)
    sc_set = design_lutset(code8, fp.sc_tree(code8), "ib", 0.5, 4)
    assert sc_set.table_counts() == (14, 8)
    ssc_set = design_lutset(code8, fp.build_tree(code8, {"R0", "R1"}), "ib", 0.5, 4)
    assert ssc_set.table_counts()[0] == 10


@criterion(4, "fast list decoding preserves plain SCL decisions frame by frame")
def test_criterion_04_equivalence_suite():
    code = fp.construct(64, 24, 8)
    cfg = fp.ListConfig(list_size=4, metric_mode="approx")
    tree_r0rep = fp.build_tree(code, {"R0", "Rep"})
    tree_r0r1rep = fp.build_tree(code, {"R0", "R1", "Rep"})
    sc = fp.sc_tree(code)
    ref_dec, a_dec, b_dec = (fp.ListEngine(code, tree, cfg)
                             for tree in (sc, tree_r0rep, tree_r0r1rep))
    sigma = ChannelModel(2.5, code.rate).sigma
    same_r0rep = 0
    same_r0r1rep = 0
    frames = 1000
    for trial in range(frames):
        _, _, y = noisy_frame(code, sigma=sigma, seed=(40, trial))
        llr = 2.0 * y / sigma ** 2
        ref = ref_dec.decode(llr)
        ref_set = {tuple(row) for row in ref.x_hats}
        a = a_dec.decode(llr)
        same_r0rep += {tuple(r) for r in a.x_hats} == ref_set
        b = b_dec.decode(llr)
        same_r0r1rep += {tuple(r) for r in b.x_hats} == ref_set
    assert same_r0rep == frames
    assert same_r0r1rep >= 0.999 * frames


def _subtree_codewords(kind, size):
    if kind == "R0":
        return [np.zeros(size, dtype=np.uint8)]
    if kind == "Rep":
        return [np.zeros(size, dtype=np.uint8), np.ones(size, dtype=np.uint8)]
    words = [np.array(b, dtype=np.uint8) for b in itertools.product((0, 1), repeat=size)]
    if kind == "R1":
        return words
    return [w for w in words if int(w.sum()) % 2 == 0]


def _brute_force(kind, metrics, alpha, keep):
    cands = []
    for path, (mu, a) in enumerate(zip(metrics, alpha)):
        hard = (a < 0).astype(np.uint8)
        for word in _subtree_codewords(kind, a.size):
            cands.append((mu + float(np.abs(a)[word != hard].sum()), path, tuple(word)))
    cands.sort(key=lambda item: item[0])
    return sorted((round(m, 9), p, w) for m, p, w in cands[:keep])


@criterion(5, "constituent decoders equal exhaustive subtree list decoding")
def test_criterion_05_node_oracles():
    rng = np.random.default_rng(50)
    decoders = {"R0": lambda mu, a, L: decode_rate0(mu, a),
                "Rep": decode_rep, "R1": decode_rate1}
    for kind, decoder in decoders.items():
        for size in (2, 4, 8):
            for list_size in (1, 2, 4, 8):
                for _ in range(100):
                    n_in = int(rng.integers(1, list_size + 1))
                    metrics = np.sort(rng.uniform(0, 2, n_in))
                    alpha = rng.normal(0, 2, (n_in, size))
                    parent, mu, beta = decoder(metrics, alpha, list_size)
                    got = sorted((round(m, 9), int(p), tuple(b))
                                 for m, p, b in zip(mu, parent, beta))
                    keep = n_in if kind == "R0" else list_size
                    want = _brute_force(kind, metrics, alpha, keep)
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert abs(g[0] - w[0]) <= 1e-9 and g[1:] == w[1:]
    # SPC: exact only for list size 2, even parity always
    for size in (2, 4, 8):
        for _ in range(100):
            n_in = int(rng.integers(1, 3))
            metrics = np.sort(rng.uniform(0, 2, n_in))
            alpha = rng.normal(0, 2, (n_in, size))
            parent, mu, beta = decode_spc(metrics, alpha, 2)
            got = sorted((round(m, 9), int(p), tuple(b))
                         for m, p, b in zip(mu, parent, beta))
            want = _brute_force("SPC", metrics, alpha, 2)
            for g, w in zip(got, want):
                assert abs(g[0] - w[0]) <= 1e-9 and g[1:] == w[1:]
        for list_size in (1, 2, 4, 8):
            for _ in range(25):
                alpha = rng.normal(0, 2, (1, max(size, 2)))
                _, _, beta = decode_spc(np.zeros(1), alpha, list_size)
                assert not np.bitwise_xor.reduce(beta, axis=1).any()


@criterion(6, "metric and encoder arithmetic properties hold")
def test_criterion_06_arithmetic_properties():
    rng = np.random.default_rng(60)
    a = rng.uniform(-15, 15, 10 ** 4)
    b = rng.uniform(-15, 15, 10 ** 4)
    from fapolar.arith import f_exact, f_minsum, metric_increment
    assert np.max(np.abs(f_exact(a, b) - f_minsum(a, b))) <= np.log(2) + 1e-12
    bits = rng.integers(0, 2, 10 ** 4)
    llr = rng.uniform(-20, 20, 10 ** 4)
    gap = metric_increment(bits, llr, "exact") - metric_increment(bits, llr, "approx")
    assert np.all(gap >= -1e-12) and np.all(gap <= np.log(2) + 1e-12)
    for _ in range(1000):
        n_bits = int(rng.choice([4, 16, 64]))
        u = rng.integers(0, 2, n_bits, dtype=np.uint8)
        v = rng.integers(0, 2, n_bits, dtype=np.uint8)
        assert np.array_equal(fp.polar_transform(fp.polar_transform(u)), u)
        assert np.array_equal(fp.polar_transform(u ^ v),
                              fp.polar_transform(u) ^ fp.polar_transform(v))


def _mi_bits(joint):
    joint = np.asarray(joint, dtype=np.float64)

    def ent(p):
        p = p[p > 0]
        return -(p * np.log2(p)).sum()

    return ent(joint.sum(axis=1)) + ent(joint.sum(axis=0)) - ent(joint.ravel())


def _partition_mi(joint, cuts):
    """I(X;T) of the contiguous partition of the columns of ``joint`` whose
    intervals after the first start at ``cuts``, from the interval sums."""
    bounds = (0,) + tuple(cuts) + (joint.shape[1],)
    return _mi_bits(np.stack([[joint[x, lo:hi].sum() for lo, hi in zip(bounds, bounds[1:])]
                              for x in (0, 1)]))


@criterion(7, "quantizer DP is optimal and the channel quantizer retains MI")
def test_criterion_07_quantizer_optimality():
    rng = np.random.default_rng(70)
    checked = 0
    while checked < 50:
        n_obs = int(rng.integers(6, 21))
        out_size = int(rng.integers(2, 5))
        raw = rng.uniform(0.01, 1.0, (2, n_obs))
        raw /= raw.sum()
        order = np.argsort(np.log(raw[0] / raw[1]), kind="stable")
        srt = raw[:, order]
        joint, _, (n_groups,) = _merge_sorted(np.log(srt[0] / srt[1])[None], srt[None])
        joint = joint[0, :, :n_groups]
        if joint.shape[1] < out_size:
            continue
        (splits,), _ = _optimal_partition(joint[None], out_size)  # the design's DP
        best = max(_partition_mi(joint, cuts)
                   for cuts in itertools.combinations(range(1, joint.shape[1]), out_size - 1))
        assert abs(_partition_mi(joint, splits) - best) <= 1e-12
        checked += 1

    _, _, joint = quantize_channel(0.5, 0.5, 4)
    sigma = ChannelModel(0.5, 0.5).sigma
    span = 1.0 + 6.0 * sigma
    half = np.linspace(0.0, span, 1001)
    edges = np.concatenate([-half[:0:-1], half])
    mass0 = np.diff(ndtr((edges - 1.0) / sigma))
    grid_joint = np.stack([mass0, mass0[::-1]]) * 0.5
    grid_joint /= grid_joint.sum()
    grid_mi = _mi_bits(grid_joint)
    got = _mi_bits(joint)
    assert got <= grid_mi <= 1.0
    assert got >= 0.99 * grid_mi


# ---------------------------------------------------------------------------
# scaled BLER behaviour (criterion 8)

N256 = (256, 128, 16)
LIST256 = 8
DESIGN_DB_256 = 2.0


def _sweep_points(code, decoder, ebn0_list, seed, max_frames=40000, min_errors=100):
    points = {}
    for ebn0 in ebn0_list:
        points[ebn0] = run_point(code, decoder, ChannelModel(ebn0, code.rate),
                                 seed=seed, max_frames=max_frames,
                                 min_errors=min_errors, workers=WORKERS)
    return points


def _crossing_db(points, target=1e-2):
    """Log-linear interpolation of the Eb/N0 where BLER crosses ``target``."""
    xs = sorted(points)
    for lo, hi in zip(xs, xs[1:]):
        b_lo, b_hi = points[lo].bler, points[hi].bler
        if b_lo >= target >= b_hi and b_hi > 0:
            span = np.log10(b_lo) - np.log10(b_hi)
            frac = (np.log10(b_lo) - np.log10(target)) / span
            return lo + frac * (hi - lo)
    raise AssertionError(f"BLER {target} not bracketed: "
                         + ", ".join(f"{x}:{points[x].bler:.3g}" for x in xs))


def _ci3(point):
    return 3.0 * np.sqrt(max(point.bler * (1 - point.bler), 1e-12) / point.frames)


@pytest.mark.slow
@criterion(8, "scaled error-rate behaviour at N=256 matches the reported trends")
def test_criterion_08_scaled_bler():
    code = fp.construct(*N256)
    fast = fp.build_tree(code)

    # (a) exact metric never behind approximate metric, plain SCL
    exact = FrameDecoder(code, DecoderSpec("llr", "sc", "exact", LIST256))
    approx = FrameDecoder(code, DecoderSpec("llr", "sc", "approx", LIST256))
    pts_exact = _sweep_points(code, exact, (1.5, 2.0, 2.25), seed=81, max_frames=12000)
    pts_approx = _sweep_points(code, approx, (1.5, 2.0, 2.25), seed=81, max_frames=12000)
    for ebn0 in pts_exact:
        gap = pts_exact[ebn0].bler - pts_approx[ebn0].bler
        assert gap <= _ci3(pts_exact[ebn0]) + _ci3(pts_approx[ebn0]), (
            f"exact SCL worse than approx at {ebn0} dB beyond noise")

    # (b) 4-bit MSIB fast decoding within 0.35 dB of float at BLER 1e-2
    lut_msib = design_lutset(code, fast, "msib", DESIGN_DB_256, 4)
    float_fast = FrameDecoder(code, DecoderSpec("llr", "fast", "approx", LIST256))
    msib_fast = FrameDecoder(
        code, DecoderSpec("msib", "fast", "approx", LIST256, lut_path="(in-memory)"),
        lutset=lut_msib)
    grid = (2.25, 2.5, 2.75)
    pts_float = _sweep_points(code, float_fast, grid, seed=82)
    pts_msib = _sweep_points(code, msib_fast, grid, seed=82)
    if min(p.bler for p in pts_msib.values()) > 1e-2:
        pts_msib.update(_sweep_points(code, msib_fast, (3.0,), seed=82))
        pts_float.update(_sweep_points(code, float_fast, (3.0,), seed=82))
    gap_db = _crossing_db(pts_msib) - _crossing_db(pts_float)
    assert abs(gap_db) <= 0.35, f"horizontal gap {gap_db:+.3f} dB at BLER 1e-2"

    # (c) min-sum design never behind the plain design beyond noise
    lut_ib = design_lutset(code, fast, "ib", DESIGN_DB_256, 4)
    ib_fast = FrameDecoder(
        code, DecoderSpec("ib", "fast", "approx", LIST256, lut_path="(in-memory)"),
        lutset=lut_ib)
    pts_ib = _sweep_points(code, ib_fast, grid, seed=82)
    for ebn0 in grid:
        limit = pts_ib[ebn0].bler + _ci3(pts_ib[ebn0]) + _ci3(pts_msib[ebn0])
        assert pts_msib[ebn0].bler <= limit, (
            f"msib worse than ib at {ebn0} dB beyond noise")


@pytest.mark.fullscale
@pytest.mark.skipif(os.environ.get("FAPOLAR_FULLSCALE") != "1",
                    reason="paper-scale spot check; set FAPOLAR_FULLSCALE=1")
@criterion(9, "paper-scale spot check: N=1024 exact SCL at 2.0 dB")
def test_criterion_09_fullscale_spot_check():
    code = fp.construct(1024, 512, 16)
    decoder = FrameDecoder(code, DecoderSpec("llr", "sc", "exact", 32))
    point = run_point(code, decoder, ChannelModel(2.0, code.rate), seed=90,
                      max_frames=150000, min_errors=30, workers=WORKERS)
    assert point.block_errors >= 30
    reference = 3.26e-4
    ci = 3.0 * np.sqrt(reference * (1 - reference) / point.frames)
    assert abs(point.bler - reference) <= ci, (
        f"bler {point.bler:.3e} vs reference {reference:.3e} +- {ci:.3e}")


@criterion(10, "LUT files round-trip bit-exactly and decode identically")
def test_criterion_10_lut_roundtrip(tmp_path, code8):
    code = fp.construct(64, 24, 8)
    tree = fp.build_tree(code)
    lutset = design_lutset(code, tree, "ib", 2.0, 4)
    path_a = tmp_path / "tables.json"
    save_lutset(lutset, path_a)
    loaded = load_lutset(path_a)
    path_b = tmp_path / "tables2.json"
    save_lutset(loaded, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert np.array_equal(loaded.channel_thresholds, lutset.channel_thresholds)
    for key, table in lutset.decoding_tables.items():
        assert np.array_equal(loaded.decoding_tables[key], table)
    for key, table in lutset.translation_tables.items():
        assert np.array_equal(loaded.translation_tables[key], table)
    cfg = fp.ListConfig(list_size=4)
    dec_a, dec_b = fp.ListEngine(code, tree, cfg, lutset), fp.ListEngine(code, tree, cfg, loaded)
    sigma = ChannelModel(2.0, code.rate).sigma
    for trial in range(100):
        _, _, y = noisy_frame(code, sigma=sigma, seed=(101, trial))
        symbols = quantize_rx(lutset.channel_thresholds, y)
        res_a = dec_a.decode(symbols)
        res_b = dec_b.decode(symbols)
        assert np.array_equal(res_a.u_hats, res_b.u_hats)
        assert np.array_equal(res_a.metrics, res_b.metrics)
