"""Integer-message decoding tests, float decoders as oracles."""

import dataclasses
import re

import numpy as np
import pytest

import fapolar as fp
from fapolar.listdec import ListEngine
from fapolar.lutdec import LutMismatchError, _msib_f_rule, quantize_rx
from fapolar.lutdesign import design_lutset, msib_f_index

from conftest import noisy_frame

W4 = 4


@pytest.fixture(scope="module")
def n64_setup():
    code = fp.construct(64, 28, 8)
    sc = fp.sc_tree(code)
    fast = fp.build_tree(code)
    return code, sc, fast


@pytest.fixture(scope="module")
def n64_ib(n64_setup):
    code, sc, fast = n64_setup
    return (design_lutset(code, sc, "ib", 2.0, W4),
            design_lutset(code, fast, "ib", 2.0, W4))


def test_quantize_rx_edges_and_monotonicity():
    thresholds = np.array([-1.0, 0.0, 1.0])
    assert quantize_rx(thresholds, -5.0) == 0
    assert quantize_rx(thresholds, 5.0) == 3
    ys = np.linspace(-3, 3, 101)
    t = quantize_rx(thresholds, ys)
    assert np.all(np.diff(t) >= 0)
    # boundary values map down
    assert quantize_rx(thresholds, 0.0) == 1
    # NaN is no channel output: refused, not mapped to the top symbol
    with pytest.raises(ValueError, match="NaN"):
        quantize_rx(thresholds, [0.5, np.nan])


def test_quantize_rx_symmetry(n64_ib):
    sc_set, _ = n64_ib
    thresholds = sc_set.channel_thresholds
    rng = np.random.default_rng(0)
    y = rng.uniform(-4, 4, 1000)
    y = y[~np.isin(y, thresholds)]
    t = quantize_rx(thresholds, y)
    t_neg = quantize_rx(thresholds, -y)
    assert np.array_equal(t_neg, 15 - t)


def test_lut_decoder_refuses_mismatched_set(n64_setup, n64_ib):
    code, sc, fast = n64_setup
    sc_set, fast_set = n64_ib
    cfg = fp.ListConfig(list_size=2)
    symbols = np.zeros(64, dtype=np.int16)
    with pytest.raises(LutMismatchError):
        fp.decode(code, sc, symbols, cfg, fast_set)
    other = fp.construct(64, 20, 8)
    with pytest.raises(LutMismatchError):
        fp.decode(other, fp.sc_tree(other), symbols, cfg, sc_set)
    with pytest.raises(LutMismatchError):
        fp.decode(code, sc, np.zeros(64), cfg, sc_set)  # float input


@pytest.mark.parametrize("case", ["g-dropped", "f-arity-3", "leaf-dropped", "leaf-extra",
                                  "msib-f-stray", "unknown-id"])
def test_uncovered_set_refused_before_walk(n64_setup, n64_ib, monkeypatch, case):
    # coverage is checked when the ops are built: the error names the edge or
    # leaf, and no node is visited (a swapped arity used to be an IndexError
    # in the middle of the walk); stray tables are refused too, so the set's
    # table count is the tree's
    code, _, fast = n64_setup
    _, fast_set = n64_ib
    if case == "msib-f-stray":
        fast_set = design_lutset(code, fast, "msib", 2.0, W4)
    lutset = dataclasses.replace(fast_set, decoding_tables=dict(fast_set.decoding_tables),
                                 translation_tables=dict(fast_set.translation_tables))
    f_edge, g_edge = (fast.edge_kinds.index(kind) for kind in "fg")
    if case == "msib-f-stray":  # an f table the index rule would shadow
        lutset.decoding_tables[f_edge] = np.zeros((16, 16), dtype=np.int16)
        name = f"decoding table {f_edge}"
    elif case == "unknown-id":
        lutset.decoding_tables[len(fast.edge_kinds)] = np.zeros((16, 16, 2), dtype=np.int16)
        name = f"decoding table {len(fast.edge_kinds)}"
    elif case == "g-dropped":
        del lutset.decoding_tables[g_edge]
        name = f"g edge {g_edge}"
    elif case == "f-arity-3":
        lutset.decoding_tables[f_edge] = np.zeros((16, 16, 2), dtype=np.int16)
        name = f"f edge {f_edge}"
    elif case == "leaf-dropped":
        del lutset.translation_tables[fast.leaf_count - 1]
        name = f"leaf {fast.leaf_count - 1}"
    else:
        lutset.translation_tables[fast.leaf_count] = lutset.translation_tables[0]
        name = f"leaf {fast.leaf_count}"

    def walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(ListEngine, "_walk", walk)
    with pytest.raises(LutMismatchError, match=re.escape(name) + r"\b"):
        fp.decode(code, fast, np.zeros(64, dtype=np.int16), fp.ListConfig(list_size=2), lutset)


def test_lut_decode_strong_channel_error_free(n64_setup, n64_ib):
    code, sc, _ = n64_setup
    sc_set, _ = n64_ib
    cfg = fp.ListConfig(list_size=4)
    channel = None
    errors = 0
    sigma = float(np.sqrt(1.0 / (2.0 * code.rate * 10 ** ((2.0 + 6.0) / 10.0))))
    for trial in range(1000):
        payload, _, y = noisy_frame(code, sigma=sigma, seed=(1000, trial))
        symbols = quantize_rx(sc_set.channel_thresholds, y)
        res = fp.decode(code, sc, symbols, cfg, sc_set)
        _, info, _ = fp.ca_select(code, res)
        if not np.array_equal(info[: code.payload_len], payload):
            errors += 1
    assert errors == 0


def test_touched_tables_audit(n64_setup):
    code, sc, fast = n64_setup
    msib_fast = design_lutset(code, fast, "msib", 2.0, W4)
    msib_sc = design_lutset(code, sc, "msib", 2.0, W4)
    cfg = fp.ListConfig(list_size=4)
    _, _, y = noisy_frame(code, sigma=0.8, seed=42)

    res = fp.decode(code, fast, quantize_rx(msib_fast.channel_thresholds, y), cfg, msib_fast)
    assert res.touched_decoding == set(msib_fast.decoding_tables.keys())
    assert len(res.touched_decoding) == fast.edge_kinds.count("g")
    # the tabulated f rule is no designed table: only g edges are touched, and
    # with the channel quantizer they make the advertised msib count
    assert res.touched_decoding == {e for e, kind in enumerate(fast.edge_kinds) if kind == "g"}
    assert fp.table_counts(fast, "msib")[0] == len(res.touched_decoding) + 1
    assert res.touched_translation == set(range(fast.leaf_count))

    res = fp.decode(code, sc, quantize_rx(msib_sc.channel_thresholds, y), cfg, msib_sc)
    # every stored table is a g table and all of them are used: with the
    # channel quantizer that is exactly the advertised msib decoding count
    assert len(res.touched_decoding) == sc.edge_kinds.count("g") == 63
    assert len(res.touched_translation) == 64


@pytest.mark.parametrize("w", range(1, 7))
def test_msib_f_rule_tabulates_index_rule(w):
    size = 1 << w
    rule = _msib_f_rule(size)
    t1, t2 = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    assert rule.dtype == np.int16 and rule.shape == (size, size)
    assert np.array_equal(rule, msib_f_index(t1, t2, size))
    assert not rule.flags.writeable
    assert _msib_f_rule(size) is rule  # tabulated once per alphabet size


def test_textbook_fast_tree_touches_two_of_each(code8):
    tree = fp.build_tree(code8)
    lutset = design_lutset(code8, tree, "ib", 0.5, W4)
    cfg = fp.ListConfig(list_size=4)
    _, _, y = noisy_frame(code8, sigma=0.9, seed=7)
    res = fp.decode(code8, tree, quantize_rx(lutset.channel_thresholds, y), cfg, lutset)
    assert len(res.touched_decoding) == 2
    assert len(res.touched_translation) == 2


def test_root_leaf_translation_matches_float_bit_for_bit():
    # a rate-1 code prunes to a single leaf: the LUT decoder is then exactly
    # the float decoder run on the translated message values
    code = fp.construct(16, 16, 0)
    tree = fp.build_tree(code)
    assert tree.leaf_count == 1 and len(tree.edge_kinds) == 0
    lutset = design_lutset(code, tree, "ib", 3.0, W4)
    table = lutset.translation_tables[0]
    cfg = fp.ListConfig(list_size=4)
    rng = np.random.default_rng(5)
    for _ in range(50):
        symbols = rng.integers(0, 16, 16).astype(np.int16)
        lut_res = fp.decode(code, tree, symbols, cfg, lutset)
        float_res = fp.decode(code, tree, table[symbols], cfg)
        assert np.array_equal(lut_res.u_hats, float_res.u_hats)
        assert np.allclose(lut_res.metrics, float_res.metrics)


def test_lut_fscl_empty_kinds_equals_lut_scl(n64_setup, n64_ib):
    # a fast tree with no special nodes is the SC schedule: the SC set fits it
    code, sc, _ = n64_setup
    sc_set, _ = n64_ib
    empty = fp.build_tree(code, frozenset())
    cfg = fp.ListConfig(list_size=4)
    for trial in range(20):
        _, _, y = noisy_frame(code, sigma=0.9, seed=(1100, trial))
        symbols = quantize_rx(sc_set.channel_thresholds, y)
        a = fp.decode(code, sc, symbols, cfg, sc_set)
        b = fp.decode(code, empty, symbols, cfg, sc_set)
        assert np.array_equal(a.u_hats, b.u_hats)
        assert np.array_equal(a.metrics, b.metrics)


def test_lut_scl_supports_exact_metric_mode(n64_setup, n64_ib):
    # exact path metrics on the unpruned schedule use the translated LLRs in
    # the log-domain update; results differ from approximate mode but stay
    # a valid sorted list
    code, sc, _ = n64_setup
    sc_set, _ = n64_ib
    diffs = 0
    for trial in range(50):
        _, _, y = noisy_frame(code, sigma=0.95, seed=(1500, trial))
        symbols = quantize_rx(sc_set.channel_thresholds, y)
        exact = fp.decode(code, sc, symbols,
                          fp.ListConfig(list_size=4, metric_mode="exact"), sc_set)
        approx = fp.decode(code, sc, symbols,
                           fp.ListConfig(list_size=4, metric_mode="approx"), sc_set)
        assert np.all(np.diff(exact.metrics) >= 0)
        assert np.all(exact.metrics >= 0)
        diffs += not np.array_equal(exact.u_hats, approx.u_hats)
    assert diffs > 0


def test_translation_sign_consistent_with_level(n64_ib):
    sc_set, fast_set = n64_ib
    for lutset in (sc_set, fast_set):
        for table in lutset.translation_tables.values():
            assert np.all(np.isfinite(table))
            assert np.all(table[: table.size // 2] < 0)
            assert np.all(table[table.size // 2:] > 0)


def test_fast_lut_decode_tracks_float_fast_decode(n64_setup, n64_ib):
    # not an equivalence (messages are 4-bit) but large agreement is expected
    # once the channel is good enough for stable decisions
    code, _, fast = n64_setup
    _, fast_set = n64_ib
    cfg = fp.ListConfig(list_size=4)
    sigma = float(np.sqrt(1.0 / (2.0 * code.rate * 10 ** (3.0 / 10.0))))
    agree = 0
    trials = 300
    for trial in range(trials):
        payload, _, y = noisy_frame(code, sigma=sigma, seed=(1200, trial))
        res_lut = fp.decode(code, fast, quantize_rx(fast_set.channel_thresholds, y), cfg,
                            fast_set)
        res_float = fp.decode(code, fast, 2.0 * y / sigma ** 2, cfg)
        _, info_l, _ = fp.ca_select(code, res_lut)
        _, info_f, _ = fp.ca_select(code, res_float)
        agree += np.array_equal(info_l, info_f)
    assert agree >= 0.9 * trials


@pytest.mark.slow
def test_r0_only_tree_tracks_sc_schedule(n64_setup):
    # a rate-0-only pruning reuses the same evolved alphabets, so the two
    # schedules agree on almost every frame; quantization keeps the metric
    # bookkeeping from being bit-identical, hence a high bar not equality
    code, sc, _ = n64_setup
    r0only = fp.build_tree(code, {"R0"})
    sc_set = design_lutset(code, sc, "ib", 2.0, W4)
    r0_set = design_lutset(code, r0only, "ib", 2.0, W4)
    cfg = fp.ListConfig(list_size=4)
    sigma = float(np.sqrt(1.0 / (2.0 * code.rate * 10 ** (2.0 / 10.0))))
    agree = 0
    trials = 1000
    for trial in range(trials):
        _, _, y = noisy_frame(code, sigma=sigma, seed=(1400, trial))
        res_sc = fp.decode(code, sc, quantize_rx(sc_set.channel_thresholds, y), cfg, sc_set)
        res_r0 = fp.decode(code, r0only, quantize_rx(r0_set.channel_thresholds, y), cfg,
                           r0_set)
        _, info_a, _ = fp.ca_select(code, res_sc)
        _, info_b, _ = fp.ca_select(code, res_r0)
        agree += np.array_equal(info_a, info_b)
    assert agree >= 0.97 * trials


@pytest.mark.slow
def test_w8_lut_scl_nearly_lossless(n64_sc_ib_w8):
    code, sc, lutset = n64_sc_ib_w8
    cfg = fp.ListConfig(list_size=4)
    sigma = float(np.sqrt(1.0 / (2.0 * code.rate * 10 ** (3.5 / 10.0))))
    agree = 0
    trials = 1000
    for trial in range(trials):
        _, _, y = noisy_frame(code, sigma=sigma, seed=(1300, trial))
        res_lut = fp.decode(code, sc, quantize_rx(lutset.channel_thresholds, y), cfg, lutset)
        res_float = fp.decode(code, sc, 2.0 * y / sigma ** 2, cfg)
        _, info_l, _ = fp.ca_select(code, res_lut)
        _, info_f, _ = fp.ca_select(code, res_float)
        agree += np.array_equal(info_l, info_f)
    assert agree >= 0.99 * trials


def test_u_hats_are_transform_of_x_hats(n64_setup, n64_ib):
    # the engine keeps only x_hats and transforms the final list once; every
    # row must be a codeword whose input matches, on all tree kinds
    code, sc, fast = n64_setup
    cfg = fp.ListConfig(list_size=4)
    for trial in range(10):
        _, _, y = noisy_frame(code, sigma=0.9, seed=(900, trial))
        llr = 2.0 * y / 0.81
        results = [fp.decode(code, sc, llr, cfg), fp.decode(code, fast, llr, cfg)]
        for tree, lutset in zip((sc, fast), n64_ib):
            symbols = quantize_rx(lutset.channel_thresholds, y)
            results.append(fp.decode(code, tree, symbols, cfg, lutset))
        for res in results:
            assert res.u_hats.shape == res.x_hats.shape == (len(res), code.block_len)
            for u_hat, x_hat in zip(res.u_hats, res.x_hats):
                assert np.array_equal(u_hat, fp.polar_transform(x_hat))
                assert np.array_equal(fp.encode(code, u_hat), x_hat)
