"""Integer-message decoding tests, float decoders as oracles."""

import dataclasses
import re
from itertools import product

import numpy as np
import pytest

import fapolar as fp
from fapolar.listdec import ListEngine
from fapolar.lutdec import LutMismatchError, _msib_f_rule, quantize_rx
from fapolar.lutdesign import design_lutset, msib_f_index
from fapolar.tree import NodeKind, TreeNode, stored_tables

from conftest import noisy_frame, refuse_walk

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
    with pytest.raises(LutMismatchError):
        ListEngine(code, sc, cfg, fast_set)
    other = fp.construct(64, 20, 8)
    with pytest.raises(LutMismatchError):
        ListEngine(other, fp.sc_tree(other), cfg, sc_set)
    decoder = ListEngine(code, sc, cfg, sc_set)
    with pytest.raises(LutMismatchError):
        decoder.decode(np.zeros(64))  # float input


@pytest.mark.parametrize("schedule", ["sc", "fast"])
@pytest.mark.parametrize("family", ["llr", "ib"])
def test_tree_of_another_frozen_mask_refused(monkeypatch, n64_setup, n64_ib, schedule, family):
    # a tree of the same N built for another mask used to decode without an
    # error and miss the transmitted word; the first leaf that disagrees is named
    code, sc, fast = n64_setup
    tree, lutset = (sc, n64_ib[0]) if schedule == "sc" else (fast, n64_ib[1])
    other = fp.construct(64, 40, 8)
    leaf = next(leaf for leaf in tree.schedule
                if (code.frozen_mask != other.frozen_mask)[leaf.span_start:][:leaf.size].any())
    refuse_walk(monkeypatch)
    span = f"{leaf.kind.value} leaf on positions {leaf.span_start}..{leaf.span_start + leaf.size - 1} "
    with pytest.raises(ValueError, match=re.escape(span)):
        ListEngine(other, tree, fp.ListConfig(list_size=8), lutset if family == "ib" else None)


@pytest.mark.parametrize("schedule", ["sc", "fast"])
def test_refusal_names_the_first_disagreeing_leaf_past_the_first(monkeypatch, n64_setup, schedule):
    # the last two neighbouring bits that differ swap places: the leaf holding
    # the first of them is the first to change kind, and the leaves before it
    # (leaf 0 among them) still agree with the mask
    code, sc, fast = n64_setup
    tree = sc if schedule == "sc" else fast
    pos = np.flatnonzero(code.frozen_mask[:-1] != code.frozen_mask[1:])[-1]
    mask = code.frozen_mask.copy()
    mask[[pos, pos + 1]] = mask[[pos + 1, pos]]
    other = dataclasses.replace(code, frozen_mask=mask)
    leaf = next(leaf for leaf in tree.schedule if leaf.span_start + leaf.size > pos)
    assert leaf.leaf_id > 0
    refuse_walk(monkeypatch)
    first, last = leaf.span_start, leaf.span_start + leaf.size - 1
    span = f"{leaf.kind.value} leaf on positions {first}..{last} "
    with pytest.raises(ValueError, match=re.escape(span)):
        ListEngine(other, tree, fp.ListConfig(list_size=8))


def test_float_engine_folds_rep_spans_and_information_pairs(n64_setup, n64_ib):
    # float ops compile each interior rep span and information pair to one
    # step, with no f, g or combine step of its own; LUT ops read one table
    # per edge, so they walk every interior node. Steps name edges and leaves
    # by id (-1 on a folded interior node) and hold no tree node or array.
    def folded(node):
        return node.kind in (NodeKind.R0, NodeKind.REP) or node.kind is NodeKind.R1 and node.size == 2

    def interior(node):
        return [] if node.is_leaf else [node, *interior(node.left), *interior(node.right)]

    def steps_by_kind(engine):
        kinds = {}
        for run, args in engine.steps:
            assert not any(isinstance(arg, (TreeNode, np.ndarray)) for arg in args)
            kinds.setdefault(run.__name__, []).append(args)
        return kinds

    code, sc, _ = n64_setup
    nodes = interior(sc.root)
    by_f_edge = {node.f_edge_id: node for node in nodes}
    cfg = fp.ListConfig(list_size=8)
    engine = ListEngine(code, sc, cfg)
    float_steps = steps_by_kind(engine)
    walked = [by_f_edge[args[0]] for args in float_steps["_f"]]
    assert walked and not any(folded(node) for node in walked)
    assert [args[0] for args in float_steps["_g"]] == sorted(node.g_edge_id for node in walked)
    assert len(float_steps["_combine"]) == len(walked)
    fold_kinds = {id(fold): kind for kind, fold in engine._folds.items()}
    assert {fold_kinds[id(args[-1])] for args in float_steps["_leaf"] if args[0] == -1} == \
        {NodeKind.R0, NodeKind.REP, NodeKind.R1}
    lut_steps = steps_by_kind(ListEngine(code, sc, cfg, n64_ib[0]))
    assert [args[0] for args in lut_steps["_f"]] == [node.f_edge_id for node in nodes]
    assert [args[0] for args in lut_steps["_g"]] == sorted(node.g_edge_id for node in nodes)
    assert [args[0] for args in lut_steps["_leaf"]] == list(range(code.block_len))
    for block_len, count in ((1024, 1225), (256, 333)):
        code = fp.construct(block_len, block_len // 2, 16)
        assert len(ListEngine(code, fp.sc_tree(code), cfg).steps) == count


@pytest.mark.parametrize("case", ["g-dropped", "f-arity-3", "leaf-dropped", "leaf-extra",
                                  "msib-f-stray", "unknown-id"])
def test_uncovered_set_refused_before_walk(n64_setup, n64_ib, case):
    # coverage is checked when the engine is built, so no node is visited: the
    # error names the edge or leaf (a swapped arity used to be an IndexError
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

    with pytest.raises(LutMismatchError, match=re.escape(name) + r"\b"):
        ListEngine(code, fast, fp.ListConfig(list_size=2), lutset)


def test_lut_decode_strong_channel_error_free(n64_setup, n64_ib):
    code, sc, _ = n64_setup
    sc_set, _ = n64_ib
    decoder = ListEngine(code, sc, fp.ListConfig(list_size=4), sc_set)
    errors = 0
    sigma = float(np.sqrt(1.0 / (2.0 * code.rate * 10 ** ((2.0 + 6.0) / 10.0))))
    for trial in range(1000):
        payload, _, y = noisy_frame(code, sigma=sigma, seed=(1000, trial))
        symbols = quantize_rx(sc_set.channel_thresholds, y)
        res = decoder.decode(symbols)
        _, info, _ = fp.ca_select(code, res)
        if not np.array_equal(info[: code.payload_len], payload):
            errors += 1
    assert errors == 0


class ReadLog(dict):
    """A table dict that records the ids read by subscript, as a decode walk reads them."""

    def __init__(self, tables):
        super().__init__(tables)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_touched_tables_audit():
    # the walk reads every stored table and every leaf's translation on each
    # frame, so the decoder's table record is fixed when it is built
    for (n, k, kinds), variant in product([(64, 28, "sc"), (64, 28, "fast"), (256, 128, "fast")],
                                          ["msib", "ib"]):
        code = fp.construct(n, k, 8)
        tree = fp.build_tree(code, fp.parse_kinds(kinds))
        lutset = design_lutset(code, tree, variant, 2.0, W4)
        lutset.decoding_tables = ReadLog(lutset.decoding_tables)
        lutset.translation_tables = ReadLog(lutset.translation_tables)
        engine = ListEngine(code, tree, fp.ListConfig(list_size=4), lutset)
        stored, leaves = set(stored_tables(tree, variant)), set(range(tree.leaf_count))
        # the set check at build reads through .get and iteration: no subscript
        assert not lutset.decoding_tables.read and not lutset.translation_tables.read
        for frame in range(3):
            lutset.decoding_tables.read.clear()
            lutset.translation_tables.read.clear()
            _, _, y = noisy_frame(code, sigma=0.8, seed=(42, frame))
            res = engine.decode(quantize_rx(lutset.channel_thresholds, y))
            assert lutset.decoding_tables.read == stored == res.touched_decoding, (n, kinds, variant)
            assert lutset.translation_tables.read == leaves == res.touched_translation
        # MSIB reads only g tables: with the channel quantizer in place of the
        # f rule they make the advertised count
        assert fp.table_counts(tree, variant)[0] == len(stored) + (variant == "msib")
        if variant == "msib":
            assert stored == {e for e, kind in enumerate(tree.edge_kinds) if kind == "g"}


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
    symbols = quantize_rx(lutset.channel_thresholds, y)
    res = ListEngine(code8, tree, cfg, lutset).decode(symbols)
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
    lut_dec, float_dec = ListEngine(code, tree, cfg, lutset), ListEngine(code, tree, cfg)
    rng = np.random.default_rng(5)
    for _ in range(50):
        symbols = rng.integers(0, 16, 16).astype(np.int16)
        lut_res = lut_dec.decode(symbols)
        float_res = float_dec.decode(table[symbols])
        assert np.array_equal(lut_res.u_hats, float_res.u_hats)
        assert np.allclose(lut_res.metrics, float_res.metrics)


def test_lut_fscl_empty_kinds_equals_lut_scl(n64_setup, n64_ib):
    # a fast tree with no special nodes is the SC schedule: the SC set fits it
    code, sc, _ = n64_setup
    sc_set, _ = n64_ib
    empty = fp.build_tree(code, frozenset())
    cfg = fp.ListConfig(list_size=4)
    dec_a, dec_b = ListEngine(code, sc, cfg, sc_set), ListEngine(code, empty, cfg, sc_set)
    for trial in range(20):
        _, _, y = noisy_frame(code, sigma=0.9, seed=(1100, trial))
        symbols = quantize_rx(sc_set.channel_thresholds, y)
        a = dec_a.decode(symbols)
        b = dec_b.decode(symbols)
        assert np.array_equal(a.u_hats, b.u_hats)
        assert np.array_equal(a.metrics, b.metrics)


def test_lut_scl_supports_exact_metric_mode(n64_setup, n64_ib):
    # exact path metrics on the unpruned schedule use the translated LLRs in
    # the log-domain update; results differ from approximate mode but stay
    # a valid sorted list
    code, sc, _ = n64_setup
    sc_set, _ = n64_ib
    exact_dec, approx_dec = (
        ListEngine(code, sc, fp.ListConfig(list_size=4, metric_mode=mode), sc_set)
        for mode in ("exact", "approx"))
    diffs = 0
    for trial in range(50):
        _, _, y = noisy_frame(code, sigma=0.95, seed=(1500, trial))
        symbols = quantize_rx(sc_set.channel_thresholds, y)
        exact = exact_dec.decode(symbols)
        approx = approx_dec.decode(symbols)
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
    lut_dec, float_dec = ListEngine(code, fast, cfg, fast_set), ListEngine(code, fast, cfg)
    sigma = float(np.sqrt(1.0 / (2.0 * code.rate * 10 ** (3.0 / 10.0))))
    agree = 0
    trials = 300
    for trial in range(trials):
        payload, _, y = noisy_frame(code, sigma=sigma, seed=(1200, trial))
        res_lut = lut_dec.decode(quantize_rx(fast_set.channel_thresholds, y))
        res_float = float_dec.decode(2.0 * y / sigma ** 2)
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
    sc_dec, r0_dec = ListEngine(code, sc, cfg, sc_set), ListEngine(code, r0only, cfg, r0_set)
    sigma = float(np.sqrt(1.0 / (2.0 * code.rate * 10 ** (2.0 / 10.0))))
    agree = 0
    trials = 1000
    for trial in range(trials):
        _, _, y = noisy_frame(code, sigma=sigma, seed=(1400, trial))
        res_sc = sc_dec.decode(quantize_rx(sc_set.channel_thresholds, y))
        res_r0 = r0_dec.decode(quantize_rx(r0_set.channel_thresholds, y))
        _, info_a, _ = fp.ca_select(code, res_sc)
        _, info_b, _ = fp.ca_select(code, res_r0)
        agree += np.array_equal(info_a, info_b)
    assert agree >= 0.97 * trials


@pytest.mark.slow
def test_w8_lut_scl_nearly_lossless(n64_sc_ib_w8):
    code, sc, lutset = n64_sc_ib_w8
    cfg = fp.ListConfig(list_size=4)
    lut_dec, float_dec = ListEngine(code, sc, cfg, lutset), ListEngine(code, sc, cfg)
    sigma = float(np.sqrt(1.0 / (2.0 * code.rate * 10 ** (3.5 / 10.0))))
    agree = 0
    trials = 1000
    for trial in range(trials):
        _, _, y = noisy_frame(code, sigma=sigma, seed=(1300, trial))
        res_lut = lut_dec.decode(quantize_rx(lutset.channel_thresholds, y))
        res_float = float_dec.decode(2.0 * y / sigma ** 2)
        _, info_l, _ = fp.ca_select(code, res_lut)
        _, info_f, _ = fp.ca_select(code, res_float)
        agree += np.array_equal(info_l, info_f)
    assert agree >= 0.99 * trials


def test_u_hats_are_transform_of_x_hats(n64_setup, n64_ib):
    # the engine keeps only x_hats and transforms the final list once; every
    # row must be a codeword whose input matches, on all tree kinds
    code, sc, fast = n64_setup
    cfg = fp.ListConfig(list_size=4)
    float_decs = [ListEngine(code, tree, cfg) for tree in (sc, fast)]
    lut_decs = [(lutset, ListEngine(code, tree, cfg, lutset))
                for tree, lutset in zip((sc, fast), n64_ib)]
    for trial in range(10):
        _, _, y = noisy_frame(code, sigma=0.9, seed=(900, trial))
        llr = 2.0 * y / 0.81
        results = [decoder.decode(llr) for decoder in float_decs]
        for lutset, decoder in lut_decs:
            results.append(decoder.decode(quantize_rx(lutset.channel_thresholds, y)))
        for res in results:
            assert res.u_hats.shape == res.x_hats.shape == (len(res), code.block_len)
            for u_hat, x_hat in zip(res.u_hats, res.x_hats):
                assert np.array_equal(u_hat, fp.polar_transform(x_hat))
                assert np.array_equal(fp.encode(code, u_hat), x_hat)
