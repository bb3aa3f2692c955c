import dataclasses
from pathlib import Path

import numpy as np
import pytest

import fapolar as fp
from fapolar.tree import DecoderTree, NodeKind, TreeNode

DATA = Path(__file__).parent / "data"


def kinds(*names):
    return frozenset(NodeKind(n) for n in names)


@pytest.mark.parametrize("mask,expected", [
    ([1, 1, 1, 0], NodeKind.REP),
    ([1, 0, 0, 0], NodeKind.SPC),
    ([0], NodeKind.R1),
    ([1], NodeKind.R0),
    ([1, 1], NodeKind.R0),
    ([0, 0], NodeKind.R1),
    ([1, 0], NodeKind.REP),       # tie order R0, R1, Rep, SPC
    ([0, 1], NodeKind.SC),
    ([1, 0, 1, 0], NodeKind.SC),
    ([0, 0, 0, 1], NodeKind.SC),
])
def test_classify_span(mask, expected):
    assert fp.classify_span(np.array(mask, dtype=bool)) == expected


def test_classification_matches_definitions_on_random_spans():
    rng = np.random.default_rng(2)
    for _ in range(300):
        size = int(rng.choice([1, 2, 4, 8, 16]))
        span = rng.integers(0, 2, size).astype(bool)
        kind = fp.classify_span(span)
        rules = {
            NodeKind.R0: span.all(),
            NodeKind.R1: not span.any(),
            NodeKind.REP: bool(span[:-1].all() and not span[-1]),
            NodeKind.SPC: bool(span[0] and not span[1:].any()),
        }
        matching = [k for k in (NodeKind.R0, NodeKind.R1, NodeKind.REP, NodeKind.SPC)
                    if rules[k]]
        assert kind == (matching[0] if matching else NodeKind.SC)


def array_rule_kind(span):
    """The special-node rule on the span's own bits, as first written."""
    if span.all():
        return NodeKind.R0
    if not span.any():
        return NodeKind.R1
    if span[:-1].all() and not span[-1]:
        return NodeKind.REP
    if span[0] and not span[1:].any():
        return NodeKind.SPC
    return NodeKind.SC


def array_rule_tree(code, enabled):
    """build_tree with every span classified from its slice of the frozen mask."""
    schedule, edge_kinds = [], []

    def rec(lo, size, depth):
        kind = array_rule_kind(code.frozen_mask[lo:lo + size])
        if size == 1 or (kind != NodeKind.SC and kind in enabled):
            schedule.append(TreeNode(depth, lo, size, kind, leaf_id=len(schedule)))
            return schedule[-1]
        node = TreeNode(depth, lo, size, kind, f_edge_id=len(edge_kinds))
        edge_kinds.append("f")
        node.left = rec(lo, size // 2, depth + 1)
        node.g_edge_id = len(edge_kinds)
        edge_kinds.append("g")
        node.right = rec(lo + size // 2, size // 2, depth + 1)
        return node

    root = rec(0, code.block_len, 0)
    return DecoderTree(code.block_len, root, tuple(schedule), tuple(edge_kinds))


@pytest.mark.parametrize("names", [(), ("R0",), ("R1",), ("R0", "R1"), ("Rep", "SPC"),
                                   ("R1", "Rep", "SPC"), ("R0", "R1", "Rep", "SPC")])
def test_build_tree_equals_array_rule_tree(names):
    # build_tree classifies a span in O(1) from prefix counts of the frozen mask
    enabled = kinds(*names)
    rng = np.random.default_rng(12)
    for block_len in (8, 16, 32, 64, 128, 256, 512, 1024):
        for trial in range(4):
            if trial % 2:  # NR construction: the patterns real codes have
                code = fp.construct(block_len, int(rng.integers(1, block_len + 1)))
            else:          # any mask with an information bit
                frozen = rng.random(block_len) < rng.uniform(0.05, 0.95)
                frozen[rng.integers(block_len)] = False
                info = np.flatnonzero(~frozen)
                code = dataclasses.replace(fp.construct(block_len, info.size),
                                           frozen_mask=frozen)
            got, want = fp.build_tree(code, enabled), array_rule_tree(code, enabled)
            assert got.root == want.root
            assert got.edge_kinds == want.edge_kinds
            assert got.schedule_hash() == want.schedule_hash()


def test_build_tree_textbook_fast(code8):
    tree = fp.build_tree(code8)
    assert [(s.depth, s.kind, s.size) for s in tree.schedule] == [
        (1, NodeKind.REP, 4), (1, NodeKind.SPC, 4)]
    assert len(tree.edge_kinds) == 2 and tree.leaf_count == 2
    assert fp.dump_schedule(tree) == [(1, 1, "Rep", 4, 0), (2, 1, "SPC", 4, 4)]


def test_build_tree_textbook_ssc(code8):
    tree = fp.build_tree(code8, kinds("R0", "R1"))
    assert len(tree.edge_kinds) == 10 and tree.leaf_count == 6


def test_build_tree_paper_scale_schedule(nr_seq):
    code = fp.construct(1024, 512, 16, seq=nr_seq)
    tree = fp.build_tree(code)
    rows = fp.dump_schedule(tree)
    assert len(rows) == 86
    assert rows[0][:3] == (1, 3, "Rep")
    assert rows[-1][:3] == (86, 3, "SPC")


def test_schedule_matches_golden_file(nr_seq):
    code = fp.construct(1024, 512, 16, seq=nr_seq)
    rows = fp.dump_schedule(fp.build_tree(code))
    lines = (DATA / "fast_schedule_n1024_k512_crc16.tsv").read_text().splitlines()
    assert lines[0] == "i_v\td\tkind\tN_v\tspan_start"
    got = ["\t".join(str(v) for v in row) for row in rows]
    assert got == lines[1:]


def test_sc_tree_shape(code8):
    tree = fp.sc_tree(code8)
    assert tree.leaf_count == 8
    assert len(tree.edge_kinds) == 14
    assert all(s.size == 1 for s in tree.schedule)


def _random_code(rng, n_bits):
    k = int(rng.integers(1, n_bits))
    order = rng.permutation(n_bits)
    return fp.construct(n_bits, k, 0, seq=fp.ReliabilitySequence(order))


def test_tree_invariants_on_random_masks():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n_bits = int(rng.choice([8, 16, 32, 64]))
        code = _random_code(rng, n_bits)
        tree = fp.build_tree(code)
        # leaf spans tile [0, N)
        covered = []
        for s in tree.schedule:
            assert s.size == 1 << (int(np.log2(n_bits)) - s.depth)
            assert s.span_start % s.size == 0
            covered.extend(range(s.span_start, s.span_start + s.size))
        assert covered == list(range(n_bits))
        if tree.leaf_count >= 2:
            assert len(tree.edge_kinds) == 2 * tree.leaf_count - 2
        assert tree.edge_kinds.count("f") == tree.edge_kinds.count("g") == tree.leaf_count - 1
        dec, trans = fp.table_counts(tree, "msib")
        assert dec == trans == tree.leaf_count


def test_empty_kinds_gives_full_tree():
    rng = np.random.default_rng(3)
    for _ in range(10):
        code = _random_code(rng, 32)
        tree = fp.build_tree(code, frozenset())
        assert tree.leaf_count == 32
        assert len(tree.edge_kinds) == 62
        leaf_kinds = {s.kind for s in tree.schedule}
        assert leaf_kinds <= {NodeKind.R0, NodeKind.R1}


def test_table_counts_paper_values(nr_seq):
    expected = {256: (71, 140), 512: (86, 170), 768: (75, 148)}
    for payload, (leaves, ib_tables) in expected.items():
        code = fp.construct(1024, payload, 16, seq=nr_seq)
        tree = fp.build_tree(code)
        assert tree.leaf_count == leaves
        assert fp.table_counts(tree, "ib") == (ib_tables, leaves)
        assert fp.table_counts(tree, "msib") == (leaves, leaves)


def test_table_counts_unpruned(nr_seq):
    code = fp.construct(1024, 512, 16, seq=nr_seq)
    tree = fp.sc_tree(code)
    assert fp.table_counts(tree, "ib") == (2046, 1024)
    assert fp.table_counts(tree, "msib") == (1024, 1024)


def test_table_counts_rejects_unknown_variant(code8):
    with pytest.raises(ValueError):
        fp.table_counts(fp.build_tree(code8), "other")


def test_parse_kinds():
    assert fp.parse_kinds("") == frozenset()
    assert fp.parse_kinds("r0, SPC") == kinds("R0", "SPC")
    with pytest.raises(ValueError):
        fp.parse_kinds("r2")


def test_schedule_hash_distinguishes_trees(code8):
    fast = fp.build_tree(code8)
    ssc = fp.build_tree(code8, kinds("R0", "R1"))
    assert fast.schedule_hash() != ssc.schedule_hash()
    assert fast.schedule_hash() == fp.build_tree(code8).schedule_hash()


def test_schedule_hash_hashed_once_and_stable(code8, monkeypatch):
    import hashlib

    calls = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data=b"": calls.append(1) or real(data))
    tree = fp.build_tree(code8)
    # LUT files store this value, so its format must not drift
    assert [tree.schedule_hash() for _ in range(3)] == ["e0169255eccc5413"] * 3
    assert len(calls) == 1
