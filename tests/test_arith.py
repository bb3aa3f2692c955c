import numpy as np
import pytest

from fapolar.arith import (
    LLR_CLIP,
    combine_bits,
    f_exact,
    f_minsum,
    g_func,
    hard_decision,
    metric_increment,
)


def test_f_exact_zero_annihilates():
    for b in (-7.0, -0.3, 0.0, 2.0, 25.0):
        assert f_exact(0.0, b) == 0.0


def test_f_exact_identity_element_at_clip():
    # a box-plus saturated "certain" value passes the other argument through
    for a in (-3.0, 0.5, 4.0):
        assert abs(f_exact(a, LLR_CLIP) - a) < 1e-9


def test_f_exact_matches_tanh_form():
    rng = np.random.default_rng(0)
    a = rng.uniform(-10, 10, 5000)
    b = rng.uniform(-10, 10, 5000)
    direct = 2.0 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
    assert np.max(np.abs(f_exact(a, b) - direct)) < 1e-10


def test_minsum_gap_bounded_by_ln2():
    rng = np.random.default_rng(1)
    a = rng.uniform(-12, 12, 10000)
    b = rng.uniform(-12, 12, 10000)
    gap = np.abs(f_exact(a, b) - f_minsum(a, b))
    assert np.max(gap) <= np.log(2) + 1e-12


def test_f_minsum_cases():
    assert f_minsum(2.0, -3.0) == -2.0
    assert f_minsum(0.0, -5.0) == 0.0
    rng = np.random.default_rng(2)
    a = rng.normal(size=1000)
    b = rng.normal(size=1000)
    assert np.all(np.abs(f_minsum(a, b)) <= np.minimum(np.abs(a), np.abs(b)))


def test_g_func_cases():
    assert g_func(2.0, 3.0, 0) == 5.0
    assert g_func(2.0, 3.0, 1) == 1.0
    rng = np.random.default_rng(3)
    a = rng.normal(size=100)
    b = rng.normal(size=100)
    assert np.allclose(g_func(a, b, 0) + g_func(a, b, 1), 2 * b)


def test_combine_bits():
    # child outputs side by side, [left | right]; the parent is [left XOR right | right]
    assert combine_bits([0, 1]).tolist() == [1, 1]
    assert combine_bits([1, 0, 1, 1]).tolist() == [0, 1, 1, 1]
    assert combine_bits([0, 0, 0, 1, 0, 1]).tolist() == [1, 0, 1, 1, 0, 1]
    with pytest.raises(ValueError):
        combine_bits([0, 1, 1])


def test_hard_decision_convention():
    assert hard_decision(0.0) == 0
    assert hard_decision(-1e-12) == 1
    assert hard_decision([3.0, -2.0]).tolist() == [0, 1]


def test_metric_increment_approx_cases():
    assert metric_increment(0, 2.5, "approx") == 0.0
    assert metric_increment(1, 2.5, "approx") == 2.5
    assert metric_increment(1, -2.5, "approx") == 0.0


def test_metric_increment_exact_at_zero():
    assert abs(metric_increment(0, 0.0, "exact") - np.log(2)) < 1e-12


def test_exact_minus_approx_within_ln2():
    rng = np.random.default_rng(4)
    llr = rng.uniform(-20, 20, 10000)
    bits = rng.integers(0, 2, 10000)
    gap = metric_increment(bits, llr, "exact") - metric_increment(bits, llr, "approx")
    assert np.all(gap >= -1e-12)
    assert np.all(gap <= np.log(2) + 1e-12)


def test_metric_increment_rejects_unknown_mode():
    with pytest.raises(ValueError):
        metric_increment(0, 1.0, "fast")
