import numpy as np
import pytest

import fapolar as fp
from fapolar.codes import CodeConstructionError, crc_bits, default_crc_config


def test_construct_textbook_example():
    seq = fp.ReliabilitySequence([0, 1, 2, 4, 3, 5, 6, 7])
    code = fp.construct(8, 3, 1, seq=seq)
    assert list(code.info_set) == [3, 5, 6, 7]
    assert code.frozen_mask.tolist() == [True, True, True, False, True, False, False, False]


def test_construct_rate_one():
    seq = fp.ReliabilitySequence([0, 1])
    code = fp.construct(2, 2, 0, seq=seq)
    assert list(code.info_set) == [0, 1]
    assert not code.frozen_mask.any()


def test_construct_paper_scale(nr_seq):
    code = fp.construct(1024, 512, 16, seq=nr_seq)
    assert code.info_len == 528
    assert code.rate == 0.5


def test_construct_monotone_info_sets(nr_seq):
    prev = set()
    for k in range(120, 140):
        cur = set(fp.construct(256, k, 0, seq=nr_seq).info_set.tolist())
        if prev:
            assert prev < cur
        prev = cur


def test_construct_rejects_bad_sizes():
    with pytest.raises(CodeConstructionError):
        fp.construct(12, 4, 0)
    with pytest.raises(CodeConstructionError):
        fp.construct(8, 8, 1)
    with pytest.raises(CodeConstructionError):
        fp.construct(8, 0, 0)
    short = fp.ReliabilitySequence([0, 1, 2, 3])
    with pytest.raises(CodeConstructionError):
        fp.construct(8, 3, 0, seq=short)


def test_sequence_must_be_permutation():
    with pytest.raises(CodeConstructionError):
        fp.ReliabilitySequence([0, 1, 1, 3])


def test_encode_n2():
    code = fp.construct(2, 2, 0)
    assert fp.encode(code, [1, 1]).tolist() == [0, 1]


def test_encode_last_column_all_ones():
    code = fp.construct(4, 4, 0)
    assert fp.encode(code, [0, 0, 0, 1]).tolist() == [1, 1, 1, 1]


def test_encode_involution_and_linearity():
    rng = np.random.default_rng(11)
    for n_bits in (2, 8, 64, 256):
        for _ in range(25):
            u = rng.integers(0, 2, n_bits, dtype=np.uint8)
            v = rng.integers(0, 2, n_bits, dtype=np.uint8)
            assert np.array_equal(fp.polar_transform(fp.polar_transform(u)), u)
            assert np.array_equal(
                fp.polar_transform(u ^ v),
                fp.polar_transform(u) ^ fp.polar_transform(v),
            )


def slice_loop_transform(u):
    """Reference transform: one XOR per butterfly block, N - 1 slices."""
    x = np.array(u, dtype=np.uint8, copy=True)
    n_bits = x.shape[-1]
    half = 1
    while half < n_bits:
        for lo in range(0, n_bits, 2 * half):
            x[..., lo:lo + half] ^= x[..., lo + half:lo + 2 * half]
        half *= 2
    return x


def test_butterfly_transform_matches_slice_loop():
    rng = np.random.default_rng(12)
    for n in range(1, 11):
        n_bits = 1 << n
        u = rng.integers(0, 2, n_bits, dtype=np.uint8)
        assert np.array_equal(fp.polar_transform(u), slice_loop_transform(u))
        batch = rng.integers(0, 2, (5, n_bits), dtype=np.uint8)
        kept = batch.copy()
        want = slice_loop_transform(batch)
        assert np.array_equal(fp.polar_transform(batch), want)
        assert np.array_equal(batch, kept)
        # Fortran-ordered and negatively strided inputs transform the same
        assert np.array_equal(fp.polar_transform(np.asfortranarray(batch)), want)
        assert np.array_equal(fp.polar_transform(batch[::-1])[::-1], want)
    with pytest.raises(CodeConstructionError):
        fp.polar_transform(np.zeros(12, dtype=np.uint8))


def test_encode_rejects_nonzero_frozen(code8):
    u = np.zeros(8, dtype=np.uint8)
    u[0] = 1  # frozen position
    with pytest.raises(CodeConstructionError):
        fp.encode(code8, u)


def test_assemble_places_bits_at_info_set(code8):
    payload = np.array([1, 0, 1], dtype=np.uint8)
    u = fp.assemble_u(code8, payload)
    assert u[code8.frozen_mask].sum() == 0
    info = fp.extract_info_bits(code8, u)
    assert info[:3].tolist() == [1, 0, 1]


def test_assemble_zero_payload_gives_zero_u(code8):
    u = fp.assemble_u(code8, np.zeros(3, dtype=np.uint8))
    assert not u.any()


def test_payload_roundtrip_and_crc(code8):
    rng = np.random.default_rng(5)
    for _ in range(20):
        payload = rng.integers(0, 2, 3, dtype=np.uint8)
        u = fp.assemble_u(code8, payload)
        assert np.array_equal(fp.extract_info_bits(code8, u)[:code8.payload_len], payload)
        assert fp.crc_check(code8, fp.extract_info_bits(code8, u))


def test_crc_detects_any_single_bit_flip():
    code = fp.construct(64, 16, 16)
    rng = np.random.default_rng(9)
    payload = rng.integers(0, 2, 16, dtype=np.uint8)
    info = fp.extract_info_bits(code, fp.assemble_u(code, payload))
    assert fp.crc_check(code, info)
    for pos in range(info.size):
        flipped = info.copy()
        flipped[pos] ^= 1
        assert not fp.crc_check(code, flipped)


def test_crc_zero_width_is_vacuous():
    code = fp.construct(16, 6, 0)
    info = fp.extract_info_bits(code, fp.assemble_u(code, np.ones(6, dtype=np.uint8)))
    assert fp.crc_check(code, info)


def test_crc16_known_vector():
    # CRC-16/XMODEM of ascii "123456789" is 0x31C3
    bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
    out = crc_bits(bits, fp.CRC16)
    value = int("".join(map(str, out)), 2)
    assert value == 0x31C3


def test_default_crc_config_widths():
    assert default_crc_config(16).polynomial == 0x1021
    cfg1 = default_crc_config(1)
    assert cfg1.width == 1 and cfg1.polynomial == 1
    assert default_crc_config(8).polynomial & 1
    assert default_crc_config(0) == fp.CrcConfig(0, 0)


def test_negative_crc_width_is_refused_by_name():
    with pytest.raises(CodeConstructionError, match="CRC width must be >= 0, got -2"):
        default_crc_config(-2)
    with pytest.raises(CodeConstructionError, match="CRC width must be >= 0, got -2"):
        fp.construct(8, 3, -2)


def test_crc_polynomial_must_fit_its_register():
    # width 0 has no register: a polynomial there would name a CRC that checks nothing
    for width, poly in ((0, 0x1021), (0, 1), (4, 0x10), (16, 0x10000)):
        with pytest.raises(CodeConstructionError, match=f"{poly:#x} wider than its {width}-bit"):
            fp.CrcConfig(width, poly)


def test_packaged_sequence_is_full_permutation(nr_seq):
    assert nr_seq.n_max == 1024
    sub = nr_seq.for_length(128)
    assert sorted(sub.tolist()) == list(range(128))
