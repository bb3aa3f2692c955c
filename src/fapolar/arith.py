"""LLR update rules and path metric increments for successive cancellation."""

import numpy as np

# Saturation for the exact box-plus and exact metric; exp(30) already dwarfs
# any penalty a realistic frame can accumulate.
LLR_CLIP = 30.0


def hard_decision(llr):
    """0 for llr >= 0, else 1."""
    return (np.asarray(llr) < 0).astype(np.uint8)


def f_exact(a, b, clip: float = LLR_CLIP, out=None):
    """Box-plus combine of two LLRs, log-domain form, saturated at +-clip.

    With ``out`` the result is written there; inputs are read before it is.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sign = np.where((a < 0) != (b < 0), -1.0, 1.0)
    mag_a = np.minimum(np.abs(a), clip)
    mag_b = np.minimum(np.abs(b), clip)
    far = np.log1p(np.exp(-(mag_a + mag_b)))
    near = np.log1p(np.exp(-np.abs(mag_a - mag_b)))
    # never above min(|a|, |b|) <= clip, so the result needs no clip
    return np.multiply(np.minimum(mag_a, mag_b) + far - near, sign, out=out)


def f_minsum(a, b, out=None):
    """Min-sum approximation of the box-plus: sign(a*b) * min(|a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sign = np.where((a < 0) != (b < 0), -1.0, 1.0)
    return np.multiply(np.minimum(np.abs(a), np.abs(b)), sign, out=out)


def g_func(a, b, bit, out=None):
    """LLR for the lower branch once the upper-branch bit is known:
    ``(-a) + b``, which is ``b - a``, where the bit is set, else ``a + b``."""
    a = np.asarray(a, dtype=np.float64)
    return np.add(np.where(np.asarray(bit) != 0, -a, a), b, out=out)


def combine_bits(beta_left, beta_right, out=None):
    """Parent output: first half is the XOR, second half the right child."""
    beta_left = np.asarray(beta_left, dtype=np.uint8)
    beta_right = np.asarray(beta_right, dtype=np.uint8)
    if beta_left.shape != beta_right.shape:
        raise ValueError("child outputs must have equal shape")
    half = beta_right.shape[-1]
    if out is None:
        out = np.empty(beta_right.shape[:-1] + (2 * half,), dtype=np.uint8)
    np.bitwise_xor(beta_left, beta_right, out=out[..., :half])
    out[..., half:] = beta_right
    return out


def metric_increment(bit, llr, mode: str):
    """Path penalty for deciding ``bit`` against decision LLR ``llr`` (broadcast).

    "approx" charges |llr| when the decision contradicts the hard decision
    and nothing otherwise; "exact" charges log(1 + exp(-(1-2*bit)*llr)).
    """
    llr = np.asarray(llr, dtype=np.float64)
    flip = np.asarray(bit) != 0
    if mode == "approx":
        return np.where(flip != (llr < 0), np.abs(llr), 0.0)
    if mode == "exact":
        clipped = np.minimum(np.maximum(llr, -LLR_CLIP), LLR_CLIP)  # np.clip, at under half its call cost
        return np.logaddexp(0.0, np.where(flip, clipped, -clipped))
    raise ValueError(f"unknown metric mode {mode!r}")
