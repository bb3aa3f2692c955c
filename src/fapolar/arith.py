"""LLR update rules and path metric increments for successive cancellation."""

import numpy as np

# Saturation for the exact box-plus and exact metric; exp(30) already dwarfs
# any penalty a realistic frame can accumulate.
LLR_CLIP = 30.0


def hard_decision(llr):
    """0 for llr >= 0, else 1."""
    return (np.asarray(llr) < 0).astype(np.uint8)


def f_exact(a, b, clip: float = LLR_CLIP, out=None):
    """Box-plus combine of two LLRs, log-domain form, saturated at +-clip:
    sign(a) sign(b) (m + log1p(exp(-m - M)) - log1p(exp(m - M))) for m <= M
    the clipped magnitudes. With ``out`` the result is written there; inputs
    are read before it is."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    # planes: m; the clipped |a| and |b|, which then hold M, the exponents and the signs
    scratch = np.empty((3,) + (np.broadcast(a, b).shape if out is None else out.shape))
    lo, far, near = scratch[0, ...], scratch[1, ...], scratch[2, ...]  # 0-d views if 0-d
    pair = scratch[1:]
    np.abs(a, out=far)
    np.abs(b, out=near)
    np.minimum(pair, clip, out=pair)
    np.minimum(far, near, out=lo)
    hi = np.maximum(far, near, out=near)
    np.negative(np.add(lo, hi, out=far), out=far)  # -(m + M)
    np.subtract(lo, hi, out=near)  # m - M = -|mag_a - mag_b|
    np.log1p(np.exp(pair, out=pair), out=pair)  # one pass each for both
    np.subtract(np.add(lo, far, out=lo), near, out=lo)
    # np.sign(-0.0) is +0.0: zeros keep the (a < 0) != (b < 0) sign; never above
    # min(|a|, |b|) <= clip, so the result needs no clip
    np.multiply(lo, np.sign(a, out=far), out=lo)
    return np.multiply(lo, np.sign(b, out=near), out=out)


def f_minsum(a, b, out=None):
    """Min-sum approximation of the box-plus: sign(a*b) * min(|a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.copysign(np.minimum(np.abs(a), np.abs(b)), a * b, out=out)


_BIT_SIGN = np.array([1.0, -1.0])


def g_func(a, b, bit, out=None):
    """LLR for the lower branch once the upper-branch bit (0 or 1) is known:
    ``a * (1 - 2 bit) + b``, which is ``b - a`` where the bit is set."""
    sign = _BIT_SIGN.take(bit, mode="clip")
    # multiplied in place where the sign array already has the product's shape
    shape = sign.shape  # () for a scalar bit, which takes no out=
    in_place = shape and (shape == getattr(out, "shape", None) or shape == np.shape(a))
    return np.add(np.multiply(a, sign, out=sign if in_place else None), b, out=out)


def combine_bits(beta, out=None):
    """Parent output ``[left XOR right | right]`` of the child outputs side by side,
    ``beta = [left | right]``; ``out=beta`` combines in place, writing the first half only."""
    beta = np.asarray(beta, dtype=np.uint8)
    half, odd = divmod(beta.shape[-1], 2)
    if odd:
        raise ValueError("child outputs must have equal length")
    if out is None:
        out = beta.copy()
    elif out is not beta:
        out[..., half:] = beta[..., half:]
    np.bitwise_xor(beta[..., :half], beta[..., half:], out=out[..., :half])
    return out


def metric_increment(bit, llr, mode: str):
    """Path penalty for deciding ``bit`` against decision LLR ``llr`` (broadcast).

    "approx" charges |llr| when the decision contradicts the hard decision
    and nothing otherwise; "exact" charges log(1 + exp(-(1-2*bit)*llr)).
    """
    llr = np.asarray(llr, dtype=np.float64)
    flip = np.asarray(bit, dtype=bool)  # a bool bit array passes through as is
    if mode == "approx":
        return np.where(flip != (llr < 0), np.abs(llr), 0.0)
    if mode == "exact":
        clipped = np.minimum(np.maximum(llr, -LLR_CLIP), LLR_CLIP)  # np.clip, at under half its call cost
        return np.logaddexp(0.0, np.where(flip, clipped, -clipped))
    raise ValueError(f"unknown metric mode {mode!r}")
