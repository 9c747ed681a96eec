"""Low-level numeric helpers shared across the package.

The trig helpers reduce their argument in exact float arithmetic so that
values at integer and half-integer multiples of pi come out exactly 0 or
+-1.  Exponential-sum masks built on top of them then vanish exactly where
they should, which keeps orthogonality tables at true machine zeros.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sinpi",
    "cospi",
    "cis2pi",
    "operator_norm",
    "hs_norm",
    "power_norms",
    "power_norm_tail",
    "multi_indices",
]

CIS_BLOCK = 2**16  # elements per block of cis2pi
_QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])  # i^k, k = 0..3
# |n| >= 2^62 is a multiple of 4 in float64, so clipping there keeps n mod 4
_TURN_CLIP = 2.0**62


def _mod4(n: np.ndarray) -> np.ndarray:
    """n mod 4 in 0..3 for an array of integral floats, in integer arithmetic.

    Float np.mod costs about 45 ns per element; clipping to +-2^62 and
    masking the int64 is exact for every finite n.  Non-finite n give an
    arbitrary residue (their callers produce nan whatever it is).
    """
    with np.errstate(invalid="ignore"):  # nan has no int64 value
        return np.clip(n, -_TURN_CLIP, _TURN_CLIP).astype(np.int64) & 3


def sinpi(x):
    """sin(pi*x), exact at integers and half-integers; nan at +-inf and nan."""
    x = np.asarray(x, dtype=float)
    n = np.round(x)
    with np.errstate(invalid="ignore"):  # inf - inf: nan, as from np.sin(inf)
        r = x - n
    s = np.sin(np.pi * r)
    # |r| == 0.5 would round either way; pin the exact value.
    s = np.where(np.abs(r) == 0.5, np.sign(r), s)
    # parity is the low bit of n mod 4; _mod4's clip keeps |n| >= 2^63 in int64
    out = np.where(_mod4(n) & 1, -s, s)
    return out if out.ndim else float(out)


def cospi(x):
    """cos(pi*x), exact at integers and half-integers; nan at +-inf and nan."""
    x = np.asarray(x, dtype=float)
    return sinpi(x + 0.5) if x.ndim else sinpi(float(x) + 0.5)


def cis2pi(x):
    """exp(2*pi*i*x) with exact values at quarter-integer x.

    x = q/4 + r with q = round(4x) and |r| <= 1/8; the subtraction is exact,
    so exp(2 pi i x) = i^q exp(2 pi i r) takes one cos/sin pair of 2 pi r
    and an exact quarter turn (a swap and sign changes), indexed by q mod 4
    in integer arithmetic.  At quarter-integer
    x, r = 0 and the components are exactly 0 or +-1.  The flattened input
    is processed in blocks of CIS_BLOCK elements so that the temporaries
    stay small whatever the input size.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty(flat.size, dtype=complex)
    for start in range(0, flat.size, CIS_BLOCK):
        stop = start + CIS_BLOCK
        cis2pi_block(flat[start:stop], out[start:stop])
    out = out.reshape(x.shape)
    return out if out.ndim else complex(out)


def cis2pi_block(x: np.ndarray, out: np.ndarray) -> None:
    """:func:`cis2pi` of a flat float block ``x``, written into the complex ``out``."""
    with np.errstate(invalid="ignore"):  # non-finite x: nan, whatever the turn
        q = np.round(4.0 * x)
        r = x - 0.25 * q
        r *= 2.0 * np.pi
        np.cos(r, out=out.real)
        np.sin(r, out=out.imag)
    out *= _QUARTER_TURNS[_mod4(q)]  # products with 0 and +-1 are exact


def operator_norm(mat) -> float:
    """Spectral (largest singular value) norm."""
    return float(np.linalg.norm(np.asarray(mat, dtype=float), 2))


def hs_norm(mat) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(mat, dtype=float), "fro"))


def power_norms(mat, count: int) -> np.ndarray:
    """Operator norms of mat^-k for k = 0..count-1, one row per matrix of a
    stack: a (d, d) mat gives a (count,) array, an (S, d, d) stack (S, count).

    Computed from accumulated powers of the explicit inverse, so non-normal
    matrices (where ||A^-k|| can differ wildly from ||A^-1||^k) are handled.
    In d = 1 the powers are a cumulative product of the scalar inverse, the
    same multiplications in the same order as the 1 x 1 matmul chain.  The
    stacked powers are normed by one batched SVD (in d = 1 too: abs() of a
    power is not always LAPACK's singular value, bit for bit); a power that
    is not finite (overflow) gets the upper bound +inf.  Every matrix of a
    stack gets the bits it gets alone: the inverse, each matmul and each SVD
    act matrix by matrix.
    """
    inv = np.linalg.inv(np.asarray(mat, dtype=float))
    d = inv.shape[-1]
    powers = np.empty(inv.shape[:-2] + (count, d, d))
    powers[..., :1, :, :] = np.eye(d)
    with np.errstate(over="ignore", invalid="ignore"):
        if d == 1:
            chain = powers[..., 0, 0]
            chain[..., 1:] = inv[..., None, 0, 0]
            np.cumprod(chain, axis=-1, out=chain)
        else:
            for k in range(1, count):
                np.matmul(powers[..., k - 1, :, :], inv, out=powers[..., k, :, :])
    finite = np.isfinite(powers).all(axis=(-2, -1))
    norms = np.linalg.svd(np.where(finite[..., None, None], powers, 0.0), compute_uv=False)[..., 0]
    return np.where(finite, norms, np.inf)


def power_norm_tail(norms) -> float:
    """Upper bound for sum_{k >= n} ||mat^-k|| from norms[k] = ||mat^-k||, k < n.

    Finds the first k0 in 1..n-1 with ||mat^-k0|| <= 1/2 (exists for
    expansive mat) and bounds the tail by a geometric series over blocks of
    length k0 after the last block n-k0..n-1, using submultiplicativity
    ||mat^-(k+k0)|| <= ||mat^-k|| ||mat^-k0||.  Returns inf when no such k0
    exists.
    """
    norms = np.asarray(norms, dtype=float)
    below = np.nonzero(norms[1:] <= 0.5)[0]
    if below.size == 0:
        return float("inf")
    k0 = int(below[0]) + 1
    return float(norms[k0] * norms[-k0:].sum() / (1.0 - norms[k0]))


def multi_indices(dim: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices in `dim` variables of total degree <= max_degree,
    ordered by total degree then lexicographically."""
    out: list[tuple[int, ...]] = []
    for total in range(max_degree + 1):
        out.extend(_compositions(total, dim))
    return out


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    result = []
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            result.append((head,) + rest)
    return result
