"""The exact-phase kernel against the formulas it replaced, bit for bit.

``cis2pi_reference`` takes the quarter turn with float ``np.mod``,
``sinpi_reference`` tests parity the same way, ``chi_mask_reference``
averages cis2pi over every digit with ``mean(axis=1)`` and
``fourier_reference`` runs the mask product over all distinct rows at once.
The kernel (integer turns, the column sum for small digit sets with zero
digits taken without a trig call, the blocked product) must return their
bits, signed zeros and nan included.
"""

import warnings

import numpy as np
import pytest

from fractalspec import FractalMeasure, chi_mask, enumerate_spectrum, fourier_mu_many, make_system
from fractalspec import measure
from fractalspec._numeric import cis2pi, cospi, sinpi
from fractalspec.measure import _unique_rows, cis2pi_outer, distinct_rows, shifted_masks
from tests.conftest import hadamard_triple

QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


def bits(values):
    """Bit patterns of a complex or float array (tells 0.0 from -0.0)."""
    values = np.asarray(values)
    return np.ascontiguousarray(values, dtype=values.dtype).view(np.int64)


def cis2pi_reference(x):
    x = np.asarray(x, dtype=float)
    # every finite float beyond 2^1021 is a multiple of 4, where cis2pi is
    # that of 0 (and round(4 x) would overflow)
    x = np.where(np.isfinite(x) & (np.abs(x) >= 2.0**1021), 0.0, x)
    out = np.empty(x.shape, dtype=complex)
    with np.errstate(invalid="ignore"):
        q = np.round(4.0 * x)
        r = x - 0.25 * q
        r *= 2.0 * np.pi
        np.cos(r, out=out.real)
        np.sin(r, out=out.imag)
        turns = np.mod(q, 4.0).astype(np.intp) & 3
    out *= QUARTER_TURNS[turns]
    return out


def sinpi_reference(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        n = np.round(x)
        r = x - n
        s = np.sin(np.pi * r)
        s = np.where(np.abs(r) == 0.5, np.sign(r), s)
        return np.where(np.mod(n, 2.0) == 1.0, -s, s)


def chi_mask_reference(sys, t):
    pts = np.asarray(t, dtype=float).reshape(-1, sys.d)
    return cis2pi_reference(pts @ sys.B.T).mean(axis=1)


def fourier_reference(m, T):
    T = np.asarray(T, dtype=float).reshape(-1, m.sys.d)
    depth = m._depth_for(float(np.linalg.norm(T, axis=1).max(initial=0.0)))
    bits_ = T.view(np.int64)
    if m.sys.d == 1:
        distinct, inverse = np.unique(bits_[:, 0], return_inverse=True)
    else:
        distinct, inverse = np.unique(bits_, axis=0, return_inverse=True)
    pts = distinct.view(float).reshape(-1, m.sys.d)
    values = np.ones(pts.shape[0], dtype=complex)
    for _ in range(depth):
        values *= np.conj(chi_mask_reference(m.sys, pts))
        pts = pts @ m.sys.rinv
    return values[inverse.reshape(-1)]


def _special_values():
    powers = [2.0**k + 0.25 for k in range(48, 54)] + [2.0**62, 2.0**63, 1e300, 2.0**1022]
    powers += [2.0**52 + 0.5, np.finfo(float).max]
    near = [np.nextafter(2.0**k, s * np.inf) for k in (62, 63, 1021) for s in (-1, 1)]
    pos = np.array(powers + near + [0.0, np.inf])
    return np.concatenate([pos, -pos, [np.nan, -np.nan]])


_rng = np.random.default_rng(20261018)
PHASES = {
    "uniform64": _rng.uniform(-64.0, 64.0, 50_000),
    "uniform1e18": _rng.uniform(-1e18, 1e18, 50_000),
    "quarter_integers": np.arange(-4000, 4001) / 4.0,
    "special": _special_values(),
}

SYSTEMS = {
    "cantor4": lambda: make_system(4.0, [0.0, 0.5], [0.0, 1.0]),
    "quad2d": lambda: make_system(
        [[4.0, 0.0], [0.0, 4.0]],
        [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    ),
    # a shear: (R^T)^-1 mixes the coordinates, so the product's matmul rounds
    "shear2d": lambda: make_system(
        [[4.0, 1.0], [0.0, 4.0]],
        [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    ),
    "no_zero_digit": lambda: make_system(4.0, [0.25, 0.75], [0.0, 1.0]),
    **{
        f"triple{n}.k{k}": (lambda n=n, k=k: hadamard_triple(n, k, [1, 0, 1, 1]))
        for n in (2, 3, 4, 5)
        for k in (2, 3)
    },
}


def frequencies(d, count, seed):
    rng = np.random.default_rng(seed)
    t = rng.uniform(-60.0, 60.0, size=(count, d))
    t[: count // 10] = np.round(4.0 * t[: count // 10]) / 4.0
    t[count // 10] = 0.0
    t[count // 10 + 1] = -0.0
    return t


class TestTurns:
    @pytest.mark.parametrize("name", sorted(PHASES))
    def test_cis2pi_matches_reference(self, name):
        x = PHASES[name]
        assert np.array_equal(bits(cis2pi(x)), bits(cis2pi_reference(x)))

    @pytest.mark.parametrize("name", sorted(PHASES))
    def test_sinpi_cospi_match_reference(self, name):
        x = np.concatenate([PHASES[name], np.arange(-2001, 2002) / 2.0])
        assert np.array_equal(bits(sinpi(x)), bits(sinpi_reference(x)))
        assert np.array_equal(bits(cospi(x)), bits(sinpi_reference(x + 0.5)))

    def test_sinpi_cospi_non_finite_are_nan_without_warning(self):
        x = np.array([np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (sinpi, cospi):
                assert np.isnan(fn(x)).all()
                assert all(np.isnan(fn(v)) for v in x.tolist())

    def test_scalars_match_reference(self):
        for x in (0.25, -0.0, 2.0**62 + 2048.0, -(2.0**63), 1e300, 0.1, 2.0**1022, -1.7e308):
            assert cis2pi(x) == complex(cis2pi_reference(x))
            assert sinpi(x) == float(sinpi_reference(x))


@pytest.fixture(scope="module", params=sorted(SYSTEMS))
def system(request):
    return SYSTEMS[request.param]()


class TestMasks:
    def test_both_reduction_paths_covered(self):
        sizes = {SYSTEMS[name]().n_digits for name in SYSTEMS}
        assert min(sizes) <= measure.SEQUENTIAL_DIGITS < max(sizes)

    def test_chi_mask_matches_reference(self, system):
        t = frequencies(system.d, 3000, 1)
        assert np.array_equal(bits(chi_mask(system, t)), bits(chi_mask_reference(system, t)))

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 17])
    def test_few_rows_match_reference(self, system, rows):
        t = frequencies(system.d, 40, rows)[-rows:]
        assert np.array_equal(bits(chi_mask(system, t)), bits(chi_mask_reference(system, t)))
        single = chi_mask(system, t[0])
        assert bits(np.array([single])).tolist() == bits(chi_mask_reference(system, t[0])).tolist()

    def test_non_finite_rows_match_reference(self, system):
        t = frequencies(system.d, 12, 2)
        t[0, 0], t[1, -1], t[2, 0], t[3] = np.nan, np.inf, -np.inf, np.nan
        with np.errstate(invalid="ignore"):  # inf * 0 in t @ B.T
            values = chi_mask(system, t)
            expected = chi_mask_reference(system, t)
        assert np.array_equal(bits(values), bits(expected))
        assert np.all(np.isnan(values[:4])) and np.all(np.isfinite(values[4:]))

    def test_digit_exponentials_match_reference(self, system):
        # the transfer operator's kernel: every digit through cis2pi, zero digits too
        pts = frequencies(system.d, 600, 3).reshape(20, 30, system.d)
        pts[0, 0, :] = np.nan
        _, e = shifted_masks(system, pts)
        assert np.array_equal(bits(e), bits(cis2pi_reference(pts @ system.B.T)))
        assert np.all(np.isnan(e[0, 0])) and np.all(np.isfinite(e.reshape(-1, system.n_digits)[1:]))

    def test_zero_digits_marked(self, system):
        assert system.zero_digits.tolist() == [not b.any() for b in system.B]


class TestProduct:
    def test_fourier_mu_many_matches_reference(self, system):
        # more distinct rows than two blocks, each repeated
        rows = frequencies(system.d, 2 * measure.FOURIER_BLOCK + 123, 4)
        T = rows[np.random.default_rng(5).integers(0, rows.shape[0], size=3 * rows.shape[0])]
        m = FractalMeasure(system)
        values, _ = fourier_mu_many(m, T)
        assert np.array_equal(bits(values), bits(fourier_reference(m, T)))

    def test_unique_rows_match_numpy(self):
        # duplicates, negative values, +-0.0 (distinct bit patterns) and nan
        rng = np.random.default_rng(6)
        rows = rng.choice([-2.5, -0.0, 0.0, 0.25, 3.0, 1e300, -1e-300, np.nan], size=(3000, 3))
        for d in (2, 3):
            b = np.ascontiguousarray(rows[:, :d]).view(np.int64)
            distinct, inverse = _unique_rows(b)
            expected, expected_inverse = np.unique(b, axis=0, return_inverse=True)
            assert np.array_equal(distinct, expected)
            assert np.array_equal(inverse, expected_inverse.reshape(-1))
            assert np.array_equal(distinct[inverse], b)
        empty = np.empty((0, 2), dtype=np.int64)
        distinct, inverse = _unique_rows(empty)
        assert distinct.shape == (0, 2) and inverse.shape == (0,)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_distinct_rows_match_numpy(self, d):
        # repeated rows, +-0.0 (two bit patterns), nan, subnormals and huge values
        rng = np.random.default_rng(7 + d)
        values = [-2.5, -0.0, 0.0, 0.25, 3.0, 1e300, -1e-300, 5e-324, np.nan]
        rows = rng.choice(values, size=(5000, d))
        distinct, inverse = distinct_rows(rows)
        b = rows.view(np.int64)
        if d == 1:
            expected, expected_inverse = np.unique(b[:, 0], return_inverse=True)
        else:
            expected, expected_inverse = np.unique(b, axis=0, return_inverse=True)
        assert distinct.dtype == float and distinct.shape == (expected.shape[0], d)
        assert np.array_equal(distinct.view(np.int64), expected.reshape(-1, d))
        assert np.array_equal(inverse, expected_inverse.reshape(-1))
        assert np.array_equal(distinct[inverse].view(np.int64), b)
        for small in (np.empty((0, d)), rows[:1]):
            distinct, inverse = distinct_rows(small)
            assert distinct.shape == small.shape and inverse.tolist() == [0] * small.shape[0]

    def test_distinct_differences_of_a_spectrum(self, cantor4):
        # the 512^2 depth-8 differences of cantor4: 3^9 distinct values
        el = enumerate_spectrum(cantor4, 8).elements
        diffs = (el[:, None, :] - el[None, :, :]).reshape(-1, 1)
        distinct, inverse = distinct_rows(diffs)
        expected, expected_inverse = np.unique(diffs.view(np.int64)[:, 0], return_inverse=True)
        assert distinct.shape == (3**9, 1)
        assert np.array_equal(distinct[:, 0].view(np.int64), expected)
        assert np.array_equal(inverse, expected_inverse)


class TestOuterExponentials:
    @pytest.mark.parametrize(
        "rows, cols, d",
        [(5000, 8, 1), (3000, 37, 2), (3, measure.CIS_BLOCK + 5, 1), (0, 4, 1), (7, 0, 2)],
    )
    def test_matches_one_phase_matrix(self, rows, cols, d):
        rng = np.random.default_rng(rows + cols)
        a = rng.uniform(-40.0, 40.0, size=(rows, d))
        b = np.round(4.0 * rng.uniform(-40.0, 40.0, size=(cols, d))) / 4.0
        out = cis2pi_outer(a, b)
        assert out.shape == (rows, cols) and out.flags.c_contiguous
        assert np.array_equal(bits(out), bits(cis2pi_reference(a @ b.T)))
