import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalspec import (
    BudgetError,
    ConvergenceError,
    FractalMeasure,
    ValidationError,
    atomic_approximation,
    chaos_sample,
    chi_mask,
    enumerate_spectrum,
    fourier_mu,
    fourier_mu_many,
    make_system,
    moments,
    orthogonality_matrix,
)
from fractalspec import measure
from fractalspec.measure import dual_step, shifted_masks
from fractalspec.systems import dual_points
from fractalspec._numeric import CIS_BLOCK, cis2pi, cis2pi_block
from tests.conftest import generated_triples

EPS = np.finfo(float).eps


def bits(values):
    """Bit patterns of a complex array (tells 0.0 from -0.0)."""
    return np.ascontiguousarray(values, dtype=complex).view(np.int64)


def lowest_digit(t: int, base: int) -> int:
    """The position of the lowest nonzero base-``base`` digit of t != 0."""
    k = 0
    while t % base == 0:
        t //= base
        k += 1
    return k


class TestCis2pi:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=50))
    def test_matches_exp(self, xs):
        # np.exp's own argument 2 pi x carries up to pi |x| eps of rounding
        x = np.asarray(xs)
        err = np.abs(cis2pi(x) - np.exp(2j * np.pi * x))
        assert np.all(err <= 4.0 * EPS * np.maximum(1.0, 2.0 * np.pi * np.abs(x)))

    def test_exact_at_quarter_integers(self):
        k = np.concatenate([np.arange(-4000, 4001), [4 * 10**9 + 1, -(4 * 10**9) - 3, 2**52 + 2]])
        values = cis2pi(k / 4.0)
        assert np.all(np.isin(values.real, (-1.0, 0.0, 1.0)))
        assert np.all(np.isin(values.imag, (-1.0, 0.0, 1.0)))
        assert np.array_equal(values, np.array([1.0, 1j, -1.0, -1j])[k % 4])

    @pytest.mark.parametrize("size", [CIS_BLOCK - 1, CIS_BLOCK, CIS_BLOCK + 1, 3 * CIS_BLOCK])
    def test_blocks_match_one_block(self, size):
        x = np.random.default_rng(size).uniform(-1e4, 1e4, size)
        x[::7] = np.round(4.0 * x[::7]) / 4.0
        whole = np.empty(size, dtype=complex)
        cis2pi_block(x, whole)
        assert np.array_equal(bits(cis2pi(x)), bits(whole))

    def test_shapes(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert cis2pi(x).shape == (2, 3, 4)
        assert cis2pi(np.empty((0, 2))).shape == (0, 2)
        value = cis2pi(0.25)
        assert type(value) is complex and value == 1j
        assert type(cis2pi(np.float64(0.1))) is complex

    def test_non_finite_stays_non_finite(self):
        assert np.all(np.isnan(cis2pi(np.array([np.nan, np.inf, -np.inf]))))



class TestChiMask:
    def test_at_zero(self, cantor4):
        assert chi_mask(cantor4, [0.0]) == 1.0 + 0.0j

    def test_vanishes_at_one(self, cantor4):
        # (1 + e^{i pi})/2 with exact reduction
        assert chi_mask(cantor4, [1.0]) == 0.0 + 0.0j

    def test_half_angle_identity(self, cantor4):
        # |chi(t)|^2 = cos^2(pi t / 2), checked on a dense grid
        t = np.linspace(-7.0, 7.0, 1201).reshape(-1, 1)
        values = np.abs(chi_mask(cantor4, t)) ** 2
        oracle = np.cos(np.pi * t[:, 0] / 2.0) ** 2
        assert np.max(np.abs(values - oracle)) < 1e-14

    def test_bounded_by_one(self, quad2d):
        rng = np.random.default_rng(5)
        t = rng.uniform(-20, 20, size=(500, 2))
        assert np.all(np.abs(chi_mask(quad2d, t)) <= 1.0 + 1e-12)


class TestShiftedMasks:
    @pytest.mark.parametrize("name", ["cantor4", "quad2d"])
    def test_every_shift_from_one_exponential(self, name, request):
        sys = request.getfixturevalue(name)
        t = np.random.default_rng(5).uniform(-2.0, 2.0, size=(50, sys.d))
        chi, e = shifted_masks(sys, t)
        assert chi.shape == (50, sys.L.shape[0]) and e.shape == (50, sys.n_digits)
        for column, l in zip(chi.T, sys.L):
            np.testing.assert_allclose(column, chi_mask(sys, t - l), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("name", ["cantor4", "quad2d", "odd3"])
    def test_dual_step_weights_are_the_squared_masks(self, name, request):
        sys = request.getfixturevalue(name)
        t = np.random.default_rng(6).uniform(-2.0, 2.0, size=(3, 40, sys.d))
        weights, images = dual_step(sys, t)
        chi, _ = shifted_masks(sys, t)
        expected = chi.real**2 + chi.imag**2
        assert weights.shape == (3, 40, sys.L.shape[0])
        assert weights.tobytes() == expected.tobytes()
        assert images.tobytes() == dual_points(sys, t).tobytes()
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=0.0, atol=1e-14)

    def test_shift_matrix_cached_and_read_only(self, quad2d):
        assert quad2d.chi_shifts is quad2d.chi_shifts
        assert not quad2d.chi_shifts.flags.writeable
        np.testing.assert_array_equal(
            quad2d.chi_shifts, np.conj(cis2pi(quad2d.B @ quad2d.L.T)) / quad2d.n_digits
        )


class TestFourier:
    def test_at_zero(self, cantor4_measure):
        value, tail = fourier_mu(cantor4_measure, [0.0])
        assert value == 1.0 + 0.0j
        assert tail == 0.0

    def test_exact_zero_at_one(self, cantor4_measure):
        value, _ = fourier_mu(cantor4_measure, [1.0])
        assert value == 0.0 + 0.0j

    def test_matches_atomic_oracle(self, cantor4_measure):
        # direct sum over 2^12 atoms vs full product; the gap is the
        # level-12 truncation error, bounded by 2 pi max|b| |t| sum 4^-k
        atoms = atomic_approximation(cantor4_measure, 12)
        for t in (0.5, 0.3, 1.7, -2.25):
            value, _ = fourier_mu(cantor4_measure, [t])
            bound = 2.0 * np.pi * 0.5 * abs(t) * 4.0**-12 * (4.0 / 3.0)
            assert abs(value - atoms.transform([t])) < bound * 1.2 + 1e-15
        value, _ = fourier_mu(cantor4_measure, [0.5])
        assert abs(value - atoms.transform([0.5])) < 1e-7

    @pytest.mark.parametrize("depth", [1, 3, 6, 12])
    def test_truncated_product_equals_atomic_exactly(
        self, cantor4, cantor4_measure, depth
    ):
        # same factorization: K-level product == depth-K atomic transform
        for t0 in (0.37, -1.2, 2.0):
            t = np.array([t0])
            product = 1.0 + 0.0j
            s = t.copy()
            for _ in range(depth):
                product *= np.conj(chi_mask(cantor4, s.reshape(1, -1))[0])
                s = s / 4.0
            atoms = atomic_approximation(cantor4_measure, depth)
            assert abs(product - atoms.transform(t)) < 1e-13

    def test_refinement_identity(self, cantor4, cantor4_measure):
        # mu-hat(t) = conj(chi(t)) mu-hat(t/4) up to the two tail bounds
        t = np.linspace(-3.0, 3.0, 61).reshape(-1, 1)
        left, tails = fourier_mu_many(cantor4_measure, t)
        inner, inner_tails = fourier_mu_many(cantor4_measure, t / 4.0)
        right = np.conj(chi_mask(cantor4, t)) * inner
        assert np.max(np.abs(left - right)) <= np.max(tails + inner_tails) + 1e-12

    def test_modulus_bound(self, cantor4_measure):
        rng = np.random.default_rng(11)
        t = rng.uniform(-50, 50, size=(200, 1))
        values, tails = fourier_mu_many(cantor4_measure, t)
        assert np.all(np.abs(values) <= 1.0 + tails)

    @pytest.mark.parametrize("name", ["cantor4", "quad2d"])
    def test_repeated_rows_match_per_row_product(self, request, name):
        sys = request.getfixturevalue(name)
        m = FractalMeasure(sys)
        rng = np.random.default_rng(7)
        rows = rng.uniform(-40.0, 40.0, size=(300, sys.d))
        rows[:50] = np.round(rows[:50])
        rows[50] = 0.0
        rows[51] = -0.0
        T = rows[rng.integers(0, 300, size=3000)]
        # reference: the product over every row, repeats included
        depth = m._depth_for(float(np.linalg.norm(T, axis=1).max()))
        expected = np.ones(T.shape[0], dtype=complex)
        pts = T
        for _ in range(depth):
            expected *= np.conj(chi_mask(sys, pts))
            pts = pts @ sys.rinv
        values, tails = fourier_mu_many(m, T)
        assert np.array_equal(bits(values), bits(expected))
        norm_tails = 2.0 * np.pi * m._max_b * np.linalg.norm(T, axis=1) * m._tail_sums[depth]
        assert np.array_equal(tails, norm_tails)

    def test_one_evaluation_per_distinct_difference(self, cantor4, cantor4_measure, monkeypatch):
        # depth-8 cantor4 spectrum: the 512 * 511 / 2 differences i < j of the
        # sorted set take the (3^9 - 1) / 2 negative distinct values, and the
        # diagonal adds one zero row
        rows = []

        def counting(sys, t):
            rows.append(np.shape(t)[0])
            return chi_mask(sys, t)

        monkeypatch.setattr(measure, "chi_mask", counting)
        spec = enumerate_spectrum(cantor4, 8)
        max_off, _ = orthogonality_matrix(cantor4_measure, spec)
        assert max_off == 0.0
        lam = spec.elements[:, 0]
        depth = cantor4_measure._depth_for(float(lam.max() - lam.min()))
        pairs = np.triu(np.ones((lam.size, lam.size), dtype=bool), 1)
        distinct, _ = measure.distinct_rows((lam[:, None] - lam)[pairs][:, None])
        assert distinct.shape[0] == 9841
        # t = sum_k 4^k e_k with digits e_k in {-1, 0, 1}: the factor
        # chi(4^-k t) = (1 + e(4^-k t / 2)) / 2 is exactly 0 at the level k of
        # the lowest nonzero digit and 1 before it, so the row leaves the
        # product after the chi_mask call that takes that level; the zero row
        # (last in bit order) runs every level
        stops = [lowest_digit(int(t), 4) for t in distinct[:, 0]] + [depth]
        expected = 0
        for start in range(0, len(stops), measure.FOURIER_BLOCK):
            live, level = np.array(stops[start : start + measure.FOURIER_BLOCK]), 0
            while level < depth and live.size:
                levels = min(max(1, measure.FOURIER_BLOCK // live.size), depth - level)
                expected += levels * live.size
                level += levels
                live = live[live >= level]
        # every level of every distinct row took depth * 9842 = 295,260
        assert depth > 0 and sum(rows) == expected == 26154
        assert max(rows) <= measure.FOURIER_BLOCK

    def test_empty_rows(self, quad2d):
        values, tails = fourier_mu_many(FractalMeasure(quad2d), np.empty((0, 2)))
        assert values.shape == (0,) and tails.shape == (0,)

    def test_tails_come_from_the_system(self, cantor4):
        m = FractalMeasure(cantor4)
        assert np.array_equal(m._tail_sums, cantor4.inv_power_tails)

    def test_convergence_error(self, cantor4):
        with pytest.raises(ConvergenceError):
            fourier_mu(FractalMeasure(cantor4), [1e150])

    @pytest.mark.parametrize("name, norm", [("cantor4", "1e+200"), ("quad2d", "1.41421e+200")])
    def test_huge_rows_keep_their_norm(self, name, norm, request):
        # squaring 1e200 overflows; the error names the true |t|, with no warning
        sys = request.getfixturevalue(name)
        with pytest.raises(ConvergenceError, match=re.escape(f"(|t| = {norm})")):
            fourier_mu_many(FractalMeasure(sys), np.array([[0.5] * sys.d, [1e200] * sys.d]))


QUAD_DIGITS = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]
QUAD_FREQUENCIES = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


@st.composite
def retiring_rows(draw, sys):
    """Rows u @ R^j of integer u, which on R = 4 or 8 and quad2d first reach
    an exact zero factor at level j (u not a multiple of N) or later; with
    non-lattice rows, tiny ones and the zero row."""
    d = sys.d
    top = max(0, int(50 // np.log2(np.abs(sys.R).max())))  # |u @ R^j| below 2^53
    lattice = st.tuples(
        st.integers(0, top), st.lists(st.integers(-40, 40), min_size=d, max_size=d)
    ).map(lambda p: np.asarray(p[1], dtype=float) @ np.linalg.matrix_power(sys.R, p[0]))
    other = st.lists(
        st.one_of(st.floats(-200.0, 200.0), st.sampled_from([0.0, -0.0, 1e-300, 0.25])),
        min_size=d,
        max_size=d,
    ).map(np.asarray)
    rows = draw(st.lists(st.one_of(lattice, other), min_size=1, max_size=60))
    return np.array(rows, dtype=float).reshape(-1, d)


modulus_systems = st.one_of(
    generated_triples,
    st.just(make_system(4.0 * np.eye(2), QUAD_DIGITS, QUAD_FREQUENCIES)),
)


class TestModulusRoute:
    """fourier_abs_many: the moduli of fourier_mu_many, bit for bit, with
    each row retired at its first exact zero."""

    @settings(max_examples=120, deadline=None)
    @given(
        sys=modulus_systems,
        data=st.data(),
        block=st.sampled_from([1, 2, 5, 64, measure.FOURIER_BLOCK]),
        tol=st.sampled_from([1e-12, 1e-3, 0.5]),
    )
    def test_equals_abs_of_the_product(self, sys, data, block, tol):
        # a small tolerance takes the depth just past the lattice rows, so
        # rows die at every level up to it; a small block makes one chi_mask
        # call per level or few, so rows retire between calls
        m = FractalMeasure(sys, product_tail_tol=tol)
        T = data.draw(retiring_rows(sys))
        with patch.object(measure, "FOURIER_BLOCK", block):
            expected = np.abs(fourier_mu_many(m, T)[0])
            moduli = measure.fourier_abs_many(m, T)
        assert np.array_equal(moduli.view(np.int64), expected.view(np.int64))

    def test_part_of_a_large_block_dies(self, cantor4_measure, monkeypatch):
        # 3 blocks and 7 rows: integers 4^j u (first zero at level j when u
        # is odd) interleaved with non-lattice rows that never die
        rng = np.random.default_rng(5)
        count = 3 * measure.FOURIER_BLOCK + 7
        T = rng.uniform(-60.0, 60.0, size=(count, 1))
        half = T[::2].shape[0]
        T[::2, 0] = rng.integers(-2000, 2001, size=half) * 4.0 ** rng.integers(0, 6, size=half)
        rows = []
        original = measure.chi_mask
        monkeypatch.setattr(measure, "chi_mask", lambda sys, t: rows.append(len(t)) or original(sys, t))
        moduli = measure.fourier_abs_many(cantor4_measure, T)
        retired = rows[:]
        rows.clear()
        expected = np.abs(fourier_mu_many(cantor4_measure, T)[0])
        assert np.array_equal(moduli.view(np.int64), expected.view(np.int64))
        assert 0 < np.count_nonzero(moduli == 0.0) < count // 2
        # the first block's odd multiples of 4^0 leave after its first call
        assert retired[1] < retired[0] == measure.FOURIER_BLOCK and sum(retired) < sum(rows)
        assert max(retired) <= measure.FOURIER_BLOCK

    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_rows_at_the_overflow_guard(self, side, monkeypatch):
        # non-normal R: tails[0] ~ 1e143, so the guard |t| tails[0]^2 <= 2^1000
        # binds near |t| ~ 1e15, where the depth rule still holds
        sys = make_system([[1e3, 1e149], [0.0, 1e3]], QUAD_DIGITS, QUAD_FREQUENCIES)
        m = FractalMeasure(sys)
        reach = float(m._tail_sums[0])
        edge = measure.RETIRE_BOUND / (reach * max(1.0, reach, m._max_b))
        assert 1e14 < edge < 2.0**53
        rng = np.random.default_rng(2)
        T = rng.integers(-50, 50, size=(400, 2)).astype(float)  # a row with an odd entry dies at level 0
        T[0] = [edge * (1.0 + side * 1e-9), 1.0]
        rows = []
        original = measure.chi_mask
        monkeypatch.setattr(measure, "chi_mask", lambda sys, t: rows.append(len(t)) or original(sys, t))
        moduli = measure.fourier_abs_many(m, T)
        depth = m._depth_for(float(np.linalg.norm(T, axis=1).max()))
        retired = sum(rows) < depth * np.unique(T, axis=0).shape[0]
        assert retired == (side < 0)
        expected = np.abs(fourier_mu_many(m, T)[0])
        assert np.array_equal(moduli.view(np.int64), expected.view(np.int64))

    def test_no_retirement_where_the_chain_overflows(self):
        # tails[0] ~ 1e293: (2^52, 1) has a zero factor at level 0, and its
        # next point overflows, so the full product is nan; retiring the row
        # would read 0.0; a block of 3 takes one level per chi_mask call
        sys = make_system([[1e3, 1e299], [0.0, 1e3]], QUAD_DIGITS, QUAD_FREQUENCIES)
        m = FractalMeasure(sys)
        T = np.array([[2.0**52, 1.0], [2.0, 1.0], [3.0, 4.0]])
        assert chi_mask(sys, T[0]) == 0.0
        with np.errstate(over="ignore", invalid="ignore"), patch.object(measure, "FOURIER_BLOCK", 3):
            expected = np.abs(fourier_mu_many(m, T)[0])
            moduli = measure.fourier_abs_many(m, T)
        assert np.isnan(expected[0]) and np.all(expected[1:] == 0.0)
        assert np.array_equal(moduli.view(np.int64), expected.view(np.int64))


class TestOneRow:
    """A row's bits do not depend on the rows around it: fourier_mu(m, t) and
    a block of one row run with a copy of the row, as a batch does."""

    @settings(max_examples=120, deadline=None)
    @given(sys=modulus_systems, data=st.data(), block=st.sampled_from([1, 2, 3, measure.FOURIER_BLOCK]))
    def test_fourier_mu_has_the_bits_of_a_batch(self, sys, data, block):
        # t is the longest row, so the batch takes fourier_mu's depth for t;
        # with a block of 1 every block, the last one included, holds one row
        m = FractalMeasure(sys)
        rows = data.draw(retiring_rows(sys))
        t = rows[np.argmax(np.linalg.norm(rows, axis=1))]
        T = np.concatenate([t[None], rows])
        batch = fourier_mu_many(m, T)[0]
        with patch.object(measure, "FOURIER_BLOCK", block):
            blocked = fourier_mu_many(m, T)[0]
        assert np.array_equal(bits(blocked), bits(batch))
        assert np.array_equal(bits([fourier_mu(m, t)[0]]), bits(batch[:1]))

    def test_cantor4_at_24(self, cantor4_measure):
        # numpy's scalar loop read 0.5811539214293873+1.0381195599741614e-13j here
        value, _ = fourier_mu(cantor4_measure, [24.0])
        batch, _ = fourier_mu_many(cantor4_measure, [[24.0], [24.5]])
        assert np.array_equal(bits([value]), bits(batch[:1]))


class TestAtomicOracle:
    """fourier_mu against the depth-K atomic transform for K <= 10.

    The transform is the K-term truncated product, which differs from
    mu-hat(t) by at most 2 pi max|b| |t| sum_{k>=K} ||(R^T)^-k||; fourier_mu
    is within its reported tail of mu-hat(t).  Both sums round, which the
    slack of a few hundred ulps absorbs.
    """

    @pytest.mark.parametrize("name", ["cantor4", "quad2d"])
    @pytest.mark.parametrize("depth", [0, 1, 2, 4, 7, 10])
    def test_within_tail_plus_truncation(self, request, name, depth):
        sys = request.getfixturevalue(name)
        m = FractalMeasure(sys)
        atoms = atomic_approximation(m, depth)
        rng = np.random.default_rng(100 * depth + sys.d)
        for t in rng.uniform(-20.0, 20.0, size=(3, sys.d)):
            value, tail = fourier_mu(m, t)
            truncation = 2.0 * np.pi * m._max_b * np.linalg.norm(t) * m._tail_sums[depth]
            assert abs(value - atoms.transform(t)) <= tail + truncation + 256 * EPS


class TestAtomicApproximation:
    def test_depth_zero(self, cantor4_measure):
        atoms = atomic_approximation(cantor4_measure, 0)
        assert atoms.points.shape == (1, 1)
        assert atoms.points[0, 0] == 0.0
        assert atoms.weight == 1.0

    def test_depth_one(self, cantor4, cantor4_measure):
        atoms = atomic_approximation(cantor4_measure, 1)
        assert atoms.points.ravel().tolist() == [0.0, 0.5]
        assert atoms.weight == 0.5

    def test_depth_two_points(self, cantor4_measure):
        atoms = atomic_approximation(cantor4_measure, 2)
        assert atoms.points.ravel().tolist() == [0.0, 0.125, 0.5, 0.625]

    def test_total_mass(self, cantor4_measure):
        atoms = atomic_approximation(cantor4_measure, 7)
        assert atoms.weight * len(atoms.points) == pytest.approx(1.0, abs=1e-15)

    def test_points_within_attractor_ball(self, cantor4, cantor4_measure):
        radius = cantor4.inv_power_tails[0] * np.max(np.abs(cantor4.B))
        atoms = atomic_approximation(cantor4_measure, 10)
        assert np.all(np.linalg.norm(atoms.points, axis=1) <= radius + 1e-12)

    def test_budget(self, cantor4_measure):
        with pytest.raises(BudgetError):
            atomic_approximation(cantor4_measure, 30)

    def test_negative_depth(self, cantor4_measure):
        with pytest.raises(ValidationError, match="^depth must be >= 0, got -1$"):
            atomic_approximation(cantor4_measure, -1)


class TestMoments:
    def test_order_zero(self, cantor4_measure):
        assert moments(cantor4_measure, 0) == 1.0

    def test_cantor4_mean(self, cantor4_measure):
        # m1 = m1/4 + 1/4  =>  m1 = 1/3
        assert moments(cantor4_measure, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_second_moment_vs_atomic(self, cantor4_measure):
        # truncation shifts the atomic second moment by ~2 E[x] E[tail]
        m2 = moments(cantor4_measure, 2)
        atoms = atomic_approximation(cantor4_measure, 12)
        expected_gap = 2.0 * (1.0 / 3.0) * (4.0**-12 / 3.0)
        assert abs(m2 - atoms.moment(2)) < expected_gap * 1.5

    def test_atomic_agreement_improves_with_depth(self, cantor4_measure):
        m2 = moments(cantor4_measure, 2)
        gaps = [
            abs(m2 - atomic_approximation(cantor4_measure, k).moment(2))
            for k in (4, 8, 12)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_degree_cap(self, cantor4_measure):
        with pytest.raises(BudgetError):
            moments(cantor4_measure, 9)

    def test_two_dimensional_mean(self, quad2d):
        m = FractalMeasure(quad2d)
        assert moments(m, (1, 0)) == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert moments(m, (0, 1)) == pytest.approx(1.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("order", [1, np.int64(1)])
    def test_scalar_order_only_in_one_dimension(self, quad2d, order):
        with pytest.raises(ValidationError, match="^scalar moment order only valid in dimension 1$"):
            moments(FractalMeasure(quad2d), order)

    def test_two_dimensional_cross_moment_vs_atomic(self, quad2d):
        # product measure per axis: E[xy] = 1/9, atomic gap ~ (2/9) 4^-K
        m = FractalMeasure(quad2d)
        atoms = atomic_approximation(m, 6)
        assert moments(m, (1, 1)) == pytest.approx(1.0 / 9.0, abs=1e-14)
        gap = abs(moments(m, (1, 1)) - atoms.moment((1, 1)))
        assert gap < (2.0 / 9.0) * 4.0**-6 * 1.5


class TestChaosSample:
    def test_empty(self, cantor4_measure):
        assert chaos_sample(cantor4_measure, 0).shape == (0, 1)

    def test_negative_count(self, cantor4_measure):
        with pytest.raises(ValidationError):
            chaos_sample(cantor4_measure, -1)

    def test_deterministic_per_seed(self, cantor4_measure):
        a = chaos_sample(cantor4_measure, 500, seed=3)
        b = chaos_sample(cantor4_measure, 500, seed=3)
        c = chaos_sample(cantor4_measure, 500, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_samples_in_attractor_interval(self, cantor4_measure):
        xs = chaos_sample(cantor4_measure, 20_000, seed=1)
        assert xs.min() >= 0.0
        assert xs.max() <= 2.0 / 3.0 + 1e-12

    def test_empirical_mean(self, cantor4_measure):
        xs = chaos_sample(cantor4_measure, 100_000, seed=0)[:, 0]
        se = xs.std(ddof=1) / np.sqrt(len(xs))
        assert abs(xs.mean() - 1.0 / 3.0) <= 3.0 * se


class TestMeasureConstruction:
    def test_rejects_non_expansive(self):
        s = make_system(1.0, [0.0, 0.5], [0.0, 1.0])
        with pytest.raises(ValidationError, match="expansive"):
            FractalMeasure(s)

    def test_rejects_non_unitary(self):
        s = make_system(4.0, [0.0, 1.0 / 3.0], [0.0, 1.0])
        with pytest.raises(ValidationError, match="unitary"):
            FractalMeasure(s)
