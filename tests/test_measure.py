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

EPS = np.finfo(float).eps


def bits(values):
    """Bit patterns of a complex array (tells 0.0 from -0.0)."""
    return np.ascontiguousarray(values, dtype=complex).view(np.int64)


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
        # depth-8 cantor4 spectrum: 512^2 differences, 3^9 distinct values
        rows = []

        def counting(sys, t):
            rows.append(np.shape(t)[0])
            return chi_mask(sys, t)

        monkeypatch.setattr(measure, "chi_mask", counting)
        spec = enumerate_spectrum(cantor4, 8)
        max_off, _ = orthogonality_matrix(cantor4_measure, spec)
        assert max_off == 0.0
        # the distinct rows go through the product in blocks, each at every depth
        lam = spec.elements[:, 0]
        depth = cantor4_measure._depth_for(float(lam.max() - lam.min()))
        assert depth > 0 and sum(rows) == depth * 19683
        assert max(rows) <= measure.FOURIER_BLOCK

    def test_empty_rows(self, quad2d):
        values, tails = fourier_mu_many(FractalMeasure(quad2d), np.empty((0, 2)))
        assert values.shape == (0,) and tails.shape == (0,)

    def test_tails_come_from_the_system(self, cantor4):
        m = FractalMeasure(cantor4, max_product_depth=10)
        assert np.array_equal(m._tail_sums, cantor4.inv_power_tails[:11])

    def test_product_depth_beyond_tails_rejected(self, cantor4):
        with pytest.raises(ValidationError):
            FractalMeasure(cantor4, max_product_depth=257)

    def test_convergence_error(self, cantor4):
        m = FractalMeasure(cantor4, product_tail_tol=1e-12, max_product_depth=3)
        with pytest.raises(ConvergenceError):
            fourier_mu(m, [1000.0])


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
            atomic_approximation(cantor4_measure, 30, budget=2**20)


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
