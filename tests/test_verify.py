import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fractalspec import (
    BudgetError,
    FractalMeasure,
    TilingReport,
    ValidationError,
    atomic_approximation,
    basis_certificate,
    dim_one_classify,
    enumerate_spectrum,
    hardy_roundtrip,
    make_system,
    max_orthogonal_clique,
    scaling_sweep,
    tiling_multiplicity,
)
from fractalspec import systems, verify
from fractalspec._numeric import cis2pi
from fractalspec.measure import cis2pi_outer
from fractalspec.verify import _covered_runs


def three_free_part_is_odd(delta: int) -> bool:
    delta = abs(delta)
    if delta == 0:
        return False
    while delta % 3 == 0:
        delta //= 3
    return delta % 2 == 1


class TestMaxClique:
    def test_odd_scale_window_100(self, odd3_measure):
        size, witness = max_orthogonal_clique(odd3_measure, 100)
        assert size == 2
        assert witness == (0, 1)

    def test_matches_parity_oracle(self, odd3_measure):
        from fractalspec import fourier_mu

        for delta in range(1, 81):
            value, _ = fourier_mu(odd3_measure, [float(delta)])
            assert (abs(value) <= 1e-9) == three_free_part_is_odd(delta)

    def test_edgeless_graph(self):
        # zeros of the mask sit at half-integers times 3: never integers
        s = make_system(3.0, [0.0, 1.0 / 3.0], [0.0, 1.5])
        m = FractalMeasure(s)
        size, witness = max_orthogonal_clique(m, 15)
        assert size == 1
        assert witness == (0,)

    def test_even_scale_contains_spectrum(self, cantor4, cantor4_measure):
        size, witness = max_orthogonal_clique(cantor4_measure, 21)
        assert size >= 8  # {0,1,4,5,16,17,20,21} is a clique
        # the witness itself must be pairwise orthogonal
        from fractalspec import fourier_mu

        for i, a in enumerate(witness):
            for b in witness[i + 1 :]:
                value, _ = fourier_mu(cantor4_measure, [float(a - b)])
                assert abs(value) <= 1e-9

    def test_monotone_in_window(self, cantor4_measure):
        sizes = [max_orthogonal_clique(cantor4_measure, M)[0] for M in (5, 10, 21)]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_monotone_in_tolerance(self, odd3_measure):
        tight, _ = max_orthogonal_clique(odd3_measure, 20, zero_tol=1e-12)
        loose, _ = max_orthogonal_clique(odd3_measure, 20, zero_tol=1e-2)
        assert tight <= loose

    def test_window_budget(self, odd3_measure):
        with pytest.raises(BudgetError):
            max_orthogonal_clique(odd3_measure, 201)

    def test_empty_window(self, odd3_measure):
        with pytest.raises(ValidationError, match="^window must be >= 1, got 0$"):
            max_orthogonal_clique(odd3_measure, 0)

    def test_dimension_guard(self, quad2d):
        with pytest.raises(ValidationError):
            max_orthogonal_clique(FractalMeasure(quad2d), 5)


class TestDichotomy:
    def test_even_case(self):
        verdict = dim_one_classify(4, 0.5)
        assert verdict.predicted == "basis"
        assert verdict.certificate.basis_certified
        assert verdict.completeness_min_Q >= 0.99
        assert verdict.consistent

    def test_odd_case(self):
        verdict = dim_one_classify(3, 0.5)
        assert verdict.predicted == "no-basis"
        assert verdict.max_clique_size == 2
        assert verdict.clique_witness == (0, 1)
        assert verdict.consistent

    def test_scale_two_outside(self):
        verdict = dim_one_classify(2, 0.25)
        assert verdict.predicted == "outside-theorem"
        assert verdict.certificate is not None  # evidence recorded, no claim
        assert verdict.completeness_min_Q is not None
        assert verdict.consistent

    @pytest.mark.parametrize("R", [3, 5, 7])
    def test_odd_scales_stall_at_two(self, R):
        verdict = dim_one_classify(R, 0.5, clique_window=60)
        assert verdict.max_clique_size <= 2

    @pytest.mark.parametrize("R", [4, 6, 8])
    def test_even_scales_certify(self, R):
        verdict = dim_one_classify(R, 0.5)
        assert verdict.predicted == "basis"
        assert verdict.consistent

    def test_even_clique_grows_with_window(self):
        # clique number at least the number of spectrum points in [0, M]
        s = make_system(4.0, [0.0, 0.5], [0.0, 1.0])
        m = FractalMeasure(s)
        lam = enumerate_spectrum(s, 2).elements.ravel()
        for window in (10, 21):
            size, _ = max_orthogonal_clique(m, window)
            assert size >= np.sum((lam >= 0) & (lam <= window))

    def test_default_frequencies_scale_with_a(self):
        # b.l = 1/2 regardless of a
        verdict = dim_one_classify(4, 0.25)
        assert verdict.predicted == "basis"
        assert verdict.consistent

    def test_exact_digit_builds_an_exact_system(self, monkeypatch):
        # a = 1/3 and l = 1/(2a) = 3/2 stay rationals, so R^n b.l = 6^n / 2 is
        # an integer for every n (is_integral's shortcut also needs integer L)
        built = []

        def recording(*args):
            built.append(systems.two_digit_system(*args))
            return built[-1]

        monkeypatch.setattr(verify, "two_digit_system", recording)
        verdict = dim_one_classify(6, Fraction(1, 3))
        (s,) = built
        assert s.exact.B == ((0,), (Fraction(1, 3),)) and s.exact.L == ((0,), (Fraction(3, 2),))
        assert all((6**n * s.exact.B[1][0] * s.exact.L[1][0]).denominator == 1 for n in range(1, 40))
        assert verdict.a == 1 / 3 and verdict.predicted == "basis"

    def test_rejects_unit_scale(self):
        with pytest.raises(ValidationError):
            dim_one_classify(1, 0.5)

    def test_rejects_zero_digit(self):
        with pytest.raises(ValidationError):
            dim_one_classify(4, 0.0)


class TestScalingSweep:
    def test_cantor4_certifies_immediately(self, cantor4):
        report = scaling_sweep(cantor4, 3)
        assert report.first_certified == 1
        gammas = [g for _, g, _ in report.rows]
        assert gammas[0] > gammas[1] > gammas[2]

    def test_row_one_matches_direct_certificate(self, cantor4, cantor4_measure):
        report = scaling_sweep(cantor4, 1)
        direct = basis_certificate(cantor4_measure)
        assert report.rows[0][1] == direct.gamma_bound
        assert report.rows[0][2] == direct.basis_certified

    def test_scale_two_system_needs_rescaling(self, even2):
        report = scaling_sweep(even2, 4)
        assert report.rows[0][2] is False
        assert report.first_certified == 2

    def test_two_dimensional_system(self, quad2d):
        report = scaling_sweep(quad2d, 8)
        assert report.first_certified is not None
        assert report.first_certified <= 8

    def test_bad_r_max(self, cantor4):
        with pytest.raises(ValidationError):
            scaling_sweep(cantor4, 0)


class TestTiling:
    def test_depth_one_partition(self):
        report = tiling_multiplicity(1, (-10.0, 6.0), samples=2000)
        assert report.min_mult == 1 and report.max_mult == 1
        assert not report.truncated
        assert report.uniform

    def test_depth_one_interval_oracle(self):
        # translates of [0,2) u [4,6) by {0,-2,-8,-10} chain into [-10, 6)
        pieces = []
        for t in (0.0, -2.0, -8.0, -10.0):
            pieces.extend([(0.0 + t, 2.0 + t), (4.0 + t, 6.0 + t)])

        def oracle(x):
            return sum(lo <= x < hi for lo, hi in pieces)

        report = tiling_multiplicity(1, (-10.0, 6.0), samples=501)
        for x, mult in zip(report.sample_points, report.multiplicities):
            assert mult == oracle(x)

    def test_single_tile(self):
        s = make_system(4.0, [0.0], [0.0])
        report = tiling_multiplicity(3, (0.2, 0.8), samples=100, sys=s)
        assert report.uniform
        assert report.safe_window == (0.2, 0.8)

    def test_corrupted_translates_overlap(self):
        report = tiling_multiplicity(1, (-10.0, 6.0), samples=2000, translate_factor=-1.0)
        assert report.max_mult == 2
        assert not report.uniform

    def test_truncation_flagged(self):
        report = tiling_multiplicity(2, (-50.0, 30.0), samples=500)
        assert report.truncated
        assert report.safe_window == (-42.0, 22.0)
        assert report.uniform

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_uniform_at_all_depths(self, depth):
        report = tiling_multiplicity(depth, (-5.0, 5.0), samples=1000)
        assert report.min_mult == 1 and report.max_mult == 1

    def test_multiplicities_are_integers(self):
        report = tiling_multiplicity(1, (-10.0, 6.0), samples=50)
        assert report.multiplicities.dtype == np.dtype(int)
        assert np.all(report.multiplicities >= 0)

    def test_disjoint_window_rejected(self):
        with pytest.raises(ValidationError):
            tiling_multiplicity(1, (100.0, 200.0), samples=10)

    def test_two_dimensional_system_rejected(self, quad2d):
        with pytest.raises(ValidationError, match="^tiling check is defined for dimension 1 only$"):
            tiling_multiplicity(1, (0.0, 1.0), sys=quad2d)

    def test_no_samples_rejected(self):
        with pytest.raises(ValidationError, match="^samples must be >= 1, got 0$"):
            tiling_multiplicity(1, (0.0, 1.0), samples=0)


def covered_runs_loop(starts, ends):
    """Reference: walk the breakpoints one by one (the earlier implementation)."""
    points = np.unique(np.concatenate([starts, ends]))
    counts = np.searchsorted(starts, points, side="right") - np.searchsorted(
        ends, points, side="right"
    )
    runs, run_start = [], None
    for point, is_covered in zip(points, counts >= 1):
        if is_covered and run_start is None:
            run_start = point
        elif not is_covered and run_start is not None:
            runs.append((float(run_start), float(point)))
            run_start = None
    return runs


def covered_runs_breakpoints(starts, ends):
    """Reference: coverage counted at every breakpoint by searchsorted (the
    vectorised implementation before the gap test)."""
    points = np.unique(np.concatenate([starts, ends]))
    covered = np.searchsorted(starts, points, side="right")
    covered -= np.searchsorted(ends, points, side="right")
    changes = np.flatnonzero(np.diff(covered >= 1, prepend=False))
    return points[changes[0::2]], points[changes[1::2]]


def random_tiles(rng):
    """Sorted tiles [s, s + w) with a shared width w: integer and half-integer
    starts, so tiles touch and repeat, and starts near 2^53 where s + 1 == s
    leaves empty tiles."""
    count = int(rng.integers(0, 40))
    starts = rng.integers(-30, 30, size=count) / rng.choice([1.0, 2.0])
    huge = rng.random(count) < 0.1
    starts[huge] = 2.0**53 + 2.0 * rng.integers(0, 4, size=int(huge.sum()))
    starts = np.sort(starts)
    return starts, starts + rng.choice([0.0, 0.5, 1.0, 2.0])


def tiling_loop(depth, window, samples, translate_factor):
    """Reference tiling report built on covered_runs_loop."""
    lam = enumerate_spectrum(make_system(4.0, [0.0, 0.5], [0.0, 1.0]), depth).elements[:, 0]
    starts = np.sort((lam[:, None] + translate_factor * lam[None, :]).ravel())
    ends = starts + 1.0
    lo, hi = float(window[0]), float(window[1])
    overlap = [(min(b, hi) - max(a, lo), (a, b)) for a, b in covered_runs_loop(starts, ends)]
    gain, (run_lo, run_hi) = max(overlap, key=lambda t: t[0])
    if gain <= 0:
        return None
    safe = (max(lo, run_lo), min(hi, run_hi))
    xs = np.linspace(safe[0], safe[1], samples, endpoint=False)
    mult = np.searchsorted(starts, xs, side="right") - np.searchsorted(ends, xs, side="right")
    return safe, safe != (lo, hi), xs, mult.astype(int)


class TestCoveredRuns:
    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("factor", [-2.0, -1.0, -3.0, 0.5, 2.5])
    def test_matches_loop(self, depth, factor):
        lam = enumerate_spectrum(make_system(4.0, [0.0, 0.5], [0.0, 1.0]), depth).elements[:, 0]
        starts = np.sort((lam[:, None] + factor * lam[None, :]).ravel())
        ends = starts + 1.0
        run_lo, run_hi = _covered_runs(starts, ends)
        assert list(zip(run_lo.tolist(), run_hi.tolist())) == covered_runs_loop(starts, ends)

    def test_matches_breakpoints_on_random_tiles(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            starts, ends = random_tiles(rng)
            got = _covered_runs(starts, ends)
            expected = covered_runs_breakpoints(starts, ends)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_touching_duplicate_and_empty_tiles(self):
        starts = np.array([0.0, 0.0, 1.0, 3.0, 3.5, 3.5, 6.0, 2.0**53])
        ends = np.concatenate([starts[:-1] + 1.0, [2.0**53]])  # the last tile is empty
        run_lo, run_hi = _covered_runs(starts, ends)
        assert run_lo.tolist() == [0.0, 3.0, 6.0] and run_hi.tolist() == [2.0, 4.5, 7.0]
        empty = np.array([5.0])
        assert [r.size for r in _covered_runs(empty, empty)] == [0, 0]
        assert [r.size for r in _covered_runs(empty[:0], empty[:0])] == [0, 0]

    @pytest.mark.parametrize("depth", range(1, 10))
    def test_multiplicities_match_breakpoints(self, depth, monkeypatch):
        report = tiling_multiplicity(depth, (-40.0, 30.0), samples=1000)
        monkeypatch.setattr(verify, "_covered_runs", covered_runs_breakpoints)
        expected = tiling_multiplicity(depth, (-40.0, 30.0), samples=1000)
        assert report.safe_window == expected.safe_window
        assert np.array_equal(report.multiplicities, expected.multiplicities)

    def test_separate_tiles(self):
        starts = np.array([0.0, 0.5, 3.0, 10.0])
        run_lo, run_hi = _covered_runs(starts, starts + 1.0)
        assert run_lo.tolist() == [0.0, 3.0, 10.0] and run_hi.tolist() == [1.5, 4.0, 11.0]

    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize(
        "window", [(-10.0, 6.0), (-50.0, 30.0), (0.2, 0.8), (-1e4, 1e4), (-3.5, -3.25)]
    )
    @pytest.mark.parametrize("factor", [-2.0, -1.0, 0.5])
    def test_report_matches_loop(self, depth, window, factor):
        expected = tiling_loop(depth, window, 97, factor)
        if expected is None:
            with pytest.raises(ValidationError):
                tiling_multiplicity(depth, window, samples=97, translate_factor=factor)
            return
        report = tiling_multiplicity(depth, window, samples=97, translate_factor=factor)
        assert isinstance(report, TilingReport)
        safe, truncated, xs, mult = expected
        assert report.safe_window == safe and report.truncated == truncated
        assert np.array_equal(report.sample_points, xs)
        assert np.array_equal(report.multiplicities, mult)


class TestHardyRoundtrip:
    def test_constant_function(self, cantor4, cantor4_measure):
        spec = enumerate_spectrum(cantor4, 1)
        report = hardy_roundtrip(cantor4_measure, spec, {0.0: 1.0}, depth=6)
        assert report.recon_error < 1e-14
        assert report.parseval_defect < 1e-14

    def test_zero_coefficients(self, cantor4, cantor4_measure):
        spec = enumerate_spectrum(cantor4, 1)
        report = hardy_roundtrip(
            cantor4_measure, spec, {0.0: 0.0, 1.0: 0.0}, depth=6
        )
        assert report.recon_error == 0.0
        assert report.parseval_defect == 0.0

    def test_full_depth_one_coefficients(self, cantor4, cantor4_measure):
        spec = enumerate_spectrum(cantor4, 1)
        coeffs = {0.0: 1.0, 1.0: 0.5, 4.0: 0.25 + 0.25j, 5.0: -0.125}
        report = hardy_roundtrip(cantor4_measure, spec, coeffs, depth=10)
        assert report.recon_error <= 1e-6
        assert report.parseval_defect <= 1e-6
        assert abs(report.recovered[4.0] - (0.25 + 0.25j)) <= 1e-6

    @pytest.mark.parametrize("depth", [4, 6, 8, 10])
    def test_errors_at_noise_floor_for_exact_spectra(
        self, cantor4, cantor4_measure, depth
    ):
        # differences of spectrum points kill an early product factor
        # exactly, so the round-trip is exact at every depth past it
        spec = enumerate_spectrum(cantor4, 1)
        coeffs = {0.0: 0.3, 1.0: -0.2, 4.0: 0.1j, 5.0: 0.05}
        report = hardy_roundtrip(cantor4_measure, spec, coeffs, depth=depth)
        assert report.recon_error <= 1e-12
        assert report.parseval_defect <= 1e-12

    def test_off_spectrum_coefficient_rejected(self, cantor4, cantor4_measure):
        spec = enumerate_spectrum(cantor4, 1)
        with pytest.raises(ValidationError):
            hardy_roundtrip(cantor4_measure, spec, {2.5: 1.0}, depth=4)

    def test_negative_depth_rejected(self, cantor4, cantor4_measure):
        spec = enumerate_spectrum(cantor4, 1)
        with pytest.raises(ValidationError, match="^depth must be >= 0, got -1$"):
            hardy_roundtrip(cantor4_measure, spec, {0.0: 1.0}, depth=-1)

    def test_basis_over_budget_raises_before_allocating(self, cantor4, monkeypatch):
        monkeypatch.setattr(verify, "word_sums", lambda *a: pytest.fail("allocated"))
        m = FractalMeasure(cantor4)
        spec = enumerate_spectrum(cantor4, 1)
        coeffs = {0.0: 1.0, 1.0: 0.5, 4.0: 0.25, 5.0: 0.125}
        # 2^23 atoms alone fit the atom budget; times four coefficients they do not
        with pytest.raises(BudgetError, match="budget"):
            hardy_roundtrip(m, spec, coeffs, depth=23)
        with pytest.raises(BudgetError):
            hardy_roundtrip(m, spec, coeffs, depth=10**9)  # no 2**(10**9) is formed

    def test_budget_counts_atoms_times_coefficients(self, cantor4, cantor4_measure, monkeypatch):
        monkeypatch.setattr(verify, "DEFAULT_ATOM_BUDGET", 64)
        spec = enumerate_spectrum(cantor4, 1)
        report = hardy_roundtrip(cantor4_measure, spec, {0.0: 1.0, 1.0: 0.5}, depth=5)
        assert report.recon_error <= 1e-12  # 2^5 x 2 = 64 entries fit
        with pytest.raises(BudgetError):
            hardy_roundtrip(cantor4_measure, spec, {0.0: 1.0, 1.0: 0.5, 4.0: 0.25}, depth=5)

    @pytest.mark.parametrize(
        "name, spec_depth, depth", [("cantor4", 2, 12), ("cantor4", 3, 9), ("quad2d", 1, 5)]
    )
    def test_matches_full_phase_matrix(self, name, spec_depth, depth, request):
        sys = request.getfixturevalue(name)
        m = FractalMeasure(sys)
        spec = enumerate_spectrum(sys, spec_depth)
        rng = np.random.default_rng(depth)
        keys = [float(e[0]) if sys.d == 1 else tuple(e) for e in spec.elements]
        coeffs = {key: complex(*rng.normal(size=2)) for key in keys}
        report = hardy_roundtrip(m, spec, coeffs, depth=depth)
        # the earlier route: the phase matrix, cis2pi of it, a conjugate copy
        atoms = atomic_approximation(m, depth)
        basis = cis2pi(atoms.points @ spec.elements.T)
        c = np.array(list(coeffs.values()))
        recovered = np.conj(basis).T @ (basis @ c) * atoms.weight
        assert np.array_equal(np.array(list(report.recovered.values())), recovered)
        assert report.recon_error == float(np.max(np.abs(recovered - c)))

    def test_traced_peak_is_about_the_basis(self, cantor4, cantor4_measure):
        spec = enumerate_spectrum(cantor4, 2)
        coeffs = {float(lam): 1.0 + 0.5j for lam in spec.elements[:, 0]}
        depth = 18
        basis_bytes = 16 * 2**depth * len(coeffs)
        tracemalloc.start()
        try:
            hardy_roundtrip(cantor4_measure, spec, coeffs, depth=depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # basis, f, the atoms and the |f|^2 temporaries: about 1.3 x the basis
        assert peak <= 1.5 * basis_bytes

    def test_traced_peak_is_one_block(self, cantor4, cantor4_measure):
        # 2^18 atoms x 8 coefficients go in 32 blocks of CIS_BLOCK entries;
        # the whole basis alone is 33.5 MB
        spec = enumerate_spectrum(cantor4, 2)
        coeffs = {float(lam): 1.0 + 0.5j for lam in spec.elements[:, 0]}
        tracemalloc.start()
        try:
            hardy_roundtrip(cantor4_measure, spec, coeffs, depth=18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    @staticmethod
    def full_matrix_route(m, spec, coeffs, depth):
        """The one-basis route: every atom's e_lam in one N^K x |coeffs| array."""
        atoms = atomic_approximation(m, depth)
        basis = cis2pi(atoms.points @ spec.elements.T)
        c = np.array(list(coeffs.values()))
        f = basis @ c
        recovered = np.conj(basis).T @ f * atoms.weight
        return recovered, float(np.sum(np.abs(f) ** 2) * atoms.weight), atoms.points

    @pytest.mark.parametrize("depth, blocks", [(13, 1), (14, 2), (18, 32)])
    def test_blocks_match_the_full_matrix(self, cantor4, cantor4_measure, monkeypatch, depth, blocks):
        spec = enumerate_spectrum(cantor4, 2)
        rng = np.random.default_rng(depth)
        coeffs = {float(lam): complex(*rng.normal(size=2)) for lam in spec.elements[:, 0]}
        seen = []

        def recording(rows, cols):
            seen.append(rows.copy())
            return cis2pi_outer(rows, cols)

        monkeypatch.setattr(verify, "cis2pi_outer", recording)
        report = hardy_roundtrip(cantor4_measure, spec, coeffs, depth=depth)
        recovered, norm_sq, points = self.full_matrix_route(cantor4_measure, spec, coeffs, depth)
        # the blocks visit the atoms in order, bit for bit
        assert len(seen) == blocks
        assert np.array_equal(np.concatenate(seen).view(np.int64), points.view(np.int64))
        streamed = np.array(list(report.recovered.values()))
        c = np.array(list(coeffs.values()))
        if blocks == 1:  # one block: the bits of the one-basis route
            assert np.array_equal(streamed, recovered)
            assert report.parseval_defect == abs(float(np.sum(np.abs(c) ** 2)) - norm_sq)
            return
        # otherwise only the order of the sums over M = 2^K atoms differs: each
        # route is within M eps S (S = sum |c| >= |f|) of the exact sum, whose
        # terms weigh 1/M each, and the squared norm within M eps S^2
        M, eps, S = 2.0**depth, np.finfo(float).eps, float(np.sum(np.abs(c)))
        assert np.max(np.abs(streamed - recovered)) <= 2 * M * eps * S
        exact = float(np.sum(np.abs(c) ** 2))
        assert abs(report.parseval_defect - abs(exact - norm_sq)) <= 2 * M * eps * S**2
        assert report.recon_error <= 1e-12
