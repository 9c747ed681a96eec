import json
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalspec import (
    BudgetError,
    ConvergenceError,
    FractalMeasure,
    SpectrumEnumeration,
    ValidationError,
    completeness_scan,
    enumerate_spectrum,
    fourier_mu_many,
    make_system,
    orthogonality_matrix,
    q_partial,
    q_partial_many,
    scale_system,
    separation,
)
from fractalspec import spectrum, systems
from fractalspec.reports import render_json
from fractalspec.spectrum import DEDUP_TOL, _cell_pairs, _dedup_near
from tests.conftest import generated_triples, grid1d, hadamard_triple, triple_params


def max_norm_gaps(a, b):
    return np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)


def assert_tolerance_dedup(inputs, outputs):
    gaps = max_norm_gaps(outputs, outputs)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > DEDUP_TOL  # no two output rows are near
    assert max_norm_gaps(inputs, outputs).min(axis=1).max() <= DEDUP_TOL  # covered


def greedy_dedup(rows):
    # reference: keep a row unless an earlier kept row is within DEDUP_TOL
    kept = []
    for row in rows:
        if all(np.max(np.abs(row - k)) > DEDUP_TOL for k in kept):
            kept.append(row)
    return np.array(kept)


def dense_lattice():
    """R = 2 I, B = {0, 1/2}^2, L = {0, 1}^2: its depth-n set is the full
    integer square [0, 2^(n+1) - 1]^2."""
    return make_system(
        2.0 * np.eye(2),
        [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    )


def full_difference_table(m, spec):
    """The earlier route of orthogonality_matrix: mu-hat of all n^2
    differences at once, and the largest entry off a copy of the diagonal."""
    el = spec.elements
    n = el.shape[0]
    values, _ = fourier_mu_many(m, (el[:, None, :] - el[None, :, :]).reshape(-1, el.shape[1]))
    table = np.abs(values).reshape(n, n)
    return (float(table[~np.eye(n, dtype=bool)].max()) if n > 1 else 0.0), table


QUAD_DIGITS = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]]
QUAD_FREQUENCIES = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
THIRDS = ([0.0, 1 / 3, 2 / 3], [0.0, 1.0, 2.0])


def shear():
    """R = [[4, 2], [0, 4]] with quad2d's digits: an R that is not diagonal."""
    return make_system([[4.0, 2.0], [0.0, 4.0]], QUAD_DIGITS, QUAD_FREQUENCIES)


# systems whose R is negative or not diagonal, beside the generated triples
mirror_systems = st.one_of(
    generated_triples,
    st.sampled_from([-2.0, -3.0]).map(lambda r: make_system(r, *THIRDS)),
    st.builds(shear),
)


def ulps_from(x, k):
    """The float k steps above x (below it for k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.copysign(np.inf, k))
    return float(x)


@st.composite
def mirror_points(draw, d):
    """Points at which the exact-phase product takes its branches: quarter
    integers, tiny values, and a few ulps from a rounding edge of the phase
    reduction (n + 1/8, 3/8, 1/2, ... times a small digit denominator)."""
    eighths = st.sampled_from([1, 3, 4, 5, 7])
    edge = st.tuples(st.integers(-64, 64), eighths, st.integers(1, 4), st.integers(-3, 3)).map(
        lambda e: ulps_from((e[0] + e[1] / 8) * e[2], e[3])
    )
    tiny = [5e-324, 1e-300, 2.0**-60, 1e-17, 1e-9]
    value = st.one_of(
        st.integers(-400, 400).map(lambda k: k / 4),
        st.sampled_from(tiny + [-x for x in tiny]),
        edge,
        st.floats(-100.0, 100.0),
    )
    rows = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=40))
    return np.array(rows, dtype=float)


def brute_separation(elements):
    # each pair's differences scaled by the power of two of the largest
    # before squaring, so that no square under- or overflows
    el = np.asarray(elements, dtype=float)
    diffs = (el[:, None, :] - el[None, :, :])[np.triu_indices(len(el), 1)]
    _, e = np.frexp(np.abs(diffs).max(axis=1))
    return np.ldexp(np.sqrt((np.ldexp(diffs, -e[:, None]) ** 2).sum(axis=1)), e).min()


def brute_cell_pairs(rows, side):
    """Index pairs i < j of rows whose cells floor(x / side) are equal or
    differ by exactly 1 in each coordinate that differs."""
    with np.errstate(over="ignore"):
        cells = np.floor(rows / side) + 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # cells far apart; inf - inf
        gaps = np.abs(cells[:, None, :] - cells[None, :, :])
    close = (cells[:, None, :] == cells[None, :, :]) | (gaps == 1.0)
    i, j = np.nonzero(np.triu(np.all(close, axis=2), 1))
    return set(zip(i.tolist(), j.tolist()))


@st.composite
def cell_walk_cases(draw):
    """Rows of d = 1, 2 or 3 coordinates in units of a power-of-two side:
    on and within a side of the cell walls, past 2^53 sides (where the
    float cells are 2 or 4 apart) and near the float maximum (an infinite
    cell for a side below 1)."""
    d = draw(st.integers(1, 3))
    side = 2.0 ** draw(st.integers(-40, 4))
    offsets = st.sampled_from([0.0, 0.0, 0.5, -0.5, 1e-9, -1e-9, 0.999])
    near_walls = st.builds(lambda k, f: k + f, st.integers(-3, 3), offsets)
    past_2_53 = st.builds(
        lambda k, j: (2.0**53 + 2 * k) * 2.0**j, st.integers(-3, 3), st.integers(0, 2)
    )
    coordinate = st.one_of(
        near_walls.map(lambda u: u * side),
        past_2_53.map(lambda u: u * side),
        st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 1.5e308]),
    )
    rows = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), max_size=24))
    return np.array(rows, dtype=float).reshape(-1, d), side


class TestEnumeration:
    def test_depth_one(self, cantor4):
        spec = enumerate_spectrum(cantor4, 1)
        assert spec.elements.ravel().tolist() == [0.0, 1.0, 4.0, 5.0]

    def test_depth_two(self, cantor4):
        spec = enumerate_spectrum(cantor4, 2)
        assert spec.elements.ravel().tolist() == [0, 1, 4, 5, 16, 17, 20, 21]

    def test_zero_frequencies_stay_trivial(self):
        s = make_system(4.0, [0.0], [0.0])
        for depth in (0, 1, 3):
            assert enumerate_spectrum(s, depth).elements.ravel().tolist() == [0.0]

    def test_nesting(self, cantor4):
        prev = set()
        for depth in range(4):
            current = set(enumerate_spectrum(cantor4, depth).elements.ravel())
            assert prev <= current
            prev = current

    def test_deduplication(self):
        # l0 + 2 l1 over {0,1,2}^2 collides: 9 words, 7 values
        s = make_system(2.0, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        spec = enumerate_spectrum(s, 1)
        assert spec.elements.ravel().tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_negative_depth(self, cantor4):
        with pytest.raises(ValidationError):
            enumerate_spectrum(cantor4, -1)

    def test_budget(self, cantor4):
        with pytest.raises(BudgetError):
            enumerate_spectrum(cantor4, 40)

    def test_scaled_base(self, cantor4):
        spec = enumerate_spectrum(scale_system(cantor4, 2), 1)
        assert spec.elements.ravel().tolist() == [0.0, 1.0, 8.0, 9.0]


class TestNearDuplicates:
    def test_non_adjacent_near_duplicates(self):
        # a third row sorts between two near-duplicates of (0.3, 2.1)
        s = make_system(
            [[3, 0], [0, 3]],
            [[0, 0], [1 / 3, 0], [0, 1 / 3], [1 / 3, 1 / 3]],
            [[0, 0], [0.1, 0.7], [0.3, 2.1], [0.3, 5.0]],
        )
        sums = (s.L @ s.R)[:, None, :] + s.L[None, :, :]
        spec = enumerate_spectrum(s, 1)
        assert spec.size == 15
        assert_tolerance_dedup(sums.reshape(-1, 2), spec.elements)
        near = np.abs(spec.elements - [0.3, 2.1]).max(axis=1) <= DEDUP_TOL
        assert near.sum() == 1

    @pytest.mark.parametrize("base", [0.0, 0.5, 1234.5678, -42.125])
    def test_cluster_straddling_cells(self, base):
        # spacing 0.6 tol: a chain longer than tol that crosses cell walls
        # wherever it starts; greedy keeps rows 0, 2, 4
        offsets = np.arange(5) * 0.6 * DEDUP_TOL
        rows = np.stack([base + offsets, np.full(5, 7.0)], axis=1)
        out = _dedup_near(rows, DEDUP_TOL)
        assert_tolerance_dedup(rows, out)
        assert out.tolist() == rows[[0, 2, 4]].tolist()

    def test_random_clusters(self):
        rng = np.random.default_rng(11)
        for d, shift in [(1, 0.25), (2, 0.25), (3, 0.25), (2, -3.1e6)]:
            # at 3.1e6 the float spacing (4.7e-10) is close to the tolerance
            centres = rng.integers(-3, 4, size=(40, d)) * 7e-10 + shift
            rows = centres + rng.normal(scale=2e-10, size=centres.shape)
            rows = rows[np.lexsort(rows.T[::-1])]
            out = _dedup_near(rows, DEDUP_TOL)
            assert_tolerance_dedup(rows, out)
            assert np.array_equal(out, greedy_dedup(rows))


class TestCellWalk:
    @settings(max_examples=150, deadline=None)
    @given(case=cell_walk_cases())
    @example(case=(np.array([[0, 1], [0, 2], [1, 1], [-1, 0]]) * 2.0**-29, 2.0**-29))
    @example(case=(np.array([[0, 0], [0, 1], [2, 1], [-1, 0]]) + [2.0**53, 0.0], 1.0))
    @example(case=(np.array([[1e308, 0.0], [1.5e308, 0.5], [1.5e308, -0.5], [-1e308, 0.0]]), 0.5))
    def test_pairs_are_the_brute_force_neighbours_once(self, case):
        rows, side = case
        found = [np.stack([i, j], axis=1) for i, j in _cell_pairs(rows, side)]
        pairs = np.sort(np.concatenate([np.empty((0, 2), dtype=int), *found]), axis=1)
        assert len(set(map(tuple, pairs.tolist()))) == len(pairs)  # each once
        assert set(map(tuple, pairs.tolist())) == brute_cell_pairs(rows, side)


class TestSeparation:
    def test_quad2d_matches_brute_force(self, quad2d):
        spec = enumerate_spectrum(quad2d, 2)
        assert separation(spec) == brute_separation(spec.elements) == 1.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_unsorted_elements_match_brute_force(self, d):
        rng = np.random.default_rng(5 + d)
        s = make_system(3.0 * np.eye(d), np.zeros((1, d)), np.zeros((1, d)))
        elements = rng.normal(scale=10.0, size=(300, d))
        spec = SpectrumEnumeration.from_elements(s, elements)
        assert separation(spec) == brute_separation(elements)

    @pytest.mark.parametrize("d", [2, 3])
    def test_sweep_matches_brute_force(self, d, quad2d):
        # lattices, lines along each axis, a tiny-scale cloud and one far
        # from 0: every pair the sweep drops is provably no closer
        rng = np.random.default_rng(d)
        s = make_system(3.0 * np.eye(d), np.zeros((1, d)), np.zeros((1, d)))
        lattice = np.indices((7,) * d).reshape(d, -1).T * 0.5
        lines = [np.eye(d)[axis] * rng.normal(size=(60, 1)) for axis in range(d)]
        tiny = rng.integers(-4, 5, size=(200, d)) * 1e-160 + rng.normal(scale=1e-170, size=(200, d))
        far = 1e15 + rng.integers(0, 20, size=(200, d)) * 0.125
        for elements in [lattice, *lines, tiny, far]:
            spec = SpectrumEnumeration.from_elements(s, elements)
            assert separation(spec) == brute_separation(spec.elements)
        if d == 2:
            spec = enumerate_spectrum(quad2d, 4)
            assert separation(spec) == brute_separation(spec.elements) == 1.0
            # the dense lattice: every row has neighbours at distance 1 in all
            # directions, so every cell and each of its neighbours is full
            spec = enumerate_spectrum(dense_lattice(), 4)
            assert spec.size == 32**2
            assert separation(spec) == brute_separation(spec.elements) == 1.0
            shifted = spec.elements * 0.375 + rng.normal(scale=1e-3, size=spec.elements.shape)
            spec = SpectrumEnumeration.from_elements(s, shifted)
            assert separation(spec) == brute_separation(spec.elements)

    @pytest.mark.parametrize(
        "elements, expected",
        [
            ([[0, 0], [1e-170, 0], [0, 3e-170]], 1e-170),  # the squares underflow to 0
            ([[0, 0], [1e-160, 1e-160]], 1.414213562373095e-160),  # to subnormals
            ([[0, 0], [1e200, 0], [0, 3e200]], 1e200),  # the squares overflow
        ],
    )
    def test_squares_scaled_into_range(self, elements, expected):
        s = make_system(3.0 * np.eye(2), np.zeros((1, 2)), np.zeros((1, 2)))
        spec = SpectrumEnumeration.from_elements(s, elements)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert separation(spec) == brute_separation(spec.elements) == expected

    def test_dense_lattice_is_linear(self):
        # 262,144 rows filling the integer square [0, 511]^2: a strip of the
        # separation's width holds about 512 of them, a cell at most 4
        spec = enumerate_spectrum(dense_lattice(), 8)
        assert spec.size == 512**2
        elapsed = []
        for _ in range(2):
            start = time.perf_counter()
            assert separation(spec) == 1.0
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 1.0  # about 0.2 s on 2 cores; the strip sweep took 3-4 s

    def test_cantor4_depth_two(self, cantor4):
        assert separation(enumerate_spectrum(cantor4, 2)) == 1.0

    def test_two_elements(self, cantor4):
        spec = SpectrumEnumeration.from_elements(cantor4, [[0.0], [1.0]])
        assert separation(spec) == 1.0

    def test_scaled_depth_one(self, cantor4):
        assert separation(enumerate_spectrum(scale_system(cantor4, 2), 1)) == 1.0

    def test_nonincreasing_in_depth(self, cantor4):
        values = [
            separation(enumerate_spectrum(cantor4, depth)) for depth in range(4)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_hand_built_repeats_dropped(self, cantor4, cantor4_measure):
        spec = SpectrumEnumeration.from_elements(cantor4, [[1.0], [0.0], [0.0]])
        assert spec.size == 2
        assert np.array_equal(spec.elements, [[0.0], [1.0]])
        assert q_partial(cantor4_measure, spec, [0.0]) == 1.0
        assert separation(spec) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hand_built_non_finite_refused(self, cantor4, bad):
        with pytest.raises(ValidationError, match="NaN or Inf"):
            SpectrumEnumeration.from_elements(cantor4, [[bad], [0.0], [bad]])

    def test_needs_two(self, cantor4):
        spec = SpectrumEnumeration.from_elements(cantor4, [[0.0]])
        with pytest.raises(ValidationError):
            separation(spec)


class TestOrthogonality:
    def test_cantor4_depth_two_exact(self, cantor4_measure, cantor4):
        max_off, table = orthogonality_matrix(
            cantor4_measure, enumerate_spectrum(cantor4, 2)
        )
        assert max_off == 0.0
        assert table.shape == (8, 8)
        assert np.all(np.diag(table) == 1.0)

    def test_singleton_vacuous(self, cantor4_measure, cantor4):
        spec = SpectrumEnumeration.from_elements(cantor4, [[0.0]])
        max_off, _ = orthogonality_matrix(cantor4_measure, spec)
        assert max_off == 0.0

    def test_odd_scale_pair_not_orthogonal(self, odd3, odd3_measure):
        spec = SpectrumEnumeration.from_elements(odd3, [[0.0], [1.0], [2.0]])
        max_off, table = orthogonality_matrix(odd3_measure, spec)
        # independent oracle: |mu-hat(2)| = prod |cos(pi 2 / (2 3^k))|
        oracle = np.prod([abs(np.cos(np.pi * 2 / (2 * 3.0**k))) for k in range(40)])
        assert table[0, 2] > 0.05
        assert table[0, 2] == pytest.approx(oracle, abs=1e-9)
        assert max_off > 0.05

    @pytest.mark.parametrize(
        "name, depth",
        [
            ("cantor4", 7),
            ("cantor4", 8),
            ("quad2d", 3),
            ("triple3", 3),
            ("triple5", 2),
            ("negative3", 4),
            ("shear", 3),
            ("negative_rows", None),
        ],
    )
    def test_matches_full_difference_route(self, name, depth, request):
        # the mirrored table against every one of the n^2 differences
        built = {
            "triple3": lambda: hadamard_triple(3, 2, [1, 0]),
            "triple5": lambda: hadamard_triple(5, 3, [0, 1, 1, 0]),
            "negative3": lambda: make_system(-3.0, *THIRDS),
            "shear": shear,
            "negative_rows": lambda: request.getfixturevalue("quad2d"),
        }
        sys = built.get(name, lambda: request.getfixturevalue(name))()
        m = FractalMeasure(sys)
        if depth is None:  # negative rows off every lattice, some exactly a quarter apart
            rng = np.random.default_rng(33)
            rows = -rng.integers(1, 160, size=(200, 2)) / 4.0 - np.array([1 / 3, 1 / 7])
            rows[:40] += rng.uniform(-0.1, 0.1, size=(40, 2))
            spec = SpectrumEnumeration.from_elements(sys, rows)
        else:
            spec = enumerate_spectrum(sys, depth)
        max_off, table = orthogonality_matrix(m, spec)
        expected_off, expected = full_difference_table(m, spec)
        assert np.array_equal(table.view(np.int64), expected.view(np.int64))
        assert np.float64(max_off).view(np.int64) == np.float64(expected_off).view(np.int64)
        if name.startswith("triple"):  # N = 3, 5: the zeros are rounded, not exact
            assert 0.0 < max_off < 1e-12

    def test_traced_peak_is_a_few_tables(self, cantor4, cantor4_measure):
        # depth 8: 512^2 differences (2 MB as floats) of 3^9 distinct values
        spec = enumerate_spectrum(cantor4, 8)
        tracemalloc.start()
        try:
            orthogonality_matrix(cantor4_measure, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n(n-1)/2 differences i < j, their sorted bits, order and
        # inverse, and the table: 5.7 MB; all n^2 differences with an inverse
        # by binary search took 6.7 MB, their complex values and tails 14.4 MB
        assert peak <= 6.3e6

    @settings(max_examples=80, deadline=None)
    @given(sys=mirror_systems, data=st.data())
    def test_abs_is_even_bit_for_bit(self, sys, data):
        # the mirror step: |mu-hat(0.0 - t)| has the bits of |mu-hat(t)|
        T = data.draw(mirror_points(sys.d))
        m = FractalMeasure(sys)
        mirrored = np.abs(fourier_mu_many(m, 0.0 - T)[0])
        direct = np.abs(fourier_mu_many(m, T)[0])
        assert np.array_equal(mirrored.view(np.int64), direct.view(np.int64))


class TestQPartial:
    def test_equals_one_on_spectrum(self, cantor4, cantor4_measure):
        spec = enumerate_spectrum(cantor4, 2)
        for lam in spec.elements:
            assert q_partial(cantor4_measure, spec, lam) == 1.0

    def test_trivial_singleton(self, cantor4, cantor4_measure):
        spec = SpectrumEnumeration.from_elements(cantor4, [[0.0]])
        assert q_partial(cantor4_measure, spec, [0.0]) == 1.0

    def test_monotone_in_depth(self, cantor4, cantor4_measure):
        values = [
            q_partial(cantor4_measure, enumerate_spectrum(cantor4, n), [0.5])
            for n in range(6)
        ]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] <= 1.0 + 1e-9

    def test_bessel_bound_on_grid(self, cantor4, cantor4_measure):
        spec = enumerate_spectrum(cantor4, 4)
        values = q_partial_many(cantor4_measure, spec, grid1d(0.0, 1.0, 0.01))
        assert np.all(values <= 1.0 + 1e-9)


class TestCompletenessScan:
    @pytest.mark.parametrize(
        "grid, named",
        [
            ([[0.5], [1e160], [3e159], [2.0]], 1e160),  # the largest point
            ([[-3e159], [1e160], [0.0]], 1e160),
            ([[2.0], [-1e160], [1e160]], -1e160),  # equal |t|: the first
            ([[0.5]] * 35000 + [[1e200], [0.25]], 1e200),  # in the second grid block
        ],
    )
    def test_tree_error_names_the_grid_point(self, cantor4, cantor4_measure, grid, named):
        spec = enumerate_spectrum(cantor4, 2)
        with pytest.raises(ConvergenceError) as info:
            completeness_scan(cantor4_measure, spec, grid, target=0.99, max_depth=2)
        assert str(info.value).endswith(f" for grid point t = {[named]}")

    def test_direct_sum_error_names_the_grid_point(self, odd3, odd3_measure):
        # R = 3 is not integral here: Q is summed over the frequencies
        spec = enumerate_spectrum(odd3, 1)
        grid = [[0.5], [-2.0], [1e200], [0.25]]
        with pytest.raises(ConvergenceError) as info:
            completeness_scan(odd3_measure, spec, grid, target=0.99, max_depth=1)
        assert str(info.value).endswith(" for grid point t = [1e+200]")
        # t - lam is rounded to t itself, the norm the error quotes
        assert "(|t| = 1e+200)" in str(info.value)

    def test_two_dimensional_error_names_the_grid_point(self, quad2d):
        m = FractalMeasure(quad2d)
        spec = enumerate_spectrum(quad2d, 1)
        # the second point has the larger Euclidean norm, the first the larger entry
        grid = [[1.1e160, 0.0], [1e160, 1e160], [0.5, 0.5]]
        with pytest.raises(ConvergenceError) as info:
            completeness_scan(m, spec, grid, target=0.99, max_depth=1)
        assert str(info.value).endswith(" for grid point t = [1e+160, 1e+160]")

    def test_cantor4_complete_evidence(self, cantor4, cantor4_measure):
        report = completeness_scan(
            cantor4_measure,
            enumerate_spectrum(cantor4, 2),
            grid1d(0.0, 1.0, 0.01),
            target=0.99,
        )
        assert report.status == "complete-evidence"
        assert report.converged
        assert report.min_Q >= 0.99
        assert report.max_Q <= 1.0 + 1e-9
        # increments genuinely shrank below the threshold
        assert abs(report.min_trace[-1] - report.min_trace[-2]) < 1e-4

    def test_incompatible_system_is_never_complete_evidence(self):
        # R = 3, B = {0, 1/2}: the enumerated exponentials are not orthogonal
        # and Q breaks the Bessel bound of 1
        sys = make_system(3.0, [0.0, 0.5], [0.0, 1.0])
        report = completeness_scan(
            FractalMeasure(sys), enumerate_spectrum(sys, 2), grid1d(0.0, 1.0, 0.05), 0.99
        )
        assert report.min_Q > 1.0
        assert report.status == "inconclusive"

    def test_single_exponential_never_spans(self, cantor4, cantor4_measure):
        # a hand-built set cannot be deepened: the scan refuses it, and
        # q_partial_many sums it as a fixed set
        spec = SpectrumEnumeration.from_elements(cantor4, [[0.0]])
        with pytest.raises(ValidationError, match="q_partial_many"):
            completeness_scan(cantor4_measure, spec, grid1d(0.0, 1.0, 0.01), target=0.99)
        assert q_partial_many(cantor4_measure, spec, grid1d(0.0, 1.0, 0.01)).min() < 0.99

    def test_hand_built_set_is_never_complete_evidence(self, cantor4, cantor4_measure):
        # the integers are no orthogonal set for cantor4, so Q breaks the
        # Bessel bound of 1; the scan refuses the set either way
        spec = SpectrumEnumeration.from_elements(cantor4, np.arange(-200.0, 201.0))
        with pytest.raises(ValidationError, match="q_partial_many"):
            completeness_scan(cantor4_measure, spec, grid1d(0.0, 1.0, 0.05), 0.99)
        assert q_partial_many(cantor4_measure, spec, grid1d(0.0, 1.0, 0.05)).min() > 1.0

    @settings(max_examples=25, deadline=None)
    @given(sys=generated_triples, depth=st.integers(0, 4))
    def test_tree_gate_words_have_distinct_sums(self, sys, depth):
        # the tree gate's argument: the digit matrix is unitary, so no two
        # of the N^(depth+1) words share a sum
        assert enumerate_spectrum(sys, depth).size == sys.n_digits ** (depth + 1)

    def test_grid_containing_only_spectrum_points(self, cantor4, cantor4_measure):
        report = completeness_scan(
            cantor4_measure,
            enumerate_spectrum(cantor4, 0),
            np.array([[0.0]]),
            target=0.99,
        )
        # Q is a certified lower bound: the exact value 1 less at most q_error
        assert 1.0 - report.q_error <= report.min_Q <= 1.0
        assert report.status == "complete-evidence"

    def test_inconclusive_when_budget_runs_out(self, cantor4, cantor4_measure, monkeypatch):
        spec = enumerate_spectrum(cantor4, 2)
        monkeypatch.setattr(spectrum, "DEFAULT_WORD_BUDGET", 8)  # depth 2 only
        report = completeness_scan(  # cannot deepen, cannot converge
            cantor4_measure, spec, grid1d(0.0, 1.0, 0.05), target=1.0 - 1e-12
        )
        assert report.status == "inconclusive"
        assert not report.converged

    @pytest.mark.parametrize(
        "limit",
        [
            {"budget": 8},  # the starting depth 3 already needs 2**4 words
            {"max_depth": 2},  # below the starting depth: no depth in range
        ],
    )
    def test_nothing_evaluated_is_inconclusive(self, cantor4, cantor4_measure, limit, monkeypatch):
        spec = enumerate_spectrum(cantor4, 3)
        budget = limit.get("budget", spectrum.DEFAULT_WORD_BUDGET)
        monkeypatch.setattr(spectrum, "DEFAULT_WORD_BUDGET", budget)
        report = completeness_scan(
            cantor4_measure, spec, grid1d(0.0, 1.0, 0.1), 0.99, max_depth=limit.get("max_depth")
        )
        assert report.depths == ()
        assert report.status == "inconclusive"
        assert not report.converged
        assert report.min_Q is None and report.max_Q is None and report.argmin is None
        assert report.Q.size == 0

    @pytest.mark.parametrize("depth", [0, 1])
    def test_stop_below_target_without_witness_is_inconclusive(self, depth):
        # R = 4, L = {0, 13} is a spectrum, yet Q is exactly 0 at t = 1 at
        # depths 1 and 2: min Q stalls, but t = 1 is no cycle point
        sys = make_system(4.0, [0.0, 0.5], [0.0, 13.0])
        report = completeness_scan(
            FractalMeasure(sys), enumerate_spectrum(sys, depth), grid1d(0.0, 1.0, 0.01), 0.99
        )
        assert report.converged and report.min_trace[-2:] == (0.0, 0.0)
        assert report.argmin.tolist() == [1.0]
        assert report.status == "inconclusive"

    @pytest.mark.parametrize(
        "p, t, status",
        [
            (15, -4.0, "incomplete-evidence"),  # on the cycle {-4, -1}
            (15, -5.0, "incomplete-evidence"),  # the fixed point -5
            (15, -16.0, "incomplete-evidence"),  # -16 -> -4 enters the cycle, Q(-16) = Q(-4)
        ],
    )
    def test_witness_must_lie_on_a_cycle(self, p, t, status):
        sys = make_system(4.0, [0.0, 0.5], [0.0, float(p)])
        report = completeness_scan(
            FractalMeasure(sys), enumerate_spectrum(sys, 1), np.array([[t], [0.5]]), 0.99
        )
        assert report.converged and report.Q[0] == 0.0
        assert report.status == status

    @pytest.mark.parametrize(
        "p, c, on_cycle",
        [
            (13, 1.0, False),  # 1 -> -3 -> -4 -> -1 -> -7/2, where the walk dies
            (13, -3.0, False),
            (3, -1.0, True),
            (15, -5.0, True),
            (15, -4.0, True),
            (15, -1.0, True),
            (15, -16.0, True),  # pre-periodic: weight-1 steps into the cycle at -4
            (3, 0.0, False),  # the trivial cycle is no witness
        ],
    )
    def test_cycle_walk(self, p, c, on_cycle):
        sys = make_system(4.0, [0.0, 0.5], [0.0, float(p)])
        assert spectrum._reaches_cycle(sys, np.array([c])) is on_cycle

    def test_cycle_walk_in_two_dimensions(self):
        # the product of two R = 4, L = {0, 3} factors: -1 is a cycle point
        # of each factor and 0 the trivial one
        sys = make_system(
            [[4.0, 0.0], [0.0, 4.0]],
            [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
            [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]],
        )
        for c, on_cycle in [([-1.0, -1.0], True), ([-1.0, 0.0], True), ([0.5, -1.0], False)]:
            assert spectrum._reaches_cycle(sys, np.array(c)) is on_cycle

    def test_cycle_walk_gives_up_after_its_steps(self, monkeypatch):
        # -16 -> -4 -> -1 -> -4 repeats a point at the third step
        sys = make_system(4.0, [0.0, 0.5], [0.0, 15.0])
        monkeypatch.setattr(spectrum, "CYCLE_WALK_STEPS", 2)
        assert spectrum._reaches_cycle(sys, np.array([-16.0])) is False
        monkeypatch.setattr(spectrum, "CYCLE_WALK_STEPS", 3)
        assert spectrum._reaches_cycle(sys, np.array([-16.0])) is True

    def test_direct_sum_stops_where_word_sums_reach_2_53(self):
        # 0 is not in L, so the scan sums directly; the depth-8 sums of
        # R = 100 may reach 2.02e16 >= 2^53, and an increment_tol of 0
        # never converges first
        sys = make_system(100.0, [0.0, 0.5], [1.0, 2.0])
        with pytest.raises(BudgetError, match="2\\^53"):
            enumerate_spectrum(sys, 8)
        report = completeness_scan(
            FractalMeasure(sys), enumerate_spectrum(sys, 1), grid1d(0.0, 1.0, 0.5), 0.99,
            increment_tol=0.0,
        )
        assert report.depths == tuple(range(1, 8)) and not report.converged
        # min Q is one-sided evidence, kept at a stop on the bound
        assert report.min_Q >= 0.99 and report.status == "complete-evidence"

    def test_spectrum_of_another_system_rejected(self):
        # deepening enumerates the measure's own set, so a spectrum of
        # R = 4, L = {0, 3} scanned against cantor4 would read cantor4's Q
        other = make_system(4.0, [0.0, 0.5], [0.0, 3.0])
        m = FractalMeasure(make_system(4.0, [0.0, 0.5], [0.0, 1.0]))
        with pytest.raises(ValidationError, match="another system"):
            completeness_scan(m, enumerate_spectrum(other, 2), grid1d(-1.0, 1.0, 0.05), 0.99)
        # the same set, hand-built, cannot be deepened either
        fixed = SpectrumEnumeration.from_elements(other, enumerate_spectrum(other, 2).elements)
        with pytest.raises(ValidationError, match="hand-built"):
            completeness_scan(m, fixed, grid1d(-1.0, 1.0, 0.05), 0.99)
        # an equal system built separately is the same system
        twin = make_system(4.0, [0.0, 0.5], [0.0, 1.0])
        report = completeness_scan(m, enumerate_spectrum(twin, 2), grid1d(0.0, 1.0, 0.05), 0.99)
        assert report.status == "complete-evidence"

    def test_empty_grid_rejected(self, cantor4, cantor4_measure):
        with pytest.raises(ValidationError):
            completeness_scan(
                cantor4_measure,
                enumerate_spectrum(cantor4, 1),
                np.empty((0, 1)),
                target=0.99,
            )


def summed_sizes(monkeypatch):
    """Record the number of frequencies of each q_partial_many call."""
    sizes = []

    def spy(m, spec, T):
        sizes.append(spec.size)
        return q_partial_many(m, spec, T)

    monkeypatch.setattr(spectrum, "q_partial_many", spy)
    return sizes


# Q from the tree lies within 2 q_error below the exact value; SLACK covers
# the rounding of the walk and of the reference (measured: about 1e-16)
SLACK = 2e-14


def assert_certified_lower_bound(report, exact):
    assert 0.0 <= report.q_error <= 1e-10
    assert np.all(report.Q >= exact - 2.0 * report.q_error - SLACK)
    assert np.all(report.Q <= exact + SLACK)


def extended_q(sys, depth, grid, factors=96):
    """Q_depth on a 1-D dyadic system, summed directly in extended precision.

    q_partial_many rounds t - lam in double precision, which moves Q by up
    to about 1e-12 once |lam| reaches 1e5; here every phase b (t - lam) /
    R^k is formed and reduced mod 1 exactly in long double arithmetic.
    """
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    lam = enumerate_spectrum(sys, depth).elements[:, 0].astype(np.longdouble)
    x = grid[:, :1].astype(np.longdouble) - lam
    value = np.ones(x.shape, dtype=np.clongdouble)
    for _ in range(factors):
        mask = np.zeros(x.shape, dtype=np.clongdouble)
        for b in sys.B[:, 0].astype(np.longdouble):
            phase = b * x
            phase -= np.round(phase)
            mask += np.cos(two_pi * phase) - 1j * np.sin(two_pi * phase)
        value *= mask / sys.n_digits
        x = x / np.longdouble(sys.R[0, 0])
    return (np.abs(value) ** 2).sum(axis=1).astype(float)


class TestIncrementalScan:
    @pytest.fixture(params=["cantor4", "quad2d"])
    def case(self, request):
        sys = request.getfixturevalue(request.param)
        if sys.d == 1:
            return sys, grid1d(0.0, 1.0, 0.01), 2, None
        axis = np.arange(0.0, 1.05, 0.1)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        return sys, grid, 1, 3

    def scan(self, sys, grid, depth, max_depth):
        m = FractalMeasure(sys)
        return completeness_scan(
            m, enumerate_spectrum(sys, depth), grid, target=0.99, max_depth=max_depth
        )

    def test_matches_full_resum(self, case):
        report = self.scan(*case)
        assert len(report.depths) >= 3
        assert report.status == "complete-evidence" and report.q_error > 0.0
        m, grid = FractalMeasure(case[0]), case[1]
        exact = q_partial_many(m, enumerate_spectrum(m.sys, report.depths[-1]), grid)
        assert_certified_lower_bound(report, exact)

    @settings(max_examples=25, deadline=None)
    @given(params=triple_params, depth=st.integers(0, 2))
    @example(params=(2, 2, [1, 0, 0]), depth=2)  # R = 4, L = {0, 3}: not spectral
    def test_tree_is_a_certified_lower_bound(self, params, depth):
        sys = hadamard_triple(*params)
        m = FractalMeasure(sys)
        grid = grid1d(-1.0, 1.0, 0.1)
        report = completeness_scan(
            m, enumerate_spectrum(sys, depth), grid, 0.99, max_depth=depth + 1
        )
        assert report.depths == tuple(range(depth, depth + len(report.depths)))
        if params[0] == 3:  # the float 1/3 is not exactly compatible: summed directly
            assert report.q_error == 0.0
        else:
            assert report.q_error > 0.0
            assert_certified_lower_bound(report, extended_q(sys, report.depths[-1], grid))

    @settings(max_examples=10, deadline=None)
    @given(
        x=st.floats(-1.0, 1.0),
        y=st.floats(-1.0, 1.0),
        depth=st.integers(0, 1),
    )
    def test_quad2d_tree_is_a_certified_lower_bound(self, quad2d, x, y, depth):
        m = FractalMeasure(quad2d)
        axis = np.arange(0.0, 0.55, 0.25)
        grid = np.stack(np.meshgrid(axis + x, axis + y, indexing="ij"), axis=-1).reshape(-1, 2)
        report = completeness_scan(
            m, enumerate_spectrum(quad2d, depth), grid, 0.99, max_depth=depth + 2
        )
        assert report.q_error > 0.0
        # R = 4 and dyadic digits: the direct sum is accurate to about 1e-16 here
        exact = q_partial_many(m, enumerate_spectrum(quad2d, report.depths[-1]), grid)
        assert_certified_lower_bound(report, exact)

    def test_non_spectral_witness_stays_zero(self):
        # t = -1 is an m_B-cycle point of R = 4, L = {0, 3}: Q(-1) = 0 exactly
        sys = hadamard_triple(2, 2, [1])
        report = completeness_scan(
            FractalMeasure(sys), enumerate_spectrum(sys, 2), np.array([[-1.0], [0.5]]), 0.99
        )
        assert report.Q[0] == 0.0
        assert report.min_Q == 0.0 and report.status == "incomplete-evidence"

    def test_words_of_one_grid_point_split(self, cantor4, monkeypatch):
        # Q_BLOCK = 64 keeps six levels of a one-point cantor4 tree, so the
        # deeper levels split that point's words into blocks
        m = FractalMeasure(cantor4)
        grid = np.array([[0.3]])
        depths = range(6, 10)
        default = spectrum._WordTree(m, grid, depths[0])
        expected = [default.q(depth) for depth in depths]
        split = []
        sums = spectrum._WordTree._sums

        def counting(tree, pts, w, levels, leaf, grid):
            split.append(w.shape[0] == 1 and w.size * tree.n > spectrum.Q_BLOCK and levels > 0)
            return sums(tree, pts, w, levels, leaf, grid)

        monkeypatch.setattr(spectrum._WordTree, "_sums", counting)
        monkeypatch.setattr(spectrum, "Q_BLOCK", 64)
        tree = spectrum._WordTree(m, grid, depths[0])
        for depth, (q_default, error) in zip(depths, expected):
            q, q_error = tree.q(depth)
            assert q_error == error > 0.0
            assert q == pytest.approx(q_default, rel=0.0, abs=SLACK)
            exact = q_partial_many(m, enumerate_spectrum(cantor4, depth), grid)
            assert np.abs(q - exact) <= q_error + SLACK
        assert tree.level == 6 and any(split)

    def test_tree_without_a_leaf_table(self, cantor4, monkeypatch):
        # no point count in TABLE_POINTS: every leaf takes the product
        monkeypatch.setattr(spectrum, "TABLE_POINTS", (4, 4))
        m = FractalMeasure(cantor4)
        grid = grid1d(0.0, 1.0, 0.1)
        assert spectrum._WordTree(m, grid, 2).table is None
        report = completeness_scan(m, enumerate_spectrum(cantor4, 2), grid, 0.99, max_depth=5)
        assert report.depths[-1] > 2 and report.q_error == spectrum._direct_leaf(m)[1]
        exact = q_partial_many(m, enumerate_spectrum(cantor4, report.depths[-1]), grid)
        assert_certified_lower_bound(report, exact)

    def test_tree_without_an_invariant_box(self, cantor4, monkeypatch):
        # no box is grown, so there is no leaf box: every leaf takes the product
        m = FractalMeasure(cantor4)
        grid = grid1d(0.0, 1.0, 0.1)
        spec = enumerate_spectrum(cantor4, 2)
        tabled = completeness_scan(m, spec, grid, 0.99, max_depth=5)
        monkeypatch.setattr(systems, "HULL_MAX_EXPAND", 0)
        assert spectrum._leaf_table(m, grid, 2) is None
        report = completeness_scan(m, spec, grid, 0.99, max_depth=5)
        assert report.q_error == spectrum._direct_leaf(m)[1] != tabled.q_error
        assert report.depths == tabled.depths
        exact = q_partial_many(m, enumerate_spectrum(cantor4, report.depths[-1]), grid)
        assert_certified_lower_bound(report, exact)

    def test_overflowing_interpolation_bound_is_inf(self, cantor4):
        # a box 1e16 wide: the bound's exponent passes the float range
        bound = spectrum._interpolation_bound(cantor4, np.array([[0.0, 1e16]]), np.array([8, 64]))
        assert np.all(bound == np.inf)
        assert spectrum._table_points(cantor4, np.array([[0.0, 1e16]])) is None

    @pytest.mark.parametrize("name", ["cantor4", "quad2d", "even2"])
    def test_leaf_table_error_bound(self, name, request):
        sys = request.getfixturevalue(name)
        grid = np.zeros((1, sys.d)) if sys.d > 1 else grid1d(0.0, 1.0, 0.5)
        box = spectrum._leaf_box(sys, grid, 1)
        table = spectrum._LeafTable(FractalMeasure(sys), box, spectrum._table_points(sys, box))
        assert table.error <= 1e-11
        rng = np.random.default_rng(7)
        pts = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.uniform(size=(2000, sys.d))
        pts = np.concatenate([pts, box.T])  # two opposite corners
        fine = FractalMeasure(sys, product_tail_tol=1e-15)
        direct = np.abs(fourier_mu_many(fine, pts)[0]) ** 2
        assert np.max(np.abs(table(pts) - direct)) <= table.error

    @pytest.mark.parametrize(
        "B, L",
        [
            ([0.0, 0.5], [1.0, 2.0]),  # 0 not in L: the sets are not nested
            ([0.0, 1.5], [0.0, 1.0 / 3.0]),  # non-integral frequencies
        ],
    )
    def test_resums_when_not_nested_or_not_integral(self, B, L, monkeypatch):
        sys = make_system(4.0, B, L)
        sizes = summed_sizes(monkeypatch)
        report = completeness_scan(
            FractalMeasure(sys), enumerate_spectrum(sys, 1), grid1d(0.0, 1.0, 0.05), 0.99,
            max_depth=4,
        )
        assert len(report.depths) >= 2
        assert sizes == [enumerate_spectrum(sys, d).size for d in report.depths]

    def test_report_carries_final_q(self, case):
        report = self.scan(*case)
        assert report.Q.shape == (case[1].shape[0],)
        assert report.Q.min() == report.min_Q
        assert report.Q.max() == report.max_Q
        assert not report.Q.flags.writeable
        assert "Q" not in json.loads(render_json(report))

    @settings(max_examples=15, deadline=None)
    @given(params=triple_params)
    def test_q_never_decreases_with_depth(self, params):
        sys = hadamard_triple(*params)
        m = FractalMeasure(sys)
        grid = grid1d(-1.0, 1.0, 0.1)
        previous = np.zeros(grid.shape[0])
        for top in range(0, 3):
            report = completeness_scan(
                m, enumerate_spectrum(sys, 0), grid, 0.99, increment_tol=0.0, max_depth=top
            )
            assert report.depths == tuple(range(top + 1))
            assert np.all(np.diff(report.min_trace) >= 0.0)
            assert np.all(report.Q >= previous)
            assert report.max_Q <= 1.0 + 1e-9  # Bessel
            previous = report.Q
