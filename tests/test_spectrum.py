import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalspec import (
    BudgetError,
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
from fractalspec import spectrum
from fractalspec.reports import render_json
from fractalspec.spectrum import DEDUP_TOL, _dedup_near
from tests.conftest import grid1d, hadamard_triple, triple_params


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


def brute_separation(elements):
    el = np.asarray(elements, dtype=float)
    dist = np.sqrt(((el[:, None, :] - el[None, :, :]) ** 2).sum(axis=2))
    return dist[np.triu_indices(len(el), 1)].min()


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

    def test_blocked_rows(self, monkeypatch, quad2d):
        import fractalspec.spectrum as spectrum

        spec = enumerate_spectrum(quad2d, 2)
        expected = separation(spec)
        monkeypatch.setattr(spectrum, "SEPARATION_BLOCK_ELEMS", 100)
        assert separation(spec) == expected

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
        spec = SpectrumEnumeration.from_elements(cantor4, [[0.0]])
        report = completeness_scan(
            cantor4_measure, spec, grid1d(0.0, 1.0, 0.01), target=0.99
        )
        assert report.min_Q < 0.99
        assert report.status == "incomplete-evidence"

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

    def test_inconclusive_when_budget_runs_out(self, cantor4, cantor4_measure):
        report = completeness_scan(
            cantor4_measure,
            enumerate_spectrum(cantor4, 2),
            grid1d(0.0, 1.0, 0.05),
            target=1.0 - 1e-12,
            budget=8,  # depth 2 only; cannot deepen, cannot converge
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
    def test_nothing_evaluated_is_inconclusive(self, cantor4, cantor4_measure, limit):
        report = completeness_scan(
            cantor4_measure,
            enumerate_spectrum(cantor4, 3),
            grid1d(0.0, 1.0, 0.1),
            0.99,
            **limit,
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

    def test_spectrum_of_another_system_rejected(self):
        # deepening enumerates the measure's own set, so a spectrum of
        # R = 4, L = {0, 3} scanned against cantor4 would read cantor4's Q
        other = make_system(4.0, [0.0, 0.5], [0.0, 3.0])
        m = FractalMeasure(make_system(4.0, [0.0, 0.5], [0.0, 1.0]))
        with pytest.raises(ValidationError, match="another system"):
            completeness_scan(m, enumerate_spectrum(other, 2), grid1d(-1.0, 1.0, 0.05), 0.99)
        # the same set, hand-built, is a fixed set of frequencies and stays allowed
        fixed = SpectrumEnumeration.from_elements(other, enumerate_spectrum(other, 2).elements)
        assert completeness_scan(m, fixed, grid1d(-1.0, 1.0, 0.05), 0.99).depths == (-1,)
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
