import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalspec import (
    ConvergenceError,
    DomainError,
    FractalMeasure,
    GridFunction,
    ValidationError,
    apply_ruelle,
    attractor_hull,
    basis_certificate,
    contraction_probe,
    enumerate_spectrum,
    estimate_gamma,
    lipschitz_norm,
    make_system,
    q_partial_many,
)
from fractalspec._numeric import sinpi
from fractalspec.ruelle import _sup_norm, check_box_invariance, probe_ratio


@pytest.fixture(scope="module")
def hull(cantor4):
    return attractor_hull(cantor4)


def grid_fn(box, n, fn):
    return GridFunction.from_callable(box, (n,), fn)


class TestAttractorHull:
    def test_cantor4_interval(self, hull):
        # attractor is -sum 4^-k l_k over k >= 1: the interval [-1/3, 0]
        lo, hi = hull[0]
        assert lo <= -1.0 / 3.0 <= lo + 1e-6
        assert 0.0 <= hi <= 1e-6

    def test_zero_frequency_degenerate(self):
        s = make_system(4.0, [0.0], [0.0])
        box = attractor_hull(s)
        assert abs(box[0, 0]) <= 1e-6 and abs(box[0, 1]) <= 1e-6

    def test_forward_invariance_on_corners(self, cantor4, hull, quad2d):
        assert check_box_invariance(cantor4, hull) <= 1e-9
        assert check_box_invariance(quad2d, attractor_hull(quad2d)) <= 1e-9

    def test_negative_scale(self):
        s = make_system(-4.0, [0.0, 0.5], [0.0, 1.0])
        box = attractor_hull(s)
        assert check_box_invariance(s, box) <= 1e-9

    def test_no_decay_raises(self):
        # R = 1 is not expansive: rejected before the tails are read
        s = make_system(1.0, [0.0, 0.5], [0.0, 1.0])
        with pytest.raises(ValidationError, match=r"^R is not expansive \(min eigenvalue modulus 1\)$"):
            attractor_hull(s)

    def test_slow_decay_raises(self):
        # expansive, but the tail radius is still ~8 after the last level
        s = make_system(1.01, [0.0, 0.5], [0.0, 1.0])
        with pytest.raises(ConvergenceError, match="after 255 levels"):
            attractor_hull(s)

    @pytest.mark.parametrize(
        "R, modulus",
        [(0.01, "0.01"), (0.5, "0.5"), (np.eye(2) / 100, "0.01"), ([[4.0, 0.0], [0.0, 0.5]], "0.5")],
    )
    def test_contracting_R_rejected(self, R, modulus):
        d = np.atleast_2d(R).shape[0]
        s = make_system(R, np.zeros((1, d)), np.zeros((1, d)))
        message = f"R is not expansive (min eigenvalue modulus {modulus})"
        with pytest.raises(ValidationError) as hull_error:
            attractor_hull(s)
        with pytest.raises(ValidationError) as measure_error:
            FractalMeasure(s)
        assert str(hull_error.value) == str(measure_error.value) == message


class TestApplyRuelle:
    def test_fixes_constants(self, cantor4, hull):
        q = grid_fn(hull, 1024, lambda p: np.ones(len(p)))
        out = apply_ruelle(cantor4, q)
        assert np.max(np.abs(out.samples - 1.0)) < 1e-10

    def test_fixes_constants_2d(self, quad2d):
        box = attractor_hull(quad2d)
        q = GridFunction.from_callable(box, (65, 65), lambda p: np.ones(len(p)))
        out = apply_ruelle(quad2d, q)
        assert np.max(np.abs(out.samples - 1.0)) < 1e-10

    def test_zero_function(self, cantor4, hull):
        q = grid_fn(hull, 512, lambda p: np.zeros(len(p)))
        assert np.all(apply_ruelle(cantor4, q).samples == 0.0)

    def test_linearity(self, cantor4, hull):
        rng = np.random.default_rng(2)
        v1 = rng.normal(size=513)
        v2 = rng.normal(size=513)
        q1 = GridFunction(box=hull, samples=v1)
        q2 = GridFunction(box=hull, samples=v2)
        combo = GridFunction(box=hull, samples=3.0 * v1 - 2.0 * v2)
        lhs = apply_ruelle(cantor4, combo).samples
        rhs = 3.0 * apply_ruelle(cantor4, q1).samples - 2.0 * apply_ruelle(cantor4, q2).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_positivity(self, cantor4, hull):
        rng = np.random.default_rng(3)
        q = GridFunction(box=hull, samples=rng.uniform(0.0, 1.0, 513))
        assert np.all(apply_ruelle(cantor4, q).samples >= 0.0)

    def test_domain_error_on_small_box(self, cantor4):
        box = np.array([[-0.1, 0.0]])
        q = GridFunction.from_callable(box, (64,), lambda p: np.ones(len(p)))
        with pytest.raises(DomainError):
            apply_ruelle(cantor4, q)

    def test_maps_q_truncation_to_next_depth(self, cantor4, cantor4_measure, hull):
        # C Q_n = Q_{n+1} pointwise; grid interpolation is the only error
        def q_grid(depth):
            spec = enumerate_spectrum(cantor4, depth)
            return grid_fn(
                hull, 1025, lambda p: q_partial_many(cantor4_measure, spec, p)
            )

        for depth in (1, 2):
            lhs = apply_ruelle(cantor4, q_grid(depth)).samples
            rhs = q_grid(depth + 1).samples
            assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_q_fixed_point_defect_shrinks(self, cantor4, cantor4_measure, hull):
        defects = []
        for depth in (1, 2, 3):
            spec = enumerate_spectrum(cantor4, depth)
            q = grid_fn(
                hull, 1025, lambda p: q_partial_many(cantor4_measure, spec, p)
            )
            defects.append(np.max(np.abs(apply_ruelle(cantor4, q).samples - q.samples)))
        assert defects[0] > defects[1] > defects[2]

    def test_completeness_deficit_contracts_under_iteration(
        self, cantor4, cantor4_measure, hull
    ):
        # C maps 1 - Q_n to 1 - Q_{n+1}: sup norms must fall monotonically
        spec = enumerate_spectrum(cantor4, 2)
        q = grid_fn(
            hull, 1025, lambda p: 1.0 - q_partial_many(cantor4_measure, spec, p)
        )
        sups = [float(np.max(np.abs(q.samples)))]
        for _ in range(3):
            q = apply_ruelle(cantor4, q)
            sups.append(float(np.max(np.abs(q.samples))))
        assert all(b < a for a, b in zip(sups, sups[1:]))


class TestGridFunction:
    def test_rows_export(self, hull):
        q = grid_fn(hull, 5, lambda p: p[:, 0] ** 2)
        rows = q.rows()
        assert len(rows) == 5
        x, value = rows[2]
        assert value == pytest.approx(x**2)

    def test_interpolation_matches_linear_function(self, hull):
        q = grid_fn(hull, 257, lambda p: 3.0 * p[:, 0] + 1.0)
        pts = np.linspace(hull[0, 0], hull[0, 1], 101).reshape(-1, 1)
        assert np.allclose(q.interpolate(pts), 3.0 * pts[:, 0] + 1.0, atol=1e-12)

    def test_interpolation_outside_interval_raises(self, hull):
        q = grid_fn(hull, 33, lambda p: 3.0 * p[:, 0] + 1.0)
        lo, hi = hull[0]
        ends = np.array([[lo], [hi]])
        assert np.array_equal(q.interpolate(ends), q.samples[[0, -1]])
        for x in (lo - 1e-9, hi + 1e-9):
            with pytest.raises(DomainError):
                q.interpolate([[x]])


def multilinear(p):
    # affine in each coordinate separately, so multilinear interpolation is exact
    value = 1.0 + 2.0 * p[:, 0] - 3.0 * p[:, 1] + p[:, 0] * p[:, 1]
    if p.shape[1] == 3:
        value = value + 0.5 * p[:, 2] - p[:, 0] * p[:, 1] * p[:, 2]
    return value


class TestMultilinearInterpolation:
    @pytest.fixture(params=[2, 3])
    def grid(self, request, quad2d):
        box = attractor_hull(quad2d)
        if request.param == 3:
            box = np.vstack([box, [[-0.5, 1.5]]])
        shape = (9, 17, 5)[: request.param]
        return GridFunction.from_callable(box, shape, multilinear)

    def test_interior_points(self, grid):
        rng = np.random.default_rng(3)
        lo, hi = grid.box[:, 0], grid.box[:, 1]
        pts = lo + rng.random((500, grid.d)) * (hi - lo)
        assert np.max(np.abs(grid.interpolate(pts) - multilinear(pts))) <= 1e-12

    def test_nodes(self, grid):
        nodes = grid.nodes()
        assert np.max(np.abs(grid.interpolate(nodes) - grid.samples.ravel())) <= 1e-12

    def test_box_faces(self, grid):
        rng = np.random.default_rng(4)
        lo, hi = grid.box[:, 0], grid.box[:, 1]
        pts = lo + rng.random((200, grid.d)) * (hi - lo)
        for axis in range(grid.d):
            for end in (lo, hi):
                face = pts.copy()
                face[:, axis] = end[axis]
                err = np.abs(grid.interpolate(face) - multilinear(face))
                assert np.max(err) <= 1e-12

    def test_outside_box_raises(self, grid):
        point = grid.box[:, 0].copy()
        point[-1] = grid.box[-1, 1] + 1e-6
        with pytest.raises(DomainError):
            grid.interpolate(point)

    def test_degenerate_axis(self):
        q = GridFunction.from_callable([[0.0, 1.0], [2.0, 2.0]], (5, 3), multilinear)
        pts = np.array([[0.3, 2.0], [1.0, 2.0]])
        assert np.max(np.abs(q.interpolate(pts) - multilinear(pts))) <= 1e-12


class TestSupNorm:
    def test_polish_between_nodes(self):
        box = np.array([[0.0, 1.0]])
        peak = 0.3 + 1.0 / 3.0 * 1e-3  # strictly between nodes of the 129-point grid

        def bump(pts):
            return 1.0 - (pts[:, 0] - peak) ** 2  # sup 1 at the peak

        grid_max = float(bump(np.linspace(0.0, 1.0, 129)[:, None]).max())
        assert grid_max < 1.0 - 1e-9
        polished = _sup_norm(bump, box, 129, refine=True)
        assert grid_max <= polished <= 1.0
        assert polished >= 1.0 - 1e-9
        assert _sup_norm(bump, box, 129, refine=False) == grid_max

    def test_polish_calls(self):
        calls = []

        def bump(pts):
            calls.append(len(pts))
            return np.cos(pts[:, 0] - 0.123456789)

        _sup_norm(bump, np.array([[-1.0, 1.0]]), 4097, refine=True)
        # grid, then a few 33-point zoom rounds from a 2-step bracket to 1e-12
        assert calls[0] == 4097
        assert 1 <= len(calls) - 1 <= 8


class TestLipschitzNorm:
    def test_constant(self, hull):
        q = grid_fn(hull, 256, lambda p: np.full(len(p), 2.5))
        assert lipschitz_norm(q) == 0.0

    def test_linear(self, hull):
        q = grid_fn(hull, 1025, lambda p: p[:, 0])
        assert lipschitz_norm(q) == pytest.approx(1.0, abs=1e-10)

    def test_sine(self, hull):
        q = grid_fn(hull, 1025, lambda p: np.sin(2 * np.pi * p[:, 0]))
        assert lipschitz_norm(q) == pytest.approx(2 * np.pi, rel=1e-4)

    def test_too_coarse(self, hull):
        q = grid_fn(hull, 2, lambda p: p[:, 0])
        with pytest.raises(ValidationError):
            lipschitz_norm(q)


class TestContractionBound:
    def test_cantor4_value(self, cantor4, hull):
        report = estimate_gamma(cantor4, hull)
        # independent evaluation: sup |sin(pi(y-l))| over [-1/3, 0] is sin(pi/3)
        exact = np.pi * np.sqrt(3.0) / 2.0 / 8.0 + 0.25
        assert report.gamma_bound < 1.0
        assert exact <= report.gamma_bound <= exact + 1e-12
        # assembled exactly from its own pieces
        assert report.gamma_bound == pytest.approx(
            report.beta / 8.0 + 0.25, rel=1e-15
        )
        assert report.beta <= np.pi

    def test_single_digit_degenerates_to_hs_norm(self):
        s = make_system(4.0, [0.0], [0.0])
        report = estimate_gamma(s, attractor_hull(s))
        assert report.beta == 0.0
        assert report.gamma_bound == report.hs_norm_inv == 0.25

    def test_rescaling_shrinks_bound(self, cantor4, hull):
        from fractalspec import scale_system

        g1 = estimate_gamma(cantor4, hull).gamma_bound
        scaled = scale_system(cantor4, 2)
        g2 = estimate_gamma(scaled, attractor_hull(scaled)).gamma_bound
        assert g2 < g1


# digit differences, frequencies and box corners: generic floats plus values
# that put the sine's peaks and zeros exactly on interval ends
_coord = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, 1.0 / 3.0, -0.75]),
)


@st.composite
def _gamma_case(draw):
    d = draw(st.sampled_from([1, 2]))
    vec = st.lists(_coord, min_size=d, max_size=d).map(np.array)
    delta = draw(vec.filter(lambda v: np.linalg.norm(v) > 1e-3))
    ls = draw(st.lists(vec, min_size=2, max_size=2).filter(lambda p: np.any(p[0] != p[1])))
    lo = draw(vec)
    width = draw(st.lists(st.floats(0.0, 1.5), min_size=d, max_size=d).map(np.array))
    sys = make_system(4.0 * np.eye(d), [np.zeros(d), delta], ls)
    return sys, np.stack([lo, lo + width], axis=1)


class TestClosedFormSup:
    @settings(max_examples=150, deadline=None)
    @given(_gamma_case())
    def test_brackets_dense_sampling(self, case):
        sys, box = case
        sup_sin = estimate_gamma(sys, box).sup_sin
        d = sys.d
        per_axis = 2049 if d == 1 else 129
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        delta = sys.B[1] - sys.B[0]
        dense = max(
            float(np.abs(sinpi(2.0 * ((pts - l) @ delta))).max()) for l in sys.L
        )
        # the sampling bound used before the closed form: dense max plus the
        # sine's Lipschitz constant times half a grid-cell diagonal
        half_diag = 0.5 * float(np.linalg.norm((box[:, 1] - box[:, 0]) / (per_axis - 1)))
        slack = 2.0 * np.pi * float(np.linalg.norm(delta)) * half_diag
        assert dense <= sup_sin <= 1.0
        # 1e-12 covers the upward rounding when the box is a single point
        assert sup_sin <= min(1.0, dense + slack) + 1e-12

        # a peak u in 1/4 + Z/2 strictly inside some interval forces exactly 1
        for l in sys.L:
            ends = delta[:, None] * box
            u_lo = ends.min(axis=1).sum() - l @ delta
            u_hi = ends.max(axis=1).sum() - l @ delta
            peak = 0.25 + 0.5 * np.ceil(2.0 * (u_lo + 1e-9) - 0.5)
            if peak < u_hi - 1e-9:
                assert sup_sin == 1.0


class TestContractionProbe:
    def test_linear_probe_attains_bound(self, cantor4, hull):
        report = estimate_gamma(cantor4, hull)
        ratio = probe_ratio(
            cantor4, hull, lambda p: p[:, 0], lambda p: np.ones_like(p)
        )
        assert ratio <= report.gamma_bound + 1e-6
        # the closed-form estimate is tight for q = t
        assert ratio == pytest.approx(np.pi * np.sqrt(3.0) / 16.0 + 0.25, abs=1e-6)

    def test_probe_homogeneity(self, cantor4, hull):
        r1 = probe_ratio(cantor4, hull, lambda p: p[:, 0], lambda p: np.ones_like(p))
        r2 = probe_ratio(
            cantor4, hull, lambda p: 2.0 * p[:, 0], lambda p: 2.0 * np.ones_like(p)
        )
        assert r1 == r2

    def test_random_probes_stay_below_bound(self, cantor4, hull):
        report = estimate_gamma(cantor4, hull)
        probe = contraction_probe(cantor4, hull, trials=25, seed=7)
        assert probe.skipped == 0
        assert all(r <= report.gamma_bound + 1e-6 for r in probe.ratios)

    def test_probe_deterministic(self, cantor4, hull):
        a = contraction_probe(cantor4, hull, trials=5, seed=42)
        b = contraction_probe(cantor4, hull, trials=5, seed=42)
        assert a.ratios == b.ratios

    def test_bad_trials(self, cantor4, hull):
        with pytest.raises(ValidationError):
            contraction_probe(cantor4, hull, trials=0, seed=1)


class TestBasisCertificate:
    def test_cantor4_certified(self, cantor4_measure):
        cert = basis_certificate(cantor4_measure)
        assert cert.basis_certified
        assert cert.failures == ()
        assert cert.gamma_bound < 1.0 and cert.zero_in_l and cert.l_spans

    def test_span_failure(self):
        s = make_system(4.0, [0.0], [0.0])
        cert = basis_certificate(FractalMeasure(s))
        assert not cert.basis_certified
        assert "L does not span" in cert.failures

    def test_scale_two_not_certified_but_recorded(self, even2):
        cert = basis_certificate(FractalMeasure(even2))
        assert not cert.basis_certified
        assert "gamma_bound >= 1" in cert.failures
        assert cert.gamma_bound >= 1.0

    def test_certificate_implies_hypotheses(self, cantor4_measure, quad2d):
        for m in (cantor4_measure, FractalMeasure(quad2d)):
            cert = basis_certificate(m)
            if cert.basis_certified:
                assert cert.gamma_bound < 1.0
                assert cert.zero_in_l and cert.l_spans

    def test_probe_trials_attached(self, cantor4_measure):
        cert = basis_certificate(cantor4_measure, trials=3, seed=1)
        assert cert.trials == 3
        assert cert.empirical_max_ratio is not None
        assert cert.empirical_max_ratio <= cert.gamma_bound + 1e-6
