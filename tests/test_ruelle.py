import tracemalloc
from itertools import combinations

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
    cantor_four,
    contraction_probe,
    enumerate_spectrum,
    estimate_gamma,
    lipschitz_norm,
    make_system,
    q_partial_many,
    scale_system,
)
from fractalspec import measure, ruelle
from fractalspec._numeric import cospi, hs_norm, operator_norm, sinpi
from fractalspec.measure import chi_mask
from fractalspec.ruelle import (
    SINPI_ERR,
    TRIAL_CHUNK,
    TrigPolynomial,
    _probe_ratios,
    _sup_norm,
    _transfer_gradient,
    _WaveBatch,
    probe_ratio,
)
from fractalspec.systems import as_box, check_box_invariance
from tests.conftest import generated_triples, hadamard_triple, multiplier_triple, triple_params


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
        box = np.tile([0.0, 1.0], (d, 1))
        with pytest.raises(ValidationError) as gamma_error:
            estimate_gamma(s, box)
        with pytest.raises(ValidationError) as probe_error:
            contraction_probe(s, box, trials=1, seed=0)
        with pytest.raises(ValidationError) as ratio_error:
            probe_ratio(s, box, lambda p: p[:, 0], lambda p: np.ones_like(p))
        errors = (hull_error, measure_error, gamma_error, probe_error, ratio_error)
        assert {str(error.value) for error in errors} == {message}

    def test_near_one_fails_before_the_levels(self):
        # 1.001^k <= 2 for every k < 256: the tails are infinite from the start
        s = make_system(1.001, [0.0, 0.5], [0.0, 1.0])
        message = (
            "||(R^T)^-k|| stays above 1/2 for k < 256 "
            "(min eigenvalue modulus 1.001); tails cannot be certified"
        )
        with pytest.raises(ConvergenceError) as hull_error:
            attractor_hull(s)
        with pytest.raises(ConvergenceError) as measure_error:
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

    @pytest.mark.parametrize("name, shape", [("cantor4", (100_003,)), ("quad2d", (301, 257))])
    def test_node_blocks_keep_the_bits(self, name, shape, request):
        # several CIS_BLOCK node blocks against one step over the whole grid
        sys = request.getfixturevalue(name)
        q = GridFunction(box=attractor_hull(sys), samples=np.random.default_rng(4).uniform(size=shape))
        weights, mapped = measure.dual_step(sys, q.nodes())
        mapped = np.clip(mapped.reshape(-1, sys.d), q.box[:, 0], q.box[:, 1])
        whole = np.sum(weights * q.interpolate(mapped).reshape(weights.shape), axis=1)
        assert q.samples.size > 2 * (measure.CIS_BLOCK // sys.n_digits)
        assert apply_ruelle(sys, q).samples.tobytes() == whole.tobytes()

    def test_domain_error_on_small_box(self, cantor4):
        box = np.array([[-0.1, 0.0]])
        q = GridFunction.from_callable(box, (64,), lambda p: np.ones(len(p)))
        with pytest.raises(DomainError, match="enlarge the box"):
            apply_ruelle(cantor4, q)

    def test_domain_error_on_small_box_2d(self, quad2d):
        # the hull of quad2d is [-1/3, 0]^2: this box misses the l = (1, 1) images
        box = np.array([[-0.2, 0.0], [-0.2, 0.0]])
        q = GridFunction.from_callable(box, (9, 9), lambda p: np.ones(len(p)))
        with pytest.raises(DomainError, match="enlarge the box"):
            apply_ruelle(quad2d, q)

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
    @pytest.mark.parametrize("seed", range(6))
    def test_one_dimensional_interpolation_matches_np_interp(self, seed):
        # the reference is the np.interp branch interpolate had in d = 1; the
        # two formulas round differently, and on samples of one sign they
        # agree within 2 ulps of the largest sample
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-3.0, 1.0)
        box = np.array([[lo, lo + rng.uniform(1e-3, 5.0)]])
        q = GridFunction(box=box, samples=rng.uniform(0.0, 1.0, int(rng.integers(2, 2000))))
        pts = np.concatenate([box[0], rng.uniform(*box[0], 1000)])
        reference = np.interp(pts, q.axes()[0], q.samples)
        got = q.interpolate(pts[:, None])
        assert np.max(np.abs(got - reference)) <= 2 * np.spacing(q.samples.max())
        assert np.array_equal(got[:2], q.samples[[0, -1]])

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


def sup_abs_sin_scalar(box, delta, l):
    """Reference: the sine sup for one (digit difference, l) interval, one
    scalar sinpi per end (the implementation before the vectorised one)."""
    ends = delta[:, None] * box
    shift = float(l @ delta)
    scale = float(np.abs(ends).max(axis=1).sum()) + float(np.abs(l * delta).sum())
    slack = (box.shape[0] + 2) * np.finfo(float).eps * scale
    lo = float(ends.min(axis=1).sum()) - shift - slack
    hi = float(ends.max(axis=1).sum()) - shift + slack
    first_peak = 0.25 + 0.5 * np.ceil(2.0 * lo - 0.5)
    if first_peak <= hi:
        return 1.0
    value = max(abs(sinpi(2.0 * lo)), abs(sinpi(2.0 * hi))) + SINPI_ERR
    return min(1.0, float(np.nextafter(value, 2.0)))


def gamma_scalar(sys, box):
    """Reference (gamma_bound, beta, sup_sin) from the per-pair scalar loop."""
    box = as_box(box, sys.d)
    sup_sin, diam = 0.0, 0.0
    for i, j in combinations(range(sys.n_digits), 2):
        delta = sys.B[i] - sys.B[j]
        diam = max(diam, float(np.linalg.norm(delta)))
        for l in sys.L:
            sup_sin = max(sup_sin, sup_abs_sin_scalar(box, delta, l))
    beta = 2.0 * np.pi * diam * sup_sin
    n = sys.n_digits
    max_l = float(np.max(np.linalg.norm(sys.L, axis=1)))
    gamma = (n - 1) ** 2 / n * beta * operator_norm(sys.rinv) * max_l + hs_norm(sys.rinv)
    return float(gamma), float(beta), float(sup_sin)


def gamma_fields(report):
    return report.gamma_bound, report.beta, report.sup_sin


class TestVectorisedSup:
    """estimate_gamma's one-call sine sup against the scalar loop, bit for bit."""

    @pytest.mark.parametrize("name", ["cantor4", "quad2d"])
    @pytest.mark.parametrize("r", range(1, 17))
    def test_scaled_systems_match_scalar(self, name, r, request):
        sys = scale_system(request.getfixturevalue(name), r)
        box = attractor_hull(sys)
        assert gamma_fields(estimate_gamma(sys, box)) == gamma_scalar(sys, box)

    @settings(max_examples=60, deadline=None)
    @given(
        params=triple_params,
        lo=st.floats(-4.0, 4.0, allow_nan=False),
        width=st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 0.125, 0.25, 0.5])),
    )
    def test_hadamard_triples_match_scalar(self, params, lo, width):
        sys = hadamard_triple(*params)
        for box in (attractor_hull(sys), np.array([[lo, lo + width]])):
            assert gamma_fields(estimate_gamma(sys, box)) == gamma_scalar(sys, box)

    @settings(max_examples=100, deadline=None)
    @given(_gamma_case())
    def test_generic_intervals_match_scalar(self, case):
        sys, box = case
        fields = gamma_fields(estimate_gamma(sys, box))
        if sys.d == 1:
            assert fields == gamma_scalar(sys, box)
        else:
            # l.delta is summed term by term; the reference's BLAS dot may fuse
            # the multiply-add and round it one ulp apart (both are covered by
            # the slack), so the sines agree to rounding only
            assert fields == pytest.approx(gamma_scalar(sys, box), rel=1e-13, abs=0.0)


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"degree": 0}, "degree must be >= 1, got 0"),
            ({"degree": -1}, "degree must be >= 1, got -1"),
            ({"per_axis": 1}, "per_axis must be >= 2, got 1"),
            ({"per_axis": 0}, "per_axis must be >= 2, got 0"),
        ],
    )
    def test_bad_probe_arguments(self, cantor4, hull, quad2d, kwargs, message):
        for sys, box in ((cantor4, hull), (quad2d, attractor_hull(quad2d))):
            with pytest.raises(ValidationError) as error:
                contraction_probe(sys, box, trials=2, seed=0, **kwargs)
            assert str(error.value) == message

    @pytest.mark.parametrize("per_axis", [1, 0, -5])
    def test_probe_ratio_rejects_coarse_grid(self, cantor4, hull, per_axis):
        with pytest.raises(ValidationError, match=f"^per_axis must be >= 2, got {per_axis}$"):
            probe_ratio(
                cantor4, hull, lambda p: p[:, 0], lambda p: np.ones_like(p), per_axis=per_axis
            )


# The per-trial evaluation that the batched probes replaced, kept as their
# oracle: sinpi/cospi per term, the pairwise-sine mask gradient, the grid
# argmax and its zoom, one trial and one function at a time.


def reference_value(poly, pts):
    phases = pts @ poly.waves.T
    return (cospi(2.0 * phases) - 1.0) @ poly.cos_coeff + sinpi(2.0 * phases) @ poly.sin_coeff


def reference_gradient(poly, pts):
    phases = pts @ poly.waves.T
    dcos = -sinpi(2.0 * phases) * poly.cos_coeff
    dsin = cospi(2.0 * phases) * poly.sin_coeff
    return 2.0 * np.pi * (dcos + dsin) @ poly.waves


def reference_mask_sq_grad(sys, pts):
    n = sys.n_digits
    grad = np.zeros_like(pts)
    for i, j in combinations(range(n), 2):
        delta = sys.B[i] - sys.B[j]
        grad -= (4.0 * np.pi / n**2) * np.outer(sinpi(2.0 * (pts @ delta)), delta)
    return grad


def reference_transfer_gradient(sys, q_value, q_grad, pts):
    total = np.zeros_like(pts)
    for l in sys.L:
        shifted = pts - l
        mapped = shifted @ sys.rinv
        total += reference_mask_sq_grad(sys, shifted) * q_value(mapped)[:, None]
        weight = np.abs(chi_mask(sys, shifted)) ** 2
        total += weight[:, None] * (q_grad(mapped) @ sys.rinv.T)
    return total


def reference_sup(fn, box, per_axis):
    grid = GridFunction(box=box, samples=np.zeros((per_axis,) * box.shape[0]))
    pts = grid.nodes()
    vals = fn(pts)
    best = float(vals.max())
    if box.shape[0] == 1:
        h = grid.steps[0]
        star = pts[int(vals.argmax()), 0]
        lo, hi = max(box[0, 0], star - h), min(box[0, 1], star + h)
        while hi - lo > 1e-12:
            ys = np.linspace(lo, hi, 33)
            zoom = fn(ys[:, None])
            k = int(zoom.argmax())
            best = max(best, float(zoom[k]))
            width = hi - lo
            lo, hi = ys[max(k - 1, 0)], ys[min(k + 1, 32)]
            if hi - lo >= width:
                break
    return best


def reference_ratio(sys, box, q_value, q_grad, per_axis):
    denom = reference_sup(lambda p: np.linalg.norm(q_grad(p), axis=1), box, per_axis)
    if denom < 1e-12:
        return float("nan")
    numer = reference_sup(
        lambda p: np.linalg.norm(reference_transfer_gradient(sys, q_value, q_grad, p), axis=1),
        box,
        per_axis,
    )
    return numer / denom


def reference_probe(sys, box, trials, seed, degree=4, per_axis=None):
    """(ratios, skipped) of contraction_probe, one trial at a time."""
    per_axis = per_axis or (4097 if sys.d == 1 else 65)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        poly = TrigPolynomial.random(rng, sys.d, degree)
        ratios.append(
            reference_ratio(
                sys,
                box,
                lambda p, poly=poly: reference_value(poly, p),
                lambda p, poly=poly: reference_gradient(poly, p),
                per_axis,
            )
        )
    ratios = np.array(ratios)
    return ratios[~np.isnan(ratios)], int(np.isnan(ratios).sum())


def assert_matches_reference(sys, box, trials, seed, per_axis=None, degree=4):
    probe = contraction_probe(sys, box, trials, seed, degree=degree, per_axis=per_axis)
    ratios, skipped = reference_probe(sys, box, trials, seed, degree, per_axis)
    assert probe.skipped == skipped
    assert len(probe.ratios) == ratios.size == trials - skipped
    np.testing.assert_allclose(probe.ratios, ratios, rtol=1e-14, atol=0.0)
    return probe


class TestBatchedProbes:
    @pytest.mark.parametrize(
        "name, trials, seed", [("cantor4", 20, 1), ("quad2d", 5, 0)]
    )
    def test_matches_reference(self, name, trials, seed, request):
        sys = request.getfixturevalue(name)
        assert_matches_reference(sys, attractor_hull(sys), trials, seed)

    def test_more_trials_than_a_chunk(self, cantor4, hull):
        # three chunks, the last one partial
        probe = assert_matches_reference(cantor4, hull, 2 * TRIAL_CHUNK + 3, 5, per_axis=513)
        assert len(probe.ratios) == 2 * TRIAL_CHUNK + 3

    def test_degree_one_folds_repeated_waves(self, quad2d):
        # degree 1 in 2-D: 8 distinct waves for 6 trials of 2 terms each
        assert_matches_reference(quad2d, attractor_hull(quad2d), 6, 11, per_axis=17, degree=1)

    def test_degenerate_trial_skipped_inside_a_batch(self, cantor4, hull):
        polys = [TrigPolynomial.random(np.random.default_rng(s), 1) for s in range(3)]
        polys.insert(1, TrigPolynomial([[2.0], [3.0]], [0.0, 0.0], [0.0, 0.0]))
        ratios = _probe_ratios(cantor4, hull, _WaveBatch(polys), 513, refine=True)
        assert np.isnan(ratios[1]) and not np.isnan(ratios[[0, 2, 3]]).any()
        for poly, ratio in zip(polys, ratios):
            if poly is not polys[1]:
                expected = reference_ratio(
                    cantor4, hull,
                    lambda p: reference_value(poly, p), lambda p: reference_gradient(poly, p),
                    513,
                )
                assert ratio == pytest.approx(expected, rel=1e-14, abs=0.0)
        # the same rule for a probe given as callables
        flat = probe_ratio(cantor4, hull, lambda p: np.zeros(len(p)), lambda p: np.zeros_like(p))
        assert np.isnan(flat)

    @settings(max_examples=12, deadline=None)
    @given(params=triple_params, seed=st.integers(0, 2**16))
    def test_hadamard_triples_match_reference_below_gamma(self, params, seed):
        sys = hadamard_triple(*params)
        box = attractor_hull(sys)
        probe = assert_matches_reference(sys, box, 3, seed, per_axis=257)
        gamma = estimate_gamma(sys, box).gamma_bound
        assert all(r <= gamma + 1e-6 for r in probe.ratios)

    @pytest.mark.parametrize("name", ["cantor4", "quad2d"])
    def test_trig_polynomial_callables(self, name, request):
        # a probe given as callables runs as a batch of one: same ratio as
        # the reference, and scaling the probe leaves the ratio bit-identical
        sys = request.getfixturevalue(name)
        box = attractor_hull(sys)
        poly = TrigPolynomial.random(np.random.default_rng(4), sys.d)
        per_axis = 1025 if sys.d == 1 else 33
        r1 = probe_ratio(sys, box, poly.value, poly.gradient, per_axis=per_axis)
        r2 = probe_ratio(
            sys, box, lambda p: 2.0 * poly.value(p), lambda p: 2.0 * poly.gradient(p),
            per_axis=per_axis,
        )
        expected = reference_ratio(
            sys, box, lambda p: reference_value(poly, p), lambda p: reference_gradient(poly, p),
            per_axis,
        )
        assert r1 == r2
        assert r1 == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name", ["cantor4", "quad2d"])
    def test_trig_polynomial_matches_reference(self, name, request):
        sys = request.getfixturevalue(name)
        poly = TrigPolynomial.random(np.random.default_rng(9), sys.d)
        pts = np.random.default_rng(10).uniform(-2.0, 2.0, size=(200, sys.d))
        pts[0] = 0.0
        assert poly.value(pts)[0] == 0.0  # vanishes exactly at the origin
        np.testing.assert_allclose(poly.value(pts), reference_value(poly, pts), rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            poly.gradient(pts), reference_gradient(poly, pts), rtol=0, atol=1e-12
        )

    def test_memory_does_not_grow_with_trials(self, cantor4, hull):
        def peak(trials):
            tracemalloc.start()
            try:
                contraction_probe(cantor4, hull, trials=trials, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # one-time set-up (cached system matrices, numpy internals)
        assert peak(200) <= 1.5 * peak(20)


def fused_gradients(sys, probe, pts):
    """(trials, K, d) gradients of Cq at (K, d) points, from one numerator block."""
    return _transfer_gradient(sys, probe)(pts[None])(np.arange(probe.size))


def assert_fused_matches_reference(sys, polys, pts):
    got = fused_gradients(sys, _WaveBatch(polys), pts)
    for poly, grad in zip(polys, got):
        expected = reference_transfer_gradient(
            sys, lambda p: reference_value(poly, p), lambda p: reference_gradient(poly, p), pts
        )
        # 1e-14 relative to the gradient's scale, times the reach of the
        # shifted points: the reference rounds t - l and its phases, so its
        # own error grows with max |t - l|; a component that cancels to near
        # 0 keeps the absolute rounding of its terms
        reach = 1.0 + np.abs(pts[:, None, :] - sys.L).max()
        np.testing.assert_allclose(
            grad, expected, rtol=0.0, atol=1e-14 * reach * np.abs(expected).max()
        )


def sample_points(box, count, seed):
    pts = np.random.default_rng(seed).uniform(box[:, 0], box[:, 1], size=(count, box.shape[0]))
    pts[0] = 0.0  # the origin, where every probe vanishes
    return pts


def non_diagonal_2d():
    # non-normal R; R b is integral for every b, so the triple stays integral
    return make_system(
        [[4.0, 2.0], [0.0, 4.0]],
        [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    )


def one_digit():
    return make_system(3.0, [0.0], [0.0])


def mpmath_transfer_gradient(mp, sys, poly, pts):
    """(K, 1) gradients of Cq for a 1-D integer R at the current mpmath
    precision, from the exact floats of t, B, L and the polynomial and the
    exact 1/R, rounded once to float at the end."""
    two_pi = 2 * mp.pi
    scale = mp.mpf(int(sys.R[0, 0]))
    digits = [mp.mpf(b) for b in sys.B[:, 0]]
    terms = [
        tuple(map(mp.mpf, row)) for row in zip(poly.waves[:, 0], poly.cos_coeff, poly.sin_coeff)
    ]
    out = []
    for t in pts[:, 0]:
        total = mp.mpf(0)
        for l in sys.L[:, 0]:
            x = mp.mpf(t) - mp.mpf(l)
            waves = [mp.expjpi(2 * b * x) for b in digits]
            chi = mp.fsum(waves) / len(digits)
            dchi = mp.fsum(2j * mp.pi * b * e for b, e in zip(digits, waves)) / len(digits)
            u = x / scale
            cos = [mp.cos(two_pi * k * u) for k, _, _ in terms]
            sin = [mp.sin(two_pi * k * u) for k, _, _ in terms]
            q = mp.fsum(c * (cw - 1) + s * sw for (_, c, s), cw, sw in zip(terms, cos, sin))
            dq = mp.fsum(two_pi * k * (s * cw - c * sw) for (k, c, s), cw, sw in zip(terms, cos, sin))
            total += 2 * mp.re(mp.conj(chi) * dchi) * q + abs(chi) ** 2 * dq / scale
        out.append(float(total))
    return np.array(out)[:, None]


class TestFusedNumerator:
    """The numerator evaluates every dual map from one trig evaluation per
    block: its gradients and ratios against the per-map reference."""

    def test_matches_a_40_digit_evaluation(self):
        # far from 0, |t - l| <= 15: the float reference rounds t - l and its
        # phases and is up to 1.5e-14 (relative) off here, the numerator 1.3e-15
        mpmath = pytest.importorskip("mpmath")
        sys = multiplier_triple(4, 3, 5)  # R = 12, B = {0, 1/4, 1/2, 3/4}, L = {0, 5, 10, 15}
        seed = 49596
        rng = np.random.default_rng(seed)
        polys = [TrigPolynomial.random(rng, sys.d) for _ in range(3)]
        pts = sample_points(attractor_hull(sys), 64, seed)
        got = fused_gradients(sys, _WaveBatch(polys), pts)
        with mpmath.workdps(40):
            for poly, grad in zip(polys, got):
                expected = mpmath_transfer_gradient(mpmath.mp, sys, poly, pts)
                np.testing.assert_allclose(
                    grad, expected, rtol=0.0, atol=1e-14 * np.abs(expected).max()
                )

    @settings(max_examples=25, deadline=None)
    @given(sys=generated_triples, seed=st.integers(0, 2**16))
    def test_generated_triples_match_reference_below_gamma(self, sys, seed):
        box = attractor_hull(sys)
        rng = np.random.default_rng(seed)
        polys = [TrigPolynomial.random(rng, sys.d) for _ in range(3)]
        assert_fused_matches_reference(sys, polys, sample_points(box, 64, seed))
        gamma = estimate_gamma(sys, box).gamma_bound
        probe = contraction_probe(sys, box, 3, seed, per_axis=257)
        assert all(r <= gamma for r in probe.ratios)

    @pytest.mark.parametrize(
        "make, box, per_axis",
        [(non_diagonal_2d, None, 17), (one_digit, [[-1.0, 1.0]], 513)],
        ids=["non-diagonal-2d", "one-digit"],
    )
    def test_fixed_systems_match_reference(self, make, box, per_axis):
        sys = make()
        box = attractor_hull(sys) if box is None else as_box(box, sys.d)
        polys = [TrigPolynomial.random(np.random.default_rng(s), sys.d) for s in range(4)]
        assert_fused_matches_reference(sys, polys, sample_points(box, 128, 1))
        probe = assert_matches_reference(sys, box, 4, 2, per_axis=per_axis)
        assert all(r <= estimate_gamma(sys, box).gamma_bound for r in probe.ratios)

    @pytest.mark.parametrize("make", [cantor_four, non_diagonal_2d], ids=["cantor4", "non-diagonal-2d"])
    def test_non_integer_waves_match_reference(self, make):
        sys = make()
        box = attractor_hull(sys)
        rng = np.random.default_rng(6)
        polys = [
            TrigPolynomial(
                rng.uniform(-2.5, 2.5, size=(3, sys.d)), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            )
            for _ in range(2)
        ]
        assert_fused_matches_reference(sys, polys, sample_points(box, 128, 7))
        per_axis = 513 if sys.d == 1 else 17
        ratios = _probe_ratios(sys, box, _WaveBatch(polys), per_axis, refine=True)
        for poly, ratio in zip(polys, ratios):
            expected = reference_ratio(
                sys, box, lambda p: reference_value(poly, p), lambda p: reference_gradient(poly, p),
                per_axis,
            )
            assert ratio == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name, trials", [("cantor4", 20), ("quad2d", 5)])
    def test_one_trig_evaluation_per_block(self, name, trials, request, monkeypatch):
        # a numerator block takes K (n_waves + N) phase elements through
        # cis2pi, whatever |L| (zero digits skip the kernel), not K |L| (...)
        sys = request.getfixturevalue(name)
        rng = np.random.default_rng(0)
        batch = _WaveBatch([TrigPolynomial.random(rng, sys.d) for _ in range(trials)])
        counted = []

        def counting(x):
            counted.append(np.size(x))
            return kernel(x)

        kernel = ruelle.cis2pi
        monkeypatch.setattr(ruelle, "cis2pi", counting)
        monkeypatch.setattr(measure, "cis2pi", counting)
        prepare = _transfer_gradient(sys, batch)
        n_waves, maps = batch.waves.shape[0], sys.L.shape[0]
        assert sum(counted) == maps * n_waves  # each map's phases, once per batch
        rows = batch.block_rows(maps, sys.n_digits)
        nodes = sample_points(attractor_hull(sys), rows, 3)
        counted.clear()
        prepare(nodes[None])(np.arange(trials))
        nonzero = sys.n_digits - int(sys.zero_digits.sum())
        assert sum(counted) == rows * (n_waves + nonzero)
        assert sum(counted) < rows * maps * (n_waves + nonzero)


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

    def test_incompatible_system_not_certified(self):
        # R = 3, B = {0, 1/2}: an odd scale admits no exponential basis, though
        # the digit matrix is unitary, 0 is in L, L spans and gamma < 1
        cert = basis_certificate(FractalMeasure(make_system(3.0, [0.0, 0.5], [0.0, 1.0])))
        assert cert.gamma_bound < 1.0 and cert.zero_in_l and cert.l_spans
        assert not cert.basis_certified
        assert cert.failures == ("not compatible",)

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

    @pytest.mark.parametrize("trials", [-1, -3])
    def test_negative_trials_rejected(self, cantor4_measure, trials):
        with pytest.raises(ValidationError, match=f"^trials must be >= 0, got {trials}$"):
            basis_certificate(cantor4_measure, trials=trials)

    def test_zero_trials_attach_no_probe(self, cantor4_measure):
        cert = basis_certificate(cantor4_measure, trials=0)
        assert cert.trials == 0 and cert.empirical_max_ratio is None

    def test_probe_trials_attached(self, cantor4_measure):
        cert = basis_certificate(cantor4_measure, trials=3, seed=1)
        assert cert.trials == 3
        assert cert.empirical_max_ratio is not None
        assert cert.empirical_max_ratio <= cert.gamma_bound + 1e-6
