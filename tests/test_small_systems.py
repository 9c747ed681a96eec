"""Per-system fixed costs, bit for bit against the loops they replaced.

Small systems are cheap to compute on, so what they cost is per call: one
mask call per product depth, a Python matmul loop per inverse-power table,
the same structural check repeated by every caller, a pair loop per clique
graph.  Each reference below is the replaced loop, kept here; the library
must return its bits, and each per-system check must run once per system.
"""

from fractions import Fraction
from functools import cached_property
from math import ceil

import numpy as np
import pytest

from fractalspec import (
    FractalMeasure,
    basis_certificate,
    check_hadamard,
    fourier_mu_many,
    make_system,
    spectral_expansiveness,
    two_digit_system,
    validate_compatibility,
)
from fractalspec import measure, systems, verify
from fractalspec._numeric import cis2pi, power_norms
from fractalspec.systems import INV_POWER_DEPTH, AffineSystem, integral_system
from tests.conftest import hadamard_triple


def bits(values):
    values = np.asarray(values)
    return np.ascontiguousarray(values, dtype=values.dtype).view(np.int64)


# ---------------------------------------------------------------------------
# power_norms in d = 1


def matmul_chain_norms(mat, count):
    """Reference: the accumulated powers by one matmul per step, normed by
    the batched SVD."""
    inv = np.linalg.inv(np.asarray(mat, dtype=float))
    powers = np.empty((count,) + inv.shape)
    powers[:1] = np.eye(inv.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, count):
            powers[k] = powers[k - 1] @ inv
    finite = np.isfinite(powers).all(axis=(1, 2))
    norms = np.linalg.svd(np.where(finite[:, None, None], powers, 0.0), compute_uv=False)[:, 0]
    return np.where(finite, norms, np.inf)


def _scales():
    rng = np.random.default_rng(327)
    integers = [r for r in range(-60, 61) if r != 0]
    uniform = rng.uniform(-50.0, 50.0, 200).tolist()
    extreme = [
        1.0 + 2.0**-40,  # inverse powers decay too slowly to matter
        0.5, -0.5, 1e-3, -1e-3, 1e-200,  # inverse powers overflow to inf
        1e200, -1e200, 1e308, 2.0**1000,  # inverse powers underflow to 0
        3e-310, -3e-310,  # subnormal scale: the inverse itself is inf
        np.pi, -np.e, 4.0 + 1e-10,
    ]
    return integers + uniform + extreme


SCALES = _scales()


def test_scale_sample_is_large_and_covers_the_cases():
    assert len(SCALES) >= 300
    assert {5.0, 6.0, 7.0} <= {float(r) for r in SCALES}
    assert any(r < 0 for r in SCALES) and any(r != round(r) for r in SCALES)


def test_one_dimensional_power_norms_match_matmul_chain():
    mismatched = []
    with np.errstate(over="ignore", divide="ignore"):
        for r in SCALES:
            mat = np.array([[r]], dtype=float)
            got = power_norms(mat, INV_POWER_DEPTH)
            if not np.array_equal(bits(got), bits(matmul_chain_norms(mat, INV_POWER_DEPTH))):
                mismatched.append(r)
    assert mismatched == []


def test_one_dimensional_power_norm_stack_matches_each_matrix():
    stack = np.array(SCALES, dtype=float)[:, None, None]
    with np.errstate(over="ignore", divide="ignore"):
        rows = power_norms(stack, INV_POWER_DEPTH)
        assert [bits(row).tolist() for row in rows] == [
            bits(power_norms(mat, INV_POWER_DEPTH)).tolist() for mat in stack
        ]


@pytest.mark.parametrize("name", ["cantor4", "quad2d"])
def test_scaled_systems_share_one_power_norm_call(name, request, monkeypatch):
    base = request.getfixturevalue(name)
    calls = []
    original = systems.power_norms
    monkeypatch.setattr(systems, "power_norms", lambda *a: calls.append(a) or original(*a))
    scaled = systems.scale_systems(base, range(1, 17))
    assert len(calls) == 1 and [s.r for s in scaled] == list(range(1, 17))
    monkeypatch.setattr(systems, "power_norms", original)
    for r, s in zip(range(1, 17), scaled):
        alone = systems.scale_system(base, r) if r > 1 else make_system(base.R, base.B, base.L)
        assert s.inv_power_tails.tobytes() == alone.inv_power_tails.tobytes()
        assert not s.inv_power_tails.flags.writeable


@pytest.mark.parametrize("name", ["cantor4", "quad2d", "thirds"])
def test_scaled_systems_inherit_integrality(name, request):
    # the floats of B = {0, 1/3, 2/3} are not thirds: no scale makes that system integral
    base = hadamard_triple(3, 1, (0, 1, 1)) if name == "thirds" else request.getfixturevalue(name)
    for s in systems.scale_systems(base, range(1, 9)):
        assert s.is_integral == make_system(s.R, s.B, s.L).is_integral


def test_one_dimensional_power_norms_cover_overflow_and_underflow():
    with np.errstate(over="ignore"):
        overflow = power_norms(np.array([[1e-3]]), INV_POWER_DEPTH)
        underflow = power_norms(np.array([[1e200]]), INV_POWER_DEPTH)
    assert np.isfinite(overflow[1]) and np.isposinf(overflow[-1])
    assert underflow[1] > 0.0 and underflow[-1] == 0.0


@pytest.mark.parametrize("R", [5.0, -6.0])
def test_norms_come_from_the_svd_not_abs(R):
    # abs() of a 1 x 1 power is not LAPACK's singular value bit for bit,
    # so swapping the batched SVD for abs() would change the tails
    inv = np.linalg.inv(np.array([[R]]))[0, 0]
    chain = np.cumprod(np.r_[1.0, np.full(INV_POWER_DEPTH - 1, inv)])
    norms = power_norms(np.array([[R]]), INV_POWER_DEPTH)
    assert not np.array_equal(bits(np.abs(chain)), bits(norms))
    assert np.allclose(np.abs(chain), norms, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "mat",
    [np.array([[2.0, 10.0], [0.0, 2.0]]), np.array([[4.0, 1.0], [0.0, 4.0]]), np.diag([0.01, 100.0])],
    ids=["non-normal", "shear", "overflow"],
)
def test_matrix_power_norms_match_matmul_chain(mat):
    with np.errstate(over="ignore"):
        assert np.array_equal(bits(power_norms(mat, INV_POWER_DEPTH)), bits(matmul_chain_norms(mat, INV_POWER_DEPTH)))


# ---------------------------------------------------------------------------
# fourier_mu_many: several depths per mask call


def per_depth_product(m, T):
    """Reference: blocks of FOURIER_BLOCK distinct rows, one chi_mask call per
    product depth."""
    T = np.asarray(T, dtype=float).reshape(-1, m.sys.d)
    depth = m._depth_for(float(np.linalg.norm(T, axis=1).max(initial=0.0)))
    b = T.view(np.int64)
    if m.sys.d == 1:
        distinct, inverse = np.unique(b[:, 0], return_inverse=True)
    else:
        distinct, inverse = np.unique(b, axis=0, return_inverse=True)
    rows = distinct.view(float).reshape(-1, m.sys.d)
    values = np.ones(rows.shape[0], dtype=complex)
    for start in range(0, rows.shape[0], measure.FOURIER_BLOCK):
        pts = rows[start : start + measure.FOURIER_BLOCK]
        block = values[start : start + measure.FOURIER_BLOCK]
        for _ in range(depth):
            block *= np.conj(measure.chi_mask(m.sys, pts))
            pts = pts @ m.sys.rinv
    return values[inverse.reshape(-1)], depth


QUAD2D = (
    [[4.0, 0.0], [0.0, 4.0]],
    [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
)
MEASURES = {
    "depth0": lambda: FractalMeasure(make_system(4.0, [0.0, 0.5], [0.0, 1.0]), product_tail_tol=np.inf),
    "cantor4": lambda: FractalMeasure(make_system(4.0, [0.0, 0.5], [0.0, 1.0])),
    "quad2d": lambda: FractalMeasure(make_system(*QUAD2D)),
    "shear2d": lambda: FractalMeasure(make_system([[4.0, 1.0], [0.0, 4.0]], *QUAD2D[1:])),
    "triple3": lambda: FractalMeasure(hadamard_triple(3, 2, [1, 0])),
    "triple5": lambda: FractalMeasure(hadamard_triple(5, 3, [1, 0, 1, 1])),
}
ROW_COUNTS = {
    "1": 1,
    "2": 2,
    "120": 120,
    "block-1": measure.FOURIER_BLOCK - 1,
    "block": measure.FOURIER_BLOCK,
    "block+1": measure.FOURIER_BLOCK + 1,
    "3block+7": 3 * measure.FOURIER_BLOCK + 7,
}


def distinct_frequencies(d, count, seed):
    """count distinct rows, a tenth of them on quarter integers, and 0 and -0
    (two bit patterns); a third appear twice in the returned T."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-60.0, 60.0, size=(count, d))
    quarter = count // 10
    rows[:quarter] = np.round(4.0 * rows[:quarter]) / 4.0
    rows[:quarter, 0] = np.arange(1, quarter + 1) / 4.0
    if count > 2:
        rows[-1], rows[-2] = 0.0, -0.0
    return np.concatenate([rows, rows[: count // 3]])


@pytest.fixture(scope="module", params=sorted(MEASURES))
def fractal_measure(request):
    return MEASURES[request.param]()


@pytest.mark.parametrize("count", list(ROW_COUNTS.values()), ids=list(ROW_COUNTS))
def test_fourier_mu_many_matches_per_depth_loop(fractal_measure, count):
    T = distinct_frequencies(fractal_measure.sys.d, count, count)
    assert np.unique(T.view(np.int64), axis=0).shape[0] == count
    values, _ = fourier_mu_many(fractal_measure, T)
    expected, _ = per_depth_product(fractal_measure, T)
    assert np.array_equal(bits(values), bits(expected))


def test_depth_zero_measure_has_depth_zero():
    m = MEASURES["depth0"]()
    _, depth = per_depth_product(m, distinct_frequencies(1, 10, 0))
    assert depth == 0


@pytest.mark.parametrize("count", [1, 2, 120, 1000, measure.FOURIER_BLOCK, measure.FOURIER_BLOCK + 1])
def test_chi_mask_calls_per_block(monkeypatch, count):
    m = MEASURES["cantor4"]()
    T = np.linspace(1.0, 60.0, count).reshape(-1, 1)
    _, depth = per_depth_product(m, T)
    calls = []
    original = measure.chi_mask
    monkeypatch.setattr(measure, "chi_mask", lambda sys, t: calls.append(len(t)) or original(sys, t))
    fourier_mu_many(m, T)
    blocks = [min(measure.FOURIER_BLOCK, count - s) for s in range(0, count, measure.FOURIER_BLOCK)]
    levels = [max(1, measure.FOURIER_BLOCK // rows) for rows in blocks]
    assert depth > 1
    assert len(calls) == sum(ceil(depth / k) for k in levels)
    assert sum(calls) == depth * count  # the same points, in fewer calls
    assert max(calls) <= measure.FOURIER_BLOCK
    if count <= measure.FOURIER_BLOCK // depth:
        assert calls == [depth * count]  # one call for the whole product


# ---------------------------------------------------------------------------
# clique adjacency


def pair_loop_adjacency(m, window, zero_tol=1e-9):
    """Reference: the clique graph built one vertex pair at a time."""
    freqs = [0]
    for k in range(1, window + 1):
        freqs.extend((k, -k))
    values, _ = fourier_mu_many(m, np.arange(1, 2 * window + 1, dtype=float).reshape(-1, 1))
    orthogonal = np.abs(values) <= zero_tol
    adj = [0] * len(freqs)
    for i in range(len(freqs)):
        for j in range(i + 1, len(freqs)):
            if orthogonal[abs(freqs[i] - freqs[j]) - 1]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


@pytest.mark.parametrize("window", [1, 2, 60, 200])
@pytest.mark.parametrize("R", [3, 5, 7])
def test_clique_adjacency_matches_pair_loop(monkeypatch, R, window):
    m = FractalMeasure(two_digit_system(R, 0.5))
    seen = []

    class Recording(verify._CliqueSolver):
        def __init__(self, adj):
            seen.append(adj)
            super().__init__(adj)

    monkeypatch.setattr(verify, "_CliqueSolver", Recording)
    size, witness = verify.max_orthogonal_clique(m, window)
    expected = pair_loop_adjacency(m, window)
    assert seen == [expected]
    assert all(type(row) is int for row in seen[0])
    assert any(expected)  # the graph has edges: mu-hat(1) = 0 for a = 1/2
    assert size == 2 and all(type(v) is int for v in witness)


# ---------------------------------------------------------------------------
# per-system checks, computed once


def fraction_integral(sys):
    """Reference: the exact integrality test in Fraction arithmetic."""
    R, B, L = (np.vectorize(Fraction, otypes=[object])(a) for a in (sys.R, sys.B, sys.L))
    if not all(x.denominator == 1 for a in (R, L) for x in a.flat):
        return False
    powered = B
    for _ in range(sys.d):
        powered = powered @ R.T
        if not all(x.denominator == 1 for x in (powered @ L.T).flat):
            return False
    return True


INTEGRALITY_CASES = [
    (4.0, [0.0, 0.5], [0.0, 1.0]),
    (4.0, [0.0, 0.5], [0.0, 3.0]),
    (3.0, [0.0, 1.0 / 3.0], [0.0, 1.0]),
    (3.0, [0.0, 0.5], [0.0, 1.0]),
    (-4.0, [0.0, -0.5], [0.0, -3.0]),
    (4.0 + 1e-10, [0.0, 0.5], [0.0, 1.0]),
    (4.0, [0.0, 0.5], [0.0, 1.5]),
    (1e300, [0.0, 1e-300], [0.0, 1e300]),  # big integers, tiny dyadic digit
    (2.0**60, [0.0, 2.0**-70], [0.0, 1.0]),
    (8.0, [0.0, 0.25, 0.5, 0.75], [0.0, 5.0, 2.0, 7.0]),
    ([[2.0, 1.0], [0.0, 2.0]], [[0.0, 0.0], [0.25, 0.0]], [[0.0, 0.0], [2.0, 0.0]]),
    ([[2.0, 1.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.25]], [[0.0, 0.0], [0.0, 2.0]]),
    QUAD2D,
    ([[4.0, 1.0], [0.0, 4.0]], QUAD2D[1], QUAD2D[2]),
    ([[4.0, 0.5], [0.0, 4.0]], QUAD2D[1], QUAD2D[2]),
    ([[3.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.0, 1.0, 3.0]], [[0.0] * 3, [1 / 3, 0.0, 0.0]], [[0.0] * 3, [1.0, 1.0, 0.0]]),
]


@pytest.mark.parametrize("R, B, L", INTEGRALITY_CASES)
def test_is_integral_matches_fraction_reference(R, B, L):
    s = make_system(R, B, L)
    assert integral_system(s) is s.is_integral is fraction_integral(s)


def test_integrality_sample_has_both_answers():
    answers = {fraction_integral(make_system(*case)) for case in INTEGRALITY_CASES}
    assert answers == {True, False}


def test_cached_checks_equal_their_formulas(quad2d):
    for s in (quad2d, two_digit_system(5, 0.5), hadamard_triple(3, 2, [1, 0]), make_system(3.0, [0.0, 0.3], [0.0, 1.0])):
        phases = cis2pi(s.B @ s.L.T)
        gram = (phases @ phases.conj().T) / s.n_digits
        assert check_hadamard(s) == float(np.linalg.norm(gram - np.eye(s.n_digits), 2))
        moduli = np.abs(np.linalg.eigvals(s.R))
        assert spectral_expansiveness(s) == (bool(np.all(moduli > 1.0)), float(moduli.min()))


def test_each_check_runs_once_per_system(monkeypatch):
    counts = {}
    for name in ("expansiveness", "hadamard_deviation", "is_integral"):
        func = AffineSystem.__dict__[name].func

        def counted(self, name=name, func=func):
            counts[name] = counts.get(name, 0) + 1
            return func(self)

        prop = cached_property(counted)
        prop.__set_name__(AffineSystem, name)
        monkeypatch.setattr(AffineSystem, name, prop)
    s = make_system(4.0, [0.0, 0.5], [0.0, 1.0])
    report = validate_compatibility(s)
    m = FractalMeasure(s)
    cert = basis_certificate(m)
    FractalMeasure(s)
    validate_compatibility(s)
    assert integral_system(s) and spectral_expansiveness(s)[0] and check_hadamard(s) == 0.0
    assert report.valid and cert.basis_certified
    assert counts == {"expansiveness": 1, "hadamard_deviation": 1, "is_integral": 1}
    # a new system, such as a rescaled one, computes its own
    validate_compatibility(systems.scale_system(s, 2))
    assert counts == {"expansiveness": 2, "hadamard_deviation": 2, "is_integral": 2}


def test_rescaled_system_does_not_inherit_cached_checks():
    s = make_system(3.0, [0.0, 0.5], [0.0, 1.0])
    assert not s.is_integral and s.expansiveness == (True, 3.0)
    doubled = systems.scale_system(s, 2)
    assert doubled.is_integral and doubled.expansiveness == (True, 6.0)
