"""Per-system fixed costs, bit for bit against the loops they replaced.

Small systems are cheap to compute on, so what they cost is per call: one
mask call per product depth, a Python matmul loop per inverse-power table,
the same structural check repeated by every caller, a pair loop per clique
graph, a second exact search per clique witness.  Each reference below is
the replaced code, kept here; the library must return its bits (its clique),
and each per-system check must run once per system.
"""

import random
from fractions import Fraction
from functools import cached_property
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fractalspec.errors import ValidationError
from fractalspec._numeric import cis2pi, power_norms
from fractalspec.systems import INV_POWER_DEPTH, AffineSystem
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
    product depth; a block of one row runs with a copy of itself."""
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
        size = pts.shape[0]
        pts = pts.repeat(2, axis=0) if size == 1 else pts
        block = np.ones(pts.shape[0], dtype=complex)
        for _ in range(depth):
            block *= np.conj(measure.chi_mask(m.sys, pts))
            pts = pts @ m.sys.rinv
        values[start : start + size] = block[:size]
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
    # a block of one row runs with a copy of itself
    blocks = [max(2, min(measure.FOURIER_BLOCK, count - s)) for s in range(0, count, measure.FOURIER_BLOCK)]
    levels = [max(1, measure.FOURIER_BLOCK // rows) for rows in blocks]
    assert depth > 1
    assert len(calls) == sum(ceil(depth / k) for k in levels)
    assert sum(calls) == depth * sum(blocks)  # the same points, in fewer calls
    assert max(calls) <= measure.FOURIER_BLOCK
    if count <= measure.FOURIER_BLOCK // depth:
        assert calls == [depth * max(2, count)]  # one call for the whole product


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
# clique search


# Reference: the two-search solver, verbatim but for its name: a
# colour-ordered branch-and-bound for the size, then one decision search per
# vertex for the lexicographically first clique of that size.
class TwoSearchCliqueSolver:
    """Exact branch-and-bound maximum clique on a bitset adjacency list."""

    def __init__(self, adj: list[int]):
        self.adj = adj
        self.n = len(adj)
        self.best: list[int] = []

    @staticmethod
    def _bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def _color_order(self, cand: int) -> tuple[list[int], list[int]]:
        """Greedy coloring; the color index bounds any clique in the tail."""
        classes: list[int] = []
        for v in self._bits(cand):
            for ci, cmask in enumerate(classes):
                if not (cmask & self.adj[v]):
                    classes[ci] |= 1 << v
                    break
            else:
                classes.append(1 << v)
        order: list[int] = []
        bounds: list[int] = []
        for ci, cmask in enumerate(classes):
            for v in self._bits(cmask):
                order.append(v)
                bounds.append(ci + 1)
        return order, bounds

    def _expand(self, cur: list[int], cand: int) -> None:
        if not cand:
            if len(cur) > len(self.best):
                self.best = cur.copy()
            return
        order, bounds = self._color_order(cand)
        for idx in range(len(order) - 1, -1, -1):
            if len(cur) + bounds[idx] <= len(self.best):
                return
            v = order[idx]
            cur.append(v)
            self._expand(cur, cand & self.adj[v])
            cur.pop()
            cand &= ~(1 << v)

    def max_clique(self) -> list[int]:
        self.best = []
        self._expand([], (1 << self.n) - 1)
        return self.best

    def _decide(self, cand: int, need: int) -> bool:
        """Is there a clique of size >= need inside cand?"""
        if need <= 0:
            return True
        order, bounds = self._color_order(cand)
        for idx in range(len(order) - 1, -1, -1):
            if bounds[idx] < need:
                return False
            v = order[idx]
            if self._decide(cand & self.adj[v], need - 1):
                return True
            cand &= ~(1 << v)
        return False

    def canonical_witness(self, size: int) -> list[int]:
        """Lexicographically first (in vertex order) clique of given size."""
        witness: list[int] = []
        cand = (1 << self.n) - 1
        for v in range(self.n):
            if not (cand >> v) & 1:
                continue
            rest = cand & self.adj[v]
            if self._decide(rest, size - len(witness) - 1):
                witness.append(v)
                cand = rest
                if len(witness) == size:
                    break
        return witness


def two_search_clique(adj):
    """The reference's (size, witness) on a bitset adjacency list."""
    solver = TwoSearchCliqueSolver(adj)
    size = len(solver.max_clique())
    return size, solver.canonical_witness(size)


class TwoSearchClique(TwoSearchCliqueSolver):
    """The reference behind the solver's interface."""

    def max_clique(self):
        return two_search_clique(self.adj)[1]


@st.composite
def bitset_graphs(draw):
    n = draw(st.integers(0, 40))
    density = draw(st.floats(0.05, 0.95))
    coins = random.Random(draw(st.integers(0, 2**32 - 1)))
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if coins.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


@settings(max_examples=300, deadline=None)
@given(bitset_graphs())
def test_one_search_matches_two_searches(adj):
    witness = verify._CliqueSolver(adj).max_clique()
    assert (len(witness), witness) == two_search_clique(adj)


@pytest.mark.parametrize("window", [1, 2, 60, 200])
@pytest.mark.parametrize("a", ["1/2", "1/4", "1/3", "2/7"])
@pytest.mark.parametrize("R", [2, -2, 3, -3, 4, -4, 5, 6, -6, 7, 8])
def test_clique_matches_two_searches_on_windows(monkeypatch, R, a, window):
    m = FractalMeasure(two_digit_system(R, float(Fraction(a))))
    size, witness = verify.max_orthogonal_clique(m, window)
    if abs(R) == 2:
        # every nonzero integer is 2^j times an odd number: the lattice graph
        # is complete and the answer is the whole window
        step = 1 / (2 * Fraction(float(Fraction(a))))  # the exact a of the float digit
        lattice = sorted(k * step for k in range(-window, window + 1))
        written = tuple(int(f) if f.denominator == 1 else float(f) for f in lattice)
        assert (size, witness) == (2 * window + 1, written)
        if window == 200:
            return  # the reference takes seconds to minutes on these graphs
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_CliqueSolver", TwoSearchClique)
        assert (size, witness) == verify.max_orthogonal_clique(m, window)


# ---------------------------------------------------------------------------
# per-system checks, computed once


def fraction_integral(sys):
    """Reference: the exact integrality test in Fraction arithmetic."""
    return rational_integral(*(np.vectorize(Fraction, otypes=[object])(a) for a in (sys.R, sys.B, sys.L)))


def rational_integral(R, B, L):
    """The test of :func:`fraction_integral` on object arrays of Fractions."""
    if not all(x.denominator == 1 for a in (R, L) for x in a.flat):
        return False
    powered = B
    for _ in range(R.shape[0]):
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
    assert s.is_integral is fraction_integral(s)


entries = st.one_of(
    st.integers(-6, 6).map(float),
    st.integers(-12, 12).map(lambda k: k / 4),  # dyadic, so R^n b . l is often an integer
    st.sampled_from([1 / 3, 2 / 3, 0.1, 4 + 1e-10, 2.0**-70, 2.0**60, 1e300]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2), st.data())
def test_is_integral_matches_fraction_reference_on_floats(d, data):
    R, B, L = (data.draw(st.lists(entries, min_size=k, max_size=k)) for k in (d * d, 2 * d, 2 * d))
    try:
        s = make_system(np.reshape(R, (d, d)), B, L)
    except ValidationError:
        return  # singular R or repeated digits
    assert s.is_integral is fraction_integral(s)


rational_entries = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 5, 6, 9]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2), st.data())
def test_is_integral_matches_fraction_reference_on_strings(d, data):
    R, B, L = (data.draw(st.lists(rational_entries, min_size=k, max_size=k)) for k in (d * d, 2 * d, 2 * d))
    doc = {"d": d, "R": R, "B": B, "L": L}
    try:
        s = systems.parse_system({key: [str(q) for q in v] if key != "d" else v for key, v in doc.items()})
    except ValidationError:
        return
    reference = rational_integral(*(np.array(v, dtype=object).reshape(-1, d) for v in (R, B, L)))
    assert s.is_integral is reference


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
    assert s.is_integral and spectral_expansiveness(s)[0] and check_hadamard(s) == 0.0
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
