"""Word sums, dual images and dual boxes (systems.py) against the loops
they replaced.

Each reference below is the hand-written loop that built its set before
the shared primitives existed, kept as it was: the word-sum loops of
``enumerate_spectrum`` and ``atomic_approximation``, the per-l map loop of
``apply_ruelle`` and the box-invariance check, the accumulate-and-break
loop of ``attractor_hull`` and the leaf-box loop of the completeness tree.
The primitives must reproduce their bits (``tobytes``), signed zeros
included, since the CLI digests and ``q_error`` rest on them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalspec import (
    ConvergenceError,
    FractalMeasure,
    atomic_approximation,
    attractor_hull,
    make_system,
)
from fractalspec.spectrum import BOX_MARGIN, _leaf_box
from fractalspec.systems import (
    BOX_TOL,
    certified_tails,
    dual_box,
    dual_points,
    grow_invariant_box,
    word_sums,
)
from tests.conftest import generated_triples, grid1d, hadamard_triple, triple_params


def reference_word_sums(digits, step, levels):
    sums = np.zeros((1, digits.shape[1]))
    contrib = digits.copy()
    for _ in range(levels):
        sums = (sums[:, None, :] + contrib[None, :, :]).reshape(-1, digits.shape[1])
        contrib = contrib @ step
    return sums


def reference_dual_points(sys, pts):
    """(M, |L|, d) images, one map at a time."""
    return np.stack([(pts - l) @ sys.rinv for l in sys.L], axis=1)


def reference_hull_box(sys, tol=BOX_TOL):
    """The hull's box before growth, and its depth."""
    tails = certified_tails(sys)
    rinv = sys.rinv
    max_l = float(np.max(np.linalg.norm(sys.L, axis=1)))
    lo = np.zeros(sys.d)
    hi = np.zeros(sys.d)
    contrib = sys.L @ rinv
    for level in range(1, tails.size - 1):
        lo += (-contrib).min(axis=0)
        hi += (-contrib).max(axis=0)
        tail = tails[level + 1] * max_l
        if tail <= tol:
            break
        contrib = contrib @ rinv
    else:
        raise ConvergenceError(f"attractor tail radius {tail:.3e} above {tol:.1e} after {level} levels")
    return np.stack([lo - tail, hi + tail], axis=1), level


def reference_leaf_level_box(sys, grid, depth):
    """The leaf box's level-by-level part, before its margin."""
    mapped = grid
    for _ in range(depth + 1):
        mapped = mapped @ sys.rinv
    lo, hi = mapped.min(axis=0), mapped.max(axis=0)
    contrib = sys.L
    for _ in range(depth + 1):
        contrib = contrib @ sys.rinv
        lo = lo - contrib.max(axis=0)
        hi = hi - contrib.min(axis=0)
    return lo, hi


def reference_leaf_box(sys, grid, depth):
    lo, hi = reference_leaf_level_box(sys, grid, depth)
    margin = BOX_MARGIN * (1.0 + max(np.abs(lo).max(), np.abs(hi).max()))
    box = np.stack([lo - margin, hi + margin], axis=1)
    try:
        return grow_invariant_box(sys, box, -margin, pad=2.0 * margin)
    except ConvergenceError:
        return None


def assert_same_bits(actual, expected):
    if expected is None:
        assert actual is None
        return
    actual = np.asarray(actual)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


SYSTEMS = {
    "cantor4": lambda: make_system(4.0, [0.0, 0.5], [0.0, 1.0]),
    "quad2d": lambda: make_system(
        [[4.0, 0.0], [0.0, 4.0]],
        [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    ),
    "R=-4": lambda: make_system(-4.0, [0.0, 0.5], [0.0, 1.0]),
    "R=-3": lambda: make_system(-3.0, [0.0, 0.5], [0.0, 1.0]),
    # N = 1: every contribution is a zero whose sign follows R's and the digit's
    "N=1, R=-4": lambda: make_system(-4.0, [0.0], [0.0]),
    "N=1, R=-4, L=-0": lambda: make_system(-4.0, [0.5], [-0.0]),
    "N=1, 2-D": lambda: make_system([[-3.0, 1.0], [0.0, -2.0]], [[0.0, -0.0]], [[-0.0, 0.0]]),
}


def grids(sys):
    """Grids holding 0, -0.0 and points of both signs."""
    if sys.d == 1:
        return [grid1d(-1.0, 1.0, 0.25), np.array([[-0.0]]), np.array([[0.0], [-0.0]])]
    return [np.array([[0.0, -0.0], [-0.5, 0.25], [1.0, -1.0]]), np.zeros((1, sys.d))]


def assert_matches_references(sys, max_levels=4):
    for levels in range(max_levels + 1):
        assert_same_bits(word_sums(sys.L, sys.R, levels), reference_word_sums(sys.L, sys.R, levels))
        assert_same_bits(
            word_sums(sys.B, sys.rinv.T, levels), reference_word_sums(sys.B, sys.rinv.T, levels)
        )
    expected, level = reference_hull_box(sys)
    radius = certified_tails(sys)[level + 1] * float(np.max(np.linalg.norm(sys.L, axis=1)))
    assert_same_bits(dual_box(sys, np.zeros((1, sys.d)), level) + np.array([-radius, radius]), expected)
    assert_same_bits(attractor_hull(sys), grow_invariant_box(sys, expected, BOX_TOL))
    for grid in grids(sys):
        for depth in range(max_levels):
            lo, hi = reference_leaf_level_box(sys, grid, depth)
            assert_same_bits(dual_box(sys, grid, depth + 1), np.stack([lo, hi], axis=1))
            assert_same_bits(_leaf_box(sys, grid, depth), reference_leaf_box(sys, grid, depth))


@pytest.mark.parametrize("name", SYSTEMS)
def test_primitives_match_the_old_loops(name):
    assert_matches_references(SYSTEMS[name]())


@pytest.mark.parametrize("name", SYSTEMS)
def test_atoms_match_the_old_loop(name):
    sys = SYSTEMS[name]()
    m = FractalMeasure(sys)
    for depth in range(4):
        expected = reference_word_sums(sys.B, sys.rinv.T, depth)
        assert_same_bits(atomic_approximation(m, depth).points, expected)


@pytest.mark.parametrize("name", SYSTEMS)
def test_word_sums_continue_given_prefix_sums(name):
    # the streamed round-trip extends each prefix by the trailing letters;
    # the atoms must keep the bits of one chain over all the letters
    sys = SYSTEMS[name]()
    for digits, step in ((sys.B, sys.rinv.T), (sys.L, sys.R)):
        for levels in range(5):
            whole = word_sums(digits, step, levels)
            for first in range(levels + 1):
                prefixes = word_sums(digits, step, first)
                rows = [word_sums(digits, step, levels, p[None], first) for p in prefixes]
                assert_same_bits(np.concatenate(rows), whole)
                assert_same_bits(word_sums(digits, step, levels, prefixes, first), whole)


@settings(max_examples=40, deadline=None)
@given(triple_params)
def test_primitives_match_the_old_loops_on_triples(params):
    n, k, lift = params
    assert_matches_references(hadamard_triple(n, k, lift), max_levels=3)


def test_hull_depth_is_the_first_within_tolerance():
    # R = 1.01 decays so slowly that only the last level, K = 255, has a
    # tail radius (about 7.9) within a tolerance that large
    sys = make_system(1.01, [0.0, 0.5], [0.0, 1.0])
    last = float(certified_tails(sys)[-1])  # tails[256] max|l|, max|l| = 1
    expected, level = reference_hull_box(sys, tol=last)
    assert level == 255
    assert_same_bits(attractor_hull(sys, tol=last), grow_invariant_box(sys, expected, last))
    below = float(np.nextafter(last, 0.0))
    with pytest.raises(ConvergenceError) as error:
        attractor_hull(sys, tol=below)
    assert str(error.value) == f"attractor tail radius {last:.3e} above {below:.1e} after 255 levels"


DUAL_SYSTEMS = {
    **SYSTEMS,
    # non-normal R: each image coordinate sums two rounded products
    "R=[[4, 2], [0, 4]]": lambda: make_system(
        [[4.0, 2.0], [0.0, 4.0]],
        [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    ),
}


def assert_dual_points_match(sys, seed=0):
    rng = np.random.default_rng(seed)
    for pts in grids(sys) + [rng.uniform(-3.0, 3.0, size=(257, sys.d))]:
        expected = reference_dual_points(sys, pts)
        assert_same_bits(dual_points(sys, pts), expected)
        # any leading shape: the (grid, nodes, d) points of the word tree
        stacked = np.stack([pts, -pts])
        expected = np.stack([expected, reference_dual_points(sys, -pts)])
        assert_same_bits(dual_points(sys, stacked), expected)


@pytest.mark.parametrize("name", DUAL_SYSTEMS)
def test_dual_points_match_the_per_map_loop(name):
    assert_dual_points_match(DUAL_SYSTEMS[name]())


@settings(max_examples=40, deadline=None)
@given(sys=generated_triples, seed=st.integers(0, 2**16))
def test_dual_points_match_the_per_map_loop_on_triples(sys, seed):
    assert_dual_points_match(sys, seed)
