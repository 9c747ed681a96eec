import re
import warnings

import numpy as np
import pytest

from fractalspec import (
    FractalMeasure,
    ValidationError,
    basis_certificate,
    check_hadamard,
    hadamard_matrix,
    load_system,
    make_system,
    parse_system,
    scale_system,
    spectral_expansiveness,
    two_digit_system,
    validate_compatibility,
    validate_system,
)
from fractalspec._numeric import operator_norm, power_norm_tail, power_norms
from fractalspec.systems import (
    INV_POWER_DEPTH,
    adjoint_power_norms,
    integral_system,
    parse_number,
    unitarity_tolerance,
)


def per_power_norms(mat, count):
    """Reference: ||mat^-k|| one operator_norm call per accumulated power."""
    inv = np.linalg.inv(np.asarray(mat, dtype=float))
    norms = np.empty(count)
    acc = np.eye(inv.shape[0])
    for k in range(count):
        norms[k] = operator_norm(acc)
        acc = acc @ inv
    return norms


def two_pass_tails(R):
    """Reference: the tails as built from two separate passes over (R^T)^-k,
    the second one restarting from matrix_power at INV_POWER_DEPTH."""
    mat = np.asarray(R, dtype=float).T
    norms = per_power_norms(mat, INV_POWER_DEPTH)
    below = np.nonzero(norms <= 0.5)[0]
    below = below[below > 0]
    if below.size == 0:
        beyond = float("inf")
    else:
        k0 = int(below[0])
        inv = np.linalg.inv(mat)
        acc = np.linalg.matrix_power(inv, INV_POWER_DEPTH)
        block = 0.0
        for _ in range(k0):
            block += operator_norm(acc)
            acc = acc @ inv
        beyond = block / (1.0 - norms[k0])
    return np.concatenate([np.cumsum(norms[::-1])[::-1] + beyond, [beyond]])


def seeded_expansive(d, seed):
    rng = np.random.default_rng(seed)
    while True:
        mat = rng.normal(scale=2.0, size=(d, d))
        if np.min(np.abs(np.linalg.eigvals(mat))) > 1.0:
            return mat


class TestMakeSystem:
    def test_canonical_sorted_digits(self):
        s = make_system(4.0, [0.5, 0.0], [1.0, 0.0])
        assert s.B.ravel().tolist() == [0.0, 0.5]
        assert s.L.ravel().tolist() == [0.0, 1.0]

    def test_arrays_immutable(self, cantor4):
        with pytest.raises(ValueError):
            cantor4.B[0, 0] = 7.0

    def test_duplicate_digits_rejected(self):
        with pytest.raises(ValidationError):
            make_system(4.0, [0.0, 0.0], [0.0, 1.0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            make_system(4.0, [0.0, 0.5], [0.0, 1.0, 2.0])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            make_system(4.0, [0.0, np.nan], [0.0, 1.0])

    def test_singular_rejected(self):
        with pytest.raises(ValidationError):
            make_system([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0]], [[0.0, 0.0]])

    def test_bad_scale_rejected(self, cantor4):
        with pytest.raises(ValidationError):
            scale_system(cantor4, 0)


class TestCompatibility:
    def test_cantor4_integral_shortcut(self, cantor4):
        # R integer, R*B and L integral: one identity settles every n
        rep = validate_compatibility(cantor4)
        assert rep.exact_shortcut_used
        assert rep.max_integrality_defect == 0.0
        assert rep.compatible

    def test_cantor4_generic_path_agrees(self, cantor4):
        rep = validate_compatibility(cantor4, n_max=12, allow_shortcut=False)
        assert not rep.exact_shortcut_used
        assert rep.max_integrality_defect == 0.0

    @pytest.mark.parametrize("fixture", ["quad2d", "even2"])
    def test_shortcut_agreement_on_integral_systems(self, fixture, request):
        s = request.getfixturevalue(fixture)
        with_shortcut = validate_compatibility(s)
        without = validate_compatibility(s, allow_shortcut=False)
        assert with_shortcut.exact_shortcut_used
        assert with_shortcut.max_integrality_defect <= 1e-9
        assert without.max_integrality_defect <= 1e-9

    @pytest.mark.parametrize(
        "R, B, L, bounded, exact",
        [
            (2.0, [0.0, 0.25], [0.0, 2.0], True, True),  # R B = {0, 1/2} is not integral
            (3.0, [0.0, 1.0 / 3.0], [0.0, 1.0], True, False),  # 3 * float(1/3) != 1
            (3.0, [0.0, 0.5], [0.0, 1.0], False, False),
            ([[2.0, 1.0], [0.0, 2.0]], [[0.0, 0.0], [0.25, 0.0]], [[0.0, 0.0], [2.0, 0.0]], True, True),
        ],
    )
    def test_integral_system(self, R, B, L, bounded, exact):
        # R and L integral with R^n b.l integral for n = 1..d settles every n;
        # the shortcut needs exact integers, the bounded check a small defect
        s = make_system(R, B, L)
        assert integral_system(s) == exact
        assert validate_compatibility(s).exact_shortcut_used == exact
        rep = validate_compatibility(s, n_max=12, allow_shortcut=False)
        assert (rep.max_integrality_defect <= 1e-9) == bounded

    def test_near_integral_scale_takes_no_shortcut(self):
        # R = 4 + 1e-10 is integral within 1e-9 up to n = d, but R^n b.l
        # drifts: 4^12 * (1 + 12 * 2.5e-11) / 2 is 0.0025 off an integer
        s = make_system(4.0 + 1e-10, [0.0, 0.5], [0.0, 1.0])
        rep = validate_compatibility(s)
        assert not rep.exact_shortcut_used
        assert rep.max_integrality_defect == pytest.approx(0.0025, rel=0.01)
        assert not rep.compatible and not rep.valid

    def test_zero_frequency_always_compatible(self):
        s = make_system(2.5, [1.0 / 3.0], [0.0])
        rep = validate_compatibility(s)
        assert rep.max_integrality_defect == 0.0

    def test_odd_scale_defect_is_half(self, odd3):
        # 3^n * (1/2) * 1 sits exactly between integers for every n
        rep = validate_compatibility(odd3)
        assert rep.max_integrality_defect == pytest.approx(0.5, abs=0)
        assert not rep.compatible

    def test_bad_n_max(self, cantor4):
        with pytest.raises(ValidationError):
            validate_compatibility(cantor4, n_max=0)

    def test_report_fields_nonnegative(self, odd3):
        rep = validate_compatibility(odd3)
        assert rep.max_integrality_defect >= 0.0
        assert rep.hadamard_deviation >= 0.0
        assert rep.exact_shortcut_used is False


class TestHadamard:
    def test_cantor4_exact_zero(self, cantor4):
        assert check_hadamard(cantor4) == 0.0
        h = hadamard_matrix(cantor4)
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(h, expected)

    def test_single_digit(self):
        s = make_system(3.0, [0.0], [0.0])
        assert check_hadamard(s) == 0.0

    def test_third_digit_fails(self):
        # rows <1,1> and <1, e^{2pi i/3}> have inner product of modulus 1
        s = make_system(4.0, [0.0, 1.0 / 3.0], [0.0, 1.0])
        assert check_hadamard(s) == pytest.approx(0.5, abs=1e-12)

    def test_translation_invariance(self, cantor4):
        # shifting B by c with c.l integral leaves the matrix unchanged
        shifted = make_system(4.0, [1.0, 1.5], [0.0, 1.0])
        assert check_hadamard(shifted) == pytest.approx(0.0, abs=1e-15)


class TestUnitarityTolerance:
    """One tolerance, derived from the system, decides unitarity everywhere."""

    def test_perturbed_digit_rejected_everywhere(self):
        # deviation 3.14e-11: far above rounding, far below the old 1e-9
        s = make_system(4.0, [0.0, 0.5 + 1e-11], [0.0, 1.0])
        assert check_hadamard(s) > 1000 * unitarity_tolerance(s)
        assert validate_system(s).hadamard_ok is False
        with pytest.raises(ValidationError, match="digit matrix is not unitary"):
            FractalMeasure(s)

    def test_large_frequencies_still_unitary(self):
        # exact Hadamard triple whose phases reach 4001.6: rounding alone
        # gives a deviation above 1e-12
        s = make_system(10.0, np.arange(5) / 5, [0.0, 1.0, 5002.0, 3.0, 4.0])
        rep = validate_system(s)
        assert 1e-12 < rep.hadamard_deviation <= unitarity_tolerance(s)
        assert rep.hadamard_ok and rep.valid
        assert basis_certificate(FractalMeasure(s)).hadamard_deviation == rep.hadamard_deviation

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8])
    def test_lifted_triples_within_tolerance(self, n):
        # R = N, B = {0..N-1}/N, L = {0..N-1} + N * lift: exactly unitary
        rng = np.random.default_rng(n)
        for scale in (1, 10, 10**3, 10**5):
            lift = np.concatenate([[0], rng.integers(0, scale + 1, n - 1)])
            s = make_system(float(n), np.arange(n) / n, np.arange(n) + n * lift)
            assert check_hadamard(s) <= unitarity_tolerance(s)

    def test_formula(self, quad2d):
        # N = 4, d = 2, S = max_{b,l} sum_k |b_k l_k| = 1
        eps = np.finfo(float).eps
        assert unitarity_tolerance(quad2d) == eps * 4 * (8 * np.pi + 14)


class TestExpansiveness:
    @pytest.mark.parametrize(
        "R,expected",
        [
            (4.0, (True, 4.0)),
            (1.0, (False, 1.0)),
            ([[0.0, 2.0], [2.0, 0.0]], (True, 2.0)),
        ],
    )
    def test_examples(self, R, expected):
        d = 1 if np.isscalar(R) else 2
        digits = [0.0] if d == 1 else [[0.0, 0.0]]
        s = make_system(R, digits, digits)
        ok, margin = spectral_expansiveness(s)
        assert ok == expected[0]
        assert margin == pytest.approx(expected[1], rel=1e-12)

    def test_power_norms_decay(self):
        # non-normal expansive matrix: one-step norm exceeds 1, powers decay
        s = make_system([[2.0, 10.0], [0.0, 2.0]], [[0.0, 0.0]], [[0.0, 0.0]])
        c = adjoint_power_norms(s, 64)
        assert c[1] > 1.0
        assert np.any(c < 1.0)
        # submultiplicativity c_{k+m} <= c_k c_m on a sample of pairs
        for k in (1, 2, 5):
            for mm in (1, 3, 7):
                assert c[k + mm] <= c[k] * c[mm] + 1e-12
        assert c[40] < c[20] < c[10]


class TestDerivedFromR:
    def test_rinv_is_cached_and_read_only(self, quad2d):
        assert np.array_equal(quad2d.rinv, np.linalg.inv(quad2d.R))
        assert quad2d.rinv is quad2d.rinv
        with pytest.raises(ValueError):
            quad2d.rinv[0, 0] = 1.0

    @pytest.mark.parametrize("r", [2, 3])
    def test_scaled_system_has_its_own_cache(self, cantor4, quad2d, r):
        for s in (cantor4, quad2d):
            before = s.rinv.copy()
            scaled = scale_system(s, r)
            assert np.array_equal(scaled.rinv, s.rinv / r)
            assert scaled.rinv is not s.rinv
            assert scaled.inv_power_tails is not s.inv_power_tails
            assert np.array_equal(s.rinv, before)

    def test_inv_power_tails_bound_suffix_sums(self):
        # non-normal R: ||R^-k|| is far from ||R^-1||^k
        s = make_system([[2.0, 10.0], [0.0, 2.0]], [[0.0, 0.0]], [[0.0, 0.0]])
        tails = s.inv_power_tails
        assert tails.shape == (INV_POWER_DEPTH + 1,)
        assert not tails.flags.writeable
        c = adjoint_power_norms(s, 2 * INV_POWER_DEPTH)
        for K in (0, 1, 5, 40, INV_POWER_DEPTH):
            assert tails[K] >= c[K:].sum()
        assert np.all(np.diff(tails) <= 0.0)

    def test_inv_power_tails_infinite_without_decay(self):
        # no NaN, no exception and no warning, also where the powers overflow
        for R in (1.0, 0.01, np.eye(2), np.eye(2) / 100):
            d = np.atleast_2d(R).shape[0]
            s = make_system(R, np.zeros((1, d)), np.zeros((1, d)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tails = s.inv_power_tails
            assert np.all(np.isposinf(tails))

    @pytest.mark.parametrize(
        "mat",
        [np.array([[2.0, 10.0], [0.0, 2.0]])]
        + [seeded_expansive(d, seed) for d in (2, 3) for seed in range(4)],
        ids=["non-normal"] + [f"d{d}-seed{seed}" for d in (2, 3) for seed in range(4)],
    )
    def test_batched_power_norms_match_per_power_loop(self, mat):
        assert np.array_equal(power_norms(mat, INV_POWER_DEPTH), per_power_norms(mat, INV_POWER_DEPTH))
        # a stack, as a scaling sweep builds it: each row has its own matrix's bits
        stack = np.stack([r * mat for r in (1.0, 2.0, 3.0, 16.0)] + [mat.T])
        rows = power_norms(stack, INV_POWER_DEPTH)
        assert rows.shape == (stack.shape[0], INV_POWER_DEPTH)
        for row, one in zip(rows, stack):
            assert row.tobytes() == per_power_norms(one, INV_POWER_DEPTH).tobytes()

    def test_power_norms_mark_overflow_as_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = power_norms(np.diag([0.01, 100.0]), INV_POWER_DEPTH)
        assert np.all(norms >= 1.0) and np.isposinf(norms[-1])
        assert not np.any(np.isnan(norms))

    @pytest.mark.parametrize("base", ["cantor4", "quad2d", 2, 3, -4, 6, 8])
    def test_inv_power_tails_match_two_pass_construction(self, request, base):
        if isinstance(base, str):
            s = request.getfixturevalue(base)
        else:
            s = two_digit_system(base, 0.5)
        for r in range(1, 17):
            scaled = scale_system(s, r)
            expected = two_pass_tails(scaled.R)
            assert np.array_equal(scaled.inv_power_tails[:65], expected[:65])

    def test_power_norm_tail_geometric_is_exact(self):
        # ||A^-k|| = 2^-k: sum_{k >= 10} 2^-k = 2^-9
        assert power_norm_tail(0.5 ** np.arange(10)) == 2.0**-9

    def test_power_norm_tail_block_is_first_norm_at_most_half(self):
        # k0 = 2: 0.5 * (0.5 + 0.125) / (1 - 0.5)
        assert power_norm_tail([1.0, 0.75, 0.5, 0.125]) == 0.625

    def test_power_norm_tail_bounds_the_true_tail(self):
        # non-normal: ||A^-1|| > 1, so the block length k0 is above 1
        c = adjoint_power_norms(
            make_system([[2.0, 10.0], [0.0, 2.0]], [[0.0, 0.0]], [[0.0, 0.0]]), 1024
        )
        assert c[1] > 0.5
        for n in (8, 20, 64):
            assert power_norm_tail(c[:n]) >= c[n:].sum()


class TestTwoDigitSystem:
    def test_default_frequencies(self):
        s = two_digit_system(4, 0.25)
        assert s.R[0, 0] == 4.0
        assert s.B.ravel().tolist() == [0.0, 0.25]
        assert s.L.ravel().tolist() == [0.0, 2.0]
        assert check_hadamard(s) == 0.0

    def test_explicit_frequencies(self):
        s = two_digit_system(3, 0.5, L=[1.0, 0.0])
        assert s.L.ravel().tolist() == [0.0, 1.0]

    def test_zero_digit_rejected(self):
        with pytest.raises(ValidationError, match="nonzero"):
            two_digit_system(4, 0.0)


def test_validate_system_is_validate_compatibility():
    assert validate_system is validate_compatibility


class TestScaling:
    def test_identity_scale(self, cantor4):
        assert scale_system(cantor4, 1) is cantor4

    def test_doubling(self, cantor4):
        s = scale_system(cantor4, 2)
        assert s.R[0, 0] == 8.0
        assert s.r == 2
        rep = validate_compatibility(s)
        assert rep.max_integrality_defect == 0.0

    def test_hadamard_unchanged(self, cantor4):
        # the digit matrix involves only B and L
        assert check_hadamard(scale_system(cantor4, 3)) == check_hadamard(cantor4)


class TestSpecFiles:
    def test_rational_strings_exact(self, write_system):
        path = write_system({"d": 1, "R": [[4]], "B": ["0", "1/2"], "L": ["0", "1"]})
        s = load_system(path)
        assert s.B.ravel().tolist() == [0.0, 0.5]

    def test_scalar_matrix_and_r(self, write_system):
        path = write_system({"d": 1, "R": [[3]], "B": [0, 0.5], "L": [0, 1], "r": 2})
        s = load_system(path)
        assert s.r == 2

    def test_r_scales_R(self):
        s = parse_system({"d": 1, "R": [[3]], "B": [0, 0.5], "L": [0, 1], "r": 2})
        assert s.R.tolist() == [[6.0]]
        assert validate_compatibility(s).valid

    def test_scale_rejects_booleans(self, cantor4):
        with pytest.raises(ValidationError, match="^scale r must be a positive integer, got True$"):
            scale_system(cantor4, True)

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="missing key"):
            parse_system({"d": 1, "R": [[4]], "B": [0]})

    def test_parse_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError, match="line 1"):
            load_system(str(bad))

    @pytest.mark.parametrize(
        "value, expected",
        [(3, 3.0), (0.25, 0.25), ("1/3", 1 / 3), (" -2/4 ", -0.5), ("0.1", 0.1), ("1e-400", 0.0)],
    )
    def test_parse_number(self, value, expected):
        assert parse_number(value) == expected

    @pytest.mark.parametrize(
        "value",
        # float() takes booleans, but JSON true/false are not numbers
        ["1/0", 10**400, "1e400", "10**400/1", "nan", "inf", float("nan"), "abc", "", None, [1], {},
         True, False, np.True_, np.False_],
    )
    def test_parse_number_rejects(self, value):
        with pytest.raises(ValidationError, match="^not a finite number: "):
            parse_number(value)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "must hold a JSON object, got list"),
            ({"d": 1.7, "R": [4], "B": [0], "L": [0]}, "d must be a positive integer, got 1.7"),
            ({"d": True, "R": [4], "B": [0], "L": [0]}, "d must be a positive integer, got True"),
            ({"d": 0, "R": [4], "B": [0], "L": [0]}, "d must be a positive integer, got 0"),
            ({"d": 2, "R": [4], "B": [0], "L": [0]}, "R has 1 entries, d = 2 needs 4"),
            ({"d": 1, "R": [4], "B": [0], "L": [0], "r": 1.5}, "got 1.5"),
            ({"d": 1, "R": [4], "B": [0], "L": [0], "r": None}, "got None"),
            ({"d": 1, "R": [4], "B": [0], "L": [0], "r": True}, "got True"),
        ],
    )
    def test_shape_rejected(self, doc, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_system(doc)

    def test_two_dimensional_file(self, write_system):
        path = write_system(
            {
                "d": 2,
                "R": [[4, 0], [0, 4]],
                "B": [["0", "0"], ["1/2", "0"]],
                "L": [[0, 0], [1, 1]],
            }
        )
        s = load_system(path)
        assert s.d == 2
        assert check_hadamard(s) == 0.0
