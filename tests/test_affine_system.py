import numpy as np
import pytest

from fractalspec import (
    ValidationError,
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
from fractalspec.systems import INV_POWER_DEPTH, adjoint_power_norms


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
        s = make_system(1.0, [0.0], [0.0])
        assert np.all(np.isinf(s.inv_power_tails))


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

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="missing key"):
            parse_system({"d": 1, "R": [[4]], "B": [0]})

    def test_parse_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError, match="line 1"):
            load_system(str(bad))

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
