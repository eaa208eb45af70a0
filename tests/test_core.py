import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpl.core import (
    COMPLEX,
    REAL,
    DualFamily,
    Frame,
    analysis_coefficients,
    apply_unitary,
    canonical_dual,
    cross_gramian,
    dual_family,
    frame_operator,
    is_dual,
    is_tight,
    make_frame,
)
from fpl.errors import (
    DomainError,
    NotAFrame,
    NotUnitary,
    ShapeError,
    ShapeMismatch,
    SingularOperator,
)

import fpl
from fpl.potentials import frame_potential
from conftest import random_frame_matrix


def test_package_exports_resolve_and_exclude_modules():
    assert "__version__" in fpl.__all__
    assert len(set(fpl.__all__)) == len(fpl.__all__)
    for name in fpl.__all__:
        assert not isinstance(getattr(fpl, name), types.ModuleType), name


class TestConstruction:
    def test_shape_and_properties(self, trident):
        assert trident.n == 2
        assert trident.k == 3
        assert trident.field == REAL
        assert trident.synthesis.shape == (2, 3)
        np.testing.assert_array_equal(trident.vector(0), [0.0, 1.0])
        np.testing.assert_array_equal(trident.vector(2), [-1.0, 1.0])

    def test_analysis_is_conjugate_transpose(self):
        f = make_frame(np.array([[1j, 0, 1], [0, 1, 1j]]))
        np.testing.assert_array_equal(f.analysis, f.synthesis.conj().T)
        assert f.field == COMPLEX

    def test_synthesis_is_frozen(self, trident):
        with pytest.raises(ValueError):
            trident.synthesis[0, 0] = 7.0

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ShapeError):
            make_frame(np.ones(3))

    def test_rejects_fewer_vectors_than_dimensions(self):
        with pytest.raises(ShapeError):
            make_frame(np.ones((3, 2)))

    def test_rejects_rank_deficient_vectors(self):
        with pytest.raises(NotAFrame):
            make_frame([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(1.0, np.inf)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(DomainError):
            make_frame([[bad, 0.0, 1.0], [0.0, 1.0, 1.0]])

    def test_rejects_entries_whose_potentials_overflow(self):
        # sigma_max = sqrt(3) s, so n sigma_max^4 = 18 s^4: finite at
        # s = 1e76, beyond the largest float at s = 1e77.
        m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        f = make_frame(1e76 * m)
        assert np.isfinite(frame_potential(f))
        with pytest.raises(DomainError, match="n \\* sigma_max\\^4"):
            make_frame(1e77 * m)
        with pytest.raises(DomainError):
            make_frame(1e200j * m)

    def test_rank_check_is_relative_to_scale(self):
        m = 1e-12 * np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert make_frame(m).n == 2

    def test_square_basis_is_a_frame(self):
        f = make_frame(np.eye(3))
        assert f.n == f.k == 3

    def test_integer_input_is_coerced_to_float(self):
        f = make_frame([[1, 0, 1], [0, 1, 1]])
        assert f.synthesis.dtype == np.float64


class TestFrameOperator:
    def test_known_diagonal_operator(self, trident):
        op = frame_operator(trident)
        np.testing.assert_allclose(op.matrix, np.diag([2.0, 3.0]), atol=1e-12)
        assert op.lower == pytest.approx(2.0, abs=1e-12)
        assert op.upper == pytest.approx(3.0, abs=1e-12)

    def test_eigenvalues_match_independent_computation(self):
        rng = np.random.default_rng(5)
        m = random_frame_matrix(rng, 3, 6, "complex")
        op = frame_operator(make_frame(m))
        expected = np.sort(np.linalg.eigvalsh(m @ m.conj().T))
        np.testing.assert_allclose(op.eigenvalues, expected, atol=1e-10)

    def test_tightness(self, mercedes, trident):
        assert is_tight(mercedes)
        assert not is_tight(trident)
        op = frame_operator(mercedes)
        np.testing.assert_allclose(op.matrix, 1.5 * np.eye(2), atol=1e-12)


class TestCanonicalDual:
    def test_trident_dual_is_exact(self, trident):
        dual = canonical_dual(trident)
        expected = np.array([[0.0, 0.5, -0.5],
                             [1 / 3, 1 / 3, 1 / 3]])
        np.testing.assert_allclose(dual.synthesis, expected, atol=1e-15)

    def test_dual_of_tight_frame_is_scaled_frame(self, mercedes):
        dual = canonical_dual(mercedes)
        np.testing.assert_allclose(dual.synthesis, mercedes.synthesis / 1.5,
                                   atol=1e-12)

    def test_duality_holds_for_random_frames(self):
        for seed, (n, k, field) in enumerate(
                [(2, 5, "real"), (3, 4, "complex"), (4, 8, "complex")]):
            m = random_frame_matrix(np.random.default_rng(seed), n, k, field)
            f = make_frame(m)
            assert is_dual(f, canonical_dual(f))

    def test_singular_operator_is_reported(self):
        # Frame() skips the rank check, so a defective matrix gets through.
        bad = Frame(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(SingularOperator):
            canonical_dual(bad)

    def test_near_singular_verdict_does_not_follow_rounding(self):
        # sigma_min / sigma_max = 3e-10 passes make_frame, but S's smallest
        # eigenvalue, 9e-20, lies far below eigvalsh's rounding of about
        # 1e-16, whose sign varies with the rotation.  Every rotation must
        # get the same verdict.
        sigma = np.diag([1.0, 1e-4, 3e-10])
        verdicts = set()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            left = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            right = np.linalg.qr(rng.standard_normal((5, 3)))[0].T
            f = make_frame(left @ sigma @ right)
            try:
                canonical_dual(f)
                verdicts.add("dual")
            except SingularOperator:
                verdicts.add("singular")
        assert verdicts == {"singular"}


class TestIsDual:
    def test_accepts_published_alternate_dual(self, trident, trident_flat_dual):
        assert is_dual(trident, trident_flat_dual)

    def test_rejects_scaled_dual(self, trident):
        dual = canonical_dual(trident)
        halved = Frame(np.column_stack(
            [dual.vector(0) / 2, dual.vector(1), dual.vector(2)]))
        assert not is_dual(trident, halved)

    def test_tolerance_is_max_norm_on_the_residual(self, trident):
        dual = canonical_dual(trident)
        bumped = dual.synthesis.copy()
        bumped[0, 0] += 3e-9  # residual entry becomes 3e-9
        assert not is_dual(trident, Frame(bumped), tol=1e-9)
        assert is_dual(trident, Frame(bumped), tol=1e-8)

    def test_shape_mismatch_is_an_error(self, trident):
        with pytest.raises(ShapeMismatch):
            is_dual(trident, make_frame(np.eye(2)))

    def test_field_mismatch_is_an_error(self, trident):
        other = make_frame(trident.synthesis.astype(complex))
        with pytest.raises(ShapeMismatch):
            is_dual(trident, other)


class TestCrossGramian:
    def test_published_matrices(self, trident, trident_flat_dual):
        canonical = cross_gramian(trident, canonical_dual(trident))
        expected = np.array([[1 / 3, 1 / 3, 1 / 3],
                             [1 / 3, 5 / 6, -1 / 6],
                             [1 / 3, -1 / 6, 5 / 6]])
        np.testing.assert_allclose(canonical.entries, expected, atol=1e-15)
        flat = cross_gramian(trident, trident_flat_dual)
        expected = np.array([[1.0, 0.0, 0.0],
                             [1.0, 0.5, -0.5],
                             [1.0, -0.5, 0.5]])
        np.testing.assert_allclose(flat.entries, expected, atol=1e-15)

    def test_first_argument_is_conjugated(self):
        f = make_frame(np.array([[1j, 0.0], [0.0, 1.0]]))
        g = make_frame(np.array([[1.0, 1j], [1j, 0.0]]))
        gram = cross_gramian(f, g)
        k = 2
        for i in range(k):
            for j in range(k):
                expected = np.vdot(f.vector(i), g.vector(j))
                assert gram.entries[i, j] == pytest.approx(expected)

    def test_dual_pair_gramian_is_idempotent_with_trace_n(self):
        rng = np.random.default_rng(11)
        f = make_frame(random_frame_matrix(rng, 3, 5, "complex"))
        family = dual_family(f)
        h = family.dual(family.random_param(rng))
        g = cross_gramian(f, h).entries
        np.testing.assert_allclose(g @ g, g, atol=1e-10)
        assert np.trace(g) == pytest.approx(3.0, abs=1e-10)

    def test_canonical_gramian_is_self_adjoint(self, trident):
        g = cross_gramian(trident, canonical_dual(trident)).entries
        np.testing.assert_allclose(g, g.conj().T, atol=1e-12)

    def test_diagonal_helper(self, trident, trident_flat_dual):
        gram = cross_gramian(trident, trident_flat_dual)
        np.testing.assert_allclose(gram.diagonal(), [1.0, 0.5, 0.5],
                                   atol=1e-15)

    def test_offdiagonal_helper_is_row_major(self, trident, trident_flat_dual):
        gram = cross_gramian(trident, trident_flat_dual)
        np.testing.assert_allclose(gram.offdiagonal(),
                                   [0.0, 0.0, 1.0, -0.5, 1.0, -0.5],
                                   atol=1e-15)


class TestAnalysisCoefficients:
    def test_coefficients_reconstruct_through_a_dual(self, trident):
        dual = canonical_dual(trident)
        x = np.array([0.7, -1.3])
        coeffs = analysis_coefficients(trident, x)
        np.testing.assert_allclose(dual.synthesis @ coeffs, x, atol=1e-12)

    def test_complex_convention(self):
        f = make_frame(np.array([[1j, 0.0], [0.0, 2.0]]))
        x = np.array([1.0 + 1j, 2.0])
        coeffs = analysis_coefficients(f, x)
        assert coeffs[0] == pytest.approx(np.vdot(x, f.vector(0)))
        assert coeffs[1] == pytest.approx(np.vdot(x, f.vector(1)))

    def test_wrong_length_vector(self, trident):
        with pytest.raises(ShapeMismatch):
            analysis_coefficients(trident, np.ones(3))


class TestApplyUnitary:
    def test_rotation_preserves_the_frame_operator_spectrum(self, trident):
        theta = 0.6
        u = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        rotated = apply_unitary(trident, u)
        np.testing.assert_allclose(frame_operator(rotated).eigenvalues,
                                   frame_operator(trident).eigenvalues,
                                   atol=1e-12)

    def test_rejects_non_unitary(self, trident):
        with pytest.raises(NotUnitary,
                           match=r"^matrix is not unitary within tolerance$"):
            apply_unitary(trident, [[1.0, 0.0], [0.0, 2.0]])

    def test_rejects_wrong_shape(self, trident):
        with pytest.raises(ShapeMismatch,
                           match=r"^unitary must be 2 x 2, got \(3, 3\)$"):
            apply_unitary(trident, np.eye(3))


class TestDualFamily:
    def test_null_basis_annihilates_the_frame(self, trident):
        family = dual_family(trident)
        prod = trident.synthesis @ family.null_basis
        np.testing.assert_allclose(prod, 0.0, atol=1e-12)
        gram = family.null_basis.conj().T @ family.null_basis
        np.testing.assert_allclose(gram, np.eye(1), atol=1e-12)

    def test_dimensions(self, trident):
        family = dual_family(trident)
        assert family.param_shape == (2, 1)
        assert family.dim == 2

    def test_every_member_is_a_dual(self):
        rng = np.random.default_rng(3)
        f = make_frame(random_frame_matrix(rng, 2, 6, "complex"))
        family = dual_family(f)
        for _ in range(5):
            h = family.dual(family.random_param(rng, scale=4.0))
            assert is_dual(f, h)

    def test_parameter_roundtrip(self):
        rng = np.random.default_rng(4)
        f = make_frame(random_frame_matrix(rng, 3, 6, "real"))
        family = dual_family(f)
        params = family.random_param(rng)
        recovered = family.parameter_of(family.dual(params))
        np.testing.assert_allclose(recovered, params, atol=1e-10)

    def test_flat_dual_lies_in_the_family(self, trident, trident_flat_dual):
        family = dual_family(trident)
        params = family.parameter_of(trident_flat_dual)
        assert params is not None
        rebuilt = family.dual(params)
        np.testing.assert_allclose(rebuilt.synthesis,
                                   trident_flat_dual.synthesis, atol=1e-12)

    def test_non_dual_is_outside_the_family(self, trident):
        assert dual_family(trident).parameter_of(trident) is None

    def test_zero_parameter_gives_the_canonical_dual(self, trident):
        family = dual_family(trident)
        np.testing.assert_allclose(family.dual(np.zeros((2, 1))).synthesis,
                                   canonical_dual(trident).synthesis,
                                   atol=1e-15)

    def test_square_frame_has_an_empty_family(self):
        f = make_frame(np.array([[2.0, 1.0], [0.0, 1.0]]))
        family = dual_family(f)
        assert family.dim == 0
        assert family.param_shape == (2, 0)
        only = family.dual(np.zeros((2, 0)))
        np.testing.assert_allclose(only.synthesis,
                                   canonical_dual(f).synthesis, atol=1e-12)

    def test_rejects_wrong_parameter_shape(self, trident):
        with pytest.raises(ShapeMismatch):
            dual_family(trident).dual(np.zeros((1, 2)))

    def test_rejects_complex_parameters_for_real_frames(self, trident):
        with pytest.raises(ShapeMismatch):
            dual_family(trident).dual(np.full((2, 1), 1j))

    def test_random_param_matches_field(self, trident):
        rng = np.random.default_rng(0)
        p = dual_family(trident).random_param(rng)
        assert p.shape == (2, 1)
        assert not np.iscomplexobj(p)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2 ** 31 - 1))
def test_canonical_dual_is_always_dual(n, extra, seed):
    k = n + extra
    m = random_frame_matrix(np.random.default_rng(seed), n, k, "real")
    f = make_frame(m)
    dual = canonical_dual(f)
    assert is_dual(f, dual)
    # minimal-energy property: the canonical Gramian is self-adjoint
    g = cross_gramian(f, dual).entries
    np.testing.assert_allclose(g, g.conj().T, atol=1e-8)


def test_dual_family_type_is_reusable(trident):
    family = dual_family(trident)
    assert isinstance(family, DualFamily)
    assert family.frame is trident
