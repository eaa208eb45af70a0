import numpy as np
import pytest

from fpl import fusion
from fpl.errors import (
    EmptySubspace,
    NotAFusionFrame,
    NotUnitary,
    ShapeError,
    ShapeMismatch,
)
from fpl.fusion import (
    Subspace,
    apply_unitary_fusion,
    canonical_dual_fusion,
    cross_fusion_potential,
    fusion_potential,
    intersection_dim,
    is_orthonormal_fusion_basis,
    is_semi_orthogonal,
    is_tight_fusion,
    make_fusion_frame,
    orthogonal_complement,
    orthonormalize,
    structured_self_dual_check,
    subspace,
    subspaces_equal,
    subspaces_orthogonal,
)


def _pairwise_cross(ff, other):
    """Sum of Tr(P_i Q_j) over ordered pairs, the definition term by term."""
    return sum(float(np.sum(np.abs(wi.basis.conj().T @ wj.basis) ** 2))
               for wi in ff.subspaces for wj in other.subspaces)


def _random_fusion(rng, n, dims, field="real"):
    bases = []
    for d in dims:
        m = rng.standard_normal((n, d))
        if field == "complex":
            m = m + 1j * rng.standard_normal((n, d))
        bases.append(m)
    return make_fusion_frame(bases)


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestSubspace:
    def test_accepts_orthonormal_basis(self):
        w = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        assert w.n == 3 and w.dim == 2

    def test_rejects_skewed_basis(self):
        with pytest.raises(ShapeError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_empty_basis(self):
        with pytest.raises(EmptySubspace):
            Subspace(np.zeros((3, 0)))

    def test_rejects_too_many_columns(self):
        with pytest.raises(ShapeError):
            Subspace(np.eye(3)[:, :2].T)

    def test_projection_is_idempotent_and_self_adjoint(self):
        w = subspace(np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]]))
        p = w.projection()
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
        assert np.trace(p) == pytest.approx(w.dim)

    def test_orthonormalize_reports_the_adjustment(self):
        q, adjustment = orthonormalize(np.array([[2.0], [0.0]]))
        assert adjustment == pytest.approx(3.0)  # |4 - 1|
        np.testing.assert_allclose(np.abs(q), [[1.0], [0.0]], atol=1e-12)

    def test_orthonormalize_rejects_dependent_columns(self):
        with pytest.raises(NotAFusionFrame):
            orthonormalize(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))


class TestConstruction:
    def test_dims_and_operator(self, fusion_xy_z):
        assert fusion_xy_z.n == 3
        assert fusion_xy_z.k == 2
        assert fusion_xy_z.dims == (2, 1)
        np.testing.assert_allclose(fusion_xy_z.operator, np.eye(3),
                                   atol=1e-12)
        assert is_tight_fusion(fusion_xy_z)

    def test_published_operators(self, fusion_xy_antidiag, fusion_xy_tilted):
        np.testing.assert_allclose(
            fusion_xy_antidiag.operator,
            [[1.5, -0.5, 0.0], [-0.5, 1.5, 0.0], [0.0, 0.0, 1.0]],
            atol=1e-12)
        np.testing.assert_allclose(
            fusion_xy_tilted.operator,
            [[2.0, 0.0, 0.0], [0.0, 1.5, 0.5], [0.0, 0.5, 0.5]],
            atol=1e-12)
        assert not is_tight_fusion(fusion_xy_antidiag)
        assert not is_tight_fusion(fusion_xy_tilted)

    def test_rejects_non_spanning_subspaces(self):
        with pytest.raises(NotAFusionFrame):
            make_fusion_frame([np.array([[1.0], [0.0], [0.0]]),
                               np.array([[0.0], [1.0], [0.0]])])

    def test_rejects_mixed_ambient_dimensions(self):
        with pytest.raises(ShapeMismatch):
            make_fusion_frame([np.eye(3), np.eye(2)])

    def test_rejects_empty_collection(self):
        with pytest.raises(NotAFusionFrame):
            make_fusion_frame([])

    def test_operator_is_sum_of_projections(self, fusion_xy_tilted):
        total = sum(w.projection() for w in fusion_xy_tilted.subspaces)
        np.testing.assert_allclose(fusion_xy_tilted.operator, total,
                                   atol=1e-12)


class TestPotential:
    def test_published_values(self, fusion_xy_z, fusion_xy_antidiag,
                              fusion_xy_tilted):
        for ff, value, bound in ((fusion_xy_z, 3.0, 3.0),
                                 (fusion_xy_antidiag, 6.0, 16 / 3),
                                 (fusion_xy_tilted, 7.0, 16 / 3)):
            report = fusion_potential(ff)
            assert report.value == pytest.approx(value, abs=1e-12)
            assert report.bound == pytest.approx(bound, abs=1e-12)
            assert report.meets_bound

    def test_bound_equality_iff_tight(self, fusion_xy_z, fusion_xy_antidiag):
        assert fusion_potential(fusion_xy_z).equality_within <= 1e-12
        assert fusion_potential(fusion_xy_antidiag).equality_within > 1e-3

    def test_non_uniform_dims_bound(self):
        # dims 2 + 2 in R^3: bound is 16/3
        ff = make_fusion_frame([
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
        ])
        assert fusion_potential(ff).bound == pytest.approx(16 / 3, abs=1e-12)

    def test_potential_equals_operator_trace_identity(self, fusion_xy_tilted):
        s = fusion_xy_tilted.operator
        expected = float(np.trace(s @ s).real)
        assert fusion_potential(fusion_xy_tilted).value == pytest.approx(
            expected, rel=1e-12)


class TestCrossPotential:
    def test_equals_operator_trace_product(self, fusion_xy_antidiag,
                                           fusion_xy_tilted):
        got = cross_fusion_potential(fusion_xy_antidiag, fusion_xy_tilted)
        expected = float(np.trace(
            fusion_xy_antidiag.operator @ fusion_xy_tilted.operator).real)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self, fusion_xy_antidiag, fusion_xy_tilted):
        assert cross_fusion_potential(fusion_xy_antidiag, fusion_xy_tilted) \
            == pytest.approx(
                cross_fusion_potential(fusion_xy_tilted, fusion_xy_antidiag),
                rel=1e-12)

    def test_self_pairing_recovers_the_potential(self, fusion_xy_z):
        assert cross_fusion_potential(fusion_xy_z, fusion_xy_z) == \
            pytest.approx(fusion_potential(fusion_xy_z).value, rel=1e-12)

    def test_published_dual_pairings(self, fusion_xy_z, fusion_xy_antidiag,
                                     fusion_xy_tilted):
        for ff, value in ((fusion_xy_z, 3.0), (fusion_xy_antidiag, 6.0),
                          (fusion_xy_tilted, 5.0)):
            dual = canonical_dual_fusion(ff)
            assert cross_fusion_potential(ff, dual) == pytest.approx(
                value, abs=1e-9)

    def test_shape_mismatch(self, fusion_xy_z):
        other = make_fusion_frame([np.eye(2)])
        with pytest.raises(ShapeMismatch):
            cross_fusion_potential(fusion_xy_z, other)
        three = make_fusion_frame([
            np.array([[1.0], [0.0], [0.0]]),
            np.array([[0.0], [1.0], [0.0]]),
            np.array([[0.0], [0.0], [1.0]]),
        ])
        with pytest.raises(ShapeMismatch):
            cross_fusion_potential(fusion_xy_z, three)


class TestTraceIdentities:
    CASES = [("real", 5, (2, 2, 2, 2)), ("real", 6, (1, 3, 2, 4, 1)),
             ("complex", 4, (2, 2, 2)), ("complex", 5, (1, 2, 3, 1, 2))]

    @pytest.mark.parametrize("field,n,dims", CASES)
    def test_potential_matches_pairwise_sum(self, field, n, dims):
        ff = _random_fusion(np.random.default_rng(n), n, dims, field)
        want = _pairwise_cross(ff, ff)
        assert fusion_potential(ff).value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("field,n,dims", CASES)
    def test_cross_matches_pairwise_sum_and_is_symmetric(self, field, n,
                                                         dims):
        rng = np.random.default_rng(n + 100)
        p = _random_fusion(rng, n, dims, field)
        q = _random_fusion(rng, n, dims[::-1], field)
        want = _pairwise_cross(p, q)
        assert cross_fusion_potential(p, q) == pytest.approx(want, rel=1e-12)
        assert cross_fusion_potential(q, p) == pytest.approx(want, rel=1e-12)


class TestCanonicalDual:
    def test_self_dual_examples(self, fusion_xy_z, fusion_xy_antidiag):
        for ff in (fusion_xy_z, fusion_xy_antidiag):
            dual = canonical_dual_fusion(ff)
            assert all(subspaces_equal(w, q) for w, q in
                       zip(ff.subspaces, dual.subspaces))

    def test_published_tilted_dual_subspaces(self, fusion_xy_tilted):
        dual = canonical_dual_fusion(fusion_xy_tilted)
        expected = [
            np.array([[1.0, 0.0, 0.0], [0.0, 0.5, -0.5], [0.0, -0.5, 0.5]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        ]
        for q, p in zip(dual.subspaces, expected):
            np.testing.assert_allclose(q.projection(), p, atol=1e-8)

    def test_dual_of_the_dual_returns(self, fusion_xy_tilted):
        # involution does not hold in general, but both rounds stay frames
        dual = canonical_dual_fusion(fusion_xy_tilted)
        again = canonical_dual_fusion(dual)
        assert again.dims == fusion_xy_tilted.dims


class TestSubspaceRelations:
    def test_intersection_dims(self, fusion_xy_z, fusion_xy_antidiag,
                               fusion_xy_tilted):
        xy = fusion_xy_z.subspaces[0]
        z = fusion_xy_z.subspaces[1]
        anti = fusion_xy_antidiag.subspaces[1]
        tilted = fusion_xy_tilted.subspaces[1]
        assert intersection_dim(xy, z) == 0
        assert intersection_dim(xy, anti) == 1
        assert intersection_dim(xy, tilted) == 1
        assert intersection_dim(xy, xy) == 2

    def test_orthogonal_complement(self, fusion_xy_z):
        xy = fusion_xy_z.subspaces[0]
        comp = orthogonal_complement(xy)
        assert comp.dim == 1
        assert subspaces_equal(comp, fusion_xy_z.subspaces[1])
        whole = subspace(np.eye(3))
        assert orthogonal_complement(whole) is None

    def test_semi_orthogonality(self, fusion_xy_z, fusion_xy_antidiag,
                                fusion_xy_tilted):
        xy = fusion_xy_z.subspaces[0]
        assert is_semi_orthogonal(xy, fusion_xy_antidiag.subspaces[1])
        assert not is_semi_orthogonal(xy, fusion_xy_tilted.subspaces[1])
        assert not is_semi_orthogonal(xy, fusion_xy_z.subspaces[1])
        assert not is_semi_orthogonal(xy, xy)

    def test_equality_and_orthogonality(self, fusion_xy_z):
        xy, z = fusion_xy_z.subspaces
        assert subspaces_equal(xy, xy)
        assert not subspaces_equal(xy, z)
        assert subspaces_orthogonal(xy, z)
        assert not subspaces_orthogonal(xy, xy)


class TestStructuredSelfDual:
    def test_orthogonal_case(self, fusion_xy_z):
        report = structured_self_dual_check(fusion_xy_z)
        assert report.applies
        assert report.predicted_potential == pytest.approx(3.0)
        assert report.measured_potential == pytest.approx(3.0, abs=1e-9)
        assert report.dual_matches

    def test_semi_orthogonal_case(self, fusion_xy_antidiag):
        report = structured_self_dual_check(fusion_xy_antidiag)
        assert report.applies
        # diagonal pairs give 2 + 2, the off-diagonal pairs share a line
        assert report.predicted_potential == pytest.approx(6.0)
        assert report.measured_potential == pytest.approx(6.0, abs=1e-9)
        assert report.dual_matches

    def test_unstructured_case(self, fusion_xy_tilted):
        report = structured_self_dual_check(fusion_xy_tilted)
        assert not report.applies
        assert report.predicted_potential is None
        assert report.measured_potential == pytest.approx(5.0, abs=1e-9)
        assert not report.dual_matches

    def test_bundled_reports_are_exact(self, fusion_xy_z, fusion_xy_antidiag):
        for ff, predicted in ((fusion_xy_z, 3.0), (fusion_xy_antidiag, 6.0)):
            report = structured_self_dual_check(ff)
            assert report.applies and report.dual_matches
            assert report.predicted_potential == predicted
            assert report.measured_potential == pytest.approx(
                _pairwise_cross(ff, canonical_dual_fusion(ff)), rel=1e-12)

    def test_stops_at_the_first_unclassified_pair(self, monkeypatch):
        ff = _random_fusion(np.random.default_rng(3), 6, (2,) * 8)
        calls = []

        def counting(w1, w2, *args):
            calls.append((w1, w2))
            return is_semi_orthogonal(w1, w2, *args)

        monkeypatch.setattr(fusion, "is_semi_orthogonal", counting)
        report = structured_self_dual_check(ff)
        assert not report.applies
        assert report.predicted_potential is None
        assert not report.dual_matches
        # the pair (0, 1) of generic planes is already unclassified
        assert calls == [(ff.subspaces[0], ff.subspaces[1])]
        assert report.measured_potential == pytest.approx(
            _pairwise_cross(ff, canonical_dual_fusion(ff)), rel=1e-12)


class TestOrthonormalBasisAndUnitaries:
    def test_orthonormal_fusion_basis(self, fusion_xy_z, fusion_xy_antidiag):
        assert is_orthonormal_fusion_basis(fusion_xy_z)
        assert not is_orthonormal_fusion_basis(fusion_xy_antidiag)

    def test_unitary_invariance_of_the_potential(self, fusion_xy_tilted):
        rotated = apply_unitary_fusion(fusion_xy_tilted, _rotation(0.8))
        assert fusion_potential(rotated).value == pytest.approx(
            fusion_potential(fusion_xy_tilted).value, rel=1e-10)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(rotated.operator)),
            fusion_xy_tilted.eigenvalues, atol=1e-10)

    def test_rejects_non_unitary(self, fusion_xy_z):
        with pytest.raises(NotUnitary):
            apply_unitary_fusion(fusion_xy_z, np.diag([1.0, 2.0, 1.0]))

    def test_rejects_wrong_shape(self, fusion_xy_z):
        with pytest.raises(ShapeMismatch):
            apply_unitary_fusion(fusion_xy_z, np.eye(2))
