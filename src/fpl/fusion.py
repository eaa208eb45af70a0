"""Fusion frames: collections of subspaces whose projections sum invertibly.

Subspaces are carried as orthonormal basis matrices; the projection onto a
subspace is ``B B*``.  The fusion operator is the sum of the projections
and plays the role the frame operator plays for vector frames.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RANK_RTOL, TIGHT_TOL, _coerce_matrix, _freeze, _unitary
from .errors import (
    EmptySubspace,
    NotAFusionFrame,
    ShapeError,
    ShapeMismatch,
    SingularOperator,
)
from .potentials import PotentialReport, _report

# Projection matrices closer than this (max norm) describe the same subspace.
SUBSPACE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of dimension d held as an n x d orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        b = _coerce_matrix(self.basis)
        if b.shape[1] < 1:
            raise EmptySubspace("a subspace needs at least one basis vector")
        if b.shape[1] > b.shape[0]:
            raise ShapeError("more basis vectors than ambient dimensions")
        gram = b.conj().T @ b
        if float(np.max(np.abs(gram - np.eye(b.shape[1])))) > 1e-8:
            raise ShapeError(
                "basis is not orthonormal; build through subspace()")
        object.__setattr__(self, "basis", _freeze(b))

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projection(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def orthonormalize(matrix, rtol: float = RANK_RTOL) -> tuple[np.ndarray, float]:
    """Orthonormal basis for the column span, plus how far the input was
    from already being orthonormal (max norm of B* B - I)."""
    m = _coerce_matrix(matrix)
    if m.shape[1] < 1:
        raise EmptySubspace("a subspace needs at least one basis vector")
    adjustment = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0
    if rank < m.shape[1]:
        raise NotAFusionFrame(
            f"subspace basis is rank deficient ({rank} < {m.shape[1]})")
    return u[:, :rank], adjustment


def subspace(matrix) -> Subspace:
    """Build a Subspace from any full-column-rank spanning matrix."""
    q, _ = orthonormalize(matrix)
    return Subspace(q)


@dataclass(frozen=True, eq=False)
class FusionFrame:
    """Subspaces W_1..W_k with invertible fusion operator S = sum of P_i."""

    subspaces: tuple[Subspace, ...]
    operator: np.ndarray
    eigenvalues: np.ndarray  # ascending
    lower: float
    upper: float

    def __post_init__(self):
        object.__setattr__(self, "operator", _freeze(self.operator))
        object.__setattr__(self, "eigenvalues", _freeze(self.eigenvalues))

    @property
    def n(self) -> int:
        return self.operator.shape[0]

    @property
    def k(self) -> int:
        return len(self.subspaces)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w.dim for w in self.subspaces)


def make_fusion_frame(bases) -> FusionFrame:
    """Build a fusion frame from spanning matrices (orthonormalized here).

    Raises NotAFusionFrame when the subspaces fail to span jointly (or a
    basis is rank deficient), EmptySubspace for a zero-column basis.
    """
    subs = tuple(subspace(b) for b in bases)
    if not subs:
        raise NotAFusionFrame("a fusion frame needs at least one subspace")
    n = subs[0].n
    if any(w.n != n for w in subs):
        raise ShapeMismatch("subspaces live in different ambient spaces")
    s = np.zeros((n, n), dtype=subs[0].basis.dtype)
    for w in subs:
        s = s + w.projection()
    s = (s + s.conj().T) / 2.0
    w = np.linalg.eigvalsh(s)
    lower, upper = float(w[0]), float(w[-1])
    if lower <= RANK_RTOL * max(upper, 1.0):
        raise NotAFusionFrame("subspaces do not span the ambient space")
    return FusionFrame(subspaces=subs, operator=s, eigenvalues=w,
                       lower=lower, upper=upper)


def is_tight_fusion(ff: FusionFrame, tol: float = TIGHT_TOL) -> bool:
    return (ff.upper - ff.lower) / ff.upper <= tol


def fusion_potential(ff: FusionFrame) -> PotentialReport:
    """Sum of Tr(P_i P_j) over all ordered pairs, which is Tr(S^2) = ||S||_F^2;
    bounded below by (sum of dims)^2 / n with equality exactly for tight
    fusion frames."""
    s = ff.operator
    total = float(sum(ff.dims))
    return _report("fusion_potential", float(np.vdot(s, s).real),
                   total ** 2 / ff.n)


def cross_fusion_potential(ff: FusionFrame, other: FusionFrame) -> float:
    """Sum of Tr(P_i Q_j) over ordered pairs, which is Tr(S_P S_Q)."""
    if ff.n != other.n:
        raise ShapeMismatch("fusion frames live in different ambient spaces")
    if ff.k != other.k:
        raise ShapeMismatch("fusion frames carry different subspace counts")
    # Both operators are Hermitian, so Tr(S_P S_Q) = Re <S_P, S_Q>_F.
    return float(np.vdot(ff.operator, other.operator).real)


def canonical_dual_fusion(ff: FusionFrame) -> FusionFrame:
    """Apply S^{-1} to every subspace and re-orthonormalize."""
    if ff.lower <= 0.0:
        raise SingularOperator("fusion operator is singular")
    duals = []
    for w in ff.subspaces:
        mapped = np.linalg.solve(ff.operator, w.basis)
        q, _ = np.linalg.qr(mapped)
        duals.append(q)
    return make_fusion_frame(duals)


def intersection_dim(w1: Subspace, w2: Subspace,
                     rtol: float = RANK_RTOL) -> int:
    """dim(W1 and W2) = d1 + d2 - rank([B1 | B2])."""
    if w1.n != w2.n:
        raise ShapeMismatch("subspaces live in different ambient spaces")
    stacked = np.hstack([w1.basis, w2.basis])
    s = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.sum(s > rtol * s[0])) if s[0] > 0 else 0
    return w1.dim + w2.dim - rank


def orthogonal_complement(w: Subspace) -> Subspace | None:
    """Basis of the orthogonal complement, or None when W is the whole space."""
    if w.dim == w.n:
        return None
    u, _, _ = np.linalg.svd(w.basis, full_matrices=True)
    return Subspace(u[:, w.dim:])


def is_semi_orthogonal(w1: Subspace, w2: Subspace,
                       rtol: float = RANK_RTOL) -> bool:
    """Nontrivial intersection, and each W_i splits as the intersection
    plus a nontrivial part orthogonal to the other subspace."""
    if w1.n != w2.n:
        raise ShapeMismatch("subspaces live in different ambient spaces")
    core = intersection_dim(w1, w2, rtol)
    if core < 1:
        return False
    for a, b in ((w1, w2), (w2, w1)):
        rest = a.dim - core
        if rest < 1:
            return False
        comp = orthogonal_complement(b)
        if comp is None or intersection_dim(a, comp, rtol) != rest:
            return False
    return True


def subspaces_equal(w1: Subspace, w2: Subspace,
                    tol: float = SUBSPACE_TOL) -> bool:
    if w1.n != w2.n:
        raise ShapeMismatch("subspaces live in different ambient spaces")
    return float(np.max(np.abs(w1.projection() - w2.projection()))) <= tol


def subspaces_orthogonal(w1: Subspace, w2: Subspace,
                         tol: float = SUBSPACE_TOL) -> bool:
    if w1.n != w2.n:
        raise ShapeMismatch("subspaces live in different ambient spaces")
    return float(np.max(np.abs(w1.basis.conj().T @ w2.basis))) <= tol


@dataclass(frozen=True)
class SelfDualReport:
    """Outcome of the structured self-duality test.

    ``applies`` is True when every pair of subspaces is equal, orthogonal
    or semi-orthogonal; in that case the canonical dual must coincide with
    the fusion frame itself, and the cross potential must equal the sum of
    pairwise intersection dimensions (``predicted_potential``).  The
    classification stops at the first pair that is none of the three, so
    ``predicted_potential`` is None whenever ``applies`` is False.
    """

    applies: bool
    predicted_potential: float | None
    measured_potential: float
    dual_matches: bool


def _structured_prediction(ff: FusionFrame, tol: float) -> float | None:
    """Sum of pairwise intersection dimensions over ordered pairs when every
    pair is equal, orthogonal or semi-orthogonal; None as soon as one pair
    is none of these."""
    predicted = 0.0
    for i, wi in enumerate(ff.subspaces):
        for j, wj in enumerate(ff.subspaces):
            if i == j or subspaces_equal(wi, wj, tol):
                predicted += wi.dim
            elif subspaces_orthogonal(wi, wj, tol):
                continue
            elif is_semi_orthogonal(wi, wj):
                predicted += intersection_dim(wi, wj)
            else:
                return None
    return predicted


def structured_self_dual_check(ff: FusionFrame,
                               tol: float = SUBSPACE_TOL) -> SelfDualReport:
    predicted = _structured_prediction(ff, tol)
    dual = canonical_dual_fusion(ff)
    measured = cross_fusion_potential(ff, dual)
    matches = all(subspaces_equal(w, q, tol)
                  for w, q in zip(ff.subspaces, dual.subspaces))
    return SelfDualReport(
        applies=predicted is not None,
        predicted_potential=predicted,
        measured_potential=measured,
        dual_matches=matches,
    )


def is_orthonormal_fusion_basis(ff: FusionFrame,
                                tol: float = SUBSPACE_TOL) -> bool:
    """Dimensions summing to n with pairwise orthogonal subspaces."""
    if sum(ff.dims) != ff.n:
        return False
    for i in range(ff.k):
        for j in range(i + 1, ff.k):
            if not subspaces_orthogonal(ff.subspaces[i], ff.subspaces[j], tol):
                return False
    return True


def apply_unitary_fusion(ff: FusionFrame, u, tol: float = 1e-9) -> FusionFrame:
    um = _unitary(u, ff.n, tol)
    return make_fusion_frame([um @ w.basis for w in ff.subspaces])
