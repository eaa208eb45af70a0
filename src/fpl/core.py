"""Frames, frame operators, dual frames and cross-Gramians.

A frame is stored through its synthesis matrix: an ``n x k`` array whose
columns are the frame vectors, ``k >= n``.  Inner products are
conjugate-linear in the first argument, ``<f, g> = f* g``; over the reals
this is the ordinary dot product.  All values are treated as immutable
after construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NotAFrame,
    NotUnitary,
    ShapeError,
    ShapeMismatch,
    SingularOperator,
)

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-10
# Relative spread (B - A) / B below which a frame counts as tight.
TIGHT_TOL = 1e-9
# Max-norm tolerance on F H* - I for duality checks.
DUAL_TOL = 1e-9
# eigvalsh's rounding error on S = F F* is about n * eps * lambda_max; a
# smallest eigenvalue below this many times that has no reliable sign, so
# canonical_dual counts S as singular.
SINGULAR_ROUNDING_FACTOR = 100.0

REAL = "real"
COMPLEX = "complex"


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def _coerce_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got {m.ndim}-D data")
    dtype = np.complex128 if np.iscomplexobj(m) else np.float64
    m = m.astype(dtype)
    if not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite numbers")
    return m


def _from_normals(normals: np.ndarray, shape: tuple[int, int],
                  field: str) -> np.ndarray:
    """The ``shape`` matrix made of each last-axis row of standard normals:
    the row itself over R; over C its first half as the real part, its
    second as the imaginary part, over sqrt(2)."""
    lead = normals.shape[:-1]
    if field == COMPLEX:
        parts = normals.reshape(*lead, 2, *shape)
        return (parts[..., 0, :, :] + 1j * parts[..., 1, :, :]) / np.sqrt(2.0)
    return normals.reshape(*lead, *shape)


def _gaussian(rng: np.random.Generator, shape: tuple[int, int],
              field: str) -> np.ndarray:
    """Standard Gaussian matrix; complex entries have E|z|^2 = 1."""
    blocks = 2 if field == COMPLEX else 1
    return _from_normals(rng.standard_normal(blocks * shape[0] * shape[1]),
                         shape, field)


@dataclass(frozen=True, eq=False)
class Frame:
    """A spanning set of ``k >= n`` vectors, held as an n x k synthesis matrix.

    The constructor only enforces shape; use :func:`make_frame` to also
    verify the spanning (rank) condition on untrusted input.
    """

    synthesis: np.ndarray

    def __post_init__(self):
        m = _coerce_matrix(self.synthesis)
        n, k = m.shape
        if n < 1:
            raise ShapeError("a frame needs at least one dimension")
        if k < n:
            raise ShapeError(f"fewer vectors ({k}) than dimensions ({n})")
        m.setflags(write=False)  # _coerce_matrix's astype copied it
        object.__setattr__(self, "synthesis", m)

    @property
    def n(self) -> int:
        return self.synthesis.shape[0]

    @property
    def k(self) -> int:
        return self.synthesis.shape[1]

    @property
    def field(self) -> str:
        return COMPLEX if np.iscomplexobj(self.synthesis) else REAL

    @property
    def analysis(self) -> np.ndarray:
        """Adjoint of the synthesis matrix; rows are conjugated frame vectors."""
        return self.synthesis.conj().T

    def vector(self, i: int) -> np.ndarray:
        return self.synthesis[:, i]


def make_frame(matrix) -> Frame:
    """Validate ``matrix`` (n x k, k >= n, full row rank) and wrap it.

    Raises
    ------
    ShapeError
        If the matrix is not 2-D, has no rows or has fewer columns than rows.
    DomainError
        If n * sigma_max^4, which bounds every potential of the frame, is
        not a finite float.
    NotAFrame
        If the columns do not span, judged against RANK_RTOL * sigma_max.
    """
    frame = Frame(matrix)
    sigma = np.linalg.svd(frame.synthesis, compute_uv=False)
    with np.errstate(over="ignore"):
        if not np.isfinite(frame.n * sigma[0] ** 4):
            raise DomainError("entries too large: n * sigma_max^4 overflows")
    if sigma[0] == 0.0 or sigma[-1] <= RANK_RTOL * sigma[0]:
        raise NotAFrame("vectors do not span the ambient space")
    return frame


@dataclass(frozen=True, eq=False)
class FrameOperator:
    """The positive operator S = synthesis . synthesis* with its spectrum."""

    matrix: np.ndarray
    eigenvalues: np.ndarray  # ascending
    lower: float             # optimal lower frame bound A
    upper: float             # optimal upper frame bound B

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        object.__setattr__(self, "eigenvalues", _freeze(self.eigenvalues))


def frame_operator(frame: Frame) -> FrameOperator:
    s = frame.synthesis @ frame.analysis
    s = (s + s.conj().T) / 2.0
    w = np.linalg.eigvalsh(s)
    return FrameOperator(matrix=s, eigenvalues=w,
                         lower=float(w[0]), upper=float(w[-1]))


def is_tight(frame: Frame, tol: float = TIGHT_TOL) -> bool:
    """True when the optimal frame bounds agree: (B - A) / B <= tol."""
    op = frame_operator(frame)
    if op.upper <= 0.0:
        return False
    return (op.upper - op.lower) / op.upper <= tol


def canonical_dual(frame: Frame) -> Frame:
    """The dual with synthesis S^{-1} F, the minimal-coefficient dual."""
    op = frame_operator(frame)
    floor = SINGULAR_ROUNDING_FACTOR * frame.n * np.finfo(float).eps * op.upper
    if not np.isfinite(op.lower) or op.lower <= floor:
        raise SingularOperator("frame operator is numerically singular")
    try:
        dual = np.linalg.solve(op.matrix, frame.synthesis)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise SingularOperator(str(exc)) from exc
    return Frame(dual)


def _check_same_space(left: Frame, right: Frame) -> None:
    if left.synthesis.shape != right.synthesis.shape:
        raise ShapeMismatch(
            f"frames live in different spaces: {left.synthesis.shape} "
            f"vs {right.synthesis.shape}")
    if left.field != right.field:
        raise ShapeMismatch(
            f"frames over different scalar fields: {left.field} vs {right.field}")


def is_dual(frame: Frame, other: Frame, tol: float = DUAL_TOL) -> bool:
    """True when F H* = I_n entrywise within ``tol`` (max norm)."""
    _check_same_space(frame, other)
    resid = frame.synthesis @ other.analysis - np.eye(frame.n)
    return float(np.max(np.abs(resid))) <= tol


@dataclass(frozen=True, eq=False)
class CrossGramian:
    """The k x k matrix with entry (i, j) = <f_i, g_j>.

    Over the reals this is F^T G; in general it is F* G where F, G are the
    two synthesis matrices.
    """

    entries: np.ndarray
    left: Frame
    right: Frame

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze(self.entries))

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries)

    def offdiagonal(self) -> np.ndarray:
        """The k (k - 1) entries with i != j, in row-major order."""
        return self.entries[~np.eye(self.k, dtype=bool)]


def cross_gramian(frame: Frame, other: Frame) -> CrossGramian:
    _check_same_space(frame, other)
    return CrossGramian(entries=frame.analysis @ other.synthesis,
                        left=frame, right=other)


def analysis_coefficients(frame: Frame, vector) -> np.ndarray:
    """The k coefficients <f, f_i> of ``vector`` against the frame."""
    f = np.asarray(vector)
    if f.shape != (frame.n,):
        raise ShapeMismatch(
            f"expected a vector of length {frame.n}, got shape {f.shape}")
    return frame.synthesis.T @ np.conj(f)


def _unitary(u, n: int, tol: float) -> np.ndarray:
    """``u`` as an n x n matrix, checked to be unitary within ``tol``."""
    um = _coerce_matrix(u)
    if um.shape != (n, n):
        raise ShapeMismatch(f"unitary must be {n} x {n}, got {um.shape}")
    if float(np.max(np.abs(um.conj().T @ um - np.eye(n)))) > tol:
        raise NotUnitary("matrix is not unitary within tolerance")
    return um


def apply_unitary(frame: Frame, u, tol: float = 1e-9) -> Frame:
    """Rotate the whole frame by a unitary (orthogonal) matrix."""
    return Frame(_unitary(u, frame.n, tol) @ frame.synthesis)


@dataclass(frozen=True, eq=False)
class DualFamily:
    """The complete affine family of duals of a frame.

    Every dual has synthesis ``base + L N*`` where ``base`` is the canonical
    dual, ``N`` is an orthonormal basis of the null space of the synthesis
    map (k x (k - n)) and ``L`` ranges over all n x (k - n) parameter
    matrices over the frame's scalar field.
    """

    frame: Frame
    base: Frame
    null_basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "null_basis", _freeze(self.null_basis))

    @property
    def param_shape(self) -> tuple[int, int]:
        return (self.frame.n, self.frame.k - self.frame.n)

    @property
    def dim(self) -> int:
        """Number of free scalar parameters, n (k - n)."""
        n, c = self.param_shape
        return n * c

    def dual(self, params) -> Frame:
        l = np.asarray(params)
        if l.shape != self.param_shape:
            raise ShapeMismatch(
                f"parameter matrix must have shape {self.param_shape}, "
                f"got {l.shape}")
        if self.frame.field == REAL and np.iscomplexobj(l):
            raise ShapeMismatch("complex parameters for a real frame")
        synth = self.base.synthesis + l @ self.null_basis.conj().T
        return Frame(synth)

    def parameter_of(self, other: Frame, tol: float = DUAL_TOL) -> np.ndarray | None:
        """Recover L with dual(L) == other, or None if other is outside."""
        _check_same_space(self.frame, other)
        l = (other.synthesis - self.base.synthesis) @ self.null_basis
        resid = self.base.synthesis + l @ self.null_basis.conj().T - other.synthesis
        if float(np.max(np.abs(resid))) > tol:
            return None
        return l

    def random_param(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return scale * _gaussian(rng, self.param_shape, self.frame.field)


def dual_family(frame: Frame) -> DualFamily:
    base = canonical_dual(frame)
    n, k = frame.n, frame.k
    # Right null space of the synthesis matrix, via the trailing right
    # singular vectors; orthonormal by construction.
    _, _, vh = np.linalg.svd(frame.synthesis, full_matrices=True)
    null = vh[n:, :].conj().T
    return DualFamily(frame=frame, base=base, null_basis=null.reshape(k, k - n))
