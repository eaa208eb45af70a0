"""Potential functionals on frames, dual pairs and their cross-Gramians.

Every quantity defined for a pair (F, G) is a function of the cross-Gramian
Gr(F, G) = F* G, so every pair functional here takes the
:class:`~fpl.core.CrossGramian` that :func:`~fpl.core.cross_gramian` builds
and reads its ``entries``; a caller forms the product once and passes it
to as many functionals as it needs.  The frame potential is the case
G = F.

Every bounded functional reports through :class:`PotentialReport`, which
keeps the computed value next to the theoretical bound so callers can see
how close a configuration sits to the extremal case.

Exponential functionals are evaluated in the log domain (log-sum-exp)
wherever a large exponent would otherwise overflow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import DUAL_TOL, CrossGramian, Frame, cross_gramian, is_dual
from .errors import DomainError, NotADual

# Slack allowed on inequalities of the form value >= bound.
BOUND_SLACK = 1e-9
# Diagonal entries within this distance of n/k count as constant-diagonal.
CONST_DIAG_TOL = 1e-7


@dataclass(frozen=True)
class PotentialReport:
    """A potential value paired with its theoretical bound."""

    functional: str
    value: float
    bound: float
    meets_bound: bool
    equality_within: float


def _report(functional: str, value: float, bound: float) -> PotentialReport:
    return PotentialReport(
        functional=functional,
        value=float(value),
        bound=float(bound),
        meets_bound=bool(value >= bound - BOUND_SLACK),
        equality_within=float(abs(value - bound)),
    )


def frame_potential(frame: Frame) -> float:
    """Sum of |<f_i, f_j>|^2 over all ordered pairs; equals trace(S^2)."""
    return cross_frame_potential(cross_gramian(frame, frame))


def frame_potential_bound(frame: Frame) -> PotentialReport:
    """Frame potential against its lower bound L^2 / n, L = sum of norms^2.

    Equality holds exactly for tight frames.
    """
    value = frame_potential(frame)
    total = float(np.sum(np.abs(frame.synthesis) ** 2))
    return _report("frame_potential", value, total ** 2 / frame.n)


def cross_frame_potential(gram: CrossGramian) -> float:
    """Sum of |<f_i, g_j>|^2 over all ordered pairs of the two frames."""
    return float(np.sum(np.abs(gram.entries) ** 2))


def cross_potential_bound(gram: CrossGramian,
                          tol: float = DUAL_TOL) -> PotentialReport:
    """Cross potential of a dual pair against its lower bound n.

    Equality characterises the canonical dual.  Raises NotADual when the
    pair fails the duality check at ``tol``.
    """
    if not is_dual(gram.left, gram.right, tol):
        raise NotADual("cross potential bound requires a dual pair")
    return _report("cross_potential", cross_frame_potential(gram),
                   float(gram.left.n))


def gramian_diagonal_sum(gram: CrossGramian) -> PotentialReport:
    """Sum of |<f_i, g_i>|^2 against its lower bound n^2 / k.

    Equality holds exactly when every diagonal entry equals n / k.
    """
    value = float(np.sum(np.abs(gram.diagonal()) ** 2))
    n = gram.left.n
    return _report("diagonal_sum", value, n ** 2 / gram.k)


def pth_cross_potential(gram: CrossGramian, p: float) -> float:
    """Sum of |<f_i, g_j>|^(2p) over all ordered pairs."""
    if p <= 0:
        raise DomainError("p must be positive")
    return float(np.sum(np.abs(gram.entries) ** (2.0 * p)))


def pth_bound(n: int, k: int, p: float) -> float:
    """Lower bound for the p-th cross potential of a constant-diagonal dual pair.

    ((nk - n^2)^p + n^(2p) (k-1)^(p-1)) / (k^(2p-1) (k-1)^(p-1)), p >= 1.
    Collapses to n at p = 1 and for k = n.
    """
    if p < 1:
        raise DomainError("the p-th bound needs p >= 1")
    if n < 1 or k < n:
        raise DomainError("need k >= n >= 1")
    if k == 1:
        return float(n)
    num = (n * k - n * n) ** p + n ** (2.0 * p) * (k - 1) ** (p - 1.0)
    den = k ** (2.0 * p - 1.0) * (k - 1) ** (p - 1.0)
    return float(num / den)


def constant_diagonal(gram: CrossGramian, tol: float = CONST_DIAG_TOL) -> bool:
    """Whether every Gramian diagonal entry equals n/k within ``tol``.

    This is the precondition under which the p-th bound is guaranteed; the
    report helper below surfaces it instead of silently assuming it.
    """
    target = gram.left.n / gram.k
    return float(np.max(np.abs(gram.diagonal() - target))) <= tol


def pth_cross_report(gram: CrossGramian, p: float,
                     diag_tol: float = CONST_DIAG_TOL
                     ) -> tuple[PotentialReport, bool]:
    """p-th cross potential with its bound, plus the precondition status."""
    report = _report("pth_cross_potential", pth_cross_potential(gram, p),
                     pth_bound(gram.left.n, gram.k, p))
    return report, constant_diagonal(gram, diag_tol)


def welch_constant(n: int, k: int) -> float:
    """sqrt((nk - n^2) / (k^2 (k - 1))), the coherence floor for dual pairs."""
    if k < 2:
        raise DomainError("the constant needs k >= 2")
    if n < 1 or k < n:
        raise DomainError("need k >= n >= 1")
    return float(np.sqrt((n * k - n * n) / (k * k * (k - 1.0))))


def max_offdiagonal(gram: CrossGramian) -> float:
    """mu(G): the largest off-diagonal magnitude of the Gramian."""
    if gram.k < 2:
        raise DomainError("mu needs at least two vectors")
    return float(np.abs(gram.offdiagonal()).max())


def exp_entry(gram: CrossGramian, i: int, j: int, eta: float) -> float:
    """exp(eta |G_ij|^2) for one entry."""
    if eta <= 0:
        raise DomainError("eta must be positive")
    k = gram.k
    if not (-k <= i < k and -k <= j < k):
        raise IndexError(f"entry ({i}, {j}) outside a {k} x {k} Gramian")
    return float(np.exp(eta * np.abs(gram.entries[i, j]) ** 2))


def log_phi_offdiagonal(gram: CrossGramian, eta: float) -> float:
    """log of the off-diagonal exponential potential, safe for any eta."""
    if eta <= 0:
        raise DomainError("eta must be positive")
    if gram.k < 2:
        raise DomainError("the off-diagonal potential needs k >= 2")
    return float(logsumexp(eta * np.abs(gram.offdiagonal()) ** 2))


def phi_offdiagonal(gram: CrossGramian, eta: float) -> float:
    """Sum of exp(eta |G_ij|^2) over i != j.

    Overflows to inf for very large eta; use :func:`log_phi_offdiagonal`
    (as :func:`mu_limit_estimate` does) when eta is a sharpness parameter.
    """
    with np.errstate(over="ignore"):
        return float(np.exp(log_phi_offdiagonal(gram, eta)))


def mu_limit_estimate(gram: CrossGramian, eta_schedule) -> float:
    """(1/eta_max) log phi_od at the largest eta of an increasing schedule.

    Sandwiched between mu^2 and mu^2 + log(k(k-1))/eta_max, so it converges
    to mu(G)^2 as the schedule grows.  Evaluated in the log domain.
    """
    etas = [float(e) for e in eta_schedule]
    if not etas:
        raise DomainError("the eta schedule must be non-empty")
    if any(e <= 0 for e in etas) or any(b <= a for a, b in zip(etas, etas[1:])):
        raise DomainError("the eta schedule must be positive and increasing")
    top = etas[-1]
    return log_phi_offdiagonal(gram, top) / top


def phi_sum(gram: CrossGramian, n: int, eta: float) -> PotentialReport:
    """Off-diagonal potential plus a deflated diagonal term, with its bound.

    The diagonal entries enter damped by exp(-eta (n^2/k^2 - C^2)) where C
    is the Welch-type constant; the combined functional is bounded below by
    k^2 exp(eta (n/k^2 - n^2/k^3 + n(k-n)/(k^3 (k-1)))) for dual pairs,
    with equality when the pair is canonical, the diagonal is constant and
    the off-diagonal magnitudes are all equal.
    """
    if eta <= 0:
        raise DomainError("eta must be positive")
    k = gram.k
    if k < 2:
        raise DomainError("the sum potential needs k >= 2")
    c2 = welch_constant(n, k) ** 2
    shift = n * n / (k * k) - c2
    off_terms = eta * np.abs(gram.offdiagonal()) ** 2
    diag_terms = eta * np.abs(gram.diagonal()) ** 2 - eta * shift
    log_value = float(logsumexp(np.concatenate([off_terms, diag_terms])))
    exponent = n / k ** 2 - n ** 2 / k ** 3 + n * (k - n) / (k ** 3 * (k - 1.0))
    log_bound = 2.0 * np.log(k) + eta * exponent
    with np.errstate(over="ignore"):
        value = float(np.exp(log_value))
        bound = float(np.exp(log_bound))
    if np.isinf(value) or np.isinf(bound):
        # Report the log-domain gap when the plain values overflow.
        gap = abs(log_value - log_bound)
    else:
        gap = abs(value - bound)
    return PotentialReport(
        functional="sum_potential",
        value=value,
        bound=bound,
        meets_bound=bool(log_value >= log_bound - BOUND_SLACK),
        equality_within=float(gap),
    )


def co_equipartition_profile(gram: CrossGramian, alpha: float) -> np.ndarray:
    """Component l is the sum over rows of exp(alpha |G_{j,l}|^2) (column sums)."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return np.exp(alpha * np.abs(gram.entries) ** 2).sum(axis=0)


def _log_profile(gram: CrossGramian, alpha: float) -> np.ndarray:
    return logsumexp(alpha * np.abs(gram.entries) ** 2, axis=0)


def is_co_equipartitioned(gram: CrossGramian, alpha: float,
                          tol: float = 1e-9) -> bool:
    """Whether the profile components agree: max - min <= tol * max.

    Computed in the log domain so large alpha never overflows.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    lp = _log_profile(gram, alpha)
    return bool(1.0 - np.exp(lp.min() - lp.max()) <= tol)


def is_co_equidistributed(gram: CrossGramian, tol: float = 1e-8) -> bool:
    """Whether all columns carry the same multiset of entry magnitudes.

    Sorted column magnitudes must agree componentwise within ``tol``; this
    implies co-equipartition for every alpha.
    """
    mags = np.sort(np.abs(gram.entries), axis=0)
    spread = mags.max(axis=1) - mags.min(axis=1)
    return bool(spread.max() <= tol)
