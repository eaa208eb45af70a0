"""Reference values computed by the benchmark itself, never by ``fpl``.

Each function takes plain numpy arrays (as the benchmark generated them)
and returns what a correct ``fpl`` run must print.  The formulations are
written from the definitions, so a bug shared with ``fpl`` would have to
be a bug in the mathematics, not in the code.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import linprog
from scipy.special import logsumexp

# Constraint slack that counts as active in the uniqueness certificate.
ACTIVE_TOL = 1e-9


def canonical_dual(f: np.ndarray) -> np.ndarray:
    return np.linalg.solve(f @ f.conj().T, f)


def affine_gramian(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal entries of F* (G + L N*) as offsets + rows . vec(L).

    G is the canonical dual and N any orthonormal basis of ker F, so the
    duals G + L N* are all duals of F; mu does not depend on the basis.
    """
    n, k = f.shape
    g = canonical_dual(f)
    null = scipy.linalg.null_space(f)
    base = f.conj().T @ g
    # (F* L N*)_ij = sum_ab conj(F_ai) L_ab conj(N_jb)
    coeffs = np.einsum("ai,jb->ijab", f.conj(), null.conj()).reshape(k, k, -1)
    off = ~np.eye(k, dtype=bool)
    return base[off], coeffs[off]


def _solve(c, a_ub, b_ub, what: str):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * len(c),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"reference {what} LP failed: {res.message}")
    return res


def _unique_optimum(a_ub: np.ndarray, b_ub: np.ndarray, c: np.ndarray,
                    x: np.ndarray) -> bool:
    """Mangasarian (1979): the LP optimum x is unique iff no d != 0 has
    A_I d <= 0 and c.d <= 0, I the active rows.  With M = [A_I; c] that
    cone is {0} iff M has full column rank and some y > 0 has M' y = 0."""
    slack = b_ub - a_ub @ x
    scale = max(1.0, float(np.max(np.abs(b_ub))))
    m = np.vstack([a_ub[slack <= ACTIVE_TOL * scale], c])
    if np.linalg.matrix_rank(m) < m.shape[1]:
        return False
    res = linprog(np.zeros(m.shape[0]), A_eq=m.T, b_eq=np.zeros(m.shape[1]),
                  bounds=[(1.0, None)] * m.shape[0], method="highs")
    return bool(res.status == 0)


def real_search(f: np.ndarray, certify: bool = False
                ) -> tuple[float, bool | None]:
    """(mu_min, unique) for a real frame: min t s.t. |c_q + r_q . l| <= t.

    ``unique`` is the uniqueness certificate, computed only on request."""
    offsets, rows = affine_gramian(f)
    q, m = rows.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    ones = np.ones((q, 1))
    a_ub = np.vstack([np.hstack([rows, -ones]), np.hstack([-rows, -ones])])
    b_ub = np.concatenate([-offsets, offsets])
    res = _solve(c, a_ub, b_ub, "epigraph")
    unique = _unique_optimum(a_ub, b_ub, c, res.x) if certify else None
    return float(res.x[-1]), unique


def complex_bracket(f: np.ndarray, gap: float = 1e-7,
                    max_rounds: int = 400) -> tuple[float, float]:
    """Certified bracket [lb, ub] on mu_min over the complex dual family.

    |z| <= t is relaxed to the half-planes Re(e^{-i theta} z) <= t, an
    outer polygon approximation (Ben-Tal and Nemirovski 2001), so each LP
    optimum is a lower bound.  Cuts are added at the angles of the entries
    that exceed it (Kelley 1960) until mu at the LP minimiser, an upper
    bound, is within ``gap``.
    """
    offsets, rows = affine_gramian(f)
    q, m = rows.shape
    c = np.zeros(2 * m + 1)
    c[-1] = 1.0
    entry = np.repeat(np.arange(q), 8)
    rot = np.tile(np.exp(-2j * np.pi * np.arange(8) / 8), q)
    for _ in range(max_rounds):
        # Re(w (c + r.(u + iv))) = Re(w c) + Re(w r).u - Im(w r).v
        r = rot[:, None] * rows[entry]
        a_ub = np.hstack([r.real, -r.imag, -np.ones((len(entry), 1))])
        x = _solve(c, a_ub, -(rot * offsets[entry]).real, "polygon").x
        lb = float(x[-1])
        z = offsets + rows @ (x[:m] + 1j * x[m:-1])
        ub = float(np.max(np.abs(z)))
        if ub - lb <= gap:
            return lb, ub
        cut = np.nonzero(np.abs(z) > lb + gap / 2)[0]
        entry = np.concatenate([entry, cut])
        rot = np.concatenate([rot, np.exp(-1j * np.angle(z[cut]))])
    raise RuntimeError("reference cutting planes did not converge")


# --------------------------------------------------------------------------
# Harness: the (seed, trial) contract, one trial at a time.


def harness(n: int, k: int, trials: int, seed: int) -> dict:
    """violations, min_ratio and case_a_count of ``fpl harness`` on a real
    n x k shape, recomputed trial by trial from generator (seed, trial)."""
    welch = np.sqrt((n * k - n * n) / (k * k * (k - 1.0)))
    off = ~np.eye(k, dtype=bool)
    violations = case_a = 0
    min_ratio = np.inf
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        while True:
            f = rng.standard_normal((n, k))
            s = np.linalg.svd(f, compute_uv=False)
            if s[-1] > 1e-10 * s[0]:
                break
        params = rng.standard_normal((n, k - n))
        null_t = np.linalg.svd(f, full_matrices=True)[2][n:, :]
        h = canonical_dual(f) + params @ null_t
        sq = np.abs(f.T @ h)[off] ** 2
        mu = np.sqrt(sq.max())
        violations += bool(mu < welch - 1e-9)
        min_ratio = min(min_ratio, mu / welch)
        case_a += bool(n > n * n / k + sq.sum())
    return {"violations": violations, "min_ratio": float(min_ratio),
            "case_a_count": case_a}


def dual_pair_below_floor(f: np.ndarray, h: np.ndarray) -> bool:
    """A counterexample file pair: H is a dual of F and mu(F* H) is below
    the coherence floor sqrt((nk - n^2) / (k^2 (k - 1)))."""
    n, k = f.shape
    if np.max(np.abs(f @ h.conj().T - np.eye(n))) > 1e-9:
        return False
    mu = np.max(np.abs(f.conj().T @ h)[~np.eye(k, dtype=bool)])
    return bool(mu < np.sqrt((n * k - n * n) / (k * k * (k - 1.0))) - 1e-9)


# --------------------------------------------------------------------------
# Analysis verbs: every field each verb prints, from the definitions.


def _report(value: float, bound: float) -> dict:
    return {"value": value, "bound": bound,
            "meets_bound": value >= bound - 1e-9}


def potential(f: np.ndarray) -> dict:
    n = f.shape[0]
    total = float(np.sum(np.abs(f) ** 2))
    return _report(float(np.sum(np.abs(f.conj().T @ f) ** 2)), total ** 2 / n)


def _welch(n: int, k: int) -> float:
    return float(np.sqrt((n * k - n * n) / (k * k * (k - 1.0))))


def cross(f: np.ndarray, h: np.ndarray, p: float, eta: float,
          alpha: float) -> dict:
    n, k = f.shape
    gram = f.conj().T @ h
    mags = np.abs(gram)
    off = ~np.eye(k, dtype=bool)
    value = float(np.sum(mags ** 2))
    dual = float(np.max(np.abs(f @ h.conj().T - np.eye(n)))) <= 1e-9
    out = {"value": value}
    if dual:
        out.update(bound=float(n), meets_bound=value >= n - 1e-9,
                   equality=abs(value - n) <= 1e-9)
    out["is_dual"] = dual
    num = (n * k - n * n) ** p + n ** (2 * p) * (k - 1) ** (p - 1)
    p_bound = num / (k ** (2 * p - 1) * (k - 1) ** (p - 1))
    p_value = float(np.sum(mags ** (2 * p)))
    out.update(p=p, p_value=p_value, p_bound=p_bound,
               p_meets_bound=p_value >= p_bound - 1e-9,
               constant_diagonal=bool(
                   np.max(np.abs(np.diag(gram) - n / k)) <= 1e-7))
    shift = n * n / (k * k) - _welch(n, k) ** 2
    log_value = logsumexp(np.concatenate(
        [eta * mags[off] ** 2, eta * np.abs(np.diag(gram)) ** 2 - eta * shift]))
    log_bound = 2 * np.log(k) + eta * (
        n / k ** 2 - n ** 2 / k ** 3 + n * (k - n) / (k ** 3 * (k - 1.0)))
    out.update(eta=eta, phi_sum=float(np.exp(log_value)),
               phi_sum_bound=float(np.exp(log_bound)),
               phi_sum_meets_bound=bool(log_value >= log_bound - 1e-9))
    profile = np.exp(alpha * mags ** 2).sum(axis=0)
    out.update({f"profile_{i}": float(v) for i, v in enumerate(profile)})
    log_profile = logsumexp(alpha * mags ** 2, axis=0)
    sorted_mags = np.sort(mags, axis=0)
    out.update(
        co_equipartitioned=bool(
            1.0 - np.exp(log_profile.min() - log_profile.max()) <= 1e-9),
        co_equidistributed=bool(
            np.max(sorted_mags.max(axis=1) - sorted_mags.min(axis=1)) <= 1e-8))
    return out


def mu(f: np.ndarray, h: np.ndarray | None, eta: float) -> dict:
    n, k = f.shape
    h = canonical_dual(f) if h is None else h
    sq = np.abs(f.conj().T @ h)[~np.eye(k, dtype=bool)] ** 2
    log_phi = float(logsumexp(eta * sq))
    return {"mu": float(np.sqrt(sq.max())), "welch": _welch(n, k),
            "eta": eta, "phi_od": float(np.exp(log_phi)),
            "mu_sq_estimate": log_phi / eta,
            "sandwich_slack": float(np.log(k * (k - 1))) / eta}


def _projector(basis: np.ndarray) -> np.ndarray:
    q = np.linalg.svd(basis, full_matrices=False)[0]
    return q @ q.conj().T


def fusion(bases: list[np.ndarray]) -> dict:
    """Report of ``fpl fusion`` for generic subspaces (no pair equal,
    orthogonal or intersecting), where the structured check cannot apply."""
    n = bases[0].shape[0]
    projs = [_projector(b) for b in bases]
    s = sum(projs)
    s_inv = np.linalg.inv(s)
    dual = [_projector(s_inv @ b) for b in bases]
    total = float(sum(b.shape[1] for b in bases))
    w = np.linalg.eigvalsh(s)
    out = {"n": n, "k": len(bases),
           "dims": "x".join(str(b.shape[1]) for b in bases)}
    out.update(_report(float(np.trace(s @ s).real), total ** 2 / n))
    out.update(tight=bool((w[-1] - w[0]) / w[-1] <= 1e-9),
               self_dual_applies=False,
               dual_equals_self=all(np.max(np.abs(p - d)) <= 1e-8
                                    for p, d in zip(projs, dual)),
               measured_cross=float(np.trace(s @ sum(dual)).real))
    return out


def generic_subspaces(bases: list[np.ndarray]) -> bool:
    """True when no two subspaces intersect or are orthogonal, the case
    :func:`fusion` covers."""
    for i, a in enumerate(bases):
        for b in bases[i + 1:]:
            both = np.hstack([a, b])
            s = np.linalg.svd(both, compute_uv=False)
            if s[-1] <= 1e-8 * s[0]:
                return False
            if np.max(np.abs(a.conj().T @ b)) <= 1e-8:
                return False
    return True


def cross_fusion(bases: list[np.ndarray], others: list[np.ndarray]) -> dict:
    s_p = sum(_projector(b) for b in bases)
    s_q = sum(_projector(b) for b in others)
    return {"n": bases[0].shape[0], "k": len(bases),
            "cross": float(np.trace(s_p @ s_q).real)}
