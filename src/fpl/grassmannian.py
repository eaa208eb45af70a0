"""Coherence minimisation over the dual family, plus the random probe harness.

Every entry of the cross-Gramian Gr(F, H(L)) is affine in the dual-family
parameter L, so minimising the largest off-diagonal magnitude is a convex
min-max problem.  Over the reals it is solved exactly as an epigraph linear
program; over the complex field a smooth log-sum-exp surrogate is sharpened
along an eta schedule and then polished on the true objective.

Each real LP goes to HiGHS as its LP dual: m (+1) equality rows over 2q
nonnegative columns instead of 2q inequality rows over m free columns, one
matrix per frame shared by every LP.  The primal point is read back as the
multiplier of the equality rows.  The LPs see the rows scaled by a power
of two, so the result does not depend on the frame's scale.

The face probes solve over fewer columns.  The epigraph LP's own solution
is a set of weights on the rows; :func:`_probe_columns` turns them into a
bound on how far any point of the near-optimal face lies from the
minimiser, and drops every constraint side that cannot be active within
that distance (all but about 14 % of them at 8x16).  The face, and so
each probe's optimal vertex, is unchanged.  Weights that certify nothing,
as when the minimiser is not unique, keep every column.

Whether the minimiser is exclusive is decided once per search, in
:func:`minimize_mu`.  Over the reals, 24 face probes (random LP objectives
over the near-optimal face: 8 drawn from the caller's seed, then 16 from
``PROBE_SEED``) and over the complex field, two sets of surrogate restarts
(one per generator) gather near-minimisers; the minimiser is exclusive when
they form one cluster and no flat direction at it keeps mu at its minimum.
:func:`exclusivity_probe` reads that verdict.

The face probes are independent LPs.  ``threads`` runs them on a pool of
that many threads, at most one per CPU, shared with the harness; every
objective is drawn before any probe runs and results are kept in input
order, so the outcome does not depend on ``threads``.
"""
from __future__ import annotations

import collections
import concurrent.futures
import functools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .core import (
    COMPLEX,
    DUAL_TOL,
    RANK_RTOL,
    REAL,
    DualFamily,
    Frame,
    _from_normals,
    _gaussian,
    cross_gramian,
    dual_family,
    is_dual,
)
from .errors import DomainError, NotADual, SolverFailure
from .potentials import max_offdiagonal, welch_constant

# Conjectured coherence floor is tested with this slack.
VIOLATION_TOL = 1e-9
# Near-minimisers closer than this in max norm count as one minimiser.
CLUSTER_TOL = 1e-5
# Random LP objectives over the optimal face: N_FACE_PROBES drawn from the
# caller's seed, then PROBE_FACE_PROBES from a generator seeded with
# PROBE_SEED, which also draws the complex path's second set of restarts
# and the flat directions.
N_FACE_PROBES = 8
PROBE_FACE_PROBES = 16
PROBE_SEED = 17
# Random directions tried along the active constraints' flat subspace.
N_FLAT_DIRS = 8
# Complex path: starts (the origin plus random ones), surrogate sharpness
# stages and the Nelder-Mead budget of the final polish.
N_STARTS = 4
ETA_SCHEDULE = (10.0, 100.0, 1000.0, 10000.0)
POLISH_MAXFEV = 20000
# Harness work arrays are capped at this many bytes per chunk.
HARNESS_CHUNK_BYTES = 32 << 20
# The harness keeps at most this many violating pairs.
MAX_COUNTEREXAMPLES = 5
# numpy's SeedSequence constants (pool size, hash-mix and generate_state
# constants and multipliers, mix multipliers) and PCG64's multiplier, for
# seeding a chunk's trial generators in one array pass.
_SEED_POOL = 4
_SEED_INIT_A, _SEED_MULT_A = 0x43B0D7E5, 0x931E8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


@dataclass(frozen=True, eq=False)
class MinMaxProblem:
    """The min-max objective mu(Gr(F, H(L))) in affine form.

    Off-diagonal Gramian entry q is ``offsets[q] + rows[q] . vec(L)``;
    ``mu`` takes the largest magnitude over q.
    """

    frame: Frame
    family: DualFamily
    offsets: np.ndarray   # (q,) off-diagonal entries at L = 0
    rows: np.ndarray      # (q, m) affine coefficients

    @property
    def m(self) -> int:
        """Number of scalar parameters (n (k - n))."""
        return self.rows.shape[1]

    def entries(self, params: np.ndarray) -> np.ndarray:
        return self.offsets + self.rows @ np.ravel(params)

    def mu(self, params: np.ndarray) -> float:
        if self.offsets.size == 0:
            return 0.0
        return float(np.max(np.abs(self.entries(params))))

    def dual(self, params: np.ndarray) -> Frame:
        return self.family.dual(np.reshape(params, self.family.param_shape))


def minmax_problem(frame: Frame) -> MinMaxProblem:
    """Assemble the affine min-max data for a frame's dual family."""
    family = dual_family(frame)
    k = frame.k
    # Entry (i, j) of F* L N* is sum_ab conj(F[a,i]) L[a,b] conj(N[j,b]).
    coeffs = np.einsum("ai,jb->ijab",
                       frame.synthesis.conj(),
                       family.null_basis.conj()).reshape(k, k, -1)
    return MinMaxProblem(
        frame=frame, family=family,
        offsets=cross_gramian(frame, family.base).offdiagonal(),
        rows=coeffs[~np.eye(k, dtype=bool)])


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Outcome of minimising mu over the dual family."""

    mu_min: float
    minimizer_params: np.ndarray
    minimizer_dual: Frame
    candidate_minimizers: tuple[np.ndarray, ...]
    exclusive_within_tol: bool
    problem: MinMaxProblem = field(repr=False)

    @property
    def family_dim(self) -> int:
        return self.problem.family.dim


def _thread_count(threads: int | None) -> int:
    """``threads`` as a thread count from 1 to the CPU count; None reads as
    1.  More threads than cores only add start-up time and memory."""
    return max(1, min(int(threads or 1), os.cpu_count() or 1))


@functools.cache
def _worker_pool(workers: int) -> concurrent.futures.ThreadPoolExecutor:
    """The process's pool of ``workers`` threads, created on first use and
    kept: each thread that has run HiGHS holds a few MB, so fresh threads
    per call would add memory as well as start-up time."""
    return concurrent.futures.ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="fpl")


def _parallel_map(fn, items, threads: int | None) -> list:
    """``[fn(x) for x in items]`` on ``min(threads, len(items))`` pool
    threads, ``threads`` capped by :func:`_thread_count`; inline on the
    calling thread when that is 1.

    Results come back in input order, and the error of the earliest
    failing item is raised, as the inline loop would raise it.
    """
    items = list(items)
    workers = min(_thread_count(threads), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    return list(_worker_pool(workers).map(fn, items))


def _cluster(points: list[np.ndarray], tol: float) -> list[np.ndarray]:
    reps: list[np.ndarray] = []
    for p in points:
        if not any(np.max(np.abs(p - r)) <= tol for r in reps):
            reps.append(p)
    return reps


def _dual_form(rows: np.ndarray) -> np.ndarray:
    """The equality rows both real LPs share in dual form, built once per
    frame: ``[rowsT, -rowsT]`` over a row of ones, (m + 1) x 2q."""
    q, m = rows.shape
    a_eq = np.ones((m + 1, 2 * q))
    a_eq[:m, :q] = rows.T
    a_eq[:m, q:] = -rows.T
    return a_eq


def _solve_epigraph_lp(offsets: np.ndarray, a_eq: np.ndarray
                       ) -> tuple[float, np.ndarray, np.ndarray]:
    """min t subject to |offsets + rows . l| <= t, exactly, via HiGHS.

    Solved as its LP dual over y = (y+, y-) >= 0: minimise
    ``-offsets . (y+ - y-)`` subject to ``rowsT (y+ - y-) = 0`` and
    ``sum(y) = 1``.  Returns t = -fun, l (the multiplier of the m
    ``rowsT`` equality rows) and y, whose signed weights s = y+ - y-
    certify which sides the face probes can drop (:func:`_probe_columns`).
    """
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[-1] = 1.0
    res = scipy.optimize.linprog(np.concatenate([-offsets, offsets]),
                                 A_eq=a_eq, b_eq=b_eq, method="highs",
                                 options={"presolve": False})
    if not res.success:
        raise SolverFailure(f"epigraph LP failed: {res.message}")
    return -float(res.fun), res.eqlin.marginals[:-1], res.x


def _probe_columns(offsets: np.ndarray, a_eq: np.ndarray, t_cap: float,
                   l_star: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Which of the 2q dual columns (constraint sides ``+-v_j <= t_cap``,
    v = offsets + rows . l) can be active somewhere on the face
    F = {l : |v(l)| <= t_cap}; the face probes solve over these only.

    With s = y+ - y- from ``weights``, support S, rho = rowsT s,
    d = l - l_star and G = |s|_1 t_cap - s . offsets - rho . l_star,
    every l in F has sum over S of |s_q| (t_cap - sgn(s_q) v_q(l))
    = G - rho . d, a sum of nonnegative terms.  That pins each support
    row, |rows_q . d| <= |e_q| + (G+ + |rho| |d|) / |s_q| with
    e_q = t_cap - sgn(s_q) v_q(l_star), so if rows_S has full column
    rank with smallest singular value sigma > |rho| h, h = |1 / s_S|,
    then |d| <= D = (|e| + G+ h) / (sigma - |rho| h).  A side with
    ``+-v_j(l_star) + 2 D |rows_j| < t_cap`` is then inactive on all of
    F, so dropping it leaves F and its vertices as they are; the factor
    2 is a margin for rounding.  Every quantity is recomputed from the
    frame's data, so the bound holds whatever weights are passed.  When
    they certify nothing (fewer than m nonzero, rows_S rank-deficient,
    sigma <= |rho| h, or a non-finite D) every column is kept.
    """
    q = offsets.size
    rows_t = a_eq[:-1, :q]
    values = offsets + l_star @ rows_t
    keep = np.ones(2 * q, dtype=bool)
    s = weights[:q] - weights[q:]
    support = s != 0
    if np.count_nonzero(support) < rows_t.shape[0]:
        return keep
    try:
        sigma = np.linalg.svd(rows_t[:, support], compute_uv=False)
    except np.linalg.LinAlgError:
        return keep
    # Non-finite or subnormal weights may overflow here; they leave D
    # non-finite or the slack <= 0, and every column is kept.
    with np.errstate(all="ignore"):
        excess = t_cap - np.sign(s[support]) * values[support]
        rho = rows_t @ s
        gap = np.abs(s).sum() * t_cap - s @ offsets - rho @ l_star
        h = np.linalg.norm(1.0 / np.abs(s[support]))
        slack = sigma[-1] - np.linalg.norm(rho) * h
        radius = (np.linalg.norm(excess) + max(gap, 0.0) * h) / slack
    if not (sigma[-1] > RANK_RTOL * sigma[0] and slack > 0
            and np.isfinite(radius)):
        return keep
    reach = 2.0 * radius * np.linalg.norm(rows_t, axis=0)
    keep[:q] = values + reach >= t_cap
    keep[q:] = reach - values >= t_cap
    return keep


def _face_probe(a_eq: np.ndarray, cost: np.ndarray,
                objective: np.ndarray) -> np.ndarray | None:
    """Minimise ``objective . l`` over the (near-)optimal face
    |offsets + rows . l| <= t_cap.

    Solved as its LP dual over y = (y+, y-) >= 0: minimise
    ``cost . y`` with ``cost = (t_cap - offsets, t_cap + offsets)``
    subject to ``rowsT (y+ - y-) = -objective``; l is the multiplier of
    those equality rows.  None when HiGHS fails, e.g. on an unbounded
    probe, whose dual is infeasible.
    """
    res = scipy.optimize.linprog(cost, A_eq=a_eq[:-1], b_eq=-objective,
                                 method="highs", options={"presolve": False})
    if not res.success:
        return None
    return res.eqlin.marginals


def _face_candidates(offsets: np.ndarray, a_eq: np.ndarray, t_star: float,
                     l_star: np.ndarray, weights: np.ndarray, draws,
                     threads: int | None = None) -> list[np.ndarray]:
    """Sample extreme points of the optimal face with random LP objectives,
    ``count`` drawn from ``rng`` for each ``(rng, count)`` of ``draws``.

    Every probe solves over the columns :func:`_probe_columns` keeps,
    one mask per frame built from the epigraph LP's ``weights``: the
    face is the same, so is its optimal vertex.  All objectives are drawn
    first, in that order, so each generator advances as in a sequential
    loop whatever ``threads`` is.
    """
    t_cap = t_star + 1e-9 * max(1.0, t_star)
    keep = _probe_columns(offsets, a_eq, t_cap, l_star, weights)
    a_keep = a_eq[:, keep]
    cost = np.concatenate([t_cap - offsets, t_cap + offsets])[keep]
    objectives = [rng.standard_normal(a_eq.shape[0] - 1)
                  for rng, count in draws for _ in range(count)]
    found = _parallel_map(lambda c: _face_probe(a_keep, cost, c),
                          objectives, threads)
    return [l_star] + [x for x in found if x is not None]


def _minimize_real(problem: MinMaxProblem, draws, threads: int | None
                   ) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """The epigraph LP's minimum and minimiser, and the minimiser followed
    by the face probes' points.

    The LPs see ``rows`` scaled by ``2**shift``, the power of two that puts
    max|rows| in [1, 2), so HiGHS drops or refuses no coefficient whatever
    the frame's scale; their points are scaled back by the same power.
    Both steps are exact.
    """
    shift = 1 - int(np.frexp(np.max(np.abs(problem.rows)))[1])
    a_eq = _dual_form(np.ldexp(problem.rows, shift))
    mu_min, best, weights = _solve_epigraph_lp(problem.offsets, a_eq)
    points = [np.ldexp(p, shift) for p in _face_candidates(
        problem.offsets, a_eq, mu_min, best, weights, draws, threads)]
    return mu_min, points[0], points


def _flat_directions_increase(problem: MinMaxProblem, t_star: float,
                              l_star: np.ndarray,
                              rng: np.random.Generator) -> bool:
    """Check mu grows strictly along directions that keep the active
    constraints flat; True means no flat escape direction was found."""
    values = problem.entries(l_star)
    act_tol = max(1e-7, 1e-7 * t_star)
    active = np.abs(values) >= t_star - act_tol
    if not np.any(active):
        return True
    if np.iscomplexobj(values):
        # Gradient of |c + a.x| w.r.t. the real parametrisation, evaluated
        # at the minimiser; directions in its null space keep every
        # active magnitude stationary to first order.
        g = values[active].conj()[:, None] * problem.rows[active]
        grads = np.hstack([g.real, -g.imag])
        dim = 2 * problem.m
    else:
        grads = np.sign(values[active])[:, None] * problem.rows[active]
        dim = problem.m
    _, s, vh = np.linalg.svd(grads, full_matrices=True)
    rank = int(np.sum(s > 1e-8 * s[0])) if s.size and s[0] > 0 else 0
    null = vh[rank:, :]
    if null.shape[0] == 0:
        return True
    delta = 1e-5 * max(1.0, float(np.max(np.abs(l_star))))
    floor = t_star + 1e-10 * max(1.0, t_star)
    for _ in range(N_FLAT_DIRS):
        w = rng.standard_normal(null.shape[0])
        v = w @ null
        v = v / np.linalg.norm(v)
        if np.iscomplexobj(values):
            vc = v[:problem.m] + 1j * v[problem.m:]
        else:
            vc = v
        for sgn in (1.0, -1.0):
            if problem.mu(l_star + sgn * delta * vc) <= floor:
                return False
    return True


def _surrogate_value_grad(x: np.ndarray, eta: float, offsets: np.ndarray,
                          rows: np.ndarray) -> tuple[float, np.ndarray]:
    m = rows.shape[1]
    params = x[:m] + 1j * x[m:]
    g = offsets + rows @ params
    u = np.abs(g) ** 2
    z = eta * u
    zmax = float(z.max())
    w = np.exp(z - zmax)
    sw = float(w.sum())
    value = (zmax + np.log(sw)) / eta
    weights = w / sw
    t = (weights * g.conj()) @ rows
    grad = np.concatenate([2.0 * t.real, -2.0 * t.imag])
    return value, grad


def _minimize_complex(problem: MinMaxProblem, cluster_tol: float,
                      rng: np.random.Generator
                      ) -> tuple[float, np.ndarray, list[np.ndarray]]:
    m = problem.m

    def mu_of(x: np.ndarray) -> float:
        return problem.mu(x[:m] + 1j * x[m:])

    starts = [np.zeros(2 * m)]
    for _ in range(N_STARTS - 1):
        starts.append(rng.standard_normal(2 * m))
    finals: list[tuple[float, np.ndarray]] = []
    for x0 in starts:
        x = x0
        try:
            for eta in ETA_SCHEDULE:
                res = scipy.optimize.minimize(
                    _surrogate_value_grad, x,
                    args=(eta, problem.offsets, problem.rows),
                    jac=True, method="L-BFGS-B",
                    options={"maxiter": 500})
                x = res.x
            polish = scipy.optimize.minimize(
                mu_of, x, method="Nelder-Mead",
                options={"xatol": 1e-12, "fatol": 1e-14,
                         "maxfev": POLISH_MAXFEV})
            x = polish.x
        except (ValueError, FloatingPointError) as exc:
            raise SolverFailure(f"surrogate descent failed: {exc}") from exc
        finals.append((mu_of(x), x))
    finals.sort(key=lambda pair: pair[0])
    best_mu, best_x = finals[0]
    near = [x for mu, x in finals if mu <= best_mu + cluster_tol]
    cands = [x[:m] + 1j * x[m:] for x in near]
    return best_mu, best_x[:m] + 1j * best_x[m:], cands


def minimize_mu(frame: Frame, *, seed: int = 0,
                cluster_tol: float = CLUSTER_TOL,
                threads: int | None = None) -> SearchResult:
    """Minimise the largest off-diagonal Gramian magnitude over all duals.

    Real frames are solved as an exact linear program; complex frames go
    through the smoothed surrogate.  The result carries the distinct
    near-minimisers found (those within ``cluster_tol`` of one another
    count as one) and the exclusivity verdict drawn from them.  The random
    draws come from ``seed`` and ``PROBE_SEED``.  ``threads`` caps the
    threads that solve the real face probes; the result does not depend
    on it.
    """
    if seed < 0:
        raise DomainError(f"the seed must be >= 0, got {seed}")
    problem = minmax_problem(frame)
    if frame.k == frame.n:
        params = np.zeros(problem.family.param_shape,
                          dtype=frame.synthesis.dtype)
        return SearchResult(mu_min=problem.mu(params), minimizer_params=params,
                            minimizer_dual=problem.family.base,
                            candidate_minimizers=(params,),
                            exclusive_within_tol=True, problem=problem)
    rng = np.random.default_rng(seed)
    probe_rng = np.random.default_rng(PROBE_SEED)
    if frame.field == REAL:
        mu_min, best, points = _minimize_real(
            problem, ((rng, N_FACE_PROBES), (probe_rng, PROBE_FACE_PROBES)),
            threads)
    else:
        mu_min, best, points = _minimize_complex(problem, cluster_tol, rng)
        points += _minimize_complex(problem, cluster_tol, probe_rng)[2]
    reps = _cluster(points, cluster_tol)
    exclusive = len(reps) == 1 and _flat_directions_increase(
        problem, mu_min, best, probe_rng)
    return SearchResult(
        mu_min=float(mu_min),
        minimizer_params=np.reshape(best, problem.family.param_shape),
        minimizer_dual=problem.dual(best),
        candidate_minimizers=tuple(np.reshape(r, problem.family.param_shape)
                                   for r in reps),
        exclusive_within_tol=bool(exclusive),
        problem=problem,
    )


def exclusivity_probe(frame: Frame, result: SearchResult) -> bool:
    """Numerical evidence that the minimiser is unique: the verdict
    :func:`minimize_mu` reached for ``frame``, read from ``result``.

    True only when every restart (LP face probes over the reals, surrogate
    restarts over the complex field) landed in one cluster and random
    moves along the active-constraint flat directions strictly increase
    mu.  This is evidence, not a proof.
    """
    return result.exclusive_within_tol


def grassmannian_gap(frame: Frame, other: Frame, result: SearchResult,
                     tol: float = DUAL_TOL) -> float:
    """mu(Gr(F, H))^2 - mu_min^2, for any dual H; nonnegative up to slack."""
    if not is_dual(frame, other, tol):
        raise NotADual("the gap is defined for dual pairs only")
    mu = max_offdiagonal(cross_gramian(frame, other))
    return mu * mu - result.mu_min * result.mu_min


# --------------------------------------------------------------------------
# Random probe harness for the conjectured coherence floor.


@dataclass(frozen=True, eq=False)
class HarnessSummary:
    """Aggregate outcome of a batch of random dual-pair draws."""

    n: int
    k: int
    trials: int
    seed: int
    violations: int
    min_ratio: float
    case_a_count: int
    counterexamples: tuple[tuple[np.ndarray, np.ndarray], ...] = ()


def _conj_t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2).conj()


def _random_frame_matrix(rng: np.random.Generator, n: int, k: int,
                         field: str) -> np.ndarray:
    while True:
        m = _gaussian(rng, (n, k), field)
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > RANK_RTOL * s[0]:
            return m


def _uint32_words(value: int) -> list[int]:
    """A nonnegative int as SeedSequence splits it: 32-bit words, low first."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_hasher(const: int, mult: int):
    """SeedSequence's hash step: xor, multiply, xorshift, with a constant
    that advances by ``mult`` at every call."""
    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return step


def _seed_sequence_state(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(...).generate_state(4, np.uint64)`` for a stack of
    assembled entropy words, one array lane per seed.

    The 32-bit values sit in uint64 lanes, so no product overflows.
    """
    hashmix = _seed_hasher(_SEED_INIT_A, _SEED_MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = ((x * _SEED_MIX_L & _MASK32) + (1 << 32)
             - (y * _SEED_MIX_R & _MASK32)) & _MASK32
        return r ^ r >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_SEED_POOL)]
    for src in range(_SEED_POOL):
        for dst in range(_SEED_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_SEED_POOL:]:
        for dst in range(_SEED_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    generate = _seed_hasher(_SEED_INIT_B, _SEED_MULT_B)
    half = [generate(pool[i % _SEED_POOL]) for i in range(8)]
    return np.stack([half[i] | half[i + 1] << 32 for i in range(0, 8, 2)],
                    axis=1)


def _trial_seed_words(seed: int, t0: int, t1: int) -> np.ndarray:
    """Row t - t0 is ``SeedSequence((seed, t)).generate_state(4, np.uint64)``
    for each trial t in [t0, t1), t < 2**64."""
    out = np.empty((t1 - t0, 4), dtype=np.uint64)
    start = t0
    while start < t1:
        # The entropy is the seed's words then the trial's; trials with
        # as many words as ``start`` share one array pass.
        t_words = len(_uint32_words(start))
        stop = min(t1, 1 << (32 * t_words))
        t = np.arange(start, stop, dtype=np.uint64)
        entropy = [np.full(t.shape, w, dtype=np.uint64)
                   for w in _uint32_words(seed)]
        entropy += [t >> 32 * j & _MASK32 for j in range(t_words)]
        out[start - t0:stop - t0] = _seed_sequence_state(entropy)
        start = stop
    return out


def _trial_rngs(seed: int, t0: int, t1: int):
    """Yield, for each trial t in [t0, t1), a generator in the state that
    ``np.random.default_rng((seed, t))`` starts in: one Generator, created
    for trial t0 and reset for each later trial."""
    rng = np.random.default_rng((seed, t0))
    yield rng
    bit_generator = rng.bit_generator
    # One state dict, refilled per trial.  PCG64's state setter requires
    # has_uint32 and uinteger and applies them at every reset; a Gaussian
    # draw never buffers a 32-bit half-word, so both stay 0.
    pcg = {}
    full = {"bit_generator": "PCG64", "state": pcg,
            "has_uint32": 0, "uinteger": 0}
    for s_hi, s_lo, i_hi, i_lo in _trial_seed_words(seed, t0 + 1,
                                                    t1).tolist():
        # PCG64's seeding: inc from the last two words, then two steps of
        # the LCG around adding the first two.
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT
                        + inc) & _MASK128
        pcg["inc"] = inc
        bit_generator.state = full
        yield rng


def _chunk_trials(n: int, k: int, field: str) -> int:
    """Most trials one chunk may hold within HARNESS_CHUNK_BYTES."""
    itemsize = 16 if field == COMPLEX else 8
    # about four n x k arrays (frames, canonical duals, duals and a
    # temporary), four k x k (vh, Gramians and their squared magnitudes)
    # and the draw buffer's n x (2k - n) normals (two blocks over C)
    per_trial = itemsize * (4 * n * k + 4 * k * k + n * (2 * k - n))
    return max(1, HARNESS_CHUNK_BYTES // per_trial)


def _draw_chunk(n: int, k: int, t0: int, t1: int, seed: int,
                field: str) -> tuple[np.ndarray, np.ndarray]:
    """The frames and dual parameters of trials [t0, t1), as each trial's
    ``default_rng((seed, t))`` draws them with ``_gaussian``: its n x k
    frame, then its n x (k - n) parameters (empty for k = n).

    Each trial fills its row of one buffer with one ``standard_normal``
    call, which yields the same numbers as the separate draws.
    """
    blocks = 2 if field == COMPLEX else 1
    normals = np.empty((t1 - t0, blocks * n * (2 * k - n)))
    for idx, rng in enumerate(_trial_rngs(seed, t0, t1)):
        rng.standard_normal(out=normals[idx])
    split = blocks * n * k
    return (_from_normals(normals[:, :split], (n, k), field),
            _from_normals(normals[:, split:], (n, k - n), field))


def _harness_chunk(n: int, k: int, seed: int, field: str, t0: int,
                   frames: np.ndarray, params: np.ndarray) -> dict:
    """Violations, min ratio, case-a count and the first counterexamples
    of the trials from t0 that :func:`_draw_chunk` drew."""
    count = len(frames)
    # One stacked SVD serves the rank check and the null bases.  Trials
    # that fail the check, or pass it by less than a factor 2, are drawn
    # again the sequential way, whose single-matrix check decides them; so
    # a last-bit difference between the two SVDs cannot change any trial.
    sigma, vh = np.linalg.svd(frames, full_matrices=True)[1:]
    suspect = sigma[:, -1] <= 2.0 * RANK_RTOL * sigma[:, 0]
    for idx in np.nonzero(suspect)[0]:
        rng = np.random.default_rng((seed, t0 + int(idx)))
        frames[idx] = _random_frame_matrix(rng, n, k, field)
        # For k = n the parameter draw is empty and consumes nothing.
        params[idx] = _gaussian(rng, (n, k - n), field)
        vh[idx] = np.linalg.svd(frames[idx], full_matrices=True)[2]
    ops = frames @ _conj_t(frames)
    duals = np.linalg.solve(ops, frames) + params @ vh[:, n:, :]
    grams = _conj_t(frames) @ duals
    absq = np.abs(grams) ** 2
    off = ~np.eye(k, dtype=bool)
    off_sq = absq[:, off]
    if k > n:
        c = welch_constant(n, k)
        mus = np.sqrt(off_sq.max(axis=1))
        ratios = mus / c
        violating = mus < c - VIOLATION_TOL
    else:
        ratios = np.full(count, np.inf)
        violating = np.zeros(count, dtype=bool)
    case_a = float(n) > n * n / k + off_sq.sum(axis=1)
    examples = [(frames[idx].copy(), duals[idx].copy())
                for idx in np.nonzero(violating)[0][:MAX_COUNTEREXAMPLES]]
    return {
        "violations": int(violating.sum()),
        "min_ratio": float(ratios.min()) if count else np.inf,
        "case_a": int(case_a.sum()),
        "examples": examples,
    }


def conjecture_harness(n: int, k: int, trials: int, seed: int, *,
                       field: str = REAL,
                       threads: int | None = None) -> HarnessSummary:
    """Draw random frames and random duals; count coherence-floor violations.

    Each trial draws its n x k frame, then the n x (k - n) parameters of
    its dual (canonical dual plus parameters times the null basis),
    exactly as ``np.random.default_rng((seed, trial))`` would, so the
    outcome is reproducible and independent of chunking or thread count.
    Trials run in chunks whose arrays take about HARNESS_CHUNK_BYTES at
    most, so memory does not grow with ``trials``.  The calling thread
    draws every chunk and, when ``threads`` is above 1, hands its linear
    algebra to a pool of ``threads`` threads (at most the CPU count) as
    soon as it is drawn, holding at most ``threads`` drawn chunks at once.
    The first MAX_COUNTEREXAMPLES violating pairs, in trial order, are
    kept.
    ``case_a_count`` tallies trials where n exceeds n^2/k plus the total
    off-diagonal Gramian energy, the branch the floor argument leaves open.
    For k = n the floor is zero and every trial passes trivially
    (min_ratio reported as inf).
    """
    if n < 1 or k < n:
        raise DomainError("need k >= n >= 1")
    if trials < 1:
        raise DomainError("need at least one trial")
    if seed < 0:
        raise DomainError(f"the seed must be >= 0, got {seed}")
    workers = _thread_count(threads)
    chunk = min(-(-trials // workers), _chunk_trials(n, k, field))

    def draw(t0: int) -> tuple:
        return t0, *_draw_chunk(n, k, t0, min(t0 + chunk, trials), seed,
                                field)

    starts = range(0, trials, chunk)
    if workers == 1:
        parts = [_harness_chunk(n, k, seed, field, *draw(t0))
                 for t0 in starts]
    else:
        pool = _worker_pool(workers)
        parts = []
        pending = collections.deque()
        # Only the calling thread draws: a draw releases the GIL at every
        # call, so drawing threads would trade it trial by trial.  Waiting
        # for the oldest chunk before drawing the next holds at most
        # ``workers`` drawn chunks at once; each task pops its chunk from
        # a one-item list, as the pool keeps a task's arguments a moment
        # after its result is set.
        for t0 in starts:
            if len(pending) == workers:
                parts.append(pending.popleft().result())
            pending.append(pool.submit(
                lambda box: _harness_chunk(n, k, seed, field, *box.pop()),
                [draw(t0)]))
        parts += [f.result() for f in pending]
    examples = [ex for p in parts for ex in p["examples"]]
    return HarnessSummary(
        n=n, k=k, trials=trials, seed=seed,
        violations=sum(p["violations"] for p in parts),
        min_ratio=float(min(p["min_ratio"] for p in parts)),
        case_a_count=sum(p["case_a"] for p in parts),
        counterexamples=tuple(examples[:MAX_COUNTEREXAMPLES]),
    )
