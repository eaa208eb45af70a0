"""Acceptance gate: one test per published criterion.

Each test asserts the full set of values for its criterion at the stated
tolerance.  A per-criterion PASS/FAIL summary is printed at the end of the
run (see conftest).  The random-probe criterion reports coherence-floor
violations as findings instead of failures; see the warning text it emits.
"""
import warnings

import numpy as np
import pytest
import scipy.linalg

from fpl.core import (
    Frame,
    canonical_dual,
    cross_gramian,
    dual_family,
    is_dual,
    make_frame,
    apply_unitary,
)
from fpl.errors import NotAFusionFrame
from fpl.fusion import (
    apply_unitary_fusion,
    canonical_dual_fusion,
    cross_fusion_potential,
    fusion_potential,
    is_tight_fusion,
    make_fusion_frame,
)
from fpl.grassmannian import conjecture_harness, exclusivity_probe, minimize_mu
from fpl.potentials import (
    cross_frame_potential,
    cross_potential_bound,
    frame_potential_bound,
    gramian_diagonal_sum,
    is_co_equidistributed,
    is_co_equipartitioned,
    log_phi_offdiagonal,
    max_offdiagonal,
    mu_limit_estimate,
    phi_sum,
    pth_cross_potential,
    welch_constant,
)

from conftest import instance_grid, random_frame_matrix

TOL = 1e-9
SUBSPACE_TOL = 1e-8


def _approx(value, expected, tol=TOL):
    assert value == pytest.approx(expected, abs=tol), \
        f"got {value!r}, wanted {expected!r} within {tol}"


def _haar_unitary(rng, n, field):
    if field == "complex":
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_criterion_1_reference_values(trident, trident_flat_dual, mercedes,
                                      basis_plus_diag, fusion_xy_z,
                                      fusion_xy_antidiag, fusion_xy_tilted):
    # frame potentials with their bounds
    rep = frame_potential_bound(mercedes)
    _approx(rep.value, 4.5)
    _approx(rep.bound, 4.5)
    rep = frame_potential_bound(trident)
    _approx(rep.value, 13.0)
    _approx(rep.bound, 12.5)

    # cross potentials of the canonical and the flat dual
    canon = canonical_dual(trident)
    _approx(cross_potential_bound(trident, canon).value, 2.0)
    _approx(cross_frame_potential(trident, trident_flat_dual), 4.0)

    # flipping the sign of one canonical dual vector keeps the cross
    # potential at exactly n while destroying duality
    flipped = canon.synthesis.copy()
    flipped[:, 0] = -flipped[:, 0]
    sign_flip = make_frame(flipped)
    _approx(cross_frame_potential(trident, sign_flip), 2.0)
    assert not is_dual(trident, sign_flip)

    # cross-Gramians entrywise, plus their coherence values
    gram_canon = cross_gramian(trident, canon).entries
    expected = np.array([[1 / 3, 1 / 3, 1 / 3],
                         [1 / 3, 5 / 6, -1 / 6],
                         [1 / 3, -1 / 6, 5 / 6]])
    assert np.max(np.abs(gram_canon - expected)) <= TOL
    gram_flat = cross_gramian(trident, trident_flat_dual).entries
    expected = np.array([[1.0, 0.0, 0.0],
                         [1.0, 0.5, -0.5],
                         [1.0, -0.5, 0.5]])
    assert np.max(np.abs(gram_flat - expected)) <= TOL
    _approx(max_offdiagonal(cross_gramian(trident, canon)), 1 / 3)
    _approx(max_offdiagonal(cross_gramian(trident, trident_flat_dual)), 1.0)

    # basis-plus-diagonal frame: canonical dual, Gramian, diagonal sum
    bpd_canon = canonical_dual(basis_plus_diag)
    expected = np.array([[2.0, -1.0, 1.0], [-1.0, 2.0, 1.0]]) / 3.0
    assert np.max(np.abs(bpd_canon.synthesis - expected)) <= TOL
    gram = cross_gramian(basis_plus_diag, bpd_canon)
    expected = np.array([[2.0, -1.0, 1.0],
                         [-1.0, 2.0, 1.0],
                         [1.0, 1.0, 2.0]]) / 3.0
    assert np.max(np.abs(gram.entries - expected)) <= TOL
    diag = gramian_diagonal_sum(gram)
    _approx(diag.value, 4 / 3)
    _approx(diag.bound, 4 / 3)

    # fusion examples: potentials, cross pairings with the canonical dual,
    # the non-uniform bound, and the third example's dual subspaces
    for ff, ffp, cross in ((fusion_xy_z, 3.0, 3.0),
                           (fusion_xy_antidiag, 6.0, 6.0),
                           (fusion_xy_tilted, 7.0, 5.0)):
        _approx(fusion_potential(ff).value, ffp)
        _approx(cross_fusion_potential(ff, canonical_dual_fusion(ff)), cross)
    _approx(fusion_potential(fusion_xy_antidiag).bound, 16 / 3)
    _approx(fusion_potential(fusion_xy_tilted).bound, 16 / 3)
    dual = canonical_dual_fusion(fusion_xy_tilted)
    plane_anti = np.array([[1.0, 0.0, 0.0],
                           [0.0, 0.5, -0.5],
                           [0.0, -0.5, 0.5]])   # y + z = 0
    plane_y0 = np.array([[1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0]])      # y = 0
    projections = [w.projection() for w in dual.subspaces]
    assert np.max(np.abs(projections[0] - plane_anti)) <= SUBSPACE_TOL
    assert np.max(np.abs(projections[1] - plane_y0)) <= SUBSPACE_TOL


def test_criterion_2_coherence_minimisation(trident, basis_plus_diag):
    res_b = minimize_mu(basis_plus_diag)
    assert res_b.mu_min == pytest.approx(1 / 3, abs=1e-6)
    assert exclusivity_probe(basis_plus_diag, res_b) is True

    res_t = minimize_mu(trident)
    assert res_t.mu_min == pytest.approx(1 / 3, abs=1e-6)
    # The bundled reference expects a second minimiser here, but the
    # canonical dual is the only one.  The trident F = [(0,1), (1,1),
    # (-1,1)] has S = diag(2, 3) and null vector v = (-2, 1, 1), so every
    # dual is H = S^-1 F + L v^T with L = (a, b).  With p = a + b and
    # q = b - a the six off-diagonal cross-Gramian entries are
    #   1/3 + (p+q)/2 (twice), 1/3 - 2p, 1/3 - 2q, -1/6 + p, -1/6 + q.
    # At p = q = 0 the largest magnitude is 1/3.  mu <= 1/3 forces p >= 0
    # and q >= 0 (third and fourth entries) and p + q <= 0 (first), so
    # p = q = 0: mu_min = 1/3 and the canonical dual is the unique
    # minimiser.  The suite's reference row keeps the old expectation and
    # fails; the README's "known divergences" section carries the account.
    assert np.max(np.abs(res_t.minimizer_params)) <= 1e-6
    assert exclusivity_probe(trident, res_t) is True


def test_criterion_3_random_properties(basis_plus_diag):
    # canonical and family cross potentials (200 draws)
    for rng, n, k, field in instance_grid(seed=101):
        f = make_frame(random_frame_matrix(rng, n, k, field))
        family = dual_family(f)
        canon_value = cross_frame_potential(f, family.base)
        assert abs(canon_value - n) <= TOL
        params = family.random_param(rng)
        h = family.dual(params)
        value = cross_frame_potential(f, h)
        assert value >= n - TOL
        lifted = float(np.linalg.norm(f.analysis @ params) ** 2)
        assert abs(value - n - lifted) <= 1e-8  # equality only at zero params

    # dual-pair Gramians: idempotent with trace n (200 draws)
    for rng, n, k, field in instance_grid(seed=102):
        f = make_frame(random_frame_matrix(rng, n, k, field))
        family = dual_family(f)
        g = cross_gramian(f, family.dual(family.random_param(rng))).entries
        assert np.max(np.abs(g @ g - g)) <= 1e-8
        assert abs(np.trace(g) - n) <= 1e-8

    # diagonal sum floor (200 draws)
    for rng, n, k, field in instance_grid(seed=103):
        f = make_frame(random_frame_matrix(rng, n, k, field))
        family = dual_family(f)
        gram = cross_gramian(f, family.dual(family.random_param(rng)))
        assert gramian_diagonal_sum(gram).value >= n * n / k - TOL

    # exponential sandwich and the limit estimate (200 draws)
    for rng, n, k, field in instance_grid(seed=104):
        f = make_frame(random_frame_matrix(rng, n, k, field))
        gram = cross_gramian(f, canonical_dual(f))
        mu2 = max_offdiagonal(gram) ** 2
        for eta in (1.0, 10.0, 1000.0):
            est = log_phi_offdiagonal(gram, eta) / eta
            assert est >= mu2 - TOL
            assert est <= mu2 + np.log(k * (k - 1)) / eta + TOL
        top = mu_limit_estimate(gram, (1.0, 10.0, 1000.0, 10000.0))
        assert abs(top - mu2) <= np.log(k * (k - 1)) / 10000.0 + TOL

    # unitary invariance of the potentials and the coherence (200 draws)
    for rng, n, k, field in instance_grid(seed=105):
        f = make_frame(random_frame_matrix(rng, n, k, field))
        family = dual_family(f)
        h = family.dual(family.random_param(rng))
        u = _haar_unitary(rng, n, field)
        uf, uh = apply_unitary(f, u), apply_unitary(h, u)
        assert abs(frame_potential_bound(f).value
                   - frame_potential_bound(uf).value) <= TOL
        assert abs(pth_cross_potential(f, h, 1.7)
                   - pth_cross_potential(uf, uh, 1.7)) <= TOL
        before = cross_gramian(f, h)
        after = cross_gramian(uf, uh)
        assert abs(max_offdiagonal(before) - max_offdiagonal(after)) <= TOL
        assert abs(log_phi_offdiagonal(before, 1.0)
                   - log_phi_offdiagonal(after, 1.0)) <= TOL

    # fusion cross potential trace identity, bound, tightness (200 draws)
    checked_tight = 0
    for i, (rng, n, k, field) in enumerate(instance_grid(seed=106)):
        ff = _random_fusion(rng, n)
        other = _random_fusion(rng, n, k_subspaces=ff.k)
        got = cross_fusion_potential(ff, other)
        expected = float(np.trace(ff.operator @ other.operator).real)
        assert abs(got - expected) <= TOL
        rep = fusion_potential(ff)
        assert rep.value >= rep.bound - TOL
        if not is_tight_fusion(ff):
            assert rep.equality_within > TOL
        if i % 2 == 0:
            tight = _random_tight_fusion(rng, n)
            assert is_tight_fusion(tight)
            assert fusion_potential(tight).equality_within <= TOL
            u = _haar_unitary(rng, n, "real")
            rotated = apply_unitary_fusion(tight, u)
            assert abs(cross_fusion_potential(tight, tight)
                       - cross_fusion_potential(rotated, rotated)) <= TOL
            checked_tight += 1
    assert checked_tight == 100

    # co-equidistributed pairs are co-equipartitioned at every alpha (200)
    for rng, n, k, field in instance_grid(seed=107):
        f = _harmonic_frame(rng, n, k, field)
        gram = cross_gramian(f, canonical_dual(f))
        assert is_co_equidistributed(gram)
        for alpha in (0.1, 1.0, 10.0, 100.0):
            assert is_co_equipartitioned(gram, alpha)

    # the equality case of the deflated sum potential
    gram = cross_gramian(basis_plus_diag, canonical_dual(basis_plus_diag))
    for eta in (1.0, 10.0):
        rep = phi_sum(gram, 2, eta)
        assert rep.equality_within <= 1e-9 * rep.bound


def test_criterion_4_floor_probe():
    findings = []
    details = []
    for n, k in ((2, 3), (2, 4), (3, 4), (3, 5)):
        s = conjecture_harness(n, k, trials=10_000, seed=0)
        details.append(f"(n={n}, k={k}): violations={s.violations} "
                       f"min_ratio={s.min_ratio:.6f} "
                       f"case_a_count={s.case_a_count}")
        # the open branch of the floor argument must cover every violation
        assert s.violations <= s.case_a_count
        assert s.min_ratio > 0.0
        if s.violations:
            findings.append((n, k, s))
            for fm, hm in s.counterexamples:
                f, h = make_frame(fm), make_frame(hm)
                assert is_dual(f, h)
                mu = max_offdiagonal(cross_gramian(f, h))
                assert mu < welch_constant(n, k) - 1e-9
    if findings:
        lines = "; ".join(details)
        warnings.warn(
            "coherence-floor probe found genuine violations (reported as a "
            f"finding, not a failure): {lines}. Counterexamples verify as "
            "exact dual pairs with coherence strictly below the floor.",
            stacklevel=1)


def test_criterion_5_dual_family_oracle(trident):
    f = trident
    # independent construction: pseudoinverse dual plus a null-space sweep
    pinv_dual = np.linalg.pinv(f.synthesis).conj().T
    null = scipy.linalg.null_space(f.synthesis)   # k x 1, orthonormal
    family = dual_family(f)
    np.testing.assert_allclose(family.base.synthesis, pinv_dual, atol=TOL)

    grid = np.linspace(-1.0, 1.0, 21)
    for a in grid:
        for b in grid:
            l = np.array([[a], [b]])
            oracle = pinv_dual + l @ null.conj().T
            # the oracle member is a dual, and the family reproduces it
            assert np.max(np.abs(f.synthesis @ oracle.conj().T
                                 - np.eye(2))) <= TOL
            params = family.parameter_of(Frame(oracle))
            assert params is not None
            rebuilt = family.dual(params)
            assert np.max(np.abs(rebuilt.synthesis - oracle)) <= TOL
            # and the oracle's sweep recovers the family member at the same
            # grid point (null bases may differ by a sign; projecting onto
            # the oracle basis removes it)
            member = family.dual(l)
            recovered = (member.synthesis - pinv_dual) @ null
            assert np.max(np.abs(pinv_dual + recovered @ null.conj().T
                                 - member.synthesis)) <= TOL


def _random_fusion(rng, n, k_subspaces=None):
    """Random fusion frame: k subspaces of random dims, jointly spanning."""
    k = int(k_subspaces) if k_subspaces else int(rng.integers(2, 5))
    for _ in range(64):
        dims = [int(rng.integers(1, n)) for _ in range(k)]
        if sum(dims) < n:
            continue
        bases = [rng.standard_normal((n, d)) for d in dims]
        try:
            return make_fusion_frame(bases)
        except NotAFusionFrame:
            continue
    raise AssertionError("could not draw a spanning fusion frame")


def _random_tight_fusion(rng, n):
    """Split a random orthonormal basis into subspaces: operator is I."""
    q = _haar_unitary(rng, n, "real")
    cut = int(rng.integers(1, n))
    return make_fusion_frame([q[:, :cut], q[:, cut:]])


def _harmonic_frame(rng, n, k, field):
    """A frame whose canonical Gramian is circulant, hence its column
    magnitude multisets all coincide."""
    if field == "complex":
        freqs = rng.choice(k, size=n, replace=False)
        grid = np.arange(k)
        rows = np.exp(2j * np.pi * np.outer(freqs, grid) / k) / np.sqrt(k)
        return make_frame(rows)
    if k == n:
        return make_frame(np.eye(n))
    # real case: constant / cosine / sine rows at distinct frequencies
    grid = 2.0 * np.pi * np.arange(k) / k
    top = (k - 1) // 2
    rows = []
    if n % 2 == 1:
        rows.append(np.ones(k) / np.sqrt(k))
    n_pairs = n // 2
    if top >= n_pairs:
        freqs = 1 + rng.choice(top, size=n_pairs, replace=False)
    else:
        freqs = np.arange(1, n_pairs + 1)
    for m in freqs:
        rows.append(np.cos(m * grid))
        rows.append(np.sin(m * grid))
    return make_frame(np.vstack(rows))
