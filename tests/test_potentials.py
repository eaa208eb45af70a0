import numpy as np
import pytest

from fpl.core import (
    CrossGramian,
    canonical_dual,
    cross_gramian,
    dual_family,
    make_frame,
)
from fpl.errors import DomainError, NotADual
from fpl.potentials import (
    co_equipartition_profile,
    constant_diagonal,
    cross_frame_potential,
    cross_potential_bound,
    exp_entry,
    frame_potential,
    frame_potential_bound,
    gramian_diagonal_sum,
    is_co_equidistributed,
    is_co_equipartitioned,
    log_phi_offdiagonal,
    max_offdiagonal,
    mu_limit_estimate,
    phi_offdiagonal,
    phi_sum,
    pth_bound,
    pth_cross_potential,
    pth_cross_report,
    welch_constant,
)

from conftest import random_frame_matrix


class TestFramePotential:
    def test_trident_value_and_bound(self, trident):
        report = frame_potential_bound(trident)
        assert report.value == pytest.approx(13.0, abs=1e-12)
        assert report.bound == pytest.approx(12.5, abs=1e-12)
        assert report.meets_bound

    def test_mercedes_attains_the_bound(self, mercedes):
        report = frame_potential_bound(mercedes)
        assert report.value == pytest.approx(4.5, abs=1e-12)
        assert report.bound == pytest.approx(4.5, abs=1e-12)
        assert report.equality_within <= 1e-9

    def test_bound_is_squared_norm_sum_over_dimension(self):
        report = frame_potential_bound(make_frame(np.eye(3)))
        assert report.bound == pytest.approx(3.0)

    def test_matches_direct_double_sum(self):
        m = random_frame_matrix(np.random.default_rng(8), 3, 5, "complex")
        f = make_frame(m)
        direct = sum(abs(np.vdot(m[:, i], m[:, j])) ** 2
                     for i in range(5) for j in range(5))
        assert frame_potential(f) == pytest.approx(direct, rel=1e-12)


class TestCrossPotential:
    def test_canonical_pair_attains_the_floor(self, trident):
        report = cross_potential_bound(
            cross_gramian(trident, canonical_dual(trident)))
        assert report.value == pytest.approx(2.0, abs=1e-12)
        assert report.bound == pytest.approx(2.0, abs=1e-12)
        assert report.equality_within <= 1e-9

    def test_flat_dual_value(self, trident, trident_flat_dual):
        gram = cross_gramian(trident, trident_flat_dual)
        assert cross_frame_potential(gram) == pytest.approx(4.0, abs=1e-12)
        report = cross_potential_bound(gram)
        assert report.bound == pytest.approx(2.0, abs=1e-12)
        assert report.meets_bound

    def test_floor_requires_duality(self, trident, trident_flat_dual):
        halved = make_frame(trident_flat_dual.synthesis / 2.0)
        with pytest.raises(NotADual):
            cross_potential_bound(cross_gramian(trident, halved))

    def test_family_offset_identity(self, trident):
        # value along the dual family is the floor plus the lifted energy
        family = dual_family(trident)
        rng = np.random.default_rng(2)
        for _ in range(4):
            params = 2.0 * family.random_param(rng)
            h = family.dual(params)
            lifted = trident.analysis @ params
            expected = 2.0 + np.linalg.norm(lifted) ** 2
            got = cross_frame_potential(cross_gramian(trident, h))
            assert got == pytest.approx(expected, rel=1e-10)

    def test_sign_flip_pair_reports_non_dual(self, trident):
        flipped = make_frame(-trident.synthesis)
        gram = cross_gramian(trident, flipped)
        assert cross_frame_potential(gram) == pytest.approx(13.0, abs=1e-12)
        with pytest.raises(NotADual):
            cross_potential_bound(gram)


class TestPairFunctionalsReadTheGramian:
    def test_each_pair_functional_reads_entries(self, trident):
        # A dual pair whose Gramian is replaced by a different matrix with
        # constant diagonal n/k: every pair functional must see the
        # replacement, never recompute F* G from the frames.
        dual = canonical_dual(trident)
        entries = np.full((3, 3), 0.5)
        np.fill_diagonal(entries, 2 / 3)
        assert not np.allclose(entries, trident.analysis @ dual.synthesis)
        gram = CrossGramian(entries=entries, left=trident, right=dual)
        squares = float(np.sum(entries ** 2))
        fourth = float(np.sum(entries ** 4))
        assert cross_frame_potential(gram) == pytest.approx(squares, abs=1e-15)
        assert pth_cross_potential(gram, 2.0) == pytest.approx(fourth,
                                                               abs=1e-15)
        report = cross_potential_bound(gram)
        assert report.value == pytest.approx(squares, abs=1e-15)
        assert report.bound == 2.0
        report, const_diag = pth_cross_report(gram, 2.0)
        assert report.value == pytest.approx(fourth, abs=1e-15)
        assert report.bound == pytest.approx(pth_bound(2, 3, 2.0), abs=1e-15)
        assert const_diag

    def test_frame_potential_is_the_self_pair_cross_potential(self, trident):
        assert frame_potential(trident) == \
            cross_frame_potential(cross_gramian(trident, trident))


class TestDiagonalSum:
    def test_published_values(self, trident, trident_flat_dual, basis_plus_diag):
        flat = cross_gramian(trident, trident_flat_dual)
        report = gramian_diagonal_sum(flat)
        assert report.value == pytest.approx(1.5, abs=1e-12)
        assert report.bound == pytest.approx(4 / 3, abs=1e-12)

        canon = cross_gramian(basis_plus_diag, canonical_dual(basis_plus_diag))
        report = gramian_diagonal_sum(canon)
        assert report.value == pytest.approx(4 / 3, abs=1e-12)
        assert report.equality_within <= 1e-9

    def test_bound_is_trace_squared_over_count(self):
        f = make_frame(np.eye(4))
        report = gramian_diagonal_sum(cross_gramian(f, f))
        assert report.bound == pytest.approx(4.0)


class TestPthPotential:
    def test_p_one_recovers_the_plain_cross_potential(self, trident):
        gram = cross_gramian(trident, canonical_dual(trident))
        assert pth_cross_potential(gram, 1.0) == pytest.approx(
            cross_frame_potential(gram), abs=1e-12)

    def test_mercedes_pair_attains_the_pth_bound(self, mercedes):
        gram = cross_gramian(mercedes, canonical_dual(mercedes))
        for p in (1.0, 1.5, 2.0, 3.0):
            value = pth_cross_potential(gram, p)
            bound = pth_bound(2, 3, p)
            assert value >= bound - 1e-12
        assert pth_cross_potential(gram, 2.0) == pytest.approx(
            2 / 3, abs=1e-12)
        assert pth_bound(2, 3, 2.0) == pytest.approx(2 / 3, abs=1e-12)

    def test_report_flags_non_constant_diagonal(self, trident):
        report, const_diag = pth_cross_report(
            cross_gramian(trident, canonical_dual(trident)), 2.0)
        assert not const_diag
        scaled = make_frame(np.eye(2) * 2.0)
        report, const_diag = pth_cross_report(
            cross_gramian(scaled, canonical_dual(scaled)), 2.0)
        assert const_diag

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pth_bound(2, 3, 0.5)
        with pytest.raises(DomainError):
            pth_bound(3, 2, 2.0)
        f = make_frame(np.eye(2))
        with pytest.raises(DomainError):
            pth_cross_potential(cross_gramian(f, f), 0.0)

    def test_single_vector_bound_is_the_dimension(self):
        assert pth_bound(1, 1, 3.0) == pytest.approx(1.0)

    def test_a_bound_that_overflows_is_refused(self):
        # 3 ** (2p - 1) overflows a float from p = 324 on; below that the
        # bound keeps the value of its direct form.
        assert pth_bound(2, 3, 300.0) == \
            (2.0 ** 300 + 2.0 ** 600 * 2.0 ** 299) / (3.0 ** 599 * 2.0 ** 299)
        for p in (400.0, 1e300):
            with pytest.raises(DomainError, match="overflows"):
                pth_bound(2, 3, p)


class TestConstantDiagonal:
    def test_detects_equal_diagonal(self, mercedes):
        gram = cross_gramian(mercedes, canonical_dual(mercedes))
        assert constant_diagonal(gram)

    def test_detects_unequal_diagonal(self, trident):
        gram = cross_gramian(trident, canonical_dual(trident))
        assert not constant_diagonal(gram)


class TestCoherence:
    def test_welch_constant(self):
        assert welch_constant(2, 3) == pytest.approx(1 / 3, abs=1e-15)
        assert welch_constant(3, 5) == pytest.approx(
            np.sqrt((15 - 9) / (25 * 4)), abs=1e-15)
        with pytest.raises(DomainError):
            welch_constant(3, 1)
        with pytest.raises(DomainError):
            welch_constant(3, 2)

    def test_max_offdiagonal(self, trident, trident_flat_dual):
        canon = cross_gramian(trident, canonical_dual(trident))
        assert max_offdiagonal(canon) == pytest.approx(1 / 3, abs=1e-12)
        flat = cross_gramian(trident, trident_flat_dual)
        assert max_offdiagonal(flat) == pytest.approx(1.0, abs=1e-12)

    def test_single_entry_gramian_has_no_offdiagonal(self):
        f = make_frame(np.array([[2.0]]))
        with pytest.raises(DomainError):
            max_offdiagonal(cross_gramian(f, f))


class TestExponentialFunctionals:
    def test_exp_entry(self, trident, trident_flat_dual):
        gram = cross_gramian(trident, trident_flat_dual)
        assert exp_entry(gram, 1, 1, 1.0) == pytest.approx(np.exp(0.25))
        assert exp_entry(gram, 0, 0, 2.0) == pytest.approx(np.exp(2.0))
        with pytest.raises(DomainError):
            exp_entry(gram, 0, 0, 0.0)
        with pytest.raises(IndexError):
            exp_entry(gram, 3, 0, 1.0)

    def test_offdiagonal_functional_frozen_value(self, trident,
                                                 trident_flat_dual):
        # hand count: off-diagonal squared magnitudes are
        # {1, 1, 0, 0, 1/4, 1/4} so at eta = 1 the sum is 2 + 2e + 2e^(1/4)
        gram = cross_gramian(trident, trident_flat_dual)
        expected = 2.0 + 2.0 * np.e + 2.0 * np.exp(0.25)
        assert phi_offdiagonal(gram, 1.0) == pytest.approx(expected, rel=1e-12)
        assert log_phi_offdiagonal(gram, 1.0) == pytest.approx(
            np.log(expected), rel=1e-12)

    def test_log_form_survives_overflow(self, trident, trident_flat_dual):
        gram = cross_gramian(trident, trident_flat_dual)
        eta = 5000.0
        assert phi_offdiagonal(gram, eta) == np.inf
        # log phi = eta * mu^2 + log(multiplicity) + o(1); mu = 1 here
        assert log_phi_offdiagonal(gram, eta) == pytest.approx(
            eta + np.log(2.0), abs=1e-6)

    def test_sandwich_estimate_converges_to_squared_coherence(self, trident):
        gram = cross_gramian(trident, canonical_dual(trident))
        mu2 = max_offdiagonal(gram) ** 2
        schedule = (10.0, 100.0, 1000.0, 10000.0)
        estimates = [mu_limit_estimate(gram, (eta,)) for eta in schedule]
        gaps = [e - mu2 for e in estimates]
        assert gaps[-1] < 1e-3
        assert gaps == sorted(gaps, reverse=True)
        for eta, est in zip(schedule, estimates):
            assert est >= mu2 - 1e-12
            assert est <= mu2 + np.log(6) / eta + 1e-12
        # the full-schedule call evaluates at the top of the schedule
        assert mu_limit_estimate(gram, schedule) == estimates[-1]

    def test_limit_estimate_validates_schedule(self, trident):
        gram = cross_gramian(trident, canonical_dual(trident))
        with pytest.raises(DomainError):
            mu_limit_estimate(gram, ())
        with pytest.raises(DomainError):
            mu_limit_estimate(gram, (10.0, 5.0))
        with pytest.raises(DomainError):
            mu_limit_estimate(gram, (-1.0, 2.0))


class TestPhiSum:
    def test_canonical_pair_attains_equality(self, basis_plus_diag):
        # diagonal 2/3, 2/3, 2/3 and off-diagonal magnitudes 1/3 everywhere:
        # every squared entry sits at 1/9, so the functional collapses to
        # 9 * exp(eta / 9) and matches its ceiling exactly
        gram = cross_gramian(basis_plus_diag, canonical_dual(basis_plus_diag))
        for eta in (1.0, 10.0):
            report = phi_sum(gram, 2, eta)
            expected = 9.0 * np.exp(eta / 9.0)
            assert report.value == pytest.approx(expected, rel=1e-12)
            assert report.bound == pytest.approx(expected, rel=1e-12)
            assert report.equality_within <= 1e-9 * report.bound

    def test_flat_dual_sits_above_the_floor(self, trident, trident_flat_dual):
        # off-diagonal terms enter plainly, diagonal ones damped by the
        # gap between n^2/k^2 and the squared coherence floor
        gram = cross_gramian(trident, trident_flat_dual)
        report = phi_sum(gram, 2, 1.0)
        shift = 4.0 / 9.0 - 1.0 / 9.0
        sq = np.abs(gram.entries) ** 2
        off = sq[~np.eye(3, dtype=bool)]
        direct = float(np.exp(off).sum() +
                       np.exp(np.diag(sq) - shift).sum())
        assert report.value == pytest.approx(direct, rel=1e-12)
        assert report.meets_bound

    def test_domain_error_on_bad_eta(self, trident):
        gram = cross_gramian(trident, canonical_dual(trident))
        with pytest.raises(DomainError):
            phi_sum(gram, 2, -1.0)


class TestProfiles:
    def test_basis_plus_diag_profile_is_flat(self, basis_plus_diag):
        gram = cross_gramian(basis_plus_diag, canonical_dual(basis_plus_diag))
        profile = co_equipartition_profile(gram, 1.0)
        expected = np.exp(4 / 9) + 2 * np.exp(1 / 9)
        np.testing.assert_allclose(profile, expected, rtol=1e-12)
        assert is_co_equipartitioned(gram, 1.0)
        assert is_co_equidistributed(gram)

    def test_trident_flat_profile(self, trident, trident_flat_dual):
        gram = cross_gramian(trident, trident_flat_dual)
        profile = co_equipartition_profile(gram, 1.0)
        expected = np.array([3 * np.e,
                             1 + 2 * np.exp(0.25),
                             1 + 2 * np.exp(0.25)])
        np.testing.assert_allclose(profile, expected, rtol=1e-12)
        assert not is_co_equipartitioned(gram, 1.0)
        assert not is_co_equidistributed(gram)

    def test_profile_rejects_bad_alpha(self, trident):
        gram = cross_gramian(trident, canonical_dual(trident))
        with pytest.raises(DomainError):
            co_equipartition_profile(gram, 0.0)

    def test_equidistribution_implies_equipartition(self):
        # roots-of-unity harmonic frame: all inner products share one profile
        k = 5
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        m = np.vstack([np.ones(k), roots]) / np.sqrt(k)
        f = make_frame(m)
        gram = cross_gramian(f, canonical_dual(f))
        assert is_co_equidistributed(gram)
        for alpha in (0.1, 1.0, 10.0, 100.0):
            assert is_co_equipartitioned(gram, alpha)

    def test_large_alpha_stays_finite_in_log_domain(self, basis_plus_diag):
        gram = cross_gramian(basis_plus_diag, canonical_dual(basis_plus_diag))
        assert is_co_equipartitioned(gram, 1e6)
