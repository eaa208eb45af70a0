import concurrent.futures
import os
import sys
import threading
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from fpl import grassmannian
from fpl.core import _gaussian, canonical_dual, cross_gramian, dual_family, is_dual, make_frame
from fpl.errors import DomainError, NotADual
from fpl.grassmannian import (
    VIOLATION_TOL,
    conjecture_harness,
    exclusivity_probe,
    grassmannian_gap,
    minimize_mu,
    minmax_problem,
)
from fpl.potentials import frame_potential, max_offdiagonal, welch_constant

from conftest import random_frame_matrix

SEARCH_TOL = 1e-6


def _phase_twisted(frame, phases):
    """Multiply each frame vector by a unit complex phase."""
    twist = frame.synthesis.astype(complex) * np.exp(1j * np.asarray(phases))
    return make_frame(twist)


class TestMinMaxProblem:
    def test_entries_match_the_gramian(self, trident):
        problem = minmax_problem(trident)
        rng = np.random.default_rng(1)
        for _ in range(3):
            params = problem.family.random_param(rng, scale=2.0)
            h = problem.family.dual(params)
            gram = cross_gramian(trident, h).entries
            off = gram[~np.eye(3, dtype=bool)]
            np.testing.assert_allclose(problem.entries(np.ravel(params)),
                                       off, atol=1e-12)
            assert problem.mu(np.ravel(params)) == pytest.approx(
                max_offdiagonal(cross_gramian(trident, h)), abs=1e-12)

    def test_complex_coefficients(self):
        m = np.array([[1j, 0.0, 1.0], [0.0, 1.0, 1j]])
        f = make_frame(m)
        problem = minmax_problem(f)
        rng = np.random.default_rng(2)
        params = problem.family.random_param(rng)
        gram = cross_gramian(f, problem.family.dual(params)).entries
        off = gram[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(problem.entries(np.ravel(params)), off,
                                   atol=1e-12)

    def test_dual_reconstruction(self, trident):
        problem = minmax_problem(trident)
        flat = problem.dual(np.zeros(problem.m))
        np.testing.assert_allclose(flat.synthesis,
                                   canonical_dual(trident).synthesis,
                                   atol=1e-12)


class TestMinimizeMuReal:
    def test_trident_floor_and_minimizer(self, trident):
        result = minimize_mu(trident)
        assert result.mu_min == pytest.approx(1 / 3, abs=SEARCH_TOL)
        assert result.family_dim == 2
        # the canonical dual is a minimiser here
        np.testing.assert_allclose(result.minimizer_params, 0.0, atol=1e-5)
        assert is_dual(trident, result.minimizer_dual)

    def test_basis_plus_diag_floor(self, basis_plus_diag):
        result = minimize_mu(basis_plus_diag)
        assert result.mu_min == pytest.approx(1 / 3, abs=SEARCH_TOL)
        assert is_dual(basis_plus_diag, result.minimizer_dual)

    def test_flat_face_is_detected(self):
        # mu is constant along a segment of duals for this frame, so the
        # minimiser must not be reported as exclusive
        f = make_frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
        result = minimize_mu(f)
        assert result.mu_min == pytest.approx(0.5, abs=SEARCH_TOL)
        assert not result.exclusive_within_tol
        assert not exclusivity_probe(f, result)

    def test_mu_never_beats_the_dual_family_floor(self):
        rng = np.random.default_rng(10)
        for _ in range(4):
            f = make_frame(random_frame_matrix(rng, 2, 4, "real"))
            result = minimize_mu(f)
            family = dual_family(f)
            for _ in range(20):
                h = family.dual(family.random_param(rng, scale=3.0))
                mu = max_offdiagonal(cross_gramian(f, h))
                assert mu >= result.mu_min - 1e-7

    def test_search_is_deterministic(self, trident):
        a = minimize_mu(trident)
        b = minimize_mu(trident)
        assert a.mu_min == b.mu_min
        np.testing.assert_array_equal(a.minimizer_params, b.minimizer_params)

    @pytest.mark.parametrize("name", ["trident", "basis_plus_diag",
                                      "random-0", "random-1", "random-2"])
    def test_the_minimiser_attains_mu_min(self, request, name):
        # The minimiser is read back from the dual LP's multipliers; a sign
        # slip there leaves mu(minimiser) far above mu_min.
        if name.startswith("random"):
            rng = np.random.default_rng(int(name[-1]))
            f = make_frame(random_frame_matrix(rng, 4, 8, "real"))
        else:
            f = request.getfixturevalue(name)
        result = minimize_mu(f)
        attained = result.problem.mu(result.minimizer_params)
        assert attained == pytest.approx(result.mu_min, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_face_points_lie_within_the_cap(self, scale):
        m = random_frame_matrix(np.random.default_rng(3), 4, 8, "real")
        problem = minmax_problem(make_frame(scale * m))
        mu_min, _, points = grassmannian._minimize_real(
            problem, ((np.random.default_rng(0), 24),), None)
        t_cap = mu_min + 1e-9 * max(1.0, mu_min)
        assert len(points) == 25
        for p in points:
            assert problem.mu(p) <= t_cap * (1 + 1e-9)

    @pytest.mark.parametrize("scale", [1e-8, 1e8, 1e20])
    def test_mu_min_does_not_depend_on_the_frame_scale(self, scale):
        # Scaling F by a scales its duals by 1/a and leaves Gr(F, H) as it
        # is.  Unscaled, HiGHS dropped the 1e-8 frame's small coefficients
        # and reported a minimum below any dual's, and refused the 1e20
        # frame's LP ("Model error").
        m = np.random.default_rng((2205, 4, 7)).standard_normal((4, 8))
        want = minimize_mu(make_frame(m)).mu_min
        got = minimize_mu(make_frame(scale * m))
        assert got.mu_min == pytest.approx(want, rel=1e-12)
        assert got.problem.mu(got.minimizer_params) == pytest.approx(
            want, rel=1e-12)

    def test_each_real_search_solves_25_lps(self, monkeypatch):
        # the epigraph LP, then one LP per face probe
        calls = []
        original = scipy.optimize.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        minimize_mu(make_frame(random_frame_matrix(
            np.random.default_rng(0), 3, 6, "real")))
        assert len(calls) == 25


# Corpus frames default_rng((2205, n, i)).standard_normal((n, 2n)) whose
# minimiser is not unique; the epigraph LP's weights certify no screening
# for these, and for every other frame at 4x8 and 6x12 they do.
NON_UNIQUE_CORPUS = {4: {0, 1, 2, 3, 8, 9, 18, 19, 20}, 6: {5, 13, 23}}


def _real_points(monkeypatch, frame, all_columns=False):
    """The real search's points (minimiser first, then the 24 probes, drawn
    as minimize_mu draws them) and the probe column mask it used."""
    masks = []
    screen = grassmannian._probe_columns

    def recorded(offsets, *args):
        keep = (np.ones(2 * offsets.size, dtype=bool) if all_columns
                else screen(offsets, *args))
        masks.append(keep)
        return keep

    with monkeypatch.context() as patch:
        patch.setattr(grassmannian, "_probe_columns", recorded)
        points = grassmannian._minimize_real(minmax_problem(frame), (
            (np.random.default_rng(0), grassmannian.N_FACE_PROBES),
            (np.random.default_rng(grassmannian.PROBE_SEED),
             grassmannian.PROBE_FACE_PROBES)), None)[2]
    (keep,) = masks
    return points, keep


class TestProbeScreening:
    """The face probes solve over only the constraint sides the epigraph
    LP's weights show can be active on the face; no point moves."""

    @pytest.mark.parametrize("n", sorted(NON_UNIQUE_CORPUS))
    def test_screening_moves_no_probe_point(self, monkeypatch, n):
        for i in range(24):
            m = np.random.default_rng((2205, n, i)).standard_normal((n, 2 * n))
            frame = make_frame(m)
            got, keep = _real_points(monkeypatch, frame)
            want, _ = _real_points(monkeypatch, frame, all_columns=True)
            assert len(got) == len(want) == 25, f"frame {n}/{i}"
            for a, b in zip(got, want):
                assert np.max(np.abs(a - b)) <= 1e-8, f"frame {n}/{i}"
            assert keep.all() == (i in NON_UNIQUE_CORPUS[n]), f"frame {n}/{i}"

    @pytest.mark.parametrize("name,kept", [("trident", 4), ("flat-face", 12)])
    def test_columns_kept(self, monkeypatch, trident, name, kept):
        _, keep = _real_points(monkeypatch, _search_frame(name, trident))
        assert (keep.size, int(keep.sum())) == (12, kept)

    def test_a_failing_svd_keeps_every_column(self, monkeypatch, trident):
        problem = minmax_problem(trident)
        a_eq = grassmannian._dual_form(problem.rows)
        t_star, l_star, weights = grassmannian._solve_epigraph_lp(
            problem.offsets, a_eq)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        keep = grassmannian._probe_columns(problem.offsets, a_eq,
                                           t_star + 1e-9, l_star, weights)
        assert keep.all()


class TestMinimizeMuComplex:
    def test_phase_twisted_trident_keeps_the_floor(self, trident):
        f = _phase_twisted(trident, [0.3, -1.1, 2.4])
        result = minimize_mu(f)
        assert result.mu_min == pytest.approx(1 / 3, abs=1e-4)
        assert is_dual(f, result.minimizer_dual)

    def test_phase_twisted_basis_plus_diag(self, basis_plus_diag):
        f = _phase_twisted(basis_plus_diag, [0.9, 0.2, -0.7])
        result = minimize_mu(f)
        assert result.mu_min == pytest.approx(1 / 3, abs=1e-4)

    def test_surrogate_never_reports_below_the_true_objective(self):
        rng = np.random.default_rng(3)
        f = make_frame(random_frame_matrix(rng, 2, 3, "complex"))
        result = minimize_mu(f)
        direct = max_offdiagonal(cross_gramian(f, result.minimizer_dual))
        assert result.mu_min == pytest.approx(direct, abs=1e-9)


def _symmetries(m, rng):
    """The frame under an orthogonal U, a column permutation, column sign
    flips and two scales, with each one's frame potential factor."""
    n, k = m.shape
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    signs = rng.choice([-1.0, 1.0], size=k)
    return [("rotation", u @ m, 1.0),
            ("permutation", m[:, rng.permutation(k)], 1.0),
            ("sign flips", m * signs, 1.0),
            ("scale 3.5", 3.5 * m, 3.5 ** 4),
            ("scale 0.25", 0.25 * m, 0.25 ** 4)]


class TestInvariance:
    """mu_min and the frame potential under the symmetries of the paper's
    quantities: a unitary, a permutation or sign flips of the vectors, and
    a scale a > 0, under which the potential scales as a^4.  mu_min is
    also unchanged by any invertible A, as (A F, A^-* G) has the
    cross-Gramian of (F, G); the frame potential is not."""

    # Frames default_rng((2205, n, i)).standard_normal((n, k)); at k = 2n
    # these are corpus frames, of which 4x8 #0 and 6x12 #5 have no unique
    # minimiser and 4x8 #4 has one.
    FRAMES = [(2, 3, 1), (3, 5, 2), (4, 8, 0), (4, 8, 4), (6, 12, 5)]

    @pytest.mark.parametrize("n,k,i", FRAMES)
    def test_mu_min_is_unchanged(self, n, k, i):
        m = random_frame_matrix(np.random.default_rng((2205, n, i)), n, k,
                                "real")
        want = minimize_mu(make_frame(m)).mu_min
        a = np.random.default_rng((i, n)).standard_normal((n, n))
        moves = _symmetries(m, np.random.default_rng(i))
        moves.append(("GL(n)", a @ m, None))
        for name, moved, _ in moves:
            got = minimize_mu(make_frame(moved)).mu_min
            assert got == pytest.approx(want, abs=1e-9), name

    @pytest.mark.parametrize("n,k,i", FRAMES)
    def test_frame_potential_is_invariant_up_to_scale(self, n, k, i):
        m = random_frame_matrix(np.random.default_rng((2205, n, i)), n, k,
                                "real")
        want = frame_potential(make_frame(m))
        for name, moved, factor in _symmetries(m, np.random.default_rng(i)):
            got = frame_potential(make_frame(moved))
            assert got == pytest.approx(factor * want, rel=1e-12), name


class TestSquareFrames:
    def test_orthonormal_basis(self):
        f = make_frame(np.eye(3))
        result = minimize_mu(f)
        assert result.mu_min == 0.0
        assert result.family_dim == 0
        assert result.exclusive_within_tol
        assert exclusivity_probe(f, result)

    def test_oblique_basis_keeps_its_gramian(self):
        f = make_frame(np.array([[1.0, 1.0], [0.0, 1.0]]))
        result = minimize_mu(f)
        gram = cross_gramian(f, canonical_dual(f))
        assert result.mu_min == pytest.approx(max_offdiagonal(gram), abs=1e-12)
        np.testing.assert_allclose(gram.entries, np.eye(2), atol=1e-12)

    def test_single_vector_frame(self):
        f = make_frame(np.array([[2.0]]))
        result = minimize_mu(f)
        assert result.mu_min == 0.0


class TestExclusivityProbe:
    def test_trident_minimizer_is_isolated(self, trident):
        result = minimize_mu(trident)
        assert result.exclusive_within_tol
        assert exclusivity_probe(trident, result)

    def test_basis_plus_diag_minimizer_is_isolated(self, basis_plus_diag):
        result = minimize_mu(basis_plus_diag)
        assert exclusivity_probe(basis_plus_diag, result)

    def test_probe_is_deterministic(self, trident):
        result = minimize_mu(trident)
        assert exclusivity_probe(trident, result) == \
            exclusivity_probe(trident, result)

    @pytest.mark.parametrize("name", ["trident", "flat-face", "twisted"])
    def test_probe_reads_the_stored_verdict_without_solving(
            self, monkeypatch, trident, name):
        frame = (_phase_twisted(trident, [0.3, -1.1, 2.4]) if name == "twisted"
                 else _search_frame(name, trident))
        result = minimize_mu(frame)

        def no_solver(*args, **kwargs):
            raise AssertionError("the probe must not solve again")

        monkeypatch.setattr(scipy.optimize, "linprog", no_solver)
        monkeypatch.setattr(scipy.optimize, "minimize", no_solver)
        assert exclusivity_probe(frame, result) is result.exclusive_within_tol

    def test_all_face_probes_are_solved_in_one_batch(self, monkeypatch):
        frame = make_frame(random_frame_matrix(np.random.default_rng(0), 3, 6,
                                               "real"))
        batches = []
        original = grassmannian._parallel_map

        def recorded(fn, items, threads):
            items = list(items)
            batches.append(len(items))
            return original(fn, items, threads)

        monkeypatch.setattr(grassmannian, "_parallel_map", recorded)
        minimize_mu(frame, threads=2)
        assert batches == [grassmannian.N_FACE_PROBES
                           + grassmannian.PROBE_FACE_PROBES]

    def test_clustering_is_prefix_stable(self):
        # Why one clustering of all near-minimisers gives the verdict that
        # clustering a first batch and then its representatives with a
        # second batch gave.
        rng = np.random.default_rng(8)
        for _ in range(50):
            points = list(np.round(rng.standard_normal((30, 2)), 1))
            cut = int(rng.integers(31))
            once = grassmannian._cluster(points, 0.5)
            twice = grassmannian._cluster(
                grassmannian._cluster(points[:cut], 0.5) + points[cut:], 0.5)
            assert len(once) == len(twice)
            for a, b in zip(once, twice):
                assert a is b

    @pytest.mark.parametrize("name", ["trident", "square"])
    def test_negative_seed_is_refused_before_any_work(self, monkeypatch,
                                                      trident, name):
        frame = _search_frame(name, trident)

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(grassmannian, "minmax_problem", no_work)
        with pytest.raises(DomainError, match="seed"):
            minimize_mu(frame, seed=-1)


def _search_frame(name, trident):
    if name == "trident":
        return trident
    if name == "flat-face":
        return make_frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]))
    if name == "square":
        return make_frame(random_frame_matrix(np.random.default_rng(4), 3, 3,
                                              "real"))
    n, k, seed = {"random-4x8": (4, 8, 3), "random-6x12": (6, 12, 0)}[name]
    return make_frame(random_frame_matrix(np.random.default_rng(seed), n, k,
                                          "real"))


SEARCH_FRAMES = ["random-4x8", "random-6x12", "flat-face", "trident",
                 "square"]


def _search_outcome(frame, threads):
    result = minimize_mu(frame, threads=threads)
    return result, exclusivity_probe(frame, result)


def _assert_same_search(got, want):
    (res, probe), (ref, ref_probe) = got, want
    assert res.mu_min == ref.mu_min
    np.testing.assert_array_equal(res.minimizer_params, ref.minimizer_params)
    assert len(res.candidate_minimizers) == len(ref.candidate_minimizers)
    for a, b in zip(res.candidate_minimizers, ref.candidate_minimizers):
        np.testing.assert_array_equal(a, b)
    assert res.exclusive_within_tol == ref.exclusive_within_tol
    assert probe == ref_probe


class _SlowDraws:
    """A generator whose odd-numbered draws sleep first, so that draws
    made from several threads would reach it out of order."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._draws = 0

    def standard_normal(self, *args, **kwargs):
        self._draws += 1
        if self._draws % 2:
            time.sleep(0.003)
        return self._rng.standard_normal(*args, **kwargs)


class TestThreadedFaceProbes:
    """The face probes give the same search whatever ``threads`` is."""

    @pytest.mark.parametrize("name", SEARCH_FRAMES)
    def test_threads_do_not_change_the_search(self, trident, name):
        frame = _search_frame(name, trident)
        want = _search_outcome(frame, None)
        for threads in (1, 2, 3):
            _assert_same_search(_search_outcome(frame, threads), want)

    def test_nonexclusive_frames_are_covered(self, trident):
        # The order check above bites only where the probes find several
        # distinct minimisers.
        frame = _search_frame("random-4x8", trident)
        assert len(minimize_mu(frame).candidate_minimizers) > 2

    @pytest.mark.parametrize("name", SEARCH_FRAMES)
    def test_a_failed_probe_is_skipped_the_same_way(self, monkeypatch,
                                                    trident, name):
        frame = _search_frame(name, trident)
        m = minmax_problem(frame).m
        # the third objective minimize_mu draws (seed 0)
        dropped = [np.random.default_rng(0).standard_normal(m)
                   for _ in range(3)][-1]
        original = grassmannian._face_probe
        misses = []

        def failing(a_eq, cost, objective):
            if np.array_equal(objective, dropped):
                misses.append(1)
                return None
            return original(a_eq, cost, objective)

        monkeypatch.setattr(grassmannian, "_face_probe", failing)
        want = _search_outcome(frame, None)
        expected_misses = 0 if frame.k == frame.n else 1
        assert len(misses) == expected_misses
        for threads in (1, 2, 3):
            _assert_same_search(_search_outcome(frame, threads), want)
        assert len(misses) == 4 * expected_misses

    @pytest.mark.parametrize("threads", [2, 3])
    def test_face_points_keep_the_draw_order(self, monkeypatch, threads):
        # Probes that finish out of order and draws that would reach the
        # generator out of order must not move any point.
        frame = make_frame(random_frame_matrix(np.random.default_rng(0), 3, 6,
                                               "real"))
        problem = minmax_problem(frame)
        a_eq = grassmannian._dual_form(problem.rows)
        args = (problem.offsets, a_eq,
                *grassmannian._solve_epigraph_lp(problem.offsets, a_eq))

        def draws():
            return ((_SlowDraws(1), 8), (_SlowDraws(4), 8))

        want = grassmannian._face_candidates(*args, draws())
        assert len({p.tobytes() for p in want}) == len(want) == 17
        original = grassmannian._face_probe

        def jittered(a_eq, cost, objective):
            time.sleep(0.004 if objective[0] > 0 else 0.0)
            return original(a_eq, cost, objective)

        monkeypatch.setattr(grassmannian, "_face_probe", jittered)
        got = grassmannian._face_candidates(*args, draws(), threads)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def _recorded_pool_sizes(monkeypatch, cpus):
    """Stub the CPU count and record each pool size the library asks for;
    the pool it gets has at most 2 threads, so a huge count never starts
    real threads."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    sizes = []
    pool = grassmannian._worker_pool

    def recorded(workers):
        sizes.append(workers)
        return pool(min(workers, 2))

    monkeypatch.setattr(grassmannian, "_worker_pool", recorded)
    return sizes


class TestParallelMap:
    def test_results_keep_input_order_under_contention(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        items = list(range(2000))
        seen = []

        def square(i):
            seen.append(i)
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # more threads than the machine has cores
            got = grassmannian._parallel_map(square, items, 8)
        finally:
            sys.setswitchinterval(interval)
        assert got == [i * i for i in items]
        assert sorted(seen) == items

    @pytest.mark.parametrize("threads", [None, 1, 3])
    def test_earliest_failure_is_raised(self, threads):
        def fail_on_5_and_9(i):
            if i in (5, 9):
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="^item 5$"):
            grassmannian._parallel_map(fail_on_5_and_9, range(40), threads)

    def test_workers_persist_across_calls(self):
        grassmannian._parallel_map(time.sleep, [0.001] * 6, 3)
        before = threading.active_count()
        for _ in range(5):
            grassmannian._parallel_map(time.sleep, [0.001] * 6, 3)
        assert threading.active_count() == before
        assert grassmannian._worker_pool(2) is grassmannian._worker_pool(2)

    def test_threads_are_capped_by_the_item_count(self, monkeypatch):
        # A pool of 32 threads starts one per submitted item at most.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        pools = []

        def fresh_pool(workers):
            pools.append(concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="capped"))
            return pools[-1]

        monkeypatch.setattr(grassmannian, "_worker_pool", fresh_pool)
        got = grassmannian._parallel_map(lambda i: i * i, range(3), 32)
        started = [t for t in threading.enumerate()
                   if t.name.startswith("capped")]
        pools[0].shutdown()
        assert got == [0, 1, 4]
        assert len(pools) == 1
        assert 1 <= len(started) <= 3

    def test_a_free_thread_is_refilled_before_the_oldest_item_ends(
            self, monkeypatch):
        # Item 0 runs until item 2 has run; waiting for the oldest item
        # before taking the next would leave item 2 untaken.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ran_2 = threading.Event()

        def work(i):
            if i == 0:
                return ran_2.wait(10)
            if i == 2:
                ran_2.set()
            return True

        assert grassmannian._parallel_map(work, range(4), 2) == [True] * 4

    def test_thread_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert [grassmannian._thread_count(t)
                for t in (None, 0, -5, 1, 3, 4, 5, 5000)] == \
            [1, 1, 1, 1, 3, 4, 4, 4]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert grassmannian._thread_count(5000) == 1

    def test_searches_ask_for_no_more_threads_than_cpus(self, monkeypatch):
        sizes = _recorded_pool_sizes(monkeypatch, 4)
        frame = make_frame(random_frame_matrix(np.random.default_rng(0), 3, 6,
                                               "real"))
        want = _search_outcome(frame, None)
        _assert_same_search(_search_outcome(frame, 1000), want)
        assert sizes == [4]

    def test_inline_runs_on_the_calling_thread(self):
        caller = threading.get_ident()
        for threads in (None, 1):
            got = grassmannian._parallel_map(
                lambda _: threading.get_ident(), range(4), threads)
            assert got == [caller] * 4


class TestGap:
    def test_flat_dual_gap(self, trident, trident_flat_dual):
        result = minimize_mu(trident)
        gap = grassmannian_gap(trident, trident_flat_dual, result)
        assert gap == pytest.approx(1.0 - 1.0 / 9.0, abs=1e-6)

    def test_canonical_gap_is_zero_at_the_floor(self, trident):
        result = minimize_mu(trident)
        gap = grassmannian_gap(trident, canonical_dual(trident), result)
        assert gap == pytest.approx(0.0, abs=1e-6)

    def test_rejects_non_duals(self, trident):
        result = minimize_mu(trident)
        with pytest.raises(NotADual):
            grassmannian_gap(trident, trident, result)


def _gaussian_draw(rng, shape, field):
    if field == "complex":
        return (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return rng.standard_normal(shape)


def _replay_harness(n, k, trials, seed, field="real"):
    """The harness outcome computed one trial at a time: each trial's own
    generator yields a frame, redrawn while it fails the rank check, and
    then the trial's dual parameters."""
    rtol = grassmannian.RANK_RTOL
    floor = welch_constant(n, k) if k > n else 0.0
    violations = case_a = 0
    min_ratio = np.inf
    examples = []
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        while True:
            f = _gaussian_draw(rng, (n, k), field)
            s = np.linalg.svd(f, compute_uv=False)
            if s[-1] > rtol * s[0]:
                break
        dual = np.linalg.solve(f @ f.conj().T, f)
        if k > n:
            params = _gaussian_draw(rng, (n, k - n), field)
            vh = np.linalg.svd(f, full_matrices=True)[2]
            dual = dual + params @ vh[n:, :]
        gram = f.conj().T @ dual
        off_sq = np.abs(gram[~np.eye(k, dtype=bool)]) ** 2
        case_a += float(n) > n * n / k + off_sq.sum()
        if k > n:
            mu = np.sqrt(off_sq.max())
            min_ratio = min(min_ratio, mu / floor)
            if mu < floor - VIOLATION_TOL:
                violations += 1
                if len(examples) < grassmannian.MAX_COUNTEREXAMPLES:
                    examples.append((f, dual))
    return violations, case_a, min_ratio, examples


def _assert_same_outcome(summary, violations, case_a, min_ratio, examples):
    assert (summary.violations, summary.case_a_count) == (violations, case_a)
    assert summary.min_ratio == min_ratio
    assert len(summary.counterexamples) == len(examples)
    for (fm, hm), (f, h) in zip(summary.counterexamples, examples):
        assert fm.tobytes() == f.tobytes()
        assert hm.tobytes() == h.tobytes()


REPLAY_CASES = [(2, 3, "real"), (3, 5, "complex"), (3, 3, "real"),
                (2, 2, "complex"), (2, 4, "real"), (2, 3, "complex")]


class TestHarnessReplay:
    """The batched harness against a trial-by-trial recomputation."""

    @pytest.mark.parametrize("n,k,field", REPLAY_CASES)
    def test_matches_sequential_draws(self, n, k, field):
        summary = conjecture_harness(n, k, 300, seed=5, field=field)
        _assert_same_outcome(summary, *_replay_harness(n, k, 300, 5, field))

    @pytest.mark.parametrize("n,k,field", [(2, 3, "real"), (3, 5, "complex"),
                                           (3, 3, "real")])
    def test_matches_sequential_draws_when_frames_are_redrawn(
            self, monkeypatch, n, k, field):
        # A loose rank threshold rejects many Gaussian frames, so many
        # trials take the sequential redraw path and some pass it at once.
        monkeypatch.setattr(grassmannian, "RANK_RTOL", 0.3)
        redraws = []
        original = grassmannian._random_frame_matrix

        def counted(*args):
            redraws.append(1)
            return original(*args)

        monkeypatch.setattr(grassmannian, "_random_frame_matrix", counted)
        summary = conjecture_harness(n, k, 300, seed=9, field=field)
        assert 0 < len(redraws) < 300
        _assert_same_outcome(summary, *_replay_harness(n, k, 300, 9,
                                                       field=field))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunk_size_does_not_change_the_outcome(self, monkeypatch,
                                                    threads):
        whole = conjecture_harness(2, 3, 400, seed=0, threads=threads)
        monkeypatch.setattr(grassmannian, "HARNESS_CHUNK_BYTES", 2000)
        assert 1 < grassmannian._chunk_trials(2, 3, "real") < 10
        chunked = conjecture_harness(2, 3, 400, seed=0, threads=threads)
        assert whole.violations > 0
        _assert_same_outcome(chunked, whole.violations, whole.case_a_count,
                             whole.min_ratio, whole.counterexamples)


class TestTrialSeeding:
    """A chunk's array-computed seeds against numpy's own seeding."""

    # From 0, from a chunk start past 0, and across t = 2**32, where the
    # trial index becomes two entropy words.
    WINDOWS = [(0, 40), (1000, 1040), (2 ** 32 - 20, 2 ** 32 + 20)]
    SEEDS = [0, 5, 2 ** 32 - 1, 2 ** 32 + 5, 2 ** 64 + 3]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_words_match_seed_sequence(self, seed):
        for t0, t1 in self.WINDOWS:
            want = [np.random.SeedSequence((seed, t)).generate_state(
                4, np.uint64) for t in range(t0, t1)]
            got = grassmannian._trial_seed_words(seed, t0, t1)
            assert got.dtype == np.uint64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_match_default_rng(self, seed):
        def draws(rng):
            return (_gaussian(rng, (2, 3), "real").tobytes()
                    + _gaussian(rng, (2, 1), "complex").tobytes())

        for t0, t1 in self.WINDOWS:
            got = [draws(rng)
                   for rng in grassmannian._trial_rngs(seed, t0, t1)]
            want = [draws(np.random.default_rng((seed, t)))
                    for t in range(t0, t1)]
            assert got == want

    @pytest.mark.parametrize("n,k,field", [(2, 3, "real"), (2, 3, "complex"),
                                           (3, 3, "real"), (2, 2, "complex"),
                                           (3, 5, "complex")])
    def test_draw_chunk_matches_sequential_draws(self, n, k, field):
        for t0, t1 in self.WINDOWS:
            frames, params = grassmannian._draw_chunk(n, k, t0, t1, 7, field)
            assert frames.shape == (t1 - t0, n, k)
            assert params.shape == (t1 - t0, n, k - n)
            for t in range(t0, t1):
                rng = np.random.default_rng((7, t))
                assert frames[t - t0].tobytes() == \
                    _gaussian(rng, (n, k), field).tobytes()
                assert params[t - t0].tobytes() == \
                    _gaussian(rng, (n, k - n), field).tobytes()


class TestHarness:
    def test_reproducible_across_runs_and_threads(self):
        a = conjecture_harness(2, 3, 500, seed=11)
        b = conjecture_harness(2, 3, 500, seed=11)
        c = conjecture_harness(2, 3, 500, seed=11, threads=3)
        assert (a.violations, a.min_ratio, a.case_a_count) == \
            (b.violations, b.min_ratio, b.case_a_count) == \
            (c.violations, c.min_ratio, c.case_a_count)

    def test_seed_changes_the_draw(self):
        a = conjecture_harness(2, 3, 500, seed=11)
        b = conjecture_harness(2, 3, 500, seed=12)
        assert a.min_ratio != b.min_ratio

    def test_violations_never_exceed_the_open_branch_count(self):
        # a violation forces the trial into the branch the bound argument
        # leaves open, so this inequality is structural
        for n, k in ((2, 3), (2, 4), (3, 4), (3, 5)):
            summary = conjecture_harness(n, k, 2000, seed=0)
            assert summary.violations <= summary.case_a_count

    def test_counterexamples_verify(self):
        summary = conjecture_harness(2, 3, 2000, seed=0)
        assert summary.violations > 0
        assert len(summary.counterexamples) > 0
        c = welch_constant(2, 3)
        for fm, hm in summary.counterexamples:
            f = make_frame(fm)
            h = make_frame(hm)
            assert is_dual(f, h)
            mu = max_offdiagonal(cross_gramian(f, h))
            assert mu < c - 1e-9

    def test_canonical_duals_of_tight_frames_sit_on_the_floor(self, mercedes):
        gram = cross_gramian(mercedes, canonical_dual(mercedes))
        assert max_offdiagonal(gram) == pytest.approx(welch_constant(2, 3),
                                                      abs=1e-12)

    def test_summaries_compare_without_raising(self):
        a = conjecture_harness(2, 3, 2000, seed=0)
        b = conjecture_harness(2, 3, 2000, seed=0)
        assert a.counterexamples
        assert a == a
        assert a != b

    def test_square_case_is_trivially_clean(self):
        summary = conjecture_harness(3, 3, 200, seed=4)
        assert summary.violations == 0
        assert summary.min_ratio == np.inf
        assert summary.case_a_count == 0

    def test_complex_field_draws(self):
        summary = conjecture_harness(2, 3, 500, seed=2, field="complex")
        assert summary.trials == 500
        assert summary.violations <= summary.case_a_count

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            conjecture_harness(3, 2, 10, seed=0)
        with pytest.raises(DomainError):
            conjecture_harness(2, 3, 0, seed=0)

    def test_only_the_calling_thread_draws(self, monkeypatch):
        # Small chunks give many groups of two; every trial generator must
        # be advanced on the caller, and no more drawn chunks may be alive
        # at once than there are threads.
        monkeypatch.setattr(grassmannian, "HARNESS_CHUNK_BYTES", 4000)
        caller = threading.get_ident()
        draw_threads = set()
        alive = {}
        most_alive = []
        trial_rngs = grassmannian._trial_rngs
        draw_chunk = grassmannian._draw_chunk

        def recorded_rngs(*args):
            for rng in trial_rngs(*args):
                draw_threads.add(threading.get_ident())
                yield rng

        def release(t0):
            alive[t0] -= 1

        def recorded_draw(*args):
            drawn = draw_chunk(*args)
            t0 = args[2]
            alive[t0] = len(drawn)
            for part in drawn:
                weakref.finalize(part, release, t0)
            most_alive.append(sum(1 for v in alive.values() if v))
            return drawn

        monkeypatch.setattr(grassmannian, "_trial_rngs", recorded_rngs)
        monkeypatch.setattr(grassmannian, "_draw_chunk", recorded_draw)
        summary = conjecture_harness(2, 3, 400, seed=0, threads=2)
        assert draw_threads == {caller}
        assert len(most_alive) > 2
        assert max(most_alive) == 2
        monkeypatch.undo()
        whole = conjecture_harness(2, 3, 400, seed=0)
        _assert_same_outcome(summary, whole.violations, whole.case_a_count,
                             whole.min_ratio, whole.counterexamples)

    def test_harness_asks_for_no_more_threads_than_cpus(self, monkeypatch):
        sizes = _recorded_pool_sizes(monkeypatch, 4)
        summary = conjecture_harness(2, 3, 5000, 0, threads=5000)
        assert sizes and set(sizes) == {4}
        monkeypatch.undo()
        whole = conjecture_harness(2, 3, 5000, 0)
        _assert_same_outcome(summary, whole.violations, whole.case_a_count,
                             whole.min_ratio, whole.counterexamples)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_earliest_chunk_error_is_raised(self, monkeypatch, threads):
        # Chunks 3 and 4 fail.  With two threads chunk 3 waits until
        # chunk 4 has failed, and chunk 3's error must still be the one
        # raised.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(grassmannian, "HARNESS_CHUNK_BYTES", 4000)
        chunk = grassmannian._chunk_trials(2, 3, "real")
        harness_chunk = grassmannian._harness_chunk
        later_failed = threading.Event()

        def failing(n, k, seed, field, t0, *drawn):
            if t0 == 4 * chunk:
                later_failed.set()
            elif t0 == 3 * chunk:
                later_failed.wait(10 if threads > 1 else 0)
            else:
                return harness_chunk(n, k, seed, field, t0, *drawn)
            raise ValueError(f"chunk {t0}")

        monkeypatch.setattr(grassmannian, "_harness_chunk", failing)
        with pytest.raises(ValueError, match=f"^chunk {3 * chunk}$"):
            conjecture_harness(2, 3, 400, seed=0, threads=threads)
        assert later_failed.is_set() == (threads > 1)

    def test_negative_seed_is_refused_before_any_trial(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(grassmannian, "_harness_chunk", no_work)
        with pytest.raises(DomainError, match="seed"):
            conjecture_harness(2, 3, 10, seed=-3)


class TestFloorCounterexample:
    """A pinned dual pair sitting strictly below the conjectured floor."""

    def test_exact_rational_violation(self):
        # Gramian I - x y^T with x^T y = 1 is idempotent with trace 2;
        # choosing small rational entries keeps every off-diagonal entry
        # below the floor sqrt(1/9) for (n, k) = (2, 3)
        x = np.array([1.0, 0.25, 0.25])
        y = np.array([7 / 8, 0.25, 0.25])
        assert x @ y == 1.0
        m = np.eye(3) - np.outer(x, y)
        u = np.array([[0.0, 2.0], [1.0, -7.0], [-1.0, 0.0]])  # basis of y-perp
        f = make_frame(u.T)
        h = make_frame(np.linalg.pinv(u) @ m)
        assert is_dual(f, h)
        gram = cross_gramian(f, h)
        np.testing.assert_allclose(gram.entries, m, atol=1e-12)
        mu = max_offdiagonal(gram)
        assert mu == pytest.approx(0.25, abs=1e-12)
        assert mu < welch_constant(2, 3) - 1e-2


class TestGeneralFrameFloor:
    """The floor fails for general frames at every shape: F = [-eps B | I_n]
    has the dual G = [0 | I_n], and F* G = [[0, -eps B*], [0, I_n]], so
    mu(F, G) = eps max|B|, as small as eps makes it."""

    SHAPES = [(2, 3), (2, 4), (3, 5), (4, 8)]

    @staticmethod
    def _b(n, k):
        ints = np.random.default_rng((n, k)).integers(-9, 10, (n, k - n))
        return np.array([[Fraction(int(x), 7) for x in row] for row in ints])

    @pytest.mark.parametrize("n,k", SHAPES)
    def test_exact_pair_sits_below_the_floor(self, n, k):
        eps = Fraction(1, 100)
        b = self._b(n, k)
        eye = np.identity(n, dtype=int).astype(object)
        f = np.hstack([-eps * b, eye])
        g = np.hstack([np.zeros((n, k - n), dtype=int).astype(object), eye])
        assert (f @ g.T == eye).all()
        gram = f.T @ g
        mu_sq = max(x * x for x in gram[~np.eye(k, dtype=bool)])
        assert mu_sq == eps * eps * max(x * x for x in b.flat) > 0
        assert mu_sq < Fraction(n * (k - n), k * k * (k - 1))

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    @pytest.mark.parametrize("n,k", SHAPES)
    def test_minimize_mu_goes_as_low(self, n, k, eps):
        b = self._b(n, k).astype(float)
        f = make_frame(np.hstack([-eps * b, np.eye(n)]))
        g = make_frame(np.hstack([np.zeros((n, k - n)), np.eye(n)]))
        assert is_dual(f, g)
        assert max_offdiagonal(cross_gramian(f, g)) == \
            pytest.approx(eps * np.max(np.abs(b)), rel=1e-12)
        assert minimize_mu(f).mu_min <= eps * np.max(np.abs(b)) + 1e-9
