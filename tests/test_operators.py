import numpy as np
import pytest

from hpesplit.linalg import LinearMap, StoppingRule, cg_solve
from hpesplit.operators import (RECYCLE_MEMORY, LsqResolvent, clip, huber_gradient, huber_value,
                                 soft_threshold)


def grid_prox_l1(x, eta, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force prox of eta*|.| for a scalar: argmin over a grid."""
    t = np.arange(lo, hi, step)
    vals = 0.5 * (t - x) ** 2 + eta * np.abs(t)
    return t[np.argmin(vals)]


class TestSoftThreshold:
    def test_piecewise_formula(self):
        np.testing.assert_allclose(soft_threshold([3.0, -0.5, 0.0], 1.0), [2.0, 0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        x = np.array([1.5, -2.0, 0.0, 7.0])
        np.testing.assert_allclose(soft_threshold(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold([1.0], -0.1)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = float(rng.uniform(-5, 5))
            eta = float(rng.uniform(0, 3))
            expected = grid_prox_l1(x, eta)
            got = soft_threshold(np.array([x]), eta)[0]
            assert abs(got - expected) <= 1e-4

    def test_subgradient_characterization(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.uniform(-4, 4, size=6)
            eta = float(rng.uniform(0.01, 2))
            t = soft_threshold(x, eta)
            for ti, xi in zip(t, x):
                if ti != 0.0:
                    assert ti - xi + eta * np.sign(ti) == pytest.approx(0.0, abs=1e-15)
                else:
                    assert abs(xi) <= eta + 1e-15


class TestClip:
    def test_formula(self):
        np.testing.assert_allclose(clip([2.0, -3.0, 0.5], 1.0), [1.0, -1.0, 0.5])

    def test_interior_untouched(self):
        x = np.array([0.3, -0.9, 0.0])
        np.testing.assert_allclose(clip(x, 1.0), x)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            clip([0.0], -1.0)


class TestHuber:
    def test_zero(self):
        assert huber_value(np.zeros(5), 0.7) == 0.0

    def test_branch_boundary(self):
        for delta in (0.5, 1.0, 2.0):
            assert huber_value([delta], delta) == pytest.approx(delta ** 2 / 2)

    def test_outer_branch(self):
        assert huber_value([2.0], 1.0) == pytest.approx(1.5)

    def test_gradient_inner_branch(self):
        np.testing.assert_allclose(huber_gradient([0.3], 1.0), [0.3])

    def test_gradient_outer_branch(self):
        np.testing.assert_allclose(huber_gradient([-5.0], 1.0), [-1.0])

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            huber_value([1.0], 0.0)
        with pytest.raises(ValueError):
            huber_gradient([1.0], -1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(10):
            y = rng.uniform(-3, 3, size=8)
            delta = float(rng.uniform(0.1, 2))
            g = huber_gradient(y, delta)
            for i in range(y.size):
                e = np.zeros_like(y)
                e[i] = h
                fd = (huber_value(y + e, delta) - huber_value(y - e, delta)) / (2 * h)
                assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))

    def test_gradient_one_lipschitz(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            y = rng.uniform(-4, 4, size=10)
            z = rng.uniform(-4, 4, size=10)
            delta = float(rng.uniform(0.05, 3))
            dg = np.linalg.norm(huber_gradient(y, delta) - huber_gradient(z, delta))
            assert dg <= np.linalg.norm(y - z) * (1 + 1e-12)


class TestLsqResolventOracle:
    def setup_problem(self, seed=3, n=12, tau=0.5):
        rng = np.random.default_rng(seed)
        Hm = rng.standard_normal((n, n)) / np.sqrt(n)
        H = LinearMap(Hm)
        f = rng.standard_normal(n)
        rhs = rng.standard_normal(n)
        solution = np.linalg.solve(np.eye(n) + tau * Hm.T @ Hm, rhs + tau * Hm.T @ f)
        return H, Hm, f, rhs, tau, solution

    def test_exact_warm_start_is_fixed_point(self):
        H, _, f, rhs, tau, solution = self.setup_problem()
        oracle = LsqResolvent(H, f, tau)
        x, a = oracle.set_target(rhs, warm_start=solution)
        scale = 1 + np.linalg.norm(rhs)
        assert np.linalg.norm(tau * a + x - rhs) <= 1e-12 * scale
        x_before = oracle.candidate.copy()
        oracle.refine()
        assert np.linalg.norm(oracle.candidate - x_before) <= 1e-12 * np.linalg.norm(x_before)

    def test_full_cg_reaches_direct_solve(self):
        H, _, f, rhs, tau, solution = self.setup_problem()
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rhs, warm_start=np.zeros(H.cols))
        for _ in range(H.cols):
            x, a = oracle.refine()
        assert np.linalg.norm(x - solution) <= 1e-10 * (1 + np.linalg.norm(solution))

    def test_witness_exact_after_every_step(self):
        H, Hm, f, rhs, tau, _ = self.setup_problem()
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rhs)
        for _ in range(8):
            x, a = oracle.refine()
            truth = Hm.T @ (Hm @ x - f)
            scale = 1 + np.linalg.norm(truth)
            assert np.linalg.norm(a - truth) <= 1e-13 * scale

    def test_energy_error_strictly_decreases(self):
        H, Hm, f, rhs, tau, solution = self.setup_problem()
        A = np.eye(H.cols) + tau * Hm.T @ Hm
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rhs)
        prev = None
        for _ in range(H.cols):
            x, _ = oracle.refine()
            e = x - solution
            energy = float(e @ (A @ e))
            if prev is not None and prev > 1e-24:
                assert energy < prev
            prev = energy

    def test_counts_every_h_application(self):
        H, _, f, rhs, tau, _ = self.setup_problem()
        before = H.total_count
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rhs)            # witness recompute: 2
        assert H.total_count - before == 2
        oracle.refine()                   # CG curvature 1 + witness recompute 2
        assert H.total_count - before == 5

    def test_witness_equals_a_fresh_product_after_every_refine(self):
        # bit for bit: the witness is recomputed from its candidate, never
        # carried along by a recurrence
        H, Hm, f, rhs, tau, _ = self.setup_problem()
        fresh = LinearMap(Hm)
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rhs)
        for _ in range(H.cols):
            x, a = oracle.refine()
            assert np.array_equal(a, fresh.apply_adjoint(fresh.apply(x) - f))

    def test_predicted_start_recomputes_the_witness(self):
        H, Hm, f, rhs, tau, _ = self.setup_problem()
        rng = np.random.default_rng(5)
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rhs)
        for _ in range(3):
            oracle.refine()
            before = H.total_count
            x, a = oracle.set_target(rng.standard_normal(H.cols))
            assert H.total_count - before == 2
            truth = Hm.T @ (Hm @ x - f)
            assert np.linalg.norm(a - truth) <= 1e-13 * np.linalg.norm(truth)

    def test_warm_start_recomputes_the_witness(self):
        H, Hm, f, rhs, tau, _ = self.setup_problem()
        x0 = np.random.default_rng(6).standard_normal(H.cols)
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rhs)
        oracle.refine()
        before = H.total_count
        x, a = oracle.set_target(rhs, warm_start=x0)
        assert H.total_count - before == 2
        np.testing.assert_array_equal(x, x0)
        truth = Hm.T @ (Hm @ x0 - f)
        assert np.linalg.norm(a - truth) <= 1e-13 * np.linalg.norm(truth)

    def test_predicted_start_steers_cg_like_a_warm_start(self):
        # a fresh oracle given the predicted point as warm start recomputes the
        # same witness there; both must then take bit-identical CG steps
        H, _, f, rhs, tau, _ = self.setup_problem()
        rng = np.random.default_rng(7)
        predicted = LsqResolvent(H, f, tau)
        for target in (rhs, rng.standard_normal(H.cols)):
            predicted.set_target(target)
            for _ in range(3):
                predicted.refine()
        rhs3 = rng.standard_normal(H.cols)
        x, a = predicted.set_target(rhs3)
        explicit = LsqResolvent(H, f, tau)
        y, b = explicit.set_target(rhs3, warm_start=predicted.candidate)
        np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a, b)
        for _ in range(4):
            x, a = predicted.refine()
            y, b = explicit.refine()
            np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(a, b)

    def test_refine_steps_the_cg_of_cg_solve(self):
        H, Hm, f, rhs, tau, _ = self.setup_problem()
        x0 = np.zeros(H.cols)
        for k in range(1, 9):
            oracle = LsqResolvent(H, f, tau)
            oracle.set_target(rhs)
            for _ in range(k):
                x, _ = oracle.refine()
            expected, _ = cg_solve(lambda v: v + tau * Hm.T @ (Hm @ v), rhs + tau * Hm.T @ f,
                                   x0, stop=StoppingRule(cap=k))
            assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("f, x0, message", [
        ([0.5], None, r"f must be a vector of length 6 for a \(6, 4\) H, got shape \(1,\)"),
        (0.5, None, r"f must be a vector of length 6 .* got shape \(\)"),
        (np.zeros((6, 1)), None, r"f must be a vector of length 6 .* got shape \(6, 1\)"),
        (np.zeros(6), np.zeros(6), r"x0 must be a vector of length 4 for a \(6, 4\) H, "
                                   r"got shape \(6,\)"),
    ], ids=["short-f", "scalar-f", "column-f", "long-x0"])
    def test_inputs_of_the_wrong_shape_rejected_before_any_product(self, f, x0, message):
        # a length-1 f would broadcast in H x - f, and a wrong x0 would fail
        # only at the first set_target
        H = LinearMap(np.ones((6, 4)))
        with pytest.raises(ValueError, match=message):
            LsqResolvent(H, f, 0.5, x0=x0)
        assert H.total_count == 0

    def test_refine_before_target_raises(self):
        H, _, f, _, tau, _ = self.setup_problem()
        with pytest.raises(RuntimeError):
            LsqResolvent(H, f, tau).refine()


class TestPredictedStart:
    """`set_target` starts at x + W c + (r - A W c) / 2: the A-energy projection
    onto x + span(W), W an A-orthonormal basis of the candidate's recent moves,
    plus half the leftover residual."""

    def setup_problem(self, seed=4, n=10, tau=0.7):
        rng = np.random.default_rng(seed)
        Hm = rng.standard_normal((n, n)) / np.sqrt(n)
        f = rng.standard_normal(n)
        return LinearMap(Hm), Hm, f, tau, rng

    @staticmethod
    def solve(Hm, f, tau, rhs):
        n = Hm.shape[1]
        return np.linalg.solve(np.eye(n) + tau * Hm.T @ Hm, rhs + tau * Hm.T @ f)

    @staticmethod
    def basis(oracle):
        """The oracle's (W, A W), one basis vector per row."""
        return oracle._W[:oracle._k], oracle._AW[:oracle._k]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_start_projects_onto_an_a_orthonormal_basis(self, seed):
        # random targets, some returning to the one before last, each refined
        # a random number of times before the next target arrives; checked
        # against the dense A = I + tau HtH; n is large enough that no move
        # lies almost wholly in span(W)
        H, Hm, f, tau, _ = self.setup_problem(n=24)
        A = np.eye(H.cols) + tau * Hm.T @ Hm
        rng = np.random.default_rng(seed)
        oracle = LsqResolvent(H, f, tau)
        targets = [rng.standard_normal(H.cols)]
        x, a = oracle.set_target(targets[0])
        sizes = []
        for k in range(1, 12):
            for _ in range(rng.integers(0, 4)):
                x, a = oracle.refine()
            rhs = targets[-2] if k >= 2 and rng.random() < 0.4 else rng.standard_normal(H.cols)
            start, _ = oracle.set_target(rhs)
            W, AW = self.basis(oracle)
            np.testing.assert_allclose(W @ A @ W.T, np.eye(len(W)), rtol=0, atol=1e-12)
            np.testing.assert_allclose(AW, W @ A, rtol=0, atol=1e-12)
            r = rhs - x - tau * a
            c = W @ r
            expected = x + c @ W + (r - c @ AW) / 2
            assert np.linalg.norm(start - expected) <= 1e-12 * (1 + np.linalg.norm(x))
            sizes.append(len(W))
            targets.append(rhs)
            x, a = start, oracle._a
        assert sizes[:3] == [0, 1, 2] and max(sizes) >= 6

    def test_a_solution_in_the_span_is_the_start(self):
        # each target is started by the projection, then solved exactly by a
        # warm start, so W holds the moves between the exact solutions; a
        # target whose solution lies in x + span(W) then starts at it
        H, Hm, f, tau, rng = self.setup_problem()
        targets = [rng.standard_normal(H.cols) for _ in range(4)]
        oracle = LsqResolvent(H, f, tau)
        for rhs in targets:
            oracle.set_target(rhs)
            oracle.set_target(rhs, warm_start=self.solve(Hm, f, tau, rhs))
        rhs = targets[3] + 0.6 * (targets[0] - targets[3]) - 1.3 * (targets[2] - targets[3])
        x, a = oracle.set_target(rhs)
        assert len(self.basis(oracle)[0]) == 3
        solution = self.solve(Hm, f, tau, rhs)
        assert np.linalg.norm(x - solution) <= 1e-12 * np.linalg.norm(solution)
        assert np.linalg.norm(tau * a + x - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))

    def test_full_basis_restarts_from_the_newest_move(self):
        n = RECYCLE_MEMORY + 8
        H, Hm, f, tau, rng = self.setup_problem(n=n)
        A = np.eye(n) + tau * Hm.T @ Hm
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rng.standard_normal(n))
        sizes, moved_from = [], []
        for _ in range(RECYCLE_MEMORY + 2):
            moved_from.append(oracle.refine()[0])
            oracle.set_target(rng.standard_normal(n))
            sizes.append(len(self.basis(oracle)[0]))
        assert sizes == list(range(RECYCLE_MEMORY + 1)) + [1]
        move = moved_from[-1] - moved_from[-2]
        W, AW = self.basis(oracle)
        np.testing.assert_allclose(W[0], move / np.sqrt(move @ A @ move), rtol=0, atol=1e-12)
        np.testing.assert_allclose(AW[0], A @ W[0], rtol=0, atol=1e-12)

    def test_unmoved_candidate_adds_no_column(self):
        # a warm start puts the candidate back where the last projection
        # started, so the next projection sees a zero move: no column, no 0/0
        H, _, f, tau, rng = self.setup_problem()
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rng.standard_normal(H.cols))
        for _ in range(3):
            moved_from, _ = oracle.refine()
            oracle.set_target(rng.standard_normal(H.cols))
        W, _ = self.basis(oracle)
        before = W.copy()
        oracle.set_target(rng.standard_normal(H.cols), warm_start=moved_from)
        oracle.set_target(rng.standard_normal(H.cols))
        np.testing.assert_array_equal(self.basis(oracle)[0], before)

    def test_unmoved_target_starts_at_the_candidate(self):
        # at the target's solution, repeating the target moves the candidate
        # only at rounding level, and that move adds no column
        H, Hm, f, tau, rng = self.setup_problem()
        rhs = rng.standard_normal(H.cols)
        solution = self.solve(Hm, f, tau, rhs)
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rng.standard_normal(H.cols))
        oracle.refine()
        oracle.set_target(rhs)
        oracle.set_target(rhs, warm_start=solution)
        oracle.set_target(rhs)
        assert len(self.basis(oracle)[0]) == 1
        for _ in range(2):
            x, a = oracle.set_target(rhs)
            assert len(self.basis(oracle)[0]) == 1
            assert np.linalg.norm(x - solution) <= 1e-12 * np.linalg.norm(solution)
            np.testing.assert_array_equal(a, Hm.T @ (Hm @ x - f))

    def test_second_target_shifts_by_half_the_residual(self):
        # no move yet, so W is empty and the start is x + r / 2
        H, _, f, tau, rng = self.setup_problem()
        rhs, rhs2 = rng.standard_normal(H.cols), rng.standard_normal(H.cols)
        oracle = LsqResolvent(H, f, tau)
        oracle.set_target(rhs)
        for _ in range(2):
            x_last, a_last = oracle.refine()
        x, _ = oracle.set_target(rhs2)
        np.testing.assert_array_equal(x, x_last + (rhs2 - (x_last + tau * a_last)) / 2)
