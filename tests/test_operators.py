import numpy as np
import pytest

from hpesplit.linalg import LinearMap, StoppingRule, cg_solve
from hpesplit.operators import LsqResolvent, clip, huber_gradient, huber_value, soft_threshold


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
        oracle.set_target(rhs, warm_start=solution)
        scale = 1 + np.linalg.norm(rhs)
        assert oracle.residual_norm <= 1e-12 * scale
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
        oracle.refine()                   # CG matvec 2 + witness recompute 2
        assert H.total_count - before == 6

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

    def test_refine_before_target_raises(self):
        H, _, f, _, tau, _ = self.setup_problem()
        with pytest.raises(RuntimeError):
            LsqResolvent(H, f, tau).refine()
