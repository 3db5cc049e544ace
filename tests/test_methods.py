import numpy as np
import pytest

from hpesplit.hpe import HpeConfig, audit_invariants
from hpesplit.linalg import LinearMap, NumericalError, StoppingRule, estimate_spectral_norm
from hpesplit.methods import (
    CpParams,
    DyParams,
    _lsq_cg_step,
    condat_vu_run,
    eckstein_yao_run,
    explicit_cp_run,
    fb_run,
    implicit_cp_run,
    implicit_dy_run,
    inexact_cp_run,
    inexact_dy_run,
)
from hpesplit.operators import (
    LsqResolvent,
    clip,
    huber_gradient,
    huber_value,
    soft_threshold,
)
from hpesplit.problems import (
    SPECTRUM_KINDS,
    gen_signal_and_data,
    make_cp_instance,
    make_dy_instance,
)


class ExactProxOracle:
    """Exact resolvent behind the refinable-oracle protocol (never needs refining)."""

    def __init__(self, prox, tau):
        self.prox = prox
        self.tau = tau
        self._pair = None

    def set_target(self, target, warm_start=None):
        x = self.prox(target)
        self._pair = (x, (target - x) / self.tau)
        return self._pair

    def refine(self):
        return self._pair


def first_difference(n):
    D = np.zeros((n - 1, n))
    for i in range(n - 1):
        D[i, i] = -1.0
        D[i, i + 1] = 1.0
    return D


def make_instance(seed=0, m=12, n=12, scale=1.0):
    rng = np.random.default_rng(seed)
    Hm = scale * rng.standard_normal((m, n)) / np.sqrt(max(m, n))
    f = rng.standard_normal(m)
    return Hm, f


def cp_objective(Hm, f, Dm, lam):
    """The CP objective of each row of a block of points."""
    return lambda X: (0.5 * np.sum((X @ Hm.T - f) ** 2, axis=1)
                      + lam * np.abs(X @ Dm.T).sum(axis=1))


def dy_objective(Hm, f, Dm, lam1, lam2, delta):
    """The DY objective of each row of a block of points."""

    def obj(X):
        val = 0.5 * np.sum((X @ Hm.T - f) ** 2, axis=1) + lam1 * np.abs(X).sum(axis=1)
        if lam2:
            val += lam2 * huber_value(X @ Dm.T, delta)
        return val

    return obj


class TestEcksteinYao:
    def test_sigma_zero_exact_resolvent_is_classical_dr(self):
        tau = 0.7
        prox1 = lambda v: soft_threshold(v, tau)
        prox2 = lambda v: 1.0 + soft_threshold(v - 1.0, tau * 0.5)
        w0 = np.array([2.0, -1.5, 0.3])
        result = eckstein_yao_run(ExactProxOracle(prox1, tau), prox2, tau, 0.0, w0, 40,
                                  record_invariants=True)
        w = w0.copy()
        for k in range(40):  # classical Douglas-Rachford oracle
            x1 = prox1(w)
            x2 = prox2(2 * x1 - w)
            w = w + x2 - x1
            assert np.linalg.norm(result.trace.iterates[k + 1] - w) <= 1e-12

    def test_zero_operators_keep_w_constant(self):
        tau = 1.0
        identity_oracle = ExactProxOracle(lambda v: v, tau)  # A1 = 0
        w0 = np.array([1.0, -2.0])
        result = eckstein_yao_run(identity_oracle, lambda v: v, tau, 0.5, w0, 10,
                                  record_invariants=True)
        for w in result.trace.iterates:
            np.testing.assert_array_equal(w, w0)

    def test_update_forms_agree(self):
        Hm, f = make_instance(seed=5)
        tau, sigma = 0.9, 0.7
        oracle = LsqResolvent(LinearMap(Hm), f, tau)
        j_a2 = lambda v: soft_threshold(v, tau * 0.3)
        result = eckstein_yao_run(oracle, j_a2, tau, sigma, np.zeros(Hm.shape[1]), 60)
        assert result.aux["update_crosscheck"] <= 1e-12 * (1 + np.linalg.norm(result.final_x))

    def test_trace_passes_audit(self):
        Hm, f = make_instance(seed=6)
        tau, sigma = 0.9, 0.6
        oracle = LsqResolvent(LinearMap(Hm), f, tau)
        result = eckstein_yao_run(oracle, lambda v: soft_threshold(v, tau * 0.3),
                                  tau, sigma, np.zeros(Hm.shape[1]), 80,
                                  record_invariants=True)
        assert audit_invariants(result.trace, sigma).ok

    def test_h_counts_match_inner_iterations(self):
        Hm, f = make_instance(seed=7)
        H = LinearMap(Hm)
        tau, sigma = 0.9, 0.5
        oracle = LsqResolvent(H, f, tau)
        result = eckstein_yao_run(oracle, lambda v: soft_threshold(v, tau * 0.3),
                                  tau, sigma, np.zeros(Hm.shape[1]), 30)
        h = result.trace.h_applications
        inner = result.trace.inner_iterations
        # 2 for the witness at each target's start, then 3 per refinement: 1 for
        # the CG curvature and 2 for the fresh witness
        assert h[0] == 2 + 3 * inner[0]
        for k in range(1, len(h)):
            assert h[k] - h[k - 1] == 2 + 3 * inner[k]


class TestInexactCp:
    def test_sigma_zero_matches_implicit(self):
        n = 50
        Hm, f = make_instance(seed=1, m=n, n=n)
        Dm = first_difference(n)
        lam = 0.4
        p = CpParams.from_kappa(0.5, sigma=0.0)
        x0, y0 = np.zeros(n), np.zeros(n - 1)
        oracle = LsqResolvent(LinearMap(Hm), f, p.tau, x0=x0)
        inexact = inexact_cp_run(oracle, LinearMap(Dm), lambda v: clip(v, lam), p,
                                 x0, y0, 100, record_invariants=True, inner_cap=1000)
        implicit = implicit_cp_run(LinearMap(Hm), f, LinearMap(Dm), lam, p, x0, y0, 100,
                                   cg_tol=1e-12, record_invariants=True)
        for a, b in zip(inexact.trace.iterates, implicit.trace.iterates):
            assert np.linalg.norm(a - b) <= 1e-8

    def test_k_identity_reduces_to_eckstein_yao(self):
        # the printed iteration contracts to the two-operator scheme through
        # w = x - y (the dual sign opposite to the saddle-point convention)
        n = 8
        Hm, f = make_instance(seed=2, m=n, n=n)
        lam = 0.3
        tau = theta = 1.0
        sigma = 0.6
        rng = np.random.default_rng(3)
        x0, y0 = rng.standard_normal(n), rng.standard_normal(n)
        p = CpParams(tau, theta, sigma)
        oc = LsqResolvent(LinearMap(Hm), f, tau, x0=x0)
        cp = inexact_cp_run(oc, LinearMap.identity(n), lambda v: clip(v, lam), p,
                            x0, y0, 100, record_invariants=True)
        oe = LsqResolvent(LinearMap(Hm), f, tau, x0=x0)
        ey = eckstein_yao_run(oe, lambda v: soft_threshold(v, tau * lam), tau, sigma,
                              x0 - y0, 100, record_invariants=True)
        for k in range(101):
            xy = cp.trace.iterates[k]
            assert np.linalg.norm((xy[:n] - xy[n:]) - ey.trace.iterates[k]) <= 1e-10

    def test_zero_coupling_decouples(self):
        n = 6
        Hm, f = make_instance(seed=4, m=n, n=n)
        lam = 0.5
        p = CpParams(tau=0.8, theta=1.2, sigma=0.0)
        x0 = np.zeros(n)
        y0 = np.linspace(-2, 2, n)
        oracle = LsqResolvent(LinearMap(Hm), f, p.tau, x0=x0)
        K = LinearMap(np.zeros((n, n)))
        res = inexact_cp_run(oracle, K, lambda v: clip(v, lam), p, x0, y0, 5,
                             record_invariants=True, inner_cap=1000)
        # y iterates under K = 0: y^{k+1} = J(y^k) = clip(y^k), then constant
        y_expected = y0.copy()
        x_expected = x0.copy()
        A = np.eye(n) + p.tau * Hm.T @ Hm
        for k in range(5):
            y_expected = clip(y_expected, lam)
            x_expected = np.linalg.solve(A, x_expected + p.tau * Hm.T @ f)
            xy = res.trace.iterates[k + 1]
            assert np.linalg.norm(xy[n:] - y_expected) <= 1e-12
            assert np.linalg.norm(xy[:n] - x_expected) <= 1e-8

    def test_non_finite_check_raises_before_any_refinement(self):
        # a prox that returns NaN makes the check's rhs NaN; no refinement can
        # repair that, so certify raises at once instead of exhausting inner_cap
        n = 6
        Hm, f = make_instance(seed=4, m=n, n=n)
        p = CpParams.from_kappa(0.5, sigma=0.5)
        H = LinearMap(Hm)
        nan_prox = lambda v: np.full_like(v, np.nan)
        with pytest.raises(NumericalError, match=r"^hpe-cp: iteration 0 check is not finite "
                                                 r"\(lhs=[0-9.e+-]+, rhs=nan\)$"):
            inexact_cp_run(LsqResolvent(H, f, p.tau), LinearMap(first_difference(n)),
                           nan_prox, p, np.zeros(n), np.zeros(n - 1), 3)
        assert H.total_count == 2  # the witness at the start point; no CG step

    def test_stepsize_invariant_enforced(self):
        n = 4
        p = CpParams(tau=10.0, theta=10.0, sigma=0.5)
        oracle = ExactProxOracle(lambda v: v, 10.0)
        with pytest.raises(ValueError):
            inexact_cp_run(oracle, LinearMap.identity(n), lambda v: v, p,
                           np.zeros(n), np.zeros(n), 1)

    def test_trace_passes_audit(self):
        n = 20
        Hm, f = make_instance(seed=9, m=n, n=n)
        Dm = first_difference(n)
        lam = 0.2
        p = CpParams.from_kappa(0.3, sigma=0.9)
        oracle = LsqResolvent(LinearMap(Hm), f, p.tau)
        res = inexact_cp_run(oracle, LinearMap(Dm), lambda v: clip(v, lam), p,
                             np.zeros(n), np.zeros(n - 1), 80)
        assert audit_invariants(res.trace, p.sigma).ok

    def test_h_counts_match_inner_iterations(self):
        n = 15
        Hm, f = make_instance(seed=12, m=n, n=n)
        Dm = first_difference(n)
        p = CpParams.from_kappa(0.4, sigma=0.8)
        H = LinearMap(Hm)
        oracle = LsqResolvent(H, f, p.tau)
        res = inexact_cp_run(oracle, LinearMap(Dm), lambda v: clip(v, 0.3), p,
                             np.zeros(n), np.zeros(n - 1), 25)
        h = res.trace.h_applications
        inner = res.trace.inner_iterations
        assert h[0] == 2 + 3 * inner[0]
        for k in range(1, len(h)):
            assert h[k] - h[k - 1] == 2 + 3 * inner[k]

    def test_d_counts_exclude_instrumentation(self):
        # per outer step: Kt y once, then K in the dual candidate and K in the
        # seminorm check per proposal; the recorded residual's K is uncounted
        n = 30
        Hm, f = make_instance(seed=12, m=n, n=n)
        D = LinearMap(first_difference(n))
        p = CpParams.from_kappa(0.4, sigma=0.8)
        iters = 5
        res = inexact_cp_run(LsqResolvent(LinearMap(Hm), f, p.tau), D,
                             lambda v: clip(v, 0.3), p, np.zeros(n), np.zeros(n - 1), iters)
        inner = sum(res.trace.inner_iterations)
        assert inner > 0
        assert D.total_count == iters + 2 * (iters + inner)

    def test_recorded_seminorms_match_assembled_preconditioner(self):
        # the in-method quadratic form against a dense [[I/tau, -Kt], [-K, I/theta]]
        n = 12
        Hm, f = make_instance(seed=27, m=n, n=n)
        Dm = first_difference(n)
        p = CpParams.from_kappa(0.4, sigma=0.7)
        oracle = LsqResolvent(LinearMap(Hm), f, p.tau)
        res = inexact_cp_run(oracle, LinearMap(Dm), lambda v: clip(v, 0.3), p,
                             np.zeros(n), np.zeros(n - 1), 40, record_invariants=True)
        M = np.block([[np.eye(n) / p.tau, -Dm.T],
                      [-Dm, np.eye(n - 1) / p.theta]])
        for k in range(40):
            du = res.trace.iterates[k + 1] - res.trace.iterates[k]
            dense = np.sqrt(max(float(du @ (M @ du)), 0.0))
            assert res.trace.seminorm_residual[k] == pytest.approx(dense, abs=1e-12)


class TestInexactDy:
    def test_b_zero_reduces_to_eckstein_yao(self):
        n = 10
        Hm, f = make_instance(seed=1, m=n, n=n)
        gamma, sigma, lam1 = 0.8, 0.5, 0.2
        w0 = np.random.default_rng(5).standard_normal(n)
        j_a2 = lambda v: soft_threshold(v, gamma * lam1)
        dy = inexact_dy_run(LsqResolvent(LinearMap(Hm), f, gamma), j_a2,
                            lambda x: np.zeros_like(x),
                            DyParams.from_beta(0.0, sigma=sigma, gamma=gamma),
                            w0, 50, record_invariants=True)
        ey = eckstein_yao_run(LsqResolvent(LinearMap(Hm), f, gamma), j_a2, gamma,
                              sigma, w0, 50, record_invariants=True)
        for a, b in zip(dy.trace.iterates, ey.trace.iterates):
            assert np.linalg.norm(a - b) <= 1e-12

    def test_sigma_zero_matches_implicit(self):
        n = 50
        Hm, f = make_instance(seed=8, m=n, n=n)
        Dm = first_difference(n)
        lam1, lam2, delta = 0.05, 0.1, 0.05
        beta = 4 * lam2
        gamma = 1 / beta
        D = LinearMap(Dm)
        b_apply = lambda x: lam2 * D.apply_adjoint(huber_gradient(D.apply(x), delta))
        dyp = DyParams.from_beta(beta, sigma=0.0)
        w0 = np.zeros(n)
        inexact = inexact_dy_run(LsqResolvent(LinearMap(Hm), f, gamma, x0=w0),
                                 lambda v: soft_threshold(v, gamma * lam1), b_apply,
                                 dyp, w0, 100, record_invariants=True, inner_cap=1000)
        implicit = implicit_dy_run(LinearMap(Hm), f, D.fresh(), lam1, lam2, delta,
                                   w0, 100, cg_tol=1e-13, record_invariants=True)
        for a, b in zip(inexact.trace.iterates, implicit.trace.iterates):
            assert np.linalg.norm(a - b) <= 1e-8

    def test_pure_forward_converges_to_zero_of_b(self):
        # A1 = A2 = 0 and a PSD linear forward term: the limit is the start
        # projected on the nullspace, read off an eigendecomposition
        rng = np.random.default_rng(3)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        eigs = np.array([0.0, 0.0, 1.0, 2.0, 4.0])
        B = Q @ np.diag(eigs) @ Q.T
        beta = float(eigs.max())
        p = DyParams.from_beta(beta, sigma=0.0)
        w0 = rng.standard_normal(5)
        oracle = ExactProxOracle(lambda v: v, p.gamma)
        res = inexact_dy_run(oracle, lambda v: v, lambda x: B @ x, p, w0, 300)
        null_proj = Q[:, eigs == 0.0] @ (Q[:, eigs == 0.0].T @ w0)
        assert np.linalg.norm(res.final_x - null_proj) <= 1e-8
        assert np.linalg.norm(B @ res.final_x) <= 1e-8

    def test_trace_passes_audit(self):
        n = 20
        Hm, f = make_instance(seed=13, m=n, n=n)
        Dm = first_difference(n)
        lam1, lam2, delta = 0.02, 0.1, 0.05
        D = LinearMap(Dm)
        b_apply = lambda x: lam2 * D.apply_adjoint(huber_gradient(D.apply(x), delta))
        p = DyParams.from_beta(4 * lam2, sigma=0.9)
        res = inexact_dy_run(LsqResolvent(LinearMap(Hm), f, p.gamma),
                             lambda v: soft_threshold(v, p.gamma * lam1), b_apply,
                             p, np.zeros(n), 80)
        assert audit_invariants(res.trace, p.sigma).ok

    def test_gamma_outside_range_rejected(self):
        with pytest.raises(ValueError):
            DyParams(gamma=3.0, beta=1.0)
        with pytest.raises(ValueError):
            DyParams(gamma=0.0, beta=1.0)

    def test_h_counts_match_inner_iterations(self):
        # the forward term costs D applications only; H counts are as for DR
        n = 15
        Hm, f = make_instance(seed=26, m=n, n=n)
        Dm = first_difference(n)
        D = LinearMap(Dm)
        lam1, lam2, delta = 0.02, 0.1, 0.05
        b_apply = lambda x: lam2 * D.apply_adjoint(huber_gradient(D.apply(x), delta))
        p = DyParams.from_beta(4 * lam2, sigma=0.8)
        res = inexact_dy_run(LsqResolvent(LinearMap(Hm), f, p.gamma),
                             lambda v: soft_threshold(v, p.gamma * lam1), b_apply,
                             p, np.zeros(n), 25)
        h = res.trace.h_applications
        inner = res.trace.inner_iterations
        assert h[0] == 2 + 3 * inner[0]
        for k in range(1, len(h)):
            assert h[k] - h[k - 1] == 2 + 3 * inner[k]


class TestImplicitCp:
    def test_degenerate_data_reduces_to_linear_updates(self):
        # zero data term and an inactive clip leave plain primal-dual updates
        n = 6
        Dm = first_difference(n)
        p = CpParams(tau=0.25, theta=0.5)
        x = np.linspace(-1, 1, n)
        y = np.linspace(0.5, -0.5, n - 1)
        res = implicit_cp_run(LinearMap(np.zeros((n, n))), np.zeros(n), LinearMap(Dm),
                              lam=1e6, p=p, x0=x, y0=y, iters=4, record_invariants=True)
        for k in range(4):
            x_new = x - p.tau * (Dm.T @ y)
            y = y + p.theta * (Dm @ (2 * x_new - x))
            x = x_new
            xy = res.trace.iterates[k + 1]
            assert np.linalg.norm(xy[:n] - x) <= 1e-10
            assert np.linalg.norm(xy[n:] - y) <= 1e-10

    def test_zero_clip_level_zeroes_dual(self):
        n = 5
        Hm, f = make_instance(seed=3, m=n, n=n)
        res = implicit_cp_run(LinearMap(Hm), f, LinearMap(first_difference(n)), 0.0,
                              CpParams(tau=1.0, theta=1.0), np.zeros(n),
                              np.ones(n - 1), 3, record_invariants=True)
        for xy in res.trace.iterates[1:]:
            np.testing.assert_array_equal(xy[n:], 0.0)

    def test_fixed_point_satisfies_optimality_system(self):
        n = 10
        Hm, f = make_instance(seed=11, m=n, n=n)
        Dm = first_difference(n)
        lam = 0.1
        p = CpParams.from_kappa(0.5)
        res = implicit_cp_run(LinearMap(Hm), f, LinearMap(Dm), lam, p,
                              np.zeros(n), np.zeros(n - 1), 4000, cg_tol=1e-12)
        x, y = res.final_x, res.aux["y"]
        # stationarity, dual feasibility, and alignment of the KKT system
        grad = Hm.T @ (Hm @ x - f)
        assert np.linalg.norm(grad + Dm.T @ y) <= 1e-6 * (1 + np.linalg.norm(grad))
        assert np.max(np.abs(y)) <= lam + 1e-9
        assert float(y @ (Dm @ x)) == pytest.approx(lam * np.abs(Dm @ x).sum(), abs=1e-8)

    def test_h_counts(self):
        n = 8
        Hm, f = make_instance(seed=14, m=n, n=n)
        H = LinearMap(Hm)
        res = implicit_cp_run(H, f, LinearMap(first_difference(n)), 0.2,
                              CpParams.from_kappa(0.5), np.zeros(n), np.zeros(n - 1), 10)
        h = res.trace.h_applications
        inner = res.trace.inner_iterations
        # one adjoint for Ht f up front, then 2 + 2*cg per outer step
        assert h[0] == 1 + 2 + 2 * inner[0]
        for k in range(1, len(h)):
            assert h[k] - h[k - 1] == 2 + 2 * inner[k]

    def test_cg_cap_exhausted_above_the_tolerance_raises(self):
        # 10 n = 50 CG steps cannot reach a relative residual of 1e-300
        H = LinearMap(np.random.default_rng(0).standard_normal((5, 5)))
        with pytest.raises(NumericalError, match="inner CG cap 50 exhausted at relative"):
            _lsq_cg_step(H, 1.0, np.ones(5), np.zeros(5), 1e-300)

    def test_cg_below_the_tolerance_returns_before_the_cap(self):
        H = LinearMap(np.random.default_rng(0).standard_normal((5, 5)))
        b = np.ones(5)
        x, it = _lsq_cg_step(H, 1.0, b, np.zeros(5), 1e-8)
        assert it == 5
        Hm = H.as_matrix()
        assert np.linalg.norm(b - (x + Hm.T @ (Hm @ x))) <= 1e-8 * np.linalg.norm(b)


class TestExplicitCp:
    def test_zero_data_dual_decays_geometrically(self):
        n = 5
        res = explicit_cp_run(LinearMap(np.zeros((n, n))), np.zeros(n),
                              LinearMap(first_difference(n)), lam=0.5, kappa=1.0,
                              x0=np.zeros(n), u0=np.ones(n), v0=np.zeros(n - 1),
                              iters=20, norm_K=2.0)
        theta = res.aux["theta"]
        np.testing.assert_allclose(res.aux["u"], np.ones(n) / (1 + theta) ** 20, rtol=1e-12)

    def test_stationary_point_algebra(self):
        n = 30
        Hm, f = make_instance(seed=15, m=n, n=n)
        Dm = first_difference(n)
        lam = 0.05
        res = explicit_cp_run(LinearMap(Hm), f, LinearMap(Dm), lam, kappa=0.5,
                              x0=np.zeros(n), u0=np.zeros(n), v0=np.zeros(n - 1),
                              iters=60000)
        x, u, v = res.final_x, res.aux["u"], res.aux["v"]
        scale = 1 + np.linalg.norm(u)
        assert np.linalg.norm(u - (Hm @ x - f)) <= 1e-5 * scale
        assert np.linalg.norm(Hm.T @ u + Dm.T @ v) <= 1e-5 * scale
        assert np.max(np.abs(v)) <= lam + 1e-9


class TestCondatVu:
    def test_no_regularizer_is_gradient_descent(self):
        n = 12
        Hm, f = make_instance(seed=16, m=n, n=n)
        normH = np.linalg.svd(Hm, compute_uv=False)[0]
        tau = 1.0 / normH ** 2
        res = condat_vu_run(LinearMap(Hm), f, LinearMap(np.zeros((1, n))), lam=5.0,
                            tau=tau, theta=1e-6, x0=np.zeros(n), y0=np.zeros(1),
                            iters=50, record_invariants=True)
        x = np.zeros(n)
        objs = []
        for k in range(50):
            x = x - tau * (Hm.T @ (Hm @ x - f))
            assert np.linalg.norm(res.trace.iterates[k + 1] - x) <= 1e-10
            objs.append(0.5 * np.linalg.norm(Hm @ x - f) ** 2)
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_zero_lam_zeroes_dual(self):
        n = 8
        Hm, f = make_instance(seed=17, m=n, n=n)
        Dm = first_difference(n)
        normH = np.linalg.svd(Hm, compute_uv=False)[0]
        tau = 0.9 / normH ** 2
        res = condat_vu_run(LinearMap(Hm), f, LinearMap(Dm), lam=0.0, tau=tau,
                            theta=0.01, x0=np.zeros(n), y0=np.ones(n - 1), iters=30)
        np.testing.assert_array_equal(res.aux["y"], 0.0)

    def test_stepsize_violation_rejected(self):
        n = 4
        Hm, f = make_instance(seed=18, m=n, n=n)
        with pytest.raises(ValueError):
            condat_vu_run(LinearMap(Hm), f, LinearMap(first_difference(n)), 0.1,
                          tau=1e6, theta=0.1, x0=np.zeros(n), y0=np.zeros(n - 1), iters=1)


class TestImplicitDy:
    def test_lam2_zero_is_inexact_dr(self):
        n = 10
        Hm, f = make_instance(seed=19, m=n, n=n)
        lam1 = 0.1
        gamma = 1.0
        res = implicit_dy_run(LinearMap(Hm), f, LinearMap(first_difference(n)),
                              lam1, 0.0, delta=0.1, w0=np.zeros(n), iters=60,
                              gamma=gamma, cg_tol=1e-13, record_invariants=True)
        A = np.eye(n) + gamma * Hm.T @ Hm
        w = np.zeros(n)
        alpha = res.aux["alpha"]
        assert alpha <= 1e-9
        for k in range(60):  # Douglas-Rachford recursion with direct solves
            x1 = np.linalg.solve(A, w + gamma * Hm.T @ f)
            x2 = soft_threshold(2 * x1 - w, gamma * lam1)
            w = w + (x2 - x1) / (1 + alpha)
            assert np.linalg.norm(res.trace.iterates[k + 1] - w) <= 1e-8

    def test_beta_zero_needs_a_gamma(self):
        # at beta = 0 (Douglas-Rachford) the default gamma = 1/beta is undefined
        message = "gamma must be given when beta = 0"
        with pytest.raises(ValueError, match=message):
            DyParams.from_beta(0.0)
        Hm, f = make_instance(seed=19, m=4, n=4)
        with pytest.raises(ValueError, match=message):
            implicit_dy_run(LinearMap(Hm), f, LinearMap(first_difference(4)), 0.1, 0.0,
                            delta=0.1, w0=np.zeros(4), iters=1)
        assert DyParams.from_beta(0.0, gamma=1.0).alpha == 0.0
        assert DyParams.from_beta(0.4).gamma == 2.5

    def test_fixed_point_satisfies_subgradient_optimality(self):
        n = 10
        Hm, f = make_instance(seed=20, m=n, n=n)
        Dm = first_difference(n)
        lam1, lam2, delta = 0.05, 0.1, 0.05
        res = implicit_dy_run(LinearMap(Hm), f, LinearMap(Dm), lam1, lam2, delta,
                              np.zeros(n), 5000, cg_tol=1e-12)
        x = res.final_x
        grad = Hm.T @ (Hm @ x - f) + lam2 * Dm.T @ huber_gradient(Dm @ x, delta)
        for i in range(n):
            if x[i] != 0.0:
                assert abs(grad[i] + lam1 * np.sign(x[i])) <= 1e-6
            else:
                assert abs(grad[i]) <= lam1 + 1e-6


class TestForwardBackward:
    def test_no_regularizers_is_gradient_descent(self):
        n = 9
        Hm, f = make_instance(seed=21, m=n, n=n)
        res = fb_run(LinearMap(Hm), f, LinearMap(first_difference(n)), 0.0, 0.0,
                     delta=0.1, x0=np.zeros(n), iters=40, record_invariants=True)
        gamma = res.aux["gamma"]
        x = np.zeros(n)
        for k in range(40):
            x = x - gamma * (Hm.T @ (Hm @ x - f))
            assert np.linalg.norm(res.trace.iterates[k + 1] - x) <= 1e-12

    def test_identity_data_is_ista_with_closed_form_limit(self):
        n = 7
        f = np.array([2.0, -0.3, 0.0, 1.4, -2.2, 0.6, 0.05])
        lam1 = 0.5
        res = fb_run(LinearMap.identity(n), f, LinearMap(first_difference(n)),
                     lam1, 0.0, delta=1.0, x0=np.zeros(n), iters=200, norm_H=1.0)
        np.testing.assert_allclose(res.final_x, soft_threshold(f, lam1), atol=1e-10)


class TestCounterAudit:
    """Cumulative counts change by exactly the operator calls each step makes."""

    def test_forward_methods_two_applications_per_step(self):
        n = 10
        Hm, f = make_instance(seed=30, m=n, n=n)
        Dm = first_difference(n)
        normH = np.linalg.svd(Hm, compute_uv=False)[0]
        runs = [
            condat_vu_run(LinearMap(Hm), f, LinearMap(Dm), 0.1, 0.9 / normH ** 2,
                          0.01, np.zeros(n), np.zeros(n - 1), 12, norm_H=normH,
                          norm_D=2.0),
            explicit_cp_run(LinearMap(Hm), f, LinearMap(Dm), 0.1, 0.5, np.zeros(n),
                            np.zeros(n), np.zeros(n - 1), 12, norm_K=2.5),
            fb_run(LinearMap(Hm), f, LinearMap(Dm), 0.05, 0.1, 0.05, np.zeros(n), 12,
                   norm_H=normH),
        ]
        for res in runs:
            h = res.trace.h_applications
            assert h[0] == 2
            assert all(b - a == 2 for a, b in zip(h, h[1:])), res.trace.method

    def test_implicit_dy_counts(self):
        n = 10
        Hm, f = make_instance(seed=31, m=n, n=n)
        res = implicit_dy_run(LinearMap(Hm), f, LinearMap(first_difference(n)),
                              0.05, 0.1, 0.05, np.zeros(n), 12)
        h = res.trace.h_applications
        inner = res.trace.inner_iterations
        assert h[0] == 1 + 2 + 2 * inner[0]  # Ht f once, then per-step CG work
        for k in range(1, len(h)):
            assert h[k] - h[k - 1] == 2 + 2 * inner[k]


def run_each_method(name, iters):
    """Run one of the eight runners on a small CP/DY instance, recording iterates."""
    n = 8
    Hm, f = make_instance(seed=40, m=n, n=n)
    H, D = LinearMap(Hm), LinearMap(first_difference(n))
    x0, y0 = np.zeros(n), np.zeros(n - 1)
    obj = lambda X: np.einsum("ij,ij->i", X, X)
    normH = np.linalg.svd(Hm, compute_uv=False)[0]
    cp = CpParams.from_kappa(0.5, sigma=0.5)
    dy = DyParams.from_beta(0.4, sigma=0.5)
    b_apply = lambda x: 0.1 * D.apply_adjoint(huber_gradient(D.apply(x), 0.05))
    kw = dict(record_invariants=True, objective=obj)
    runs = {
        "hpe-dr": lambda: eckstein_yao_run(LsqResolvent(H, f, 0.9),
                                           lambda v: soft_threshold(v, 0.1), 0.9, 0.5,
                                           x0, iters, **kw),
        "hpe-cp": lambda: inexact_cp_run(LsqResolvent(H, f, cp.tau), D,
                                         lambda v: clip(v, 0.2), cp, x0, y0, iters, **kw),
        "hpe-dy": lambda: inexact_dy_run(LsqResolvent(H, f, dy.gamma),
                                         lambda v: soft_threshold(v, 0.01), b_apply, dy,
                                         x0, iters, **kw),
        "implicit-cp": lambda: implicit_cp_run(H, f, D, 0.2, cp, x0, y0, iters, **kw),
        "explicit-cp": lambda: explicit_cp_run(H, f, D, 0.2, 0.5, x0, np.zeros(n), y0,
                                               iters, **kw),
        "condat-vu": lambda: condat_vu_run(H, f, D, 0.2, 1.0 / normH ** 2, 0.01, x0, y0,
                                           iters, norm_H=normH, norm_D=2.0, **kw),
        "implicit-dy": lambda: implicit_dy_run(H, f, D, 0.01, 0.1, 0.05, x0, iters, **kw),
        "fb": lambda: fb_run(H, f, D, 0.01, 0.1, 0.05, x0, iters, norm_H=normH, **kw),
    }
    return runs[name]()


class TestSharedOuterLoop:
    @pytest.mark.parametrize("iters", [0, 3])
    @pytest.mark.parametrize("name", ["hpe-dr", "hpe-cp", "hpe-dy", "implicit-cp",
                                      "explicit-cp", "condat-vu", "implicit-dy", "fb"])
    def test_rows_iterates_and_counts(self, name, iters):
        res = run_each_method(name, iters)
        trace = res.trace
        assert trace.method == name
        assert len(trace) == iters
        assert trace.k == list(range(iters))
        assert len(trace.iterates) == iters + 1
        assert all(np.isfinite(trace.objective))
        assert all(b >= a for a, b in zip(trace.h_applications, trace.h_applications[1:]))
        assert res.final_x.shape == (8,)
        if iters == 0:
            np.testing.assert_array_equal(res.final_x, 0.0)


class TestRandomisedAuditSweep:
    def test_certified_traces_pass_the_audit(self):
        # per seed: sizes, spectrum and sigma shared by the three certified
        # methods, then each method's own stepsize; every trace must pass the
        # audit at the sigma it was run with
        failures = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            m, n = (int(v) for v in rng.integers(4, 41, size=2))
            kind = SPECTRUM_KINDS[rng.integers(len(SPECTRUM_KINDS))]
            sigma = float(rng.uniform(0.0, 0.99))
            kappa = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
            lam2 = float(rng.uniform(0.0, 0.2))
            beta = max(4.0 * lam2, 1e-12)
            gamma = float(rng.uniform(0.0, 2.0 / beta))
            tau = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            x0 = np.zeros(n)

            cp = make_cp_instance(m, n, seed, 0.5, kind=kind)
            p = CpParams.from_kappa(kappa, sigma=sigma)
            hpe_cp = inexact_cp_run(LsqResolvent(cp.H, cp.f, p.tau), cp.D,
                                    lambda v: clip(v, 0.5), p, x0, np.zeros(n - 1), 40)

            dy = make_dy_instance(m, n, seed, 0.01, lam2, 0.05, kind=kind)
            q = DyParams(gamma=gamma, beta=beta, sigma=sigma)
            b_apply = lambda x: lam2 * dy.D.apply_adjoint(huber_gradient(dy.D.apply(x), 0.05))
            hpe_dy = inexact_dy_run(LsqResolvent(dy.H, dy.f, gamma),
                                    lambda v: soft_threshold(v, gamma * 0.01), b_apply, q,
                                    x0, 40)

            dr = dy.fresh()
            hpe_dr = eckstein_yao_run(LsqResolvent(dr.H, dr.f, tau),
                                      lambda v: soft_threshold(v, tau * 0.01), tau, sigma,
                                      x0, 40)

            for res in (hpe_cp, hpe_dy, hpe_dr):
                report = audit_invariants(res.trace, sigma)
                if not report.ok:
                    failures.append((seed, res.trace.method, report.failures[0]))
        assert not failures, failures


class TestRefineMonotonicity:
    def test_lhs_strictly_decreases_within_outer_iteration(self):
        n = 20
        Hm, f = make_instance(seed=33, m=n, n=n)
        tau = 0.9
        oracle = LsqResolvent(LinearMap(Hm), f, tau)
        rng = np.random.default_rng(0)
        for _ in range(5):
            rhs = rng.standard_normal(n)
            x, a = oracle.set_target(rhs)
            prev = np.linalg.norm(tau * a + x - rhs)
            for _ in range(8):
                x, a = oracle.refine()
                cur = np.linalg.norm(tau * a + x - rhs)
                if prev > 1e-13:
                    assert cur < prev
                prev = cur


class TestCrossMethodConsensus:
    def test_cp_problem_objectives_agree(self):
        n = 50
        Hm, f = make_instance(seed=22, m=n, n=n)
        Dm = first_difference(n)
        lam = 0.1
        obj = cp_objective(Hm, f, Dm, lam)
        H, D = LinearMap(Hm), LinearMap(Dm)
        p = CpParams.from_kappa(0.5, sigma=0.9)

        implicit = implicit_cp_run(H.fresh(), f, D.fresh(), lam, p, np.zeros(n),
                                   np.zeros(n - 1), 4000, objective=obj)
        oracle = LsqResolvent(H.fresh(), f, p.tau)
        hpe = inexact_cp_run(oracle, D.fresh(), lambda v: clip(v, lam), p,
                             np.zeros(n), np.zeros(n - 1), 4000, objective=obj)
        normH = np.linalg.svd(Hm, compute_uv=False)[0]
        tau_cv = 1.0 / normH ** 2
        theta_cv = 0.4 * (1 / tau_cv - normH ** 2 / 2) / 4.0
        cv = condat_vu_run(H.fresh(), f, D.fresh(), lam, tau_cv, theta_cv,
                           np.zeros(n), np.zeros(n - 1), 60000, objective=obj)
        exp = explicit_cp_run(H.fresh(), f, D.fresh(), lam, 0.5, np.zeros(n),
                              np.zeros(n), np.zeros(n - 1), 60000, objective=obj)

        finals = [r.trace.objective[-1] for r in (implicit, hpe, cv, exp)]
        ref = min(finals)
        for val in finals:
            assert val - ref <= 1e-6 * (1 + abs(ref))

    def test_dy_problem_objectives_agree(self):
        n = 50
        Hm, f = make_instance(seed=23, m=n, n=n)
        Dm = first_difference(n)
        lam1, lam2, delta = 0.01, 0.05, 0.05
        obj = dy_objective(Hm, f, Dm, lam1, lam2, delta)
        H, D = LinearMap(Hm), LinearMap(Dm)
        beta = 4 * lam2

        implicit = implicit_dy_run(H.fresh(), f, D.fresh(), lam1, lam2, delta,
                                   np.zeros(n), 6000, objective=obj)
        b_apply = lambda x: lam2 * D.apply_adjoint(huber_gradient(D.apply(x), delta))
        p = DyParams.from_beta(beta, sigma=0.9)
        hpe = inexact_dy_run(LsqResolvent(H.fresh(), f, p.gamma),
                             lambda v: soft_threshold(v, p.gamma * lam1), b_apply,
                             p, np.zeros(n), 6000, objective=obj)
        fb = fb_run(H.fresh(), f, D.fresh(), lam1, lam2, delta, np.zeros(n), 60000,
                    objective=obj)

        finals = [r.trace.objective[-1] for r in (implicit, hpe, fb)]
        ref = min(finals)
        for val in finals:
            assert val - ref <= 1e-6 * (1 + abs(ref))


NAN = float("nan")


class TestNanParameterGuards:
    """Each guard is written so that a NaN parameter fails it, as a negative one does."""

    @pytest.mark.parametrize("call, message", [
        (lambda H, f: clip(np.ones(2), NAN), "clip level must be nonnegative, got nan"),
        (lambda H, f: soft_threshold(np.ones(2), NAN), "threshold must be nonnegative, got nan"),
        (lambda H, f: huber_value(np.ones(2), NAN), "delta must be positive, got nan"),
        (lambda H, f: huber_gradient(np.ones(2), NAN), "delta must be positive, got nan"),
        (lambda H, f: LsqResolvent(H, f, NAN), "tau must be positive, got nan"),
        (lambda H, f: eckstein_yao_run(LsqResolvent(H, f, 1.0), lambda v: v, NAN, 0.5,
                                       np.zeros(4), 1), "tau must be positive, got nan"),
        (lambda H, f: explicit_cp_run(H, f, H, 0.1, NAN, np.zeros(4), np.zeros(4),
                                      np.zeros(4), 1, norm_K=1.0),
         "kappa must be positive, got nan"),
        (lambda H, f: HpeConfig(accept_atol=NAN), "accept_atol must be nonnegative, got nan"),
        (lambda H, f: HpeConfig(inner_cap=NAN), "inner_cap must be >= 1, got nan"),
        (lambda H, f: StoppingRule(cap=NAN), "cap must be >= 1, got nan"),
        (lambda H, f: CpParams.from_kappa(0.5).validate_norm(NAN), "exceeds 1"),
        (lambda H, f: estimate_spectral_norm(H, tol=NAN), "tol must be positive, got nan"),
        (lambda H, f: estimate_spectral_norm(H, max_iter=NAN), "max_iter must be >= 1, got nan"),
        (lambda H, f: gen_signal_and_data(H, 0, noise_std=NAN),
         "noise_std must be nonnegative, got nan"),
        (lambda H, f: CpParams(tau=NAN, theta=1.0),
         "stepsizes must be positive, got tau=nan, theta=1.0"),
        (lambda H, f: DyParams(gamma=1.0, beta=NAN), "beta must be nonnegative, got nan"),
        (lambda H, f: DyParams(gamma=1.0, beta=1.0, sigma=NAN),
         r"sigma must be in \[0, 1\), got nan"),
        (lambda H, f: condat_vu_run(H, f, H, 0.1, 0.5, NAN, np.zeros(4), np.zeros(4), 1,
                                    norm_H=1.0, norm_D=1.0),
         r"theta must lie in \(0, 1\.5\), got nan"),
    ], ids=["clip", "soft_threshold", "huber_value", "huber_gradient", "LsqResolvent",
            "eckstein_yao_run", "explicit_cp_run", "HpeConfig", "HpeConfig-inner_cap",
            "StoppingRule", "validate_norm", "estimate_spectral_norm",
            "estimate_spectral_norm-max_iter",
            "gen_signal_and_data", "CpParams", "DyParams-beta", "DyParams-sigma",
            "condat_vu_run-theta"])
    def test_nan_rejected(self, call, message):
        Hm, f = make_instance(seed=1, m=4, n=4)
        with pytest.raises(ValueError, match=message):
            call(LinearMap(Hm), f)
