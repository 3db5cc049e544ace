import functools

import numpy as np
import pytest

from hpesplit.hpe import (
    OBJECTIVE_BLOCK,
    CertificationError,
    HpeConfig,
    RunTrace,
    StepRecord,
    audit_invariants,
    certify,
    iterate,
    reduced_hpe_run,
)
from hpesplit.linalg import LinearMap, NumericalError
from hpesplit.operators import soft_threshold
from hpesplit.problems import make_cp_instance


def dr_factor(n):
    """The stacked injective factor [I; -I; I] of the three-block splitting preconditioner."""
    eye = np.eye(n)
    return LinearMap(np.vstack([eye, -eye, eye]))


class ProxPathOracle:
    """Test-only refinable resolvent around an exact prox.

    Keeps a moving point p; the candidate is J(p) and the witness (p - J(p)) / tau,
    so the operator inclusion holds exactly at every stage while the check
    quantity ||candidate + tau * witness - target|| = ||p - target|| shrinks by
    `rate` per refinement.
    """

    def __init__(self, prox, tau, rate=0.5):
        self.prox = prox
        self.tau = tau
        self.rate = rate
        self.p = None
        self.target = None

    def set_target(self, target, warm_start=None):
        self.target = np.asarray(target, dtype=float)
        if warm_start is not None:
            self.p = np.array(warm_start, dtype=float)
        elif self.p is None:
            self.p = np.zeros_like(self.target)
        return self.pair()

    def refine(self):
        self.p = self.target + self.rate * (self.p - self.target)
        return self.pair()

    def pair(self):
        x = self.prox(self.p)
        a = (self.p - x) / self.tau
        return x, a


class ExactProxOracle:
    """The exact resolvent behind the oracle protocol: its first proposal must pass."""

    def __init__(self, prox, tau):
        self.prox = prox
        self.tau = tau

    def set_target(self, target):
        x = self.prox(target)
        return x, (target - x) / self.tau

    def refine(self):
        raise AssertionError("an exact proposal must never need refinement")


def dr_assemble(prox2, tau):
    """The two-operator splitting's reduced pair (u_tilde, z, s), assembled from
    the first resolvent's (candidate, witness)."""

    def assemble(x1, a1):
        x2 = prox2(x1 - tau * a1)
        z = x1 - x2
        s = tau * a1 + x2
        q = tau * a1 + 2 * x2 - x1
        return (x1, x2, q), z, s

    return assemble


def decoupled(x, a):
    """The reduced pair whose s is the candidate and z the witness."""
    return x, a, x


def classical_dr(prox1, prox2, tau, w0, iters):
    """Plain Douglas-Rachford recursion used as the oracle for the reduced runs."""
    w = np.array(w0, dtype=float)
    for _ in range(iters):
        x1 = prox1(w)
        x2 = prox2(2 * x1 - w)
        w = w + x2 - x1
    return w


def toy_proxes(tau):
    """prox of |.| and of |. - 1| componentwise."""
    prox1 = lambda v: soft_threshold(v, tau)
    prox2 = lambda v: 1.0 + soft_threshold(v - 1.0, tau)
    return prox1, prox2


def run_reduced(oracle, assemble, w0, cfg, iters):
    """Drive the reduced step with the shared outer loop, recording w^0 .. w^K."""

    def step(k, state):
        w, u_tilde, rec = reduced_hpe_run(oracle, assemble, k, state[1], cfg)
        return (u_tilde, w), rec

    trace, _ = iterate(step, (None, np.array(w0, dtype=float)), iters,
                       record=lambda state: state[1], sigma=cfg.sigma)
    return trace


class TestErrorCheck:
    """The acceptance test lhs <= sigma * rhs + accept_atol * scale of `certify`."""

    def test_exact_decoupling_accepted_any_sigma(self):
        # integer-valued vectors keep the residual z + s - w bitwise zero, as in
        # the exact-arithmetic statement, so even the strict test accepts
        rng = np.random.default_rng(9)
        w = rng.integers(-5, 5, size=6).astype(float)
        s = rng.integers(-5, 5, size=6).astype(float)
        oracle = ExactProxOracle(lambda target: s, 1.0)  # witness w - s
        for sigma in (0.0, 0.5, 0.99):
            cfg = HpeConfig(sigma=sigma, accept_atol=0.0)
            w_next, _, rec = reduced_hpe_run(oracle, decoupled, 0, w, cfg)
            assert rec.inner == 0
            assert rec.lhs == 0.0
            np.testing.assert_array_equal(w_next, s)

    def test_near_exact_decoupling_accepted_positive_sigma(self):
        rng = np.random.default_rng(3)
        w, s = rng.standard_normal((2, 6))
        _, _, rec = reduced_hpe_run(ExactProxOracle(lambda target: s, 1.0), decoupled, 0, w,
                                    HpeConfig(sigma=0.5, accept_atol=0.0))
        assert rec.inner == 0
        assert rec.lhs <= 1e-14 * max(1.0, rec.rhs)

    def test_fixed_point_zero_over_zero_accepted(self):
        w = np.array([0.3, -1.2])
        w_next, _, rec = reduced_hpe_run(ExactProxOracle(lambda target: target, 1.0),
                                         decoupled, 0, w, HpeConfig(sigma=0.0, accept_atol=0.0))
        assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.inner == 0
        np.testing.assert_array_equal(w_next, w)

    def test_sigma_zero_rejects_inexact_witness(self):
        # without a rounding floor any positive lhs is refined until it vanishes
        class Countdown:
            def set_target(self, target):
                self.c = target
                return self.c, None

            def refine(self):
                self.c -= 1
                return self.c, None

        cfg = HpeConfig(sigma=0.0, accept_atol=0.0)
        candidate, lhs, rhs, inner, atol = certify(
            cfg, Countdown(), 3, lambda c, _: c, lambda c: (float(c), 1.0), 1.0, 0, "demo")
        assert (candidate, lhs, rhs, inner, atol) == (0, 0.0, 1.0, 3, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_check_raises_at_once(self, bad):
        oracle = ProxPathOracle(lambda v: v, 1.0)
        with pytest.raises(NumericalError,
                           match=rf"demo: iteration 7 check is not finite \(lhs=1.0, rhs={bad}\)"):
            certify(HpeConfig(sigma=0.5), oracle, np.ones(2), lambda x, a: x,
                    lambda x: (1.0, bad), 1.0, 7, "demo")
        assert oracle.p is not None and not oracle.p.any()  # never refined

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HpeConfig(inner_cap=0)
        with pytest.raises(ValueError):
            HpeConfig(accept_atol=-1e-14)


class TestReducedRun:
    def test_sigma_zero_matches_reduced_ppp(self):
        tau = 0.8
        prox1, prox2 = toy_proxes(tau)
        cfg = HpeConfig(sigma=0.0)
        w0 = np.array([2.0, -1.0])
        trace = run_reduced(ExactProxOracle(prox1, tau), dr_assemble(prox2, tau), w0, cfg, 25)

        w = w0.copy()
        for k in range(25):
            x1 = prox1(w)
            x2 = prox2(2 * x1 - w)
            w_next = w + x2 - x1  # reduced proximal iteration, spelled directly
            np.testing.assert_allclose(trace.iterates[k + 1], w_next, atol=1e-14)
            w = w_next

    def test_fixed_point_stays_put(self):
        tau = 1.0
        prox1, prox2 = toy_proxes(tau)
        w_star = classical_dr(prox1, prox2, tau, np.array([0.7, 0.7]), 400)
        cfg = HpeConfig(sigma=0.0)
        trace = run_reduced(ExactProxOracle(prox1, tau), dr_assemble(prox2, tau), w_star,
                            cfg, 10)
        for w_k in trace.iterates:
            np.testing.assert_allclose(w_k, w_star, atol=1e-10)
        assert max(trace.seminorm_residual) <= 1e-10

    def test_converges_to_dr_fixed_point(self):
        tau = 1.0
        w0 = np.array([1.3, -0.4])
        prox1, prox2 = toy_proxes(tau)
        w_star = classical_dr(prox1, prox2, tau, w0, 200)  # exact DR oracle
        cfg = HpeConfig(sigma=0.0)
        trace = run_reduced(ExactProxOracle(prox1, tau), dr_assemble(prox2, tau), w0, cfg, 200)
        assert np.linalg.norm(trace.iterates[-1] - w_star) <= 1e-8
        assert trace.seminorm_residual[-1] <= 1e-8

    def test_certification_failure_names_iteration(self):
        # at rate 1 a refinement leaves the oracle's point, so lhs = ||p - w||, unchanged
        prox1, prox2 = toy_proxes(1.0)
        oracle = ProxPathOracle(prox1, 1.0, rate=1.0)
        cfg = HpeConfig(sigma=0.0, inner_cap=5)
        with pytest.raises(CertificationError) as err:
            run_reduced(oracle, dr_assemble(prox2, 1.0), np.ones(3), cfg, 2)
        assert err.value.iteration == 0

    def test_empty_run(self):
        prox1, prox2 = toy_proxes(1.0)
        trace = run_reduced(ExactProxOracle(prox1, 1.0), dr_assemble(prox2, 1.0), np.zeros(2),
                            HpeConfig(), 0)
        assert len(trace) == 0
        assert len(trace.iterates) == 1


class TestIterate:
    def test_non_finite_objective_names_method_and_iteration(self):
        def step(k, state):
            x = state[0] * np.nan if k == 2 else state[0] + 1.0
            return (x,), StepRecord()

        with pytest.raises(NumericalError, match="nan-step: objective nan at iteration 2"):
            iterate(step, (np.zeros(3),), 5, objective=lambda X: X.sum(axis=1),
                    method="nan-step")

    @pytest.mark.parametrize("objective", [lambda X: float(X.sum()), lambda X: X.sum(axis=0)])
    def test_objective_must_give_one_value_per_row(self, objective):
        with pytest.raises(ValueError, match="per-row: objective gave shape .* for a block of "
                                             "5 rows; it must return one value per row"):
            iterate(walk, (np.zeros(4),), 5, objective=objective, method="per-row")


def walk(k, state):
    """A deterministic outer step whose primal point moves every iteration."""
    x = np.cos(state[0] + k)
    return (x,), StepRecord()


class BlockObjective:
    """An objective that takes blocks and records the shape of every call."""

    def __init__(self, nan_at=None):
        self.shapes = []
        self.nan_at = nan_at
        self.seen = 0

    def __call__(self, X):
        self.shapes.append(X.shape)
        values = np.sum(X * X, axis=1)
        rows = np.arange(self.seen, self.seen + len(X))
        values[rows == self.nan_at] = np.nan
        self.seen += len(X)
        return values


class TestIterateBlocks:
    """`iterate` evaluates the objective per block of `OBJECTIVE_BLOCK` rows."""

    @pytest.mark.parametrize("iters, shapes", [(300, [(256, 4), (44, 4)]), (30, [(30, 4)])])
    def test_blocks_give_the_per_row_values(self, iters, shapes):
        objective = BlockObjective()
        trace, _ = iterate(walk, (np.zeros(4),), iters, objective=objective,
                           record=lambda state: state[0])
        assert OBJECTIVE_BLOCK == 256
        assert objective.shapes == shapes
        per_row = [float(x @ x) for x in trace.iterates[1:]]
        np.testing.assert_allclose(trace.objective, per_row, rtol=1e-14, atol=0)

    def test_instance_objective_in_blocks_matches_per_row(self):
        # wrapped as the benchmark's tracer wraps it
        inst = make_cp_instance(20, 20, seed=3, lam=0.2)
        original = type(inst).objective
        calls = []

        @functools.wraps(original)
        def traced(self, x):
            calls.append(np.shape(x))
            return original(self, x)

        trace, _ = iterate(walk, (np.zeros(20),), 300,
                           objective=traced.__get__(inst), record=lambda state: state[0])
        assert calls == [(256, 20), (44, 20)]
        per_row = [inst.objective(x) for x in trace.iterates[1:]]
        np.testing.assert_allclose(trace.objective, per_row, rtol=1e-14, atol=0)

    def test_no_rows_no_objective(self):
        def never(x):
            raise AssertionError("the objective of an empty run was evaluated")

        trace, _ = iterate(walk, (np.zeros(4),), 0, objective=never)
        assert len(trace) == 0

    def test_non_finite_value_names_its_own_iteration(self):
        objective = BlockObjective(nan_at=260)
        with pytest.raises(NumericalError, match="blocks: objective nan at iteration 260$"):
            iterate(walk, (np.zeros(4),), 300, objective=objective, method="blocks")

    def test_failing_step_reports_the_buffered_non_finite_row_first(self):
        def step(k, state):
            if k == 5:
                raise CertificationError("not certified", iteration=k)
            return walk(k, state)

        with pytest.raises(NumericalError, match="objective nan at iteration 3") as err:
            iterate(step, (np.zeros(4),), 300, objective=BlockObjective(nan_at=3))
        assert isinstance(err.value.__context__, CertificationError)
        with pytest.raises(CertificationError):
            iterate(step, (np.zeros(4),), 300, objective=BlockObjective())


class TestFullReducedConsistency:
    def test_matched_callbacks_give_identical_sequences(self):
        n = 2
        tau = 0.9
        prox1, prox2 = toy_proxes(tau)
        assemble = dr_assemble(prox2, tau)
        cfg = HpeConfig(sigma=0.6)
        w0 = np.array([0.4, 2.0])
        trace = run_reduced(ProxPathOracle(prox1, tau, rate=0.25), assemble, w0, cfg, 40)

        # full-space loop with the check in the seminorm ||u||_M = ||C* u||
        # of M = C C*, and matched callbacks
        C = dr_factor(n)
        seminorm = lambda u: float(np.linalg.norm(C.apply_adjoint_uncounted(u)))
        oracle_f = ProxPathOracle(prox1, tau, rate=0.25)
        u = np.concatenate([w0, np.zeros(n), np.zeros(n)])  # C* u = w0
        for k in range(40):
            w = C.apply_adjoint_uncounted(u)
            u_tilde, z, s = assemble(*oracle_f.set_target(w))
            inner = 0
            while True:
                v = np.concatenate([z, np.zeros(n), np.zeros(n)])  # C* v = z, M v = C z
                full_u_tilde = np.concatenate(u_tilde)
                lhs = seminorm(v + full_u_tilde - u)
                rhs = seminorm(full_u_tilde - u)
                if lhs <= cfg.sigma * rhs:
                    break
                u_tilde, z, s = assemble(*oracle_f.refine())
                inner += 1
                assert inner < 200
            u = u - v
            np.testing.assert_allclose(C.apply_adjoint_uncounted(u), trace.iterates[k + 1],
                                       atol=1e-12)
            assert lhs == pytest.approx(trace.lhs[k], abs=1e-12)
            assert rhs == pytest.approx(trace.rhs[k], abs=1e-12)

    def test_recovered_point_is_zero_of_operator(self):
        tau = 1.0
        prox1, prox2 = toy_proxes(tau)
        cfg = HpeConfig(sigma=0.3)
        trace = run_reduced(ProxPathOracle(prox1, tau, rate=0.5), dr_assemble(prox2, tau),
                            np.array([0.9, -2.0]), cfg, 400)
        w_star = trace.iterates[-1]
        x = prox1(w_star)
        a1 = (w_star - x) / tau
        x2 = prox2(2 * x - w_star)
        a2 = (2 * x - w_star - x2) / tau
        assert np.linalg.norm(x - x2) <= 1e-8
        assert np.linalg.norm(a1 + a2) <= 1e-8  # 0 in (A1 + A2)(x)


class TestAudit:
    def run_toy(self, sigma, iters=60, rate=0.5, w0=(1.7, -0.8)):
        tau = 1.0
        prox1, prox2 = toy_proxes(tau)
        oracle = (ExactProxOracle(prox1, tau) if sigma == 0.0
                  else ProxPathOracle(prox1, tau, rate=rate))
        cfg = HpeConfig(sigma=sigma)
        return run_reduced(oracle, dr_assemble(prox2, tau), np.array(w0), cfg, iters)

    def test_exact_run_residual_equals_step(self):
        trace = self.run_toy(0.0)
        for step, resid in zip(trace.rhs, trace.seminorm_residual):
            assert resid == step

    def test_accepted_trace_passes(self):
        trace = self.run_toy(0.7)
        report = audit_invariants(trace, sigma=0.7)
        assert report.ok, report.failures

    def test_fejer_against_long_reference(self):
        trace = self.run_toy(0.6, iters=80)
        long = self.run_toy(0.6, iters=800)
        w_star = long.iterates[-1]
        d = [float(np.linalg.norm(w - w_star)) for w in trace.iterates]
        report = audit_invariants(trace, sigma=0.6, u_star_seminorms=d)
        assert report.fejer_checked
        assert report.ok, report.failures

    def test_detects_violations(self):
        trace = RunTrace(method="doctored", sigma=0.1)
        trace.append(k=0, objective=1.0, lhs=1.0, rhs=1.0, inner=1, h_apps=0,
                     residual=5.0, wall_ms=0.0)
        report = audit_invariants(trace, sigma=0.1)
        assert not report.ok
        assert any("acceptance" in f for f in report.failures)
        assert any("two-sided" in f for f in report.failures)

    @pytest.mark.parametrize("changes, failure", [
        ({"seminorm_residual": np.nan}, "k=2: two-sided estimate violated"),
        ({"lhs": np.nan}, "k=2: acceptance violated"),
        ({"rhs": np.nan}, "k=2: acceptance violated"),
        ({"accept_tol": np.nan}, "k=2: accept_tol=nan is not finite"),
        ({"accept_tol": np.inf, "lhs": 1e300}, "k=2: accept_tol=inf is not finite"),
    ], ids=["residual-nan", "lhs-nan", "rhs-nan", "accept_tol-nan", "accept_tol-inf"])
    def test_non_finite_row_is_a_violation(self, changes, failure):
        trace = self.run_toy(0.5, iters=6)
        assert audit_invariants(trace, sigma=0.5).ok
        for name, value in changes.items():
            getattr(trace, name)[2] = value
        report = audit_invariants(trace, sigma=0.5)
        assert any(f.startswith(failure) for f in report.failures), report.failures

    @pytest.mark.parametrize("index, failure", [
        (0, "k=0: Fejer inequality violated"),
        (3, "k=2: Fejer inequality violated"),
        (-1, "summability violated"),
    ], ids=["first", "middle", "last"])
    def test_nan_distance_is_a_violation(self, index, failure):
        trace = self.run_toy(0.6, iters=10)
        w_star = self.run_toy(0.6, iters=800).iterates[-1]
        d = [float(np.linalg.norm(w - w_star)) for w in trace.iterates]
        assert audit_invariants(trace, sigma=0.6, u_star_seminorms=d).ok
        d[index] = np.nan
        report = audit_invariants(trace, sigma=0.6, u_star_seminorms=d)
        assert any(f.startswith(failure) for f in report.failures), report.failures

    def test_fejer_length_validation(self):
        trace = self.run_toy(0.5, iters=10)
        with pytest.raises(ValueError):
            audit_invariants(trace, sigma=0.5, u_star_seminorms=[1.0] * 5)

    @pytest.mark.parametrize("sigma, rtol, message", [
        (float("inf"), 1e-9, "sigma must be in"),
        (1.0, 1e-9, "sigma must be in"),
        (-0.1, 1e-9, "sigma must be in"),
        (float("nan"), 1e-9, "sigma must be in"),
        (0.5, float("nan"), "rtol must be finite"),
        (0.5, float("inf"), "rtol must be finite"),
        (0.5, -1.0, "rtol must be finite"),
    ])
    def test_rejects_a_test_that_cannot_fail_or_cannot_pass(self, sigma, rtol, message):
        trace = self.run_toy(0.5, iters=3)
        with pytest.raises(ValueError, match=message):
            audit_invariants(trace, sigma=sigma, rtol=rtol)


class TestConfig:
    def test_sigma_range(self):
        with pytest.raises(ValueError):
            HpeConfig(sigma=1.0)
        with pytest.raises(ValueError):
            HpeConfig(sigma=-0.1)

    def test_trace_rejects_decreasing_counts(self):
        trace = RunTrace()
        trace.append(0, 1.0, 0.0, 0.0, 0, 10, 0.0, 0.0)
        with pytest.raises(ValueError):
            trace.append(1, 1.0, 0.0, 0.0, 0, 5, 0.0, 0.0)
