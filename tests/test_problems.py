import numpy as np
import pytest

from hpesplit.linalg import FirstDifference, estimate_spectral_norm
from hpesplit.problems import (
    gen_illcond_factors,
    gen_signal_and_data,
    haar_orthonormal,
    make_cp_instance,
    make_dy_instance,
    objective_cp,
    objective_dy,
    spectrum,
)


class TestSpectrum:
    def test_endpoints_exact(self):
        for kind in ("cosine", "power5"):
            for count in (2, 10, 200):
                sv = spectrum(kind, count)
                assert sv[0] == 1.0
                assert sv[-1] == 0.0
                assert np.all(np.diff(sv) <= 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            spectrum("linear", 5)


class TestIllcondMatrix:
    def test_two_by_two_cosine_is_rank_one(self):
        H = gen_illcond_factors(2, 2, kind="cosine", seed=0)[0]
        sv = np.linalg.svd(H.as_matrix(), compute_uv=False)
        np.testing.assert_allclose(sv, [1.0, 0.0], atol=1e-14)
        assert np.linalg.matrix_rank(H.as_matrix(), tol=1e-12) == 1

    def test_spectrum_fidelity_desk_scale(self):
        m = 200
        H = gen_illcond_factors(m, m, kind="cosine", seed=3)[0]
        sv = np.linalg.svd(H.as_matrix(), compute_uv=False)  # dense SVD oracle
        requested = spectrum("cosine", m)
        assert np.max(np.abs(sv[:-1] - requested[:-1])) <= 1e-10
        assert sv[-1] <= 1e-12

    def test_power5_rectangular(self):
        H = gen_illcond_factors(50, 200, kind="power5", seed=1)[0]
        sv = np.linalg.svd(H.as_matrix(), compute_uv=False)
        requested = spectrum("power5", 50)
        assert np.max(np.abs(sv[:-1] - requested[:-1])) <= 1e-10

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(7)
        for n in (5, 60):
            Q = haar_orthonormal(n, rng)
            assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-12

    def test_deterministic_per_seed(self):
        A = gen_illcond_factors(30, 40, kind="cosine", seed=11)[0]
        B = gen_illcond_factors(30, 40, kind="cosine", seed=11)[0]
        np.testing.assert_array_equal(A.as_matrix(), B.as_matrix())
        C = gen_illcond_factors(30, 40, kind="cosine", seed=12)[0]
        assert not np.array_equal(A.as_matrix(), C.as_matrix())

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            gen_illcond_factors(1, 5)[0]


class TestGramFactor:
    @pytest.mark.parametrize("m, n, kind", [(20, 20, "cosine"), (50, 200, "power5")])
    def test_factor_reproduces_gram(self, m, n, kind):
        H, gram = gen_illcond_factors(m, n, kind=kind, seed=4)
        k = min(m, n)
        assert gram.V.shape == (n, k) and gram.V.flags.c_contiguous
        assert not gram.V.flags.writeable and not gram.s.flags.writeable
        np.testing.assert_array_equal(gram.s, spectrum(kind, k))
        assert np.max(np.abs(gram.V.T @ gram.V - np.eye(k))) <= 1e-12
        Hm = H.as_matrix()
        gram_matrix = Hm.T @ Hm
        rebuilt = (gram.V * gram.s ** 2) @ gram.V.T
        assert np.linalg.norm(rebuilt - gram_matrix) <= 1e-12 * np.linalg.norm(gram_matrix)

    @pytest.mark.parametrize("m, n, kind", [(20, 20, "cosine"), (50, 200, "power5")])
    @pytest.mark.parametrize("tau", [0.05, 5.0, 50.0])
    def test_closed_form_resolvent_solves_the_system(self, m, n, kind, tau):
        H, gram = gen_illcond_factors(m, n, kind=kind, seed=5)
        b = np.random.default_rng(6).standard_normal(n)
        x = gram.resolvent(tau)(b)
        Hm = H.as_matrix()
        residual = b - (x + tau * Hm.T @ (Hm @ x))
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("m, n, kind", [(200, 200, "cosine"), (100, 400, "power5")])
    def test_norm_from_the_top_vector(self, m, n, kind, monkeypatch):
        H, gram = gen_illcond_factors(m, n, kind=kind, seed=0)
        calls = []
        original = H.apply_uncounted
        monkeypatch.setattr(H, "apply_uncounted", lambda x: calls.append(1) or original(x))
        est = estimate_spectral_norm(H, start=gram.top_right_singular_vector())
        assert est == pytest.approx(max(gram.s), rel=1e-12)
        assert len(calls) <= 3

    def test_instances_carry_the_factor(self):
        inst = make_dy_instance(30, 30, seed=2, lam1=0.01, lam2=0.1, delta=0.01)
        _, gram = gen_illcond_factors(30, 30, seed=2)
        np.testing.assert_array_equal(inst.gram.V, gram.V)
        assert inst.fresh().gram is inst.gram


class TestDiffMatrix:
    def test_definition(self):
        D = FirstDifference(3)
        np.testing.assert_allclose(D.apply(np.array([1.0, 2.0, 4.0])), [1.0, 2.0])

    def test_constants_in_kernel(self):
        D = FirstDifference(17)
        np.testing.assert_allclose(D.apply(np.full(17, 3.7)), 0.0, atol=1e-14)

    def test_spectral_norm_matches_svd(self):
        n = 100
        D = FirstDifference(n)
        exact = np.linalg.svd(D.as_matrix(), compute_uv=False)[0]  # dense SVD oracle
        analytic = 2 * np.sin(np.pi * (n - 1) / (2 * n))
        assert exact == pytest.approx(analytic, rel=1e-12)
        assert exact < 2.0
        est = estimate_spectral_norm(D, tol=1e-10, max_iter=60000)
        assert est == pytest.approx(exact, rel=1e-5)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            FirstDifference(1)


class TestSignalAndData:
    def test_zero_noise_exact_data(self):
        H = gen_illcond_factors(20, 20, seed=2)[0]
        x_true, f, used = gen_signal_and_data(H, seed=5, noise_std=0.0)
        np.testing.assert_array_equal(f, H.apply_uncounted(x_true))
        assert used == 0.0

    def test_seeded_repeatability(self):
        H = gen_illcond_factors(25, 25, seed=4)[0]
        a = gen_signal_and_data(H, seed=9)
        b = gen_signal_and_data(H, seed=9)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_default_noise_scale(self):
        H = gen_illcond_factors(30, 30, seed=6)[0]
        x_true, _, used = gen_signal_and_data(H, seed=7)
        clean = H.apply_uncounted(x_true)
        assert used == pytest.approx(0.05 * np.max(np.abs(clean)))

    def test_sparsity_zeroes_segments(self):
        H = gen_illcond_factors(60, 60, seed=8)[0]
        x_true, _, _ = gen_signal_and_data(H, seed=3, sparsity=1.0)
        np.testing.assert_array_equal(x_true, 0.0)


class TestObjectives:
    def setup_method(self):
        self.inst = make_cp_instance(12, 12, seed=1, lam=0.3, noise_std=0.0)

    def test_cp_at_zero(self):
        val = objective_cp(self.inst.H, self.inst.f, self.inst.D, 0.3, np.zeros(12))
        assert val == pytest.approx(0.5 * np.linalg.norm(self.inst.f) ** 2)

    def test_cp_at_truth_noiseless(self):
        inst = self.inst
        val = objective_cp(inst.H, inst.f, inst.D, 0.3, inst.x_true)
        tv = np.abs(inst.D.apply_uncounted(inst.x_true)).sum()
        assert val == pytest.approx(0.3 * tv, abs=1e-12)

    def test_cp_minimizer_is_local_grid_minimum(self):
        from hpesplit.methods import CpParams, implicit_cp_run

        inst = make_cp_instance(5, 5, seed=2, lam=0.1)
        res = implicit_cp_run(inst.H, inst.f, inst.D, 0.1, CpParams.from_kappa(0.5),
                              np.zeros(5), np.zeros(4), 3000, cg_tol=1e-12)
        x_star = res.final_x
        base = inst.objective(x_star)
        rng = np.random.default_rng(0)
        for _ in range(200):
            direction = rng.standard_normal(5)
            direction /= np.linalg.norm(direction)
            for h in (1e-3, 1e-2):
                assert inst.objective(x_star + h * direction) >= base - 1e-9

    def test_dy_at_zero(self):
        inst = make_dy_instance(10, 10, seed=3, lam1=0.05, lam2=0.1, delta=0.05)
        val = objective_dy(inst.H, inst.f, inst.D, 0.05, 0.1, 0.05, np.zeros(10))
        assert val == pytest.approx(0.5 * np.linalg.norm(inst.f) ** 2)

    def test_dy_huber_inner_branch_quadratic(self):
        inst = make_dy_instance(10, 10, seed=3, lam1=0.0, lam2=0.2, delta=10.0)
        x = np.linspace(0, 1, 10)
        dx = inst.D.apply_uncounted(x)
        assert np.max(np.abs(dx)) <= 10.0
        val = objective_dy(inst.H, inst.f, inst.D, 0.0, 0.2, 10.0, x)
        expected = 0.5 * np.linalg.norm(inst.H.apply_uncounted(x) - inst.f) ** 2 \
            + 0.1 * np.linalg.norm(dx) ** 2
        assert val == pytest.approx(expected, rel=1e-12)

    def test_dy_smooth_part_gradient_finite_differences(self):
        from hpesplit.operators import huber_gradient

        inst = make_dy_instance(8, 8, seed=4, lam1=0.0, lam2=0.3, delta=0.1)
        H, f, D = inst.H, inst.f, inst.D
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8)
        grad = H.apply_adjoint_uncounted(H.apply_uncounted(x) - f) \
            + 0.3 * D.apply_adjoint_uncounted(huber_gradient(D.apply_uncounted(x), 0.1))
        h = 1e-6
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd = (objective_dy(H, f, D, 0.0, 0.3, 0.1, x + e)
                  - objective_dy(H, f, D, 0.0, 0.3, 0.1, x - e)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


class TestProblemInstance:
    def test_fresh_zeroes_counters(self):
        inst = make_cp_instance(8, 8, seed=7, lam=0.5)
        inst.H.apply(np.zeros(8))
        clone = inst.fresh()
        assert clone.H.total_count == 0
        assert inst.H.total_count == 1


def block_instances():
    """CP, and DY with and without the Huber term, at the 200 x 200 and 100 x 400 shapes."""
    for m, n in ((200, 200), (100, 400)):
        yield make_cp_instance(m, n, seed=5, lam=0.3)
        yield make_dy_instance(m, n, seed=5, lam1=0.05, lam2=0.1, delta=0.05)
        yield make_dy_instance(m, n, seed=5, lam1=0.05, lam2=0.0, delta=0.05)


class TestBlockObjective:
    """`ProblemInstance.objective` on a (rows, n) block, as `hpe.iterate` calls it."""

    @pytest.mark.parametrize("inst", list(block_instances()),
                             ids=lambda inst: f"{sorted(inst.params)}-{inst.m}x{inst.n}"
                             f"-lam2={inst.params.get('lam2')}")
    def test_block_matches_rows(self, inst):
        X = np.random.default_rng(inst.n).standard_normal((7, inst.n))
        values = inst.objective(X)
        rows = [inst.objective(x) for x in X]
        assert values.shape == (7,)
        np.testing.assert_allclose(values, rows, rtol=1e-14, atol=0)
        np.testing.assert_allclose(inst.objective(X[2:3]), rows[2:3], rtol=1e-14, atol=0)
        assert (inst.H.total_count, inst.D.total_count) == (0, 0)

    def test_vector_objective_unchanged(self):
        # the 1-d values, spelled as before blocks existed, to the last bit
        rng = np.random.default_rng(11)
        cp = make_cp_instance(30, 40, seed=1, lam=0.3)
        dy = make_dy_instance(30, 40, seed=1, lam1=0.05, lam2=0.1, delta=0.05)
        for _ in range(5):
            x = rng.standard_normal(40)
            r = cp.H.apply_uncounted(x) - cp.f
            old = 0.5 * float(r @ r) + 0.3 * float(np.abs(cp.D.apply_uncounted(x)).sum())
            assert type(cp.objective(x)) is float and cp.objective(x) == old
            r = dy.H.apply_uncounted(x) - dy.f
            y = dy.D.apply_uncounted(x)
            a = np.abs(y)
            huber = float(np.sum(np.where(a <= 0.05, 0.5 * y * y, 0.05 * (a - 0.025))))
            old = 0.5 * float(r @ r) + 0.05 * float(np.abs(x).sum()) + 0.1 * huber
            assert type(dy.objective(x)) is float and dy.objective(x) == old

