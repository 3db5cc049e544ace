from itertools import islice

import numpy as np
import pytest

from hpesplit.linalg import (
    FirstDifference,
    LinearMap,
    NumericalError,
    StoppingRule,
    cg_solve,
    cg_steps,
    estimate_spectral_norm,
)


def count_forward_products(monkeypatch, op):
    """A list that grows by one on each of ``op``'s ``apply_uncounted`` calls."""
    calls = []
    original = op.apply_uncounted
    monkeypatch.setattr(op, "apply_uncounted", lambda x: calls.append(1) or original(x))
    return calls


def first_difference_matrix(n):
    D = np.zeros((n - 1, n))
    for i in range(n - 1):
        D[i, i] = -1.0
        D[i, i + 1] = 1.0
    return D


class TestLinearMap:
    def test_shapes_and_application(self):
        A = LinearMap([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert (A.rows, A.cols) == (2, 3)
        np.testing.assert_allclose(A.apply(np.array([1.0, 0.0, 0.0])), [1.0, 4.0])
        np.testing.assert_allclose(A.apply_adjoint(np.array([1.0, 0.0])), [1.0, 2.0, 3.0])

    def test_adjoint_consistency_random_pairs(self):
        rng = np.random.default_rng(7)
        A = LinearMap(rng.standard_normal((13, 9)))
        for _ in range(100):
            x = rng.standard_normal(9)
            y = rng.standard_normal(13)
            ax = A.apply_uncounted(x)
            aty = A.apply_adjoint_uncounted(y)
            lhs = ax @ y
            rhs = x @ aty
            assert abs(lhs - rhs) <= 1e-12 * (np.linalg.norm(ax) * np.linalg.norm(y) + 1)

    def test_counter_exactness(self):
        # the structured map counts through the same base-class path
        for A in (LinearMap.identity(4), FirstDifference(5)):
            x, y = np.ones(A.cols), np.ones(A.rows)
            for k in range(1, 6):
                A.apply(x)
                assert (A.forward_count, A.adjoint_count) == (k, 0)
            for k in range(1, 4):
                A.apply_adjoint(y)
                assert (A.forward_count, A.adjoint_count) == (5, k)
            assert A.total_count == 8
            A.apply_uncounted(x)
            A.apply_adjoint_uncounted(y)
            assert A.total_count == 8

    def test_fresh_shares_matrix_zero_counters(self):
        A = LinearMap([[2.0]])
        A.apply(np.array([1.0]))
        B = A.fresh()
        assert B.forward_count == 0
        assert B.as_matrix() is A.as_matrix()

    def test_dimension_mismatch(self):
        A = LinearMap(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            A.apply(np.ones(3))
        with pytest.raises(ValueError):
            A.apply_adjoint(np.ones(2))

    @pytest.mark.parametrize("matrix", [np.ones(3), np.ones((2, 2, 2))], ids=["1-d", "3-d"])
    def test_needs_a_2d_matrix(self, matrix):
        with pytest.raises(ValueError, match="LinearMap needs a 2-d matrix, got shape"):
            LinearMap(matrix)

    def test_matrix_frozen(self):
        A = LinearMap.identity(2)
        with pytest.raises(ValueError):
            A.as_matrix()[0, 0] = 5.0


class TestFirstDifference:
    @pytest.mark.parametrize("n", [2, 3, 200, 2000])
    def test_products_equal_the_dense_map(self, n):
        # at n = 2 the adjoint has no interior entries
        D = FirstDifference(n)
        dense = LinearMap(D.as_matrix())
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n - 1)
            assert np.array_equal(D.apply(x), dense.apply(x))
            assert np.array_equal(D.apply_adjoint(y), dense.apply_adjoint(y))
            assert np.array_equal(D.apply_uncounted(x), dense.apply_uncounted(x))
            assert np.array_equal(D.apply_adjoint_uncounted(y), dense.apply_adjoint_uncounted(y))

    def test_fresh_zeroes_counters_and_keeps_type(self):
        D = FirstDifference(6)
        D.apply(np.ones(6))
        D.apply_adjoint(np.ones(5))
        E = D.fresh()
        assert type(E) is FirstDifference
        assert (E.forward_count, E.adjoint_count) == (0, 0)
        assert (D.forward_count, D.adjoint_count) == (1, 1)
        assert E.shape == D.shape
        E.apply(np.ones(6))
        assert (E.forward_count, D.forward_count) == (1, 1)

    def test_matrix_matches_dense_construction_and_is_frozen(self):
        D = FirstDifference(7)
        assert D.shape == (6, 7) and (D.rows, D.cols) == (6, 7)
        np.testing.assert_array_equal(D.as_matrix(), first_difference_matrix(7))
        with pytest.raises(ValueError):
            D.as_matrix()[0, 0] = 5.0

    def test_dimension_mismatch_reads_like_the_dense_map(self):
        D = FirstDifference(4)
        dense = LinearMap(first_difference_matrix(4))
        for apply, v in ((lambda m, v: m.apply(v), np.ones(3)),
                         (lambda m, v: m.apply_adjoint(v), np.ones(4)),
                         (lambda m, v: m.apply_uncounted(v), np.ones(5)),
                         (lambda m, v: m.apply_adjoint_uncounted(v), np.ones(2))):
            with pytest.raises(ValueError) as structured:
                apply(D, v)
            with pytest.raises(ValueError) as reference:
                apply(dense, v)
            assert str(structured.value) == str(reference.value)
        assert D.total_count == 0

    @pytest.mark.parametrize("n", [3, 50, 200])
    def test_norm_estimate_equals_the_dense_one(self, n):
        assert (estimate_spectral_norm(FirstDifference(n))
                == estimate_spectral_norm(LinearMap(first_difference_matrix(n))))

    @pytest.mark.parametrize("n", [2, 3, 200, 2000])
    def test_top_right_singular_vector(self, n):
        D = FirstDifference(n)
        v = D.top_right_singular_vector()
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-15)
        top = 4 * np.cos(np.pi / (2 * n)) ** 2
        gram_v = D.apply_adjoint_uncounted(D.apply_uncounted(v))
        assert np.max(np.abs(gram_v - top * v)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 200, 2000])
    def test_norm_from_the_top_vector(self, n, monkeypatch):
        D = FirstDifference(n)
        calls = count_forward_products(monkeypatch, D)
        est = estimate_spectral_norm(D, start=D.top_right_singular_vector())
        assert est == pytest.approx(2 * np.cos(np.pi / (2 * n)), rel=1e-12)
        assert len(calls) <= 3


class TestBlockProducts:
    """Uncounted products of a (k, cols) block, one product per row."""

    @pytest.mark.parametrize("make", [
        lambda: LinearMap(np.random.default_rng(0).standard_normal((20, 30))),
        lambda: FirstDifference(30)], ids=["dense", "first-difference"])
    def test_block_matches_rows_and_leaves_counters(self, make):
        A = make()
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, A.cols))
        Y = rng.standard_normal((5, A.rows))
        forward, adjoint = A.apply_uncounted(X), A.apply_adjoint_uncounted(Y)
        assert forward.shape == (5, A.rows) and adjoint.shape == (5, A.cols)
        for i in range(5):
            np.testing.assert_allclose(forward[i], A.apply_uncounted(X[i]), rtol=1e-14,
                                       atol=1e-14)
            np.testing.assert_allclose(adjoint[i], A.apply_adjoint_uncounted(Y[i]),
                                       rtol=1e-14, atol=1e-14)
        assert (A.forward_count, A.adjoint_count) == (0, 0)

    def test_counted_products_reject_a_block(self):
        for A in (LinearMap(np.zeros((3, 2))), FirstDifference(3)):
            with pytest.raises(ValueError, match="needs a vector of length"):
                A.apply(np.ones((4, A.cols)))
            with pytest.raises(ValueError, match="needs a vector of length"):
                A.apply_adjoint(np.ones((4, A.rows)))
            assert A.total_count == 0

    def test_block_of_the_wrong_width_or_rank_rejected(self):
        A = LinearMap(np.zeros((3, 2)))
        for bad in (np.ones((4, 3)), np.ones((2, 2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="or a block of rows"):
                A.apply_uncounted(bad)


class TestStoppingRule:
    def test_needs_a_criterion(self):
        with pytest.raises(ValueError):
            StoppingRule()

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            StoppingRule(tol=0.0)
        with pytest.raises(ValueError):
            StoppingRule(tol=-1e-8)

    def test_cap_at_least_one(self):
        with pytest.raises(ValueError):
            StoppingRule(cap=0)


class TestCgSolve:
    def test_identity_one_iteration(self):
        b = np.array([3.0, -1.0, 2.0, 0.5, 4.0])
        x, k = cg_solve(lambda v: v, b, stop=StoppingRule.relative_residual(1e-12))
        np.testing.assert_allclose(x, b)
        assert k == 1

    def test_diagonal_two_iterations(self):
        d = np.array([1.0, 2.0])
        x, k = cg_solve(lambda v: d * v, np.array([1.0, 2.0]),
                        stop=StoppingRule.relative_residual(1e-12))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)
        assert k <= 2

    def test_random_spd_matches_direct_solve(self):
        rng = np.random.default_rng(11)
        G = rng.standard_normal((50, 50))
        A = G @ G.T + 50 * np.eye(50)
        b = rng.standard_normal(50)
        expected = np.linalg.solve(A, b)  # direct factorization oracle
        x, _ = cg_solve(lambda v: A @ v, b, stop=StoppingRule.relative_residual(1e-12, cap=500))
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_energy_norm_error_monotone(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((30, 30))
        A = G @ G.T + 30 * np.eye(30)
        b = rng.standard_normal(30)
        x_star = np.linalg.solve(A, b)

        energies = []
        for k in range(1, 31):
            x, _ = cg_solve(lambda v: A @ v, b, stop=StoppingRule(cap=k))
            e = x - x_star
            energies.append(float(e @ (A @ e)))
        # non-increasing up to rounding noise at the converged floor
        floor = 1e-14 * energies[0]
        for prev, cur in zip(energies, energies[1:]):
            assert cur <= prev * (1 + 1e-12) + floor

    def test_warm_start_already_converged(self):
        b = np.array([1.0, 2.0])
        x, k = cg_solve(lambda v: v, b, x0=b.copy(),
                        stop=StoppingRule.relative_residual(1e-10))
        assert k == 0
        np.testing.assert_allclose(x, b)

    def test_zero_rhs_absolute_residual(self):
        x, k = cg_solve(lambda v: v, np.zeros(4), stop=StoppingRule.relative_residual(1e-10))
        assert k == 0
        np.testing.assert_allclose(x, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cg_solve(lambda v: v, np.ones(3), x0=np.ones(2),
                     stop=StoppingRule.relative_residual(1e-8))

    def test_nonfinite_raises(self):
        with pytest.raises(NumericalError):
            cg_solve(lambda v: v * np.inf, np.ones(3), x0=np.ones(3),
                     stop=StoppingRule.relative_residual(1e-8))

    def test_apply_of_the_wrong_shape_rejected(self):
        # a column for a vector broadcasts against b, so only the shape check catches it
        with pytest.raises(ValueError, match=r"apply\(x\) shape does not match b"):
            cg_solve(lambda v: v[:, None], np.ones(3),
                     stop=StoppingRule.relative_residual(1e-8))

    def test_zero_curvature_stops_without_a_step(self):
        # A = diag(1, 0) with b outside its range: the first direction has zero
        # curvature, so CG stops there instead of dividing by it
        x, k = cg_solve(lambda v: np.array([1.0, 0.0]) * v, np.array([0.0, 1.0]),
                        stop=StoppingRule.relative_residual(1e-8))
        assert k == 0
        np.testing.assert_array_equal(x, 0.0)

    def test_cap_stops(self):
        rng = np.random.default_rng(9)
        G = rng.standard_normal((40, 40))
        A = G @ G.T + 1e-3 * np.eye(40)
        b = rng.standard_normal(40)
        _, k = cg_solve(lambda v: A @ v, b, stop=StoppingRule(tol=1e-16, cap=5))
        assert k == 5


class TestCgSteps:
    def test_zero_residual_yields_nothing(self):
        assert list(cg_steps(np.ones(4), np.zeros(4), apply=lambda v: v)) == []

    def test_nonfinite_start_raises(self):
        r = np.array([1.0, np.nan, 0.0])
        with pytest.raises(NumericalError, match="at CG start"):
            next(cg_steps(np.zeros(3), r, apply=lambda v: v))

    def test_nonfinite_curvature_raises(self):
        with pytest.raises(NumericalError, match="curvature at CG step 0"):
            next(cg_steps(np.zeros(3), np.ones(3), apply=lambda v: v * np.inf))

    def test_nonfinite_curvature_raises_in_curvature_mode(self):
        with pytest.raises(NumericalError, match="curvature at CG step 0"):
            next(cg_steps(np.zeros(3), np.ones(3), curvature=lambda p: np.inf,
                          residual=lambda x: np.ones(3) - x))

    @pytest.mark.parametrize("bad_step", [0, 2])
    def test_nonfinite_replaced_residual_raises_at_its_step(self, bad_step):
        calls = []

        def residual(x):
            calls.append(x)
            return np.full(3, np.nan) if len(calls) > bad_step else np.ones(3) / len(calls)

        steps = cg_steps(np.zeros(3), np.ones(3), curvature=lambda p: float(p @ p),
                         residual=residual)
        with pytest.raises(NumericalError, match=f"non-finite residual at CG step {bad_step}"):
            list(steps)

    def test_replaced_residual_matches_recurrence(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((20, 20))
        A = G @ G.T + 20 * np.eye(20)
        b = rng.standard_normal(20)
        x0 = np.zeros(20)
        recurrence = islice(cg_steps(x0, b - A @ x0, apply=lambda v: A @ v), 10)
        replaced = islice(cg_steps(x0, b - A @ x0, curvature=lambda p: p @ (A @ p),
                                   residual=lambda x: b - A @ x), 10)
        pairs = list(zip(recurrence, replaced))
        assert len(pairs) == 10
        for (x_rec, _), (x_rep, _) in pairs:
            assert np.linalg.norm(x_rep - x_rec) <= 1e-10 * np.linalg.norm(x_rec)

    def test_curvature_mode_matches_apply_mode(self):
        # the resolvent system (I + tau HtH) x = b, SPD, with the curvature in the
        # CGLS form ||p||^2 + tau ||H p||^2 against the product p + tau Ht H p
        rng = np.random.default_rng(8)
        Hm = rng.standard_normal((30, 30)) / np.sqrt(30)
        tau = 0.7
        A = np.eye(30) + tau * Hm.T @ Hm
        b = rng.standard_normal(30)
        x0 = rng.standard_normal(30)

        def curvature(p):
            hp = Hm @ p
            return p @ p + tau * (hp @ hp)

        apply_mode = list(islice(cg_steps(x0, b - A @ x0, apply=lambda v: A @ v), 12))
        curvature_mode = list(islice(cg_steps(x0, b - A @ x0, curvature=curvature,
                                              residual=lambda x: b - A @ x), 12))
        assert len(apply_mode) == len(curvature_mode) == 12
        for (x_app, _), (x_curv, _) in zip(apply_mode, curvature_mode):
            assert np.linalg.norm(x_curv - x_app) <= 1e-12 * np.linalg.norm(x_app)


class TestSpectralNorm:
    def test_identity(self):
        assert estimate_spectral_norm(LinearMap.identity(10), tol=1e-8) == pytest.approx(1.0, rel=1e-6)

    def test_diagonal(self):
        op = LinearMap(np.diag([3.0, 1.0]))
        assert estimate_spectral_norm(op, tol=1e-8) == pytest.approx(3.0, rel=1e-6)

    def test_first_difference_vs_svd(self):
        # top singular values of the difference matrix cluster, so the power
        # iteration needs many steps and a tight change tolerance here
        D = first_difference_matrix(100)
        est = estimate_spectral_norm(LinearMap(D), tol=1e-10, max_iter=60000)
        exact = np.linalg.svd(D, compute_uv=False)[0]  # dense SVD oracle
        assert 0 < est <= 2.0
        assert est == pytest.approx(exact, rel=2e-6)

    def test_zero_map(self):
        assert estimate_spectral_norm(LinearMap(np.zeros((4, 4)))) == 0.0

    def test_unconverged_warns(self):
        op = LinearMap(np.diag([3.0, 1.0]))
        with pytest.warns(UserWarning):
            estimate_spectral_norm(op, tol=1e-8, max_iter=1)

    def test_does_not_touch_counters(self):
        op = LinearMap(np.diag([2.0, 1.0]))
        estimate_spectral_norm(op)
        assert op.total_count == 0

    def test_start_is_copied_and_normalized(self):
        op = LinearMap(np.diag([3.0, 1.0]))
        start = np.array([5.0, 0.0])
        assert estimate_spectral_norm(op, start=start) == 3.0
        np.testing.assert_array_equal(start, [5.0, 0.0])
        start.setflags(write=False)
        assert estimate_spectral_norm(op, start=start) == 3.0

    def test_start_off_the_top_vector_still_converges(self):
        op = LinearMap(np.diag([3.0, 1.0]))
        assert estimate_spectral_norm(op, tol=1e-10, start=[0.1, 1.0]) == pytest.approx(3.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(max_iter=0), "max_iter must be >= 1, got 0"),
        (dict(max_iter=-3), "max_iter must be >= 1, got -3"),
        (dict(start=np.ones(3)), r"start for a \(2, 2\) map needs shape \(2,\), got \(3,\)"),
        (dict(start=np.ones((2, 1))), r"needs shape \(2,\), got \(2, 1\)"),
        (dict(start=np.zeros(2)), "start must be nonzero and finite, got norm 0.0"),
        (dict(start=[np.nan, 1.0]), "start must be nonzero and finite, got norm nan"),
        (dict(start=[np.inf, 1.0]), "start must be nonzero and finite, got norm inf"),
    ], ids=["max_iter-zero", "max_iter-negative", "start-length", "start-2d", "start-zero",
            "start-nan", "start-inf"])
    def test_bad_input_rejected_before_any_product(self, kwargs, message, monkeypatch):
        op = LinearMap(np.diag([2.0, 1.0]))
        calls = count_forward_products(monkeypatch, op)
        with pytest.raises(ValueError, match=message):
            estimate_spectral_norm(op, **kwargs)
        assert calls == []

    @pytest.mark.parametrize("start", [None, [1.0, 0.0]])
    def test_non_finite_product_raises_at_its_iteration(self, start, monkeypatch):
        op = LinearMap(np.array([[1.0, 0.0], [np.nan, 1.0]]))
        calls = count_forward_products(monkeypatch, op)
        with pytest.raises(NumericalError, match="non-finite product at power iteration 1"):
            estimate_spectral_norm(op, start=start)
        assert len(calls) == 1
