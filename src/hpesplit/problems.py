"""Seeded problem generators for the two benchmark families, plus objectives.

Both experiment families reconstruct a piecewise-constant signal from data
f = H x_true + noise through an ill-conditioned H = U diag(s) V^T whose
singular values follow a prescribed decay ("cosine" or "power5", both ending
in an exact zero).  Generation is deterministic per seed (PCG64 via
numpy.random.default_rng).  The instance keeps V and the singular values
(`GramFactor`), which give the resolvent of the data term in closed form,
and each family has a Fenchel-dual lower bound on its optimum: fields of its
`Family` record, which holds all that tells the families apart.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .linalg import FirstDifference, LinearMap
from .operators import huber_gradient, huber_value
from .reference import _anderson_dy, _polish_cp, _restarted_cp

SPECTRUM_KINDS = ("cosine", "power5")
# interior breakpoints of the generated piecewise-constant signal
JUMPS = 10


def spectrum(kind, count):
    """Singular values s_1 = 1 >= ... >= s_count = 0 of the requested decay."""
    if count < 2:
        raise ValueError(f"need at least 2 singular values, got {count}")
    i = np.arange(count, dtype=float)
    if kind == "cosine":
        return 0.5 + 0.5 * np.cos(np.pi * i / (count - 1))
    if kind == "power5":
        return (1.0 - i / (count - 1)) ** 5
    raise ValueError(f"unknown spectrum kind {kind!r}, expected one of {SPECTRUM_KINDS}")


def haar_orthonormal(n, rng):
    """Orthonormal matrix from QR of a Gaussian draw, with the sign fix that
    makes the distribution Haar and the output independent of QR conventions."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


@dataclass(frozen=True)
class GramFactor:
    """H^T H = V diag(s^2) V^T for a generated H = U diag(s) V^T.

    ``V`` is n x k with orthonormal columns and ``s`` holds the k singular
    values, k = min(m, n); both are read-only.
    """

    V: np.ndarray
    s: np.ndarray

    def top_right_singular_vector(self):
        """The column of V whose singular value is largest (a read-only view)."""
        return self.V[:, np.argmax(self.s)]

    def resolvent(self, tau):
        """b -> (I + tau H^T H)^{-1} b = b - V((tau s^2 / (1 + tau s^2)) * V^T b),
        two products with V and no iteration."""
        t = tau * self.s ** 2
        weight = t / (1.0 + t)
        V = self.V
        return lambda b: b - V @ (weight * (V.T @ b))


def gen_illcond_factors(m, n, kind="cosine", seed=0):
    """Random m x n map with prescribed singular value decay, deterministic per
    seed, together with the `GramFactor` it was built from.

    The decay formula is indexed over min(m, n) values; for the benchmark
    shapes (m <= n) this is the stated 1 .. m range.  The smallest singular
    value is analytically zero, so assembled-matrix condition numbers reflect
    floating-point rounding (about 4.7e8 at m = n = 2000 for the cosine decay,
    about 2.12e15 at m = 1000, n = 4000 for the power5 decay).
    """
    if m < 2 or n < 2:
        raise ValueError(f"matrix dimensions must be at least 2, got {m} x {n}")
    rng = np.random.default_rng(seed)
    U = haar_orthonormal(m, rng)
    V = haar_orthonormal(n, rng)
    k = min(m, n)
    sv = spectrum(kind, k)
    H = (U[:, :k] * sv) @ V[:, :k].T
    # a copy when k < n, so that the unused columns are freed
    V = np.ascontiguousarray(V[:, :k])
    V.setflags(write=False)
    sv.setflags(write=False)
    return LinearMap(H), GramFactor(V, sv)


def gen_signal_and_data(H, seed, sparsity=0.5, noise_std=None):
    """Piecewise-constant ground truth and noisy data f = H x_true + noise.

    ``JUMPS`` interior breakpoints (at most n - 1) split the signal into
    segments with Gaussian levels; a ``sparsity`` fraction of the segments is
    zeroed.  When ``noise_std`` is None it defaults to 0.05 * ||H x_true||_inf.
    Returns (x_true, f, noise_std_used).
    """
    if noise_std is not None and not noise_std >= 0:
        raise ValueError(f"noise_std must be nonnegative, got {noise_std}")
    rng = np.random.default_rng(seed)
    n = H.cols
    breaks = np.sort(rng.choice(np.arange(1, n), size=min(JUMPS, n - 1), replace=False))
    bounds = np.concatenate([[0], breaks, [n]])
    levels = rng.normal(0.0, 1.0, size=len(bounds) - 1)
    n_zero = int(round(sparsity * levels.size))
    if n_zero > 0:
        levels[rng.choice(levels.size, size=n_zero, replace=False)] = 0.0
    x_true = np.repeat(levels, np.diff(bounds))

    clean = H.apply_uncounted(x_true)
    if noise_std is None:
        noise_std = 0.05 * float(np.max(np.abs(clean))) if np.any(clean) else 0.0
    f = clean + noise_std * rng.standard_normal(H.rows)
    return x_true, f, noise_std


def _data_fit(H, f, x):
    """0.5 ||H x - f||^2, or one value per row of a 2-d block of points."""
    r = H.apply_uncounted(x)
    r -= f
    return 0.5 * float(r @ r) if r.ndim == 1 else 0.5 * np.einsum("ij,ij->i", r, r)


def _per_point(val, x):
    """A float for a single point x, the array of per-row values for a block."""
    return float(val) if np.ndim(x) == 1 else val


def objective_cp(H, f, D, lam, x):
    """0.5 ||H x - f||^2 + lam * ||D x||_1 (uncounted applications). A (rows, n)
    block of points gives one value per row, from one product with H."""
    return _per_point(_data_fit(H, f, x) + lam * np.abs(D.apply_uncounted(x)).sum(axis=-1), x)


def objective_dy(H, f, D, lam1, lam2, delta, x):
    """0.5 ||H x - f||^2 + lam1 ||x||_1 + lam2 * huber(D x) (uncounted applications).
    A (rows, n) block of points gives one value per row, from one product with H."""
    val = _data_fit(H, f, x) + lam1 * np.abs(x).sum(axis=-1)
    if lam2:
        val += lam2 * huber_value(D.apply_uncounted(x), delta)
    return _per_point(val, x)


def _best_scaled_dual(quad, lin, excess, bound):
    """max of -t^2 quad - t lin over t in [0, min(1, bound / excess)]: the dual value
    of a feasible direction scaled into the box its l_inf constraint allows."""
    t_max = min(1.0, bound / excess) if excess > 0 else 1.0
    t = min(max(-lin / (2.0 * quad), 0.0), t_max) if quad > 0 else 0.0
    return -t * t * quad - t * lin


def dual_bound_cp(H, f, D, lam, x):
    """Lower bound on the optimum of `objective_cp`, with D the first difference,
    which is not applied: a cumulative sum inverts D^T.

    By weak duality every (u, y) with H^T u + D^T y = 0 and ||y||_inf <= lam
    gives -0.5 ||u||^2 - <u, f> <= the optimum. The point is built from x:
    u = H x - f less its component along H 1, so that H^T u sums to zero and
    lies in the range of D^T; y solves D^T y = -H^T u by a cumulative sum; and
    (u, y) is scaled by the best t in [0, min(1, lam / ||y||_inf)].
    Uncounted applications.
    """
    u = H.apply_uncounted(x) - f
    h1 = H.apply_uncounted(np.ones(H.cols))
    hh = float(h1 @ h1)
    if hh > 0:
        u = u - (float(h1 @ u) / hh) * h1
    y = np.cumsum(H.apply_adjoint_uncounted(u))[:-1]
    return _best_scaled_dual(0.5 * float(u @ u), float(u @ f),
                             float(np.abs(y).max(initial=0.0)), lam)


def dual_bound_dy(H, f, D, lam1, lam2, delta, x):
    """Lower bound on the optimum of `objective_dy` by weak duality.

    Every (u, v, w) with H^T u + v + D^T w = 0, ||v||_inf <= lam1 and
    |w| <= lam2 * delta gives -0.5 ||u||^2 - <u, f> - ||w||^2 / (2 lam2) <= the
    optimum. The point is built from x: u = H x - f,
    w = lam2 * huber_gradient(D x), v = -(H^T u + D^T w), all three scaled by
    the best t in [0, min(1, lam1 / ||v||_inf)]. Uncounted applications.
    """
    u = H.apply_uncounted(x) - f
    w = lam2 * huber_gradient(D.apply_uncounted(x), delta)
    v = H.apply_adjoint_uncounted(u) + D.apply_adjoint_uncounted(w)
    quad = 0.5 * float(u @ u) + (float(w @ w) / (2.0 * lam2) if lam2 else 0.0)
    return _best_scaled_dual(quad, float(u @ f), float(np.abs(v).max()), lam1)


@dataclass(frozen=True)
class Family:
    """Everything that tells one problem family from the other. `objective` and
    `dual_bound` take ``(H, f, D, *weights, x)``. `reference.reference_run` steps
    `stream`, the step of the implicit baseline `reference`, from the entry fields
    ``entry(p)``, ``polishes`` among them if ``polish(inst, *weights, y)`` is set."""

    weights: tuple   # the weights' names, in the order the family's functions take them
    objective: Callable
    dual_bound: Callable
    reference: str
    stream: Callable
    entry: Callable
    polish: Optional[Callable] = None


CP = Family(weights=("lam",), objective=objective_cp, dual_bound=dual_bound_cp,
            reference="implicit-cp", stream=_restarted_cp, polish=_polish_cp,
            entry=lambda p: {"kappa": p.kappa, "restarts": 0, "polishes": 0})
DY = Family(weights=("lam1", "lam2", "delta"), objective=objective_dy,
            dual_bound=dual_bound_dy, reference="implicit-dy", stream=_anderson_dy,
            entry=lambda p: dict.fromkeys(("plain_steps", "extrapolations", "resets"), 0))


@dataclass
class ProblemInstance:
    """One generated benchmark instance: operators, data, truth, its family, its
    weights by name in ``family.weights`` order, and the Gram factor of H."""

    H: LinearMap
    D: LinearMap
    f: np.ndarray
    x_true: np.ndarray
    family: Family
    params: dict
    gram: GramFactor

    @property
    def m(self):
        return self.H.rows

    @property
    def n(self):
        return self.H.cols

    def objective(self, x):
        """The family's objective at x, or one value per row of a (rows, n) block."""
        return self.family.objective(self.H, self.f, self.D, *self.params.values(), x)

    def lower_bound(self, x):
        """A lower bound on the optimal objective, from a dual point built at x."""
        return self.family.dual_bound(self.H, self.f, self.D, *self.params.values(), x)

    def fresh(self):
        """Same instance with zeroed operator counters (one per method run)."""
        return replace(self, H=self.H.fresh(), D=self.D.fresh())


def _make_instance(family, m, n, seed, weights, kind, sparsity, noise_std):
    H, gram = gen_illcond_factors(m, n, kind=kind, seed=seed)
    x_true, f, _ = gen_signal_and_data(H, seed + 1, sparsity=sparsity, noise_std=noise_std)
    return ProblemInstance(H, FirstDifference(n), f, x_true, family,
                           dict(zip(family.weights, weights)), gram)


def make_cp_instance(m, n, seed, lam, kind="cosine", sparsity=0.5, noise_std=None):
    """Instance of the data-fit plus total-variation family."""
    return _make_instance(CP, m, n, seed, (lam,), kind, sparsity, noise_std)


def make_dy_instance(m, n, seed, lam1, lam2, delta, kind="cosine", sparsity=0.0,
                     noise_std=None):
    """Instance of the sparse plus smoothed-total-variation family."""
    return _make_instance(DY, m, n, seed, (lam1, lam2, delta), kind, sparsity, noise_std)
