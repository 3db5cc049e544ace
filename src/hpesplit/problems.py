"""Seeded problem generators for the two benchmark families, plus objectives.

Both experiment families reconstruct a piecewise-constant signal from data
f = H x_true + noise through an ill-conditioned H = U diag(s) V^T whose
singular values follow a prescribed decay ("cosine" or "power5", both ending
in an exact zero).  Generation is deterministic per seed (PCG64 via
numpy.random.default_rng).
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import FirstDifference, LinearMap
from .operators import huber_value

SPECTRUM_KINDS = ("cosine", "power5")


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


def gen_illcond_matrix(m, n, kind="cosine", seed=0):
    """Random m x n matrix with prescribed singular value decay, deterministic per seed.

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
    return LinearMap(H, name=f"H-{kind}-{m}x{n}")


def gen_diff_matrix(n):
    """(n-1) x n first-difference map; annihilates constants and has norm < 2."""
    return FirstDifference(n)


def gen_signal_and_data(H, seed, jumps=10, sparsity=0.5, noise_std=None):
    """Piecewise-constant ground truth and noisy data f = H x_true + noise.

    ``jumps`` interior breakpoints split the signal into segments with Gaussian
    levels; a ``sparsity`` fraction of the segments is zeroed.  When
    ``noise_std`` is None it defaults to 0.05 * ||H x_true||_inf.  Returns
    (x_true, f, noise_std_used).
    """
    if noise_std is not None and noise_std < 0:
        raise ValueError(f"noise_std must be nonnegative, got {noise_std}")
    rng = np.random.default_rng(seed)
    n = H.cols
    jumps = min(jumps, n - 1)
    if jumps > 0:
        breaks = np.sort(rng.choice(np.arange(1, n), size=jumps, replace=False))
    else:
        breaks = np.array([], dtype=int)
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


def objective_cp(H, f, D, lam, x):
    """0.5 ||H x - f||^2 + lam * ||D x||_1 (uncounted applications)."""
    r = H.apply_uncounted(x) - f
    return 0.5 * float(r @ r) + lam * float(np.abs(D.apply_uncounted(x)).sum())


def objective_dy(H, f, D, lam1, lam2, delta, x):
    """0.5 ||H x - f||^2 + lam1 ||x||_1 + lam2 * huber(D x) (uncounted applications)."""
    r = H.apply_uncounted(x) - f
    val = 0.5 * float(r @ r) + lam1 * float(np.abs(x).sum())
    if lam2:
        val += lam2 * huber_value(D.apply_uncounted(x), delta)
    return val


@dataclass
class ProblemInstance:
    """One generated benchmark instance: operators, data, truth and objective weights."""

    H: LinearMap
    D: LinearMap
    f: np.ndarray
    x_true: np.ndarray
    params: dict

    @property
    def m(self):
        return self.H.rows

    @property
    def n(self):
        return self.H.cols

    def objective(self, x):
        if "lam" in self.params:
            return objective_cp(self.H, self.f, self.D, self.params["lam"], x)
        return objective_dy(self.H, self.f, self.D, self.params["lam1"],
                            self.params["lam2"], self.params["delta"], x)

    def fresh(self):
        """Same instance with zeroed operator counters (one per method run)."""
        return replace(self, H=self.H.fresh(), D=self.D.fresh())


def make_cp_instance(m, n, seed, lam, kind="cosine", sparsity=0.5, noise_std=None):
    """Instance of the data-fit plus total-variation family."""
    H = gen_illcond_matrix(m, n, kind=kind, seed=seed)
    x_true, f, _ = gen_signal_and_data(H, seed + 1, sparsity=sparsity, noise_std=noise_std)
    return ProblemInstance(H, gen_diff_matrix(n), f, x_true, {"lam": lam})


def make_dy_instance(m, n, seed, lam1, lam2, delta, kind="cosine", sparsity=0.0,
                     noise_std=None):
    """Instance of the sparse plus smoothed-total-variation family."""
    H = gen_illcond_matrix(m, n, kind=kind, seed=seed)
    x_true, f, _ = gen_signal_and_data(H, seed + 1, sparsity=sparsity, noise_std=noise_std)
    return ProblemInstance(H, gen_diff_matrix(n), f, x_true,
                           {"lam1": lam1, "lam2": lam2, "delta": delta})
