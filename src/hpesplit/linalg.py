"""Linear algebra: counted linear maps, conjugate gradients, norm estimation."""

import copy
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np


class NumericalError(RuntimeError):
    """Raised when an iterative routine meets non-finite values or exhausts its budget."""


class LinearMap:
    """Linear operator with forward/adjoint application counters; the dense map.

    This class is the one operator protocol. It owns the shape, the length
    checks and the counters, and applies the map through two hooks, `_forward`
    and `_adjoint`; a structured map such as `FirstDifference` overrides the
    hooks and `as_matrix`. The dense map's matrix is frozen at construction;
    only the counters mutate. Counters measure algorithmic work (exactly one
    increment per application), which is the cost metric the benchmark harness
    compares. Instrumentation such as objective evaluation should go through
    the ``*_uncounted`` variants so it does not distort that comparison. Only
    they also take a (k, cols) block of points, one per row, and return one
    product per row; the dense map computes a block as one GEMM.
    """

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError(f"LinearMap needs a 2-d matrix, got shape {mat.shape}")
        mat.setflags(write=False)
        self._mat = mat
        self._init(mat.shape)

    def _init(self, shape):
        """The state every map has: its shape and zeroed counters."""
        self.shape = shape
        self.forward_count = 0
        self.adjoint_count = 0

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @property
    def rows(self):
        return self.shape[0]

    @property
    def cols(self):
        return self.shape[1]

    @property
    def total_count(self):
        return self.forward_count + self.adjoint_count

    def as_matrix(self):
        """Read-only view of the underlying dense matrix."""
        return self._mat

    def fresh(self):
        """Same map (sharing any stored matrix) with zeroed counters."""
        clone = copy.copy(self)
        clone.forward_count = 0
        clone.adjoint_count = 0
        return clone

    def _forward(self, x):
        return self._mat @ x if x.ndim == 1 else x @ self._mat.T

    def _adjoint(self, y):
        return self._mat.T @ y if y.ndim == 1 else y @ self._mat

    def _check_dim(self, x, expected, kind, block=False):
        """``x`` as floats, if it is a vector of length ``expected`` or, when
        ``block`` is set, a 2-d block of such vectors as rows."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (expected,) or x.ndim > (2 if block else 1):
            rows = " (or a block of rows)" if block else ""
            raise ValueError(f"{kind} application of {self.shape} map needs a vector"
                             f"{rows} of length {expected}, got shape {x.shape}")
        return x

    def apply(self, x):
        x = self._check_dim(x, self.cols, "forward")
        self.forward_count += 1
        return self._forward(x)

    def apply_adjoint(self, y):
        y = self._check_dim(y, self.rows, "adjoint")
        self.adjoint_count += 1
        return self._adjoint(y)

    def apply_uncounted(self, x):
        return self._forward(self._check_dim(x, self.cols, "forward", block=True))

    def apply_adjoint_uncounted(self, y):
        return self._adjoint(self._check_dim(y, self.rows, "adjoint", block=True))


class FirstDifference(LinearMap):
    """The (n-1) x n first difference (D x)_i = x_{i+1} - x_i, applied without a matrix.

    Each product touches O(n) entries instead of a dense matrix's n^2 and
    matches the dense product: every entry is one subtraction of two inputs,
    to which the dense sum adds only exact zeros.
    """

    def __init__(self, n):
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        self._init((n - 1, n))

    def as_matrix(self):
        """The dense matrix, built on each call and read-only like a dense map's."""
        mat = np.zeros(self.shape)
        idx = np.arange(self.rows)
        mat[idx, idx] = -1.0
        mat[idx, idx + 1] = 1.0
        mat.setflags(write=False)
        return mat

    def top_right_singular_vector(self):
        """The unit v with D^T D v = 4 cos^2(pi / (2n)) v, the top eigenvalue of the
        path Laplacian D^T D: the DCT-II vector (-1)^j sin(pi (j + 1/2) / n)
        (Strang, "The Discrete Cosine Transform", SIAM Review 1999)."""
        j = np.arange(self.cols)
        v = np.where(j % 2, -1.0, 1.0) * np.sin(np.pi * (j + 0.5) / self.cols)
        return v / np.linalg.norm(v)

    def _forward(self, x):
        return x[..., 1:] - x[..., :-1]

    def _adjoint(self, y):
        out = np.empty(y.shape[:-1] + (self.cols,))
        out[..., 0] = -y[..., 0]
        out[..., 1:-1] = y[..., :-1] - y[..., 1:]
        out[..., -1] = y[..., -1]
        return out


@dataclass(frozen=True)
class StoppingRule:
    """Stopping control for inner iterations; either configured criterion firing stops.

    ``tol`` is a relative residual threshold ||b - A x|| / ||b|| (absolute when
    ||b|| = 0).  ``cap`` bounds the step count.
    """

    tol: Optional[float] = None
    cap: Optional[int] = None

    def __post_init__(self):
        if self.tol is None and self.cap is None:
            raise ValueError("StoppingRule needs at least one criterion")
        if self.tol is not None and not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.cap is not None and not self.cap >= 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")

    @classmethod
    def relative_residual(cls, tol, cap=None):
        return cls(tol=tol, cap=cap)


def vector_norm(v):
    """||v|| of a 1-d float vector as a Python float: sqrt(v @ v), the same bits
    as np.linalg.norm(v) without its overhead."""
    return math.sqrt(float(v @ v))


def cg_steps(x, r, *, apply=None, curvature=None, residual=None):
    """Conjugate gradients from ``x`` with residual ``r = b - A x``; each ``next()``
    takes one step and yields ``(x, ||r||^2)``. Ends once the residual is exactly
    zero or the curvature is not positive. The system operator enters one of two
    ways:

    - ``apply`` (``v -> A v``): the residual is updated by the recurrence
      ``r - alpha A p``.
    - ``curvature`` (``p -> p^T A p``) with ``residual`` (``x -> b - A x``): the
      residual is recomputed as ``residual(x)`` at every new iterate (residual
      replacement), so CG needs ``A p`` only through its curvature.
      `LsqResolvent` steps this way, keeping its witness exact and paying one
      ``H`` product for the curvature in CGLS form.
    """
    rs = float(r @ r)
    if not math.isfinite(rs):
        raise NumericalError("non-finite residual at CG start")
    p = r
    k = 0
    while rs != 0.0:
        if residual is None:
            ap = apply(p)
            pap = float(p @ ap)
        else:
            pap = float(curvature(p))
        if not math.isfinite(pap):
            raise NumericalError(f"non-finite curvature at CG step {k}")
        if pap <= 0.0:
            # PSD operator with b in range: zero curvature means convergence
            # in exact arithmetic; stop rather than divide by ~0.
            return
        alpha = rs / pap
        x = x + alpha * p
        r = r - alpha * ap if residual is None else residual(x)
        rs_new = float(r @ r)
        if not math.isfinite(rs_new):
            raise NumericalError(f"non-finite residual at CG step {k}")
        k += 1
        yield x, rs_new
        p = r + (rs_new / rs) * p
        rs = rs_new


def cg_solve(apply, b, x0=None, *, stop):
    """Conjugate gradients for A x = b, with ``apply(v) -> A v`` matrix-free (A
    SPD, or PSD with b in its range), from the warm start ``x0`` (zeros when
    omitted) until the `StoppingRule` ``stop`` fires: its residual tolerance or
    its cap, whichever first. Returns (x, iterations): the iterate at stop time
    and the number of CG steps taken."""
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    if x.shape != b.shape:
        raise ValueError(f"x0 shape {x.shape} does not match b shape {b.shape}")

    b_norm = vector_norm(b)
    threshold = None
    if stop.tol is not None:
        threshold = stop.tol * b_norm if b_norm > 0 else stop.tol

    r = b - apply(x)
    if r.shape != b.shape:
        raise ValueError("apply(x) shape does not match b")
    k = 0
    if threshold is not None and vector_norm(r) <= threshold:
        return x, k
    for x, rs in cg_steps(x, r, apply=apply):
        k += 1
        if k == stop.cap or (threshold is not None and math.sqrt(rs) <= threshold):
            break
    return x, k


def estimate_spectral_norm(op, tol=1e-6, max_iter=1000, start=None):
    """Estimate ||op|| by power iteration on op^T op, from a normalized copy of
    ``start`` or, without one, from a Gaussian draw (seed 0).

    The estimate is a lower bound in exact arithmetic. It approaches ||op||
    from any start with a component along a top right singular vector (slowly
    when the top singular values cluster) and reaches it in two iterations
    from a start at one. Uses uncounted applications so that setup work does
    not pollute the benchmark counters. Rejects a bad ``tol``, ``max_iter`` or
    ``start`` before any product, and raises `NumericalError` naming the
    iteration whose product is not finite. Warns and returns the best estimate
    if ``max_iter`` is exhausted before two consecutive estimates agree to
    relative ``tol``.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if start is None:
        v = np.random.default_rng(0).standard_normal(op.cols)
        nv = np.linalg.norm(v)
        if nv == 0:
            return 0.0
    else:
        v = np.array(start, dtype=float)
        if v.shape != (op.cols,):
            raise ValueError(f"start for a {op.shape} map needs shape ({op.cols},), "
                             f"got {v.shape}")
        nv = np.linalg.norm(v)
        if not 0 < nv < np.inf:
            raise ValueError(f"start must be nonzero and finite, got norm {nv}")
    v /= nv
    est = 0.0
    for k in range(1, max_iter + 1):
        w = op.apply_adjoint_uncounted(op.apply_uncounted(v))
        nw = float(np.linalg.norm(w))
        if not np.isfinite(nw):
            raise NumericalError(f"non-finite product at power iteration {k}")
        if nw == 0.0:
            return 0.0
        new_est = np.sqrt(nw)
        v = w / nw
        if abs(new_est - est) <= tol * new_est:
            return float(new_est)
        est = new_est
    warnings.warn(f"spectral norm estimate did not converge to tol={tol} "
                  f"in {max_iter} iterations; returning best estimate")
    return float(est)
