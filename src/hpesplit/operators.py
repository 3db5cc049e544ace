"""Proximal building blocks and the refinable resolvent of the least-squares term.

Closed-form resolvents (`soft_threshold`, `clip`), the Huber penalty and its
gradient, and the stateful `LsqResolvent`, which solves the least-squares
resolvent as a sequence of CG improvements so an outer loop can stop it as
soon as a relative-error check passes.
"""

import math

import numpy as np

from .linalg import cg_steps, vector_norm


def soft_threshold(x, eta):
    """Componentwise sign(x) * max(|x| - eta, 0); the prox of eta * ||.||_1."""
    if not eta >= 0:
        raise ValueError(f"threshold must be nonnegative, got {eta}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - eta, 0.0)


def clip(x, lam):
    """Componentwise projection onto [-lam, lam]."""
    if not lam >= 0:
        raise ValueError(f"clip level must be nonnegative, got {lam}")
    return np.minimum(np.maximum(np.asarray(x, dtype=float), -lam), lam)


def huber_value(y, delta):
    """Sum of componentwise Huber penalties: quadratic inside [-delta, delta], linear
    outside. A 2-d block of vectors as rows gives one sum per row."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    a = np.abs(y)
    quad = a <= delta
    # a becomes the linear branch, then takes the quadratic one where it applies;
    # in place, because for a block each temporary costs a block of memory
    a -= 0.5 * delta
    a *= delta
    np.multiply(0.5 * y, y, out=a, where=quad)
    total = a.sum(axis=-1)
    return float(total) if y.ndim == 1 else total


def huber_gradient(y, delta):
    """Gradient of `huber_value`; 1-Lipschitz, equal to y inside the quadratic region."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    y = np.asarray(y, dtype=float)
    return np.where(np.abs(y) <= delta, y, delta * np.sign(y))


class LsqResolvent:
    """Refinable inexact resolvent of the least-squares operator x -> Ht(H x - f).

    For a target equation (I + tau HtH) x = rhs + tau Ht f this object steps
    `linalg.cg_steps` one iteration at a time. After every step the witness
    a = Ht(H x - f) is recomputed from scratch, so the pair (candidate, witness)
    always satisfies the operator inclusion exactly, and the CG residual is
    replaced by rhs - x - tau a, computed from that witness. The replaced
    residual only steers CG and the stall test; it is not the certificate,
    which each method computes from the exact (candidate, witness) pair.

    With the residual replaced, CG needs the operator only through the
    curvature p^T (I + tau HtH) p = ||p||^2 + tau ||H p||^2, one `H` product.
    A refinement therefore costs 3 `H` applications (the curvature, then the
    fresh witness's two), and a stalled one none.

    Each new target starts CG at a point predicted from the last candidate and
    the target's move (see `set_target`); that is the warm start used by the
    outer splitting loops. The witness is recomputed there as well.
    """

    def __init__(self, H, f, tau, x0=None):
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.H = H
        self.f = np.asarray(f, dtype=float)
        self.tau = float(tau)
        self._x = np.zeros(H.cols) if x0 is None else np.array(x0, dtype=float)
        self._a = None
        self._rhs = None
        self._last = None  # (previous target, the candidate accepted for it)
        self._steps = None

    @property
    def candidate(self):
        return self._x

    @property
    def stalled(self):
        """True once the residual sits at the rounding floor; refining is a no-op then."""
        scale = 1.0 + vector_norm(self._rhs) + vector_norm(self._x)
        return math.sqrt(self._rs) <= 1e-15 * scale

    def _curvature(self, p):
        """p^T (I + tau HtH) p in the CGLS form ||p||^2 + tau ||H p||^2."""
        hp = self.H.apply(p)
        return float(p @ p) + self.tau * float(hp @ hp)

    def _residual(self, x):
        """rhs - x - tau a, after moving the candidate to x and recomputing its witness a."""
        self._x = x
        self._a = self.H.apply_adjoint(self.H.apply(x) - self.f)
        return self._rhs - x - self.tau * self._a

    def _slope(self):
        """Secant estimate of the resolvent's slope along the previous target move.

        <x - x_prev, rhs_prev - rhs_prevprev> / ||rhs_prev - rhs_prevprev||^2,
        clipped to [0, 1], the range of the eigenvalues of (I + tau HtH)^{-1};
        1 when there is no previous move.
        """
        if self._last is None:
            return 1.0
        move = self._rhs - self._last[0]
        denom = float(move @ move)
        if denom == 0.0:
            return 1.0
        return min(max(float((self._x - self._last[1]) @ move) / denom, 0.0), 1.0)

    def set_target(self, rhs, warm_start=None):
        """Point the oracle at a new resolvent argument and start CG at a predicted point.

        The resolvent is affine in rhs, so every target after the first starts
        at x + c (rhs - rhs_prev), the last candidate shifted by the target's
        move scaled by the secant slope c of `_slope`. The first target starts
        at the current candidate, and an explicit `warm_start` replaces the
        prediction. The witness is recomputed at the start point (2 `H`
        applications), so the (candidate, witness) pair stays exact.
        """
        rhs = np.array(rhs, dtype=float)
        if warm_start is not None:
            start = np.array(warm_start, dtype=float)
        elif self._rhs is None:
            start = self._x
        else:
            start = self._x + self._slope() * (rhs - self._rhs)
        if self._rhs is not None:
            self._last = (self._rhs, self._x)
        self._rhs = rhs
        res = self._residual(start)
        self._rs = float(res @ res)
        self._steps = cg_steps(self._x, res, curvature=self._curvature,
                               residual=self._residual)
        return self._x, self._a

    def refine(self):
        """Advance CG by one iteration; returns the updated (candidate, witness)."""
        if self._steps is None:
            raise RuntimeError("set_target must be called before refine")
        if not self.stalled:
            _, self._rs = next(self._steps, (self._x, self._rs))  # x moves in `_residual`
        return self._x, self._a
