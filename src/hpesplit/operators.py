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


# moves of the candidate that `LsqResolvent` keeps for its projected start; a
# full basis restarts from the newest move
RECYCLE_MEMORY = 16


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

    Each new target starts CG at a point projected from the candidate's recent
    moves (see `set_target`); that is the warm start used by the outer
    splitting loops. The witness is recomputed there as well.
    """

    def __init__(self, H, f, tau, x0=None):
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.H = H
        self.f = np.asarray(f, dtype=float)
        if self.f.shape != (H.rows,):
            raise ValueError(f"f must be a vector of length {H.rows} for a {H.shape} H, "
                             f"got shape {self.f.shape}")
        self.tau = float(tau)
        self._x = np.zeros(H.cols) if x0 is None else np.array(x0, dtype=float)
        if self._x.shape != (H.cols,):
            raise ValueError(f"x0 must be a vector of length {H.cols} for a {H.shape} H, "
                             f"got shape {self._x.shape}")
        self._a = None
        self._rhs = None
        self._scale = None  # 1 + ||rhs||, for the stall test
        self._steps = None
        # rows 0.._k-1: an A-orthonormal basis W of the candidate's moves between
        # projected starts and its images A W, A = I + tau HtH; `_pair` is the
        # (x, x + tau a) pair the last projection started from
        self._W = np.empty((RECYCLE_MEMORY, H.cols))
        self._AW = np.empty((RECYCLE_MEMORY, H.cols))
        self._k = 0
        self._pair = None

    @property
    def candidate(self):
        return self._x

    @property
    def stalled(self):
        """True once the residual sits at the rounding floor; refining is a no-op then."""
        return math.sqrt(self._rs) <= 1e-15 * (self._scale + vector_norm(self._x))

    def _curvature(self, p):
        """p^T (I + tau HtH) p in the CGLS form ||p||^2 + tau ||H p||^2."""
        hp = self.H.apply(p)
        return float(p @ p) + self.tau * float(hp @ hp)

    def _residual(self, x):
        """rhs - x - tau a, after moving the candidate to x and recomputing its witness a."""
        self._x = x
        self._a = self.H.apply_adjoint(self.H.apply(x) - self.f)
        return self._rhs - x - self.tau * self._a

    def _add_move(self, y):
        """A-orthonormalize the candidate's move since the last projection into W.

        y = x + tau a is the candidate's image under A, less tau Ht f. Both ends
        of the move are exact (candidate, witness) pairs, so its image A dx is
        the move of y, with no `H` product. A move at rounding level, or one
        that W already holds to within 1e-6 of its A-norm, is dropped; a full
        basis restarts from the move alone.
        """
        x = self._x
        last, self._pair = self._pair, (x, y)
        if last is None:
            return
        dx, adx = x - last[0], y - last[1]
        before = float(dx @ adx)
        if not before > 1e-24 * float(x @ x):
            return
        if self._k == RECYCLE_MEMORY:
            self._k = 0
        W, AW = self._W[:self._k], self._AW[:self._k]
        # twice: the moves are nearly parallel, and one pass leaves W far from
        # A-orthonormal
        for _ in range(2):
            h = W @ adx
            dx -= h @ W
            adx -= h @ AW
        after = float(dx @ adx)
        if not after > 1e-12 * before:
            return
        norm = math.sqrt(after)
        self._W[self._k] = dx / norm
        self._AW[self._k] = adx / norm
        self._k += 1

    def set_target(self, rhs, warm_start=None):
        """Point the oracle at a new resolvent argument and start CG at a projected point.

        Every target after the first starts from the current candidate x with
        its exact residual r = rhs - x - tau a for the new target. The A-energy
        best correction within span(W) is W c with c = W^T r, and half the
        residual left over is added:

            start = x + W c + (r - A W c) / 2.

        The leftover is orthogonal to every stored move (W (r - A W c) = c - c),
        so the moves say nothing about the resolvent along it; the eigenvalues
        mu of (I + tau HtH)^{-1} lie in (0, 1], and 1/2 is the scale whose worst
        error max |mu - 1/2| is least. That needs no `H` product, since A W is
        stored. The first target starts at the current candidate, and an
        explicit `warm_start` replaces the projection. The witness is
        recomputed at the start point (2 `H` applications), so the (candidate,
        witness) pair stays exact.
        """
        rhs = np.array(rhs, dtype=float)
        if warm_start is not None:
            start = np.array(warm_start, dtype=float)
        elif self._rhs is None:
            start = self._x
        else:
            y = self._x + self.tau * self._a
            self._add_move(y)
            r = rhs - y
            W, AW = self._W[:self._k], self._AW[:self._k]
            c = W @ r
            start = self._x + c @ W + 0.5 * (r - c @ AW)
        self._rhs = rhs
        self._scale = 1.0 + vector_norm(rhs)
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
