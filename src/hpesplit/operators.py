"""Proximal building blocks and the refinable resolvent of the least-squares term.

Closed-form resolvents (`soft_threshold`, `clip`), the Huber penalty and its
gradient, and the stateful `LsqResolvent`, which solves the least-squares
resolvent as a sequence of CG improvements so an outer loop can stop it as
soon as a relative-error check passes.
"""

import numpy as np

from .linalg import cg_steps


def soft_threshold(x, eta):
    """Componentwise sign(x) * max(|x| - eta, 0); the prox of eta * ||.||_1."""
    if eta < 0:
        raise ValueError(f"threshold must be nonnegative, got {eta}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - eta, 0.0)


def clip(x, lam):
    """Componentwise projection onto [-lam, lam]."""
    if lam < 0:
        raise ValueError(f"clip level must be nonnegative, got {lam}")
    return np.minimum(np.maximum(np.asarray(x, dtype=float), -lam), lam)


def huber_value(y, delta):
    """Sum of componentwise Huber penalties: quadratic inside [-delta, delta], linear outside."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    y = np.asarray(y, dtype=float)
    a = np.abs(y)
    return float(np.sum(np.where(a <= delta, 0.5 * y * y, delta * (a - 0.5 * delta))))


def huber_gradient(y, delta):
    """Gradient of `huber_value`; 1-Lipschitz, equal to y inside the quadratic region."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    y = np.asarray(y, dtype=float)
    return np.where(np.abs(y) <= delta, y, delta * np.sign(y))


class LsqResolvent:
    """Refinable inexact resolvent of the least-squares operator x -> Ht(H x - f).

    For a target equation (I + tau HtH) x = rhs + tau Ht f this object steps
    `linalg.cg_steps` one iteration at a time. After every step the witness
    a = Ht(H x - f) is recomputed from scratch, so the pair (candidate, witness)
    always satisfies the operator inclusion exactly, and the CG residual is
    replaced by rhs - x - tau a, computed from that witness. A new target
    reuses the witness of the unmoved candidate. The replaced residual only
    steers CG and the stall test; it is not the certificate, which each
    method computes from the exact (candidate, witness) pair.

    The candidate carries over between targets, which is the warm start used by
    the outer splitting loops.
    """

    def __init__(self, H, f, tau, x0=None):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.H = H
        self.f = np.asarray(f, dtype=float)
        self.tau = float(tau)
        self._x = np.zeros(H.cols) if x0 is None else np.array(x0, dtype=float)
        self._a = None
        self._rhs = None
        self._steps = None

    @property
    def candidate(self):
        return self._x

    @property
    def residual_norm(self):
        """||tau a + x - rhs||, the norm of the replaced CG residual."""
        return float(np.sqrt(self._rs))

    @property
    def stalled(self):
        """True once the residual sits at the rounding floor; refining is a no-op then."""
        scale = 1.0 + np.linalg.norm(self._rhs) + np.linalg.norm(self._x)
        return np.sqrt(self._rs) <= 1e-15 * scale

    def _apply(self, p):
        return p + self.tau * self.H.apply_adjoint(self.H.apply(p))

    def _residual(self, x):
        """rhs - x - tau a, after moving the candidate to x and recomputing its witness a."""
        self._x = x
        self._a = self.H.apply_adjoint(self.H.apply(x) - self.f)
        return self._rhs - x - self.tau * self._a

    def set_target(self, rhs, warm_start=None):
        """Point the oracle at a new resolvent argument, keeping the previous candidate.

        The witness is recomputed only for a warm start or when none exists yet:
        `_residual` is the one place that moves the candidate, and it recomputes
        the witness there, so a cached witness is exact at the candidate.
        """
        self._rhs = np.asarray(rhs, dtype=float)
        if warm_start is not None:
            res = self._residual(np.array(warm_start, dtype=float))
        elif self._a is None:
            res = self._residual(self._x)
        else:
            res = self._rhs - self._x - self.tau * self._a
        self._rs = float(res @ res)
        self._steps = cg_steps(self._apply, self._x, res, residual=self._residual)
        return self._x, self._a

    def refine(self):
        """Advance CG by one iteration; returns the updated (candidate, witness)."""
        if self._steps is None:
            raise RuntimeError("set_target must be called before refine")
        if not self.stalled:
            _, self._rs = next(self._steps, (self._x, self._rs))  # x moves in `_residual`
        return self._x, self._a
