"""Splitting methods: three certified inexact schemes and their baselines.

Every runner defines one outer step and hands it to `hpe.iterate`, which owns
the loop, the timing, the objective, the trace and the recorded iterates.
The inexact methods (`eckstein_yao_run`, `inexact_cp_run`, `inexact_dy_run`)
hand a refinable resolvent oracle for the hard term to `hpe.certify`, with the
step's target and an ``assemble`` that builds the rest of the step from the
oracle's (candidate, witness) pair; `certify` refines until the relative-error
check passes. DR and DY go through the reduced step `hpe.reduced_hpe_run`, CP
through its own M-seminorm check. An oracle is anything with the
`LsqResolvent` protocol: ``set_target(rhs) -> (candidate, witness)`` starting
from a point predicted from the previous candidates and targets, and
``refine() -> (candidate, witness)`` for one improvement.

Baselines: the same primal-dual iteration with a fixed-tolerance inner solve
(`implicit_cp_run`, `implicit_dy_run`), the fully dualized explicit variant
(`explicit_cp_run`), a forward-step primal-dual method (`condat_vu_run`), and
plain forward-backward (`fb_run`). `_implicit_cp_step` and `_implicit_dy_step`
take their inner solve as a parameter: the implicit runners pass CG started at
the previous iterate, the reference run (`reference.py`) the Gram factor's
closed-form resolvent.
"""

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

import numpy as np

from .hpe import HpeConfig, RunTrace, StepRecord, certify, iterate, reduced_hpe_run
from .linalg import (NumericalError, StoppingRule, cg_solve, estimate_spectral_norm,
                     vector_norm)
from .operators import clip, huber_gradient, soft_threshold


@dataclass
class CpParams:
    """Stepsizes for the primal-dual iterations; needs tau * theta * ||K||^2 <= 1."""

    tau: float
    theta: float
    sigma: float = 0.0
    kappa: Optional[float] = None

    def __post_init__(self):
        if not (self.tau > 0 and self.theta > 0):
            raise ValueError(f"stepsizes must be positive, got tau={self.tau}, theta={self.theta}")
        if not 0 <= self.sigma < 1:
            raise ValueError(f"sigma must be in [0, 1), got {self.sigma}")

    @classmethod
    def from_kappa(cls, kappa, sigma=0.0):
        """tau = 1/(2 kappa), theta = kappa/2: valid whenever ||K|| <= 2."""
        if not kappa > 0:
            raise ValueError(f"kappa must be positive, got {kappa}")
        return cls(tau=1.0 / (2.0 * kappa), theta=kappa / 2.0, sigma=sigma, kappa=kappa)

    def validate_norm(self, norm_K):
        if not self.tau * self.theta * norm_K ** 2 <= 1.0 + 1e-9:
            raise ValueError(
                f"tau*theta*||K||^2 = {self.tau * self.theta * norm_K ** 2:.6f} exceeds 1")


@dataclass
class DyParams:
    """Stepsize gamma in (0, 2/beta) for a 1/beta-cocoercive forward term."""

    gamma: float
    beta: float
    sigma: float = 0.0

    def __post_init__(self):
        if not self.beta >= 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        # beta = 0 means no forward term: gamma is unconstrained and alpha = 0
        gamma_max = 2.0 / self.beta if self.beta > 0 else np.inf
        if not 0 < self.gamma < gamma_max:
            raise ValueError(f"gamma must lie in (0, 2/beta) = (0, {gamma_max}), "
                             f"got {self.gamma}")
        if not 0 <= self.sigma < 1:
            raise ValueError(f"sigma must be in [0, 1), got {self.sigma}")

    @property
    def alpha(self):
        """The induced averaging weight gamma*beta / (4 - gamma*beta)."""
        return self.gamma * self.beta / (4.0 - self.gamma * self.beta)

    @classmethod
    def from_beta(cls, beta, sigma=0.0, gamma=None):
        """gamma defaults to 1/beta, the middle of (0, 2/beta); at beta = 0
        (Douglas-Rachford) there is no default, so gamma must be given."""
        if gamma is None:
            if beta == 0:
                raise ValueError("gamma must be given when beta = 0: "
                                 "the default 1/beta is undefined")
            gamma = 1.0 / beta
        return cls(gamma=gamma, beta=beta, sigma=sigma)


@dataclass
class MethodResult:
    """Trace plus the final primal iterate and any auxiliary final variables."""

    trace: RunTrace
    final_x: np.ndarray
    aux: dict = field(default_factory=dict)


def _counter(oracle):
    if hasattr(oracle, "H"):
        return lambda: oracle.H.total_count
    return lambda: 0


# ---------------------------------------------------------------------------
# certified inexact methods
# ---------------------------------------------------------------------------

def eckstein_yao_run(a1_oracle, j_a2, tau, sigma, w0, iters, inner_cap=200,
                     accept_atol=1e-14, record_invariants=False, objective=None):
    """Inexact Douglas-Rachford with a per-step relative-error certificate.

    Each outer step proposes (x1, a1) with a1 in A1(x1) and tau*a1 + x1 close
    to w, computes x2 = J_{tau A2}(x1 - tau*a1) with the induced witness
    tau*a2 = x1 - tau*a1 - x2, refines while

        ||x1 + tau*a1 - w|| > sigma * ||x2 + tau*a1 - w||,

    then updates w <- w + x2 - x1.  The equivalent update w - tau*(a1 + a2) is
    computed as well and cross-checked; the maximal discrepancy is reported in
    ``aux['update_crosscheck']``.

    `objective`, when given, is evaluated at x2.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    cfg = HpeConfig(sigma=sigma, inner_cap=inner_cap, accept_atol=accept_atol)
    crosscheck = 0.0

    def assemble(x1, a1):
        x2 = j_a2(x1 - tau * a1)
        ta2 = x1 - tau * a1 - x2
        z = x1 - x2
        s = tau * a1 + x2
        return (x1, x2, a1, ta2), z, s

    def step(k, state):
        nonlocal crosscheck
        w = state[1]
        w_next, (x1, x2, a1, ta2), rec = reduced_hpe_run(a1_oracle, assemble, k, w, cfg,
                                                         "hpe-dr")
        gap = float(np.linalg.norm(w - (tau * a1 + ta2) - w_next))
        crosscheck = max(crosscheck, gap)
        if gap > 1e-10 * (1.0 + np.linalg.norm(w_next)):
            raise NumericalError(f"step-9 update forms disagree at iteration {k}: {gap:.3e}")
        return (x2, w_next, x1), rec

    w0 = np.array(w0, dtype=float)
    trace, (x2, w, x1) = iterate(step, (w0, w0, None), iters, objective,
                                 _counter(a1_oracle),
                                 itemgetter(1) if record_invariants else None, "hpe-dr", sigma)
    return MethodResult(trace, x2, aux={"w": w, "x1": x1, "update_crosscheck": crosscheck})


def inexact_cp_run(a1_oracle, K, j_a2_inv, p, x0, y0, iters, inner_cap=200,
                   accept_atol=1e-14, record_invariants=False, objective=None,
                   norm_K=None):
    """Primal-dual iteration with a certified inexact primal resolvent.

    One outer step at (x, y): propose (x1, a) with tau*a + x1 close to
    rhs = x - tau*K*y, set ytilde = J_{theta A2^{-1}}(y + theta*K*(x1 - tau*(a + K*y))),
    and refine while the squared check

        ||tau*a + x1 - rhs||^2 / tau  >  sigma^2 * ||(x1 - x, ytilde - y)||_M^2

    fails, where ||(dx, dy)||_M^2 = ||dx||^2/tau - 2<K dx, dy> + ||dy||^2/theta.
    Then x <- rhs - tau*a and y <- ytilde.

    `objective`, when given, is evaluated at the updated primal iterate.
    """
    tau, theta = p.tau, p.theta
    if norm_K is None:
        norm_K = estimate_spectral_norm(K)
    p.validate_norm(norm_K)
    cfg = HpeConfig(sigma=p.sigma, inner_cap=inner_cap, accept_atol=accept_atol)

    def m_norm(dx, dy, k_apply):
        quad = float(dx @ dx) / tau - 2.0 * float(k_apply(dx) @ dy) + float(dy @ dy) / theta
        return math.sqrt(max(quad, 0.0))

    def step(k, state):
        x, y = state
        ky = K.apply_adjoint(y)
        rhs = x - tau * ky

        def assemble(x1, a):
            return x1, a, j_a2_inv(y + theta * K.apply(x1 - tau * (a + ky)))

        def check(pair):
            x1, a, yt = pair
            return (vector_norm(tau * a + x1 - rhs) / math.sqrt(tau),
                    m_norm(x1 - x, yt - y, K.apply))

        (_, a, yt), lhs, rhs_norm, inner, atol = certify(
            cfg, a1_oracle, rhs, assemble, check,
            1.0 + vector_norm(rhs) + vector_norm(y), k, "hpe-cp")
        x_next = rhs - tau * a
        # read only by audit_invariants, so its K application is uncounted
        residual = m_norm(x_next - x, yt - y, K.apply_uncounted)
        return (x_next, yt), StepRecord(lhs, rhs_norm, inner, residual, atol)

    trace, (x, y) = iterate(step, (np.array(x0, dtype=float), np.array(y0, dtype=float)),
                            iters, objective, _counter(a1_oracle),
                            np.concatenate if record_invariants else None, "hpe-cp", p.sigma)
    return MethodResult(trace, x, aux={"y": y})


def inexact_dy_run(a1_oracle, j_a2, b_apply, p, w0, iters, inner_cap=200,
                   accept_atol=1e-14, record_invariants=False, objective=None):
    """Three-operator splitting with a certified inexact resolvent of the smooth-data term.

    One outer step at w: propose (x1, a1) with gamma*a1 + x1 close to w, set
    x2 = J_{gamma A2}(x1 - gamma*a1 - gamma*B(x1)), refine while

        ||x1 + gamma*a1 - w|| > sigma * ||(alpha*x1 + x2)/(1+alpha) + gamma*a1 - w||,

    then update w <- w + (x2 - x1)/(1 + alpha).  Setting B = 0 (beta = 0, so
    alpha = 0) recovers `eckstein_yao_run` with tau = gamma exactly.

    `objective`, when given, is evaluated at x2.
    """
    gamma, alpha = p.gamma, p.alpha
    cfg = HpeConfig(sigma=p.sigma, inner_cap=inner_cap, accept_atol=accept_atol)

    def assemble(x1, a1):
        x2 = j_a2(x1 - gamma * a1 - gamma * b_apply(x1))
        z = (x1 - x2) / (1.0 + alpha)
        s = (alpha * x1 + x2) / (1.0 + alpha) + gamma * a1
        return (x1, x2), z, s

    def step(k, state):
        w_next, (x1, x2), rec = reduced_hpe_run(a1_oracle, assemble, k, state[1], cfg, "hpe-dy")
        return (x2, w_next, x1), rec

    w0 = np.array(w0, dtype=float)
    trace, (x2, w, x1) = iterate(step, (w0, w0, None), iters, objective,
                                 _counter(a1_oracle),
                                 itemgetter(1) if record_invariants else None, "hpe-dy", p.sigma)
    return MethodResult(trace, x2, aux={"x1": x1, "w": w})


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def _lsq_cg_step(H, tau, b, x_warm, cg_tol):
    """One fixed-tolerance inner solve of (I + tau HtH) x = b, warm-started and
    capped at 10 n CG steps."""
    cap = 10 * b.size

    def apply(v):
        return v + tau * H.apply_adjoint(H.apply(v))

    x, it = cg_solve(apply, b, x0=x_warm, stop=StoppingRule(tol=cg_tol, cap=cap))
    if it >= cap:
        res = b - (x + tau * H.apply_adjoint_uncounted(H.apply_uncounted(x)))
        rel = np.linalg.norm(res) / max(np.linalg.norm(b), 1e-300)
        if rel > cg_tol:
            raise NumericalError(f"inner CG cap {cap} exhausted at relative "
                                 f"residual {rel:.3e}")
    return x, it


def _implicit_cp_step(H, f, D, lam, p):
    """implicit-cp's step, ``step((x, y), solve) -> ((x, y), cg_steps)``:

        x <- (I + tau HtH)^{-1} b,  b = x - tau*(Dt y - Ht f)   [x, cg_steps = solve(b)]
        y <- clip(y + theta*D(2 x_new - x), lam)

    ``solve(b) -> (x, cg_steps)`` is the inner solve: `implicit_cp_run` passes
    `_lsq_cg_step` started at the previous x, the reference a closed form.
    """
    tau, theta = p.tau, p.theta
    htf = H.apply_adjoint(np.asarray(f, dtype=float))

    def step(state, solve):
        x, y = state
        x_next, it = solve(x - tau * (D.apply_adjoint(y) - htf))
        return (x_next, clip(y + theta * D.apply(2.0 * x_next - x), lam)), it

    return step


def implicit_cp_run(H, f, D, lam, p, x0, y0, iters, cg_tol=1e-8,
                    record_invariants=False, objective=None):
    """Primal-dual iteration with the primal resolvent solved to a fixed CG
    tolerance: `_implicit_cp_step` from (x0, y0), CG warm-started at the previous x."""
    cp_step = _implicit_cp_step(H, f, D, lam, p)

    def step(k, state):
        state_next, it = cp_step(state, lambda b: _lsq_cg_step(H, p.tau, b, state[0], cg_tol))
        return state_next, StepRecord(inner=it)

    trace, (x, y) = iterate(step, (np.array(x0, dtype=float), np.array(y0, dtype=float)),
                            iters, objective, lambda: H.total_count,
                            np.concatenate if record_invariants else None, "implicit-cp")
    return MethodResult(trace, x, aux={"y": y})


def explicit_cp_run(H, f, D, lam, kappa, x0, u0, v0, iters, norm_K=None,
                    record_invariants=False, objective=None):
    """Fully dualized primal-dual iteration: forward applications of H and D only.

        x <- x - tau*(Ht u + Dt v)
        u <- (u + theta*(H(2 x_new - x) - f)) / (1 + theta)
        v <- clip(v + theta*D(2 x_new - x), lam)

    with tau = 1/(||K|| kappa), theta = kappa/||K||, ||K||^2 <= ||H||^2 + ||D||^2.
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if norm_K is None:
        norm_K = float(np.sqrt(estimate_spectral_norm(H) ** 2 +
                               estimate_spectral_norm(D) ** 2))
    tau = 1.0 / (norm_K * kappa)
    theta = kappa / norm_K
    f = np.asarray(f, dtype=float)

    def step(k, state):
        x, u, v = state
        x_next = x - tau * (H.apply_adjoint(u) + D.apply_adjoint(v))
        xbar = 2.0 * x_next - x
        return (x_next, (u + theta * (H.apply(xbar) - f)) / (1.0 + theta),
                clip(v + theta * D.apply(xbar), lam)), StepRecord()

    start = tuple(np.array(a, dtype=float) for a in (x0, u0, v0))
    trace, (x, u, v) = iterate(step, start, iters, objective, lambda: H.total_count,
                               itemgetter(0) if record_invariants else None, "explicit-cp")
    return MethodResult(trace, x, aux={"u": u, "v": v, "tau": tau, "theta": theta})


def condat_vu_run(H, f, D, lam, tau, theta, x0, y0, iters, norm_H=None, norm_D=None,
                  record_invariants=False, objective=None):
    """Forward-step primal-dual iteration on the data term.

        x <- x - tau*(Ht(H x - f) + Dt y)
        y <- clip(y + theta*D(2 x_new - x), lam)

    requiring 0 < tau < 2/||H||^2 and 0 < theta < (1/tau - ||H||^2/2)/||D||^2.
    """
    if norm_H is None:
        norm_H = estimate_spectral_norm(H)
    if norm_D is None:
        norm_D = estimate_spectral_norm(D)
    if not 0 < tau < 2.0 / norm_H ** 2:
        raise ValueError(f"tau must lie in (0, 2/||H||^2) = (0, {2.0 / norm_H ** 2:.6g}), "
                         f"got {tau}")
    theta_max = (1.0 / tau - norm_H ** 2 / 2.0) / max(norm_D ** 2, 1e-300)
    if not 0 < theta < theta_max:
        raise ValueError(f"theta must lie in (0, {theta_max:.6g}), got {theta}")
    f = np.asarray(f, dtype=float)

    def step(k, state):
        x, y = state
        x_next = x - tau * (H.apply_adjoint(H.apply(x) - f) + D.apply_adjoint(y))
        return (x_next, clip(y + theta * D.apply(2.0 * x_next - x), lam)), StepRecord()

    trace, (x, y) = iterate(step, (np.array(x0, dtype=float), np.array(y0, dtype=float)),
                            iters, objective, lambda: H.total_count,
                            itemgetter(0) if record_invariants else None, "condat-vu")
    return MethodResult(trace, x, aux={"y": y})


def _huber_forward(D, lam2, delta, x):
    if lam2 == 0.0:
        return np.zeros_like(x)
    return lam2 * D.apply_adjoint(huber_gradient(D.apply(x), delta))


def _implicit_dy_step(H, f, D, lam1, lam2, delta, p):
    """implicit-dy's step at the `DyParams` p, ``step(w, solve) -> (x1, x2, w_next, cg_steps)``:

        x1 <- (I + gamma HtH)^{-1} b,  b = w + gamma Ht f       [x1, cg_steps = solve(b)]
        x2 <- soft(2 x1 - w - gamma*lam2*Dt grad_huber(D x1), gamma*lam1)
        w  <- w + (x2 - x1)/(1 + alpha)

    ``solve(b) -> (x, cg_steps)`` is the inner solve: `implicit_dy_run` passes
    `_lsq_cg_step` started at the previous x1, the reference a closed form.
    """
    gamma, alpha = p.gamma, p.alpha
    htf = H.apply_adjoint(np.asarray(f, dtype=float))

    def step(w, solve):
        x1, it = solve(w + gamma * htf)
        x2 = soft_threshold(2.0 * x1 - w - gamma * _huber_forward(D, lam2, delta, x1),
                            gamma * lam1)
        return x1, x2, w + (x2 - x1) / (1.0 + alpha), it

    return step


def implicit_dy_run(H, f, D, lam1, lam2, delta, w0, iters, gamma=None, cg_tol=1e-8,
                    record_invariants=False, objective=None):
    """Three-operator splitting with the data resolvent solved to a fixed CG
    tolerance: `_implicit_dy_step` from w0, with CG warm-started at the previous
    x1; beta = 4*lam2, and gamma defaults as in `DyParams.from_beta`."""
    # validates gamma in (0, 2/beta)
    params = DyParams.from_beta(4.0 * lam2, gamma=gamma)
    dy_step = _implicit_dy_step(H, f, D, lam1, lam2, delta, params)
    w0 = np.array(w0, dtype=float)

    def step(k, state):
        _, w, x_prev = state
        x1, x2, w_next, it = dy_step(
            w, lambda b: _lsq_cg_step(H, params.gamma, b, x_prev, cg_tol))
        return (x2, w_next, x1), StepRecord(inner=it)

    trace, (x2, w, x1) = iterate(step, (w0, w0, w0.copy()), iters, objective,
                                 lambda: H.total_count,
                                 itemgetter(1) if record_invariants else None, "implicit-dy")
    return MethodResult(trace, x2, aux={"w": w, "x1": x1, "gamma": params.gamma,
                                        "alpha": params.alpha})


def fb_run(H, f, D, lam1, lam2, delta, x0, iters, norm_H=None,
           record_invariants=False, objective=None):
    """Forward-backward iteration: full forward step, one soft threshold.

        x <- soft(x - gamma*(Ht(H x - f) + lam2*Dt grad_huber(D x)), gamma*lam1)

    with gamma = 1/(||H||^2 + 4*lam2).
    """
    if norm_H is None:
        norm_H = estimate_spectral_norm(H)
    gamma = 1.0 / (norm_H ** 2 + 4.0 * lam2)
    f = np.asarray(f, dtype=float)

    def step(k, state):
        x = state[0]
        grad = H.apply_adjoint(H.apply(x) - f) + _huber_forward(D, lam2, delta, x)
        return (soft_threshold(x - gamma * grad, gamma * lam1),), StepRecord()

    trace, (x,) = iterate(step, (np.array(x0, dtype=float),), iters, objective,
                          lambda: H.total_count,
                          itemgetter(0) if record_invariants else None, "fb")
    return MethodResult(trace, x, aux={"gamma": gamma})
