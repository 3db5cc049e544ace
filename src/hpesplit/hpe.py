"""Extragradient proximal core: one outer loop, one certificate, the audit.

Every splitting method is a degenerate-preconditioned proximal point
iteration.  An inexact resolvent output is accepted once the relative-error
check

    ||v + u_tilde - u||_M  <=  sigma * ||u_tilde - u||_M

holds in the seminorm of the preconditioner M, and the step is then
u <- u - v.  `certify` runs that accept/refine loop: it points a refinable
resolvent (the oracle) at the step's target and refines until a check the
method supplies passes.  With an onto factorization M = C C* the DR and DY
loops run in the smaller space of w = C* u (`reduced_hpe_run`).  `iterate` is
the outer loop every runner shares, and `audit_invariants` checks a finished
trace against the estimates the acceptance test implies.
"""

import math
import time
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .linalg import NumericalError


class CertificationError(RuntimeError):
    """Inner refinement ran out of budget without passing the relative-error check."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


@dataclass
class HpeConfig:
    """Parameters of the relative-error certificate shared by the inexact runs.

    ``accept_atol`` adds a rounding floor to the acceptance test (scaled by a
    norm of the current iterate the method chooses) so that runs sitting at
    the exact fixed point do not spin in the inner loop; set it to 0 for the
    strict textbook criterion.
    """

    sigma: float = 0.0
    inner_cap: int = 200
    accept_atol: float = 1e-14

    def __post_init__(self):
        if not 0 <= self.sigma < 1:
            raise ValueError(f"sigma must be in [0, 1), got {self.sigma}")
        if not self.inner_cap >= 1:
            raise ValueError(f"inner_cap must be >= 1, got {self.inner_cap}")
        if not self.accept_atol >= 0:
            raise ValueError(f"accept_atol must be nonnegative, got {self.accept_atol}")


class StepRecord(NamedTuple):
    """What one outer iteration reports for its trace row; zeros when uncertified."""

    lhs: float = 0.0
    rhs: float = 0.0
    inner: int = 0
    residual: float = 0.0
    accept_tol: float = 0.0


class RunTrace:
    """Per-iteration records of one splitting run.

    ``rhs`` doubles as the seminorm of the step ||u_tilde - u||_M, and
    ``seminorm_residual`` is ||v||_M.  ``iterates`` (when recorded) holds
    u^0 .. u^K in whatever coordinates the method iterates in, so it has one
    more entry than the row lists.
    """

    def __init__(self, method="", sigma=None):
        self.method = method
        self.sigma = sigma
        self.k: List[int] = []
        self.objective: List[float] = []
        self.lhs: List[float] = []
        self.rhs: List[float] = []
        self.inner_iterations: List[int] = []
        self.h_applications: List[int] = []
        self.seminorm_residual: List[float] = []
        self.accept_tol: List[float] = []
        self.wall_ms: List[float] = []
        self.iterates: Optional[List[np.ndarray]] = None
        self.reference_objective: Optional[float] = None

    def append(self, k, objective, lhs, rhs, inner, h_apps, residual, wall_ms, accept_tol=0.0):
        if self.h_applications and h_apps < self.h_applications[-1]:
            raise ValueError("cumulative operator counts must be non-decreasing")
        self.k.append(int(k))
        self.objective.append(float(objective))
        self.lhs.append(float(lhs))
        self.rhs.append(float(rhs))
        self.inner_iterations.append(int(inner))
        self.h_applications.append(int(h_apps))
        self.seminorm_residual.append(float(residual))
        self.accept_tol.append(float(accept_tol))
        self.wall_ms.append(float(wall_ms))

    def __len__(self):
        return len(self.k)

    def objective_gap(self):
        ref = self.reference_objective if self.reference_objective is not None else 0.0
        return [obj - ref for obj in self.objective]


# trace rows whose objective `iterate` evaluates together, as one block
OBJECTIVE_BLOCK = 256


def _write_objective(objective, block, trace, method):
    """Evaluate ``objective(block)`` on the primal points of the trace's last
    ``len(block)`` rows and write its values into those rows.

    The objective must return one value per row, or `ValueError` names the
    method. The first value that is not finite raises `NumericalError` naming
    its iteration.
    """
    values = objective(block)
    if np.shape(values) != (len(block),):
        raise ValueError(f"{method}: objective gave shape {np.shape(values)} for a block "
                         f"of {len(block)} rows; it must return one value per row")
    for i, value in enumerate(values, len(trace) - len(block)):
        value = float(value)
        if not math.isfinite(value):
            raise NumericalError(f"{method}: objective {value} at iteration {trace.k[i]}")
        trace.objective[i] = value


def iterate(step, state, iters, objective=None, h_counter=None, record=None,
            method="", sigma=None):
    """The outer loop of every runner: step, time, write the trace row.

    The objective is instrumentation: no step depends on it. So each row's
    primal point is copied into a block of ``min(OBJECTIVE_BLOCK, iters)``
    rows, and the objective is evaluated once per full block and once at the
    end. A row's ``wall_ms`` times its step only.

    Parameters
    ----------
    step : callable
        ``step(k, state) -> (state, StepRecord)`` performs outer iteration k.
    state : tuple
        Initial state. Its first entry is the primal point: the objective is
        evaluated there after every step, and runners return it as the final
        iterate, so it must be meaningful before the first step too.
    iters : int
        Number of outer iterations.
    objective : callable, optional
        ``objective(block)`` maps a (rows, n) block of primal points to one
        value per row; each row's value is recorded (NaN when absent). A
        value that is not finite raises `NumericalError` naming the method and
        its iteration. If a step raises, the rows buffered so far are
        evaluated first, so an earlier non-finite value is the error reported.
    h_counter : callable, optional
        Returns the cumulative count of the dominant operator applications.
    record : callable, optional
        ``record(state) -> ndarray``; when given, ``trace.iterates`` holds its
        value before the first and after every step.
    method, sigma
        Labels stored in the trace.

    Returns
    -------
    (RunTrace, final state)
    """
    trace = RunTrace(method=method, sigma=sigma)
    count = h_counter if h_counter is not None else (lambda: 0)
    if record is not None:
        trace.iterates = [np.array(record(state), dtype=float)]
    size = min(OBJECTIVE_BLOCK, iters)
    block, filled = None, 0
    for k in range(iters):
        t0 = time.perf_counter()
        try:
            state, rec = step(k, state)
        except Exception:
            if filled:
                _write_objective(objective, block[:filled], trace, method)
            raise
        trace.append(k, float("nan"), rec.lhs, rec.rhs, rec.inner, count(), rec.residual,
                     wall_ms=(time.perf_counter() - t0) * 1e3, accept_tol=rec.accept_tol)
        if objective is not None:
            if filled == 0:
                # a new array per block, so rows already handed out stay as they were
                block = np.empty((size,) + np.shape(state[0]))
            block[filled] = state[0]
            filled += 1
            if filled == size:
                filled = 0
                _write_objective(objective, block, trace, method)
        if record is not None:
            trace.iterates.append(np.array(record(state), dtype=float))
    if filled:
        _write_objective(objective, block[:filled], trace, method)
    return trace, state


def certify(cfg, oracle, target, assemble, check, scale, k, method):
    """The accept/refine inner loop shared by every certified method.

    Proposes ``assemble(*oracle.set_target(target))`` and then
    ``assemble(*oracle.refine())`` until ``check(candidate) -> (lhs, rhs)``
    gives lhs <= sigma * rhs + atol, where atol = ``cfg.accept_atol * scale``.

    Returns
    -------
    (candidate, lhs, rhs, refinements, atol)

    Raises
    ------
    NumericalError
        When lhs or rhs is not finite; refining cannot repair that.
    CertificationError
        When ``cfg.inner_cap`` refinements do not produce an acceptable candidate.
    """
    atol = cfg.accept_atol * scale
    candidate = assemble(*oracle.set_target(target))
    inner = 0
    while True:
        lhs, rhs = check(candidate)
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise NumericalError(f"{method}: iteration {k} check is not finite "
                                 f"(lhs={lhs}, rhs={rhs})")
        if lhs <= cfg.sigma * rhs + atol:
            return candidate, lhs, rhs, inner, atol
        if inner >= cfg.inner_cap:
            raise CertificationError(
                f"{method}: iteration {k} not certified after {inner} refinements "
                f"(lhs={lhs:.6e}, sigma*rhs={cfg.sigma * rhs:.6e})", iteration=k)
        candidate = assemble(*oracle.refine())
        inner += 1


def reduced_hpe_run(oracle, assemble, k, w, cfg, method="reduced-hpe"):
    """One certified step of the reduced loop in the factor space w = C* u.

    The DR and DY methods step through here; CP certifies its own M-seminorm
    check, since its preconditioner has no cheap onto factor. `certify` points
    ``oracle`` at w, and ``assemble(candidate, witness) -> (u_tilde, z, s)``
    builds the pair with C z in A(u_tilde): ``z`` is the reduced witness and
    ``s = C* u_tilde``. The pair is accepted once
    ||z + s - w|| <= sigma * ||s - w|| + atol; refining shrinks the left side.

    Returns (w - z, u_tilde, StepRecord) for the accepted pair, and raises as
    `certify` does, naming ``method`` and the outer iteration ``k``.
    """
    (u_tilde, z, _), lhs, rhs, inner, atol = certify(
        cfg, oracle, w, assemble,
        lambda pair: (float(np.linalg.norm(pair[1] + pair[2] - w)),
                      float(np.linalg.norm(pair[2] - w))),
        1.0 + float(np.linalg.norm(w)), k, method)
    return w - z, u_tilde, StepRecord(lhs, rhs, inner, float(np.linalg.norm(z)), atol)


@dataclass
class AuditReport:
    """Outcome of the per-iteration invariant audit of a trace."""

    method: str
    iterations: int
    fejer_checked: bool
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def audit_invariants(trace, sigma, u_star_seminorms=None, rtol=1e-9):
    """Check the fundamental estimates of the extragradient loop on a trace.

    Per accepted iteration: the acceptance inequality itself, the two-sided
    bound (1 - sigma) * step <= ||v||_M <= (1 + sigma) * step, and - when
    ``u_star_seminorms`` supplies d_k = ||u^k - u*||_M for k = 0..K - the
    quasi-Fejer inequality d_{k+1}^2 + (1 - sigma^2) step_k^2 <= d_k^2 and its
    summed form.  Tolerances scale with the run (rtol relative).  A sigma
    outside [0, 1), where the runners certify, or an rtol that is not finite
    and nonnegative raises ValueError: an infinite sigma or a NaN rtol would
    pass every row, and a negative rtol fail exact ones.
    """
    if not 0 <= sigma < 1:
        raise ValueError(f"sigma must be in [0, 1), got {sigma}")
    if not (np.isfinite(rtol) and rtol >= 0):
        raise ValueError(f"rtol must be finite and nonnegative, got {rtol}")
    n = len(trace)
    failures = []
    fejer = u_star_seminorms is not None

    steps = np.asarray(trace.rhs, dtype=float)
    resid = np.asarray(trace.seminorm_residual, dtype=float)
    lhs = np.asarray(trace.lhs, dtype=float)
    accept_tol = np.asarray(trace.accept_tol, dtype=float)

    for k in range(n):
        scale = max(steps[k], resid[k], 1e-300)
        # the runners accept lhs <= sigma*rhs + accept_tol, so every derived
        # estimate carries that extra slack
        tol = rtol * scale + accept_tol[k]
        if lhs[k] > sigma * steps[k] + tol:
            failures.append(f"k={k}: acceptance violated: lhs={lhs[k]:.12e} > "
                            f"sigma*rhs={sigma * steps[k]:.12e}")
        if resid[k] < (1 - sigma) * steps[k] - tol or resid[k] > (1 + sigma) * steps[k] + tol:
            failures.append(f"k={k}: two-sided estimate violated: ||v||_M={resid[k]:.12e} "
                            f"vs [{(1 - sigma) * steps[k]:.12e}, {(1 + sigma) * steps[k]:.12e}]")

    if fejer:
        d = np.asarray(u_star_seminorms, dtype=float)
        if d.size != n + 1:
            raise ValueError(f"need {n + 1} distances ||u^k - u*||_M, got {d.size}")
        scale2 = max(float(d[0] ** 2), 1e-300)
        slack_sum = 0.0
        for k in range(n):
            slack = 2 * sigma * steps[k] * accept_tol[k] + accept_tol[k] ** 2 + rtol * scale2
            slack_sum += slack
            left = d[k + 1] ** 2 + (1 - sigma ** 2) * steps[k] ** 2
            if left > d[k] ** 2 + slack:
                failures.append(f"k={k}: Fejer inequality violated: {left:.12e} > "
                                f"{d[k] ** 2:.12e}")
        total = d[n] ** 2 + (1 - sigma ** 2) * float(np.sum(steps ** 2))
        if total > d[0] ** 2 + slack_sum:
            failures.append(f"summability violated: {total:.12e} > {d[0] ** 2:.12e}")

    if n >= 2 and steps[0] > 0 and steps[-1] >= steps[0]:
        failures.append(f"step seminorm did not decrease: first={steps[0]:.6e}, "
                        f"last={steps[-1]:.6e}")

    return AuditReport(method=trace.method, iterations=n, fejer_checked=fejer,
                       failures=failures)
