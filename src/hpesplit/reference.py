"""The certified reference solve, `reference_run`, fed only by the instance (its
family and weights come from ``inst.params``), its stepsizes and its cap."""

from collections import deque
from functools import partial
from itertools import chain, count

import numpy as np

from .linalg import NumericalError, vector_norm
from .methods import CpParams, _implicit_cp_step, _implicit_dy_step, _lsq_cg_step

# the reference stops once its best objective is within REFERENCE_GAP of its best
# dual bound, checking both every REFERENCE_CHUNK steps; the DY reference mixes
# ANDERSON_MEMORY past differences, and the CP reference restarts, adapting its
# kappa, at a checkpoint whose gap is at most RESTART_DECAY times the last restart's
REFERENCE_GAP = 1e-10
REFERENCE_CHUNK = 100
ANDERSON_MEMORY = 5
RESTART_DECAY = 0.2


def reference_run(inst, p, cap):
    """The implicit baseline's step at the stepsizes p (`CpParams` or `DyParams`),
    iterated from x0 = 0 until its dual certificate closes.

    The family's stream (`_restarted_cp`, `_anderson_dy`) is built the same way,
    ``stream(inst, p, x0, entry)``, and yields the same shape, the iterate (x, y)
    after each step, with y the dual for CP and None for DY; every inner solve is
    the Gram factor's closed-form resolvent, checked by CG once per
    `REFERENCE_CHUNK` steps (`_checked_resolvent`). Every
    `REFERENCE_CHUNK` steps the objective and the dual bound are evaluated once
    at x, and their gap goes with the next step. A checkpoint with a dual also
    evaluates both at `_polish_cp`'s point, if there is one, and keeps them
    unless they are not finite; that point never enters the stream. It stops
    once the lowest objective minus the highest bound is at most `REFERENCE_GAP`
    (``stop = "certificate"``) or after ``cap`` steps (``"cap"``; at 0, at x0).
    Returns the lowest objective and the summary's reference entry. CP needs
    ``p.kappa``, which its restarts adapt: a `CpParams` built from tau and theta
    is a ValueError before any step."""
    fresh, params, entry = inst.fresh(), inst.params, {"cap": cap}
    x0 = np.zeros(fresh.n)
    if "lam" in params:
        if p.kappa is None:
            raise ValueError("the CP reference restarts by adapting kappa, so its "
                             "CpParams need one (CpParams.from_kappa); got kappa=None")
        entry.update(method="implicit-cp", kappa=p.kappa, restarts=0, polishes=0)
        make_stream, polish = _restarted_cp, partial(_polish_cp, fresh, params["lam"])
    else:
        entry.update(method="implicit-dy", plain_steps=0, extrapolations=0, resets=0)
        make_stream, polish = _anderson_dy, None
    stream = make_stream(fresh, p, x0, entry)

    best, bound, done, gap, polished = np.inf, -np.inf, 0, None, False
    # at a cap of 0 there is x0 alone, with no dual to polish on
    x, y = x0, None
    # the checkpoints come lazily: the cap has no upper bound
    for end in chain(range(REFERENCE_CHUNK, cap, REFERENCE_CHUNK), (cap,)):
        for _ in range(end - done):
            (x, y), gap = stream.send(gap), None
        done = end
        objective = inst.objective(x)
        if not np.isfinite(objective):
            raise NumericalError(f"{entry['method']} reference: objective {objective} "
                                 f"at iteration {done}")
        lower = inst.lower_bound(x)
        if objective < best:
            best, polished = objective, False
        bound = max(bound, lower)
        xp = None if y is None else polish(y)
        if xp is not None:
            entry["polishes"] += 1
            xp_objective, xp_lower = inst.objective(xp), inst.lower_bound(xp)
            if np.isfinite(xp_objective) and xp_objective < best:
                best, polished = xp_objective, True
            if np.isfinite(xp_lower):
                bound = max(bound, xp_lower)
        if best - bound <= REFERENCE_GAP:
            break
        gap = objective - lower
    stop = "certificate" if best - bound <= REFERENCE_GAP else "cap"
    entry.update(iterations=done, stop=stop, lower_bound=bound)
    if polish:
        entry["polished"] = polished
    return best, entry


def _polish_cp(inst, lam, y):
    """The minimizer of the CP objective over the face the dual y picks out, or
    None where there is no usable one.

    The face is x = B z, B the indicator of the segments between the jumps
    S = {i : |y_i| = lam} (exact: y comes out of `clip`), with sign(D x)_S =
    s = sign(y_S). On it the objective is 0.5 ||A z - f||^2 + lam <c, z>, with
    A = H B (column sums of H over each segment, uncounted like the objective)
    and c_k = s_{k-1} - s_k (s_{-1} = s_{|S|} = 0), so z solves
    (A^T A) z = A^T f - lam c; this is OSQP's solution polishing (Stellato et
    al. 2020), one step of a primal-dual active-set method (Hintermueller, Ito
    & Kunisch 2002). None if the face has more than min(m, n) / 2 segments,
    past which A^T A is singular or costly, or if the solve fails or is not
    finite."""
    jumps = np.flatnonzero(np.abs(y) == lam)
    if jumps.size + 1 > min(inst.m, inst.n) / 2:
        return None
    starts = np.concatenate(([0], jumps + 1))
    A = np.add.reduceat(inst.H.as_matrix(), starts, axis=1)
    c = -np.diff(np.sign(y[jumps]), prepend=0.0, append=0.0)
    try:
        z = np.linalg.solve(A.T @ A, A.T @ inst.f - lam * c)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(z)):
        return None
    return np.repeat(z, np.diff(starts, append=inst.n))


def _checked_resolvent(inst, tau, method, steps):
    """The inner solve ``solve(b) -> (x, 0)`` of a reference step, x = (I + tau
    HtH)^{-1} b from the Gram factor's closed form, with no CG.

    ``steps`` counts the solves of the whole stream: the first of every
    `REFERENCE_CHUNK` (steps 1, 101, ...) is checked as implicit-cp and
    implicit-dy check theirs, by `_lsq_cg_step` started at x at 1e-8. If CG
    would take a step there, it raises NumericalError naming the ``method``'s
    reference, the step and the closed form's relative residual."""
    closed, H = inst.gram.resolvent(tau), inst.H

    def solve(b):
        x, k = closed(b), next(steps)
        if k % REFERENCE_CHUNK == 0 and _lsq_cg_step(H, tau, b, x, 1e-8)[1]:
            residual = b - (x + tau * H.apply_adjoint_uncounted(H.apply_uncounted(x)))
            raise NumericalError(
                f"{method} reference: the closed-form resolvent fails the CG check "
                f"at step {k + 1}, relative residual "
                f"{vector_norm(residual) / max(vector_norm(b), 1e-300):.3e} > 1e-8")
        return x, 0

    return solve


def _restarted_cp(inst, p, x0, entry):
    """Yield the iterate (x, y) after each `implicit-cp` step from (x0, 0) at the
    `CpParams` p, restarted as PDLP is (Applegate, Hinder, Lu & Lubin 2023); its
    inner solve is `_checked_resolvent` at p.tau.

    A gap sent with a step (``gap = yield (x, y)``) restarts the run if it is at most
    `RESTART_DECAY` times the gap at the last restart (the first always does):
    kappa <- sqrt(kappa * ||y - y_r|| / ||x - x_r||), (x_r, y_r) the iterate at
    the last restart, unless a norm is 0, and the run goes on from the current
    iterate at ``p = CpParams.from_kappa(kappa)``. ``entry`` keeps ``kappa`` and
    ``restarts``."""
    state = anchor = (x0, np.zeros(inst.D.rows))
    restart_gap, steps = np.inf, count()
    while True:
        step = _implicit_cp_step(inst.H, inst.f, inst.D, inst.params["lam"], p)
        solve = _checked_resolvent(inst, p.tau, "implicit-cp", steps)
        gap = None
        while gap is None or not gap <= RESTART_DECAY * restart_gap:
            state, _ = step(state, solve)
            gap = yield state
        dx = np.linalg.norm(state[0] - anchor[0])
        dy = np.linalg.norm(state[1] - anchor[1])
        if dx > 0 and dy > 0:
            p = CpParams.from_kappa(float(np.sqrt(p.kappa * dy / dx)))
        anchor, restart_gap = state, gap
        entry["kappa"] = p.kappa
        entry["restarts"] += 1


def _anderson_dy(inst, p, x0, entry):
    """Yield the iterate (x, None) after each evaluation of the `implicit-dy` map
    T(w) at the `DyParams` p, iterated from x0 with type-II Anderson acceleration
    of memory `ANDERSON_MEMORY` (Walker & Ni 2011), safeguarded; x is the map's
    primal point, and its inner solve is `_checked_resolvent` at p.gamma.

    The memory keeps the differences dT, dG of T and of the residual g = T(w) - w
    between the last points kept. At the current point w, the extrapolated point
    is T(w) - dT c, with c the least-squares solution of dG c = g from the
    normal equations. It is kept only if its residual norm is at most ||g||;
    otherwise the memory resets and the plain step T(w) is taken. A singular
    system or a non-finite c also resets the memory and takes the plain step;
    so does an empty memory, which a memory of 0 always is. ``entry`` tallies
    every evaluation as one of ``plain_steps``, ``extrapolations``
    (extrapolated points kept) and ``resets`` (extrapolated points rejected)."""
    params = inst.params
    step = _implicit_dy_step(inst.H, inst.f, inst.D, params["lam1"], params["lam2"],
                             params["delta"], p)
    solve = _checked_resolvent(inst, p.gamma, "implicit-dy", count())
    # the (dT, dG) column pairs, oldest first
    memory = deque(maxlen=ANDERSON_MEMORY)

    def evaluate(w):
        _, x2, tw, _ = step(w, solve)
        g = tw - w
        return x2, tw, g, vector_norm(g)

    x2, tw, g, g_norm = evaluate(x0)
    entry["plain_steps"] += 1
    yield x2, None
    while True:
        if memory:
            dT, dG = (np.column_stack(d) for d in zip(*memory))
            try:
                coef = _anderson_coefficients(dG, g)
            except np.linalg.LinAlgError:
                coef = None
            if coef is not None and np.all(np.isfinite(coef)):
                x2_aa, tw_aa, g_aa, g_aa_norm = evaluate(tw - dT @ coef)
                if g_aa_norm <= g_norm:
                    entry["extrapolations"] += 1
                    memory.append((tw_aa - tw, g_aa - g))
                    x2, tw, g, g_norm = x2_aa, tw_aa, g_aa, g_aa_norm
                    yield x2, None
                    continue
                entry["resets"] += 1
                yield x2, None
            memory.clear()
        x2, tw_next, g_next, g_norm = evaluate(tw)
        memory.append((tw_next - tw, g_next - g))
        tw, g = tw_next, g_next
        entry["plain_steps"] += 1
        yield x2, None


def _anderson_coefficients(dG, g):
    """The least-squares solution c of dG c = g, from the normal equations."""
    return np.linalg.solve(dG.T @ dG, dG.T @ g)
