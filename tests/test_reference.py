import os
import subprocess
import sys
from collections import deque
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from hpesplit import methods
from hpesplit import reference as refsolve
from hpesplit.cli import HUBER_DELTA, named_config, run_experiment
from hpesplit.problems import make_cp_instance, make_dy_instance

ROOT = Path(__file__).resolve().parents[1]


def test_solves_the_instance_it_is_given():
    # dy-run1's stepsizes and cap on an instance whose Huber width is not the
    # harness's: the steps, the objective and the bound all read it from the instance
    cfg = named_config("dy-run1", m=40, n=40, iters=1000)
    delta = 0.05
    assert delta != HUBER_DELTA
    inst = make_dy_instance(cfg.m, cfg.n, cfg.seed, cfg.lam1, cfg.lam2, delta)
    best, entry = refsolve.reference_run(inst, cfg.step_params(), cfg.iters * cfg.ref_factor)
    assert entry["stop"] == "certificate"
    assert entry["iterations"] < entry["cap"] == 10_000
    assert best - entry["lower_bound"] <= refsolve.REFERENCE_GAP


def test_importing_the_module_leaves_the_cli_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys, hpesplit.reference; sys.exit('hpesplit.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_memory_zero_is_the_plain_iteration(tmp_path, monkeypatch):
    monkeypatch.setattr(refsolve, "ANDERSON_MEMORY", 0)
    cfg = named_config("dy-run1", iters=1000, methods=(), out_dir=str(tmp_path))
    reference = run_experiment(cfg).summary["reference"]
    assert reference["stop"] == "certificate"
    assert reference["iterations"] == reference["plain_steps"] == 4000
    assert reference["extrapolations"] == reference["resets"] == 0


def test_memory_in_place_matches_a_rebuilt_memory():
    # the memory is updated in place; the reference rebuilds dT and dG as
    # contiguous n x k blocks from the kept pairs on every evaluation, and
    # both must give the same iterates and counts, bit for bit
    cfg = named_config("dy-run3", m=40, n=40, seed=3)
    inst = make_dy_instance(cfg.m, cfg.n, cfg.seed, cfg.lam1, cfg.lam2, HUBER_DELTA)
    params = cfg.step_params()
    step = methods._implicit_dy_step(inst.H, inst.f, inst.D, cfg.lam1, cfg.lam2,
                                     HUBER_DELTA, params)
    start = inst.gram.resolvent(params.gamma)
    w0 = np.zeros(cfg.n)

    def rebuilt(counts):
        memory = deque(maxlen=refsolve.ANDERSON_MEMORY)

        def evaluate(w):
            _, x2, tw, _ = step(w, start)
            return x2, tw, tw - w, np.linalg.norm(tw - w)

        x2, tw, g, g_norm = evaluate(w0)
        counts["plain_steps"] += 1
        yield x2
        while True:
            if memory:
                dT, dG = (np.column_stack(c) for c in zip(*memory))
                coef = np.linalg.solve(dG.T @ dG, dG.T @ g)
                x2_aa, tw_aa, g_aa, g_aa_norm = evaluate(tw - dT @ coef)
                if g_aa_norm <= g_norm:
                    counts["extrapolations"] += 1
                    memory.append((tw_aa - tw, g_aa - g))
                    x2, tw, g, g_norm = x2_aa, tw_aa, g_aa, g_aa_norm
                    yield x2
                    continue
                counts["resets"] += 1
                yield x2
                memory.clear()
            x2, tw_next, g_next, g_norm = evaluate(tw)
            memory.append((tw_next - tw, g_next - g))
            tw, g = tw_next, g_next
            counts["plain_steps"] += 1
            yield x2

    in_place, reference = (dict.fromkeys(("plain_steps", "extrapolations", "resets"), 0)
                           for _ in range(2))
    pairs = zip(islice(refsolve._anderson_dy(step, w0, start, in_place), 400),
                islice(rebuilt(reference), 400))
    assert all(np.array_equal(a, b) for a, b in pairs)
    assert in_place == reference and reference["resets"] > 0


@pytest.mark.parametrize("fault", ["nan", "singular"])
def test_bad_coefficients_take_the_plain_step(fault, tmp_path, monkeypatch):
    cfg = named_config("dy-run1", m=30, n=30, iters=25, methods=(), out_dir=str(tmp_path))
    monkeypatch.setattr(refsolve, "ANDERSON_MEMORY", 0)
    plain = run_experiment(cfg).summary["reference"]
    monkeypatch.setattr(refsolve, "ANDERSON_MEMORY", 5)
    calls = []

    def bad(dG, g):
        calls.append(dG.shape[1])
        if fault == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(dG.shape[1], np.nan)

    monkeypatch.setattr(refsolve, "_anderson_coefficients", bad)
    reference = run_experiment(cfg).summary["reference"]
    # every evaluation after the second asked for coefficients, from the one
    # difference kept since the last reset
    assert len(calls) == reference["iterations"] - 2 and set(calls) == {1}
    assert reference == plain


def cp_reference(name, **overrides):
    """The CP reference of a named experiment, run on its own: (best, entry)."""
    cfg = named_config(name, methods=(), **overrides)
    inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, cfg.lam, kind=cfg.spectrum_kind)
    return refsolve.reference_run(inst, cfg.step_params(), cfg.iters * cfg.ref_factor)


@pytest.mark.parametrize("seed", [0, 1])
def test_polish_certifies_cp1_run1(seed, tmp_path):
    # the restarted stream alone stops on its cap of 10,000 steps here (gaps 5.7e-9
    # and 2.1e-8); its first checkpoint's face, one segment, is the optimum's
    cfg = named_config("cp1-run1", iters=1000, seed=seed, methods=(), out_dir=str(tmp_path))
    reference = run_experiment(cfg).summary["reference"]
    assert reference["stop"] == "certificate" and reference["polished"]
    assert reference["iterations"] == refsolve.REFERENCE_CHUNK
    assert reference["polishes"] == 1
    assert reference["certified_gap"] <= refsolve.REFERENCE_GAP


def test_polish_on_a_face():
    inst = make_cp_instance(20, 20, 0, 1.0)
    H, f, lam = inst.H.as_matrix(), inst.f, 1.0
    # no jumps: the best constant vector
    h1 = H.sum(axis=1)
    assert np.allclose(refsolve._polish_cp(inst, lam, np.zeros(19)),
                       np.full(20, (h1 @ f) / (h1 @ h1)), rtol=1e-12, atol=0)
    # jumps up at 4 and down at 11: x = B z with D x = z_{k+1} - z_k there, so the
    # face's objective 0.5 ||H B z - f||^2 + lam (z_1 - z_0) - lam (z_2 - z_1) is
    # stationary at z
    y = np.zeros(19)
    y[4], y[11] = lam, -lam
    x = refsolve._polish_cp(inst, lam, y)
    B = np.zeros((20, 3))
    B[:5, 0] = B[5:12, 1] = B[12:, 2] = 1.0
    z = x[[0, 5, 12]]
    assert np.array_equal(x, B @ z)
    gradient = B.T @ (H.T @ (H @ x - f)) + lam * np.array([-1.0, 2.0, -1.0])
    assert np.abs(gradient).max() <= 1e-10 * np.abs(B.T @ H.T @ f).max()


def test_face_over_the_gate_is_not_polished():
    # min(m, n) / 2 = 10 segments are polished, 11 are not
    inst = make_cp_instance(20, 30, 0, 1.0)
    y = np.zeros(29)
    y[1:19:2] = 1.0
    assert refsolve._polish_cp(inst, 1.0, y).shape == (30,)
    y[20] = -1.0
    assert refsolve._polish_cp(inst, 1.0, y) is None


STREAM_FIELDS = ("cap", "method", "kappa", "restarts", "iterations", "stop", "lower_bound")


@pytest.mark.parametrize("fault", ["singular", "nan"])
def test_failed_face_solve_skips_the_polish(fault, monkeypatch):
    # without a polish, cp1-run2 at seed 0 certifies after 3,000 steps of the stream
    monkeypatch.setattr(refsolve, "_polish_cp", lambda inst, lam, y: None)
    unpolished = cp_reference("cp1-run2", iters=1000)
    monkeypatch.undo()
    solve, calls = np.linalg.solve, []

    def bad(a, b):
        calls.append(a.shape)
        if fault == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(solve(a, b), np.nan)

    monkeypatch.setattr(np.linalg, "solve", bad)
    best, entry = cp_reference("cp1-run2", iters=1000)
    assert calls and entry["polishes"] == 0 and not entry["polished"]
    assert entry["iterations"] == 3000 and entry["stop"] == "certificate"
    assert best == unpolished[0]
    assert {k: entry[k] for k in STREAM_FIELDS} == {k: unpolished[1][k] for k in STREAM_FIELDS}


def test_a_wrong_face_cannot_fool_the_certificate(monkeypatch):
    # with the signs of y flipped, each polished point is off the optimum's face;
    # the objective and the bound still hold it between them
    optimum, _ = cp_reference("cp1-run2", iters=1000)
    polish = refsolve._polish_cp
    monkeypatch.setattr(refsolve, "_polish_cp", lambda inst, lam, y: polish(inst, lam, -y))
    best, entry = cp_reference("cp1-run2", iters=1000)
    assert entry["polishes"] > 0
    rounding = 1e-12 * optimum
    assert best - entry["lower_bound"] >= -rounding
    assert best >= optimum - rounding and entry["lower_bound"] <= optimum + rounding


@pytest.mark.parametrize("name, steps", [
    ("dy-run1", (400, 17, 368, 15)), ("dy-run2", (500, 18, 466, 16)),
    ("dy-run3", (900, 15, 872, 13))])
def test_dy_reference_has_no_polish(name, steps, tmp_path):
    cfg = named_config(name, iters=1000, methods=(), out_dir=str(tmp_path))
    reference = run_experiment(cfg).summary["reference"]
    assert set(reference) == {"cap", "method", "plain_steps", "extrapolations", "resets",
                              "iterations", "stop", "lower_bound", "objective",
                              "certified_gap"}
    counts = ("iterations", "plain_steps", "extrapolations", "resets")
    assert tuple(reference[k] for k in counts) == steps
    assert reference["stop"] == "certificate"
