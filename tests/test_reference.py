import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hpesplit import problems
from hpesplit import reference as refsolve
from hpesplit.cli import FAMILIES, HUBER_DELTA, named_config, run_experiment
from hpesplit.linalg import NumericalError
from hpesplit.methods import CpParams, _lsq_cg_step
from hpesplit.problems import GramFactor, make_cp_instance, make_dy_instance

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
    monkeypatch.setattr(problems, "CP", replace(problems.CP, polish=lambda inst, lam, y: None))
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
    polish = problems.CP.polish
    monkeypatch.setattr(problems, "CP", replace(
        problems.CP, polish=lambda inst, lam, y: polish(inst, lam, -y)))
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


@pytest.mark.parametrize("name, steps", [
    ("dy-run1", (1800, 47, 1708, 45)), ("dy-run2", (1200, 42, 1118, 40)),
    ("dy-run3", (3200, 82, 3037, 81))])
def test_dy_reference_where_resets_matter_most(name, steps, tmp_path):
    # seed 3 needs the most evaluations and rejects the most extrapolated points,
    # so every way the memory is filled, used and cleared shows in these counts
    cfg = named_config(name, iters=1000, seed=3, methods=(), out_dir=str(tmp_path))
    reference = run_experiment(cfg).summary["reference"]
    counts = ("iterations", "plain_steps", "extrapolations", "resets")
    assert tuple(reference[k] for k in counts) == steps
    assert reference["stop"] == "certificate"


def test_cp_params_without_kappa_are_rejected_before_any_step(monkeypatch):
    # the restarts adapt kappa, so tau and theta alone are not enough
    def no_step(*args, **kwargs):
        raise AssertionError("a step was built")

    monkeypatch.setattr(refsolve, "_implicit_cp_step", no_step)
    with pytest.raises(ValueError, match="kappa"):
        refsolve.reference_run(make_cp_instance(60, 60, 0, 1.0),
                               CpParams(tau=5.0, theta=0.05), 5000)


def named_instance(name, **overrides):
    """A named experiment's config and the instance it generates."""
    cfg = named_config(name, **overrides)
    return cfg, FAMILIES[cfg.family]["instance"](cfg)


def stream_iterates(inst, p, steps):
    """The family's reference stream for `steps` steps, sent each checkpoint's
    gap as `reference_run` sends it, so the CP stream restarts as it does there."""
    entry = inst.family.entry(p)
    stream = inst.family.stream(inst.fresh(), p, np.zeros(inst.n), entry)
    iterates, gap = [], None
    for k in range(1, steps + 1):
        iterates.append(stream.send(gap))
        x = iterates[-1][0]
        gap = (inst.objective(x) - inst.lower_bound(x)
               if k % refsolve.REFERENCE_CHUNK == 0 else None)
    return iterates, entry


@pytest.mark.parametrize("name", ["cp1-run2", "dy-run3"])
def test_closed_form_stream_is_the_checked_stream(name, monkeypatch):
    # the closed form alone gives the bits that CG checking every solve gave
    cfg, inst = named_instance(name)
    closed_form, closed_entry = stream_iterates(inst, cfg.step_params(), 300)

    def checked(inst, tau, steps):
        closed = inst.gram.resolvent(tau)
        return lambda b: _lsq_cg_step(inst.H, tau, b, closed(b), 1e-8)

    monkeypatch.setattr(refsolve, "_checked_resolvent", checked)
    every_step, entry = stream_iterates(inst, cfg.step_params(), 300)
    assert entry == closed_entry
    if cfg.family == "cp":
        assert entry["restarts"] >= 1
    for ours, theirs in zip(closed_form, every_step, strict=True):
        for part, other in zip(ours, theirs):
            assert (part is None and other is None) or np.array_equal(part, other)


@pytest.mark.parametrize("name, method", [("cp1-run2", "implicit-cp"),
                                          ("dy-run3", "implicit-dy")])
def test_a_wrong_closed_form_fails_the_first_guarded_step(name, method):
    cfg, inst = named_instance(name)
    wrong = replace(inst, gram=GramFactor(inst.gram.V, 1.1 * inst.gram.s))
    with pytest.raises(NumericalError, match=rf"^{method} reference: the closed-form "
                                             r"resolvent fails the CG check at step 1, "
                                             r"relative residual \d\.\d{3}e[-+]\d+ > 1e-8$"):
        refsolve.reference_run(wrong, cfg.step_params(), cfg.iters * cfg.ref_factor)
