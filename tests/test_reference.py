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
from hpesplit.problems import make_dy_instance

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
