import os
import subprocess
import sys
from pathlib import Path

from hpesplit import reference as refsolve
from hpesplit.cli import HUBER_DELTA, named_config
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
