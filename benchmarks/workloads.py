"""The benchmark's workloads, and why each exists.

Every workload runs named experiments through ``cli.run_experiment``, the path
``hpesplit run`` takes, with the workload seed as the experiment seed. Each one
runs in its own process; BLAS threads are left at the library default.

desk-cp
    cp1-run1, cp1-run2 and cp2 at their preset desk sizes with all four CP
    methods, 1000 iterations each. The common case: the implicit-cp reference
    solve and per-iteration Python overhead dominate, and cp2's dense 399 x 400
    ``D`` is larger than its 100 x 400 ``H``, so D-kernel work shows too.
desk-dy
    dy-run1, dy-run2 and dy-run3 at preset sizes with all three DY methods,
    1000 iterations each. The only workload that drives the shared
    ``hpe.reduced_hpe_run`` driver, soft-thresholding and the Huber forward
    step (``D`` and ``Dt`` on every step). CP has its own loop, so a change to
    the CP path predicts no change here, and a change to the shared driver
    shows only here.
full-cp
    cp1-run2 at 2000 x 2000, hpe-cp only, 200 iterations, ``ref_factor = 1``.
    The 32 MB ``H`` and ``D`` products, instance generation and norm
    estimation dominate; driver self time is a few percent of hpe-cp.

Not workloads: acceptance criterion 5 (about 48 s) and the tier-1 suite (about
94 s) run the desk-cp code paths but are too long to repeat for every sample.
Time to gap 1e-6 is not a metric either: it depends on the reference solve,
and the desk CP runs never reach 1e-6 in 1000 iterations.
"""

from dataclasses import dataclass

from hpesplit import cli

CP_SPANS = ("problems.generate", "linalg.norms", "cli.run_method", "hpe.audit",
            "cli.emit_trace", "operators.set_target", "operators.refine",
            "operators.clip", "linalg.cg_solve", "problems.objective",
            "linalg.H.counted", "linalg.H.uncounted", "linalg.D.counted",
            "linalg.D.uncounted")
DY_SPANS = tuple(s for s in CP_SPANS if s != "operators.clip") + (
    "hpe.driver", "operators.soft_threshold", "operators.huber_gradient")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple      # (named experiment, overrides) pairs
    expected_spans: tuple   # spans a traced run must enter at least once
    setup_passes: int = 0   # extra set-up samples per experiment and repeat

    def configs(self, seed, out_dir):
        return [cli.named_config(experiment, seed=seed, out_dir=str(out_dir), **overrides)
                for experiment, overrides in self.experiments]


WORKLOADS = {w.name: w for w in (
    Workload("desk-cp",
             "common case: desk CP runs with all four methods; reference solve and "
             "Python overhead dominate, cp2 adds a D larger than H",
             tuple((e, {"iters": 1000}) for e in ("cp1-run1", "cp1-run2", "cp2")),
             CP_SPANS, setup_passes=3),
    Workload("desk-dy",
             "desk DY runs: the only workload on the shared HPE driver, soft threshold "
             "and Huber step; a CP-only change should not move it",
             tuple((e, {"iters": 1000}) for e in ("dy-run1", "dy-run2", "dy-run3")),
             DY_SPANS, setup_passes=3),
    Workload("full-cp",
             "2000 x 2000 hpe-cp: dense H and D products, instance generation and "
             "norm estimation dominate; Python overhead does not",
             (("cp1-run2", {"m": 2000, "n": 2000, "iters": 200, "methods": ("hpe-cp",),
                            "ref_factor": 1}),),
             CP_SPANS),
)}
