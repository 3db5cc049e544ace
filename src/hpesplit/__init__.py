"""Operator splitting with relative-error inexact resolvents.

Inexact Douglas-Rachford, Chambolle-Pock and Davis-Yin iterations whose inner
solves are certified per step by a relative-error check, plus their exact
counterparts and forward baselines, problem generators, and a benchmark
harness with CSV traces.
"""

from .linalg import LinearMap, StoppingRule, NumericalError, cg_solve, estimate_spectral_norm
from .operators import (
    soft_threshold,
    clip,
    huber_value,
    huber_gradient,
    LsqResolvent,
)
from .hpe import (
    HpeConfig,
    StepRecord,
    RunTrace,
    AuditReport,
    CertificationError,
    iterate,
    certify,
    reduced_hpe_run,
    audit_invariants,
)
from .methods import (
    CpParams,
    DyParams,
    MethodResult,
    eckstein_yao_run,
    inexact_cp_run,
    inexact_dy_run,
    implicit_cp_run,
    explicit_cp_run,
    condat_vu_run,
    implicit_dy_run,
    fb_run,
)
from .problems import (
    ProblemInstance,
    SPECTRUM_KINDS,
    spectrum,
    gen_illcond_matrix,
    gen_diff_matrix,
    gen_signal_and_data,
    make_cp_instance,
    make_dy_instance,
    objective_cp,
    objective_dy,
)

__version__ = "0.1.0"
