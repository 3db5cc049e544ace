"""Experiment harness and command line: named desk-scale runs, CSV traces, audits.

`run_experiment` generates a seeded instance, estimates ||H|| and ||D|| by
power iteration started at each map's known top right singular vector (a
column of the generator's V; the DCT-II vector for D), so that both converge
in two iterations, computes a reference objective and a dual lower bound
(`reference.reference_run`, capped at ``ref_factor * iters`` steps), runs every
requested method on fresh operator counters, writes one CSV per method plus a
JSON summary and the manifest (the config itself), and audits the certified
methods' traces.

Trace CSVs are deterministic for a fixed seed: the wall-time column is written
as zero unless wall times are explicitly requested (they land in the summary
either way, which is not part of the reproducibility contract). They carry
every number a runner used to accept a step, sigma included, so
`audit_trace_file` re-checks an emitted CSV at the sigma it was certified at,
with the same `audit_invariants` that audits the run in memory.
"""

import argparse
import errno
import json
import os
import platform
import re
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_args

import numpy as np

from .hpe import CertificationError, RunTrace, audit_invariants
from .linalg import NumericalError, estimate_spectral_norm
from .methods import (
    CpParams,
    DyParams,
    _huber_forward,
    condat_vu_run,
    explicit_cp_run,
    fb_run,
    implicit_cp_run,
    implicit_dy_run,
    inexact_cp_run,
    inexact_dy_run,
)
from .operators import LsqResolvent, clip, soft_threshold
from .problems import SPECTRUM_KINDS, make_cp_instance, make_dy_instance
from .reference import reference_run

OUT_ENV_VAR = "HPESPLIT_OUT"
# The trace CSV format, column name -> type; the header, `emit_trace` and
# `parse_trace_csv` all follow this table. accept_tol, residual (||v||_M) and
# sigma come last so that lhs and rhs keep their positions; with them a row
# carries every number of the acceptance test lhs <= sigma * rhs + accept_tol.
TRACE_COLUMNS = {
    "method": str, "k": int, "objective_gap": float, "lhs": float, "rhs": float,
    "inner_iters": int, "h_apps": int, "wall_ms": float, "accept_tol": float,
    "residual": float, "sigma": float,
}
TRACE_HEADER = ",".join(TRACE_COLUMNS)
# the summary's h_apps_at_gap counts H applications until the gap reaches this
GAP_THRESHOLD = 1e-6
# Huber width of the DY family's smoothed total-variation term
HUBER_DELTA = 0.01

# each family's keys (all required but DY's gamma) and the methods run if none are named
FAMILIES = {
    "cp": {"keys": ("lam", "kappa"),
           "methods": ("hpe-cp", "implicit-cp", "condat-vu", "explicit-cp")},
    "dy": {"keys": ("lam1", "lam2", "gamma"), "methods": ("hpe-dy", "implicit-dy", "fb")},
}


@dataclass
class ExperimentConfig:
    """One experiment: instance geometry, regularization, and per-method knobs."""

    experiment: str = "custom"
    family: str = "cp"
    m: int = 200
    n: int = 200
    seed: int = 0
    spectrum_kind: str = "cosine"
    methods: Optional[tuple] = None
    iters: int = 2000
    sigma: float = 0.95
    kappa: Optional[float] = None
    gamma: Optional[float] = None
    lam: Optional[float] = None
    lam1: Optional[float] = None
    lam2: Optional[float] = None
    inner_cap: int = 200
    out_dir: Optional[str] = None
    ref_factor: int = 10
    emit_wall_times: bool = False

    def __post_init__(self):
        # the name is the run's directory under the output root, so it must be one
        name = self.experiment
        if name in ("", ".", "..") or "/" in name or os.sep in name or "\0" in name:
            raise ValueError(f"experiment name {name!r} is not a directory name")
        if self.out_dir is not None and "\0" in self.out_dir:
            raise ValueError(f"out_dir {self.out_dir!r} is not a path: it holds a NUL byte")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        known = FAMILIES[self.family]["methods"]
        self.methods = known if self.methods is None else tuple(self.methods)
        unknown = [m for m in self.methods if m not in known]
        if unknown:
            raise ValueError(f"unknown methods for family {self.family!r}: {unknown}; "
                             f"choose from {list(known)}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"methods named more than once: {repeated}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("seed", "iters", "ref_factor", "lam", "lam1", "lam2"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.inner_cap < 1:
            raise ValueError(f"inner_cap must be >= 1, got {self.inner_cap}")
        if min(self.m, self.n) < 2:
            raise ValueError(f"m and n must be at least 2, got {self.m} x {self.n}")
        if self.spectrum_kind not in SPECTRUM_KINDS:
            raise ValueError(f"unknown spectrum kind {self.spectrum_kind!r}, "
                             f"expected one of {SPECTRUM_KINDS}")
        for family, spec in FAMILIES.items():
            for key in spec["keys"]:
                value = getattr(self, key)
                if family != self.family and value is not None:
                    raise ValueError(f"{self.family} experiments take no {key}")
                if family == self.family and value is None and key != "gamma":
                    raise ValueError(f"{self.family} experiments need {key}")
        self.step_params()  # validates sigma, kappa and gamma before any work

    def step_params(self):
        """The CpParams or DyParams that `run_method` hands to the methods."""
        if self.family == "cp":
            return CpParams.from_kappa(self.kappa, sigma=self.sigma)
        return DyParams.from_beta(4.0 * self.lam2, sigma=self.sigma, gamma=self.gamma)

    def manifest(self):
        """Every field but the output place and the wall-time switch;
        ``ExperimentConfig(**manifest)`` rebuilds the run's config."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("out_dir", "emit_wall_times")}


# Pinned benchmark setups at desk scale; the full-scale variants use
# m = n = 2000 (cp1, dy) and m = 1000, n = 4000 (cp2), which the generators
# accept but the harness does not run by default.
NAMED_EXPERIMENTS = {
    "cp1-run1": dict(family="cp", lam=20.0, sigma=0.01, kappa=0.5, m=200, n=200,
                     spectrum_kind="cosine"),
    "cp1-run2": dict(family="cp", lam=1.0, sigma=0.95, kappa=0.1, m=200, n=200,
                     spectrum_kind="cosine"),
    "cp2": dict(family="cp", lam=0.1, sigma=0.99, kappa=0.5, m=100, n=400,
                spectrum_kind="power5"),
    "dy-run1": dict(family="dy", lam1=0.001, lam2=0.1, sigma=0.99, m=200, n=200,
                    spectrum_kind="cosine"),
    "dy-run2": dict(family="dy", lam1=0.0001, lam2=0.1, sigma=0.99, m=200, n=200,
                    spectrum_kind="cosine"),
    "dy-run3": dict(family="dy", lam1=0.0001, lam2=0.01, sigma=0.99, m=200, n=200,
                    spectrum_kind="cosine"),
}


def named_config(name, **overrides):
    if name not in NAMED_EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"choose from {sorted(NAMED_EXPERIMENTS)}")
    preset = dict(NAMED_EXPERIMENTS[name])
    preset.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(experiment=name, **preset)


def config_from_file(path, **overrides):
    """Parse a flat ``key = value`` config file; command-line overrides win.

    Each value is read as the declared type of its `ExperimentConfig` field. A
    ``#`` starts a comment at the start of a line or after whitespace, so
    ``experiment = run#1`` keeps its ``#``.
    """
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    values, seen = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in types:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: {key} is already set on line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = _coerce(types[key], val.strip())
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {key} {err}") from None
    values.update({k: v for k, v in overrides.items() if v is not None})
    values.setdefault("experiment", Path(path).stem)
    return ExperimentConfig(**values)


def _coerce(kind, val):
    """``val`` read as type ``kind``: Optional[X] as X, a tuple split on commas
    without empty items, a bool only from true or false."""
    kind = next((arg for arg in get_args(kind) if arg is not type(None)), kind)
    if kind is tuple:
        return tuple(v.strip() for v in val.split(",") if v.strip())
    if kind is bool:
        if val.lower() not in ("true", "false"):
            raise ValueError(f"must be true or false, got {val!r}")
        return val.lower() == "true"
    try:
        return kind(val)
    except ValueError:
        raise ValueError(f"must be {kind.__name__}, got {val!r}") from None


def emit_trace(trace, path):
    """Write one CSV row per outer iteration with full-precision decimal floats."""
    path = Path(path)
    # the RunTrace lists behind TRACE_COLUMNS, in its order
    columns = [[trace.method] * len(trace), trace.k, trace.objective_gap(), trace.lhs,
               trace.rhs, trace.inner_iterations, trace.h_applications, trace.wall_ms,
               trace.accept_tol, trace.seminorm_residual, [trace.sigma or 0.0] * len(trace)]
    specs = [".17g" if cast is float else "" for cast in TRACE_COLUMNS.values()]
    text = [[format(value, spec) for value in column] for column, spec in zip(columns, specs)]
    try:
        with open(path, "w", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            fh.writelines(",".join(row) + "\n" for row in zip(*text))
    except OSError as err:
        raise OSError(f"could not write trace to {path}: {err}") from err
    return path


def parse_trace_csv(path):
    """Read a trace CSV back into a dict of column lists."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: not a trace CSV; its header must be {TRACE_HEADER!r}")
    rows = [line.split(",") for line in lines[1:]]
    for line, row in zip(lines[1:], rows):
        if len(row) != len(TRACE_COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
    cols = {}
    for (name, cast), column in zip(TRACE_COLUMNS.items(),
                                    list(zip(*rows)) or [()] * len(TRACE_COLUMNS)):
        try:
            cols[name] = list(map(cast, column))
        except ValueError as err:
            raise ValueError(f"{path}: column {name}: {err}") from None
    return cols


def audit_trace_file(path, sigma=None, rtol=1e-9):
    """Re-check an emitted trace with `audit_invariants`, plus nonnegative and
    monotone counters.

    The audit runs at the sigma the trace records. A given ``sigma`` is only
    compared with it: a different value is reported as a failure.
    """
    cols = parse_trace_csv(path)
    sigmas = cols["sigma"]
    recorded = sigmas[0] if sigmas else 0.0
    failures = [f"row {i}: sigma {s!r} differs from row 0's {recorded!r}"
                for i, s in enumerate(sigmas) if s != recorded]
    if sigmas and sigma is not None and sigma != recorded:
        failures.append(f"sigma {sigma!r} was given, but the trace was certified "
                        f"at sigma {recorded!r}")
    trace = RunTrace(method=cols["method"][0] if cols["method"] else "", sigma=recorded)
    trace.k, trace.lhs, trace.rhs = cols["k"], cols["lhs"], cols["rhs"]
    trace.accept_tol, trace.seminorm_residual = cols["accept_tol"], cols["residual"]
    failures += audit_invariants(trace, recorded, rtol=rtol).failures
    failures += [f"row {i}: {name}={value} is not >= 0"
                 for name in ("inner_iters", "h_apps")
                 for i, value in enumerate(cols[name]) if not 0 <= value]
    h_apps = cols["h_apps"]
    return failures + [f"row {i}: h_apps decreased" for i in range(1, len(h_apps))
                       if h_apps[i] < h_apps[i - 1]]


def run_method(name, cfg, inst, norms):
    """Run one method on a fresh copy of the instance; returns a MethodResult.

    The problem, ``lam`` or ``lam1``, ``lam2`` and ``delta``, comes from the
    instance's ``params``, as it does for the reference and the dual bound; of
    ``cfg`` the method reads only ``iters``, ``inner_cap`` and `step_params`.
    """
    fresh = inst.fresh()
    H, D, f = fresh.H, fresh.D, fresh.f
    lam, lam1, lam2, delta = map(fresh.params.get, ("lam", "lam1", "lam2", "delta"))
    objective = fresh.objective
    x0 = np.zeros(fresh.n)
    y0 = np.zeros(D.rows)
    p = cfg.step_params()

    if name == "hpe-cp":
        oracle = LsqResolvent(H, f, p.tau, x0=x0)
        return inexact_cp_run(oracle, D, lambda v: clip(v, lam), p, x0, y0,
                              cfg.iters, inner_cap=cfg.inner_cap, objective=objective,
                              norm_K=norms["D"])
    if name == "implicit-cp":
        return implicit_cp_run(H, f, D, lam, p, x0, y0, cfg.iters, objective=objective)
    if name == "condat-vu":
        tau = 1.0 / norms["H"] ** 2
        theta = 0.9 * (1.0 / tau - norms["H"] ** 2 / 2.0) / norms["D"] ** 2
        return condat_vu_run(H, f, D, lam, tau, theta, x0, y0, cfg.iters,
                             norm_H=norms["H"], norm_D=norms["D"], objective=objective)
    if name == "explicit-cp":
        norm_K = float(np.sqrt(norms["H"] ** 2 + norms["D"] ** 2))
        return explicit_cp_run(H, f, D, lam, p.kappa, x0, np.zeros(fresh.m), y0,
                               cfg.iters, norm_K=norm_K, objective=objective)
    if name == "hpe-dy":
        oracle = LsqResolvent(H, f, p.gamma, x0=x0)
        return inexact_dy_run(oracle, lambda v: soft_threshold(v, p.gamma * lam1),
                              lambda x: _huber_forward(D, lam2, delta, x),
                              p, x0, cfg.iters, inner_cap=cfg.inner_cap,
                              objective=objective)
    if name == "implicit-dy":
        return implicit_dy_run(H, f, D, lam1, lam2, delta, x0, cfg.iters,
                               gamma=p.gamma, objective=objective)
    if name == "fb":
        return fb_run(H, f, D, lam1, lam2, delta, x0, cfg.iters,
                      norm_H=norms["H"], objective=objective)
    raise ValueError(f"unknown method {name!r}")


def _environment():
    """The software and hardware a run used, with the keys and meaning of the
    benchmark's environment block; outside the reproducibility contract."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    out_dir: Path
    summary: dict

    @property
    def certification_failed(self):
        return any(m.get("certification_failure") for m in self.summary["methods"].values())


def run_experiment(cfg):
    """Generate the instance, run every method, write traces + summary, audit.

    A certification failure aborts only the failing method; it is recorded in
    the summary and the experiment continues.
    """
    out_root = Path(cfg.out_dir or os.environ.get(OUT_ENV_VAR, "runs"))
    out_dir = out_root / cfg.experiment
    # the directory is made only once there is output to write, so a run that fails
    # leaves none; a place where it cannot be made fails here, before any work
    place = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not place.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(place))
    if not os.access(place, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(place))

    # wall time per phase; like wall_s, outside the reproducibility contract
    t = time.perf_counter()
    if cfg.family == "cp":
        inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, cfg.lam, kind=cfg.spectrum_kind)
    else:
        inst = make_dy_instance(cfg.m, cfg.n, cfg.seed, cfg.lam1, cfg.lam2, HUBER_DELTA,
                                kind=cfg.spectrum_kind)
    phases = {"generate_s": time.perf_counter() - t}
    t = time.perf_counter()
    norms = {"H": estimate_spectral_norm(inst.H, start=inst.gram.top_right_singular_vector()),
             "D": estimate_spectral_norm(inst.D, start=inst.D.top_right_singular_vector())}
    phases["norms_s"] = time.perf_counter() - t

    t = time.perf_counter()
    ref_best, ref_entry = reference_run(inst, cfg.step_params(), cfg.iters * cfg.ref_factor)
    phases["reference_s"] = time.perf_counter() - t

    summary = {
        "manifest": cfg.manifest(),
        "norms": norms,
        "reference": ref_entry,
        "methods": {},
        "phases": phases,
        "environment": _environment(),
    }
    result = ExperimentResult(config=cfg, out_dir=out_dir, summary=summary)

    candidates = [ref_best]
    runs = {}
    for name in cfg.methods:
        t0 = time.perf_counter()
        entry = {"certification_failure": None, "wall_s": None}
        try:
            mres = run_method(name, cfg, inst, norms)
        except CertificationError as err:
            entry["certification_failure"] = str(err)
            entry["wall_s"] = time.perf_counter() - t0
            summary["methods"][name] = entry
            continue
        entry["wall_s"] = time.perf_counter() - t0
        runs[name] = (mres, entry)
        if len(mres.trace):
            candidates.append(min(mres.trace.objective))

    t = time.perf_counter()
    reference = min(candidates)
    summary["reference"]["objective"] = reference
    summary["reference"]["certified_gap"] = reference - ref_entry["lower_bound"]

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (mres, entry) in runs.items():
        trace = mres.trace
        trace.reference_objective = reference
        if not cfg.emit_wall_times:
            trace.wall_ms = [0.0] * len(trace)
        path = emit_trace(trace, out_dir / f"{name}.csv")
        gaps = trace.objective_gap()
        entry.update({
            "trace": str(path),
            "iterations": len(trace),
            "final_objective": trace.objective[-1] if len(trace) else None,
            "final_gap": gaps[-1] if gaps else None,
            "total_h_apps": trace.h_applications[-1] if len(trace) else 0,
            "median_inner": float(np.median(trace.inner_iterations)) if len(trace) else None,
            "h_apps_at_gap": _apps_at_gap(gaps, trace.h_applications),
        })
        if name.startswith("hpe"):
            report = audit_invariants(trace, trace.sigma)
            entry["audit_ok"] = report.ok
            entry["audit_failures"] = report.failures[:10]
        summary["methods"][name] = entry

    phases["output_s"] = time.perf_counter() - t
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(cfg.manifest(), fh, indent=2, sort_keys=True)
    return result


def _apps_at_gap(gaps, h_apps):
    for gap, apps in zip(gaps, h_apps):
        if gap <= GAP_THRESHOLD:
            return apps
    return None


class _Parser(argparse.ArgumentParser):
    # bad arguments are one line and exit code 1 (not argparse's usage and
    # code 2), like every other bad input; 2 means certification failure here
    # and 3 a numerical failure
    def error(self, message):
        print(f"error: {message} (see {self.prog} -h)", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="hpesplit",
                     description="Inexact splitting benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment or a config file")
    run.add_argument("experiment", help=f"name ({', '.join(sorted(NAMED_EXPERIMENTS))}) "
                                        "or path to a key = value config file")
    run.add_argument("--m", type=int)
    run.add_argument("--n", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--iters", type=int)
    run.add_argument("--sigma", type=float)
    run.add_argument("--kappa", type=float)
    run.add_argument("--gamma", type=float)
    run.add_argument("--out", dest="out_dir")
    run.add_argument("--wall-times", action="store_true", default=None, dest="emit_wall_times",
                     help="emit measured per-row wall times (breaks bit-reproducibility)")

    audit = sub.add_parser("audit", help="audit an emitted trace CSV at the sigma it records")
    audit.add_argument("trace", help="path to a trace CSV")
    audit.add_argument("--rtol", type=float, default=1e-9)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "audit":
        try:
            failures = audit_trace_file(args.trace, rtol=args.rtol)
        except (ValueError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        if failures:
            for line in failures[:20]:
                print(line, file=sys.stderr)
            print(f"audit FAILED with {len(failures)} violations", file=sys.stderr)
            return 2
        print("audit passed")
        return 0

    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "experiment")}
    try:
        if args.experiment in NAMED_EXPERIMENTS:
            cfg = named_config(args.experiment, **overrides)
        elif Path(args.experiment).exists():
            cfg = config_from_file(args.experiment, **overrides)
        else:
            print(f"error: {args.experiment!r} is neither a named experiment nor a "
                  f"config file", file=sys.stderr)
            return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        # a non-finite value ends the run in a NumericalError that names where it
        # arose, so numpy's floating-point warnings would only repeat it
        with np.errstate(all="ignore"):
            result = run_experiment(cfg)
    except OSError as err:  # an unusable output place
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    print(f"experiment {cfg.experiment}: traces in {result.out_dir}")
    ref = result.summary["reference"]
    print(f"  reference: {ref['stop']} after {ref['iterations']} steps, "
          f"certified gap {ref['certified_gap']:.1e}")
    for name, entry in result.summary["methods"].items():
        if entry.get("certification_failure"):
            print(f"  {name}: CERTIFICATION FAILURE: {entry['certification_failure']}")
        else:
            gap = entry["final_gap"]
            print(f"  {name}: final gap {'none' if gap is None else format(gap, '.3e')}, "
                  f"h_apps {entry['total_h_apps']}, "
                  f"median inner {entry['median_inner']}")
    return 2 if result.certification_failed else 0


if __name__ == "__main__":
    sys.exit(main())
