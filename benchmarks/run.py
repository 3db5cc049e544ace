"""Benchmark for hpesplit: named workloads through ``cli.run_experiment``.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload desk-cp --seed 0 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --results benchmarks/BENCH_baseline.json

One run first warms up (one ``iters = 0`` pass of each experiment), then
repeats its workload (every experiment, end to end, as ``hpesplit run``
executes it) until ``--seconds`` is used up, at least twice, and reports
medians over the repeats. With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it first runs one untraced repeat, then traced repeats, and
prints the per-module metrics plus the tracing overhead. ``--workload all``
runs every workload both ways, one process each, and writes one combined file.

Every run checks the outputs. An operation is one requested method of one
experiment in one repeat; it fails on a ``CertificationError`` or
``NumericalError``, on ``audit_ok`` false for a certified method, on any
violation ``cli.audit_trace_file`` finds in an emitted certified CSV, on a CSV
whose rows or ``h_apps`` disagree with the summary, or on an objective gap
that is not finite or falls below zero (the reference must be a lower bound).
Every count (per-method iterations, ``H`` and ``D`` applications and CG
steps, and each CSV's sha256) must repeat exactly across the repeats of a run. A traced run also fails if
one of the workload's expected spans was never entered, or if the traced
``H``/``D`` applications disagree with the program's own counters. The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, with exactly the metrics and units
``BENCHMARK.json`` names; the exit code is 0 only when ``correct`` is true.
"""

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_REPEATS = 2
DEFAULT_SECONDS = 40

SPEC = ROOT / "BENCHMARK.json"


def load_program():
    """Import hpesplit from this checkout's sources, never from an installed copy."""
    package = SRC / "hpesplit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no hpesplit sources at {package}")
    sys.path.insert(0, str(SRC))
    import hpesplit
    if Path(hpesplit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported hpesplit from {hpesplit.__file__}, "
                         f"not from {package}")


def is_certified(method):
    return method.startswith("hpe")


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------

def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_method(cfg, entry, rec, reference):
    """Failures of one requested method's run and outputs (empty when it passed)."""
    from hpesplit import cli

    where = f"{cfg.experiment}/{rec.name if rec else '?'}"
    if rec is None:
        return [f"{where}: never ran"]
    if rec.error is not None:
        return [f"{where}: {type(rec.error).__name__}: {rec.error}"]
    if entry is None:
        return [f"{where}: missing from the summary"]
    if entry.get("certification_failure"):
        return [f"{where}: CertificationError: {entry['certification_failure']}"]
    failures = []
    if is_certified(rec.name):
        if not entry.get("audit_ok"):
            failures.append(f"{where}: audit_ok is false: {entry.get('audit_failures')}")
        violations = cli.audit_trace_file(entry["trace"], cfg.sigma)
        if violations:
            failures.append(f"{where}: {len(violations)} violations in the CSV, "
                            f"first: {violations[0]}")
    cols = cli.parse_trace_csv(entry["trace"])
    if len(cols["k"]) != cfg.iters:
        failures.append(f"{where}: CSV has {len(cols['k'])} rows, expected {cfg.iters}")
    elif not cols["h_apps"][-1] == entry["total_h_apps"] == rec.h_apps:
        failures.append(f"{where}: h_apps disagree: CSV {cols['h_apps'][-1]}, summary "
                        f"{entry['total_h_apps']}, counter {rec.h_apps}")
    # the reference must be a lower bound: no method may get below it
    floor = -1e-9 * max(1.0, abs(reference))
    gaps = np.asarray(cols["objective_gap"])
    if not np.all(np.isfinite(gaps)) or gaps.min(initial=0.0) < floor:
        failures.append(f"{where}: objective gaps not finite or below {floor:.3e} "
                        f"(min {gaps.min(initial=0.0):.6e})")
    return failures


def setup_time(tracer):
    return tracer.total("problems.generate") + tracer.total("linalg.norms")


def setup_only(cfg):
    """Run `cfg` with ``iters = 0`` through ``cli.run_experiment``; return its set-up time."""
    from hpesplit import cli
    from hpesplit.linalg import NumericalError
    from tracer import Tracer

    with Tracer(full=False) as probe:
        try:
            cli.run_experiment(replace(cfg, iters=0, out_dir=str(Path(cfg.out_dir) / "setup")))
        except NumericalError:
            pass   # set-up is done by then; the timed repeats record the failure
    return setup_time(probe)


def run_repeat(cfgs, full, setup_passes=0):
    """Run every experiment once under a tracer; return timings, counts and checks.

    Before each experiment, `setup_passes` extra runs of it with ``iters = 0``
    time its set-up (generation and norm estimation) again, through the same
    path, outside ``run_s``.
    """
    from hpesplit import cli
    from hpesplit.linalg import NumericalError
    from tracer import Tracer

    tracer = Tracer(full)
    run_s = 0.0
    setup_samples = {}
    failures = []
    failed = 0
    fingerprint = {}
    hpe_s = 0.0
    hpe_h_apps = 0
    origin = time.perf_counter()
    for cfg in cfgs:
        samples = setup_samples.setdefault(cfg.experiment, [])
        samples += [setup_only(cfg) for _ in range(setup_passes)]

        gc.collect()
        before = setup_time(tracer)
        with tracer:
            t0 = time.perf_counter()
            try:
                summary = cli.run_experiment(cfg).summary
            except NumericalError:
                # the method that raised is recorded by the tracer
                summary = {"methods": {}, "reference": {}}
            run_s += time.perf_counter() - t0
        samples.append(setup_time(tracer) - before)

        records = {r.name: r for r in tracer.records
                   if r.requested and r.experiment == cfg.experiment}
        for name in cfg.methods:
            rec, entry = records.get(name), summary["methods"].get(name)
            problems = check_method(cfg, entry, rec, summary["reference"].get("objective"))
            failures += problems
            if problems:
                failed += 1
                continue
            fingerprint[f"{cfg.experiment}/{name}"] = [
                rec.iters, rec.h_apps, rec.d_apps, rec.cg_steps, sha256(entry["trace"])]
            if is_certified(name):
                hpe_s += entry["wall_s"]
                hpe_h_apps += entry["total_h_apps"]

    methods = {}
    for rec in tracer.records:
        if not rec.requested:
            fingerprint[f"{rec.experiment}/reference:{rec.name}"] = [
                rec.iters, rec.h_apps, rec.d_apps, rec.cg_steps]
            continue
        m = methods.setdefault(rec.name, {"wall_s": 0.0, "iters": 0, "h_apps": 0, "d_apps": 0})
        m["wall_s"] += rec.end - rec.start
        m["iters"] += rec.iters
        m["h_apps"] += rec.h_apps
        m["d_apps"] += rec.d_apps

    rep = {
        "traced": full,
        "attempted": sum(len(cfg.methods) for cfg in cfgs),
        "failed": failed,
        "failures": failures,
        "fingerprint": fingerprint,
        "setup_samples": setup_samples,
        "e2e": {"run_s": run_s, "hpe_s": hpe_s, "hpe_h_apps": hpe_h_apps},
        "methods": methods,
    }
    if full:
        rep["layers"], layer_failures = layer_metrics(tracer, methods)
        rep["failures"] += layer_failures
        rep["spans"] = tracer.span_table(origin)
    return rep, tracer


def layer_metrics(tracer, methods):
    """Per-module metrics of one traced repeat, and failures of the tracing itself."""
    from tracer import PROX

    failures = []
    spans = tracer.spans
    reference_s = output_s = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        if name != "cli.run_experiment":
            continue
        children = [s for s in spans if s[3] == i]
        requested = [s for s in children
                     if s[0] == "cli.run_method" and s[4].startswith("method:")]
        norms = [s[2] for s in children if s[0] == "linalg.norms"]
        if requested:
            first = requested[0][1]
            reference_s += first - max([e for e in norms if e <= first], default=start)
            output_s += end - requested[-1][2]

    for name, m in methods.items():
        scope = f"method:{name}"
        m["self_s"] = tracer.self_time("cli.run_method", scope)
        for role, count in (("H", m["h_apps"]), ("D", m["d_apps"])):
            traced = tracer.calls(f"linalg.{role}.counted", scope)
            if traced != count:
                failures.append(f"{name}: traced {traced} counted {role} applications, "
                                f"the program counted {count}")

    certified = [r for r in tracer.records if r.requested and is_certified(r.name)
                 and r.error is None]
    driver_s = 0.0
    for name in {r.name for r in certified}:
        scope = f"method:{name}"
        # the certified outer loop lives in hpe.reduced_hpe_run (DR, DY) or, for
        # CP today, in the method itself
        if tracer.calls("hpe.driver", scope):
            driver_s += tracer.self_time("hpe.driver", scope)
        else:
            driver_s += tracer.self_time("cli.run_method", scope)
    inner = [i for r in certified for i in r.inner]
    iter_ms = [w for r in certified for w in r.wall_ms]

    def role(r):
        return {
            f"linalg.{r}.counted_apps": tracer.calls(f"linalg.{r}.counted"),
            f"linalg.{r}.counted_s": tracer.total(f"linalg.{r}.counted"),
            f"linalg.{r}.uncounted_apps": tracer.calls(f"linalg.{r}.uncounted"),
            f"linalg.{r}.uncounted_s": tracer.total(f"linalg.{r}.uncounted"),
            f"linalg.{r}.gbytes_computed": tracer.bytes.get(r, 0) / 1e9,
        }

    hpe_methods = [methods[n] for n in methods if is_certified(n)]
    layers = {
        "cli.reference_s": reference_s,
        "cli.output_s": output_s,
        **{f"methods.{group}.{key}": sum(m[key] for m in ms)
           for group, ms in (("hpe", hpe_methods), ("all", list(methods.values())))
           for key in ("wall_s", "self_s", "iters", "h_apps", "d_apps")},
        "hpe.driver_s": driver_s,
        "hpe.refinements_per_outer": sum(inner) / max(len(inner), 1),
        "hpe.first_try_accept_frac": sum(1 for i in inner if i == 0) / max(len(inner), 1),
        "hpe.audit_s": tracer.total("hpe.audit"),
        "hpe.iter_ms_p50": float(np.percentile(iter_ms, 50)) if iter_ms else 0.0,
        "hpe.iter_ms_p99": float(np.percentile(iter_ms, 99)) if iter_ms else 0.0,
        "hpe.iter_samples": len(iter_ms),
        "operators.set_target_calls": tracer.calls("operators.set_target"),
        "operators.set_target_s": tracer.total("operators.set_target"),
        "operators.refine_calls": tracer.calls("operators.refine"),
        "operators.refine_s": tracer.total("operators.refine"),
        "operators.prox_calls": sum(tracer.calls(f"operators.{p}") for p in PROX),
        "operators.prox_s": sum(tracer.total(f"operators.{p}") for p in PROX),
        **role("H"),
        **role("D"),
        "linalg.cg_solve_calls": tracer.calls("linalg.cg_solve"),
        "linalg.cg_steps": sum(r.cg_steps for r in tracer.records),
        "linalg.cg_solve_s": tracer.total("linalg.cg_solve"),
        "linalg.norms_s": tracer.total("linalg.norms"),
        "problems.generate_s": tracer.total("problems.generate"),
        "problems.objective_calls": tracer.calls("problems.objective"),
        "problems.objective_s": tracer.total("problems.objective"),
    }
    return layers, failures


# ---------------------------------------------------------------------------
# one run: repeats, determinism, metrics
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, out_dir):
    """Repeat `workload` for about `seconds`, at least `MIN_REPEATS` times."""
    cfgs = workload.configs(seed, out_dir)
    # warm-up: the first set-up in a process pays page faults on fresh large
    # arrays and BLAS thread start; every timed repeat should find them paid
    for cfg in cfgs:
        setup_only(cfg)
    start = time.perf_counter()
    repeats = []
    entered = set()
    while True:
        t0 = time.perf_counter()
        full = bool(trace) and len(repeats) > 0
        rep, tracer = run_repeat(cfgs, full, 0 if trace else workload.setup_passes)
        rep["duration_s"] = time.perf_counter() - t0
        repeats.append(rep)
        if full:
            entered |= tracer.entered()
        del tracer
        elapsed = time.perf_counter() - start
        if len(repeats) >= MIN_REPEATS and elapsed + rep["duration_s"] > seconds:
            break

    failures = [f for rep in repeats for f in rep["failures"]]
    first = repeats[0]["fingerprint"]
    for i, rep in enumerate(repeats[1:], 1):
        if rep["fingerprint"] != first:
            diff = sorted(k for k in set(first) | set(rep["fingerprint"])
                          if first.get(k) != rep["fingerprint"].get(k))
            failures.append(f"determinism: repeat {i} differs from repeat 0 in {diff}")

    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    if trace:
        missing = [s for s in workload.expected_spans if s not in entered]
        if missing:
            failures.append(f"tracing: spans never entered: {missing}")
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["bench.trace_overhead_s"] = (
            statistics.median(r["e2e"]["run_s"] for r in traced)
            - statistics.median(r["e2e"]["run_s"] for r in untraced))
    else:
        metrics = {"setup_s": sum(
            statistics.median(x for r in untraced for x in r["setup_samples"][cfg.experiment])
            for cfg in cfgs)}
        metrics.update({name: statistics.median(r["e2e"][name] for r in untraced)
                        for name in ("run_s", "hpe_s")})
        metrics["hpe_h_apps"] = untraced[0]["e2e"]["hpe_h_apps"]   # identical in every repeat
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
        "failures": failures,
        "metrics": metrics,
        "repeats": repeats,
    }


def units():
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result_line(correct, attempted, failed, metrics):
    unit = units()
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    })


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def print_report(res):
    print(f"workload {res['workload']} seed {res['seed']} trace {res['trace']}: "
          f"{len(res['repeats'])} repeats, {res['attempted']} operations, "
          f"{res['failed']} failed")
    unit = units()
    for name, value in res["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {unit[name]}")
    last = res["repeats"][-1]
    print(f"  per method (repeat {len(res['repeats']) - 1}):")
    for name, m in last["methods"].items():
        print(f"    {name:12s} " + "  ".join(f"{k} {v:.6g}" for k, v in m.items()))
    for line in res["failures"]:
        print(f"  FAILED: {line}")


def run_one(args):
    from workloads import WORKLOADS

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT / "runs" / f"{tag}-{os.getpid()}"
    try:
        res = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    res["environment"] = environment(args.seed)
    results = Path(args.results) if args.results else OUT / f"{tag}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
    print_report(res)
    print(f"  results: {results}")
    print(result_line(res["correct"], res["attempted"], res["failed"], res["metrics"]))
    return 0 if res["correct"] else 1


def run_all(args):
    """Every workload, untraced and traced, one process each; one combined file."""
    from workloads import WORKLOADS

    combined = {"environment": environment(args.seed), "seed": args.seed,
                "seconds": args.seconds, "workloads": {}}
    metrics = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            part = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace),
                                   "--results", str(part)], cwd=ROOT)
            if proc.returncode not in (0, 1) or not part.is_file():
                print(f"error: workload {name} trace {trace} exited with "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(part.read_text())
            res.pop("environment", None)
            combined["workloads"].setdefault(name, {})[f"trace{trace}"] = res
            metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
            correct &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
    results = Path(args.results) if args.results else OUT / f"BENCH_seed{args.seed}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    print(f"combined results: {results}")
    unit = units()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit[k.split(".", 1)[1]]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="desk-cp, desk-dy, full-cp, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="where to write the full results JSON "
                                           "(default: under .bench_out/)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_program()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS) + ['all']}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
