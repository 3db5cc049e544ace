"""Spans and counters around hpesplit's module boundaries, installed from outside.

Nothing in ``src/`` knows about this module. `Tracer.install` replaces each
traced function under every name the pipeline looks it up by (``cli`` and
``methods`` import ``clip``, ``cg_solve``, ``estimate_spectral_norm`` and
friends by name, so patching only the defining module would measure nothing),
wraps the methods of the classes that ``inst.H``, ``inst.D`` and the problem
instance actually have, and `Tracer.uninstall` puts every original back.

Every call is timed on a stack, so a span's self time (its duration minus the
time its child spans cover) is known when it closes. Calls are aggregated per
(scope, name), where the scope is the method being run ("setup", "reference",
"method:hpe-cp", ...). Coarse spans (experiments, set-up, methods, the driver,
audits, trace output) are also kept individually as (name, start, end, parent)
in memory and written with the results; storing the million-odd linear-map
applications of a desk run one by one would cost more memory than the program.

Two modes:

* ``full=False`` (the untraced end-to-end run) wraps only what the end-to-end
  metrics and the determinism check need: instance generation, norm estimation,
  ``run_method`` and a step counter on ``cg_solve``. These are a few dozen calls
  per experiment, plus one counter increment per CG solve.
* ``full=True`` (the traced run) wraps every boundary listed in `install`.
"""

import functools
import weakref
from time import perf_counter

from hpesplit import cli, hpe, linalg, methods, operators, problems
import hpesplit

MODULES = (hpesplit, linalg, operators, hpe, methods, problems, cli)

# spans that are stored one by one, not only aggregated
KEPT = frozenset({"cli.run_experiment", "problems.generate", "linalg.norms",
                  "cli.run_method", "hpe.driver", "hpe.audit", "cli.emit_trace"})

PROX = ("clip", "soft_threshold", "huber_gradient")


class MethodRecord:
    """One ``cli.run_method`` call: which method, whether requested, what it cost.

    Only numbers are kept, not the method's result, so the benchmark holds no
    more memory than the program would.
    """

    def __init__(self, experiment, name, requested):
        self.experiment = experiment
        self.name = name
        self.requested = requested
        self.instance = None   # the fresh ProblemInstance, while the method runs
        self.error = None
        self.start = self.end = None
        self.iters = 0
        self.h_apps = 0        # the program's own counters on the fresh H and D
        self.d_apps = 0
        self.cg_steps = 0
        self.inner = []        # refinements per outer iteration (requested methods)
        self.wall_ms = []      # the runner's per-iteration times, before cli zeroes them

    @property
    def label(self):
        return f"method:{self.name}" if self.requested else "reference"


class Tracer:
    def __init__(self, full):
        self.full = full
        self.stats = {}          # (scope, name) -> [calls, total_s, self_s]
        self.spans = []          # [name, start, end, parent_index, scope]
        self.bytes = {}          # role -> bytes of matrix entries read (dense, computed)
        self.roles = weakref.WeakKeyDictionary()   # linear map -> (role, bytes per apply)
        self.records = []        # MethodRecord, in call order
        self.scope = "setup"
        self._stack = []
        self._kept_top = None
        self._current = None     # MethodRecord of the run_method call in progress
        self._experiment_cfg = None
        self._patches = []

    # -- span bookkeeping ---------------------------------------------------

    def enter(self, name):
        now = perf_counter()
        idx = None
        if name in KEPT:
            idx = len(self.spans)
            self.spans.append([name, now, None, self._kept_top, self.scope])
            self._kept_top = idx
        self._stack.append([name, now, 0.0, idx])

    def exit(self):
        name, start, child, idx = self._stack.pop()
        end = perf_counter()
        dur = end - start
        key = (self.scope, name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx is not None:
            self.spans[idx][2] = end
            self._kept_top = self.spans[idx][3]

    def span(self, name, fn, after=None):
        """Wrap `fn` in a span; `after(result)` runs on its return value inside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out)
                return out
            finally:
                tracer.exit()
        return traced

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, home, attr, make):
        """Replace ``home.attr`` in every module that holds the same object."""
        original = getattr(home, attr)
        wrapped = make(original)
        for mod in MODULES:
            if getattr(mod, attr, None) is original:
                self._replace(mod, attr, wrapped)

    def _patch_method(self, cls, attr, make):
        # patch the class that defines the method, once, so a subclass that
        # inherits it is neither missed nor wrapped twice
        owner = next(c for c in cls.__mro__ if attr in c.__dict__)
        if (owner, attr) not in {(o, a) for o, a, _ in self._patches}:
            self._replace(owner, attr, make(owner.__dict__[attr]))

    def install(self):
        probe = problems.make_cp_instance(4, 4, 0, 1.0)
        instance_cls = type(probe)
        map_classes = {type(probe.H), type(probe.D)}

        self._patch_function(cli, "run_experiment", self._wrap_run_experiment)
        self._patch_function(cli, "run_method", self._wrap_run_method)
        for attr in ("make_cp_instance", "make_dy_instance"):
            self._patch_function(problems, attr, lambda fn: self.span(
                "problems.generate", fn, after=self._register_instance))
        self._patch_function(linalg, "estimate_spectral_norm",
                             lambda fn: self.span("linalg.norms", fn))
        self._patch_method(instance_cls, "fresh", self._wrap_fresh)
        self._patch_function(linalg, "cg_solve", self._wrap_cg_solve)
        if not self.full:
            return self

        self._patch_function(hpe, "reduced_hpe_run", lambda fn: self.span("hpe.driver", fn))
        self._patch_function(hpe, "audit_invariants", lambda fn: self.span("hpe.audit", fn))
        self._patch_function(cli, "emit_trace", lambda fn: self.span("cli.emit_trace", fn))
        for attr in PROX:
            self._patch_function(operators, attr,
                                 lambda fn, attr=attr: self.span(f"operators.{attr}", fn))
        self._patch_method(instance_cls, "objective",
                           lambda fn: self.span("problems.objective", fn))
        for attr in ("set_target", "refine"):
            self._patch_method(operators.LsqResolvent, attr,
                               lambda fn, attr=attr: self.span(f"operators.{attr}", fn))
        for cls in map_classes:
            for attr, kind in (("apply", "counted"), ("apply_adjoint", "counted"),
                               ("apply_uncounted", "uncounted"),
                               ("apply_adjoint_uncounted", "uncounted")):
                self._patch_method(cls, attr, lambda fn, kind=kind: self._wrap_apply(fn, kind))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers with bookkeeping beyond a span ----------------------------

    def _register(self, op, role):
        self.roles[op] = (role, 8 * op.rows * op.cols)

    def _register_instance(self, inst):
        self._register(inst.H, "H")
        self._register(inst.D, "D")

    def _wrap_fresh(self, fn):
        tracer = self

        @functools.wraps(fn)
        def fresh(inst):
            out = fn(inst)
            tracer._register_instance(out)
            if tracer._current is not None and tracer._current.instance is None:
                tracer._current.instance = out
            return out
        return fresh

    def _wrap_cg_solve(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer._current is not None:
                tracer._current.cg_steps += out[1]
            return out

        return self.span("linalg.cg_solve", counted) if self.full else counted

    def _wrap_apply(self, fn, kind):
        tracer = self
        roles = self.roles
        names = {role: f"linalg.{role}.{kind}" for role in ("H", "D", "other")}

        @functools.wraps(fn)
        def apply(op, *args, **kwargs):
            role, nbytes = roles.get(op, ("other", 0))
            tracer.bytes[role] = tracer.bytes.get(role, 0) + nbytes
            tracer.enter(names[role])
            try:
                return fn(op, *args, **kwargs)
            finally:
                tracer.exit()
        return apply

    def _wrap_run_experiment(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run_experiment(cfg):
            tracer._experiment_cfg = cfg
            tracer.scope = "setup"
            tracer.enter("cli.run_experiment")
            try:
                return fn(cfg)
            finally:
                tracer.scope = "output"
                tracer.exit()
                tracer._experiment_cfg = None
        return run_experiment

    def _wrap_run_method(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run_method(name, cfg, inst, norms):
            # the requested methods get the experiment's own config object;
            # anything else (today: the reference run) gets a modified copy
            rec = MethodRecord(cfg.experiment, name, requested=cfg is tracer._experiment_cfg)
            tracer.records.append(rec)
            outer_scope, outer_current = tracer.scope, tracer._current
            tracer.scope, tracer._current = rec.label, rec
            rec.start = perf_counter()
            tracer.enter("cli.run_method")
            try:
                result = fn(name, cfg, inst, norms)
                rec.iters = len(result.trace)
                if rec.requested:
                    rec.inner = list(result.trace.inner_iterations)
                    rec.wall_ms = list(result.trace.wall_ms)
                return result
            except Exception as err:
                rec.error = err
                raise
            finally:
                tracer.exit()
                rec.end = perf_counter()
                if rec.instance is not None:
                    rec.h_apps = rec.instance.H.total_count
                    rec.d_apps = rec.instance.D.total_count
                    rec.instance = None
                # whatever follows a requested method is output until the next one starts
                tracer.scope = "output" if rec.requested else outer_scope
                tracer._current = outer_current
        return run_method

    # -- queries ------------------------------------------------------------

    def calls(self, name, scope=None):
        return sum(v[0] for (s, n), v in self.stats.items()
                   if n == name and (scope is None or s == scope))

    def total(self, name, scope=None):
        return sum(v[1] for (s, n), v in self.stats.items()
                   if n == name and (scope is None or s == scope))

    def self_time(self, name, scope=None):
        return sum(v[2] for (s, n), v in self.stats.items()
                   if n == name and (scope is None or s == scope))

    def entered(self):
        return {n for (_, n), v in self.stats.items() if v[0] > 0}

    def span_table(self, origin):
        """Kept spans as rows [name, start_s, end_s, parent, scope] relative to `origin`."""
        return [[name, round(start - origin, 9), round(end - origin, 9), parent, scope]
                for name, start, end, parent, scope in self.spans]
