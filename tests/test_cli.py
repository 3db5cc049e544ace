import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from hpesplit import cli, methods
from hpesplit import reference as refsolve
from hpesplit.cli import (
    NAMED_EXPERIMENTS,
    ExperimentConfig,
    audit_trace_file,
    config_from_file,
    emit_trace,
    main,
    named_config,
    parse_trace_csv,
    run_experiment,
)
from hpesplit.hpe import RunTrace
from hpesplit.linalg import NumericalError, estimate_spectral_norm
from hpesplit.methods import CpParams, implicit_cp_run
from hpesplit.operators import LsqResolvent, clip, soft_threshold
from hpesplit.problems import ProblemInstance, make_cp_instance, make_dy_instance

ROOT = Path(__file__).resolve().parents[1]
HEADER = ("method,k,objective_gap,lhs,rhs,inner_iters,h_apps,wall_ms,accept_tol,residual,"
          "sigma")


def small_config(**overrides):
    base = dict(experiment="custom", family="cp", m=24, n=24, seed=3, lam=0.5,
                sigma=0.5, kappa=0.5, iters=30, ref_factor=3)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestEmitTrace:
    def make_trace(self):
        trace = RunTrace(method="demo", sigma=0.5)
        rng = np.random.default_rng(0)
        h = 0
        for k in range(3):
            h += int(rng.integers(1, 9))
            trace.append(k, float(rng.standard_normal()), 0.25 * k, 0.5 * k + 0.1,
                         k, h, 0.1 * k + 1.0 / 3.0, wall_ms=0.5 * k,
                         accept_tol=1e-14 * (1.0 + k / 7.0))
        trace.reference_objective = -2.0
        return trace

    def test_round_trip_lossless(self, tmp_path):
        trace = self.make_trace()
        path = emit_trace(trace, tmp_path / "demo.csv")
        cols = parse_trace_csv(path)
        assert cols["method"] == ["demo"] * 3
        assert cols["k"] == [0, 1, 2]
        for i in range(3):
            assert cols["objective_gap"][i] == trace.objective[i] - (-2.0)
            assert cols["lhs"][i] == trace.lhs[i]
            assert cols["rhs"][i] == trace.rhs[i]
            assert cols["inner_iters"][i] == trace.inner_iterations[i]
            assert cols["h_apps"][i] == trace.h_applications[i]
            assert cols["wall_ms"][i] == trace.wall_ms[i]
            assert cols["accept_tol"][i] == trace.accept_tol[i]
            assert cols["residual"][i] == trace.seminorm_residual[i]
        assert cols["sigma"] == [0.5] * 3
        # a baseline's trace has no sigma; its column is 0, like accept_tol
        trace.sigma = None
        assert parse_trace_csv(emit_trace(trace, tmp_path / "base.csv"))["sigma"] == [0.0] * 3

    def test_header_written_for_empty_trace(self, tmp_path):
        trace = RunTrace(method="empty")
        path = emit_trace(trace, tmp_path / "empty.csv")
        text = Path(path).read_text()
        assert text.splitlines() == [HEADER]

    def test_unwritable_path_raises_with_context(self, tmp_path):
        trace = self.make_trace()
        with pytest.raises(OSError, match="could not write trace"):
            emit_trace(trace, tmp_path / "missing-dir" / "x.csv")


class TestNamedExperiments:
    def test_named_parameters_pinned(self):
        # hard-coded table; a drift in the presets must fail loudly here
        expected = {
            "cp1-run1": {"lam": 20.0, "sigma": 0.01, "kappa": 0.5},
            "cp1-run2": {"lam": 1.0, "sigma": 0.95, "kappa": 0.1},
            "cp2": {"lam": 0.1, "sigma": 0.99, "kappa": 0.5},
            "dy-run1": {"lam1": 0.001, "lam2": 0.1, "sigma": 0.99},
            "dy-run2": {"lam1": 0.0001, "lam2": 0.1, "sigma": 0.99},
            "dy-run3": {"lam1": 0.0001, "lam2": 0.01, "sigma": 0.99},
        }
        for name, params in expected.items():
            cfg = named_config(name)
            for key, val in params.items():
                assert getattr(cfg, key) == val, f"{name}.{key}"

    def test_emitted_manifest_pins_parameters(self, tmp_path):
        cfg = named_config("cp1-run2", m=24, n=24, iters=5)
        result = run_experiment(replace(cfg, ref_factor=1, out_dir=str(tmp_path)))
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert (manifest["lam"], manifest["sigma"], manifest["kappa"]) == (1.0, 0.95, 0.1)
        assert manifest["spectrum_kind"] == "cosine"

    @pytest.mark.parametrize("name, overrides", [
        ("cp1-run2", {}),
        ("dy-run1", {"gamma": 2.0, "inner_cap": 50}),
    ], ids=["cp", "dy"])
    def test_manifest_rebuilds_config(self, tmp_path, name, overrides):
        cfg = named_config(name, m=24, n=24, iters=5, seed=4, **overrides)
        cfg = replace(cfg, ref_factor=1, out_dir=str(tmp_path), emit_wall_times=True)
        result = run_experiment(cfg)
        manifest = json.loads((result.out_dir / "manifest.json").read_text())
        assert ExperimentConfig(**manifest) == replace(cfg, out_dir=None,
                                                       emit_wall_times=False)
        summary = json.loads((result.out_dir / "summary.json").read_text())
        assert summary["manifest"] == manifest

    @pytest.mark.parametrize("name", sorted(NAMED_EXPERIMENTS))
    def test_named_experiments_run_end_to_end(self, name, tmp_path):
        cfg = named_config(name, m=24, n=96 if name == "cp2" else 24, iters=8, seed=2)
        result = run_experiment(replace(cfg, ref_factor=1, out_dir=str(tmp_path)))
        for method in cfg.methods:
            entry = result.summary["methods"][method]
            assert entry["certification_failure"] is None
            assert entry["iterations"] == 8
        # the generated H has top singular value 1; D's is 2 cos(pi / (2n))
        norms = result.summary["norms"]
        assert norms["H"] == pytest.approx(1.0, rel=1e-12)
        assert norms["D"] == pytest.approx(2 * np.cos(np.pi / (2 * cfg.n)), rel=1e-12)

    def test_desk_scale_dims(self):
        assert (named_config("cp1-run1").m, named_config("cp1-run1").n) == (200, 200)
        assert (named_config("cp2").m, named_config("cp2").n) == (100, 400)
        assert named_config("cp2").spectrum_kind == "power5"
        assert (named_config("dy-run1").m, named_config("dy-run1").n) == (200, 200)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_config("cp9")

    def test_overrides(self):
        cfg = named_config("cp1-run2", m=40, n=40, iters=10, seed=7)
        assert (cfg.m, cfg.n, cfg.iters, cfg.seed) == (40, 40, 10, 7)
        assert cfg.lam == 1.0


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# comment line\n"
            "family = cp\n"
            "m = 30\n"
            "n = 30\n"
            "lam = 0.25\n"
            "kappa = 0.5\n"
            "sigma = 0.5\n"
            "iters = 12\n"
            "methods = hpe-cp, implicit-cp\n"
        )
        cfg = config_from_file(path, seed=9)
        assert cfg.family == "cp"
        assert cfg.m == 30
        assert cfg.lam == 0.25
        assert cfg.methods == ("hpe-cp", "implicit-cp")
        assert cfg.seed == 9
        assert cfg.experiment == "exp"

    @pytest.mark.parametrize("methods, expected", [("hpe-cp,", ("hpe-cp",)),
                                                   ("hpe-cp, ,implicit-cp", ("hpe-cp", "implicit-cp")),
                                                   ("", ())])
    def test_empty_method_items_dropped(self, tmp_path, methods, expected):
        # an empty list is a reference-only run, as ExperimentConfig(methods=()) is
        path = tmp_path / "exp.cfg"
        path.write_text(f"family = cp\nlam = 0.5\nkappa = 0.5\nmethods = {methods}\n")
        assert config_from_file(path).methods == expected

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # a # starts a comment only at the start of a line or after whitespace
        path = tmp_path / "hash.cfg"
        path.write_text("experiment = run#1\nfamily = cp\nlam = 0.5\nkappa = 0.5\n"
                        "m = 10\nn = 10\niters = 5\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "run#1" / "summary.json").exists()
        assert not (tmp_path / "out" / "run").exists()

    def test_hash_after_whitespace_starts_a_comment(self, tmp_path):
        path = tmp_path / "note.cfg"
        path.write_text("# first\nfamily = cp\nlam = 0.5  # note\nkappa = 0.25\t# tab\n"
                        "  # indented\n")
        cfg = config_from_file(path)
        assert (cfg.lam, cfg.kappa) == (0.5, 0.25)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("family cp\n")
        with pytest.raises(ValueError, match="key = value"):
            config_from_file(path)

    def test_unknown_key_rejected_with_line(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text("family = cp\nlam = 0.5\nbogus = 3\n")
        with pytest.raises(ValueError, match=r"typo\.cfg:3: unknown key 'bogus'"):
            config_from_file(path)
        assert main(["run", str(path)]) == 1
        assert "unknown key 'bogus'" in capsys.readouterr().err

    def test_zero_inner_cap_rejected(self, tmp_path, capsys):
        path = tmp_path / "nocap.cfg"
        path.write_text("family = cp\nlam = 0.5\ninner_cap = 0\n")
        assert main(["run", str(path)]) == 1
        assert "inner_cap must be >= 1" in capsys.readouterr().err

    def test_unknown_method_rejected_at_parse_time(self, tmp_path, capsys):
        path = tmp_path / "bad-method.cfg"
        path.write_text("family = cp\nlam = 0.5\nmethods = hpe-cp, typo-method\n")
        with pytest.raises(ValueError, match="unknown methods"):
            config_from_file(path)
        assert main(["run", str(path)]) == 1

    def test_wall_times_flag_emits_nonzero_times(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path), emit_wall_times=True)
        result = run_experiment(cfg)
        cols = parse_trace_csv(result.summary["methods"]["implicit-cp"]["trace"])
        assert any(w > 0 for w in cols["wall_ms"])

    @pytest.mark.parametrize("family, params, methods", [
        ("cp", {"lam": 0.5, "kappa": 0.5}, ("hpe-cp", "implicit-cp", "condat-vu", "explicit-cp")),
        ("dy", {"lam1": 0.001, "lam2": 0.1}, ("hpe-dy", "implicit-dy", "fb")),
    ], ids=["cp", "dy"])
    def test_methods_default_to_the_family(self, family, params, methods):
        assert ExperimentConfig(family=family, **params).methods == methods
        # an explicit list stays as given, the empty one (reference only) too
        assert ExperimentConfig(family=family, methods=methods[1:], **params).methods \
            == methods[1:]
        assert ExperimentConfig(family=family, methods=(), **params).methods == ()
        for name, preset in NAMED_EXPERIMENTS.items():
            if preset["family"] == family:
                assert named_config(name).methods == methods, name

    def test_dy_config_without_methods_runs_every_dy_method(self, tmp_path, capsys):
        path = tmp_path / "dy-default.cfg"
        path.write_text("family = dy\nm = 20\nn = 20\nlam1 = 0.001\nlam2 = 0.1\niters = 10\n")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        run_dir = tmp_path / "out" / "dy-default"
        assert sorted(p.name for p in run_dir.glob("*.csv")) == [
            "fb.csv", "hpe-dy.csv", "implicit-dy.csv"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["methods"] == ["hpe-dy", "implicit-dy", "fb"]

    @pytest.mark.parametrize("source", ["named", "file", "file-key"])
    def test_wall_times_through_main(self, tmp_path, capsys, source):
        # the flag is an override like --seed, and a config file's own
        # emit_wall_times = true holds when the flag is not given
        out = tmp_path / "out"
        args = ["--m", "20", "--n", "20", "--iters", "10", "--out", str(out)]
        if source == "named":
            experiment, trace = "cp1-run2", out / "cp1-run2" / "implicit-cp.csv"
        else:
            experiment, trace = tmp_path / "dy.cfg", out / "dy" / "implicit-dy.csv"
            experiment.write_text("family = dy\nlam1 = 0.001\nlam2 = 0.1\n"
                                  + ("emit_wall_times = true\n" if source == "file-key" else ""))
        assert main(["run", str(experiment), *args]) == 0
        assert any(parse_trace_csv(trace)["wall_ms"]) == (source == "file-key")
        assert main(["run", str(experiment), *args, "--wall-times"]) == 0
        assert any(w > 0 for w in parse_trace_csv(trace)["wall_ms"])


class TestRunExperiment:
    def test_summary_and_traces(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path))
        result = run_experiment(cfg)
        summary = result.summary
        assert set(summary["methods"]) == set(cfg.methods)
        for name in cfg.methods:
            entry = summary["methods"][name]
            assert entry["certification_failure"] is None
            assert entry["iterations"] == cfg.iters
            trace_path = Path(entry["trace"])
            assert trace_path.exists()
            cols = parse_trace_csv(trace_path)
            # totals in the summary equal the final h_apps of each trace
            assert entry["total_h_apps"] == cols["h_apps"][-1]
            assert all(b >= a for a, b in zip(cols["h_apps"], cols["h_apps"][1:]))
        assert (result.out_dir / "summary.json").exists()
        assert (result.out_dir / "manifest.json").exists()

    def test_reference_below_all_finals(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path), iters=60)
        result = run_experiment(cfg)
        ref = result.summary["reference"]["objective"]
        for entry in result.summary["methods"].values():
            assert ref <= entry["final_objective"] + 1e-9 * (1 + abs(ref))

    def test_gaps_nonnegative(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path))
        result = run_experiment(cfg)
        for name in cfg.methods:
            cols = parse_trace_csv(result.summary["methods"][name]["trace"])
            assert min(cols["objective_gap"]) >= -1e-9

    def test_zero_iterations_valid_headers(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path), iters=0, ref_factor=1)
        result = run_experiment(cfg)
        for name in cfg.methods:
            cols = parse_trace_csv(result.summary["methods"][name]["trace"])
            assert cols["k"] == []

    def test_deterministic_csvs(self, tmp_path):
        cfg_a = small_config(out_dir=str(tmp_path / "a"))
        cfg_b = small_config(out_dir=str(tmp_path / "b"))
        res_a = run_experiment(cfg_a)
        res_b = run_experiment(cfg_b)
        for name in cfg_a.methods:
            bytes_a = Path(res_a.summary["methods"][name]["trace"]).read_bytes()
            bytes_b = Path(res_b.summary["methods"][name]["trace"]).read_bytes()
            assert bytes_a == bytes_b

    def test_hpe_audits_recorded(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert result.summary["methods"]["hpe-cp"]["audit_ok"] is True

    def test_dy_family(self, tmp_path):
        cfg = ExperimentConfig(experiment="custom", family="dy", m=20, n=20, seed=1,
                               lam1=0.01, lam2=0.1, sigma=0.8, iters=25, ref_factor=3,
                               methods=("hpe-dy", "implicit-dy", "fb"),
                               out_dir=str(tmp_path))
        result = run_experiment(cfg)
        assert set(result.summary["methods"]) == {"hpe-dy", "implicit-dy", "fb"}
        assert result.summary["methods"]["hpe-dy"]["audit_ok"] is True

    def test_certification_failure_recorded_not_fatal(self, tmp_path, monkeypatch):
        # force the certified method to fail by capping its refinements at zero;
        # the experiment must still finish and record the failure
        import hpesplit.cli as cli_mod
        cfg = small_config(out_dir=str(tmp_path), sigma=0.0)
        original = cli_mod.inexact_cp_run

        def capped(oracle, K, j, p, x0, y0, iters, **kw):
            kw["inner_cap"] = 1
            return original(oracle, K, j, p, x0, y0, iters, **kw)

        monkeypatch.setattr(cli_mod, "inexact_cp_run", capped)
        result = run_experiment(cfg)
        entry = result.summary["methods"]["hpe-cp"]
        assert entry["certification_failure"] is not None
        assert result.summary["methods"]["implicit-cp"]["certification_failure"] is None
        assert result.certification_failed


class TestRunMethod:
    """`run_method` builds each method from the instance it is given: on an instance
    whose weights are not the config's, it matches the runner called with the
    instance's weights."""

    @staticmethod
    def norms(inst):
        return {"H": estimate_spectral_norm(inst.H), "D": estimate_spectral_norm(inst.D)}

    @staticmethod
    def cp_runs(inst, cfg, norms):
        H, D, f, lam, p = inst.H, inst.D, inst.f, inst.params["lam"], cfg.step_params()
        x0, y0, iters = np.zeros(inst.n), np.zeros(D.rows), cfg.iters
        tau = 1.0 / norms["H"] ** 2
        theta = 0.9 * (1.0 / tau - norms["H"] ** 2 / 2.0) / norms["D"] ** 2
        norm_K = float(np.sqrt(norms["H"] ** 2 + norms["D"] ** 2))
        return {
            "hpe-cp": lambda: methods.inexact_cp_run(
                LsqResolvent(H, f, p.tau, x0=x0), D, lambda v: clip(v, lam), p, x0, y0,
                iters, inner_cap=cfg.inner_cap, norm_K=norms["D"]),
            "implicit-cp": lambda: implicit_cp_run(H, f, D, lam, p, x0, y0, iters),
            "condat-vu": lambda: methods.condat_vu_run(
                H, f, D, lam, tau, theta, x0, y0, iters, norm_H=norms["H"],
                norm_D=norms["D"]),
            "explicit-cp": lambda: methods.explicit_cp_run(
                H, f, D, lam, p.kappa, x0, np.zeros(inst.m), y0, iters, norm_K=norm_K),
        }

    @staticmethod
    def dy_runs(inst, cfg, norms):
        H, D, f, p = inst.H, inst.D, inst.f, cfg.step_params()
        lam1, lam2, delta = (inst.params[k] for k in ("lam1", "lam2", "delta"))
        x0, iters = np.zeros(inst.n), cfg.iters
        return {
            "hpe-dy": lambda: methods.inexact_dy_run(
                LsqResolvent(H, f, p.gamma, x0=x0), lambda v: soft_threshold(v, p.gamma * lam1),
                lambda x: methods._huber_forward(D, lam2, delta, x), p, x0, iters,
                inner_cap=cfg.inner_cap),
            "implicit-dy": lambda: methods.implicit_dy_run(H, f, D, lam1, lam2, delta, x0,
                                                           iters, gamma=p.gamma),
            "fb": lambda: methods.fb_run(H, f, D, lam1, lam2, delta, x0, iters,
                                         norm_H=norms["H"]),
        }

    @pytest.mark.parametrize("name", ["hpe-cp", "implicit-cp", "condat-vu", "explicit-cp"])
    def test_cp_method_solves_the_instance(self, name):
        cfg = named_config("cp1-run2", m=30, n=30, iters=100)
        inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, 0.3, kind=cfg.spectrum_kind)
        assert inst.params["lam"] != cfg.lam
        norms = self.norms(inst)
        direct = self.cp_runs(inst.fresh(), cfg, norms)[name]()
        assert np.array_equal(cli.run_method(name, cfg, inst, norms).final_x, direct.final_x)

    @pytest.mark.parametrize("name", ["hpe-dy", "implicit-dy", "fb"])
    def test_dy_method_solves_the_instance(self, name):
        cfg = named_config("dy-run1", m=30, n=30, iters=40)
        inst = make_dy_instance(cfg.m, cfg.n, cfg.seed, cfg.lam1, cfg.lam2, 0.05,
                                kind=cfg.spectrum_kind)
        assert inst.params["delta"] != cli.HUBER_DELTA
        norms = self.norms(inst)
        direct = self.dy_runs(inst.fresh(), cfg, norms)[name]()
        assert np.array_equal(cli.run_method(name, cfg, inst, norms).final_x, direct.final_x)

    def test_unknown_method_rejected(self):
        cfg = named_config("cp1-run2", m=10, n=10, iters=1)
        inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, cfg.lam)
        with pytest.raises(ValueError, match="unknown method 'newton'"):
            cli.run_method("newton", cfg, inst, self.norms(inst))


class TestReference:
    @pytest.mark.parametrize("name", sorted(NAMED_EXPERIMENTS))
    def test_reference_cg_takes_no_steps(self, name, tmp_path, monkeypatch):
        cfg = named_config(name, iters=10)
        implicit = "implicit-cp" if cfg.family == "cp" else "implicit-dy"
        cfg = replace(cfg, methods=(implicit,), out_dir=str(tmp_path))
        solve, run = methods.cg_solve, cli.run_method
        solves, first_requested = [], []  # solves as (start, solution, steps)

        def spy_solve(apply, b, x0=None, **kwargs):
            x, steps = solve(apply, b, x0=x0, **kwargs)
            solves.append((x0, x, steps))
            return x, steps

        def spy_run(*args, **kwargs):
            first_requested.append(len(solves))
            return run(*args, **kwargs)

        monkeypatch.setattr(methods, "cg_solve", spy_solve)
        monkeypatch.setattr(cli, "run_method", spy_run)
        iterations = run_experiment(cfg).summary["reference"]["iterations"]
        reference, requested = solves[:first_requested[0]], solves[first_requested[0]:]
        # the closed form stands in for CG; CG checks it once per checkpoint
        # chunk, at the chunk's first step, and takes no step
        chunk = refsolve.REFERENCE_CHUNK
        assert len(reference) == -(-iterations // chunk) >= 1
        assert all(steps == 0 for *_, steps in reference)
        # the requested baseline starts CG at its previous iterate, as before
        assert len(requested) == cfg.iters and requested[0][2] > 0
        for (_, previous, _), (start, _, _) in zip(requested, requested[1:]):
            assert start is previous

    @staticmethod
    def bound_config(family, kind, **overrides):
        if family == "cp":
            return small_config(spectrum_kind=kind, m=30, n=40, seed=7, iters=40,
                                **overrides)
        return ExperimentConfig(**{
            **dict(family="dy", m=30, n=40, seed=7, lam1=0.01, lam2=0.1, sigma=0.8,
                   iters=40, ref_factor=3, spectrum_kind=kind,
                   methods=("hpe-dy", "implicit-dy", "fb")),
            **overrides})

    @pytest.mark.parametrize("family", ["cp", "dy"])
    @pytest.mark.parametrize("kind", ["cosine", "power5"])
    def test_lower_bound_below_every_row(self, family, kind, tmp_path):
        cfg = self.bound_config(family, kind, out_dir=str(tmp_path))
        reference = run_experiment(cfg).summary["reference"]
        bound, objective = reference["lower_bound"], reference["objective"]
        assert reference["certified_gap"] == objective - bound
        assert bound <= objective
        for name in cfg.methods:
            cols = parse_trace_csv(tmp_path / cfg.experiment / f"{name}.csv")
            assert bound <= objective + min(cols["objective_gap"])

    @pytest.mark.parametrize("family", ["cp", "dy"])
    @pytest.mark.parametrize("kind", ["cosine", "power5"])
    def test_lower_bound_tight_after_a_long_reference(self, family, kind, tmp_path):
        cfg = self.bound_config(family, kind, ref_factor=100, methods=(),
                                out_dir=str(tmp_path))
        reference = run_experiment(cfg).summary["reference"]
        # the bound meets the objective to rounding once the reference converged
        assert abs(reference["certified_gap"]) <= 1e-9

    def test_reference_stops_on_its_certificate(self, tmp_path):
        cfg = named_config("dy-run1", iters=1000, methods=(), out_dir=str(tmp_path))
        reference = run_experiment(cfg).summary["reference"]
        assert reference["stop"] == "certificate"
        assert reference["cap"] == 10_000
        assert reference["iterations"] < reference["cap"]
        assert reference["iterations"] % refsolve.REFERENCE_CHUNK == 0
        assert reference["certified_gap"] <= refsolve.REFERENCE_GAP
        assert reference["extrapolations"] > 0
        assert (reference["plain_steps"] + reference["extrapolations"] + reference["resets"]
                == reference["iterations"])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["dy-run1", "dy-run2", "dy-run3"])
    def test_dy_reference_stops_on_its_certificate(self, name, seed, tmp_path):
        cfg = named_config(name, iters=1000, seed=seed, methods=(), out_dir=str(tmp_path))
        reference = run_experiment(cfg).summary["reference"]
        assert reference["stop"] == "certificate"
        assert reference["certified_gap"] <= refsolve.REFERENCE_GAP
        assert reference["iterations"] < reference["cap"]

    def test_reference_reports_its_cap(self, tmp_path):
        # the polished point of the cap's checkpoint leaves a gap of 1.8 here
        cfg = named_config("cp1-run2", iters=5, out_dir=str(tmp_path))
        reference = run_experiment(cfg).summary["reference"]
        assert reference["stop"] == "cap"
        assert reference["iterations"] == reference["cap"] == 50

    @pytest.mark.parametrize("iters", [0, 25])
    def test_objective_once_per_checkpoint(self, iters, tmp_path, monkeypatch):
        calls = []
        objective = ProblemInstance.objective

        def counting(inst, x):
            calls.append(np.array(x))
            return objective(inst, x)

        monkeypatch.setattr(ProblemInstance, "objective", counting)
        cfg = named_config("cp1-run2", m=20, n=20, iters=iters, methods=(),
                           out_dir=str(tmp_path))
        reference = run_experiment(cfg).summary["reference"]
        # one call per checkpoint plus one per polish: after iteration 100 and at its
        # polished point, which certifies; only x0 at a cap of 0
        chunk = refsolve.REFERENCE_CHUNK
        checkpoints = len(range(chunk, reference["iterations"], chunk)) + 1
        assert len(calls) == checkpoints + reference["polishes"] == (2 if iters else 1)
        if not iters:
            inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, cfg.lam, kind=cfg.spectrum_kind)
            x0 = np.zeros(cfg.n)
            assert reference["iterations"] == reference["cap"] == 0
            assert not calls[0].any()
            assert reference["objective"] == inst.objective(x0)
            assert reference["lower_bound"] == inst.lower_bound(x0)

    @pytest.mark.parametrize("name", ["cp1-run2", "dy-run1"])
    def test_non_finite_checkpoint_objective_raises(self, name, tmp_path, monkeypatch):
        monkeypatch.setattr(ProblemInstance, "objective", lambda inst, x: float("nan"))
        cfg = named_config(name, m=20, n=20, iters=5, methods=(), out_dir=str(tmp_path))
        method = "implicit-cp" if cfg.family == "cp" else "implicit-dy"
        with pytest.raises(NumericalError, match=f"{method} reference: objective nan "
                                                 "at iteration 50"):
            run_experiment(cfg)

    def test_checkpoints_do_not_grow_with_the_cap(self, tmp_path):
        # a cap of 10^8 steps certifies after 200; the checkpoints come lazily,
        # so memory does not grow with the cap
        cfg = named_config("dy-run1", m=20, n=20, iters=10**7, methods=(),
                           out_dir=str(tmp_path))
        tracemalloc.start()
        try:
            reference = run_experiment(cfg).summary["reference"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reference["stop"] == "certificate" and reference["cap"] == 10**8
        assert peak <= 10 * 2**20

    @staticmethod
    def spied_cp_steps(cfg, monkeypatch):
        """The CP reference entry and its runs between restarts, each as
        (CpParams, solves, steps): the set of inner solves its steps were given,
        and a list of (state, next state, cg_steps)."""
        factory = refsolve._implicit_cp_step
        runs = []

        def spy(H, f, D, lam, p, *args, **kwargs):
            step, solves, steps = factory(H, f, D, lam, p, *args, **kwargs), set(), []
            runs.append((p, solves, steps))

            def spied(state, solve):
                solves.add(solve)
                state_next, cg_steps = step(state, solve)
                steps.append((state, state_next, cg_steps))
                return state_next, cg_steps
            return spied

        monkeypatch.setattr(refsolve, "_implicit_cp_step", spy)
        return run_experiment(cfg).summary["reference"], runs

    @staticmethod
    def replay_checkpoints(cfg, runs):
        """Each checkpoint followed by a step as (restart, state, anchor): whether
        its gap is at most RESTART_DECAY times the gap at the last restart, its
        state, and the state at the last restart before it."""
        inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, cfg.lam, kind=cfg.spectrum_kind)
        steps = [step for _, _, run in runs for step in run]
        anchor, restart_gap, checkpoints = steps[0][0], np.inf, []
        for _, state, _ in steps[refsolve.REFERENCE_CHUNK - 1:-1:refsolve.REFERENCE_CHUNK]:
            gap = inst.objective(state[0]) - inst.lower_bound(state[0])
            restart = gap <= refsolve.RESTART_DECAY * restart_gap
            checkpoints.append((restart, state, anchor))
            if restart:
                anchor, restart_gap = state, gap
        return checkpoints

    def test_restart_continues_from_the_current_iterate(self, tmp_path, monkeypatch):
        cfg = named_config("cp1-run2", m=30, n=30, iters=25, methods=(), out_dir=str(tmp_path))
        reference, runs = self.spied_cp_steps(cfg, monkeypatch)
        assert reference["restarts"] == len(runs) - 1 >= 1
        assert runs[0][0].kappa == cfg.kappa and runs[1][0].kappa != cfg.kappa
        steps = [step for _, _, run in runs for step in run]
        assert len(steps) == reference["iterations"] == 250
        assert not steps[0][0][0].any() and not steps[0][0][1].any()
        for (_, state, _), (start, _, _) in zip(steps, steps[1:]):
            assert start is state

    def test_restart_when_the_gap_falls_by_the_decay(self, tmp_path, monkeypatch):
        cfg = named_config("cp1-run2", iters=1000, methods=(), out_dir=str(tmp_path))
        reference, runs = self.spied_cp_steps(cfg, monkeypatch)
        restarts = [restart for restart, *_ in self.replay_checkpoints(cfg, runs)]
        assert restarts[0] and not all(restarts)
        # a new run, so a new kappa, starts exactly after each restart
        lengths = np.cumsum([len(steps) for *_, steps in runs[:-1]])
        chunk = refsolve.REFERENCE_CHUNK
        assert [i for i, restart in enumerate(restarts, 1) if restart] == list(lengths // chunk)
        assert all(length % chunk == 0 for length in lengths)
        assert reference["restarts"] == sum(restarts) == len(runs) - 1
        assert reference["kappa"] == runs[-1][0].kappa

    def test_restart_sets_the_primal_weight(self, tmp_path, monkeypatch):
        cfg = named_config("cp1-run2", iters=1000, methods=(), out_dir=str(tmp_path))
        _, runs = self.spied_cp_steps(cfg, monkeypatch)
        restarts = [(state, anchor) for restart, state, anchor
                    in self.replay_checkpoints(cfg, runs) if restart]
        assert len(restarts) == len(runs) - 1 > 1
        for ((x, y), (x_r, y_r)), run, after in zip(restarts, runs, runs[1:]):
            expected = np.sqrt(run[0].kappa * np.linalg.norm(y - y_r) / np.linalg.norm(x - x_r))
            assert after[0].kappa == expected

    def test_closed_form_follows_each_new_kappa(self, monkeypatch, tmp_path):
        cfg = named_config("cp1-run2", iters=50, methods=(), out_dir=str(tmp_path))
        reference, runs = self.spied_cp_steps(cfg, monkeypatch)
        assert reference["iterations"] == 500 and reference["restarts"] >= 1
        assert len({p.kappa for p, *_ in runs}) > 1
        inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, cfg.lam, kind=cfg.spectrum_kind)
        probe = np.random.default_rng(0).standard_normal(cfg.n)
        for p, solves, steps in runs:
            (solve,) = solves
            x, cg_steps = solve(probe)
            assert np.array_equal(x, inst.gram.resolvent(p.tau)(probe)) and cg_steps == 0
            assert max(cg_steps for *_, cg_steps in steps) == 0

    @pytest.mark.parametrize("name", ["cp1-run1", "cp1-run2", "cp2"])
    def test_cp_stream_follows_the_baseline(self, name):
        # before its first restart the stream is implicit-cp at the same kappa,
        # with the closed form in place of CG started at the previous iterate
        cfg = named_config(name)
        inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, cfg.lam, kind=cfg.spectrum_kind)
        x0, entry = np.zeros(cfg.n), {"kappa": cfg.kappa, "restarts": 0}
        stream = list(islice(refsolve._restarted_cp(inst.fresh(), cfg.step_params(), x0,
                                                    entry), 100))
        baseline = implicit_cp_run(inst.H, inst.f, inst.D, cfg.lam,
                                   CpParams.from_kappa(cfg.kappa), x0, np.zeros(inst.D.rows),
                                   100, record_invariants=True)
        # the stream yields (x, y); a baseline iterate is x and y end to end
        worst = max(np.linalg.norm(part - xy[cut]) / np.linalg.norm(xy[cut])
                    for state, xy in zip(stream, baseline.trace.iterates[1:])
                    for part, cut in zip(state, (np.s_[:cfg.n], np.s_[cfg.n:])))
        assert worst <= 1e-6
        assert entry == {"kappa": cfg.kappa, "restarts": 0}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cp_reference_stops_on_its_certificate(self, seed, tmp_path):
        cfg = named_config("cp1-run2", iters=1000, seed=seed, methods=(),
                           out_dir=str(tmp_path))
        reference = run_experiment(cfg).summary["reference"]
        assert reference["stop"] == "certificate"
        assert reference["certified_gap"] <= refsolve.REFERENCE_GAP
        assert reference["restarts"] >= 1 and reference["kappa"] > 0

    def test_phases_recorded(self, tmp_path):
        summary = run_experiment(small_config(out_dir=str(tmp_path))).summary
        assert set(summary["phases"]) == {"generate_s", "norms_s", "reference_s", "output_s"}
        assert all(value >= 0.0 for value in summary["phases"].values())
        on_disk = json.loads((tmp_path / "custom" / "summary.json").read_text())
        assert on_disk["phases"] == summary["phases"]

    def test_environment_without_a_blas_config(self, monkeypatch):
        # numpy builds whose show_config takes no mode record no BLAS name or version
        def show_config(mode=None):
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")
        monkeypatch.setattr(np, "show_config", show_config)
        assert cli._environment()["blas"] == {"name": None, "version": None}

    def test_environment_recorded(self, tmp_path):
        environment = run_experiment(small_config(out_dir=str(tmp_path))).summary["environment"]
        assert set(environment) == {"python", "numpy", "blas", "thread_env", "cpu_count"}
        assert environment["numpy"] == np.__version__
        assert set(environment["blas"]) == {"name", "version"}
        assert set(environment["thread_env"]) == {
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
        assert environment["cpu_count"] == os.cpu_count()


class TestTraceAudit:
    def test_accepted_rows_pass(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path))
        result = run_experiment(cfg)
        path = result.summary["methods"]["hpe-cp"]["trace"]
        assert audit_trace_file(path, sigma=cfg.sigma) == []

    def test_detects_violation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\n"
                        "x,0,1.0,5.0,1.0,1,10,0,0,1.0,0.5\n"
                        "x,1,1.0,0.0,1.0,1,5,0,0,1.0,0.5\n")
        failures = audit_trace_file(path)
        assert any(f.startswith("k=0: acceptance violated") for f in failures), failures
        assert "row 1: h_apps decreased" in failures

    def test_exact_rule_without_slack(self, tmp_path, capsys):
        # the runner accepts lhs <= sigma*rhs + accept_tol; a small step leaves
        # rtol * max(rhs, residual) as the only rounding allowance, far below
        # the former flat rtol * max(rhs, 1)
        sigma, rhs = 0.5, 1e-3
        lhs = sigma * rhs + 5e-10
        assert lhs <= sigma * rhs + 1e-9 * max(rhs, 1.0)
        path = tmp_path / "slack.csv"
        path.write_text(HEADER + f"\nx,0,1.0,{lhs!r},{rhs!r},1,10,0,0,{rhs!r},{sigma!r}\n")
        failures = audit_trace_file(path)
        assert len(failures) == 1 and failures[0].startswith("k=0: acceptance violated")

        path.write_text(HEADER + f"\nx,0,1.0,0.0,{rhs!r},1,10,0,0,{3 * rhs!r},{sigma!r}\n")
        assert main(["audit", str(path)]) == 2
        assert "k=0: two-sided estimate violated" in capsys.readouterr().err

    def test_given_sigma_must_match_the_recorded_one(self, tmp_path):
        cfg = named_config("cp1-run2", m=24, n=24, iters=10, seed=1)
        result = run_experiment(replace(cfg, ref_factor=1, out_dir=str(tmp_path)))
        path = result.summary["methods"]["hpe-cp"]["trace"]
        assert parse_trace_csv(path)["sigma"] == [0.95] * 10
        assert audit_trace_file(path, 0.95) == audit_trace_file(path) == []
        assert audit_trace_file(path, 0.5) == [
            "sigma 0.5 was given, but the trace was certified at sigma 0.95"]

    @pytest.mark.parametrize("args, sigma, error", [
        (["--rtol", "nan"], None, "error: rtol must be finite and nonnegative, got nan"),
        (["--rtol", "-1"], None, "error: rtol must be finite and nonnegative, got -1.0"),
        ([], "inf", "error: sigma must be in [0, 1), got inf"),
    ], ids=["rtol-nan", "rtol-negative", "sigma-inf"])
    def test_audit_that_cannot_fail_is_an_error(self, tmp_path, capsys, args, sigma, error):
        cfg = named_config("cp1-run2", m=20, n=20, iters=20, out_dir=str(tmp_path))
        path = Path(run_experiment(cfg).summary["methods"]["hpe-cp"]["trace"])
        lines = path.read_text().splitlines()
        names = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        rows[0][names.index("lhs")] = "1e9"  # row 0 violates its acceptance test
        assert main(["audit", str(self.write_rows(path, names, rows))]) == 2
        assert "audit FAILED with 1 violations" in capsys.readouterr().err
        if sigma is not None:
            for row in rows:
                row[names.index("sigma")] = sigma
            self.write_rows(path, names, rows)
        assert main(["audit", str(path), *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == error + "\n"

    @pytest.mark.parametrize("changes, failure", [
        ({"residual": "nan"}, "k=3: two-sided estimate violated"),
        ({"lhs": "nan"}, "k=3: acceptance violated"),
        ({"rhs": "nan"}, "k=3: acceptance violated"),
        ({"accept_tol": "nan"}, "k=3: accept_tol=nan is not finite"),
        ({"accept_tol": "inf", "lhs": "1e300"}, "k=3: accept_tol=inf is not finite"),
    ], ids=["residual-nan", "lhs-nan", "rhs-nan", "accept_tol-nan", "accept_tol-inf"])
    def test_non_finite_row_is_a_violation(self, tmp_path, capsys, changes, failure):
        cfg = named_config("cp1-run2", m=20, n=20, iters=20, out_dir=str(tmp_path))
        path = Path(run_experiment(cfg).summary["methods"]["hpe-cp"]["trace"])
        lines = path.read_text().splitlines()
        names = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        for name, value in changes.items():
            rows[3][names.index(name)] = value
        self.write_rows(path, names, rows)
        assert any(f.startswith(failure) for f in audit_trace_file(path))
        assert main(["audit", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and failure in captured.err

    def test_repeated_row_is_a_violation(self, tmp_path, capsys):
        cfg = named_config("cp1-run2", m=20, n=20, iters=20, out_dir=str(tmp_path))
        path = Path(run_experiment(cfg).summary["methods"]["hpe-cp"]["trace"])
        lines = path.read_text().splitlines()
        # the first data row twice: every row but the first now reads k one below its index
        path.write_text("\n".join([lines[0], lines[1], *lines[1:]]) + "\n")
        failures = audit_trace_file(path)
        assert failures[0] == "row 1: reads k=0, not 1"
        assert [f for f in failures if "reads k=" in f] == [
            f"row {i}: reads k={i - 1}, not {i}" for i in range(1, 21)]
        assert main(["audit", str(path)]) == 2
        assert "row 1: reads k=0, not 1\n" in capsys.readouterr().err

    def test_negative_norms_and_counters_are_violations(self, tmp_path, capsys):
        # two rows that both read k = 7, each with a negative lhs, inner_iters and h_apps
        path = tmp_path / "negative.csv"
        path.write_text(HEADER + "\n"
                        "hpe-cp,7,1.0,-5,1.0,-3,-2,0,0,1.0,0.5\n"
                        "hpe-cp,7,1.0,-5,0.5,-3,-2,0,0,0.5,0.5\n")
        assert set(audit_trace_file(path)) == {
            "row 0: reads k=7, not 0", "row 1: reads k=7, not 1",
            "k=0: lhs=-5.0 is not >= 0", "k=1: lhs=-5.0 is not >= 0",
            "row 0: inner_iters=-3 is not >= 0", "row 1: inner_iters=-3 is not >= 0",
            "row 0: h_apps=-2 is not >= 0", "row 1: h_apps=-2 is not >= 0"}
        assert main(["audit", str(path)]) == 2
        assert "audit FAILED with 8 violations" in capsys.readouterr().err

    def test_negative_tolerance_is_named(self, tmp_path, capsys):
        # a negative accept_tol fails lhs = 0.1 <= sigma * rhs = 0.5; the
        # violation that explains it is the tolerance's own
        path = tmp_path / "tolerance.csv"
        path.write_text(HEADER + "\nhpe-cp,0,1.0,0.1,1.0,1,10,0,-1.0,0.8,0.5\n")
        failures = audit_trace_file(path)
        assert "k=0: accept_tol=-1.0 is not >= 0" in failures
        assert main(["audit", str(path)]) == 2
        assert "k=0: accept_tol=-1.0 is not >= 0" in capsys.readouterr().err

    @staticmethod
    def write_rows(path, names, rows):
        path.write_text("\n".join(",".join(row) for row in [names, *rows]) + "\n")
        return path

    @pytest.mark.parametrize("text", [
        "method,k,objective_gap,lhs,rhs,inner_iters,h_apps,wall_ms\n"
        "hpe-cp,0,1.0,0.25,0.5,1,10,0\n",
        "method,k,objective_gap,lhs,rhs,inner_iters,h_apps,wall_ms,accept_tol,residual\n"
        "hpe-cp,0,1.0,0.25,0.5,1,10,0,0,0.5\n",
        HEADER + "\nhpe-cp,0,1.0,0.25,0.5,1,10,0,0\n",
        HEADER + "\nhpe-cp,zero,1.0,0.25,0.5,1,10,0,0,0.5,0.5\n",
    ], ids=["eight-column", "ten-column", "short-row", "bad-number"])
    def test_unreadable_trace_is_one_line_error(self, tmp_path, capsys, text):
        path = tmp_path / "old.csv"
        path.write_text(text)
        assert main(["audit", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestMainCli:
    def test_run_named_experiment(self, tmp_path, capsys):
        code = main(["run", "cp1-run2", "--m", "24", "--n", "24", "--iters", "15",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cp1-run2" in out
        assert (tmp_path / "cp1-run2" / "hpe-cp.csv").exists()

    def test_audit_command(self, tmp_path, capsys):
        assert main(["run", "cp1-run2", "--m", "24", "--n", "24", "--iters", "15",
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        trace = tmp_path / "cp1-run2" / "hpe-cp.csv"
        assert main(["audit", str(trace)]) == 0
        assert capsys.readouterr().out == "audit passed\n"
        # lhs = 0.6 * rhs passes at sigma 0.95 but not at the 0.5 the row records
        bad = tmp_path / "bad.csv"
        bad.write_text(HEADER + "\nhpe-cp,0,1.0,0.6,1.0,1,10,0,0,1.0,0.5\n")
        assert main(["audit", str(bad)]) == 2
        assert "k=0: acceptance violated" in capsys.readouterr().err
        # the audit takes no sigma: it runs at the recorded one
        with pytest.raises(SystemExit) as err:
            main(["audit", str(trace), "--sigma", "0.5"])
        assert err.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: --sigma 0.5")
        assert err.count("\n") == 1, err

    def test_negative_iterations_exit_code(self, tmp_path, capsys):
        code = main(["run", "cp1-run2", "--m", "20", "--n", "20", "--iters", "-3",
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: iters must be nonnegative, got -3\n"
        assert not (tmp_path / "cp1-run2").exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a kappa of 1e-300 overflows the reference's objective
        code = main(["run", "cp1-run2", "--m", "10", "--n", "10", "--iters", "5",
                     "--kappa", "1e-300", "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == ("error: implicit-cp reference: objective inf "
                                           "at iteration 50\n")

    def test_numerical_failure_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "cp1-run2", "--m", "10", "--n", "10", "--iters", "5",
                     "--kappa", "1e-300", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (out / "cp1-run2").exists() and not out.exists()

    @pytest.mark.parametrize("place, error", [("file", NotADirectoryError),
                                              ("read-only", PermissionError)])
    def test_unusable_output_place_fails_before_any_work(self, place, error, tmp_path,
                                                          monkeypatch):
        # the output directory is made only after the run, so its place is checked first
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out" if place == "file" else tmp_path / "out"
        if place == "read-only":
            monkeypatch.setattr(os, "access", lambda path, mode: False)

        def generate(*args, **kwargs):
            raise AssertionError("the instance was generated")

        monkeypatch.setattr(cli, "make_cp_instance", generate)
        checked = out.parent if place == "file" else tmp_path
        with pytest.raises(error, match=re.escape(str(checked))):
            run_experiment(small_config(out_dir=str(out)))
        assert not (tmp_path / "out").exists()

    def test_dy_without_lam2_needs_a_gamma(self, tmp_path, capsys):
        # lam2 = 0 makes beta = 0 (Douglas-Rachford), where the default 1/beta is undefined
        message = "gamma must be given when beta = 0: the default 1/beta is undefined"
        out = tmp_path / "out"
        path = tmp_path / "dr.cfg"
        path.write_text("family = dy\nlam1 = 0.001\nlam2 = 0\nm = 20\nn = 20\niters = 5\n")
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(family="dy", lam1=0.001, lam2=0.0, out_dir=str(out))
        assert not out.exists()
        # with a gamma it runs, and the averaging weight is exactly 0
        cfg = ExperimentConfig(family="dy", lam1=0.001, lam2=0.0, gamma=1.0)
        assert cfg.step_params().beta == cfg.step_params().alpha == 0.0
        assert main(["run", str(path), "--gamma", "1.0", "--out", str(out)]) == 0
        assert (out / "dr" / "summary.json").exists()

    def test_zero_iterations_exit_code(self, tmp_path, capsys):
        code = main(["run", "cp1-run2", "--m", "20", "--n", "20", "--iters", "0",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "hpe-cp: final gap none" in capsys.readouterr().out
        assert (tmp_path / "cp1-run2" / "summary.json").exists()

    @pytest.mark.parametrize("name, setting, message", [
        ("cp1-run2", "--sigma 1.5", "sigma must be in [0, 1)"),
        ("cp1-run2", "--kappa 0", "kappa must be positive"),
        ("dy-run1", "--gamma 100", "gamma must lie in (0, 2/beta)"),
        ("cp1-run2", "--m 1", "m and n must be at least 2"),
        ("cp1-run2", "--seed -1", "seed must be nonnegative, got -1"),
        ("dy-run1", "--kappa 7", "dy experiments take no kappa"),
        ("cp1-run2", "--gamma 5", "cp experiments take no gamma"),
        ("cp1-run2", "ref_factor = -1", "ref_factor must be nonnegative, got -1"),
        ("cp1-run2", "spectrum_kind = cosin", "unknown spectrum kind 'cosin'"),
        ("cp1-run2", "lam = -0.5", "lam must be nonnegative, got -0.5"),
        ("dy-run1", "lam1 = -0.1", "lam1 must be nonnegative, got -0.1"),
        ("dy-run1", "lam2 = -0.1", "lam2 must be nonnegative, got -0.1"),
        ("cp1-run2", "sigma = abc", "{cfg}:{line}: sigma must be float, got 'abc'"),
        ("cp1-run2", "ref_factor = 1.5", "{cfg}:{line}: ref_factor must be int, got '1.5'"),
        ("cp1-run2", "methods = hpe-cp, hpe-cp", "methods named more than once: ['hpe-cp']"),
        ("cp1-run2", "--out {tmp}/file/out", "[Errno 20] Not a directory"),
        ("cp1-run2", "--kappa nan", "kappa must be finite, got nan"),
        ("cp1-run2", "lam = nan", "lam must be finite, got nan"),
        ("cp1-run2", "lam = inf", "lam must be finite, got inf"),
        ("dy-run1", "lam1 = nan", "lam1 must be finite, got nan"),
        ("dy-run1", "lam1 = inf", "lam1 must be finite, got inf"),
        ("dy-run1", "lam2 = nan", "lam2 must be finite, got nan"),
        ("cp1-run2", "experiment = ../escaped",
         "experiment name '../escaped' is not a directory name"),
        ("cp1-run2", "experiment =", "experiment name '' is not a directory name"),
        ("cp1-run2", "experiment = .", "experiment name '.' is not a directory name"),
        ("cp1-run2", "experiment = ..", "experiment name '..' is not a directory name"),
        ("cp1-run2", "lam = 0.5; lam = 2.0", "{cfg}:{line}: lam is already set on line {prev}"),
        ("cp1-run2", "experiment = a\0b", "experiment name 'a\\x00b' is not a directory name"),
        ("cp1-run2", "family = xx", "unknown family 'xx'"),
        ("cp1-run2", "emit_wall_times = yes",
         "{cfg}:{line}: emit_wall_times must be true or false, got 'yes'"),
    ], ids=["sigma", "kappa", "gamma", "m", "seed", "kappa-on-dy", "gamma-on-cp",
            "ref_factor", "spectrum_kind", "lam", "lam1", "lam2", "sigma-not-a-number",
            "ref_factor-not-an-integer", "repeated-method", "out-below-a-file",
            "kappa-nan", "lam-nan", "lam-inf", "lam1-nan", "lam1-inf", "lam2-nan",
            "experiment-escapes-out", "experiment-empty", "experiment-dot",
            "experiment-dotdot", "repeated-key", "experiment-nul", "family",
            "emit_wall_times-not-a-bool"])
    def test_bad_parameter_fails_before_any_work(self, tmp_path, capsys, name, setting,
                                                 message):
        # a regular file that an output directory cannot be made below
        (tmp_path / "file").write_text("")
        setting = setting.format(tmp=tmp_path)
        source, lines = [name, *setting.split()], []
        if "=" in setting:
            # a key with no flag: the preset as a config file without the keys the
            # setting gives, then the setting's lines (split on ';'), the bad one last
            given = [line.strip() for line in setting.split(";")]
            keys = {line.partition("=")[0].strip() for line in given}
            lines = [f"{key} = {val}" for key, val in NAMED_EXPERIMENTS[name].items()
                     if key not in keys] + given
            path = tmp_path / f"{name}.cfg"
            path.write_text("\n".join(lines) + "\n")
            source = [str(path)]
        message = message.format(cfg=tmp_path / f"{name}.cfg", line=len(lines),
                                 prev=len(lines) - 1)
        # a setting's own --out comes last, so it wins
        code = main(["run", *source[:1], "--m", "20", "--n", "20", "--iters", "5",
                     "--out", str(tmp_path / "out"), *source[1:]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists() and not (tmp_path / "escaped").exists()

    @pytest.mark.parametrize("text, message", [
        ("family = cp\nlam = 0.5\n", "cp experiments need kappa"),
        ("family = dy\nlam2 = 0.1\n", "dy experiments need lam1"),
    ], ids=["cp-without-kappa", "dy-without-lam1"])
    def test_missing_family_key_fails_before_any_work(self, tmp_path, capsys, text, message):
        path = tmp_path / "short.cfg"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_nul_in_out_dir_fails_before_any_work(self, tmp_path, capsys):
        # --out would override the file's out_dir, so the file alone gives it
        out_dir, path = f"{tmp_path}/x\0y", tmp_path / "nul.cfg"
        path.write_text(f"family = cp\nlam = 0.5\nkappa = 0.5\nout_dir = {out_dir}\n")
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == (f"error: out_dir {out_dir!r} is not a path: "
                                           "it holds a NUL byte\n")
        assert [p.name for p in tmp_path.iterdir()] == ["nul.cfg"]

    @pytest.mark.parametrize("name, args, stop", [
        ("cp1-run2", ["--iters", "5"], "cap"),
        ("dy-run1", ["--iters", "1000"], "certificate"),
    ], ids=["cap", "certificate"])
    def test_run_prints_the_reference_stop(self, tmp_path, capsys, name, args, stop):
        assert main(["run", name, *args, "--out", str(tmp_path)]) == 0
        reference = json.loads((tmp_path / name / "summary.json").read_text())["reference"]
        assert reference["stop"] == stop
        assert capsys.readouterr().out.splitlines()[1] == (
            f"  reference: {stop} after {reference['iterations']} steps, "
            f"certified gap {reference['certified_gap']:.1e}")

    def test_module_entry_point_runs_without_warning(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "hpesplit.cli", "audit",
                               str(tmp_path / "missing.csv")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["run", "not-an-experiment"]) == 1

    def test_missing_trace_exit_code(self, capsys):
        assert main(["audit", "/nonexistent/trace.csv"]) == 1

    def test_bad_arguments_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run"])  # missing positional
        assert err.value.code == 1

    def test_certification_failure_exit_code(self, tmp_path, capsys):
        # sigma = 0 with one allowed refinement cannot be certified on a cold
        # start, so the run must finish with exit code 2
        path = tmp_path / "strict.cfg"
        path.write_text(
            "family = cp\n"
            "m = 16\n"
            "n = 16\n"
            "lam = 0.5\n"
            "kappa = 0.5\n"
            "sigma = 0.0\n"
            "iters = 5\n"
            "inner_cap = 1\n"
            "ref_factor = 1\n"
            "methods = implicit-cp, hpe-cp\n"
            f"out_dir = {tmp_path}\n"
        )
        assert main(["run", str(path), "--seed", "2"]) == 2
        # one line per method, in the order they ran
        lines = capsys.readouterr().out.splitlines()[2:]
        assert [line.split(":")[0].strip() for line in lines] == ["implicit-cp", "hpe-cp"]
        assert "CERTIFICATION FAILURE" in lines[1]

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HPESPLIT_OUT", str(tmp_path / "envout"))
        code = main(["run", "cp1-run2", "--m", "24", "--n", "24", "--iters", "5",
                     "--seed", "1"])
        assert code == 0
        assert (tmp_path / "envout" / "cp1-run2" / "implicit-cp.csv").exists()


class TestBenchmarkContract:
    def test_benchmark_selftest_passes(self):
        # the benchmark reads parse_trace_csv's keys, audit_trace_file(path, sigma)
        # and the names its tracer wraps; its self-test trips if any of them changes
        proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "selftest.py")],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
