import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hpesplit import cli
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
from hpesplit.linalg import NumericalError
from hpesplit.methods import CpParams, implicit_cp_run
from hpesplit.problems import ProblemInstance, make_cp_instance

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


class TestReference:
    @pytest.mark.parametrize("name", sorted(NAMED_EXPERIMENTS))
    def test_reference_cg_takes_no_steps(self, name, tmp_path, monkeypatch):
        cfg = named_config(name, iters=10)
        implicit = "implicit-cp" if cfg.family == "cp" else "implicit-dy"
        cfg = replace(cfg, methods=(implicit,), out_dir=str(tmp_path))
        attr = implicit.replace("-", "_") + "_run"
        runner = getattr(cli, attr)
        runs = []

        def spy(*args, **kwargs):
            runs.append((kwargs.get("cg_start"), runner(*args, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(cli, attr, spy)
        result = run_experiment(cfg)
        (ref_start, ref), (requested_start, _) = runs
        assert ref_start is not None and len(ref.trace) == 100
        assert max(ref.trace.inner_iterations) == 0
        # the requested baseline starts CG at its previous iterate, as before
        assert requested_start is None
        cols = parse_trace_csv(result.summary["methods"][implicit]["trace"])
        assert cols["inner_iters"][0] > 0

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
        assert reference["iterations"] % cli.REFERENCE_CHUNK == 0
        assert reference["certified_gap"] <= cli.REFERENCE_GAP

    def test_reference_reports_its_cap(self, tmp_path):
        cfg = named_config("cp1-run2", m=20, n=20, iters=5, out_dir=str(tmp_path))
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
        # checkpoints after iterations 100, 200 and 250; only x0 at a cap of 0
        assert len(calls) == (3 if iters else 1)
        if not iters:
            inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, cfg.lam, kind=cfg.spectrum_kind)
            x0 = np.zeros(cfg.n)
            assert reference["iterations"] == reference["cap"] == 0
            assert not calls[0].any()
            assert reference["objective"] == inst.objective(x0)
            assert reference["lower_bound"] == inst.lower_bound(x0)

    def test_non_finite_checkpoint_objective_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ProblemInstance, "objective", lambda inst, x: float("nan"))
        cfg = named_config("cp1-run2", m=20, n=20, iters=5, methods=(), out_dir=str(tmp_path))
        with pytest.raises(NumericalError, match="implicit-cp reference: objective nan "
                                                 "at iteration 50"):
            run_experiment(cfg)

    @pytest.mark.parametrize("name", ["dy-run1"])
    def test_chunks_reproduce_one_run(self, name, tmp_path, monkeypatch):
        cfg = named_config(name, m=30, n=30, iters=25, methods=(), out_dir=str(tmp_path))
        attr = "implicit_cp_run" if cfg.family == "cp" else "implicit_dy_run"
        runner = getattr(cli, attr)
        chunks = []

        def spy(*args, **kwargs):
            chunks.append((args, kwargs, runner(*args, **kwargs)))
            return chunks[-1][2]

        monkeypatch.setattr(cli, attr, spy)
        reference = run_experiment(cfg).summary["reference"]
        assert len(chunks) == 3 and reference["iterations"] == 250
        args, kwargs, _ = chunks[0]
        whole = runner(*args[:7], reference["iterations"], **kwargs)
        assert np.array_equal(whole.final_x, chunks[-1][2].final_x)

    @staticmethod
    def spied_cp_reference(cfg, monkeypatch):
        """The CP reference entry and its chunks, each as (CpParams, x, y, iters,
        result), with (x, y) the state the chunk started from."""
        runner = cli.implicit_cp_run
        chunks = []

        def spy(H, f, D, lam, p, x, y, iters, **kwargs):
            chunks.append((p, x, y, iters, runner(H, f, D, lam, p, x, y, iters, **kwargs)))
            return chunks[-1][-1]

        monkeypatch.setattr(cli, "implicit_cp_run", spy)
        return run_experiment(cfg).summary["reference"], chunks

    @staticmethod
    def replay_restarts(cfg, chunks):
        """Each checkpoint followed by a chunk as (restart, x, y, x_r, y_r): whether
        its gap is at most RESTART_DECAY times the gap at the last restart, its
        state, and the state at the last restart before it."""
        inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, cfg.lam, kind=cfg.spectrum_kind)
        _, x_r, y_r, _, _ = chunks[0]
        restart_gap, checkpoints = np.inf, []
        for *_, result in chunks[:-1]:
            x, y = result.final_x, result.aux["y"]
            gap = inst.objective(x) - inst.lower_bound(x)
            restart = gap <= cli.RESTART_DECAY * restart_gap
            checkpoints.append((restart, x, y, x_r, y_r))
            if restart:
                x_r, y_r, restart_gap = x, y, gap
        return checkpoints

    def test_cp_chunks_resume_and_reproduce(self, tmp_path, monkeypatch):
        cfg = named_config("cp1-run2", m=30, n=30, iters=25, methods=(), out_dir=str(tmp_path))
        reference, chunks = self.spied_cp_reference(cfg, monkeypatch)
        assert len(chunks) == 3 and reference["iterations"] == 250
        assert chunks[0][0].kappa == cfg.kappa and chunks[1][0].kappa != cfg.kappa
        for previous, chunk in zip(chunks, chunks[1:]):
            assert chunk[1] is previous[-1].final_x and chunk[2] is previous[-1].aux["y"]
        inst = make_cp_instance(cfg.m, cfg.n, cfg.seed, cfg.lam, kind=cfg.spectrum_kind)
        for p, x, y, iters, result in chunks:
            alone = implicit_cp_run(inst.H, inst.f, inst.D, cfg.lam,
                                    CpParams.from_kappa(p.kappa), x, y, iters,
                                    cg_start=inst.gram.resolvent(p.tau))
            assert np.array_equal(alone.final_x, result.final_x)

    def test_restart_when_the_gap_falls_by_the_decay(self, tmp_path, monkeypatch):
        cfg = named_config("cp1-run2", iters=1000, methods=(), out_dir=str(tmp_path))
        reference, chunks = self.spied_cp_reference(cfg, monkeypatch)
        restarts = [restart for restart, *_ in self.replay_restarts(cfg, chunks)]
        assert restarts[0] and not all(restarts)
        # kappa changes exactly at the restarts
        kappas = [p.kappa for p, *_ in chunks]
        assert [a != b for a, b in zip(kappas, kappas[1:])] == restarts
        assert reference["restarts"] == sum(restarts)
        assert reference["kappa"] == kappas[-1]

    def test_restart_sets_the_primal_weight(self, tmp_path, monkeypatch):
        cfg = named_config("cp1-run2", iters=1000, methods=(), out_dir=str(tmp_path))
        _, chunks = self.spied_cp_reference(cfg, monkeypatch)
        kappas = [p.kappa for p, *_ in chunks]
        changed = 0
        for (restart, x, y, x_r, y_r), kappa, after in zip(self.replay_restarts(cfg, chunks),
                                                           kappas, kappas[1:]):
            if restart:
                changed += 1
                expected = np.sqrt(kappa * np.linalg.norm(y - y_r) / np.linalg.norm(x - x_r))
                assert after == expected
        assert changed > 1

    def test_closed_form_follows_each_new_kappa(self, monkeypatch, tmp_path):
        cfg = named_config("cp1-run2", iters=50, methods=(), out_dir=str(tmp_path))
        reference, chunks = self.spied_cp_reference(cfg, monkeypatch)
        assert len(chunks) == 5 and reference["restarts"] >= 1
        assert len({p.kappa for p, *_ in chunks}) > 1
        for *_, result in chunks:
            assert max(result.trace.inner_iterations) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cp_reference_stops_on_its_certificate(self, seed, tmp_path):
        cfg = named_config("cp1-run2", iters=1000, seed=seed, methods=(),
                           out_dir=str(tmp_path))
        reference = run_experiment(cfg).summary["reference"]
        assert reference["stop"] == "certificate"
        assert reference["certified_gap"] <= cli.REFERENCE_GAP
        assert reference["restarts"] >= 1 and reference["kappa"] > 0

    def test_phases_recorded(self, tmp_path):
        summary = run_experiment(small_config(out_dir=str(tmp_path))).summary
        assert set(summary["phases"]) == {"generate_s", "norms_s", "reference_s", "output_s"}
        assert all(value >= 0.0 for value in summary["phases"].values())
        on_disk = json.loads((tmp_path / "custom" / "summary.json").read_text())
        assert on_disk["phases"] == summary["phases"]

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
        ("cp1-run2", "sigma = abc", "{cfg}:9: sigma must be float, got 'abc'"),
        ("cp1-run2", "ref_factor = 1.5", "{cfg}:9: ref_factor must be int, got '1.5'"),
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
    ], ids=["sigma", "kappa", "gamma", "m", "seed", "kappa-on-dy", "gamma-on-cp",
            "ref_factor", "spectrum_kind", "lam", "lam1", "lam2", "sigma-not-a-number",
            "ref_factor-not-an-integer", "repeated-method", "out-below-a-file",
            "kappa-nan", "lam-nan", "lam-inf", "lam1-nan", "lam1-inf", "lam2-nan",
            "experiment-escapes-out", "experiment-empty", "experiment-dot",
            "experiment-dotdot"])
    def test_bad_parameter_fails_before_any_work(self, tmp_path, capsys, name, setting,
                                                 message):
        # a regular file that an output directory cannot be made below
        (tmp_path / "file").write_text("")
        setting = setting.format(tmp=tmp_path)
        message = message.format(cfg=tmp_path / f"{name}.cfg")
        source = [name, *setting.split()]
        if "=" in setting:
            # a key with no flag: the preset as a config file, with the bad line last
            lines = [f"{key} = {','.join(val) if key == 'methods' else val}"
                     for key, val in NAMED_EXPERIMENTS[name].items()]
            path = tmp_path / f"{name}.cfg"
            path.write_text("\n".join(lines + [setting]) + "\n")
            source = [str(path)]
        # a setting's own --out comes last, so it wins
        code = main(["run", *source[:1], "--m", "20", "--n", "20", "--iters", "5",
                     "--out", str(tmp_path / "out"), *source[1:]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists() and not (tmp_path / "escaped").exists()

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
            "methods = hpe-cp, implicit-cp\n"
            f"out_dir = {tmp_path}\n"
        )
        assert main(["run", str(path), "--seed", "2"]) == 2
        out = capsys.readouterr().out
        assert "CERTIFICATION FAILURE" in out

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
