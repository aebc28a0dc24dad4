"""Config grammar, CLI exit codes, file outputs, and determinism."""

import os

import numpy as np
import pytest

from mvfbdsde import cli
from mvfbdsde.cli import main
from mvfbdsde.config import ConfigError, ScenarioConfig, parse_kv, serialize_kv
from mvfbdsde.solver import NonuniquenessReport, SolveReport

FAST = ["--steps", "40", "--particles", "200"]


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    return main(args + ["--out", str(out)]), out


class TestConfigGrammar:
    def test_parse_types(self):
        text = "a = 1\nb = 2.5\nc = true\nd = hello\n# comment\ne = 1e-05\n"
        parsed = parse_kv(text)
        assert parsed == {"a": 1, "b": 2.5, "c": True, "d": "hello", "e": 1e-05}

    def test_round_trip_identity(self):
        mapping = {"x": 3, "y": 0.1, "z": False, "name": "run", "e": 1e-07}
        assert parse_kv(serialize_kv(mapping)) == mapping

    def test_bad_lines_reported(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_kv("a = 1\nnot a pair\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv("a = 1\na = 2\n")

    def test_config_round_trip(self):
        cfg = ScenarioConfig()
        cfg.apply_scenario_defaults("example2")
        again = ScenarioConfig.from_text(cfg.to_text())
        assert cfg == again

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioConfig.from_text("bogus.key = 1\n")

    def test_example2_horizon_pinned(self):
        with pytest.raises(ConfigError, match="horizon"):
            ScenarioConfig.from_mapping({"scenario": "example2", "grid.horizon": 2.0})
        cfg = ScenarioConfig.from_mapping(
            {"scenario": "example2", "grid.horizon": 2.0, "override_horizon": True}
        )
        assert cfg.horizon == 2.0

    def test_invariants(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping({"grid.steps": 1})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping({"ensemble.particles": 1})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_mapping({"grid.horizon": -1.0})

    def test_custom_model_tables(self):
        cfg = ScenarioConfig.from_text(
            "scenario = custom\n"
            "model.f.mY = 0.5\n"
            "model.f.Y = -1.0\n"
            "model.F.my = 0.5\n"
            "model.F.y = -1.0\n"
            "model.g.Z = -0.5\n"
            "model.g.mZ = 0.25\n"
            "model.G.z = -0.5\n"
            "model.G.mz = 0.25\n"
            "model.h.y = 1.0\n"
            "model.h.my = -0.5\n"
        )
        coeffs = cfg.coefficient_set()
        # replicates the built-in mean-field model
        from mvfbdsde.model import builtin_example_meanfield, Quad, eval_system, quad_law

        rng = np.random.default_rng(0)
        v = Quad(
            rng.standard_normal((8, 1)), rng.standard_normal((8, 1)),
            rng.standard_normal((8, 1, 1)), rng.standard_normal((8, 1, 1)),
        )
        law = quad_law(v)
        ref = builtin_example_meanfield(cfg.dims)
        for got, want in zip(
            eval_system(coeffs, 0.0, v, law), eval_system(ref, 0.0, v, law)
        ):
            assert np.allclose(got, want, atol=1e-15)


class TestCliCommands:
    def test_solve_small_reference(self, tmp_path):
        code, out = run_cli(
            ["--scenario", "example1", "--command", "solve"] + FAST, tmp_path, "a"
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "ladder.csv").exists()
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,mean_y_0,mean_Y_0,rms_z,rms_Z,std_y,std_Y"
        ladder = (out / "ladder.csv").read_text().splitlines()
        assert len(ladder) == 7  # header + alpha in {0, .2, .4, .6, .8, 1}

    def test_check_assumptions_counterexample_exits_2(self, tmp_path):
        code, out = run_cli(
            ["--scenario", "example2", "--command", "check_assumptions"],
            tmp_path, "b",
        )
        assert code == 2
        report = (out / "report.txt").read_text()
        assert "FAIL" in report and "witness" in report

    def test_check_assumptions_reference_passes(self, tmp_path):
        code, _ = run_cli(
            ["--scenario", "example1", "--command", "check_assumptions"],
            tmp_path, "c",
        )
        assert code == 0

    def test_verify_smp_lq_exits_0(self, tmp_path):
        # the gradient check runs at a generic control, away from the
        # candidate where both directional derivatives are near zero
        code, out = run_cli(
            ["--scenario", "lq_control", "--command", "verify_smp", "--steps", "20",
             "--particles", "300"],
            tmp_path, "smp",
        )
        assert code == 0
        kv = parse_kv((out / "smp.kv").read_text())
        assert float(kv["gradient_rel_error"]) <= 0.05

    def test_invalid_steps_exits_1(self, tmp_path):
        code, _ = run_cli(
            ["--scenario", "example1", "--command", "solve", "--steps", "0"],
            tmp_path, "d",
        )
        assert code == 1

    def test_missing_config_file_exits_1(self, tmp_path):
        code, _ = run_cli(["--config", str(tmp_path / "nope.cfg")], tmp_path, "e")
        assert code == 1

    def test_detect_nonuniqueness_counterexample_exits_2(self, tmp_path):
        code, out = run_cli(
            ["--scenario", "example2", "--command", "detect_nonuniqueness",
             "--steps", "150", "--particles", "400"],
            tmp_path, "f",
        )
        assert code == 2
        assert "distinct_limits = True" in (out / "report.txt").read_text()

    def test_detect_nonuniqueness_failed_start_exits_2(self, tmp_path, monkeypatch):
        # one start diverged (partial report, no residuals), the other raised
        # without a report: both are listed and the run exits 2
        def fake_detect(problem, warm_starts, drivers, *args, **kwargs):
            partial = SolveReport(final_state=warm_starts[0], iterations=3)
            return NonuniquenessReport(
                limits=[partial], pairwise_distances=np.zeros((1, 1)),
                failed_starts=[(0, "Picard divergence"),
                               (1, "regression matrix singular at node 1")],
            )

        monkeypatch.setattr(cli, "detect_nonuniqueness", fake_detect)
        code, out = run_cli(
            ["--scenario", "example1", "--command", "detect_nonuniqueness"] + FAST,
            tmp_path, "f2",
        )
        assert code == 2
        text = (out / "report.txt").read_text()
        assert "limit[0]: converged=False\n" in text
        assert "failed_start[0]: Picard divergence" in text
        assert "failed_start[1]: regression matrix singular at node 1" in text
        assert "distinct_limits = False" in text

    def test_ito_check(self, tmp_path):
        code, out = run_cli(
            ["--scenario", "example1", "--command", "ito_check",
             "--steps", "100", "--particles", "2000"],
            tmp_path, "g",
        )
        assert code == 0
        assert "pass" in (out / "report.txt").read_text()

    def test_config_file_driving(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg = ScenarioConfig()
        cfg.apply_scenario_defaults("example1")
        cfg.steps = 40
        cfg.particles = 200
        cfg_path.write_text(cfg.to_text())
        code, out = run_cli(["--config", str(cfg_path)], tmp_path, "h")
        assert code == 0
        echoed = ScenarioConfig.from_text((out / "config.echo").read_text())
        assert echoed.steps == 40 and echoed.particles == 200

    def test_horizon_override_flag(self, tmp_path):
        code, out = run_cli(
            ["--scenario", "example2", "--command", "solve",
             "--override-horizon", "1.0", "--steps", "40", "--particles", "100"],
            tmp_path, "i",
        )
        assert code == 0
        echoed = ScenarioConfig.from_text((out / "config.echo").read_text())
        assert echoed.horizon == 1.0


class TestFullScaleSolve:
    def test_default_reference_run_matches_oracle_csv(self, tmp_path):
        # default scenario at full scale: exit 0 and the emitted mean column
        # tracks the independent shooting oracle within 0.02
        code, out = run_cli(
            ["--scenario", "example1", "--command", "solve"], tmp_path, "full"
        )
        assert code == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        header = rows[0].split(",")
        idx = header.index("mean_y_0")
        mean_y = np.array([float(r.split(",")[idx]) for r in rows[1:]])
        from mvfbdsde.model import builtin_example_meanfield
        from mvfbdsde.paths import TimeGrid
        from mvfbdsde.solver import moment_ode_oracle

        oracle = moment_ode_oracle(
            builtin_example_meanfield(), 1.0, TimeGrid(1.0, 200)
        )
        assert np.max(np.abs(mean_y - oracle.y[:, 0])) <= 0.02


class TestDeterminism:
    def test_byte_identical_reruns_across_threads(self, tmp_path):
        args = ["--scenario", "example1", "--command", "solve"] + FAST
        code1, out1 = run_cli(args + ["--threads", "1"], tmp_path, "t1")
        code2, out2 = run_cli(args + ["--threads", "8"], tmp_path, "t2")
        assert code1 == code2 == 0
        for name in ("trajectory.csv", "ladder.csv", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_verify_smp_byte_identical_across_threads(self, tmp_path):
        args = ["--scenario", "lq_control", "--command", "verify_smp", "--steps", "20",
                "--particles", "300"]
        code1, out1 = run_cli(args + ["--threads", "1"], tmp_path, "t1")
        code2, out2 = run_cli(args + ["--threads", "8"], tmp_path, "t2")
        assert code1 == code2 == 0
        for name in ("smp.kv", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_check_assumptions_byte_identical_across_threads(self, tmp_path):
        config = tmp_path / "pairs.cfg"
        config.write_text("assume.pairs = 600\n")
        args = ["--config", str(config), "--scenario", "example1",
                "--command", "check_assumptions"]
        code1, out1 = run_cli(args + ["--threads", "1"], tmp_path, "t1")
        code2, out2 = run_cli(args + ["--threads", "8"], tmp_path, "t2")
        assert code1 == code2 == 0
        assert "samples_used = 600" in (out1 / "report.txt").read_text()
        for name in ("assumptions.kv", "report.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        args = ["--scenario", "example1", "--command", "solve"] + FAST
        _, out1 = run_cli(args + ["--seed", "1"], tmp_path, "s1")
        _, out2 = run_cli(args + ["--seed", "2"], tmp_path, "s2")
        assert (
            (out1 / "trajectory.csv").read_bytes()
            != (out2 / "trajectory.csv").read_bytes()
        )

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        target = tmp_path / "env_dir"
        monkeypatch.setenv("MVFBDSDE_OUT", str(target))
        code = main(
            ["--scenario", "example1", "--command", "solve", "--out",
             str(tmp_path / "ignored")] + FAST
        )
        assert code == 0
        assert target.exists()
        assert not (tmp_path / "ignored").exists()
