"""Config grammar, CLI exit codes, file outputs, and determinism."""

import dataclasses
import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from mvfbdsde import cli
from mvfbdsde.cli import main
from mvfbdsde.config import (
    COMMANDS,
    KEYS,
    SCENARIOS,
    ConfigError,
    ScenarioConfig,
    parse_kv,
    serialize_kv,
)
from mvfbdsde.control import lq_control_scenario
from mvfbdsde.model import CoefficientError, builtin_example_meanfield
from mvfbdsde.solver import (
    LadderRung, NonuniquenessReport, SolveReport, SolverError, detect_nonuniqueness,
)

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

    def test_lq_control_preset_matches_the_problem(self):
        # control_problem() replaces the problem's constants with the
        # config's, so a default run stays unchanged only if the preset takes
        # them from it
        cfg = ScenarioConfig.from_mapping({"scenario": "lq_control"})
        problem = lq_control_scenario()
        for attr in ("delta", "theta1", "theta2", "alpha1"):
            assert getattr(cfg, attr) == getattr(problem, attr), attr

    def test_control_problem_takes_every_field_from_the_config(self):
        cfg = ScenarioConfig.from_mapping(
            {"scenario": "lq_control", "grid.steps": 12, "continuation.delta": 0.5,
             "assume.theta1": 0.3, "assume.theta2": 0.2, "assume.alpha1": 0.4,
             "initial.x": -0.5, "terminal.xi": 0.25}
        )
        problem = cfg.control_problem()
        assert problem.grid == cfg.grid
        assert (problem.delta, problem.theta1, problem.theta2, problem.alpha1) == (
            0.5, 0.3, 0.2, 0.4)
        assert problem.x.tolist() == [-0.5] and problem.xi.tolist() == [0.25]
        assert ScenarioConfig.from_mapping({"scenario": "lq_control"}).control_problem().xi is None

    def test_lq_control_model_is_the_state_system_at_the_box_centre(self):
        cfg = ScenarioConfig.from_mapping({"scenario": "lq_control", "grid.steps": 6})
        problem = cfg.control_problem()
        centre = np.broadcast_to(problem.control_box_center(), (7, 1))
        want = problem.coefficients_for(centre)
        got = cfg.coefficient_set()
        from mvfbdsde.model import NodeMoments, Quad, eval_system

        rng = np.random.default_rng(1)
        v = Quad(*(rng.standard_normal((5, *shape)) for shape in got.dims.shapes))
        law = NodeMoments.of(v.flat())
        assert got.dims == want.dims
        for a, b in zip(eval_system(got, 0.5, v, law), eval_system(want, 0.5, v, law)):
            assert np.array_equal(a, b)

    def test_every_flag_sets_a_config_key(self):
        defaults = ScenarioConfig().to_mapping()
        dests = [a.dest for a in cli.build_parser()._actions
                 if a.dest not in ("help", "config")]
        assert len(dests) == 10
        for dest in dests:
            ScenarioConfig.from_mapping({dest: defaults[dest]})

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
        from mvfbdsde.model import builtin_example_meanfield, NodeMoments, Quad, eval_system

        rng = np.random.default_rng(0)
        v = Quad(
            rng.standard_normal((8, 1)), rng.standard_normal((8, 1)),
            rng.standard_normal((8, 1, 1)), rng.standard_normal((8, 1, 1)),
        )
        law = NodeMoments.of(v.flat())
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

    def test_solve_lq_control(self, tmp_path):
        code, out = run_cli(
            ["--scenario", "lq_control", "--command", "solve"] + FAST, tmp_path, "lq"
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "ladder.csv").exists()
        assert "rungs = 5\n" in (out / "report.txt").read_text()

    def test_lq_control_takes_the_config_delta(self, tmp_path):
        code, out = run_cli(
            ["--scenario", "lq_control", "--command", "solve", "--delta", "0.5",
             "--steps", "20", "--particles", "200"],
            tmp_path, "lq_delta",
        )
        assert code == 0
        rows = (out / "ladder.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "0.5", "1"]

    def test_failed_ladder_exits_2_with_partial_ladder(self, tmp_path):
        # one Picard step per rung cannot reach tol: the step halves three
        # times, 0.2 -> 0.025, and the fourth failure gives up
        cfg_path = tmp_path / "fail.cfg"
        cfg_path.write_text(
            "scenario = example1\ncommand = solve\ngrid.steps = 20\n"
            "ensemble.particles = 200\nsolver.max_iter = 1\nsolver.tol = 1e-12\n"
        )
        code, out = run_cli(["--config", str(cfg_path)], tmp_path, "fail")
        assert code == 2
        assert (out / "report.txt").read_text() == (
            "solve failed: continuation failed at alpha=0.0250\n"
            "see ladder.csv for the partial ladder\n"
        )
        ladder = (out / "ladder.csv").read_text().splitlines()
        assert len(ladder) == 3  # header, the base rung and the failed rung
        assert ladder[2].startswith("0.025000000000000001,1,")
        # median ratios: 0 for the exact base rung, none from one iteration
        assert ladder[1].split(",")[3] == "0"
        assert ladder[2].split(",")[3] == "nan"

    def test_failed_ladder_lists_its_diverged_rung(self, tmp_path):
        # undamped, the counterexample's ladder gives up at alpha = 0.375,
        # where Picard diverges; the partial ladder ends with that rung
        cfg_path = tmp_path / "diverge.cfg"
        cfg_path.write_text(
            "scenario = example2\ncommand = solve\ngrid.steps = 50\n"
            "ensemble.particles = 100\nsolver.damping = 1.0\ninitial.x = 0.5\n"
            "solver.max_iter = 1000\ncontinuation.delta = 1.0\n"
        )
        code, out = run_cli(["--config", str(cfg_path)], tmp_path, "diverge")
        assert code == 2
        assert (out / "report.txt").read_text() == (
            "solve failed: continuation failed at alpha=0.3750\n"
            "see ladder.csv for the partial ladder\n"
        )
        rows = [r.split(",") for r in (out / "ladder.csv").read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [0.0, 0.25, 0.375]
        # stopped by divergence, not by max_iter
        assert int(rows[-1][1]) < 1000 and float(rows[-1][2]) > 1e6

    def test_failed_solve_without_report_exits_2(self, tmp_path, monkeypatch):
        def singular(*args, **kwargs):
            raise SolverError("regression matrix singular at node 3")

        monkeypatch.setattr(cli, "continuation_solve", singular)
        code, out = run_cli(
            ["--scenario", "example1", "--command", "solve"] + FAST, tmp_path, "sing"
        )
        assert code == 2
        assert (out / "report.txt").read_text() == (
            "solve failed: regression matrix singular at node 3\n"
        )
        assert not (out / "ladder.csv").exists()
        assert not (out / "trajectory.csv").exists()

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

    @pytest.mark.parametrize(
        "entry", ["model.F.y = nan", "solver.tol = nan", "grid.horizon = inf",
                  "assume.theta1 = -inf"],
    )
    def test_non_finite_config_value_exits_1(self, tmp_path, capsys, entry):
        cfg_path = tmp_path / "nan.cfg"
        cfg_path.write_text(f"scenario = custom\ncommand = solve\n{entry}\n")
        code, out = run_cli(["--config", str(cfg_path)], tmp_path, "nan")
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, key",
        [("grid.steps = true", "grid.steps"),
         ("override_horizon = no", "override_horizon"),
         ("threads = yes", "threads"),
         pytest.param(f"grid.horizon = 1{'0' * 400}", "grid.horizon",
                      id="grid.horizon = 10**400")],
    )
    def test_mistyped_config_value_exits_1(self, tmp_path, capsys, entry, key):
        cfg_path = tmp_path / "typed.cfg"
        cfg_path.write_text(f"scenario = custom\ncommand = solve\n{entry}\n")
        code, out = run_cli(["--config", str(cfg_path)], tmp_path, "typed")
        assert code == 1
        assert f"config error: {key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, key",
        [(s, k) for s in ("example2", "lq_control") for k in ("dims.d", "dims.d_w", "dims.d_b")]
        + [("example1", "dims.d_w"), ("example1", "dims.d_b")],
    )
    def test_dims_the_model_cannot_take_exit_1(self, tmp_path, capsys, scenario, key):
        # example2 and lq_control fix all three dimensions at 1; example1
        # needs d_w == d_b
        cfg_path = tmp_path / "dims.cfg"
        cfg_path.write_text(f"scenario = {scenario}\ncommand = solve\n{key} = 2\n")
        code, out = run_cli(["--config", str(cfg_path), "--steps", "8", "--particles", "60"],
                            tmp_path, "dims")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["example1", "example2", "linear_base", "lq_control"])
    def test_model_entry_off_custom_exits_1(self, tmp_path, capsys, scenario):
        # a built-in scenario's model takes no table entries
        cfg_path = tmp_path / "model.cfg"
        cfg_path.write_text(f"scenario = {scenario}\ncommand = solve\nmodel.f.y = 5.0\n")
        code, out = run_cli(["--config", str(cfg_path)], tmp_path, "model")
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: model.f.y ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["dims.d", "dims.d_w", "dims.d_b"])
    def test_dims_below_one_exit_1(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "dims.cfg"
        cfg_path.write_text(f"scenario = linear_base\ncommand = solve\n{key} = 0\n")
        code, out = run_cli(["--config", str(cfg_path), "--steps", "8", "--particles", "60"],
                            tmp_path, "dims")
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {key} ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "check_assumptions"])
    def test_non_finite_coefficient_exits_1(self, tmp_path, monkeypatch, capsys, command):
        # every command rejects a map with non-finite output the same way
        def nan_set(cfg):
            base = builtin_example_meanfield(cfg.dims)
            return dataclasses.replace(
                base, F=lambda t, v, law: np.full(np.shape(v.y), np.nan)
            )

        monkeypatch.setattr(ScenarioConfig, "coefficient_set", nan_set)
        code, _ = run_cli(
            ["--scenario", "example1", "--command", command] + FAST, tmp_path, command
        )
        assert code == 1
        assert "coefficient F produced non-finite values" in capsys.readouterr().err

    def test_residual_failure_writes_no_solve_files(self, tmp_path, monkeypatch, capsys):
        # the residuals are read before trajectory.csv and ladder.csv are
        # written, so a map that fails only there leaves no partial output
        import mvfbdsde.solver as solver_module

        def failing(*args):
            raise CoefficientError("coefficient F produced non-finite values")

        monkeypatch.setattr(solver_module, "residual", failing)
        code, out = run_cli(
            ["--scenario", "example1", "--command", "solve"] + FAST, tmp_path, "r"
        )
        assert code == 1
        assert "coefficient F produced non-finite values" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["config.echo"]

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
            partial = SolveReport(warm_starts[0], [LadderRung(1.0, 3, False, 0.0, 0.0)])
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

    def test_distinct_limits_count_converged_limits_only(self, tmp_path, monkeypatch):
        # a diverged start's partial state lies far from the converged limit;
        # that distance is reported but decides nothing, and the listed
        # failed start still makes the run exit 2
        def fake_detect(problem, warm_starts, drivers, *args, **kwargs):
            limit = SolveReport(warm_starts[0], [LadderRung(1.0, 9, True, 0.0, 0.0)])
            partial = SolveReport(warm_starts[1], [LadderRung(1.0, 4, False, 0.0, 0.0)])
            return NonuniquenessReport(
                limits=[limit, partial],
                pairwise_distances=np.array([[0.0, 2.4e6], [2.4e6, 0.0]]),
                failed_starts=[(1, "Picard divergence")],
            )

        monkeypatch.setattr(cli, "detect_nonuniqueness", fake_detect)
        code, out = run_cli(
            ["--scenario", "example1", "--command", "detect_nonuniqueness"] + FAST,
            tmp_path, "f3",
        )
        assert code == 2
        text = (out / "report.txt").read_text()
        assert "distance[0,1] = 2.400000e+06\n" in text
        assert "failed_start[1]: Picard divergence\n" in text
        assert text.endswith("distinct_limits = False\n")

    def test_unconverged_start_exits_2(self, tmp_path, monkeypatch):
        # a start that used up max_iter without diverging is no limit either
        def fake_detect(problem, warm_starts, drivers, *args, **kwargs):
            limits = [SolveReport(warm_starts[0], [LadderRung(1.0, 1, True, 0.0, 0.0)]),
                      SolveReport(warm_starts[1], [LadderRung(1.0, 1, False, 0.0, 0.0)])]
            return NonuniquenessReport(limits=limits, pairwise_distances=1.0 - np.eye(2))

        monkeypatch.setattr(cli, "detect_nonuniqueness", fake_detect)
        code, out = run_cli(
            ["--scenario", "example1", "--command", "detect_nonuniqueness"] + FAST,
            tmp_path, "f4",
        )
        assert code == 2
        assert "distinct_limits = False" in (out / "report.txt").read_text()

    def test_detect_nonuniqueness_lq_control_exits_0(self, tmp_path):
        code, out = run_cli(
            ["--scenario", "lq_control", "--command", "detect_nonuniqueness",
             "--steps", "20", "--particles", "200"],
            tmp_path, "lq_detect",
        )
        assert code == 0
        text = (out / "report.txt").read_text()
        assert text.count("converged=True") == 2
        assert "distinct_limits = False" in text

    def test_detect_nonuniqueness_solves_the_system_solve_does(self, tmp_path, monkeypatch):
        # linear_base's terminal.xi = 0.5 enters the alpha = 1 member, whose
        # zero maps give Y = xi
        limits = []

        def recording(*args, **kwargs):
            report = detect_nonuniqueness(*args, **kwargs)
            limits.extend(report.limits)
            return report

        monkeypatch.setattr(cli, "detect_nonuniqueness", recording)
        code, _ = run_cli(
            ["--scenario", "linear_base", "--command", "detect_nonuniqueness",
             "--steps", "20", "--particles", "100"],
            tmp_path, "lb_detect",
        )
        assert code == 0 and len(limits) == 2
        for limit in limits:
            assert limit.final_state.Y[:, 0, 0].mean() == pytest.approx(0.5, abs=1e-6)

    def test_lq_control_check_assumptions_takes_the_pair_count(self, tmp_path):
        cfg_path = tmp_path / "pairs.cfg"
        cfg_path.write_text(
            "scenario = lq_control\ncommand = check_assumptions\nassume.pairs = 100\n"
        )
        code, out = run_cli(["--config", str(cfg_path)], tmp_path, "lq_pairs")
        assert code == 0
        assert "samples_used = 100\n" in (out / "report.txt").read_text()
        assert "samples_used = 100\n" in (out / "assumptions.kv").read_text()

    def test_lq_control_solve_takes_the_solver_keys(self, tmp_path):
        # one Picard step per rung cannot reach tol, as for example1
        cfg_path = tmp_path / "lq_fail.cfg"
        cfg_path.write_text(
            "scenario = lq_control\ncommand = solve\ngrid.steps = 20\n"
            "ensemble.particles = 200\nsolver.max_iter = 1\nsolver.tol = 1e-12\n"
        )
        code, out = run_cli(["--config", str(cfg_path)], tmp_path, "lq_fail")
        assert code == 2
        assert (out / "report.txt").read_text().startswith("solve failed: continuation failed")

    @pytest.mark.parametrize(
        "scenario, dims",
        [("example1", "dims.d_w = 2\ndims.d_b = 2\n"), ("linear_base", "dims.d_b = 3\n")],
    )
    def test_ito_check_at_several_driver_components(self, tmp_path, scenario, dims):
        cfg_path = tmp_path / "ito.cfg"
        cfg_path.write_text(f"scenario = {scenario}\ncommand = ito_check\n{dims}")
        code, out = run_cli(
            ["--config", str(cfg_path), "--steps", "100", "--particles", "2000"],
            tmp_path, "ito",
        )
        assert code == 0
        assert "FAIL" not in (out / "report.txt").read_text()

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

    def test_presets_then_file_then_flags(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("grid.steps = 30\nensemble.particles = 50\n")
        args = cli.build_parser().parse_args(
            ["--config", str(cfg_path), "--scenario", "lq_control", "--particles", "60"]
        )
        cfg = cli.load_config(args)
        assert (cfg.scenario, cfg.steps, cfg.particles) == ("lq_control", 30, 60)
        assert (cfg.tol, cfg.delta) == (1e-6, 0.25)  # lq_control presets

    def test_horizon_override_flag(self, tmp_path):
        code, out = run_cli(
            ["--scenario", "example2", "--command", "solve",
             "--override-horizon", "1.0", "--steps", "40", "--particles", "100"],
            tmp_path, "i",
        )
        assert code == 0
        echoed = ScenarioConfig.from_text((out / "config.echo").read_text())
        assert echoed.horizon == 1.0


SCENARIO_FILES = sorted((Path(cli.__file__).parent / "scenarios").glob("*.cfg"))


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.name)
def test_packaged_scenario_file_matches_its_presets(path):
    entries = parse_kv(path.read_text())
    cfg = ScenarioConfig.from_mapping(entries)
    presets = ScenarioConfig.from_mapping(
        {"scenario": cfg.scenario, "command": cfg.command}
    ).to_mapping()
    assert {key: presets[key] for key in entries} == entries


def test_every_scenario_has_a_packaged_file():
    assert [p.stem for p in SCENARIO_FILES] == sorted(set(SCENARIOS) - {"custom"})


# every scenario x command, crossed with settings that the old CLI only
# rejected after writing config.echo, or not at all
GRID_SETTINGS = [
    {},
    {"dims.d": 2},
    {"dims.d_w": 2, "dims.d_b": 2},
    {"dims.d_b": 2},
    {"continuation.case": "case2"},
    {"assume.theta1": 0},
    {"assume.theta2": 0, "assume.alpha1": 0},
    {"solver.basis": "poly2_y_plus_Btail"},
    {"model.x.y": 1},
    {"solver.tol": 0},
    {"solver.ridge": -1e-8},
    {"solver.damping": 1.5},
    {"solver.max_iter": 0},
    {"assume.pairs": 0},
]


@pytest.mark.parametrize(
    "scenario, command, setting",
    list(itertools.product(SCENARIOS, COMMANDS, GRID_SETTINGS)),
    ids=lambda v: (",".join(f"{k}={x}" for k, x in v.items()) or "-")
    if isinstance(v, dict) else v,
)
def test_config_grid_runs_or_is_rejected_before_output(tmp_path, capsys, scenario,
                                                       command, setting):
    entries = {"scenario": scenario, "command": command, "assume.pairs": 100, **setting}
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    code, out = run_cli(["--config", str(cfg_path), "--steps", "8", "--particles", "60"],
                        tmp_path, "grid")
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("config error: "), err
        key = err[len("config error: "):].split()[0]
        assert key in KEYS.values() or key.startswith("model."), err
        assert not out.exists()
    else:
        assert code in (0, 2), err
    if "solver.max_iter" in setting:
        assert code == 1


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
