"""Tests of the benchmark itself: its references, its checks and its traced mode.

    PYTHONPATH=src python3 -m pytest -q bench

Each check must accept the program's output at a small size and reject a
corrupted one.
"""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from mvfbdsde import assumptions, control, model, paths, solver  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REG = solver.RegressionConfig("affine_y")


@pytest.fixture(scope="module")
def ladder_report():
    inp = workloads.setup_ladder(seed=5, steps=20, particles=200)
    return workloads.ops_ladder(inp)[0].run()


@pytest.fixture(scope="module")
def lq():
    problem = control.lq_control_scenario(paths.TimeGrid(1.0, 25))
    drivers = paths.sample_driver_pair(problem.grid, 1, 1, 100, seed=5)
    u = control.first_order_candidate(problem, drivers, REG, iters=6, tol=1e-6)
    return problem, drivers, u, checks.LQReference(problem, control.LQ_PARAMS)


def shifted_state(state, by):
    return replace(state, y=state.y + by, Y=state.Y + by)


def test_closed_form_solves_the_mean_system():
    t = np.linspace(0.0, 1.0, 2001)
    m_y, m_big_y = checks.example1_mean_path(t)
    h = t[1] - t[0]
    assert m_y[0] == pytest.approx(1.0)
    assert m_big_y[-1] == pytest.approx(m_y[-1] / 2)
    np.testing.assert_allclose(np.gradient(m_y, h)[1:-1], -m_big_y[1:-1] / 2, atol=1e-6)
    np.testing.assert_allclose(np.gradient(m_big_y, h)[1:-1], -m_y[1:-1] / 2, atol=1e-6)


def test_ladder_check_accepts_the_solve_and_rejects_a_shifted_path(ladder_report):
    assert checks.check_ladder(ladder_report) == []
    bad = replace(ladder_report, final_state=shifted_state(ladder_report.final_state, 0.05))
    assert any("closed form" in msg for msg in checks.check_ladder(bad))


def test_ladder_check_rejects_a_stalled_rung(ladder_report):
    rungs = [replace(r) for r in ladder_report.alpha_ladder]
    rungs[-1].median_ratio = 0.95
    assert checks.check_ladder(replace(ladder_report, alpha_ladder=rungs))


def test_lq_reference_matches_the_shooting_oracle():
    problem = control.lq_control_scenario()
    ref = checks.LQReference(problem, control.LQ_PARAMS)
    oracle = control.lq_deterministic_oracle(problem)
    assert np.max(np.abs(ref.u - oracle.u)) < 1e-8
    assert abs(ref.cost - oracle.cost_grid) < 1e-8


def test_candidate_check_accepts_the_candidate_and_rejects_a_shifted_one(lq):
    _, _, u, ref = lq
    assert checks.check_candidate(u, ref) == []
    assert checks.check_candidate(u + 0.05, ref)


def test_smp_check_accepts_the_verifier_and_rejects_a_failed_check(lq):
    problem, drivers, u, ref = lq
    report = control.verify_smp(problem, u, 0, drivers, REG, tol=1e-6, seed=5)
    assert checks.check_smp_report(report, ref) == []
    report.checks["cost_dominance"] = False
    assert checks.check_smp_report(report, ref)


def test_assumption_checks_accept_the_tools_and_tell_the_models_apart():
    example1 = model.builtin_example_meanfield()
    counter, _, _, dims = model.builtin_counterexample()
    sampler = assumptions.PairSampler(example1.dims, seed=5)
    cert = assumptions.check_monotonicity(example1, 0.25, 0.25, 0.5, "A2", sampler, 200)
    bad = assumptions.check_monotonicity(
        counter, 0.25, 0.25, 0.5, "A2", assumptions.PairSampler(dims, seed=5), 200)
    assert checks.check_certified(cert, 200) == []
    assert checks.check_refuted(bad) == []
    assert checks.check_certified(bad, 200)
    assert checks.check_refuted(cert)
    lip = assumptions.estimate_lipschitz(example1, sampler, 100)
    assert checks.check_lipschitz(lip) == []
    assert checks.check_lipschitz(assumptions.estimate_lipschitz(counter, sampler, 100))


def test_oracle_check_accepts_example1_and_rejects_another_model():
    grid = paths.TimeGrid(1.0, 10)
    good = solver.moment_ode_oracle(model.builtin_example_meanfield(), 1.0, grid)
    assert checks.check_oracle(good) == []
    tables = model.LinearTables(
        f={"Y": -1.0, "mY": 0.5}, g={"Z": -0.5, "mZ": 0.25},
        F={"y": -1.0, "my": 0.25}, G={"z": -0.5, "mz": 0.25}, h={"y": 1.0, "my": -0.5},
    )
    wrong = model.linear_coefficient_set(model.Dimensions(1), tables)
    assert checks.check_oracle(solver.moment_ode_oracle(wrong, 1.0, grid))


def test_ladder_halvings_replays_the_step_schedule():
    alphas = [0.0, 0.2, 0.3, 0.35, 0.4, 0.45, 1.0]
    report = solver.SolveReport(
        final_state=None,
        alpha_ladder=[solver.LadderRung(a, 1, True, 0.0, 0.0) for a in alphas],
    )
    # 0.2 -> 0.1 -> 0.05 (two halvings); the last rung is clipped at 1.0
    assert tracing.ladder_halvings(report, 0.2) == 2


@pytest.mark.parametrize("workload", ["ladder", "smp", "check"])
def test_traced_rounds_repeat_their_counts(workload):
    names = [m for m, _ in tracing.per_layer_names()]
    results = []
    for _ in range(2):
        tracer = tracing.Tracer().install()
        try:
            inputs = workloads.setup(workload, 3, "warm")
            setup_mark = tracer.mark()
            ops = workloads.operations(workload, inputs)
            start = tracer.mark()
            for _ in range(2):
                for op in ops:
                    op.run()
        finally:
            tracer.uninstall()
        results.append(tracer.metrics(setup_mark, start, 2))
    for metrics in results:
        assert sorted(metrics) == sorted(names)
    counts = [{m: v["value"] for m, v in r.items() if v["unit"] == "count"} for r in results]
    assert counts[0] == counts[1]
    # the verification tools take no drivers
    assert (results[0]["paths.sample_s"]["value"] > 0) == (workload != "check")


def test_uninstall_restores_every_patched_name():
    before = (solver.residual, control.solve_state, model.EnsembleState.node_laws)
    tracing.Tracer().install().uninstall()
    assert (solver.residual, control.solve_state, model.EnsembleState.node_laws) == before
    assert not getattr(model.builtin_example_meanfield().f, "traced", False)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
