"""Acceptance gate: each criterion at its stated scale and tolerance,
one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

from mvfbdsde.assumptions import PairSampler, check_control_assumptions, \
    check_monotonicity, estimate_lipschitz
from mvfbdsde.cli import main as cli_main
from mvfbdsde.control import (
    first_order_candidate,
    gradient_consistency,
    lq_control_scenario,
    solve_adjoint,
    solve_state,
    verify_smp,
)
from mvfbdsde.measure import EmpiricalLaw, check_mean_w2_bounds, wasserstein2
from mvfbdsde.model import (
    Dimensions,
    EnsembleState,
    HomotopyProblem,
    builtin_counterexample,
    builtin_example_meanfield,
    residual,
)
from mvfbdsde.paths import (
    ProcessSpec,
    TimeGrid,
    backward_ito_integral,
    discrete_ito_product_check,
    forward_ito_integral,
    sample_driver_pair,
)
from mvfbdsde.solver import (
    RegressionConfig,
    continuation_solve,
    d_metric,
    detect_nonuniqueness,
    moment_ode_oracle,
)
from test_measure import reference_assignment_w2

SEED = 20240611
REG = RegressionConfig()


def report_line(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def example1_run():
    dims = Dimensions(1, 1, 1)
    model = builtin_example_meanfield(dims)
    grid = TimeGrid(1.0, 200)
    drivers = sample_driver_pair(grid, 1, 1, 4000, seed=SEED)
    start = time.perf_counter()
    report = continuation_solve(
        model, "case1", 0.25, 0.25, 0.2, drivers, REG, tol=1e-5,
        x=np.array([1.0]),
    )
    elapsed = time.perf_counter() - start
    oracle = moment_ode_oracle(model, 1.0, grid)
    return report, oracle, elapsed


def test_criterion_1_example1_reproduction(example1_run):
    report, oracle, elapsed = example1_run
    state = report.final_state
    mean_y = state.y[:, :, 0].mean(axis=0)
    mean_big = state.Y[:, :, 0].mean(axis=0)
    err_y = float(np.max(np.abs(mean_y - oracle.y[:, 0])))
    err_big = float(np.max(np.abs(mean_big - oracle.Y[:, 0])))
    std_y = float(np.max(state.y[:, :, 0].std(axis=0)))
    std_big = float(np.max(state.Y[:, :, 0].std(axis=0)))
    rms_z = float(np.sqrt(np.mean(state.z**2)))
    rms_big_z = float(np.sqrt(np.mean(state.Z**2)))
    all_converged = all(r.converged for r in report.alpha_ladder)
    ok = (
        err_y <= 0.02
        and err_big <= 0.02
        and std_y <= 0.05
        and std_big <= 0.05
        and rms_z <= 0.05
        and rms_big_z <= 0.05
        and all_converged
        and elapsed <= 60.0
    )
    report_line(
        1, ok,
        f"mean errors ({err_y:.2e}, {err_big:.2e}) <= 0.02, "
        f"stds ({std_y:.2e}, {std_big:.2e}) <= 0.05, "
        f"noise rms ({rms_z:.2e}, {rms_big_z:.2e}) <= 0.05, "
        f"rungs converged = {all_converged}, runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_2_counterexample_nonuniqueness():
    coeffs, horizon, _, dims = builtin_counterexample()
    grid = TimeGrid(horizon, 300)
    m = 2000
    drivers = sample_driver_pair(grid, 1, 1, m, seed=SEED)
    injected = EnsembleState.zeros(m, dims, grid)
    injected.y[:, :, 0] = np.sin(grid.nodes)[None, :]
    injected.Y[:, :, 0] = np.cos(grid.nodes)[None, :]
    res_inj = residual(coeffs, injected, drivers)
    zero = EnsembleState.zeros(m, dims, grid)
    res_zero = residual(coeffs, zero, drivers)
    problem = HomotopyProblem(base=coeffs, alpha=1.0, case="case1", theta1=1.0,
                              x=np.zeros(1))
    rng = np.random.default_rng(SEED + 1)
    noisy = injected.copy()
    noisy.y += 0.01 * rng.standard_normal(noisy.y.shape)
    noisy.Y += 0.01 * rng.standard_normal(noisy.Y.shape)
    detect = detect_nonuniqueness(
        problem, [zero, noisy], drivers, REG, tol=1e-4, damping=0.35
    )
    distance = detect.max_distance
    limit_residuals = [lim.residuals.max() for lim in detect.limits]
    ok = (
        res_inj.max() <= 0.05
        and res_zero.max() <= 1e-12
        and len(detect.limits) == 2
        and distance >= 0.5
        and all(r <= 0.05 for r in limit_residuals)
    )
    report_line(
        2, ok,
        f"injected residual {res_inj.max():.2e} <= 0.05, zero residual "
        f"{res_zero.max():.1e} <= 1e-12, limit distance {distance:.3f} >= 0.5, "
        f"limit residuals {[f'{r:.2e}' for r in limit_residuals]} <= 0.05",
    )


def test_criterion_3_assumption_certification():
    dims = Dimensions(1, 1, 1)
    model = builtin_example_meanfield(dims)
    mono = check_monotonicity(
        model, 0.25, 0.25, 0.5, "A2", PairSampler(dims, seed=SEED), 10000,
        local_search=True,
    )
    lip = estimate_lipschitz(model, PairSampler(dims, seed=SEED + 1), 2000)
    coeffs, _, _, dims2 = builtin_counterexample()
    bad = check_monotonicity(
        coeffs, 0.25, 0.25, 0.5, "A2", PairSampler(dims2, seed=SEED + 2), 10000
    )
    ok = (
        mono.ok
        and mono.samples_used >= 10000
        and lip.c_hat <= 1.02
        and lip.gamma_hat <= 0.145
        and not bad.passes["A2.coupling"]
        and bad.monotonicity_margin > 0
    )
    report_line(
        3, ok,
        f"reference model: no violation over {mono.samples_used} pairs, "
        f"C_hat {lip.c_hat:.4f} <= 1.02, gamma_hat {lip.gamma_hat:.4f} <= 0.145; "
        f"counterexample witness margin {bad.monotonicity_margin:.3g} > 0",
    )


def test_criterion_4_wasserstein_suite():
    rng = np.random.default_rng(SEED)
    slack = 1e-9
    worst_chain = 0.0
    worst_sym = 0.0
    worst_tri = 0.0
    worst_agree = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 24))
        dim = int(rng.integers(1, 4))
        xs = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0)
        ys = rng.standard_normal((n, dim)) + rng.uniform(-1, 1, size=dim)
        a = EmpiricalLaw.from_samples(xs)
        b = EmpiricalLaw.from_samples(ys)
        res = check_mean_w2_bounds(a, b, (xs, ys[rng.permutation(n)]))
        worst_chain = max(worst_chain, res.mean_gap - res.w2, res.w2 - res.coupling_l2)
        dab = wasserstein2(a, b, "assignment")
        worst_sym = max(worst_sym, abs(dab - wasserstein2(b, a, "assignment")))
        cs = rng.standard_normal((n, dim))
        c = EmpiricalLaw.from_samples(cs)
        worst_tri = max(
            worst_tri,
            wasserstein2(a, c, "assignment")
            - dab - wasserstein2(b, c, "assignment"),
        )
        if dim == 1:
            # both methods reach the stacked solver: hold each to the
            # direct-cost reference
            ref = reference_assignment_w2(a, b)
            worst_agree = max(
                worst_agree, abs(dab - ref), abs(wasserstein2(a, b, "exact_1d") - ref)
            )
    dirac = wasserstein2(
        EmpiricalLaw.dirac(2.0), EmpiricalLaw.dirac(5.0), "exact_1d"
    )
    a_self = EmpiricalLaw.from_samples(rng.standard_normal((10, 2)))
    self_dist = wasserstein2(a_self, a_self, "assignment")
    ok = (
        worst_chain <= slack
        and worst_sym <= 1e-12
        and worst_tri <= slack
        and worst_agree <= 1e-9
        and dirac == 3.0
        and self_dist <= 1e-12
    )
    report_line(
        4, ok,
        f"chain slack {worst_chain:.1e} <= 1e-9, symmetry {worst_sym:.1e}, "
        f"triangle {worst_tri:.1e}, 1d agreement {worst_agree:.1e} <= 1e-9, "
        f"Dirac distance {dirac} == 3 exactly, identity {self_dist:.1e}",
    )


def test_criterion_5_ito_product_formula():
    grid = TimeGrid(1.0, 100)
    m = 10_000
    drivers = sample_driver_pair(grid, 1, 1, m, seed=SEED)
    nodes = grid.nodes
    drift = np.broadcast_to(np.cos(nodes)[None, :, None], (m, 101, 1)).copy()
    ones = np.ones((m, 101, 1, 1))
    z1 = np.zeros(1)
    residuals = [
        discrete_ito_product_check(
            ProcessSpec(np.ones(1), drift=drift),
            ProcessSpec(-np.ones(1), drift=2.0 * drift), grid, drivers,
        ),
        discrete_ito_product_check(
            ProcessSpec(z1, backward=ones), ProcessSpec(z1, backward=ones),
            grid, drivers,
        ),
        discrete_ito_product_check(
            ProcessSpec(z1, forward=ones), ProcessSpec(z1, backward=ones),
            grid, drivers,
        ),
    ]
    bound = 5.0 * grid.dt

    def seed_avg(n):
        total = 0.0
        for seed in range(8):
            g = TimeGrid(1.0, n)
            d = sample_driver_pair(g, 1, 1, 2000, seed=seed)
            nd = np.broadcast_to(np.cos(g.nodes)[None, :, None], (2000, n + 1, 1)).copy()
            small = 0.3 * np.ones((2000, n + 1, 1, 1))
            total += discrete_ito_product_check(
                ProcessSpec(np.ones(1), drift=nd, forward=small, backward=small),
                ProcessSpec(-0.5 * np.ones(1), drift=1.5 * nd, forward=small,
                            backward=small),
                g, d,
            )
        return total / 8.0

    ratio = seed_avg(100) / seed_avg(200)
    ok = all(r <= bound for r in residuals) and 1.5 <= ratio <= 3.0
    report_line(
        5, ok,
        f"residuals {[f'{r:.2e}' for r in residuals]} <= {bound:.2e}, "
        f"dt-halving factor {ratio:.2f} in [1.5, 3]",
    )


def test_criterion_6_integral_statistics():
    grid = TimeGrid(1.0, 100)
    m = 10_000
    drivers = sample_driver_pair(grid, 1, 1, m, seed=SEED + 5)
    ones = np.ones((m, grid.steps + 1))
    fwd = forward_ito_integral(ones, drivers.dW[:, :, 0])
    bwd = backward_ito_integral(ones, drivers.dB[:, :, 0])
    four_sigma = 4.0 / np.sqrt(m)
    ok = (
        abs(fwd.mean()) <= four_sigma
        and abs(bwd.mean()) <= four_sigma
        and abs(fwd.var() - 1.0) <= 0.1
        and abs(bwd.var() - 1.0) <= 0.1
    )
    report_line(
        6, ok,
        f"means ({fwd.mean():+.4f}, {bwd.mean():+.4f}) within {four_sigma:.4f}, "
        f"variances ({fwd.var():.4f}, {bwd.var():.4f}) within 10% of T = 1",
    )


def test_criterion_7_contraction_monitoring(example1_run):
    report, _, _ = example1_run
    rungs = report.alpha_ladder[1:]  # the base rung is a direct solve
    ratios = [r.median_ratio for r in rungs]
    ratios_ok = all(r < 0.9 for r in ratios)
    monotone_ok = True
    for rung in rungs:
        hist = rung.residual_history
        for i in range(2, len(hist)):
            if hist[i] > hist[i - 1] * (1 + 1e-12):
                monotone_ok = False
    ok = ratios_ok and monotone_ok
    report_line(
        7, ok,
        f"tail median ratios {[f'{r:.3f}' for r in ratios]} all < 0.9, "
        f"residual sequences nonincreasing after iteration 2 = {monotone_ok}",
    )


def test_criterion_8_control_smp():
    problem = lq_control_scenario()
    cert = check_control_assumptions(problem)
    drivers0 = sample_driver_pair(problem.grid, 1, 1, 1000, seed=SEED)
    candidate = first_order_candidate(problem, drivers0, REG, iters=6, tol=1e-6)
    verdicts = []
    min_margins = []
    for k in range(5):
        drivers = sample_driver_pair(problem.grid, 1, 1, 1000, seed=SEED + 100 * k)
        rep = verify_smp(
            problem, candidate, n_perturbations=50, drivers=drivers, reg=REG,
            tol=1e-6, seed=SEED + k,
        )
        verdicts.append(rep.verdict)
        min_margins.append(min(rep.cost_margins))
    rng = np.random.default_rng(SEED + 9)
    direction = rng.standard_normal((problem.grid.steps + 1, 1))
    # measured at a generic (non-stationary) control: at the candidate both
    # sides vanish and a relative comparison is vacuous
    generic = np.full((problem.grid.steps + 1, 1), 0.3)
    grad = gradient_consistency(
        problem, generic, direction, drivers=drivers0, reg=REG, tol=1e-6
    )
    state_rep = solve_state(problem, candidate, drivers0, REG, tol=1e-6)
    adj = solve_adjoint(problem, state_rep.final_state, candidate, drivers0, REG,
                        tol=1e-6)
    big_y0 = state_rep.final_state.Y[:, 0]
    p0_res = float(np.max(np.abs(adj.final_state.y[:, 0] + 0.5 * big_y0)))
    term_res = adj.residuals.terminal
    ok = (
        cert.ok
        and all(verdicts)
        and len(set(verdicts)) == 1
        and grad.rel_error <= 0.05
        and p0_res <= 1e-6
        and term_res <= 1e-6
    )
    report_line(
        8, ok,
        f"assumptions certified = {cert.ok}, verdicts across 5 seeds = {verdicts}, "
        f"50-perturbation min margins {[f'{v:.2e}' for v in min_margins]}, "
        f"gradient agreement {grad.rel_error:.3%} <= 5%, boundary residuals "
        f"({p0_res:.1e}, {term_res:.1e}) <= 1e-6",
    )


def test_criterion_9_determinism(tmp_path):
    args = ["--scenario", "example1", "--command", "solve", "--steps", "100",
            "--particles", "1000", "--seed", str(SEED)]
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        code = cli_main(args + ["--threads", threads, "--out", str(out)])
        assert code == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("trajectory.csv", "ladder.csv")
    )
    report_line(
        9, same,
        "trajectory and ladder CSVs byte-identical for --threads 1 vs 4",
    )
