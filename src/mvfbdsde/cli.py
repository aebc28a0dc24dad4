"""Batch entry point: load a scenario, run a pipeline, emit CSV + text reports.

Exit codes: 0 = success / property verified; 1 = operational error (bad
config, bad inputs); 2 = the machinery ran and refuted the checked property
(a failed assumption, detected nonuniqueness, a failed optimality check, or a
non-convergent solve).  detect_nonuniqueness also exits 2 when the solve from
any warm start fails, and lists those starts in report.txt.  The refutation
code is deliberate: for the built-in counterexample a failing monotonicity
check is the correct outcome and must be distinguishable from broken tooling.

All file outputs are deterministic functions of (config, seed); timing is
printed to stdout only.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .assumptions import (
    PairSampler,
    check_control_assumptions,
    check_integrability,
    check_monotonicity,
    estimate_lipschitz,
)
from .config import COMMANDS, SCENARIOS, ConfigError, ScenarioConfig
from .control import (
    first_order_candidate,
    gradient_consistency,
    lq_control_scenario,
    verify_smp,
)
from .model import EnsembleState, HomotopyProblem, residual
from .paths import ProcessSpec, discrete_ito_product_check, sample_driver_pair
from .solver import (
    SolverError,
    continuation_solve,
    detect_nonuniqueness,
    ladder_rows,
    picard_solve,
    trajectory_rows,
    write_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvfbdsde",
        description="Solve and verify coupled two-driver mean-field "
        "forward-backward systems.",
    )
    parser.add_argument("--config", help="key=value scenario file")
    parser.add_argument("--scenario", choices=SCENARIOS)
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--particles", type=int)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--out", help="output directory (env MVFBDSDE_OUT wins)")
    parser.add_argument(
        "--threads", type=int,
        help="worker cap, 0 = auto; execution is vectorized and results do "
        "not depend on this value",
    )
    parser.add_argument(
        "--override-horizon", type=float, dest="override_horizon",
        help="replace a scenario-pinned horizon",
    )
    return parser


def load_config(args: argparse.Namespace) -> ScenarioConfig:
    mapping: dict[str, object] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        cfg = ScenarioConfig.from_text(text)
    else:
        cfg = ScenarioConfig()
        if args.scenario:
            cfg.apply_scenario_defaults(args.scenario)
    if args.scenario:
        cfg.apply_scenario_defaults(args.scenario)
    if args.command:
        cfg.command = args.command
    if args.seed is not None:
        cfg.seed = args.seed
    if args.steps is not None:
        cfg.steps = args.steps
    if args.particles is not None:
        cfg.particles = args.particles
    if args.delta is not None:
        cfg.delta = args.delta
    if args.tol is not None:
        cfg.tol = args.tol
    if args.out is not None:
        cfg.out = args.out
    if args.threads is not None:
        cfg.threads = args.threads
    if args.override_horizon is not None:
        cfg.horizon = args.override_horizon
        cfg.override_horizon = True
    env_out = os.environ.get("MVFBDSDE_OUT")
    if env_out:
        cfg.out = env_out
    cfg.validate()
    return cfg


def _write_text(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_kv(path: str, mapping: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(mapping):
            fh.write(f"{key} = {mapping[key]}\n")


def emit_report(report, out_dir: str) -> None:
    """Trajectory and ladder CSVs for a solve report."""
    header, rows = trajectory_rows(report.final_state)
    write_csv(os.path.join(out_dir, "trajectory.csv"), header, rows)
    header, rows = ladder_rows(report)
    write_csv(os.path.join(out_dir, "ladder.csv"), header, rows)


def _drivers(cfg: ScenarioConfig):
    return sample_driver_pair(cfg.grid, cfg.d_w, cfg.d_b, cfg.particles, cfg.seed)


def _cmd_solve(cfg: ScenarioConfig, out_dir: str) -> int:
    drivers = _drivers(cfg)
    reg = cfg.regression
    if cfg.scenario == "lq_control":
        problem = lq_control_scenario(cfg.grid)
        from .control import solve_state

        u = np.broadcast_to(
            problem.control_box_center(), (cfg.steps + 1, problem.d_u)
        ).copy()
        try:
            report = solve_state(problem, u, drivers, reg, cfg.tol)
        except SolverError as err:
            if err.report is not None:
                emit_report(err.report, out_dir)
            _write_text(os.path.join(out_dir, "report.txt"), [f"solve failed: {err}"])
            print(f"solve failed: {err}")
            return EXIT_REFUTED
    else:
        coeffs = cfg.coefficient_set()
        xi = None if cfg.xi == 0.0 else np.full(cfg.d, cfg.xi)
        try:
            report = continuation_solve(
                coeffs,
                case=cfg.case,
                theta1=cfg.theta1,
                theta2=cfg.theta2,
                delta=cfg.delta,
                drivers=drivers,
                reg=reg,
                tol=cfg.tol,
                x=cfg.initial_vector(),
                xi=xi,
                max_iter=cfg.max_iter,
                damping=cfg.damping,
            )
        except SolverError as err:
            if err.report is not None:
                emit_report(err.report, out_dir)
            _write_text(
                os.path.join(out_dir, "report.txt"),
                [f"solve failed: {err}", "see ladder.csv for the partial ladder"],
            )
            print(f"solve failed: {err}")
            return EXIT_REFUTED
    emit_report(report, out_dir)
    res = report.residuals
    lines = [
        f"scenario = {cfg.scenario}",
        f"converged = {report.converged}",
        f"iterations = {report.iterations}",
        f"forward_residual = {res.forward:.6e}",
        f"backward_residual = {res.backward:.6e}",
        f"terminal_residual = {res.terminal:.6e}",
        f"rungs = {len(report.alpha_ladder)}",
    ]
    _write_text(os.path.join(out_dir, "report.txt"), lines)
    print("\n".join(lines))
    print(f"wallclock = {report.wallclock:.2f}s")
    return EXIT_OK if report.converged else EXIT_REFUTED


def _cmd_check_assumptions(cfg: ScenarioConfig, out_dir: str) -> int:
    sampler = PairSampler(cfg.dims, seed=cfg.seed, t_max=cfg.horizon)
    if cfg.scenario == "lq_control":
        problem = lq_control_scenario(cfg.grid)
        report = check_control_assumptions(problem, sampler)
        _write_text(os.path.join(out_dir, "report.txt"), report.text().splitlines())
        _write_kv(os.path.join(out_dir, "assumptions.kv"), report.kv())
        print(report.text())
        return EXIT_OK if report.ok else EXIT_REFUTED

    coeffs = cfg.coefficient_set()
    lip = estimate_lipschitz(coeffs, sampler, min(cfg.n_pairs, 2000))
    mono = check_monotonicity(
        coeffs,
        cfg.theta1,
        cfg.theta2,
        cfg.alpha1,
        direction="A2",
        sampler=sampler,
        n_pairs=cfg.n_pairs,
        local_search=True,
    )
    integ = check_integrability(coeffs, cfg.grid)
    mono.estimated_C = lip.c_hat
    mono.estimated_gamma = lip.gamma_hat
    mono.passes["lipschitz.gamma_below_half"] = lip.gamma_ok
    mono.passes["integrability"] = bool(integ)
    _write_text(os.path.join(out_dir, "report.txt"), mono.text().splitlines())
    _write_kv(os.path.join(out_dir, "assumptions.kv"), mono.kv())
    print(mono.text())
    return EXIT_OK if mono.ok else EXIT_REFUTED


def _sinusoid_state(cfg: ScenarioConfig, noise: float = 0.01) -> EnsembleState:
    grid = cfg.grid
    state = EnsembleState.zeros(cfg.particles, cfg.dims, grid)
    nodes = grid.nodes
    state.y[:, :, 0] = np.sin(nodes)[None, :]
    state.Y[:, :, 0] = np.cos(nodes)[None, :]
    rng = np.random.default_rng(cfg.seed + 1)
    state.y += noise * rng.standard_normal(state.y.shape)
    state.Y += noise * rng.standard_normal(state.Y.shape)
    return state


def _cmd_detect_nonuniqueness(cfg: ScenarioConfig, out_dir: str) -> int:
    coeffs = cfg.coefficient_set()
    drivers = _drivers(cfg)
    reg = cfg.regression
    problem = HomotopyProblem(
        base=coeffs,
        alpha=1.0,
        case=cfg.case,
        theta1=max(cfg.theta1, 1e-6),
        theta2=cfg.theta2,
        x=cfg.initial_vector(),
    )
    warm_starts = [EnsembleState.zeros(cfg.particles, cfg.dims, cfg.grid,
                                       x=cfg.initial_vector())]
    if cfg.scenario == "example2":
        warm_starts.append(_sinusoid_state(cfg))
    else:
        rng = np.random.default_rng(cfg.seed + 2)
        perturbed = warm_starts[0].copy()
        perturbed.y += 0.5 * rng.standard_normal(perturbed.y.shape)
        perturbed.Y += 0.5 * rng.standard_normal(perturbed.Y.shape)
        warm_starts.append(perturbed)
    report = detect_nonuniqueness(
        problem, warm_starts, drivers, reg, cfg.tol, cfg.max_iter,
        damping=cfg.damping,
    )
    threshold = max(0.01, 100.0 * cfg.tol)
    lines = [f"limits = {len(report.limits)}", f"threshold = {threshold:.3e}"]
    for i, lim in enumerate(report.limits):
        line = f"limit[{i}]: converged={lim.converged}"
        res = lim.residuals  # None on the partial report of a divergent start
        if res is not None:
            line += (
                f" fwd={res.forward:.3e} bwd={res.backward:.3e} "
                f"term={res.terminal:.3e}"
            )
        lines.append(line)
    for start, message in report.failed_starts:
        lines.append(f"failed_start[{start}]: {message}")
    n = len(report.limits)
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(
                f"distance[{i},{j}] = {report.pairwise_distances[i, j]:.6e}"
            )
    distinct = report.max_distance > threshold
    lines.append(f"distinct_limits = {distinct}")
    _write_text(os.path.join(out_dir, "report.txt"), lines)
    print("\n".join(lines))
    return EXIT_REFUTED if distinct or report.failed_starts else EXIT_OK


def _cmd_verify_smp(cfg: ScenarioConfig, out_dir: str) -> int:
    if cfg.scenario != "lq_control":
        raise ConfigError("verify_smp needs scenario = lq_control")
    problem = lq_control_scenario(cfg.grid)
    drivers = _drivers(cfg)
    reg = cfg.regression
    candidate = first_order_candidate(problem, drivers, reg, tol=cfg.tol)
    report = verify_smp(
        problem, candidate, n_perturbations=50, drivers=drivers, reg=reg,
        tol=cfg.tol, seed=cfg.seed,
    )
    rng = np.random.default_rng(cfg.seed + 3)
    direction = rng.standard_normal((cfg.steps + 1, problem.d_u))
    grad = gradient_consistency(
        problem, candidate, direction, drivers=drivers, reg=reg, tol=cfg.tol
    )
    kv = report.kv()
    kv["gradient_rel_error"] = format(grad.rel_error, ".17g")
    lines = report.text().splitlines()
    lines.append(f"gradient_rel_error = {grad.rel_error:.6g}")
    _write_text(os.path.join(out_dir, "report.txt"), lines)
    _write_kv(os.path.join(out_dir, "smp.kv"), kv)
    print("\n".join(lines))
    return EXIT_OK if report.verdict and grad.rel_error <= 0.05 else EXIT_REFUTED


def _cmd_ito_check(cfg: ScenarioConfig, out_dir: str) -> int:
    grid = cfg.grid
    drivers = _drivers(cfg)
    m, n = cfg.particles, cfg.steps
    dt = grid.dt
    nodes = grid.nodes
    drift = np.broadcast_to(np.cos(nodes)[None, :, None], (m, n + 1, 1)).copy()
    ones = np.ones((m, n + 1, 1, 1))
    zero_init = np.zeros(1)
    cases = {
        "deterministic_drift": (
            ProcessSpec(initial=np.ones(1), drift=drift),
            ProcessSpec(initial=-np.ones(1), drift=2.0 * drift),
        ),
        "backward_squared": (
            ProcessSpec(initial=zero_init, backward=ones),
            ProcessSpec(initial=zero_init, backward=ones),
        ),
        "mixed_drivers": (
            ProcessSpec(initial=zero_init, forward=ones),
            ProcessSpec(initial=zero_init, backward=ones),
        ),
    }
    bound = 5.0 * dt
    lines = [f"bound = {bound:.6e}"]
    ok = True
    for name, (spec_a, spec_b) in cases.items():
        res = discrete_ito_product_check(spec_a, spec_b, grid, drivers)
        passed = res <= bound
        ok = ok and passed
        lines.append(f"{name}: residual = {res:.6e} ({'pass' if passed else 'FAIL'})")
    _write_text(os.path.join(out_dir, "report.txt"), lines)
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_REFUTED


def run(cfg: ScenarioConfig) -> int:
    """Dispatch a validated configuration; returns the process exit code."""
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.echo"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(cfg.to_text())
    dispatch = {
        "solve": _cmd_solve,
        "check_assumptions": _cmd_check_assumptions,
        "detect_nonuniqueness": _cmd_detect_nonuniqueness,
        "verify_smp": _cmd_verify_smp,
        "ito_check": _cmd_ito_check,
    }
    return dispatch[cfg.command](cfg, out_dir)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return run(cfg)
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
