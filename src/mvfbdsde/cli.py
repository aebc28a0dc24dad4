"""Batch entry point: load a scenario, run a pipeline, emit CSV + text reports.

Exit codes: 0 = success / property verified; 1 = operational error (bad
config or inputs, a non-finite config value, or a coefficient map with
non-finite or misshapen output, under every command); 2 = the machinery ran
and refuted the checked property (a failed assumption, detected
nonuniqueness, a failed optimality check, or a non-convergent solve).
detect_nonuniqueness also exits 2 when the solve from any warm start fails
or does not converge, and lists those starts in report.txt.  The refutation
code is deliberate: for the built-in counterexample a failing monotonicity
check is the correct outcome and must be distinguishable from broken tooling.

All file outputs are deterministic functions of (config, seed); timing is
printed to stdout only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .assumptions import (
    PairSampler,
    check_control_assumptions,
    check_integrability,
    check_monotonicity,
    estimate_lipschitz,
)
from .config import COMMANDS, KEYS, SCENARIOS, ConfigError, ScenarioConfig
from .config import parse_kv, serialize_kv
from .control import first_order_candidate, gradient_consistency, verify_smp
from .model import EnsembleState, as_problem
from .paths import ProcessSpec, discrete_ito_product_check, sample_driver_pair
from .solver import (
    SolverError,
    continuation_solve,
    detect_nonuniqueness,
    ladder_rows,
    trajectory_rows,
    write_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2


def build_parser() -> argparse.ArgumentParser:
    """Each flag's dest is the config key it sets."""
    parser = argparse.ArgumentParser(
        prog="mvfbdsde",
        description="Solve and verify coupled two-driver mean-field "
        "forward-backward systems.",
    )
    parser.add_argument("--config", help="key=value scenario file")
    parser.add_argument("--scenario", choices=SCENARIOS, dest=KEYS["scenario"])
    parser.add_argument("--command", choices=COMMANDS, dest=KEYS["command"])
    parser.add_argument("--seed", type=int, dest=KEYS["seed"])
    parser.add_argument("--steps", type=int, dest=KEYS["steps"], metavar="STEPS")
    parser.add_argument("--particles", type=int, dest=KEYS["particles"], metavar="PARTICLES")
    parser.add_argument("--delta", type=float, dest=KEYS["delta"], metavar="DELTA")
    parser.add_argument("--tol", type=float, dest=KEYS["tol"], metavar="TOL")
    parser.add_argument(
        "--out", dest=KEYS["out"], help="output directory (env MVFBDSDE_OUT wins)"
    )
    parser.add_argument(
        "--threads", type=int, dest=KEYS["threads"],
        help="worker cap, 0 = auto; execution is vectorized and results do "
        "not depend on this value",
    )
    parser.add_argument(
        "--override-horizon", type=float, dest=KEYS["horizon"], metavar="OVERRIDE_HORIZON",
        help="replace a scenario-pinned horizon",
    )
    return parser


def load_config(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario's presets, overridden by the config file, then by the
    flags, then by MVFBDSDE_OUT."""
    mapping: dict[str, object] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            mapping = parse_kv(fh.read())
    mapping.update({k: v for k, v in vars(args).items() if k != "config" and v is not None})
    if vars(args)[KEYS["horizon"]] is not None:  # only --override-horizon sets it
        mapping[KEYS["override_horizon"]] = True
    env_out = os.environ.get("MVFBDSDE_OUT")
    if env_out:
        mapping[KEYS["out"]] = env_out
    return ScenarioConfig.from_mapping(mapping)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_report(report, out_dir: str) -> None:
    """Trajectory and ladder CSVs for a solve report."""
    header, rows = trajectory_rows(report.final_state)
    write_csv(os.path.join(out_dir, "trajectory.csv"), header, rows)
    header, rows = ladder_rows(report)
    write_csv(os.path.join(out_dir, "ladder.csv"), header, rows)


def _drivers(cfg: ScenarioConfig):
    return sample_driver_pair(cfg.grid, cfg.d_w, cfg.d_b, cfg.particles, cfg.seed)


def _cmd_solve(cfg: ScenarioConfig, out_dir: str) -> int:
    start = time.perf_counter()
    try:
        report = continuation_solve(
            cfg.coefficient_set(), cfg.case, cfg.theta1, cfg.theta2, cfg.delta,
            _drivers(cfg), cfg.regression, cfg.tol, x=cfg.initial_vector(),
            xi=cfg.terminal_shift(), max_iter=cfg.max_iter, damping=cfg.damping,
        )
    except SolverError as err:
        lines = [f"solve failed: {err}"]
        if err.report is not None:
            emit_report(err.report, out_dir)
            lines.append("see ladder.csv for the partial ladder")
        _write_lines(os.path.join(out_dir, "report.txt"), lines)
        print(f"solve failed: {err}")
        return EXIT_REFUTED
    wallclock = time.perf_counter() - start
    res = report.residuals  # evaluated here, before any file is written
    emit_report(report, out_dir)
    lines = [
        f"scenario = {cfg.scenario}",
        f"converged = {report.converged}",
        f"iterations = {report.iterations}",
        f"forward_residual = {res.forward:.6e}",
        f"backward_residual = {res.backward:.6e}",
        f"terminal_residual = {res.terminal:.6e}",
        f"rungs = {len(report.alpha_ladder)}",
    ]
    _write_lines(os.path.join(out_dir, "report.txt"), lines)
    print("\n".join(lines))
    print(f"wallclock = {wallclock:.2f}s")
    return EXIT_OK if report.converged else EXIT_REFUTED


def _cmd_check_assumptions(cfg: ScenarioConfig, out_dir: str) -> int:
    sampler = PairSampler(cfg.dims, seed=cfg.seed, t_max=cfg.horizon)
    if cfg.scenario == "lq_control":
        report = check_control_assumptions(cfg.control_problem(), sampler, cfg.n_pairs)
        _write_lines(os.path.join(out_dir, "report.txt"), report.text().splitlines())
        _write_lines(os.path.join(out_dir, "assumptions.kv"),
                     serialize_kv(report.kv()).splitlines())
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
    _write_lines(os.path.join(out_dir, "report.txt"), mono.text().splitlines())
    _write_lines(os.path.join(out_dir, "assumptions.kv"),
                 serialize_kv(mono.kv()).splitlines())
    print(mono.text())
    return EXIT_OK if mono.ok else EXIT_REFUTED


def _sinusoid_state(cfg: ScenarioConfig) -> EnsembleState:
    grid = cfg.grid
    state = EnsembleState.zeros(cfg.particles, cfg.dims, grid)
    nodes = grid.nodes
    state.y[:, :, 0] = np.sin(nodes)[None, :]
    state.Y[:, :, 0] = np.cos(nodes)[None, :]
    rng = np.random.default_rng(cfg.seed + 1)
    state.y += 0.01 * rng.standard_normal(state.y.shape)
    state.Y += 0.01 * rng.standard_normal(state.Y.shape)
    return state


def _cmd_detect_nonuniqueness(cfg: ScenarioConfig, out_dir: str) -> int:
    problem = as_problem(cfg.coefficient_set(), cfg.initial_vector(), cfg.terminal_shift())
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
        problem, warm_starts, _drivers(cfg), cfg.regression, cfg.tol, cfg.max_iter,
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
    _write_lines(os.path.join(out_dir, "report.txt"), lines)
    print("\n".join(lines))
    unconverged = not all(lim.converged for lim in report.limits)
    return EXIT_REFUTED if distinct or report.failed_starts or unconverged else EXIT_OK


def _cmd_verify_smp(cfg: ScenarioConfig, out_dir: str) -> int:
    problem = cfg.control_problem()
    drivers = _drivers(cfg)
    reg = cfg.regression
    candidate = first_order_candidate(problem, drivers, reg, tol=cfg.tol)
    report = verify_smp(
        problem, candidate, n_perturbations=50, drivers=drivers, reg=reg,
        tol=cfg.tol, seed=cfg.seed,
    )
    rng = np.random.default_rng(cfg.seed + 3)
    direction = rng.standard_normal((cfg.steps + 1, problem.d_u))
    # measured at a generic constant control: at the candidate both sides are
    # near zero and their relative error compares discretization noise
    generic = np.full((cfg.steps + 1, problem.d_u), 0.3)
    grad = gradient_consistency(
        problem, generic, direction, drivers=drivers, reg=reg, tol=cfg.tol
    )
    kv = report.kv()
    kv["gradient_rel_error"] = format(grad.rel_error, ".17g")
    lines = report.text().splitlines()
    lines.append(f"gradient_rel_error = {grad.rel_error:.6g}")
    _write_lines(os.path.join(out_dir, "report.txt"), lines)
    _write_lines(os.path.join(out_dir, "smp.kv"), serialize_kv(kv).splitlines())
    print("\n".join(lines))
    return EXIT_OK if report.verdict and grad.rel_error <= 0.05 else EXIT_REFUTED


def _cmd_ito_check(cfg: ScenarioConfig, out_dir: str) -> int:
    grid = cfg.grid
    drivers = _drivers(cfg)
    m, n = cfg.particles, cfg.steps
    dt = grid.dt
    nodes = grid.nodes
    drift = np.broadcast_to(np.cos(nodes)[None, :, None], (m, n + 1, 1)).copy()
    # scalar processes driven by the sum of each driver's components
    ones_w, ones_b = (np.ones((m, n + 1, 1, d)) for d in (cfg.d_w, cfg.d_b))
    zero_init = np.zeros(1)
    cases = {
        "deterministic_drift": (
            ProcessSpec(initial=np.ones(1), drift=drift),
            ProcessSpec(initial=-np.ones(1), drift=2.0 * drift),
        ),
        "backward_squared": (
            ProcessSpec(initial=zero_init, backward=ones_b),
            ProcessSpec(initial=zero_init, backward=ones_b),
        ),
        "mixed_drivers": (
            ProcessSpec(initial=zero_init, forward=ones_w),
            ProcessSpec(initial=zero_init, backward=ones_b),
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
    _write_lines(os.path.join(out_dir, "report.txt"), lines)
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_REFUTED


def run(cfg: ScenarioConfig) -> int:
    """Dispatch a validated configuration; returns the process exit code."""
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "config.echo"), cfg.to_text().splitlines())
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
    except ValueError as err:  # config errors are all raised at load
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
