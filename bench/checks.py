"""Independent references for the benchmark's outputs, and the checks that
compare against them.

Nothing here reuses the package's own solvers or oracles: the example1 mean
path is a closed form, the LQ optimality system is solved by matrix
exponential, and the Lipschitz constants are derived by hand from the
example1 coefficient tables.  Every check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

# Mean-path tolerance for the ladder.  The solve sits 2.6e-3 from the closed
# form at N=50 (Euler bias, the same on every seed); a path shifted by 0.05
# must fail.
LADDER_PATH_TOL = 0.02
# Tail contraction: a rung whose median Picard ratio reaches this is not
# contracting, whatever its final distance says.
CONTRACTION_CAP = 0.9
# LQ candidate and cost against the exact optimality system.  The candidate
# sits 7.7e-3 from it at N=20 and its cost 6.0e-3 (scheme bias, the same on
# every seed); a control shifted by 0.05 must fail.
LQ_CONTROL_TOL = 0.02
LQ_COST_TOL = 0.02
# Example1 constants by hand.  Drift pair: f = E[Y]/2 - Y, F = E[y]/2 - y; a
# point-only move in y or Y with the law held fixed gives |d(f,F)| = |dv|, and
# no move gives more, so C = 1 (the terminal map h = y - E[y]/2 gives the
# same).  Backward noise G = E[z]/4 - z/2 moved in its law alone by a
# translation of z: |dG|^2 = |dE[z]|^2 / 16 = W2^2 / 16, so gamma = 1/16
# (g = E[Z]/4 - Z/2 is the same with Z).  The estimator takes suprema over
# samples that include these axis moves, so it must land on both constants.
EXAMPLE1_C = 1.0
EXAMPLE1_GAMMA = 1.0 / 16.0
CONSTANT_TOL = 1e-9
ORACLE_PATH_TOL = 1e-6


def example1_mean_path(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form means of example1 started at x = 1 on horizon 1.

    Taking expectations, m_y' = -m_Y/2 and m_Y' = -m_y/2, with m_y(0) = 1 and
    m_Y(1) = m_y(1)/2.  So m_y = cosh(t/2) + B sinh(t/2) and
    m_Y = -2 m_y' = -(sinh(t/2) + B cosh(t/2)), with B fixed by the terminal
    condition.
    """
    c, s = np.cosh(0.5), np.sinh(0.5)
    b = -(c / 2 + s) / (c + s / 2)
    t = np.asarray(t, dtype=float)
    return np.cosh(t / 2) + b * np.sinh(t / 2), -(np.sinh(t / 2) + b * np.cosh(t / 2))


def check_ladder(report, tol: float = LADDER_PATH_TOL) -> list[str]:
    """Every rung converged, every rung contracted, and the particle mean path
    lies within ``tol`` of the closed form."""
    failures = []
    if not report.converged or not all(r.converged for r in report.alpha_ladder):
        failures.append("a rung of the ladder did not converge")
    for rung in report.alpha_ladder[1:]:
        if not rung.median_ratio < CONTRACTION_CAP:
            failures.append(
                f"rung alpha={rung.alpha:.3f} tail ratio {rung.median_ratio:.3g} "
                f">= {CONTRACTION_CAP}"
            )
    state = report.final_state
    m_y, m_big_y = example1_mean_path(state.grid.nodes)
    err = max(
        float(np.max(np.abs(state.y[:, :, 0].mean(axis=0) - m_y))),
        float(np.max(np.abs(state.Y[:, :, 0].mean(axis=0) - m_big_y))),
    )
    if not err <= tol:
        failures.append(f"mean path {err:.3g} from the closed form, tolerance {tol}")
    return failures


class LQReference:
    """Exact solution of the LQ scenario's noise-free optimality system.

    With z = Z = 0 every mean equals its particle value, and the state-adjoint
    system in s = (y, Y, p, P) is linear with the stationary control u = -P:

        y' = -Y/2 + u,   Y' = -y/2,   p' = P/2,   P' = p/2 - rho y,

    y(0) = x0, p(0) = -kappa_0 Y(0), Y(T) = c y(T) and
    P(T) = (kappa_T + lambda_T) y(T) - c p(T).  So s(T) = exp(A T) s(0) and the
    two unknowns (Y(0), P(0)) solve a 2x2 linear system; the node path is
    exp(A dt) applied step by step.
    """

    def __init__(self, problem, params: dict[str, float]):
        grid = problem.grid
        rho, c = params["rho"], params["c"]
        k_t = params["kappa_T"] + params["lambda_T"]
        k_0 = params["kappa_0"]
        x0 = float(problem.x[0])
        a = np.array([
            [0.0, -0.5, 0.0, -1.0],
            [-0.5, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.5],
            [-rho, 0.0, 0.5, 0.0],
        ])
        # s(0) = x0 e_y + Y0 (e_Y - kappa_0 e_p) + P0 e_P
        base = np.array([x0, 0.0, 0.0, 0.0])
        dirs = np.array([[0.0, 1.0, -k_0, 0.0], [0.0, 0.0, 0.0, 1.0]]).T
        terminal = np.array([[-c, 1.0, 0.0, 0.0], [-k_t, 0.0, c, 1.0]])
        flow = terminal @ expm(a * grid.horizon)
        unknowns = np.linalg.solve(flow @ dirs, -flow @ base)
        step = expm(a * grid.dt)
        path = np.empty((grid.steps + 1, 4))
        path[0] = base + dirs @ unknowns
        for k in range(grid.steps):
            path[k + 1] = step @ path[k]
        y, big_y, _, big_p = path.T
        self.u = -big_p
        if np.any(self.u <= problem.u_lo[0]) or np.any(self.u >= problem.u_hi[0]):
            raise ValueError("the control box is active; u = -P does not hold")
        ell = 0.5 * self.u**2 + 0.5 * rho * y**2
        # left quadrature, as the particle cost estimator uses
        self.cost = float(
            np.sum(ell[:-1]) * grid.dt + 0.5 * k_t * y[-1] ** 2 + 0.5 * k_0 * big_y[0] ** 2
        )


def check_candidate(u: np.ndarray, ref: LQReference, tol: float = LQ_CONTROL_TOL) -> list[str]:
    err = float(np.max(np.abs(np.asarray(u)[:, 0] - ref.u)))
    if not err <= tol:
        return [f"candidate control {err:.3g} from the exact optimum, tolerance {tol}"]
    return []


def check_smp_report(report, ref: LQReference, tol: float = LQ_COST_TOL) -> list[str]:
    failures = [f"verify_smp check {k} failed" for k, ok in report.checks.items() if not ok]
    err = abs(report.candidate_cost - ref.cost)
    if not err <= tol:
        failures.append(f"candidate cost {err:.3g} from the exact optimum, tolerance {tol}")
    return failures


def check_certified(report, n_pairs: int) -> list[str]:
    """Example1 satisfies the A2 monotonicity condition: no violation."""
    failures = [f"{k} reported a violation" for k, ok in report.passes.items() if not ok]
    if report.samples_used != n_pairs:
        failures.append(f"{report.samples_used} pairs checked, wanted {n_pairs}")
    return failures


def check_lipschitz(estimate, tol: float = CONSTANT_TOL) -> list[str]:
    failures = []
    if not abs(estimate.c_hat - EXAMPLE1_C) <= tol:
        failures.append(f"C_hat {estimate.c_hat!r}, hand-derived {EXAMPLE1_C}")
    if not abs(estimate.gamma_hat - EXAMPLE1_GAMMA) <= tol:
        failures.append(f"gamma_hat {estimate.gamma_hat!r}, hand-derived {EXAMPLE1_GAMMA}")
    return failures


def check_refuted(report) -> list[str]:
    """The counterexample violates monotonicity: its margin is positive."""
    failures = []
    if not report.monotonicity_margin > 0:
        failures.append(f"counterexample margin {report.monotonicity_margin!r} is not positive")
    if report.passes.get("A2.coupling", True):
        failures.append("counterexample passed the A2 coupling check")
    return failures


def check_oracle(result, tol: float = ORACLE_PATH_TOL) -> list[str]:
    failures = [] if result.unique else ["oracle reported several roots"]
    m_y, m_big_y = example1_mean_path(result.times)
    err = max(
        float(np.max(np.abs(result.y[:, 0] - m_y))),
        float(np.max(np.abs(result.Y[:, 0] - m_big_y))),
    )
    if not err <= tol:
        failures.append(f"oracle path {err:.3g} from the closed form, tolerance {tol}")
    return failures
