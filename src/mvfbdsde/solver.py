"""Particle solver for the coupled two-driver forward-backward system.

The scheme is a damped Picard iteration of a fully-frozen decoupled step,
lifted to the target system along a continuation ladder in alpha.  Backward
conditional expectations are least-squares regressions on node features built
from y_k and the remaining driver tail B_T - B_{t_k}; that feature set is the
discrete stand-in for the mixed information structure of the problem.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.optimize import brentq

from .measure import EmpiricalLaw
from .model import (
    CoefficientSet,
    Dimensions,
    EnsembleState,
    Forcing,
    HomotopyProblem,
    NodeMoments,
    Quad,
    ResidualTriple,
    eval_stack,
    residual,
)
from .paths import BrownianPair, TimeGrid

BASES = ("constant", "affine_y", "poly2_y_plus_Btail")


class SolverError(RuntimeError):
    """Solver failure; carries whatever partial report exists."""

    def __init__(self, message: str, report: "SolveReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class RegressionConfig:
    """Least-squares conditional-expectation proxy.

    ``basis`` picks the node features: {1}, {1, y}, or {1, y, y x y, Btail}.
    Features at node k use only y_k and B_T - B_{t_k}.
    """

    basis: str = "affine_y"
    ridge: float = 1e-8

    def __post_init__(self) -> None:
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")

    def features(self, y_k: np.ndarray, btail_k: np.ndarray | None) -> np.ndarray:
        """Feature rows of one node, (M, d) -> (M, p), or of a stack of
        nodes, (K, M, d) -> (K, M, p).  Only ``poly2_y_plus_Btail`` reads
        ``btail_k``."""
        cols = [np.broadcast_to(1.0, y_k.shape[:-1] + (1,))]
        if self.basis in ("affine_y", "poly2_y_plus_Btail"):
            cols.append(y_k)
        if self.basis == "poly2_y_plus_Btail":
            d = y_k.shape[-1]
            for i in range(d):
                for j in range(i, d):
                    cols.append((y_k[..., i] * y_k[..., j])[..., None])
            cols.append(btail_k)
        return np.concatenate(cols, axis=-1)


def _btail(reg: RegressionConfig, drivers: BrownianPair) -> np.ndarray | None:
    """The driver tail B_T - B_{t_k} for the basis that reads it, else None."""
    return drivers.b_tail() if reg.basis == "poly2_y_plus_Btail" else None


def _node_features(reg: RegressionConfig, y: np.ndarray, btail: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Node-major features (N, M, p) of nodes 0..N-1 and their Grams
    (N, p, p), from y and btail (or None) of shape (M, N+1, .)."""
    n = y.shape[1] - 1
    tail = None if btail is None else btail[:, :n].transpose(1, 0, 2)
    phi = reg.features(y[:, :n].transpose(1, 0, 2), tail)
    return phi, np.matmul(phi.transpose(0, 2, 1), phi)


def _ridge_coefficients(gram: np.ndarray, rhs: np.ndarray, ridge: float,
                        nodes: Sequence[int]) -> np.ndarray:
    """Coefficients of one ridge regression per node, solved as one batch.

    ``gram`` (K, p, p) holds the Grams of nodes ``nodes`` (one per batch
    entry) and ``rhs`` (K, p, t) the right-hand sides.  The ridge goes on
    every Gram.  A node whose solve raises or returns non-finite coefficients
    is retried alone, its ridge escalated x10 per try (floor 1e-10, 4 tries),
    in batch order; a node that still fails raises SolverError naming it.
    """
    eye = np.eye(gram.shape[-1])
    ridge = max(ridge, 0.0)
    try:
        beta = np.linalg.solve(gram + ridge * eye, rhs)
    except np.linalg.LinAlgError:
        beta = np.full_like(rhs, np.nan)
    for i in np.flatnonzero(~np.isfinite(beta).all(axis=(1, 2))):
        lam = ridge
        for _ in range(4):
            try:
                beta[i] = np.linalg.solve(gram[i] + lam * eye, rhs[i])
            except np.linalg.LinAlgError:
                beta[i] = np.nan
            if np.all(np.isfinite(beta[i])):
                break
            lam = max(lam * 10.0, 1e-10)
        else:
            raise SolverError(f"regression matrix singular at node {nodes[i]}")
    return beta


def _ridge_fit(phi: np.ndarray, gram: np.ndarray, targets: np.ndarray, ridge: float,
               nodes: Sequence[int], out: np.ndarray | None = None) -> np.ndarray:
    """Fitted values ``phi`` (K, M, p) times the ``_ridge_coefficients`` of
    the regressands ``targets`` (K, M, t); ``out`` may be ``targets``."""
    rhs = np.matmul(phi.transpose(0, 2, 1), targets)
    return np.matmul(phi, _ridge_coefficients(gram, rhs, ridge, nodes), out=out)


@dataclass
class LadderRung:
    alpha: float
    iterations: int
    converged: bool
    final_distance: float
    median_ratio: float
    residual_history: list[float] = field(default_factory=list)


@dataclass
class SolveReport:
    """Diagnostics of one Picard run or one full continuation ladder."""

    final_state: EnsembleState
    picard_residuals: list[float] = field(default_factory=list)
    contraction_ratios: list[float] = field(default_factory=list)
    alpha_ladder: list[LadderRung] = field(default_factory=list)
    residuals: ResidualTriple | None = None
    wallclock: float = 0.0
    converged: bool = False
    iterations: int = 0

    def tail_median_ratio(self, burn_in: int = 2) -> float:
        tail = self.contraction_ratios[burn_in:]
        if not tail:
            tail = self.contraction_ratios
        return float(np.median(tail)) if tail else float("nan")


def d_metric(a: EnsembleState, b: EnsembleState) -> float:
    """Contraction metric: mean over particles of sum_k |dv_k|^2 dt +
    |dy_N|^2 (left-node quadrature).  Each block's left-node differences are
    summed as one dot product, in the memory order they come out in."""
    n = a.grid.steps
    integral = 0.0
    for u, v in ((a.y, b.y), (a.Y, b.Y), (a.z, b.z), (a.Z, b.Z)):
        diff = np.subtract(u[:, :n], v[:, :n]).ravel(order="K")
        integral += diff @ diff
    dy_n = (a.y[:, n] - b.y[:, n]).ravel()
    return float((integral * a.grid.dt + dy_n @ dy_n) / a.y.shape[0])


# ----------------------------------------------------------------------------
# One decoupled step
# ----------------------------------------------------------------------------


def _forward_phase(
    drifts: np.ndarray,
    noises: np.ndarray,
    drivers: BrownianPair,
    x0: np.ndarray,
    reg: RegressionConfig,
    btail: np.ndarray | None,
    max_sweeps: int = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Euler propagation of the forward pair (y, z).

    ``drifts``/``noises`` are precomputed per-node arrays (M, N+1, d) and
    (M, N+1, d, d_w).  z rides the backward increments at the right node and is
    recovered per sweep by regressing the one-step martingale residual on dB;
    the pair is iterated to a small fixed point (at most ``max_sweeps``).
    y is the cumulative sum of its increments and every node's z regression
    is solved in one batch.  y and z are built node-major and returned as
    particle-major views.
    """
    m, n, _ = drivers.dW.shape
    d = x0.shape[1]
    d_b = drivers.dB.shape[2]
    dt = drivers.grid.dt
    y = np.empty((n + 1, m, d))

    def propagate(z_nodes: np.ndarray | None) -> np.ndarray:
        """Fill y from its increments; return the martingale residuals
        noise dW - z dB.  ``None`` stands for z = 0, so that the first sweep
        holds no array of zeros."""
        mart = np.einsum("mkij,mkj->kmi", noises[:, :n], drivers.dW)
        if z_nodes is not None:
            mart -= np.einsum("kmij,mkj->kmi", z_nodes[1:], drivers.dB)
        y[0] = x0
        np.multiply(drifts[:, :n].transpose(1, 0, 2), dt, out=y[1:])
        y[1:] += mart
        np.cumsum(y, axis=0, out=y)
        return mart

    z_nodes = None
    for _ in range(max_sweeps):
        # outputs are allocated before the sweep's temporaries, which keeps
        # the heap from fragmenting around them (peak RSS)
        z_new = np.empty((n + 1, m, d, d_b))
        mart = propagate(z_nodes)
        target = np.einsum("kmi,mkj->kmij", mart, drivers.dB, order="C")
        del mart
        phi, gram = _node_features(reg, y.transpose(1, 0, 2), btail)
        _ridge_fit(
            phi, gram, target.reshape(n, m, d * d_b), reg.ridge, range(n),
            out=z_new[1:].reshape(n, m, d * d_b),
        )
        del phi, target
        z_new[1:] /= -dt
        z_new[0] = z_new[1]
        scale = float(np.sqrt(np.mean(z_new**2)))
        change = scale
        if z_nodes is not None:
            change = float(np.sqrt(np.mean((z_new - z_nodes) ** 2)))
        z_nodes = z_new
        if change <= 1e-10 + 1e-3 * scale:
            break
    # final propagation consistent with the settled z
    propagate(z_nodes)
    return y.transpose(1, 0, 2), z_nodes.transpose(1, 0, 2, 3)


def _backward_phase(
    terminal: np.ndarray,
    drifts: np.ndarray,
    noises_b: np.ndarray,
    drivers: BrownianPair,
    y_path: np.ndarray,
    reg: RegressionConfig,
    btail: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Regression sweep for the backward pair (Y, Z).

    Y_k = E_k[Y_{k+1} - drift_k dt] - noiseB_{k+1} dB_k; the backward-noise
    term stays outside the projection because dB_k is known at node k.  Z_k
    regresses the centered Y_{k+1} against dW_k; centering by the fitted
    Y_{k+1} keeps the estimator variance at the cross-sectional spread scale.

    The sweep is linear, so it runs on coefficients: Y_k = Phi_k delta_k -
    Ghat_k (Ghat_k = noiseB_{k+1} dB_k, delta_k the fit of Y_{k+1} less that
    of drift_k dt) gives Phi_k' Y_{k+1} = C_k delta_{k+1} - Phi_k' Ghat_{k+1}
    with C_k = Phi_k' Phi_{k+1}.  One batched solve against
    [C_k | -Phi_k' Ghat_{k+1} (Phi' terminal at N-1) | Phi_k' drift_k dt]
    leaves delta_k = P_k delta_{k+1} + q_k on (p, d) blocks; Z is one batched
    fit.  Both solves take the nodes in descending order, so that a failure
    names the node the sweep reaches first.  Y and Z are built node-major and
    returned as particle-major views.
    """
    m, n, d_w = drivers.dW.shape
    d = terminal.shape[1]
    dt = drivers.grid.dt
    # outputs first, as in _forward_phase
    big_y = np.empty((n + 1, m, d))
    big_z = np.empty((n + 1, m, d, d_w))
    phi, gram = _node_features(reg, y_path, btail)
    p = phi.shape[2]
    phi_t = phi.transpose(0, 2, 1)
    # big_y[k] holds Ghat_k until delta is known
    np.einsum("mkij,mkj->kmi", noises_b[:, 1:], drivers.dB, out=big_y[:n])
    big_y[n] = terminal
    rhs = np.zeros((n, p, p + 2 * d))
    np.matmul(phi_t[:-1], phi[1:], out=rhs[:-1, :, :p])
    np.matmul(phi_t, big_y[1:], out=rhs[:, :, p:p + d])
    rhs[:-1, :, p:p + d] *= -1.0
    np.matmul(phi_t, dt * drifts[:, :n].transpose(1, 0, 2), out=rhs[:, :, p + d:])
    down, desc = slice(None, None, -1), range(n - 1, -1, -1)
    coef = _ridge_coefficients(gram[down], rhs[down], reg.ridge, desc)[down]
    step, fit_drift = coef[:, :, :p], coef[:, :, p + d:]
    delta = coef[:, :, p:p + d] - fit_drift
    for k in range(n - 2, -1, -1):
        delta[k] += step[k] @ delta[k + 1]
    np.subtract(np.matmul(phi, delta), big_y[:n], out=big_y[:n])
    # E_k[Y_{k+1}] = Phi_k beta_k, with beta_k = delta_k + the drift fit
    centered = np.matmul(phi, delta + fit_drift)
    np.subtract(big_y[1:], centered, out=centered)
    # the Z targets are built in big_z, which their fit then overwrites
    np.einsum("kmi,mkj->kmij", centered, drivers.dW, out=big_z[:n])
    del centered
    z_fit = big_z[:n].reshape(n, m, d * d_w)[down]
    _ridge_fit(phi[down], gram[down], z_fit, reg.ridge, desc, out=z_fit)
    big_z[:n] /= dt
    big_z[n] = big_z[n - 1]
    return big_y.transpose(1, 0, 2), big_z.transpose(1, 0, 2, 3)


def solve_decoupled_step(
    problem: HomotopyProblem,
    frozen: EnsembleState,
    drivers: BrownianPair,
    reg: RegressionConfig,
) -> EnsembleState:
    """One application of the frozen-coefficient solve map.

    Every coefficient (including the problem's own alpha-level nonlinearities
    and all law arguments) is evaluated on the ``frozen`` ensemble, each map
    in one call over all N+1 nodes against their first moments; only the
    linear propagation structure acts on the new unknowns.  The terminal map
    is applied to the newly propagated y_N.
    """
    grid = frozen.grid
    if drivers.grid.steps != grid.steps or drivers.particles != frozen.particles:
        raise ValueError("frozen state and drivers disagree in shape")
    n = grid.steps
    m = frozen.particles
    every = slice(None)
    v, laws = frozen.at(every), frozen.node_laws()
    f_hat, g_hat, fb_hat, gb_hat = (
        eval_stack(problem, name, every, grid.nodes, v, laws) for name in "fgFG"
    )

    btail = _btail(reg, drivers)
    x0 = problem.initial(m)
    y, z_nodes = _forward_phase(f_hat, g_hat, drivers, x0, reg, btail)
    y_t = y[:, n]
    terminal = problem.terminal(y_t, EmpiricalLaw.from_samples(y_t))
    big_y, big_z = _backward_phase(terminal, fb_hat, gb_hat, drivers, y, reg, btail)
    return EnsembleState(y=y, Y=big_y, z=z_nodes, Z=big_z, grid=grid)


def linear_base_solve(
    problem: HomotopyProblem,
    drivers: BrownianPair,
    reg: RegressionConfig,
) -> EnsembleState:
    """Exact-sweep solution of the alpha = 0 member.

    In case1 the forward pair decouples (forcing only) and the backward pair is
    linear in the already-known (y, z); in case2 the backward pair decouples
    and the forward drift/noise are linear in the known (Y, Z).  Either way a
    single pass of explicit sweeps suffices; only the small (y, z) fixed point
    is iterated.
    """
    if problem.alpha != 0.0:
        raise ValueError("linear base solve requires alpha = 0")
    grid = drivers.grid
    n = grid.steps
    m = drivers.particles
    dims = problem.dims
    btail = _btail(reg, drivers)
    x0 = problem.initial(m)
    forcing = problem.forcing

    def forcing_array(which: str, shape: tuple) -> np.ndarray:
        arr = getattr(forcing, which)
        return np.zeros(shape) if arr is None else arr

    f_force = forcing_array("f_term", (m, n + 1, dims.d))
    g_force = forcing_array("g_term", (m, n + 1, dims.d, dims.d_w))
    fb_force = forcing_array("F_term", (m, n + 1, dims.d))
    gb_force = forcing_array("G_term", (m, n + 1, dims.d, dims.d_b))

    if problem.case == "case1":
        y, z_nodes = _forward_phase(f_force, g_force, drivers, x0, reg, btail)
        y_t = y[:, n]
        terminal = problem.terminal(y_t, EmpiricalLaw.from_samples(y_t))
        drifts = -problem.theta1 * y + fb_force
        noises_b = -problem.theta1 * z_nodes + gb_force
        big_y, big_z = _backward_phase(
            terminal, drifts, noises_b, drivers, y, reg, btail
        )
        return EnsembleState(y=y, Y=big_y, z=z_nodes, Z=big_z, grid=grid)

    # case2: backward pair first (terminal = xi only), then the damped forward
    zeros_y = np.zeros((m, n + 1, dims.d))
    terminal = problem.terminal(x0, EmpiricalLaw.from_samples(x0))  # alpha*h == 0
    big_y, big_z = _backward_phase(
        terminal, fb_force, gb_force, drivers, zeros_y, reg, btail
    )
    drifts = -problem.theta2 * big_y + f_force
    noises = -problem.theta2 * big_z + g_force
    y, z_nodes = _forward_phase(drifts, noises, drivers, x0, reg, btail)
    return EnsembleState(y=y, Y=big_y, z=z_nodes, Z=big_z, grid=grid)


# ----------------------------------------------------------------------------
# Picard iteration and the continuation ladder
# ----------------------------------------------------------------------------


def _iterate(
    problem: HomotopyProblem,
    warm: EnsembleState,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float,
    max_iter: int,
    damping: float,
) -> SolveReport:
    """The Picard loop of ``picard_solve`` without the final residual, which
    the ladder's intermediate rungs do not need."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    start = time.perf_counter()
    report = SolveReport(final_state=warm)
    current = warm
    d_first = None
    for it in range(1, max_iter + 1):
        proposal = solve_decoupled_step(problem, current, drivers, reg)
        if damping < 1.0:
            proposal = EnsembleState(
                y=(1 - damping) * current.y + damping * proposal.y,
                Y=(1 - damping) * current.Y + damping * proposal.Y,
                z=(1 - damping) * current.z + damping * proposal.z,
                Z=(1 - damping) * current.Z + damping * proposal.Z,
                grid=current.grid,
            )
        dist = d_metric(proposal, current)
        if report.picard_residuals:
            prev = report.picard_residuals[-1]
            if prev > 0:
                report.contraction_ratios.append(dist / prev)
        report.picard_residuals.append(dist)
        current = proposal
        report.iterations = it
        if d_first is None:
            d_first = dist
        if dist <= tol:
            report.converged = True
            break
        if d_first > 0 and dist > 1e6 * d_first:
            report.final_state = current
            report.wallclock = time.perf_counter() - start
            raise SolverError("Picard divergence", report)
    report.final_state = current
    report.alpha_ladder = [
        LadderRung(
            alpha=problem.alpha,
            iterations=report.iterations,
            converged=report.converged,
            final_distance=report.picard_residuals[-1] if report.picard_residuals else 0.0,
            median_ratio=report.tail_median_ratio(),
            residual_history=list(report.picard_residuals),
        )
    ]
    report.wallclock = time.perf_counter() - start
    return report


def picard_solve(
    problem: HomotopyProblem,
    warm: EnsembleState,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float = 1e-5,
    max_iter: int = 60,
    damping: float = 1.0,
) -> SolveReport:
    """Iterate the frozen step until the contraction metric between successive
    iterates drops below ``tol``, then evaluate the limit's residuals.
    The metric is squared, so a converged iterate can still move by about
    sqrt(tol) per step.

    ``damping`` in (0, 1] relaxes the update; 1 is the plain iteration.
    Raises SolverError("Picard divergence") when the distance blows past 1e6
    of its first value, with the partial report attached.
    """
    start = time.perf_counter()
    report = _iterate(problem, warm, drivers, reg, tol, max_iter, damping)
    report.residuals = residual(problem, report.final_state, drivers)
    report.wallclock = time.perf_counter() - start
    return report


def continuation_solve(
    base: CoefficientSet,
    case: str,
    theta1: float,
    theta2: float,
    delta: float,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float = 1e-5,
    *,
    x: np.ndarray | None = None,
    xi: np.ndarray | None = None,
    forcing: Forcing | None = None,
    terminal_kind: str = "map",
    c: float = 1.0,
    max_iter: int = 60,
    damping: float = 1.0,
    max_halvings: int = 3,
) -> SolveReport:
    """Climb the alpha ladder 0 -> 1 in steps of ``delta``.

    The base rung is solved exactly; each later rung runs the Picard iteration
    warm-started at the previous rung, to ``tol`` on the squared contraction
    metric (a converged iterate can still move by about sqrt(tol) per step).
    A failed rung halves the step (up to ``max_halvings`` times) before giving
    up with the partial ladder attached.
    Only the final state's residuals are evaluated; the rungs skip theirs.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    start = time.perf_counter()
    problem = HomotopyProblem(
        base=base,
        alpha=0.0,
        case=case,
        theta1=theta1,
        theta2=theta2,
        forcing=forcing or Forcing(),
        xi=xi,
        x=x,
        terminal_kind=terminal_kind,
        c=c,
    )
    state = linear_base_solve(problem, drivers, reg)
    ladder = [LadderRung(0.0, 0, True, 0.0, 0.0)]
    report = SolveReport(final_state=state, alpha_ladder=ladder)
    alpha = 0.0
    step = delta
    halvings = 0
    while alpha < 1.0 - 1e-12:
        target = min(1.0, alpha + step)
        rung_problem = problem.at_alpha(target)
        try:
            rung = _iterate(
                rung_problem, state, drivers, reg, tol, max_iter, damping
            )
        except SolverError as err:
            rung = err.report
        if rung is None or not rung.converged:
            halvings += 1
            if halvings > max_halvings:
                if rung is not None:
                    ladder.extend(rung.alpha_ladder)
                    report.final_state = rung.final_state
                report.wallclock = time.perf_counter() - start
                raise SolverError(
                    f"continuation failed at alpha={target:.4f}", report
                )
            step /= 2.0
            continue
        ladder.extend(rung.alpha_ladder)
        state = rung.final_state
        alpha = target
        report.picard_residuals = rung.picard_residuals
        report.contraction_ratios = rung.contraction_ratios
        report.iterations += rung.iterations
    report.final_state = state
    report.converged = all(r.converged for r in ladder)
    report.residuals = residual(problem.at_alpha(1.0), state, drivers)
    report.wallclock = time.perf_counter() - start
    return report


def detect_nonuniqueness(
    problem: HomotopyProblem,
    warm_starts: list[EnsembleState],
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float = 1e-5,
    max_iter: int = 60,
    damping: float = 1.0,
) -> "NonuniquenessReport":
    """Run the Picard iteration from several warm starts and compare limits.

    A start whose solve raises SolverError is listed in ``failed_starts`` with
    its message; its partial report, when it has one, still joins the limits.
    """
    limits: list[SolveReport] = []
    failed: list[tuple[int, str]] = []
    for i, warm in enumerate(warm_starts):
        try:
            limits.append(
                picard_solve(problem, warm, drivers, reg, tol, max_iter, damping)
            )
        except SolverError as err:
            failed.append((i, str(err)))
            if err.report is not None:
                limits.append(err.report)
    n = len(limits)
    distances = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dij = d_metric(limits[i].final_state, limits[j].final_state)
            distances[i, j] = distances[j, i] = dij
    return NonuniquenessReport(
        limits=limits, pairwise_distances=distances, failed_starts=failed
    )


@dataclass
class NonuniquenessReport:
    limits: list[SolveReport]
    pairwise_distances: np.ndarray
    failed_starts: list[tuple[int, str]] = field(default_factory=list)  # (start, message)

    @property
    def max_distance(self) -> float:
        return float(self.pairwise_distances.max()) if self.limits else 0.0


# ----------------------------------------------------------------------------
# Deterministic moment oracle
# ----------------------------------------------------------------------------


@dataclass
class MomentOracleResult:
    times: np.ndarray
    y: np.ndarray  # (N+1, d)
    Y: np.ndarray  # (N+1, d)
    unique: bool
    roots: list[list[float]]  # per component
    noise_free: bool = True  # the oracle asserts z* = Z* = 0


def _dirac_stack(atoms: Quad) -> tuple[Quad, NodeMoments]:
    """K single atoms (blocks (K, ...)) as a stack of K Dirac ensembles
    (M = 1) with their moments: a single atom's mean is the atom itself."""
    return Quad(*(b[None] for b in atoms)), NodeMoments(atoms.flat())


def _terminal_residual(model: CoefficientSet, grid: TimeGrid, x0: float,
                       guesses: np.ndarray, component: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the noise-free reduction by RK4 from every guess of Y(0) at
    once; returns the terminal gaps (K,) and the paths (K, N+1, 2) of
    (y, Y).  Each RK4 stage makes one f and one F call over the K guesses."""
    n = grid.steps
    dt = grid.dt
    dims = model.dims
    k = len(guesses)
    path = np.zeros((k, n + 1, 2))
    path[:, 0, 0] = x0
    path[:, 0, 1] = guesses

    def rhs(state: np.ndarray, tt: float) -> np.ndarray:
        atoms = Quad.zeros(k, dims)
        atoms.y[:, component] = state[:, 0]
        atoms.Y[:, component] = state[:, 1]
        v, law = _dirac_stack(atoms)
        t = np.full(k, tt)
        return np.stack(
            [model.f(t, v, law)[0, :, component], model.F(t, v, law)[0, :, component]],
            axis=1,
        )

    t = 0.0
    for step in range(n):
        s = path[:, step]
        k1 = rhs(s, t)
        k2 = rhs(s + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(s + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(s + dt * k3, t + dt)
        path[:, step + 1] = s + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    y_t = np.zeros((k, dims.d))
    y_t[:, component] = path[:, n, 0]
    h_val = model.h(y_t[None], NodeMoments(y_t))[0, :, component]
    return path[:, n, 1] - h_val, path


def _check_noise_free(model: CoefficientSet, x: np.ndarray, grid: TimeGrid,
                      bracket_scale: float) -> None:
    """Raise ValueError unless g and G vanish on deterministic inputs with
    z = Z = 0.  Probes y and Y at the bracket ends and at x, on the first,
    middle and last node, each under its own Dirac law: one g and one G call
    over the stack of probes, and the first failing probe is named."""
    reach = bracket_scale * (1.0 + np.abs(x))
    levels = (-reach, x, reach)
    nodes = grid.nodes
    probes = list(product((nodes[0], nodes[grid.steps // 2], nodes[-1]), levels, levels))
    atoms = Quad.zeros(len(probes), model.dims)
    for i, (_, y, big_y) in enumerate(probes):
        atoms.y[i] = y
        atoms.Y[i] = big_y
    v, law = _dirac_stack(atoms)
    t = np.array([p[0] for p in probes])
    nonzero = np.stack([
        np.max(np.abs(np.broadcast_to(fn(t, v, law), like.shape)), axis=(0, 2, 3)) > 1e-12
        for fn, like in ((model.g, v.Z), (model.G, v.z))
    ])
    if np.any(nonzero):
        i = int(np.argmax(np.any(nonzero, axis=0)))
        name = "g" if nonzero[0, i] else "G"
        raise ValueError(
            f"oracle needs noise-free dynamics, but {name} is "
            f"nonzero at z = Z = 0 (t={t[i]:g})"
        )


def moment_ode_oracle(
    model: CoefficientSet,
    x: np.ndarray | float,
    grid: TimeGrid,
    *,
    bracket_scale: float = 8.0,
    scan_points: int = 161,
) -> MomentOracleResult:
    """Shooting solution of the noise-free mean reduction.

    Applies to first-moment models whose forward/backward noise coefficients
    vanish on deterministic inputs with z = Z = 0 and whose components
    decouple.  Each component's unknown Y(0) is scanned over a bracket, all
    guesses integrated together as one stack; each sign change is rooted by
    Brent's method (``scipy.optimize.brentq``) to 1e-15 (1 + |root|), one
    guess at a time.  Finding several distinct roots (or a root continuum)
    flags the boundary-value problem as non-unique.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_noise_free(model, x, grid, bracket_scale)
    d = model.dims.d
    n = grid.steps
    y_out = np.zeros((n + 1, d))
    big_y_out = np.zeros((n + 1, d))
    roots_all: list[list[float]] = []
    unique = True
    for comp in range(d):
        x0 = float(x[comp])
        lo = -bracket_scale * (1.0 + abs(x0))
        hi = bracket_scale * (1.0 + abs(x0))
        guesses = np.linspace(lo, hi, scan_points)
        values = _terminal_residual(model, grid, x0, guesses, comp)[0]
        scale = max(1.0, float(np.max(np.abs(values))))
        ztol = 1e-9 * scale
        roots: list[float] = []
        plateau = int(np.sum(np.abs(values) <= ztol))
        if plateau >= 2:
            # residual vanishes on a whole sweep: a continuum of solutions
            roots = [float(g) for g in guesses[np.abs(values) <= ztol][:8]]
            unique = False
        else:
            for i in range(scan_points - 1):
                a, b = guesses[i], guesses[i + 1]
                fa, fb = values[i], values[i + 1]
                if abs(fa) <= ztol:
                    roots.append(float(a))
                    continue
                if fa * fb < 0:
                    roots.append(float(brentq(
                        lambda g: _terminal_residual(model, grid, x0, [g], comp)[0][0],
                        a, b, xtol=1e-15, rtol=1e-15,
                    )))
            if abs(values[-1]) <= ztol:
                roots.append(float(guesses[-1]))
            # deduplicate
            dedup: list[float] = []
            for r in roots:
                if not dedup or abs(r - dedup[-1]) > 1e-6 * (1.0 + hi - lo):
                    dedup.append(r)
            roots = dedup
            if len(roots) > 1:
                unique = False
        if not roots:
            raise SolverError(
                f"shooting failed to bracket a root for component {comp}"
            )
        roots_all.append(roots)
        _, path = _terminal_residual(model, grid, x0, roots[:1], comp)
        y_out[:, comp] = path[0, :, 0]
        big_y_out[:, comp] = path[0, :, 1]
    return MomentOracleResult(
        times=grid.nodes, y=y_out, Y=big_y_out, unique=unique, roots=roots_all
    )


# ----------------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def trajectory_rows(state: EnsembleState) -> tuple[list[str], list[list[str]]]:
    d = state.y.shape[2]
    header = (
        ["t"]
        + [f"mean_y_{i}" for i in range(d)]
        + [f"mean_Y_{i}" for i in range(d)]
        + ["rms_z", "rms_Z", "std_y", "std_Y"]
    )
    rows = []
    for k, t in enumerate(state.grid.nodes):
        mean_y = state.y[:, k].mean(axis=0)
        mean_big = state.Y[:, k].mean(axis=0)
        rms_z = np.sqrt(np.mean(np.sum(state.z[:, k] ** 2, axis=(1, 2))))
        rms_big = np.sqrt(np.mean(np.sum(state.Z[:, k] ** 2, axis=(1, 2))))
        std_y = np.sqrt(np.mean(np.sum((state.y[:, k] - mean_y) ** 2, axis=1)))
        std_big = np.sqrt(np.mean(np.sum((state.Y[:, k] - mean_big) ** 2, axis=1)))
        rows.append(
            [_fmt(t)]
            + [_fmt(v) for v in mean_y]
            + [_fmt(v) for v in mean_big]
            + [_fmt(rms_z), _fmt(rms_big), _fmt(std_y), _fmt(std_big)]
        )
    return header, rows


def ladder_rows(report: SolveReport) -> tuple[list[str], list[list[str]]]:
    header = ["alpha", "iterations", "final_D", "median_ratio"]
    rows = [
        [_fmt(r.alpha), str(r.iterations), _fmt(r.final_distance), _fmt(r.median_ratio)]
        for r in report.alpha_ladder
    ]
    return header, rows


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
