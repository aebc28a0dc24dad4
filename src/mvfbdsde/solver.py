"""Particle solver for the coupled two-driver forward-backward system.

The scheme is a damped Picard iteration of a fully-frozen decoupled step,
lifted to the target system along a continuation ladder in alpha.  Backward
conditional expectations are least-squares regressions on node features built
from y_k and the remaining driver tail B_T - B_{t_k}; that feature set is the
discrete stand-in for the mixed information structure of the problem.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .model import (
    CoefficientError,
    CoefficientSet,
    EnsembleState,
    HomotopyProblem,
    NodeMoments,
    Quad,
    ResidualTriple,
    _checked,
    eval_system,
    eval_terminal,
    residual,
)
from .paths import BrownianPair, TimeGrid

BASES = ("constant", "affine_y", "poly2_y_plus_Btail")
# step halvings a continuation ladder may take before it gives up
MAX_HALVINGS = 3


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
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Node-major features of nodes 0..N-1, from y and btail (or None) of
    shape (M, N+1, .): phi = [1, X] (N, M, p), its non-constant columns X
    (N, M, p-1), their column sums (N, p-1) and the Grams (N, p, p).

    For ``affine_y`` X is the y slab itself, C-ordered (a node-major y is
    not copied): numpy takes a single column through its dot path only at
    unit stride.  Otherwise X is phi's own columns, which BLAS reads in place.
    """
    n = y.shape[1] - 1
    tail = None if btail is None else btail[:, :n].transpose(1, 0, 2)
    slab = y[:, :n].transpose(1, 0, 2)
    phi = reg.features(slab, tail)
    x = np.ascontiguousarray(slab) if reg.basis == "affine_y" else phi[..., 1:]
    gram = _self_gram(x)
    return phi, x, gram[:, 0, 1:], gram


def _self_gram(x: np.ndarray) -> np.ndarray:
    """Grams phi'phi (K, p, p) of features phi = [1, X] with X (K, M, q):
    M in the corner, the column sums of X and X'X, the first column by
    symmetry."""
    k, m, q = x.shape
    gram = np.empty((k, q + 1, q + 1))
    _column_sums(x, out=gram[:, 0, 1:])
    np.matmul(x.transpose(0, 2, 1), x, out=gram[:, 1:, 1:])
    gram[:, 0, 0] = m
    gram[:, 1:, 0] = gram[:, 0, 1:]
    return gram


def _column_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Column sums (K, t) of a stack (K, M, t), as one product with the ones
    vector: np.sum over the middle axis is many times slower."""
    return np.matmul(np.ones(a.shape[1]), a, out=out)


def _cross_gram(x: np.ndarray, sums: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cross-Grams phi_k' phi_{k+1} (K-1, p, p) of features phi = [1, X],
    X (K, M, q) with column sums ``sums`` (K, q), from the closed form of
    the ones column: [[M, sum x_{k+1}'], [sum x_k, X_k' X_{k+1}]]."""
    m = x.shape[1]
    out[:, 0, 0] = m
    out[:, 0, 1:] = sums[1:]
    out[:, 1:, 0] = sums[:-1]
    np.matmul(x[:-1].transpose(0, 2, 1), x[1:], out=out[:, 1:, 1:])
    return out


def _moments(x: np.ndarray, targets: np.ndarray, out: np.ndarray | None = None
             ) -> np.ndarray:
    """Right-hand sides phi' T (K, p, t) of features phi = [1, X] against the
    regressands T (K, M, t): the column sums of T over X' T."""
    k, _, q = x.shape
    if out is None:
        out = np.empty((k, q + 1, targets.shape[2]))
    _column_sums(targets, out=out[:, 0])
    np.matmul(x.transpose(0, 2, 1), targets, out=out[:, 1:])
    return out


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


def _ridge_fit(phi: np.ndarray, x: np.ndarray, gram: np.ndarray, targets: np.ndarray,
               ridge: float, nodes: Sequence[int], divisor: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """Fitted values ``phi`` (K, M, p) times the ``_ridge_coefficients`` of
    the regressands ``targets`` (K, M, t), divided by ``divisor``, with ``x``
    phi's non-constant columns; ``out`` may be ``targets``.  The division
    acts on the (K, p, t) coefficients before the product, not on the
    (K, M, t) fitted values."""
    beta = _ridge_coefficients(gram, _moments(x, targets), ridge, nodes)
    beta /= divisor
    return np.matmul(phi, beta, out=out)


@dataclass
class LadderRung:
    """One Picard run: ``residual_history`` holds its contraction distances,
    one per iteration, and ``final_distance`` the last (0.0 with none)."""

    alpha: float
    iterations: int
    converged: bool
    final_distance: float
    median_ratio: float
    residual_history: list[float] = field(default_factory=list)


@dataclass
class SolveReport:
    """Diagnostics of one Picard run or one full continuation ladder: its
    rungs, one per Picard run, and the state they end in.

    A finished solve sets ``problem`` and ``drivers``; ``residuals`` is then
    evaluated on ``final_state`` at first read and kept.  A partial report
    (from SolverError) has neither and reads None.
    """

    final_state: EnsembleState
    alpha_ladder: list[LadderRung] = field(default_factory=list)
    problem: HomotopyProblem | None = field(default=None, repr=False)
    drivers: BrownianPair | None = field(default=None, repr=False)
    _residuals: ResidualTriple | None = field(default=None, init=False, repr=False)

    @property
    def iterations(self) -> int:
        return sum(r.iterations for r in self.alpha_ladder)

    @property
    def converged(self) -> bool:
        return bool(self.alpha_ladder) and all(r.converged for r in self.alpha_ladder)

    @property
    def residuals(self) -> ResidualTriple | None:
        if self._residuals is None and self.problem is not None:
            self._residuals = residual(self.problem, self.final_state, self.drivers)
        return self._residuals


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
    (M, N+1, d, d_w), only read.  z rides the backward increments at the
    right node and is recovered per sweep by regressing the one-step
    martingale residual g dW - z dB on dB; the pair is iterated to a small
    fixed point (at most ``max_sweeps``).  Every node's z regression is
    solved in one batch, its -1/dt applied to the coefficients.

    y_k is the drive x0 + sum_{j<k} (f_j dt + g_j dW_j), which does not
    depend on z and is built once, less the running sum of z_{j+1} dB_j.
    The first sweep (z = 0) reads the drive as y; a later sweep subtracts
    its z's sum into a y of its own; the final propagation subtracts the
    settled z's sum from the drive in place.  Running sums go node by node
    on whole slabs, in cumsum's order.  y and z are built node-major and
    returned as particle-major views.
    """
    m, n, _ = drivers.dW.shape
    d = x0.shape[1]
    d_b = drivers.dB.shape[2]
    dt = drivers.grid.dt
    drive = np.empty((n + 1, m, d))

    def z_db(z_nodes: np.ndarray) -> np.ndarray:
        """z_{k+1} dB_k on nodes 0..N-1, (N, M, d)."""
        return np.einsum("kmij,mkj->kmi", z_nodes[1:], drivers.dB)

    def less_z_sum(zdb: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` = the drive less the running sum of ``zdb``, which is
        summed in place."""
        for k in range(1, n):
            np.add(zdb[k - 1], zdb[k], out=zdb[k])
        out[0] = drive[0]
        np.subtract(drive[1:], zdb, out=out[1:])
        return out

    y, z_nodes = drive, None
    for _ in range(max_sweeps):
        # outputs are allocated before the sweep's temporaries, which keeps
        # the heap from fragmenting around them (peak RSS)
        z_new = np.empty((n + 1, m, d, d_b))
        mart = np.einsum("mkij,mkj->kmi", noises[:, :n], drivers.dW)
        if z_nodes is None:
            drive[0] = x0
            np.multiply(drifts[:, :n].transpose(1, 0, 2), dt, out=drive[1:])
            drive[1:] += mart
            for k in range(n):
                np.add(drive[k], drive[k + 1], out=drive[k + 1])
        else:
            zdb = z_db(z_nodes)
            mart -= zdb
            y = less_z_sum(zdb, np.empty_like(drive))
            del zdb
        # the regression targets are built in z_new, which their fit then
        # overwrites
        np.einsum("kmi,mkj->kmij", mart, drivers.dB, out=z_new[1:])
        del mart
        phi, x, _, gram = _node_features(reg, y.transpose(1, 0, 2), btail)
        z_fit = z_new[1:].reshape(n, m, d * d_b)
        _ridge_fit(phi, x, gram, z_fit, reg.ridge, range(n), -dt, out=z_fit)
        del phi, x
        z_new[0] = z_new[1]
        flat = z_new.ravel()
        scale = float(np.sqrt(flat @ flat / flat.size))
        change = scale
        if z_nodes is not None:
            step = np.subtract(z_new, z_nodes).ravel()
            change = float(np.sqrt(step @ step / step.size))
        z_nodes = z_new
        if change <= 1e-10 + 1e-3 * scale:
            break
    # final propagation consistent with the settled z, into the drive
    del y
    y = less_z_sum(z_db(z_nodes), drive)
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
    fit, its 1/dt applied to the coefficients.  Both solves take the nodes in
    descending order, so that a failure names the node the sweep reaches
    first.  ``drifts`` and ``noises_b`` are only read.  Y and Z are built
    node-major and returned as particle-major views.
    """
    m, n, d_w = drivers.dW.shape
    d = terminal.shape[1]
    dt = drivers.grid.dt
    # outputs first, as in _forward_phase
    big_y = np.empty((n + 1, m, d))
    big_z = np.empty((n + 1, m, d, d_w))
    phi, x, sums, gram = _node_features(reg, y_path, btail)
    p = phi.shape[2]
    # big_y[k] holds Ghat_k until delta is known
    np.einsum("mkij,mkj->kmi", noises_b[:, 1:], drivers.dB, out=big_y[:n])
    big_y[n] = terminal
    rhs = np.zeros((n, p, p + 2 * d))
    _cross_gram(x, sums, out=rhs[:-1, :, :p])
    _moments(x, big_y[1:], out=rhs[:, :, p:p + d])
    rhs[:-1, :, p:p + d] *= -1.0
    _moments(x, drifts[:, :n].transpose(1, 0, 2), out=rhs[:, :, p + d:])
    rhs[:, :, p + d:] *= dt
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
    _ridge_fit(phi[down], x[down], gram[down], z_fit, reg.ridge, desc, dt, out=z_fit)
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
    v, laws = frozen.at(slice(None)), frozen.node_laws()
    f_hat, g_hat, fb_hat, gb_hat = problem.evaluate(grid.nodes, v, laws)

    btail = _btail(reg, drivers)
    x0 = problem.initial(m)
    y, z_nodes = _forward_phase(f_hat, g_hat, drivers, x0, reg, btail)
    y_t = y[:, n]
    terminal = problem.terminal(y_t)
    big_y, big_z = _backward_phase(terminal, fb_hat, gb_hat, drivers, y, reg, btail)
    return EnsembleState(y=y, Y=big_y, z=z_nodes, Z=big_z, grid=grid)


def linear_base_solve(
    problem: HomotopyProblem,
    drivers: BrownianPair,
    reg: RegressionConfig,
) -> EnsembleState:
    """Exact-sweep solution of the alpha = 0 member.

    In case1 the forward pair decouples (zero coefficients) and the backward pair is
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
    # the member's own drifts and noises, all zero, kept particle-major, in
    # this allocation order and in the sums below: a node-major layout
    # changed the bits, and allocation order alone moves the peak RSS
    f_zero = np.zeros((m, n + 1, dims.d))
    g_zero = np.zeros((m, n + 1, dims.d, dims.d_w))
    fb_zero = np.zeros((m, n + 1, dims.d))
    gb_zero = np.zeros((m, n + 1, dims.d, dims.d_b))

    if problem.case == "case1":
        y, z_nodes = _forward_phase(f_zero, g_zero, drivers, x0, reg, btail)
        y_t = y[:, n]
        terminal = problem.terminal(y_t)
        drifts = -problem.theta1 * y + fb_zero
        noises_b = -problem.theta1 * z_nodes + gb_zero
        big_y, big_z = _backward_phase(
            terminal, drifts, noises_b, drivers, y, reg, btail
        )
        return EnsembleState(y=y, Y=big_y, z=z_nodes, Z=big_z, grid=grid)

    # case2: backward pair first (terminal = xi only), then the damped forward
    zeros_y = np.zeros((m, n + 1, dims.d))
    terminal = problem.terminal(x0)  # alpha*h == 0
    big_y, big_z = _backward_phase(
        terminal, fb_zero, gb_zero, drivers, zeros_y, reg, btail
    )
    drifts = -problem.theta2 * big_y + f_zero
    noises = -problem.theta2 * big_z + g_zero
    y, z_nodes = _forward_phase(drifts, noises, drivers, x0, reg, btail)
    return EnsembleState(y=y, Y=big_y, z=z_nodes, Z=big_z, grid=grid)


# ----------------------------------------------------------------------------
# Picard iteration and the continuation ladder
# ----------------------------------------------------------------------------


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
    iterates drops below ``tol``; the limit's residuals are evaluated when
    the report's ``residuals`` is first read.  The metric is squared, so a
    converged iterate can still move by about sqrt(tol) per step.

    ``damping`` in (0, 1] relaxes the update; 1 is the plain iteration.
    The report holds one rung on every exit: converged, out of iterations
    or diverged.  Raises SolverError("Picard divergence") when the distance
    blows past 1e6 of its first value, with the partial report attached.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    current = warm
    dists: list[float] = []
    for _ in range(max_iter):
        proposal = solve_decoupled_step(problem, current, drivers, reg)
        if damping < 1.0:
            proposal = EnsembleState(
                y=(1 - damping) * current.y + damping * proposal.y,
                Y=(1 - damping) * current.Y + damping * proposal.Y,
                z=(1 - damping) * current.z + damping * proposal.z,
                Z=(1 - damping) * current.Z + damping * proposal.Z,
                grid=current.grid,
            )
        dists.append(d_metric(proposal, current))
        current = proposal
        converged = dists[-1] <= tol
        diverged = not converged and dists[0] > 0 and dists[-1] > 1e6 * dists[0]
        if converged or diverged:
            break
    # contraction ratios where the previous distance is positive; the median
    # skips the first two (burn-in) unless nothing else is left
    ratios = [b / a for a, b in zip(dists, dists[1:]) if a > 0]
    tail = ratios[2:] or ratios
    rung = LadderRung(
        alpha=problem.alpha,
        iterations=len(dists),
        converged=converged,
        final_distance=dists[-1],
        median_ratio=float(np.median(tail)) if tail else float("nan"),
        residual_history=dists,
    )
    if diverged:
        raise SolverError("Picard divergence", SolveReport(current, [rung]))
    return SolveReport(current, [rung], problem, drivers)


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
    max_iter: int = 60,
    damping: float = 1.0,
    warm: EnsembleState | None = None,
) -> SolveReport:
    """Climb the alpha ladder 0 -> 1 in steps of ``delta``.

    The base rung is solved exactly; each later rung runs the Picard iteration
    warm-started at the previous rung, to ``tol`` on the squared contraction
    metric (a converged iterate can still move by about sqrt(tol) per step).
    A failed rung halves the step (up to ``MAX_HALVINGS`` times) before giving
    up with the partial ladder attached.  No residual is evaluated until the
    report's ``residuals`` is read, and then only the final state's.

    With ``warm`` (an earlier solved state, e.g. at a nearby control), Picard
    first runs on the alpha = 1 problem from it, with the same ``tol``,
    ``max_iter`` and ``damping``, and its report is returned if it converges.
    Under the monotonicity condition the solution is unique, so both routes
    target the same fixed point.  If that solve raises SolverError or
    CoefficientError (a non-finite warm state trips the map check) or does not
    converge, the ladder runs as it does without ``warm``.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    problem = HomotopyProblem(
        base=base,
        alpha=0.0,
        case=case,
        theta1=theta1,
        theta2=theta2,
        xi=xi,
        x=x,
    )
    if warm is not None:
        try:
            report = picard_solve(
                problem.at_alpha(1.0), warm, drivers, reg, tol, max_iter, damping
            )
            if report.converged:
                return report
        except (SolverError, CoefficientError):
            pass
    report = SolveReport(
        final_state=linear_base_solve(problem, drivers, reg),
        alpha_ladder=[LadderRung(0.0, 0, True, 0.0, 0.0)],
    )
    alpha = 0.0
    step = delta
    halvings = 0
    while alpha < 1.0 - 1e-12:
        target = min(1.0, alpha + step)
        rung_problem = problem.at_alpha(target)
        try:
            rung = picard_solve(
                rung_problem, report.final_state, drivers, reg, tol, max_iter, damping
            )
        except SolverError as err:
            rung = err.report
        if rung is None or not rung.converged:
            halvings += 1
            if halvings > MAX_HALVINGS:
                if rung is not None:
                    report.alpha_ladder.extend(rung.alpha_ladder)
                    report.final_state = rung.final_state
                raise SolverError(
                    f"continuation failed at alpha={target:.4f}", report
                )
            step /= 2.0
            continue
        report.alpha_ladder.extend(rung.alpha_ladder)
        report.final_state = rung.final_state
        alpha = target
    report.problem, report.drivers = problem.at_alpha(1.0), drivers
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
        """Largest distance between two converged limits."""
        ok = [i for i, lim in enumerate(self.limits) if lim.converged]
        return float(self.pairwise_distances[np.ix_(ok, ok)].max()) if ok else 0.0


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


def _dirac_stack(atoms: Quad) -> tuple[Quad, NodeMoments]:
    """K single atoms (blocks (K, ...)) as a stack of K Dirac ensembles
    (M = 1) with their moments: a single atom's mean is the atom itself."""
    return Quad(*(b[None] for b in atoms)), NodeMoments(atoms.flat())


def _terminal_residual(model: CoefficientSet, grid: TimeGrid, x0: float,
                       guesses: np.ndarray, component: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the noise-free reduction by RK4 from every guess of Y(0) at
    once; returns the terminal gaps (K,) and the paths (K, N+1, 2) of
    (y, Y).  Each RK4 stage makes one f and one F call over the K guesses,
    each checked as ``eval_system`` checks it (``eval_system`` itself would
    add g and G and double the calls)."""
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
        f = _checked(model.f(t, v, law), v.y.shape, "f")
        big_f = _checked(model.F(t, v, law), v.y.shape, "F")
        return np.stack([f[0, :, component], big_f[0, :, component]], axis=1)

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
    h_val = eval_terminal(model, y_t[None], NodeMoments(y_t))[0, :, component]
    return path[:, n, 1] - h_val, path


def _check_noise_free(model: CoefficientSet, x: np.ndarray, grid: TimeGrid,
                      bracket_scale: float) -> None:
    """Raise ValueError unless g and G vanish on deterministic inputs with
    z = Z = 0.  Probes y and Y at the bracket ends and at x, on the first,
    middle and last node, each under its own Dirac law: one ``eval_system``
    call over the stack of probes, and the first failing probe is named."""
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
    _, g, _, big_g = eval_system(model, t, v, law)
    nonzero = np.stack([np.max(np.abs(out), axis=(0, 2, 3)) > 1e-12 for out in (g, big_g)])
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
    # imported on use: scipy.optimize is most of the package's import time
    from scipy.optimize import brentq

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
