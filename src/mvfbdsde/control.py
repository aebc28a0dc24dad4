"""Mean-field doubly stochastic optimal control.

Dynamics are stored in display form

    dy = f(t,v,u,law) dt + g dW - z dB~
    dY = -F(t,v,u,law) dt - G dB~ + Z dW,   y_0 = x,  Y_T = c y_T + xi,

and are canonicalized (F, G negated) before being handed to the solver.  The
Hamiltonian pairs the adjoint quadruple chi = (p, P, q, Q) against the display
coefficients:

    H = <p,F> - <P,f> + <q,G> - <Q,g> - running_cost.

The adjoint system over chi is again of the canonical forward-backward type:
dp carries the Y- and Z-gradients of H (plus copy-averaged measure
derivatives), dP the y- and z-gradients, with boundary values built from the
cost gradients.  Measure derivatives are taken in the first moment (the
derivative of the lifted map is the gradient in the mean argument): from the
supplied hooks or declared Jacobians, else by central differences, which are
exactly zero for a map that does not read its law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import (
    CoefficientError,
    CoefficientSet,
    Dimensions,
    EnsembleState,
    HomotopyProblem,
    NodeMoments,
    Quad,
    pairing,
    split_flat_mean,
)
from .paths import BrownianPair, TimeGrid
from .solver import (
    RegressionConfig,
    SolveReport,
    SolverError,
    continuation_solve,
    picard_solve,
)

FD_STEP = 1e-5
# flat chi against a signed Jacobian, constant (flat, in) or per particle and
# node (..., flat, in): (..., in)
_CONTRACT = "...f,...fi->...i"
# Bound on entries times particles in one stacked Hamiltonian call of
# verify_smp: each (M, K) temporary stays within 128 KiB, so the call's
# dozen or so temporaries add little to the peak RSS at any M.
_STACK_FLOATS = 1 << 14


# ----------------------------------------------------------------------------
# Central differences
# ----------------------------------------------------------------------------


def central_difference(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                       h) -> np.ndarray:
    """Central differences (fn(x + h_j e_j) - fn(x - h_j e_j)) / 2 h_j of ``fn``
    at ``x`` in each coordinate j of x's last axis, stacked on a new last
    axis.  ``h`` broadcasts against ``x`` (one step per coordinate, per leading
    index or both); h_j, the steps of coordinate j, broadcast against fn's
    output from its first axis."""
    x = np.asarray(x, dtype=float)
    steps = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    cols = []
    for j in range(x.shape[-1]):
        h_j = steps[..., j]
        up, dn = x.copy(), x.copy()
        up[..., j] += h_j
        dn[..., j] -= h_j
        diff = fn(up) - fn(dn)
        cols.append(diff / (2 * h_j).reshape(h_j.shape + (1,) * (np.ndim(diff) - h_j.ndim)))
    return np.stack(cols, axis=-1)


# ----------------------------------------------------------------------------
# Cost terms
# ----------------------------------------------------------------------------


@dataclass
class CostTerm:
    """Pointwise-plus-measure cost x -> value(x, law), per particle.

    ``grad`` is the pointwise gradient, ``mean_grad`` the derivative in the
    mean argument averaged over the atoms; each falls back to central
    differences when not supplied (for ``mean_grad``, of the atoms' mean cost
    under translated moments).  The methods take the atoms x (n, d) alone and
    hand each hook their ``NodeMoments``.
    """

    value: Callable[[np.ndarray, NodeMoments], np.ndarray]
    grad: Callable[[np.ndarray, NodeMoments], np.ndarray] | None = None
    mean_grad: Callable[[NodeMoments], np.ndarray] | None = None

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.value(x, NodeMoments.of(x))

    def grad_values(self, x: np.ndarray) -> np.ndarray:
        law = NodeMoments.of(x)
        if self.grad is not None:
            return np.asarray(self.grad(x, law), dtype=float)
        h = FD_STEP * (1.0 + np.max(np.abs(x), axis=0, initial=0.0))
        return central_difference(lambda xs: self.value(xs, law), x, h)

    def mean_grad_values(self, x: np.ndarray) -> np.ndarray:
        law = NodeMoments.of(x)
        if self.mean_grad is not None:
            return np.asarray(self.mean_grad(law), dtype=float)
        return central_difference(
            lambda delta: float(np.mean(self.value(x, law.translated(delta)))),
            np.zeros_like(law.mean), FD_STEP * (1.0 + np.abs(law.mean)),
        )

    @classmethod
    def zero(cls) -> "CostTerm":
        return cls(value=lambda x, law: np.zeros(x.shape[0]))


@dataclass
class RunningCost:
    """Per-particle running cost (t, v, u, law) -> (M,) at one node, or
    (M, K) on a stack of K nodes (the coefficient maps' node-stack contract,
    with u of shape (M, d_u) or (M, K, d_u)).  A gradient without a hook is
    differenced."""

    value: Callable[[float, Quad, np.ndarray, NodeMoments], np.ndarray]
    grads: dict[str, Callable] = field(default_factory=dict)  # keys: y,Y,z,Z,u
    mean_grads: dict[str, Callable] = field(default_factory=dict)  # my,mY,mz,mZ

    @classmethod
    def zero(cls) -> "RunningCost":
        return cls(value=lambda t, v, u, law: np.zeros(v.y.shape[:-1]))


def _mean_shift(dims: Dimensions, block: str, w: np.ndarray) -> np.ndarray:
    """Flat-space translation vector that moves one mean block by ``w``."""
    delta = np.zeros(dims.flat)
    view = getattr(split_flat_mean(delta, dims), block.removeprefix("m"))
    view[...] = w.reshape(view.shape)
    return delta


@dataclass
class ControlledDynamics:
    """Display-form coefficient maps with a control argument.

    Each map ``fn(t, v, u, law)`` follows CoefficientSet's node-stack
    contract, with u of shape (M, d_u) at one node and (M, K, d_u) on a stack.
    ``jacobians`` optionally carries constant derivative tensors keyed as
    ("f", "y"), ("g", "mZ"), ... with shape (*out_shape, *in_shape); anything
    absent is obtained by central differences.
    """

    f: Callable
    g: Callable
    F: Callable
    G: Callable
    jacobians: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)


@dataclass
class ControlProblem:
    """Optimization data: dynamics, costs, box control set, terminal pair.

    The declared constants (gamma, theta1, theta2, alpha1) are what the
    certification routines test against.
    """

    dims: Dimensions
    d_u: int
    grid: TimeGrid
    x: np.ndarray
    c: float
    dynamics: ControlledDynamics
    running_cost: RunningCost
    terminal_cost: CostTerm
    initial_cost: CostTerm
    u_lo: np.ndarray
    u_hi: np.ndarray
    xi: np.ndarray | None = None
    gamma: float = 0.125
    theta1: float = 0.125
    theta2: float = 0.125
    alpha1: float = 0.5
    delta: float = 0.25
    name: str = "control"

    def __post_init__(self) -> None:
        self.u_lo = np.asarray(self.u_lo, dtype=float)
        self.u_hi = np.asarray(self.u_hi, dtype=float)
        if np.any(self.u_hi < self.u_lo):
            raise ValueError("empty control box")

    def control_box_center(self) -> np.ndarray:
        return 0.5 * (self.u_lo + self.u_hi)

    def project(self, u: np.ndarray) -> np.ndarray:
        return np.clip(u, self.u_lo, self.u_hi)

    def in_box(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        return bool(
            np.all(u >= self.u_lo - tol) and np.all(u <= self.u_hi + tol)
        )

    # -- controls -------------------------------------------------------------

    def resolve_control(self, control) -> np.ndarray:
        """Deterministic node-indexed control values, shape (N+1, d_u), from
        an (N+1, d_u) or (N+1,) array."""
        n = self.grid.steps
        vals = np.asarray(control, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (n + 1, self.d_u):
            raise ValueError(f"control shape {vals.shape}, wanted {(n + 1, self.d_u)}")
        return vals

    def check_admissible(self, values: np.ndarray, tol: float = 1e-9) -> None:
        for k in range(values.shape[0]):
            if not self.in_box(values[k], tol):
                raise ValueError(f"control outside the box at node {k}")

    def coefficients_for(self, control) -> CoefficientSet:
        """Canonical coefficient set with the control baked in by node.

        ``control`` is a deterministic (N+1, d_u) array; each time in ``t``
        reads the control at node round(t / dt).
        """
        dyn = self.dynamics

        def baked(fn, sign=1.0):
            def wrapped(t, v, law):
                k = _node_index(t, self.grid)
                u = np.broadcast_to(control[k], v.y.shape[:-1] + (self.d_u,))
                return sign * fn(t, v, u, law)

            return wrapped

        return CoefficientSet(
            dims=self.dims,
            f=baked(dyn.f),
            g=baked(dyn.g),
            F=baked(dyn.F, sign=-1.0),
            G=baked(dyn.G, sign=-1.0),
            h=lambda y_t, law: self.c * y_t,
            name=self.name,
        )


def _node_index(t, grid: TimeGrid):
    """The grid node of each time, round(t / dt) clipped to [0, N]: an int
    for a scalar time, a slice (indexing by it takes views) for consecutive
    nodes as the solver stacks them, else an int array."""
    if t is grid.nodes:
        return slice(0, grid.steps + 1)
    k = np.clip(np.rint(np.asarray(t) / grid.dt).astype(int), 0, grid.steps)
    if k.ndim == 0:
        return int(k)
    if k.size and np.array_equal(k, np.arange(k[0], k[0] + k.size)):
        return slice(int(k[0]), int(k[0]) + k.size)
    return k


# ----------------------------------------------------------------------------
# Hamiltonian and its derivatives
# ----------------------------------------------------------------------------


def hamiltonian(
    problem: ControlProblem,
    t: float,
    v: Quad,
    u: np.ndarray,
    chi: Quad,
    law: NodeMoments,
) -> np.ndarray:
    """Per-particle Hamiltonian <p,F> - <P,f> + <q,G> - <Q,g> - cost: (M,)
    at one node, (M, K) on a stack of K entries under the maps' node-stack
    contract (t of shape (K,), v, u and chi (M, K, ...), law.mean (K, flat))."""
    dyn = problem.dynamics
    big_f = dyn.F(t, v, u, law)
    f = dyn.f(t, v, u, law)
    big_g = dyn.G(t, v, u, law)
    g = dyn.g(t, v, u, law)
    ell = problem.running_cost.value(t, v, u, law)
    if np.shape(ell) != v.y.shape[:-1]:
        raise ValueError(f"running cost returned shape {np.shape(ell)}, wanted {v.y.shape[:-1]}")
    out = pairing((big_f, -f, big_g, -g), chi) - ell
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite Hamiltonian value")
    return out


def _size(dims: Dimensions, d_u: int, name: str) -> int:
    """Flattened size of a block (y, Y, z, Z, u or a mean block m*) or of a
    map's output (f, F, g, G)."""
    d = dims.d
    return {"y": d, "Y": d, "z": d * dims.d_b, "Z": d * dims.d_w, "u": d_u,
            "f": d, "F": d, "g": d * dims.d_w, "G": d * dims.d_b}[name.removeprefix("m")]


def _fd_jacobian(
    fn: Callable,
    t,
    v: Quad,
    u: np.ndarray,
    law,
    block: str,
    dims: Dimensions,
    d_u: int,
) -> np.ndarray:
    """Central-difference derivative tensor of ``fn(t, v, u, law)`` in one
    block, flattened, input axis last: (M, out, in) at one node and
    (M, K, out, in) on a stack of K nodes.  A mean block is differenced as a
    translation of the law from 0, by FD_STEP; a point block by FD_STEP times
    one plus the block's largest magnitude over the particles of each node."""
    lead = v.y.shape[:-1]
    size = _size(dims, d_u, block)
    if block.startswith("m"):
        return central_difference(
            lambda w: fn(t, v, u, law.translated(_mean_shift(dims, block, w))).reshape(*lead, -1),
            np.zeros(size), FD_STEP,
        )
    base_arr = u if block == "u" else getattr(v, block)
    flat = base_arr.reshape(*lead, size)
    h = FD_STEP * (1.0 + np.max(np.abs(flat), axis=(0, -1), keepdims=True, initial=0.0))

    def at(w: np.ndarray) -> np.ndarray:
        w = w.reshape(base_arr.shape)
        v_w, u_w = (v, w) if block == "u" else (v._replace(**{block: w}), u)
        return fn(t, v_w, u_w, law).reshape(*lead, -1)

    return central_difference(at, flat, h)


def _trajectory(problem: ControlProblem, state: EnsembleState,
                controls: np.ndarray) -> tuple:
    """(t, v, u, law) of the state trajectory over all N+1 nodes."""
    v = state.at(slice(None))
    u = np.broadcast_to(controls, v.y.shape[:-1] + (problem.d_u,))
    return state.grid.nodes, v, u, state.node_laws()


def _signed_jacobian(problem: ControlProblem, trajectory: tuple, block: str) -> np.ndarray:
    """The Jacobians of (F, -f, G, -g) in one block along ``trajectory``,
    stacked on the output axis in the order of a flat chi = (p, P, q, Q):
    (flat, in) when all four are declared, else (M, N+1, flat, in), each
    undeclared one differenced."""
    dyn, dims, d_u = problem.dynamics, problem.dims, problem.d_u
    parts = []
    for coef, sign in (("F", 1.0), ("f", -1.0), ("G", 1.0), ("g", -1.0)):
        const = dyn.jacobians.get((coef, block))
        if const is None:
            jac = _fd_jacobian(getattr(dyn, coef), *trajectory, block, dims, d_u)
        else:
            jac = np.asarray(const, dtype=float).reshape(_size(dims, d_u, coef),
                                                         _size(dims, d_u, block))
        parts.append(sign * jac)
    lead = () if all(part.ndim == 2 for part in parts) else trajectory[1].y.shape[:2]
    return np.concatenate(
        [np.broadcast_to(part, (*lead, *part.shape[-2:])) for part in parts], axis=-2
    )


def _running_grad(problem: ControlProblem, t, v: Quad, u: np.ndarray, law,
                  block: str) -> np.ndarray:
    """Flattened per-particle gradient of the running cost in one block."""
    rc = problem.running_cost
    lead = v.y.shape[:-1]
    hook = (rc.mean_grads if block.startswith("m") else rc.grads).get(block)
    if hook is not None:
        return np.asarray(hook(t, v, u, law), dtype=float).reshape(*lead, -1)

    def cost(t, v, u, law):  # the cost as a single output
        return rc.value(t, v, u, law)[..., None]

    return _fd_jacobian(cost, t, v, u, law, block, problem.dims, problem.d_u)[..., 0, :]


# ----------------------------------------------------------------------------
# Adjoint system
# ----------------------------------------------------------------------------


def build_adjoint_coefficients(
    problem: ControlProblem,
    state: EnsembleState,
    control_values: np.ndarray,
) -> HomotopyProblem:
    """Linear coefficient system over the adjoint quadruple, as the alpha = 1
    problem the solver runs: its ``base`` holds the adjoint maps, ``x`` is
    p_0 and ``xi`` the terminal shift.

    Drift/noise entries are H-gradients along the baked state trajectory; the
    copy-averaged measure terms reduce, for first-moment structure, to plain
    ensemble means of the mean-block gradients paired with the adjoint batch.
    What does not depend on chi is built with the map: its point and mean
    blocks' signed Jacobians (``_signed_jacobian``), minus the running-cost
    gradient in its point block and minus the particle mean of that in its
    mean block.  A call adds to this cost term one contraction of the flat
    chi and the mean-field term: ``law_chi.mean`` against a constant
    mean-block Jacobian, else the particle mean of the contraction.
    Boundary data: p_0 from the initial-cost gradients, terminal
    P_T = shift - c p_T with the shift built from the terminal-cost gradients.
    """
    dims = problem.dims
    grid = state.grid
    n = grid.steps
    trajectory = _trajectory(problem, state, control_values)

    def drift_or_noise(block_point: str, block_mean: str, out_shape: tuple):
        cost = -_running_grad(problem, *trajectory, block_point)
        cost -= _running_grad(problem, *trajectory, block_mean).mean(axis=0)
        jac = _signed_jacobian(problem, trajectory, block_point)
        jac_mean = _signed_jacobian(problem, trajectory, block_mean)

        def fn(t, chi: Quad, law_chi) -> np.ndarray:
            k = _node_index(t, grid)
            flat = chi.flat()
            if jac.ndim == 2:
                # constant Jacobian: one 2-D product per node, nodes outermost
                # as the solver stores them, so flat is not copied
                out = np.matmul(flat.swapaxes(0, -2), jac).swapaxes(0, -2)
            else:
                out = np.einsum(_CONTRACT, flat, jac[:, k])
            out += cost[:, k]
            if jac_mean.ndim == 2:
                out += law_chi.mean @ jac_mean
            else:
                out += np.einsum(_CONTRACT, flat, jac_mean[:, k]).mean(axis=0)
            return out.reshape(*chi.y.shape[:-1], *out_shape)

        return fn

    coeffs = CoefficientSet(
        dims=dims,
        f=drift_or_noise("Y", "mY", (dims.d,)),
        g=drift_or_noise("Z", "mZ", (dims.d, dims.d_w)),
        F=drift_or_noise("y", "my", (dims.d,)),
        G=drift_or_noise("z", "mz", (dims.d, dims.d_b)),
        h=lambda y_t, law: -problem.c * y_t,
        name=problem.name + "_adjoint",
    )

    big_y0 = state.Y[:, 0]
    p0 = -problem.initial_cost.grad_values(big_y0) - problem.initial_cost.mean_grad_values(big_y0)[None, :]

    y_t = state.y[:, n]
    shift = (
        problem.terminal_cost.grad_values(y_t)
        + problem.terminal_cost.mean_grad_values(y_t)[None, :]
    )
    return HomotopyProblem(
        base=coeffs,
        alpha=1.0,
        case="case1",
        theta1=1.0,
        xi=shift,
        x=p0,
    )


def solve_adjoint(
    problem: ControlProblem,
    state: EnsembleState,
    control_values: np.ndarray,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float = 1e-6,
    max_iter: int = 80,
    warm: EnsembleState | None = None,
) -> SolveReport:
    """Picard solve of the (linear) adjoint system; the adjoint (p, P, q, Q)
    is the report's ``final_state``, in the blocks (y, Y, z, Z).

    With ``warm`` (an earlier adjoint solve's ``final_state``, e.g. at a
    nearby control) the iteration starts there.  Without it, or when that
    solve raises SolverError or CoefficientError (a non-finite warm state
    trips the map check) or does not converge, it starts at zero with
    p = p_0 and retries with damping 0.5 on SolverError.
    """
    adj_problem = build_adjoint_coefficients(problem, state, control_values)
    if warm is not None:
        try:
            report = picard_solve(adj_problem, warm, drivers, reg, tol, max_iter)
            if report.converged:
                return report
        except (SolverError, CoefficientError):
            pass
    zero = EnsembleState.zeros(state.particles, problem.dims, state.grid, x=adj_problem.x)
    try:
        return picard_solve(adj_problem, zero, drivers, reg, tol, max_iter)
    except SolverError:
        return picard_solve(adj_problem, zero, drivers, reg, tol, max_iter, damping=0.5)


# ----------------------------------------------------------------------------
# Cost estimation
# ----------------------------------------------------------------------------


@dataclass
class CostEstimate:
    value: float
    stderr: float
    per_particle: np.ndarray
    solve_report: SolveReport


def solve_state(
    problem: ControlProblem,
    control,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float = 1e-6,
    warm: EnsembleState | None = None,
) -> SolveReport:
    """Solve the state system under ``control`` up the continuation ladder,
    or, with ``warm`` (an earlier solved state, e.g. at a nearby control), by
    Picard from it on the alpha = 1 problem when that converges; see
    ``continuation_solve``.
    """
    return continuation_solve(
        problem.coefficients_for(control),
        case="case1",
        theta1=problem.theta1,
        theta2=problem.theta2,
        delta=problem.delta,
        drivers=drivers,
        reg=reg,
        tol=tol,
        x=problem.x,
        xi=problem.xi,
        warm=warm,
    )


def estimate_cost(
    problem: ControlProblem,
    control,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float = 1e-6,
) -> CostEstimate:
    """Monte Carlo cost of an admissible control: solve the state system, then
    average terminal + initial + left-quadrature running costs.

    The control is box-checked upfront (first offending node reported).
    """
    control = problem.resolve_control(control)
    problem.check_admissible(control)
    report = solve_state(problem, control, drivers, reg, tol)
    state = report.final_state
    n = problem.grid.steps
    m = state.particles
    left = slice(0, n)
    nodes = problem.grid.nodes
    u = np.broadcast_to(control[left], (m, n, problem.d_u))
    running = problem.running_cost.value(
        nodes[left], state.at(left), u, state.node_laws()[left]
    )
    if np.shape(running) != (m, n):
        raise ValueError(f"running cost returned shape {np.shape(running)}, wanted {(m, n)}")
    # node-major and contiguous, so the sum adds the nodes in order
    per = np.ascontiguousarray((running * problem.grid.dt).T).sum(axis=0)
    per += problem.terminal_cost.values(state.y[:, n])
    per += problem.initial_cost.values(state.Y[:, 0])
    return CostEstimate(
        value=float(per.mean()),
        stderr=float(per.std(ddof=1) / np.sqrt(m)),
        per_particle=per,
        solve_report=report,
    )


def mean_control_gradient(
    problem: ControlProblem,
    state: EnsembleState,
    adjoint: EnsembleState,
    control_values: np.ndarray,
) -> np.ndarray:
    """Ensemble-averaged grad_u H along the trajectory, shape (N+1, d_u)."""
    trajectory = _trajectory(problem, state, control_values)
    grad = np.einsum(_CONTRACT, adjoint.at(slice(None)).flat(),
                     _signed_jacobian(problem, trajectory, "u"))
    return (grad - _running_grad(problem, *trajectory, "u")).mean(axis=0)


def first_order_candidate(
    problem: ControlProblem,
    drivers: BrownianPair,
    reg: RegressionConfig,
    iters: int = 6,
    tol: float = 1e-6,
    relax: float = 0.6,
) -> np.ndarray:
    """Fixed-point iteration of the stationarity map: ascend grad_u H to the
    box-projected first-order candidate.

    Each iterate's state and adjoint solves start from the previous
    iterate's solutions, so only the first climbs the continuation ladder.
    """
    n = problem.grid.steps
    u = np.broadcast_to(problem.control_box_center(), (n + 1, problem.d_u)).copy()
    state = adjoint = None
    for _ in range(iters):
        state = solve_state(problem, u, drivers, reg, tol, warm=state).final_state
        adjoint = solve_adjoint(problem, state, u, drivers, reg, tol, warm=adjoint).final_state
        grad = mean_control_gradient(problem, state, adjoint, u)
        # every iterate takes a relaxed projected ascent step: u + grad
        # maximises H exactly only when H_uu = -I, as for a running cost
        # quadratic in u with unit weight, so the step is damped by relax
        u_new = problem.project(u + grad)
        u = (1.0 - relax) * u + relax * u_new
    return problem.project(u)


# ----------------------------------------------------------------------------
# Sufficient-condition verification
# ----------------------------------------------------------------------------


@dataclass
class SMPReport:
    convexity_margin: float
    concavity_margin: float
    max_condition_gap: float
    cost_margins: list[float]
    checks: dict[str, bool]
    candidate_cost: float
    witnesses: list[str] = field(default_factory=list)
    label: str = "sampled-certified"
    inconclusive: int = 0  # cost comparisons inside the noise band

    @property
    def verdict(self) -> bool:
        return all(self.checks.values())

    def text(self) -> str:
        lines = [f"verdict: {'OPTIMAL (' + self.label + ')' if self.verdict else 'NOT VERIFIED'}"]
        for key, val in sorted(self.checks.items()):
            lines.append(f"{key}: {'pass' if val else 'FAIL'}")
        lines.append(f"convexity_margin = {self.convexity_margin:.6g}")
        lines.append(f"concavity_margin = {self.concavity_margin:.6g}")
        lines.append(f"max_condition_gap = {self.max_condition_gap:.6g}")
        if self.cost_margins:
            lines.append(f"min_cost_margin = {min(self.cost_margins):.6g}")
        lines.append(f"inconclusive_comparisons = {self.inconclusive}")
        lines.append(f"candidate_cost = {self.candidate_cost:.10g}")
        lines.extend(self.witnesses[:4])
        return "\n".join(lines)

    def kv(self) -> dict[str, str]:
        out = {f"check.{k}": str(v).lower() for k, v in self.checks.items()}
        out["convexity_margin"] = format(self.convexity_margin, ".17g")
        out["concavity_margin"] = format(self.concavity_margin, ".17g")
        out["max_condition_gap"] = format(self.max_condition_gap, ".17g")
        if self.cost_margins:
            out["min_cost_margin"] = format(min(self.cost_margins), ".17g")
        out["inconclusive"] = str(self.inconclusive)
        out["verdict"] = str(self.verdict).lower()
        return out


def _convexity_margin(term: CostTerm, dims_d: int, rng: np.random.Generator,
                      n_pairs: int = 40, atoms: int = 64) -> float:
    """Smallest observed slack of the lifted convexity inequality."""
    worst = np.inf
    for _ in range(n_pairs):
        scale = float(rng.choice([0.3, 1.0, 2.5]))
        x = scale * rng.standard_normal((atoms, dims_d))
        x2 = x + scale * rng.standard_normal((atoms, dims_d))
        lhs = float(np.mean(term.values(x2)) - np.mean(term.values(x)))
        grad = term.grad_values(x)
        mean_grad = term.mean_grad_values(x)
        correction = float(np.mean(np.sum(grad * (x2 - x), axis=1)))
        correction += float(mean_grad @ (x2 - x).mean(axis=0))
        worst = min(worst, lhs - correction)
    return worst


# verify_smp's slack on the Hamiltonian's concavity margin and on the
# maximum condition's gap
CONCAVITY_TOL = 1e-7
MAX_COND_TOL = 1e-4


def verify_smp(
    problem: ControlProblem,
    candidate,
    n_perturbations: int,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float = 1e-6,
    seed: int = 0,
) -> SMPReport:
    """Four sampled checks behind the sufficiency theorem.

    (a) terminal/initial costs are lifted-convex on random measure pairs;
    (b) the Hamiltonian is midpoint-concave in (v, mean, u) along random
        segments with the solved adjoint frozen;
    (c) the candidate maximizes the ensemble Hamiltonian over the box on a
        time subsample;
    (d) no sampled admissible control beats the candidate's cost by more than
        three Monte Carlo standard errors.
    """
    rng = np.random.default_rng(seed)
    values = problem.resolve_control(candidate)
    problem.check_admissible(values)

    base_cost = estimate_cost(problem, values, drivers, reg, tol)
    state = base_cost.solve_report.final_state
    adjoint = solve_adjoint(problem, state, values, drivers, reg, tol).final_state
    laws = state.node_laws()

    # (a) convexity of the two endpoint costs
    conv_phi = _convexity_margin(problem.terminal_cost, problem.dims.d, rng)
    conv_psi = _convexity_margin(problem.initial_cost, problem.dims.d, rng)
    convexity_margin = min(conv_phi, conv_psi)

    # (b) midpoint concavity of H in (v, mean, u) along 60 random segments,
    # drawn in sample order; each stacked call holds the two ends and the
    # midpoints of a few segments
    n = problem.grid.steps
    m = state.particles
    nodes = problem.grid.nodes
    concavity_margin = np.inf
    per_call = max(1, _STACK_FLOATS // (3 * m))
    for first in range(0, 60, per_call):
        ks, ends = [], []
        for _ in range(min(per_call, 60 - first)):
            ks.append(int(rng.integers(0, n + 1)))
            scale = float(rng.choice([0.3, 1.0, 2.0]))
            ends += [_segment_end(problem, m, scale, rng) for _ in range(2)]
        # per field the first ends, the second ends and the midpoints, on
        # the stack axis: 1 for the blocks, 0 for the controls and shifts
        fields = []
        for j, col in enumerate(zip(*ends)):
            axis = int(j < 4)
            a, b = np.stack(col[0::2], axis=axis), np.stack(col[1::2], axis=axis)
            fields.append(np.concatenate([a, b, 0.5 * (a + b)], axis=axis))
        k3 = np.tile(ks, 3)
        h = _mean_hamiltonian(problem, nodes[k3], Quad(*fields[:4]), fields[4],
                              adjoint.at(k3), laws[k3].translated(fields[5]))
        h_a, h_b, h_mid = h.reshape(3, -1)
        concavity_margin = min(concavity_margin, float(np.min(h_mid - 0.5 * (h_a + h_b))))

    # (c) pointwise maximality over the box on a time subsample: one stack
    # over the subsampled nodes per tested control, on views of the solved
    # state and adjoint
    grid_pts = _box_grid(problem, 25, rng)
    sub = slice(0, n + 1, max(1, n // 12))
    v, chi, t, law = state.at(sub), adjoint.at(sub), nodes[sub], laws[sub]
    h_hat = _mean_hamiltonian(problem, t, v, values[sub], chi, law)
    best = np.max([
        _mean_hamiltonian(problem, t, v, np.broadcast_to(u_test, values[sub].shape), chi, law)
        for u_test in grid_pts
    ], axis=0)
    max_gap = float(np.min(h_hat - best))

    # (d) cost dominance over sampled admissible perturbations
    cost_margins: list[float] = []
    witnesses: list[str] = []
    inconclusive = 0
    for i in range(n_perturbations):
        kind = i % 3
        if kind == 0:
            amp = rng.uniform(0.05, 0.5, size=problem.d_u)
            freq = rng.uniform(0.5, 3.0)
            phase = rng.uniform(0, 2 * np.pi)
            pert = values + amp[None, :] * np.sin(freq * nodes[:, None] + phase)
        elif kind == 1:
            pert = values + rng.uniform(-0.5, 0.5, size=problem.d_u)[None, :]
        else:
            pert = np.broadcast_to(
                rng.uniform(problem.u_lo, problem.u_hi), (n + 1, problem.d_u)
            ).copy()
        pert = problem.project(pert)
        est = estimate_cost(problem, pert, drivers, reg, tol)
        diff = est.per_particle - base_cost.per_particle
        se = float(diff.std(ddof=1) / np.sqrt(diff.shape[0]))
        margin = float(diff.mean()) + 3.0 * se
        cost_margins.append(margin)
        if abs(float(diff.mean())) <= 3.0 * se:
            inconclusive += 1  # flagged, not failed: inside the noise band
        if margin < 0:
            witnesses.append(
                f"perturbation {i} beats candidate: dJ={diff.mean():.4g} se={se:.2g}"
            )

    checks = {
        "cost_convexity": bool(convexity_margin >= -1e-9),
        "hamiltonian_concavity": bool(concavity_margin >= -CONCAVITY_TOL),
        "max_condition": bool(max_gap >= -MAX_COND_TOL),
        "cost_dominance": bool(all(mg >= 0.0 for mg in cost_margins)),
    }
    return SMPReport(
        convexity_margin=float(convexity_margin),
        concavity_margin=float(concavity_margin),
        max_condition_gap=float(max_gap),
        cost_margins=cost_margins,
        checks=checks,
        candidate_cost=base_cost.value,
        witnesses=witnesses,
        inconclusive=inconclusive,
    )


def _segment_end(problem: ControlProblem, m: int, scale: float,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """One random end of a concavity segment: the blocks y, Y, z, Z (M, ...),
    a control in the box and a flat mean shift."""
    v = [scale * rng.standard_normal((m, *shape)) for shape in problem.dims.shapes]
    u = problem.project(scale * rng.standard_normal(problem.d_u))
    return [*v, u, scale * rng.standard_normal(problem.dims.flat)]


def _mean_hamiltonian(problem: ControlProblem, t: np.ndarray, v: Quad,
                      u: np.ndarray, chi: Quad, law: NodeMoments) -> np.ndarray:
    """Particle mean of the Hamiltonian on a stack of K entries, with one
    control (K, d_u) per entry: shape (K,).  Each entry's mean sums its
    particles as a single-node mean does."""
    h = hamiltonian(problem, t, v, np.broadcast_to(u, (v.particles, *u.shape)), chi, law)
    return np.ascontiguousarray(h.T).mean(axis=1)


def _box_grid(problem: ControlProblem, per_dim: int, rng: np.random.Generator) -> np.ndarray:
    if problem.d_u <= 2:
        axes = [np.linspace(problem.u_lo[j], problem.u_hi[j], per_dim)
                for j in range(problem.d_u)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    return rng.uniform(problem.u_lo, problem.u_hi, size=(512, problem.d_u))


@dataclass
class GradientConsistencyReport:
    fd_value: float
    adjoint_value: float
    rel_error: float


def gradient_consistency(
    problem: ControlProblem,
    control,
    direction: np.ndarray,
    *,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float = 1e-6,
) -> GradientConsistencyReport:
    """Directional cost derivative two ways: central differences of the cost
    (step 1e-3 along ``direction``) against the adjoint-side formula
    -E int <grad_u H, direction> dt."""
    values = problem.resolve_control(control)
    direction = np.asarray(direction, dtype=float)
    if direction.ndim == 1:
        direction = direction[:, None]
    if not np.any(direction):
        return GradientConsistencyReport(0.0, 0.0, 0.0)

    def cost(s: np.ndarray) -> float:
        return estimate_cost(problem, problem.project(values + s[0] * direction),
                             drivers, reg, tol).value

    fd = central_difference(cost, np.zeros(1), 1e-3)[0]
    report = solve_state(problem, values, drivers, reg, tol)
    adj = solve_adjoint(problem, report.final_state, values, drivers, reg, tol)
    grad = mean_control_gradient(problem, report.final_state, adj.final_state, values)
    n = problem.grid.steps
    dt = problem.grid.dt
    adjoint_side = -float(np.sum(grad[:n] * direction[:n]) * dt)
    denom = max(abs(fd), abs(adjoint_side), 1e-12)
    return GradientConsistencyReport(
        fd_value=float(fd),
        adjoint_value=float(adjoint_side),
        rel_error=float(abs(fd - adjoint_side) / denom),
    )


# ----------------------------------------------------------------------------
# Built-in linear-quadratic scenario
# ----------------------------------------------------------------------------

LQ_PARAMS = {
    "rho": 0.5,       # running state weight
    "kappa_T": 0.5,   # terminal pointwise weight
    "lambda_T": 0.5,  # terminal mean weight
    "kappa_0": 0.5,   # initial cost weight on Y_0
    "c": 0.5,
    "x0": 1.0,
    "u_max": 2.0,
    "gamma": 0.125,
    "theta1": 0.125,
    "theta2": 0.125,
    "alpha1": 0.5,
}


def lq_control_scenario(grid: TimeGrid | None = None) -> ControlProblem:
    """Scalar linear-quadratic scenario with a deterministic reduction.

    Display dynamics: f = E[Y]/2 - Y + u, g = E[Z]/8 - Z/4,
    F = y - E[y]/2, G = z/4 - E[z]/8; terminal Y_T = y_T / 2.
    Costs: running (u^2 + rho y^2)/2, terminal (kappa_T y^2 + lambda_T E[y]^2)/2,
    initial kappa_0 Y_0^2 / 2.  All certification constants are declared in
    LQ_PARAMS and checked by the assumption suite.
    """
    grid = grid or TimeGrid(1.0, 50)
    dims = Dimensions(1, 1, 1)
    pr = LQ_PARAMS

    def means(law) -> Quad:
        return split_flat_mean(law.mean, dims)

    def zeros_of(block: str) -> Callable:
        return lambda t, v, u, law: np.zeros_like(getattr(v, block))

    def f(t, v, u, law):
        return 0.5 * means(law).Y - v.Y + u

    def g(t, v, u, law):
        return 0.125 * means(law).Z - 0.25 * v.Z

    def big_f(t, v, u, law):
        return v.y - 0.5 * means(law).y

    def big_g(t, v, u, law):
        return 0.25 * v.z - 0.125 * means(law).z

    jac = {
        ("f", "Y"): -np.eye(1),
        ("f", "u"): np.eye(1),
        ("f", "mY"): 0.5 * np.eye(1),
        ("g", "Z"): -0.25 * np.eye(1),
        ("g", "mZ"): 0.125 * np.eye(1),
        ("F", "y"): np.eye(1),
        ("F", "my"): -0.5 * np.eye(1),
        ("G", "z"): 0.25 * np.eye(1),
        ("G", "mz"): -0.125 * np.eye(1),
    }
    for coef in ("f", "g", "F", "G"):
        for block in ("y", "Y", "z", "Z", "u", "my", "mY", "mz", "mZ"):
            if (coef, block) not in jac:
                jac[(coef, block)] = np.zeros((_size(dims, 1, coef), _size(dims, 1, block)))

    dynamics = ControlledDynamics(f=f, g=g, F=big_f, G=big_g, jacobians=jac)

    rho = pr["rho"]

    running = RunningCost(
        value=lambda t, v, u, law: 0.5 * np.sum(u**2, axis=-1)
        + 0.5 * rho * np.sum(v.y**2, axis=-1),
        grads={
            "y": lambda t, v, u, law: rho * v.y,
            "Y": zeros_of("Y"),
            "z": zeros_of("z"),
            "Z": zeros_of("Z"),
            "u": lambda t, v, u, law: u,
        },
        # declared zero: differencing them would cost each adjoint build
        # eight running-cost calls
        mean_grads={"m" + block: zeros_of(block) for block in "yYzZ"},
    )

    kt, lt = pr["kappa_T"], pr["lambda_T"]
    terminal = CostTerm(
        value=lambda x, law: 0.5 * kt * np.sum(x**2, axis=1)
        + 0.5 * lt * float(law.mean @ law.mean) * np.ones(x.shape[0]),
        grad=lambda x, law: kt * x,
        mean_grad=lambda law: lt * law.mean,
    )
    k0 = pr["kappa_0"]
    initial = CostTerm(
        value=lambda x, law: 0.5 * k0 * np.sum(x**2, axis=1),
        grad=lambda x, law: k0 * x,
        mean_grad=lambda law: np.zeros_like(law.mean),
    )

    return ControlProblem(
        dims=dims,
        d_u=1,
        grid=grid,
        x=np.array([pr["x0"]]),
        c=pr["c"],
        dynamics=dynamics,
        running_cost=running,
        terminal_cost=terminal,
        initial_cost=initial,
        u_lo=np.array([-pr["u_max"]]),
        u_hi=np.array([pr["u_max"]]),
        gamma=pr["gamma"],
        theta1=pr["theta1"],
        theta2=pr["theta2"],
        alpha1=pr["alpha1"],
        delta=0.25,
        name="lq_control",
    )


@dataclass
class LQOracle:
    times: np.ndarray
    y: np.ndarray
    Y: np.ndarray
    p: np.ndarray
    P: np.ndarray
    u: np.ndarray
    cost_grid: float        # left-quadrature cost, matches the particle estimator
    cost_trapezoid: float


def lq_deterministic_oracle(problem: ControlProblem) -> LQOracle:
    """Shooting solution of the noise-free reduction of the LQ scenario.

    The coupled optimality system in (y, Y, p, P) with the stationary control
    u = -P is integrated by RK4; the two unknown initial values (Y_0, P_0) are
    Newton-shot onto the two terminal conditions.
    """
    pr = LQ_PARAMS
    grid = problem.grid
    n = grid.steps
    dt = grid.dt
    rho, c = pr["rho"], pr["c"]
    kT = pr["kappa_T"] + pr["lambda_T"]
    k0 = pr["kappa_0"]
    x0 = float(problem.x[0])
    u_lo, u_hi = float(problem.u_lo[0]), float(problem.u_hi[0])

    def rhs(state: np.ndarray) -> np.ndarray:
        y, big_y, p, big_p = state
        u = min(max(-big_p, u_lo), u_hi)
        return np.array([
            -0.5 * big_y + u,   # f with E[Y]=Y
            -0.5 * y,           # canonical backward drift with E[y]=y
            0.5 * big_p,        # grad_Y H + mean term
            0.5 * p - rho * y,  # grad_y H + mean term
        ])

    def integrate(s0: np.ndarray) -> np.ndarray:
        path = np.zeros((n + 1, 4))
        path[0] = s0
        for k in range(n):
            s = path[k]
            k1 = rhs(s)
            k2 = rhs(s + 0.5 * dt * k1)
            k3 = rhs(s + 0.5 * dt * k2)
            k4 = rhs(s + dt * k3)
            path[k + 1] = s + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return path

    def shoot(unknowns: np.ndarray) -> np.ndarray:
        big_y0, big_p0 = unknowns
        path = integrate(np.array([x0, big_y0, -k0 * big_y0, big_p0]))
        y_t, big_y_t, p_t, big_p_t = path[-1]
        return np.array([
            big_y_t - c * y_t,
            big_p_t - (kT * y_t - c * p_t),
        ])

    s = np.zeros(2)
    for _ in range(60):
        r = shoot(s)
        if np.max(np.abs(r)) < 1e-13:
            break
        jac = central_difference(shoot, s, 1e-7 * (1.0 + np.abs(s)))
        s = s - np.linalg.solve(jac, r)
    path = integrate(np.array([x0, s[0], -k0 * s[0], s[1]]))
    y, big_y, p, big_p = path.T
    u = np.clip(-big_p, u_lo, u_hi)
    ell = 0.5 * u**2 + 0.5 * rho * y**2
    cost_tail = (
        0.5 * pr["kappa_T"] * y[-1] ** 2
        + 0.5 * pr["lambda_T"] * y[-1] ** 2
        + 0.5 * k0 * big_y[0] ** 2
    )
    cost_grid = float(np.sum(ell[:n]) * dt + cost_tail)
    cost_trap = float(dt * (0.5 * ell[0] + np.sum(ell[1:-1]) + 0.5 * ell[-1]) + cost_tail)
    return LQOracle(
        times=grid.nodes, y=y, Y=big_y, p=p, P=big_p, u=u,
        cost_grid=cost_grid, cost_trapezoid=cost_trap,
    )
