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
cost gradients.  Measure derivatives are supported for declared first-moment
structure (derivative of the lifted map = gradient in the mean argument).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measure import EmpiricalLaw
from .model import (
    CoefficientSet,
    Dimensions,
    EnsembleState,
    HomotopyProblem,
    NodeMoments,
    Quad,
    quad_law,
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
# Measure functionals and L-derivatives
# ----------------------------------------------------------------------------


@dataclass
class MomentFunctional:
    """Scalar function of a measure with declared structure.

    ``first_moment``: value = fn(mean); the derivative of the lifted map is
    grad(mean), constant in the evaluation point.  ``analytic``: a derivative
    callable (law, points) -> per-point vectors is supplied directly.
    """

    structure: str = "first_moment"
    fn: Callable[[np.ndarray], float] | None = None
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    lderiv: Callable[[EmpiricalLaw, np.ndarray], np.ndarray] | None = None

    def value(self, law: EmpiricalLaw) -> float:
        if self.structure == "first_moment" and self.fn is not None:
            return float(self.fn(law.mean))
        raise ValueError("functional has no value rule")


def l_derivative(
    functional: MomentFunctional, law: EmpiricalLaw, eval_points: np.ndarray
) -> np.ndarray:
    """Derivative of the lifted functional, evaluated at each given point."""
    points = np.atleast_2d(np.asarray(eval_points, dtype=float))
    if functional.structure == "first_moment":
        mean = law.mean
        if functional.grad is not None:
            g = np.asarray(functional.grad(mean), dtype=float)
        elif functional.fn is not None:
            g = np.zeros_like(mean)
            for j in range(mean.shape[0]):
                h = FD_STEP * (1.0 + abs(mean[j]))
                up = mean.copy()
                dn = mean.copy()
                up[j] += h
                dn[j] -= h
                g[j] = (functional.fn(up) - functional.fn(dn)) / (2 * h)
        else:
            raise ValueError("L-derivative unavailable")
        return np.broadcast_to(g, points.shape).copy()
    if functional.structure == "analytic" and functional.lderiv is not None:
        return np.asarray(functional.lderiv(law, points), dtype=float)
    raise ValueError("L-derivative unavailable")


# ----------------------------------------------------------------------------
# Cost terms
# ----------------------------------------------------------------------------


@dataclass
class CostTerm:
    """Pointwise-plus-measure cost x -> value(x, law), per particle.

    ``grad`` is the pointwise gradient, ``mean_grad`` the derivative in the
    mean argument (first-moment structure); both fall back to central
    differences when not supplied.
    """

    value: Callable[[np.ndarray, EmpiricalLaw], np.ndarray]
    grad: Callable[[np.ndarray, EmpiricalLaw], np.ndarray] | None = None
    mean_grad: Callable[[EmpiricalLaw], np.ndarray] | None = None
    law_dependence: str = "none"

    def grad_values(self, x: np.ndarray, law: EmpiricalLaw) -> np.ndarray:
        if self.grad is not None:
            return np.asarray(self.grad(x, law), dtype=float)
        out = np.zeros_like(x)
        for j in range(x.shape[1]):
            h = FD_STEP * (1.0 + float(np.max(np.abs(x[:, j]), initial=0.0)))
            up = x.copy()
            dn = x.copy()
            up[:, j] += h
            dn[:, j] -= h
            out[:, j] = (self.value(up, law) - self.value(dn, law)) / (2 * h)
        return out

    def mean_grad_values(self, law: EmpiricalLaw) -> np.ndarray:
        if self.law_dependence == "none":
            return np.zeros(law.dim)
        if self.mean_grad is not None:
            return np.asarray(self.mean_grad(law), dtype=float)
        if self.law_dependence != "first_moment":
            raise ValueError("L-derivative unavailable")
        probe = law.samples[:1]
        out = np.zeros(law.dim)
        for j in range(law.dim):
            h = FD_STEP * (1.0 + abs(float(law.mean[j])))
            delta = np.zeros(law.dim)
            delta[j] = h
            up = float(np.mean(self.value(probe, law.translated(delta))))
            dn = float(np.mean(self.value(probe, law.translated(-delta))))
            out[j] = (up - dn) / (2 * h)
        return out

    @classmethod
    def zero(cls) -> "CostTerm":
        return cls(value=lambda x, law: np.zeros(x.shape[0]), law_dependence="none")


@dataclass
class RunningCost:
    """Per-particle running cost (t, v, u, law) -> (M,) at one node, or
    (M, K) on a stack of K nodes (the coefficient maps' node-stack contract,
    with u of shape (M, d_u) or (M, K, d_u))."""

    value: Callable[[float, Quad, np.ndarray, EmpiricalLaw], np.ndarray]
    grads: dict[str, Callable] = field(default_factory=dict)  # keys: y,Y,z,Z,u
    mean_grads: dict[str, Callable] = field(default_factory=dict)  # my,mY,mz,mZ
    law_dependence: str = "none"

    @classmethod
    def zero(cls) -> "RunningCost":
        return cls(value=lambda t, v, u, law: np.zeros(v.y.shape[:-1]))


def _block_get(v: Quad, u: np.ndarray, block: str) -> np.ndarray:
    return u if block == "u" else getattr(v, block)


def _block_replace(v: Quad, u: np.ndarray, block: str, new: np.ndarray):
    if block == "u":
        return v, new
    return v._replace(**{block: new}), u


def _mean_delta(dims: Dimensions, block: str, j: int, h: float) -> np.ndarray:
    """Flat-space translation vector touching one component of one block."""
    delta = np.zeros(dims.flat)
    d, db = dims.d, dims.d_b
    offsets = {"my": 0, "mY": d, "mz": 2 * d, "mZ": 2 * d + d * db}
    delta[offsets[block] + j] = h
    return delta


class FeedbackControl:
    """Admissible feedback on the forward regression feature: a map
    (node, time, y_k batch) -> (M, d_u) control values, re-evaluated on the
    current ensemble at every coefficient call, one node at a time."""

    def __init__(self, fn: Callable[[int, float, np.ndarray], np.ndarray]):
        self._fn = fn

    def __call__(self, k: int, t: float, y: np.ndarray) -> np.ndarray:
        return self._fn(k, t, y)


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
    law_dependence: str = "first_moment"
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

    def noise_mean_derivative_sq(self, which: str, block: str) -> float:
        """Squared norm of the noise map's derivative in the z/Z mean block."""
        jac = self.dynamics.jacobians.get((which, "m" + block))
        if jac is not None:
            return float(np.sum(np.asarray(jac) ** 2))
        if self.dynamics.law_dependence == "none":
            return 0.0
        if self.dynamics.law_dependence != "first_moment":
            raise ValueError("L-derivative unavailable")
        dims = self.dims
        m = 4
        rng = np.random.default_rng(7)
        v = Quad(
            rng.standard_normal((m, dims.d)),
            rng.standard_normal((m, dims.d)),
            rng.standard_normal((m, dims.d, dims.d_b)),
            rng.standard_normal((m, dims.d, dims.d_w)),
        )
        law = quad_law(v)
        u = np.broadcast_to(self.control_box_center(), (m, self.d_u)).copy()
        fn = getattr(self.dynamics, which)
        base = fn(0.0, v, u, law)
        width = dims.d_b if block == "z" else dims.d_w
        total = 0.0
        for j in range(dims.d * width):
            h = FD_STEP
            up = fn(0.0, v, u, law.translated(_mean_delta(dims, "m" + block, j, h)))
            total += float(np.max(np.sum((up - base) ** 2, axis=(1, 2)))) / h**2
        return total

    # -- controls -------------------------------------------------------------

    def resolve_control(self, control) -> np.ndarray:
        """Deterministic node-indexed control values, shape (N+1, d_u)."""
        if isinstance(control, FeedbackControl):
            raise ValueError("feedback controls have no deterministic path")
        n = self.grid.steps
        if callable(control):
            nodes = self.grid.nodes
            vals = np.stack(
                [np.asarray(control(k, float(nodes[k])), dtype=float) for k in range(n + 1)]
            )
        else:
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

        ``control`` is a deterministic (N+1, d_u) array or a FeedbackControl;
        each time in ``t`` reads the control at node round(t / dt).  Feedback
        values are recomputed from the current forward feature y_k at every
        coefficient evaluation (the adapted proxy), node by node on a stack.
        """
        dyn = self.dynamics
        feedback = isinstance(control, FeedbackControl)

        def feedback_at(k: int, t: float, y: np.ndarray) -> np.ndarray:
            u = np.asarray(control(k, t, y), dtype=float)
            if u.shape != (y.shape[0], self.d_u):
                raise ValueError("feedback control returned a bad shape")
            return u

        def baked(fn, sign=1.0):
            def wrapped(t, v, law):
                k = _node_index(t, self.grid)
                if not feedback:
                    u = np.broadcast_to(control[k], v.y.shape[:-1] + (self.d_u,))
                elif isinstance(k, int):
                    u = feedback_at(k, t, v.y)
                else:
                    ks = np.arange(self.grid.steps + 1)[k]
                    u = np.stack([feedback_at(int(kk), float(tt), v.y[:, i])
                                  for i, (kk, tt) in enumerate(zip(ks, t))], axis=1)
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
    k = np.clip(np.rint(np.asarray(t) / grid.dt).astype(int), 0, grid.steps)
    if k.ndim == 0:
        return int(k)
    if k.size and np.array_equal(k, np.arange(k[0], k[0] + k.size)):
        return slice(int(k[0]), int(k[0]) + k.size)
    return k


# ----------------------------------------------------------------------------
# Hamiltonian and derivative banks
# ----------------------------------------------------------------------------


def hamiltonian(
    problem: ControlProblem,
    t: float,
    v: Quad,
    u: np.ndarray,
    chi: Quad,
    law: EmpiricalLaw,
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
    out = (
        np.sum(chi.y * big_f, axis=-1)
        - np.sum(chi.Y * f, axis=-1)
        + np.sum(chi.z * big_g, axis=(-2, -1))
        - np.sum(chi.Z * g, axis=(-2, -1))
        - ell
    )
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
    (M, K, out, in) on a stack of K nodes.  A mean block steps by FD_STEP; a
    point block by FD_STEP times one plus the block's largest magnitude over
    the particles of each node."""
    lead = v.y.shape[:-1]
    size = _size(dims, d_u, block)
    cols = []
    if block.startswith("m"):
        h = FD_STEP
        for j in range(size):
            delta = _mean_delta(dims, block, j, h)
            up = fn(t, v, u, law.translated(delta))
            dn = fn(t, v, u, law.translated(-delta))
            cols.append(((up - dn) / (2 * h)).reshape(*lead, -1))
    else:
        base_arr = _block_get(v, u, block)
        flat = base_arr.reshape(*lead, size)
        h = FD_STEP * (1.0 + np.max(np.abs(flat), axis=(0, -1), initial=0.0))
        for j in range(size):
            up_arr = flat.copy()
            dn_arr = flat.copy()
            up_arr[..., j] += h
            dn_arr[..., j] -= h
            v_up, u_up = _block_replace(v, u, block, up_arr.reshape(base_arr.shape))
            v_dn, u_dn = _block_replace(v, u, block, dn_arr.reshape(base_arr.shape))
            diff = fn(t, v_up, u_up, law) - fn(t, v_dn, u_dn, law)
            cols.append(diff.reshape(*lead, -1) / (2 * h[..., None]))
    return np.stack(cols, axis=-1)


class JacobianBank:
    """Flattened derivative tensors of the display-form dynamics along a
    state trajectory.  A constant Jacobian is one (out, in) matrix; any other
    is differenced once over all nodes and kept as (M, N+1, out, in)."""

    def __init__(self, problem: ControlProblem, state: EnsembleState,
                 controls: np.ndarray, laws: NodeMoments):
        self.problem = problem
        self.state = state
        self.controls = controls
        self.laws = laws
        self._cache: dict[tuple[str, str], np.ndarray] = {}

    def point(self, k: int | slice | np.ndarray) -> tuple:
        """(t, v, u, law) of the trajectory at node k or a stack of nodes."""
        v = self.state.at(k)
        u = np.broadcast_to(self.controls[k], v.y.shape[:-1] + (self.problem.d_u,))
        return self.state.grid.nodes[k], v, u, self.laws[k]

    def get(self, coef: str, block: str, k: int | slice | np.ndarray) -> np.ndarray:
        """The Jacobian at node(s) k: (out, in) when constant, else
        (M, out, in) at one node or (M, K, out, in) on a stack."""
        arr = self._cache.get((coef, block))
        if arr is None:
            problem = self.problem
            const = problem.dynamics.jacobians.get((coef, block))
            out_size = _size(problem.dims, problem.d_u, coef)
            in_size = _size(problem.dims, problem.d_u, block)
            if const is not None:
                arr = np.asarray(const, dtype=float).reshape(out_size, in_size)
            elif block.startswith("m") and problem.dynamics.law_dependence == "none":
                arr = np.zeros((out_size, in_size))
            else:
                arr = _fd_jacobian(
                    getattr(problem.dynamics, coef), *self.point(slice(None)), block,
                    problem.dims, problem.d_u,
                )
            self._cache[(coef, block)] = arr
        return arr if arr.ndim == 2 else arr[:, k]

    def signed(self, block: str, k: int | slice | np.ndarray) -> np.ndarray:
        """The Jacobians of (F, -f, G, -g) in one block stacked on the output
        axis, in the order of a flat chi = (p, P, q, Q), at node(s) k:
        (flat, in) when all four are constant, else (M, flat, in) at one node
        or (M, K, flat, in) on a stack."""
        arr = self._cache.get(("signed", block))
        if arr is None:
            parts = [sign * self.get(coef, block, slice(None))
                     for coef, sign in (("F", 1.0), ("f", -1.0), ("G", 1.0), ("g", -1.0))]
            lead = () if all(part.ndim == 2 for part in parts) else self.state.y.shape[:2]
            arr = np.concatenate(
                [np.broadcast_to(part, (*lead, *part.shape[-2:])) for part in parts], axis=-2
            )
            self._cache[("signed", block)] = arr
        return arr if arr.ndim == 2 else arr[:, k]


def _running_grad(problem: ControlProblem, t, v: Quad, u: np.ndarray, law,
                  block: str) -> np.ndarray:
    """Flattened per-particle gradient of the running cost in one block."""
    rc = problem.running_cost
    lead = v.y.shape[:-1]
    hook = (rc.mean_grads if block.startswith("m") else rc.grads).get(block)
    if hook is not None:
        return np.asarray(hook(t, v, u, law), dtype=float).reshape(*lead, -1)
    if block.startswith("m") and rc.law_dependence != "first_moment":
        if rc.law_dependence != "none":
            raise ValueError("L-derivative unavailable")
        return np.zeros((*lead, _size(problem.dims, problem.d_u, block)))

    def cost(t, v, u, law):  # the cost as a single output
        return rc.value(t, v, u, law)[..., None]

    return _fd_jacobian(cost, t, v, u, law, block, problem.dims, problem.d_u)[..., 0, :]


def grad_hamiltonian_block(
    problem: ControlProblem,
    bank: JacobianBank,
    k: int | slice | np.ndarray,
    chi: Quad,
    block: str,
) -> np.ndarray:
    """Per-particle gradient of H in one (possibly mean) block, flattened:
    (M, in) at node k, (M, K, in) on a stack of nodes k with chi of shape
    (M, K, ...).

    <p, dF> - <P, df> + <q, dG> - <Q, dg> - d(cost); chi supplies (p, P, q, Q).
    """
    out = np.einsum(_CONTRACT, chi.flat(), bank.signed(block, k))
    return out - _running_grad(problem, *bank.point(k), block)


# ----------------------------------------------------------------------------
# Adjoint system
# ----------------------------------------------------------------------------


@dataclass
class AdjointSystem:
    coefficients: CoefficientSet
    p0: np.ndarray
    c_adj: float
    shift: np.ndarray
    problem: HomotopyProblem


def build_adjoint_coefficients(
    problem: ControlProblem,
    state: EnsembleState,
    control_values: np.ndarray,
) -> AdjointSystem:
    """Linear coefficient system over the adjoint quadruple.

    Drift/noise entries are H-gradients along the baked state trajectory; the
    copy-averaged measure terms reduce, for first-moment structure, to plain
    ensemble means of the mean-block gradients paired with the adjoint batch.
    What does not depend on chi is built once: the signed Jacobians and, per
    map, minus the running-cost gradient in its point block and minus the
    particle mean of that in its mean block.  A call adds to this cost term
    one contraction of the flat chi and the mean-field term: ``law_chi.mean``
    against a constant mean-block Jacobian, else the particle mean of the
    contraction.
    Boundary data: p_0 from the initial-cost gradients, terminal
    P_T = shift - c p_T with the shift built from the terminal-cost gradients.
    """
    dims = problem.dims
    grid = state.grid
    n = grid.steps
    bank = JacobianBank(problem, state, control_values, state.node_laws())
    trajectory = bank.point(slice(None))

    def drift_or_noise(block_point: str, block_mean: str, out_shape: tuple):
        cost = -_running_grad(problem, *trajectory, block_point)
        cost -= _running_grad(problem, *trajectory, block_mean).mean(axis=0)
        jac_mean = bank.signed(block_mean, slice(None))

        def fn(t, chi: Quad, law_chi) -> np.ndarray:
            k = _node_index(t, grid)
            flat = chi.flat()
            jac = bank.signed(block_point, k)
            if jac.ndim == 2:
                # constant Jacobian: one 2-D product per node, nodes outermost
                # as the solver stores them, so flat is not copied
                out = np.matmul(flat.swapaxes(0, -2), jac).swapaxes(0, -2)
            else:
                out = np.einsum(_CONTRACT, flat, jac)
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
        h=lambda y_t, law: y_t,  # unused: adjoint problems use the affine terminal
        name=problem.name + "_adjoint",
    )

    big_y0 = state.Y[:, 0]
    law_y0 = EmpiricalLaw.from_samples(big_y0)
    p0 = -problem.initial_cost.grad_values(big_y0, law_y0) - problem.initial_cost.mean_grad_values(law_y0)[None, :]

    y_t = state.y[:, n]
    law_yt = EmpiricalLaw.from_samples(y_t)
    shift = (
        problem.terminal_cost.grad_values(y_t, law_yt)
        + problem.terminal_cost.mean_grad_values(law_yt)[None, :]
    )
    adj_problem = HomotopyProblem(
        base=coeffs,
        alpha=1.0,
        case="case1",
        theta1=1.0,
        xi=shift,
        x=p0,
        terminal_kind="affine",
        c=-problem.c,
    )
    return AdjointSystem(
        coefficients=coeffs, p0=p0, c_adj=-problem.c, shift=shift, problem=adj_problem
    )


@dataclass
class AdjointSolveResult:
    adjoint: EnsembleState  # (p, P, q, Q) in the blocks (y, Y, z, Z)
    report: SolveReport
    system: AdjointSystem


def _warm_solve(
    problem: HomotopyProblem,
    warm: EnsembleState,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float,
    max_iter: int,
) -> SolveReport | None:
    """Picard on ``problem`` from ``warm``; None when the solve raises
    SolverError or stops unconverged."""
    try:
        report = picard_solve(problem, warm, drivers, reg, tol, max_iter)
    except SolverError:
        return None
    return report if report.converged else None


def solve_adjoint(
    problem: ControlProblem,
    state: EnsembleState,
    control_values: np.ndarray,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float = 1e-6,
    max_iter: int = 80,
    warm: EnsembleState | None = None,
) -> AdjointSolveResult:
    """Picard solve of the (linear) adjoint system.

    With ``warm`` (an earlier adjoint solve's ``report.final_state``, e.g. at
    a nearby control) the iteration starts there.  Without it, or when that
    solve raises SolverError or does not converge, it starts at zero with
    p = p_0 and retries with damping 0.5 on SolverError.
    """
    system = build_adjoint_coefficients(problem, state, control_values)
    report = None
    if warm is not None:
        report = _warm_solve(system.problem, warm, drivers, reg, tol, max_iter)
    if report is None:
        zero = EnsembleState.zeros(state.particles, problem.dims, state.grid, x=system.p0)
        try:
            report = picard_solve(system.problem, zero, drivers, reg, tol, max_iter)
        except SolverError:
            report = picard_solve(
                system.problem, zero, drivers, reg, tol, max_iter, damping=0.5
            )
    return AdjointSolveResult(
        adjoint=report.final_state,
        report=report,
        system=system,
    )


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
    """Solve the state system under ``control`` up the continuation ladder.

    With ``warm`` (an earlier solved state, e.g. at a nearby control), Picard
    first runs on the alpha = 1 problem from it, with the ladder's tolerance
    and per-rung cap of 60 iterations.  Under the certified monotonicity
    condition the solution is unique, so both routes target the same fixed
    point.  If that solve raises SolverError or does not converge, the ladder
    runs as it does without ``warm``.
    """
    coeffs = problem.coefficients_for(control)
    if warm is not None:
        target = HomotopyProblem(
            base=coeffs,
            alpha=1.0,
            case="case1",
            theta1=problem.theta1,
            theta2=problem.theta2,
            xi=problem.xi,
            x=problem.x,
        )
        report = _warm_solve(target, warm, drivers, reg, tol, max_iter=60)
        if report is not None:
            return report
    return continuation_solve(
        coeffs,
        case="case1",
        theta1=problem.theta1,
        theta2=problem.theta2,
        delta=problem.delta,
        drivers=drivers,
        reg=reg,
        tol=tol,
        x=problem.x,
        xi=problem.xi,
        terminal_kind="map",
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

    Deterministic controls are box-checked upfront; feedback controls are
    checked on the solved trajectory (first offending node reported).
    """
    feedback = isinstance(control, FeedbackControl)
    if not feedback:
        control = problem.resolve_control(control)
        problem.check_admissible(control)
    report = solve_state(problem, control, drivers, reg, tol)
    state = report.final_state
    n = problem.grid.steps
    m = state.particles
    left = slice(0, n)
    nodes = problem.grid.nodes
    if feedback:
        u = np.empty((m, n, problem.d_u))
        for k in range(n):
            u[:, k] = control(k, float(nodes[k]), state.y[:, k])
            if not problem.in_box(u[:, k]):
                raise ValueError(f"control outside the box at node {k}")
    else:
        u = np.broadcast_to(control[left], (m, n, problem.d_u))
    running = problem.running_cost.value(
        nodes[left], state.at(left), u, state.node_laws()[left]
    )
    if np.shape(running) != (m, n):
        raise ValueError(f"running cost returned shape {np.shape(running)}, wanted {(m, n)}")
    # node-major and contiguous, so the sum adds the nodes in order
    per = np.ascontiguousarray((running * problem.grid.dt).T).sum(axis=0)
    y_t = state.y[:, n]
    per += problem.terminal_cost.value(y_t, EmpiricalLaw.from_samples(y_t))
    big_y0 = state.Y[:, 0]
    per += problem.initial_cost.value(big_y0, EmpiricalLaw.from_samples(big_y0))
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
    bank = JacobianBank(problem, state, control_values, state.node_laws())
    chi = adjoint.at(slice(None))
    return grad_hamiltonian_block(problem, bank, slice(None), chi, "u").mean(axis=0)


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
        adjoint = solve_adjoint(problem, state, u, drivers, reg, tol, warm=adjoint).adjoint
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
        law, law2 = EmpiricalLaw.from_samples(x), EmpiricalLaw.from_samples(x2)
        lhs = float(np.mean(term.value(x2, law2)) - np.mean(term.value(x, law)))
        grad = term.grad_values(x, law)
        mean_grad = term.mean_grad_values(law)
        correction = float(np.mean(np.sum(grad * (x2 - x), axis=1)))
        correction += float(mean_grad @ (x2 - x).mean(axis=0))
        worst = min(worst, lhs - correction)
    return worst


def verify_smp(
    problem: ControlProblem,
    candidate,
    n_perturbations: int,
    drivers: BrownianPair,
    reg: RegressionConfig,
    tol: float = 1e-6,
    seed: int = 0,
    concavity_tol: float = 1e-7,
    max_cond_tol: float = 1e-4,
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
    adjoint = solve_adjoint(problem, state, values, drivers, reg, tol).adjoint
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
    nodes = problem.grid.nodes
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
        "hamiltonian_concavity": bool(concavity_margin >= -concavity_tol),
        "max_condition": bool(max_gap >= -max_cond_tol),
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
    dims = problem.dims
    v = [scale * rng.standard_normal((m, *shape))
         for shape in ((dims.d,), (dims.d,), (dims.d, dims.d_b), (dims.d, dims.d_w))]
    u = problem.project(scale * rng.standard_normal(problem.d_u))
    return [*v, u, scale * rng.standard_normal(dims.flat)]


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
    h_steps: tuple[float, ...] = (1e-3,),
    drivers: BrownianPair | None = None,
    reg: RegressionConfig | None = None,
    tol: float = 1e-6,
) -> GradientConsistencyReport:
    """Directional cost derivative two ways: central differences of the cost
    against the adjoint-side formula -E int <grad_u H, direction> dt."""
    if drivers is None or reg is None:
        raise ValueError("drivers and regression config are required")
    values = problem.resolve_control(control)
    direction = np.asarray(direction, dtype=float)
    if direction.ndim == 1:
        direction = direction[:, None]
    if not np.any(direction):
        return GradientConsistencyReport(0.0, 0.0, 0.0)
    fd = 0.0
    for h in h_steps:
        up = estimate_cost(problem, problem.project(values + h * direction), drivers, reg, tol)
        dn = estimate_cost(problem, problem.project(values - h * direction), drivers, reg, tol)
        fd = (up.value - dn.value) / (2 * h)
    report = solve_state(problem, values, drivers, reg, tol)
    adj = solve_adjoint(problem, report.final_state, values, drivers, reg, tol)
    grad = mean_control_gradient(problem, report.final_state, adj.adjoint, values)
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

    dynamics = ControlledDynamics(
        f=f, g=g, F=big_f, G=big_g, law_dependence="first_moment", jacobians=jac
    )

    rho = pr["rho"]

    running = RunningCost(
        value=lambda t, v, u, law: 0.5 * np.sum(u**2, axis=-1)
        + 0.5 * rho * np.sum(v.y**2, axis=-1),
        grads={
            "y": lambda t, v, u, law: rho * v.y,
            "Y": lambda t, v, u, law: np.zeros_like(v.Y),
            "z": lambda t, v, u, law: np.zeros_like(v.z),
            "Z": lambda t, v, u, law: np.zeros_like(v.Z),
            "u": lambda t, v, u, law: u,
        },
        law_dependence="none",
    )

    kt, lt = pr["kappa_T"], pr["lambda_T"]
    terminal = CostTerm(
        value=lambda x, law: 0.5 * kt * np.sum(x**2, axis=1)
        + 0.5 * lt * float(law.mean @ law.mean) * np.ones(x.shape[0]),
        grad=lambda x, law: kt * x,
        mean_grad=lambda law: lt * law.mean,
        law_dependence="first_moment",
    )
    k0 = pr["kappa_0"]
    initial = CostTerm(
        value=lambda x, law: 0.5 * k0 * np.sum(x**2, axis=1),
        grad=lambda x, law: k0 * x,
        mean_grad=lambda law: np.zeros(law.dim),
        law_dependence="none",
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
        jac = np.zeros((2, 2))
        for j in range(2):
            h = 1e-7 * (1.0 + abs(s[j]))
            e = np.zeros(2)
            e[j] = h
            jac[:, j] = (shoot(s + e) - shoot(s - e)) / (2 * h)
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
