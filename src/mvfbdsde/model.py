"""Coefficient systems for the coupled two-driver forward-backward ensemble.

The canonical internal form is

    dy = f(t,v,law) dt + g(t,v,law) dW - z dB~
    dY = F(t,v,law) dt + G(t,v,law) dB~ + Z dW
    y_0 = x,  Y_T = terminal(y_T, law(y_T)),

with v = (y, Y, z, Z) and ``law`` the joint distribution of v, approximated
throughout by empirical particle clouds.  Systems stated with dY = -F dt
- G dB~ must be negated into this form before use.  The backward integral dB~
pairs RIGHT-node integrands with increments, the forward integral LEFT-node
ones (see paths).

Coefficient maps, h included, read the law only through its first moment:
each receives a ``NodeMoments``, so the solver evaluates each map once over a
stack of nodes against per-node means; see ``CoefficientSet`` for the shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .paths import BrownianPair, TimeGrid


class CoefficientError(ValueError):
    """A coefficient produced an invalid (non-finite or misshapen) value."""


@dataclass(frozen=True)
class Dimensions:
    """State dimension and the two driver dimensions."""

    d: int
    d_w: int = 1
    d_b: int = 1

    def __post_init__(self) -> None:
        if min(self.d, self.d_w, self.d_b) < 1:
            raise ValueError("all dimensions must be >= 1")

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """Per-particle shapes of the blocks y, Y, z, Z."""
        return (self.d,), (self.d,), (self.d, self.d_b), (self.d, self.d_w)

    @property
    def flat(self) -> int:
        """Length of a flattened quadruple vector."""
        return sum(math.prod(shape) for shape in self.shapes)


class Quad(NamedTuple):
    """Batch of quadruples: y,Y of shape (M, d); z (M, d, d_b); Z (M, d, d_w)."""

    y: np.ndarray
    Y: np.ndarray
    z: np.ndarray
    Z: np.ndarray

    @property
    def particles(self) -> int:
        return self.y.shape[0]

    def flat(self) -> np.ndarray:
        """The blocks concatenated on one flat axis: (M, flat) at one node,
        (M, K, flat) on a stack."""
        lead = self.y.shape[:-1]
        return np.concatenate([b.reshape(*lead, -1) for b in self], axis=-1)

    @classmethod
    def zeros(cls, m: int, dims: Dimensions) -> "Quad":
        return cls(*(np.zeros((m, *shape)) for shape in dims.shapes))


def split_flat_mean(mean: np.ndarray, dims: Dimensions) -> Quad:
    """Unpack flat quadruple-space means of shape (..., flat) into
    (my, mY, mz, mZ) blocks of shapes (..., d), (..., d), (..., d, d_b) and
    (..., d, d_w)."""
    d, lead = dims.d, mean.shape[:-1]
    o1, o2, o3 = d, 2 * d, 2 * d + d * dims.d_b
    return Quad(
        mean[..., :o1],
        mean[..., o1:o2],
        mean[..., o2:o3].reshape(*lead, d, dims.d_b),
        mean[..., o3:].reshape(*lead, d, dims.d_w),
    )


@dataclass(frozen=True)
class NodeMoments:
    """Per-node first moments of the quadruple: ``mean`` is (K, flat) on a
    stack of K nodes and (flat,) at one node.  Indexing selects nodes."""

    mean: np.ndarray

    @classmethod
    def of(cls, samples: np.ndarray) -> "NodeMoments":
        """The moments of the uniform law on the sample rows (n, flat): the
        weighted sum w @ samples, bit for bit the mean of ``measure``'s
        uniform clouds, which ``samples.mean(axis=0)`` does not always match."""
        w = np.full(samples.shape[0], 1.0 / samples.shape[0])
        return cls((w / w.sum()) @ samples)

    def __getitem__(self, k: int | slice | np.ndarray) -> "NodeMoments":
        return NodeMoments(self.mean[k])

    def translated(self, delta: np.ndarray) -> "NodeMoments":
        """The moments of every atom shifted by the flat vector ``delta``."""
        return NodeMoments(self.mean + delta)


CoefFn = Callable[[float | np.ndarray, Quad, NodeMoments], np.ndarray]
TerminalFn = Callable[[np.ndarray, NodeMoments], np.ndarray]


@dataclass(frozen=True)
class CoefficientSet:
    """The four coefficient maps and the terminal map, in canonical form.

    Every map ``fn(t, v, law)`` is evaluated at one node or over a contiguous
    stack of K nodes.  At one node ``t`` is a float, the blocks of ``v`` are
    y, Y (M, d), z (M, d, d_b), Z (M, d, d_w) and ``law.mean`` is (flat,).  On
    a stack ``t`` holds the K node times, the blocks are (M, K, ...) and
    ``law.mean`` is (K, flat).  ``f``/``F`` return the shape of ``v.y``, ``g``
    that of ``v.Z`` and ``G`` that of ``v.z``; every evaluator accepts any
    finite output that broadcasts to it.  Every map, ``h`` included,
    receives its law as ``NodeMoments`` and reads it only through
    ``law.mean``.  ``h`` maps (y_T of shape (M, d), ``mean`` (d,)) to (M, d),
    or a stack (M, K, d) with ``mean`` (K, d) to (M, K, d).  The
    certification routines stack their sampled pairs as
    nodes (one pair per node, M atoms) and the moment oracle its shooting
    guesses (one Dirac ensemble per node, M = 1), so ``h`` also runs on
    stacks there.  Evaluation must be deterministic and reentrant.
    """

    dims: Dimensions
    f: CoefFn
    g: CoefFn
    F: CoefFn
    G: CoefFn
    h: TerminalFn
    name: str = "custom"

    def __post_init__(self) -> None:
        for label in ("f", "g", "F", "G", "h"):
            if not callable(getattr(self, label)):
                raise TypeError(f"coefficient {label} is not callable")


def _checked(value, shape: tuple, label: str) -> np.ndarray:
    """A map's output, checked finite at its own size and then broadcast to
    ``shape``; CoefficientError names the map when either check fails."""
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise CoefficientError(f"coefficient {label} produced non-finite values")
    try:
        return value if value.shape == shape else np.broadcast_to(value, shape)
    except ValueError:
        raise CoefficientError(
            f"coefficient {label} returned shape {value.shape}, expected {shape}"
        ) from None


def eval_system(
    coeffs: CoefficientSet,
    t: float | np.ndarray,
    states: Quad,
    law: NodeMoments,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (f, g, F, G) at given quadruples and moments, at one node
    or on a stack.  Each output must be finite and broadcast to its block's
    shape, else CoefficientError names the map: ``_checked``, the rule every
    map output in the program passes.
    """
    f = _checked(coeffs.f(t, states, law), states.y.shape, "f")
    g = _checked(coeffs.g(t, states, law), states.Z.shape, "g")
    big_f = _checked(coeffs.F(t, states, law), states.y.shape, "F")
    big_g = _checked(coeffs.G(t, states, law), states.z.shape, "G")
    return f, g, big_f, big_g


def eval_terminal(coeffs: CoefficientSet, y_t: np.ndarray, law: NodeMoments) -> np.ndarray:
    """The terminal map at y_T (one node or a stack), checked like
    ``eval_system``."""
    return _checked(coeffs.h(y_t, law), y_t.shape, "h")


def pairing(a: tuple[np.ndarray, ...], v: Quad) -> np.ndarray:
    """Per-particle pairing <(F,f,G,g), (y,Y,z,Z)> used by the monotonicity
    functional: <F,y> + <f,Y> + <G,z> + <g,Z>, at one node or on a stack."""
    big_f, f, big_g, g = a
    return (
        np.sum(big_f * v.y, axis=-1)
        + np.sum(f * v.Y, axis=-1)
        + np.sum(big_g * v.z, axis=(-2, -1))
        + np.sum(g * v.Z, axis=(-2, -1))
    )


# ----------------------------------------------------------------------------
# The continuation family
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class HomotopyProblem:
    """One member of the continuation family.

    ``case1`` damps the backward pair: F_a = a*F + (1-a)*theta1*(-y),
    G_a = a*G + (1-a)*theta1*(-z), f_a = a*f, g_a = a*g, and the terminal map
    is a*base + (1-a)*y_T.  ``case2`` damps the forward pair instead:
    f_a = a*f + (1-a)*theta2*(-Y), g_a = a*g + (1-a)*theta2*(-Z), F_a = a*F,
    G_a = a*G, terminal a*base.  The terminal base is the coefficient set's
    map h; ``xi`` is added to it and may be a per-particle array.
    ``evaluate`` takes ``(t, v, law)`` as the coefficient maps do; the base
    maps and h are checked as ``eval_system`` and ``eval_terminal`` check them.
    """

    base: CoefficientSet
    alpha: float
    case: str
    theta1: float = 0.0
    theta2: float = 0.0
    xi: np.ndarray | None = None
    x: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha outside [0,1]")
        if self.case not in ("case1", "case2"):
            raise ValueError(f"bad case {self.case!r}")
        if self.case == "case1" and self.theta1 <= 0.0:
            raise ValueError("case1 requires theta1 > 0")
        if self.case == "case2" and self.theta2 <= 0.0:
            raise ValueError("case2 requires theta2 > 0")

    @property
    def dims(self) -> Dimensions:
        return self.base.dims

    def initial(self, m: int) -> np.ndarray:
        if self.x is None:
            return np.zeros((m, self.dims.d))
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            return np.broadcast_to(x, (m, self.dims.d)).copy()
        return x.copy()

    def evaluate(
        self, t, v: Quad, law: NodeMoments
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(f, g, F, G): each base map checked as in ``eval_system``, times
        alpha, plus (1 - alpha) times the case's damping.

        At alpha = 1 each output is the checked map output itself, which may
        be a read-only broadcast or an array the map shares with ``v``: the
        caller only reads it.  Below alpha = 1 the damping is added to
        alpha times the map output as one scaled block, -(1 - alpha) theta
        times y, z, Y or Z."""
        if self.case == "case1":
            theta, damped = self.theta1, {"F": v.y, "G": v.z}
        else:
            theta, damped = self.theta2, {"f": v.Y, "g": v.Z}
        damping = self.alpha != 1.0
        out = []
        for name, block in (("f", v.y), ("g", v.Z), ("F", v.y), ("G", v.z)):
            # damping before the map output, which alpha times it replaces:
            # with the output first, glibc returns the heap top that is free
            # between Picard steps and the sweeps fault it back in
            damp = None
            if damping and name in damped:
                damp = (-(1.0 - self.alpha) * theta) * damped[name]
            value = _checked(getattr(self.base, name)(t, v, law), block.shape, name)
            if damping:
                value = self.alpha * value
                if damp is not None:
                    value += damp
            del damp
            out.append(value)
        return tuple(out)

    def terminal(self, y_t: np.ndarray) -> np.ndarray:
        """The terminal map at the samples y_T (M, d), under their moments."""
        out = self.alpha * eval_terminal(self.base, y_t, NodeMoments.of(y_t))
        if self.case == "case1":
            out = out + (1.0 - self.alpha) * y_t
        if self.xi is not None:
            xi = np.asarray(self.xi, dtype=float)
            out = out + (xi if xi.ndim > 1 else xi[None, :])
        return out

    def at_alpha(self, alpha: float) -> "HomotopyProblem":
        return replace(self, alpha=alpha)


# ----------------------------------------------------------------------------
# Linear coefficient tables and the built-in models
# ----------------------------------------------------------------------------

_VEC_SOURCES = ("y", "Y", "my", "mY")
_G_SOURCES = ("z", "mz")
_g_SOURCES = ("Z", "mZ")
_H_SOURCES = ("y", "my")


@dataclass(frozen=True)
class LinearTables:
    """Scalar coefficient tables for a linear first-moment model.

    Drifts f, F combine {y, Y, my, mY}; the forward noise g combines {Z, mZ};
    the backward noise G combines {z, mz}; the terminal h combines {y, my}.
    Lowercase m prefixes denote ensemble means.  Scalars act componentwise.
    """

    f: dict[str, float] = field(default_factory=dict)
    F: dict[str, float] = field(default_factory=dict)
    g: dict[str, float] = field(default_factory=dict)
    G: dict[str, float] = field(default_factory=dict)
    h: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, table, allowed in (
            ("f", self.f, _VEC_SOURCES),
            ("F", self.F, _VEC_SOURCES),
            ("g", self.g, _g_SOURCES),
            ("G", self.G, _G_SOURCES),
            ("h", self.h, _H_SOURCES),
        ):
            for key in table:
                if key not in allowed:
                    raise ValueError(f"{label} cannot depend on {key!r}")


def _table_sum(terms: list[tuple[float, np.ndarray]], like: np.ndarray) -> np.ndarray:
    """Sum of the (coef, source) ``terms`` in order, on the shape and memory
    layout of ``like``; sources broadcast to it.  The sum starts from the
    first product, which is what zeros plus that product gives (zeros with
    no terms)."""
    out = None
    for coef, source in terms:
        if out is None:
            out = np.multiply(coef, source, out=np.empty_like(like))
        else:
            out += coef * source
    return np.zeros_like(like) if out is None else out


def linear_coefficient_set(
    dims: Dimensions, tables: LinearTables, name: str = "linear"
) -> CoefficientSet:
    """Build a coefficient set from scalar linear tables."""

    def combine(table: dict[str, float], like: str) -> CoefFn:
        """Sum of coef x source in table order, on the shape of block
        ``like``; an m* key reads that block of the law's mean."""
        def fn(t, v: Quad, law: NodeMoments) -> np.ndarray:
            means = split_flat_mean(law.mean, dims)
            return _table_sum(
                [(coef, getattr(means, key[1:]) if key.startswith("m") else getattr(v, key))
                 for key, coef in table.items()],
                getattr(v, like),
            )

        return fn

    def terminal(t_table: dict[str, float]) -> TerminalFn:
        def fn(y_t: np.ndarray, law: NodeMoments) -> np.ndarray:
            return _table_sum(
                [(coef, y_t if key == "y" else law.mean[None, :])
                 for key, coef in t_table.items()],
                y_t,
            )

        return fn

    return CoefficientSet(
        dims=dims,
        f=combine(tables.f, "y"),
        g=combine(tables.g, "Z"),
        F=combine(tables.F, "y"),
        G=combine(tables.G, "z"),
        h=terminal(tables.h),
        name=name,
    )


def builtin_example_meanfield(dims: Dimensions | None = None) -> CoefficientSet:
    """Mean-field model with a unique deterministic-mean solution:
    f = E[Y]/2 - Y, g = E[Z]/4 - Z/2, F = E[y]/2 - y, G = E[z]/4 - z/2,
    h = -E[y_T]/2 + y_T.  Requires matching driver dimensions."""
    dims = dims or Dimensions(1, 1, 1)
    if dims.d_w != dims.d_b:
        raise ValueError("this model needs d_w == d_b")
    tables = LinearTables(
        f={"Y": -1.0, "mY": 0.5},
        g={"Z": -0.5, "mZ": 0.25},
        F={"y": -1.0, "my": 0.5},
        G={"z": -0.5, "mz": 0.25},
        h={"y": 1.0, "my": -0.5},
    )
    return linear_coefficient_set(dims, tables, name="example1")


def builtin_counterexample() -> tuple[CoefficientSet, float, np.ndarray, Dimensions]:
    """Scalar model with two distinct solutions on horizon 3*pi/4:
    f = E[Y], g = 0, F = -E[y], G = -z, h = -E[y_T]; start at zero.

    Both the zero quadruple and (sin t, cos t, 0, 0) satisfy it, so uniqueness
    fails (the monotonicity functional picks up +(E[dY])^2)."""
    dims = Dimensions(1, 1, 1)
    tables = LinearTables(
        f={"mY": 1.0},
        F={"my": -1.0},
        G={"z": -1.0},
        h={"my": -1.0},
    )
    coeffs = linear_coefficient_set(dims, tables, name="example2")
    return coeffs, 0.75 * np.pi, np.zeros(1), dims


def zero_coefficient_set(dims: Dimensions) -> CoefficientSet:
    return linear_coefficient_set(dims, LinearTables(), name="zero")


# ----------------------------------------------------------------------------
# Ensemble states and pathwise residuals
# ----------------------------------------------------------------------------


@dataclass
class EnsembleState:
    """Particle discretization of the quadruple: y,Y (M, N+1, d);
    z (M, N+1, d, d_b); Z (M, N+1, d, d_w)."""

    y: np.ndarray
    Y: np.ndarray
    z: np.ndarray
    Z: np.ndarray
    grid: TimeGrid

    def __post_init__(self) -> None:
        n = self.grid.steps
        for label, arr in (("y", self.y), ("Y", self.Y), ("z", self.z), ("Z", self.Z)):
            if arr.shape[1] != n + 1:
                raise ValueError(f"{label} carries {arr.shape[1]} nodes, wanted {n + 1}")
        if not all(
            np.all(np.isfinite(a)) for a in (self.y, self.Y, self.z, self.Z)
        ):
            raise ValueError("non-finite ensemble state")

    @property
    def particles(self) -> int:
        return self.y.shape[0]

    def at(self, k: int | slice) -> Quad:
        """The quadruple at node ``k``, or the (M, K, ...) stack of a slice."""
        return Quad(self.y[:, k], self.Y[:, k], self.z[:, k], self.Z[:, k])

    def copy(self) -> "EnsembleState":
        return EnsembleState(
            self.y.copy(), self.Y.copy(), self.z.copy(), self.Z.copy(), self.grid
        )

    @classmethod
    def zeros(
        cls, m: int, dims: Dimensions, grid: TimeGrid, x: np.ndarray | None = None
    ) -> "EnsembleState":
        n = grid.steps
        state = cls(*(np.zeros((m, n + 1, *shape)) for shape in dims.shapes), grid)
        if x is not None:
            x = np.asarray(x, dtype=float)
            state.y[:, :, :] = x[:, None, :] if x.ndim > 1 else x[None, None, :]
        return state

    def node_laws(self) -> NodeMoments:
        """First moments of all N+1 nodes, from one mean per block."""
        n = self.grid.steps + 1
        return NodeMoments(np.concatenate(
            [b.mean(axis=0).reshape(n, -1) for b in (self.y, self.Y, self.z, self.Z)],
            axis=1,
        ))


def as_problem(coeffs: CoefficientSet, x: np.ndarray | None = None,
               xi: np.ndarray | None = None) -> HomotopyProblem:
    """Wrap a bare coefficient set as its own continuation endpoint; case and
    theta do not enter at alpha = 1."""
    return HomotopyProblem(base=coeffs, alpha=1.0, case="case1", theta1=1.0, xi=xi, x=x)


class ResidualTriple(NamedTuple):
    forward: float
    backward: float
    terminal: float

    def max(self) -> float:
        return max(self.forward, self.backward, self.terminal)


def residual(
    problem: HomotopyProblem | CoefficientSet,
    state: EnsembleState,
    drivers: BrownianPair,
) -> ResidualTriple:
    """One-step defect norms of a candidate ensemble.

    Forward: max over steps of the particle-RMS of
    y_{k+1} - [y_k + f_k dt + g_k dW_k - z_{k+1} dB_k]; backward analogously
    for Y with F at the left node and G at the right node; terminal: RMS of
    Y_N - terminal(y_N).  Coefficients are evaluated once over all N+1 of the
    state's own nodes and first moments; f, g and F are read at the left
    nodes and G at the right nodes.
    """
    if isinstance(problem, CoefficientSet):
        problem = as_problem(problem)
    if state.particles != drivers.particles or state.grid.steps != drivers.grid.steps:
        raise ValueError("state and drivers disagree in shape")
    grid = state.grid
    dt = grid.dt
    n = grid.steps
    v, laws = state.at(slice(None)), state.node_laws()
    f, g, big_f, big_g = problem.evaluate(grid.nodes, v, laws)
    left, right = slice(0, n), slice(1, n + 1)
    f, g, big_f, big_g = f[:, left], g[:, left], big_f[:, left], big_g[:, right]
    # particle-major, so the defects' reductions sum in one order whatever
    # the drivers' storage
    dw, db = np.ascontiguousarray(drivers.dW), np.ascontiguousarray(drivers.dB)
    fdef = (
        state.y[:, right]
        - state.y[:, left]
        - f * dt
        - np.einsum("mkij,mkj->mki", g, dw)
        + np.einsum("mkij,mkj->mki", state.z[:, right], db)
    )
    bdef = (
        state.Y[:, right]
        - state.Y[:, left]
        - big_f * dt
        - np.einsum("mkij,mkj->mki", big_g, db)
        - np.einsum("mkij,mkj->mki", state.Z[:, left], dw)
    )

    def worst_rms(defect: np.ndarray) -> float:
        return float(np.max(np.sqrt(np.mean(np.sum(defect**2, axis=2), axis=0))))

    y_t = state.y[:, n]
    tdef = state.Y[:, n] - problem.terminal(y_t)
    return ResidualTriple(
        worst_rms(fdef), worst_rms(bdef), float(np.sqrt(np.mean(np.sum(tdef**2, axis=1))))
    )
