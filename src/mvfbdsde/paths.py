"""Two-driver Brownian ensembles, forward/backward quadratures, and the
discrete integration-by-parts identity check.

Conventions shared by the whole package:
  * forward stochastic integrals evaluate the integrand at the LEFT node,
  * backward stochastic integrals evaluate the integrand at the RIGHT node.
Integrand arrays are node-indexed, shape (M, N+1, ...), so both rules read off
the same array.  Sampled driver increments have shape (M, N, d) and are stored
node-major, the order in which the solver's sweeps read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        """The N+1 node times, computed once and read-only."""
        nodes = np.linspace(0.0, self.horizon, self.steps + 1)
        nodes.flags.writeable = False
        return nodes


@dataclass(frozen=True)
class BrownianPair:
    """Increment arrays of two independent drivers, (M, N, d_W) and (M, N, d_B).

    ``sample_driver_pair`` stores them node-major (``dW.transpose(1, 0, 2)``
    is C-contiguous); particle-major arrays give the same results, slower.
    """

    dW: np.ndarray
    dB: np.ndarray
    grid: TimeGrid
    seed: int

    @property
    def particles(self) -> int:
        return self.dW.shape[0]

    @cached_property
    def b_tail(self) -> np.ndarray:
        """B_T - B_{t_k} on every node, shape (M, N+1, d_B); zero at the last
        node.  Computed on the first read and kept, read-only."""
        m, n, db = self.dB.shape
        tail = np.zeros((m, n + 1, db))
        tail[:, :-1] = np.cumsum(self.dB[:, ::-1], axis=1)[:, ::-1]
        tail.flags.writeable = False
        return tail


def sample_driver_pair(
    grid: TimeGrid, d_w: int, d_b: int, particles: int, seed: int
) -> BrownianPair:
    """Seeded Gaussian increments with per-component variance dt.

    Particle p's stream is derived from (seed, p) alone, so the arrays do not
    depend on how generation is scheduled or on the total particle count.
    """
    if d_w < 1 or d_b < 1 or particles < 1:
        raise ValueError("driver dimensions and particle count must be positive")
    n = grid.steps
    root_dt = np.sqrt(grid.dt)
    dw = np.empty((n, particles, d_w)).transpose(1, 0, 2)
    db = np.empty((n, particles, d_b)).transpose(1, 0, 2)
    for p in range(particles):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(p,)))
        )
        dw[p] = rng.standard_normal((n, d_w)) * root_dt
        db[p] = rng.standard_normal((n, d_b)) * root_dt
    return BrownianPair(dW=dw, dB=db, grid=grid, seed=seed)


def _contract(values: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Per-step pairing of integrand values with driver increments.

    Scalar drivers (M, N) accept scalar (M, N) or vector (M, N, d) integrands;
    vector drivers (M, N, d_drv) accept vector integrands of the same shape
    (inner-product output) or matrices (M, N, d, d_drv).
    """
    if increments.ndim == 2:
        if values.ndim == 2 and values.shape == increments.shape:
            return values * increments
        if values.ndim == 3 and values.shape[:2] == increments.shape[:2]:
            return values * increments[..., None]
    elif increments.ndim == 3:
        if values.ndim == 3 and values.shape == increments.shape:
            return np.einsum("mkj,mkj->mk", values, increments)
        if (
            values.ndim == 4
            and values.shape[:2] == increments.shape[:2]
            and values.shape[3] == increments.shape[2]
        ):
            return np.einsum("mkij,mkj->mki", values, increments)
    raise ValueError("integrand/driver shape mismatch")


def forward_ito_integral(integrand: np.ndarray, d_driver: np.ndarray) -> np.ndarray:
    """Sum_k integrand_k * dDrv_k using LEFT-node integrand values.

    ``integrand`` is node-indexed with N+1 entries along axis 1; the last node
    is unused.  Returns one value (scalar or vector) per particle.
    """
    integrand = np.asarray(integrand, dtype=float)
    d_driver = np.asarray(d_driver, dtype=float)
    n = d_driver.shape[1]
    if integrand.shape[1] != n + 1:
        raise ValueError("integrand must carry N+1 node values")
    return _contract(integrand[:, :n], d_driver).sum(axis=1)


def backward_ito_integral(integrand: np.ndarray, d_driver: np.ndarray) -> np.ndarray:
    """Sum_k integrand_{k+1} * dDrv_k using RIGHT-node integrand values."""
    integrand = np.asarray(integrand, dtype=float)
    d_driver = np.asarray(d_driver, dtype=float)
    n = d_driver.shape[1]
    if integrand.shape[1] != n + 1:
        raise ValueError("integrand must carry N+1 node values")
    return _contract(integrand[:, 1:], d_driver).sum(axis=1)


@dataclass(frozen=True)
class ProcessSpec:
    """Semimartingale ingredients: initial value, drift, forward and backward
    integrands, all node-indexed ensembles.

    Shapes for a d-dimensional process: initial (M, d) or (d,), drift
    (M, N+1, d), forward (M, N+1, d, d_W), backward (M, N+1, d, d_B).  Any of
    drift/forward/backward may be None for zero.
    """

    initial: np.ndarray
    drift: np.ndarray | None = None
    forward: np.ndarray | None = None
    backward: np.ndarray | None = None


def _noise_steps(spec: ProcessSpec, drivers: BrownianPair) -> tuple:
    """Per-step forward (left-node) and backward (right-node) noise increments
    of ``spec``, (M, N, d) or None; ``_contract`` rejects a wrong driver axis."""
    n = drivers.grid.steps
    return (None if spec.forward is None else _contract(spec.forward[:, :n], drivers.dW),
            None if spec.backward is None else _contract(spec.backward[:, 1:], drivers.dB))


def _simulate(spec: ProcessSpec, drivers: BrownianPair) -> np.ndarray:
    m, n = drivers.dW.shape[:2]
    fwd, bwd = _noise_steps(spec, drivers)
    initial = np.asarray(spec.initial, dtype=float)
    if initial.ndim == 1:
        initial = np.broadcast_to(initial, (m, initial.shape[0]))
    d = initial.shape[1]
    path = np.zeros((m, n + 1, d))
    path[:, 0] = initial
    dt = drivers.grid.dt
    for k in range(n):
        step = path[:, k].copy()
        if spec.drift is not None:
            step = step + spec.drift[:, k] * dt
        for noise in (fwd, bwd):
            if noise is not None:
                step = step + noise[:, k]
        path[:, k + 1] = step
    return path


def discrete_ito_product_check(
    alpha_spec: ProcessSpec, alpha_tilde_spec: ProcessSpec, grid: TimeGrid,
    drivers: BrownianPair,
) -> float:
    """Residual of the product-rule identity for two mixed-integral processes.

    Both processes are Euler-simulated from their ingredient decompositions;
    the check compares E<a_T, b_T> against

        E<a_0, b_0> + E int <a, db> + E int <b, da>
                    - E int <delta, delta~> ds + E int <gamma, gamma~> ds,

    where the cross integrals pair drift and forward parts at the LEFT node
    and backward parts at the RIGHT node.  The minus sign on the backward
    covariation is structural: with it the identity reproduces E[B_T^2] = T.
    """
    if drivers.grid.steps != grid.steps:
        raise ValueError("grid and drivers disagree")
    a = _simulate(alpha_spec, drivers)
    b = _simulate(alpha_tilde_spec, drivers)
    if a.shape != b.shape:
        raise ValueError("process dimensions disagree")
    dt = grid.dt
    n = grid.steps

    def cross(x: np.ndarray, spec: ProcessSpec) -> float:
        """E int <x, d(other)> with the mixed endpoint convention."""
        fwd, bwd = _noise_steps(spec, drivers)
        total = np.zeros(x.shape[0])
        for k in range(n):
            if spec.drift is not None:
                total += np.sum(x[:, k] * spec.drift[:, k], axis=1) * dt
            if fwd is not None:
                total += np.sum(x[:, k] * fwd[:, k], axis=1)
            if bwd is not None:
                total += np.sum(x[:, k + 1] * bwd[:, k], axis=1)
        return float(total.mean())

    def quad(u: np.ndarray | None, v: np.ndarray | None, right: bool) -> float:
        if u is None or v is None:
            return 0.0
        sl = slice(1, n + 1) if right else slice(0, n)
        prod = np.sum(u[:, sl] * v[:, sl], axis=(2, 3)) * dt
        return float(prod.sum(axis=1).mean())

    lhs = float(np.sum(a[:, -1] * b[:, -1], axis=1).mean())
    rhs = (
        float(np.sum(a[:, 0] * b[:, 0], axis=1).mean())
        + cross(a, alpha_tilde_spec)
        + cross(b, alpha_spec)
        - quad(alpha_spec.backward, alpha_tilde_spec.backward, right=True)
        + quad(alpha_spec.forward, alpha_tilde_spec.forward, right=False)
    )
    return abs(lhs - rhs)

