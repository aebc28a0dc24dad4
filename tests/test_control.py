"""Hamiltonian, measure derivatives, adjoint construction/solve, cost
estimation, and the sufficient-condition verifier."""

import dataclasses

import numpy as np
import pytest

from mvfbdsde.assumptions import PairSampler, check_monotonicity, estimate_lipschitz
from mvfbdsde.control import (
    ControlledDynamics,
    ControlProblem,
    CostTerm,
    RunningCost,
    build_adjoint_coefficients,
    estimate_cost,
    first_order_candidate,
    gradient_consistency,
    hamiltonian,
    lq_control_scenario,
    lq_deterministic_oracle,
    mean_control_gradient,
    solve_adjoint,
    solve_state,
    verify_smp,
)
from mvfbdsde.control import (
    _CONTRACT,
    _box_grid,
    _convexity_margin,
    _fd_jacobian,
    _node_index,
    _running_grad,
    _signed_jacobian,
    _size,
    _trajectory,
)
from mvfbdsde.model import (
    Dimensions, EnsembleState, NodeMoments, Quad, builtin_example_meanfield, split_flat_mean,
)
from mvfbdsde.paths import TimeGrid, sample_driver_pair
from mvfbdsde.solver import RegressionConfig, continuation_solve, d_metric, picard_solve

REG = RegressionConfig()


@pytest.fixture(scope="module")
def lq():
    problem = lq_control_scenario()
    drivers = sample_driver_pair(problem.grid, 1, 1, 1000, seed=909)
    return problem, drivers


def quad_batch(rng, m, dims, scale=1.0):
    return Quad(
        scale * rng.standard_normal((m, dims.d)),
        scale * rng.standard_normal((m, dims.d)),
        scale * rng.standard_normal((m, dims.d, dims.d_b)),
        scale * rng.standard_normal((m, dims.d, dims.d_w)),
    )


def zero_cost_problem(grid=None) -> ControlProblem:
    grid = grid or TimeGrid(1.0, 30)
    dims = Dimensions(1, 1, 1)
    dynamics = ControlledDynamics(
        f=lambda t, v, u, law: u.copy(),
        g=lambda t, v, u, law: np.zeros_like(v.Z),
        F=lambda t, v, u, law: v.y.copy(),
        G=lambda t, v, u, law: np.zeros_like(v.z),
    )
    return ControlProblem(
        dims=dims,
        d_u=1,
        grid=grid,
        x=np.array([1.0]),
        c=0.5,
        dynamics=dynamics,
        running_cost=RunningCost.zero(),
        terminal_cost=CostTerm.zero(),
        initial_cost=CostTerm.zero(),
        u_lo=np.array([-2.0]),
        u_hi=np.array([2.0]),
        theta1=0.25,
        name="zero_cost",
    )


class TestHamiltonian:
    def test_zero_adjoints_give_negative_cost(self, lq):
        problem, _ = lq
        rng = np.random.default_rng(0)
        m = 8
        v = quad_batch(rng, m, problem.dims)
        u = rng.uniform(-1, 1, size=(m, 1))
        chi = Quad.zeros(m, problem.dims)
        law = NodeMoments.of(v.flat())
        h = hamiltonian(problem, 0.3, v, u, chi, law)
        ell = problem.running_cost.value(0.3, v, u, law)
        assert np.allclose(h, -ell, atol=1e-14)

    def test_pure_quadratic_cost(self):
        problem = zero_cost_problem()
        problem.running_cost = RunningCost(
            value=lambda t, v, u, law: np.sum(u**2, axis=1)
        )
        problem.dynamics = ControlledDynamics(
            f=lambda t, v, u, law: np.zeros_like(v.y),
            g=lambda t, v, u, law: np.zeros_like(v.Z),
            F=lambda t, v, u, law: np.zeros_like(v.y),
            G=lambda t, v, u, law: np.zeros_like(v.z),
        )
        rng = np.random.default_rng(1)
        m = 6
        v = quad_batch(rng, m, problem.dims)
        chi = quad_batch(rng, m, problem.dims)
        u = rng.uniform(-2, 2, size=(m, 1))
        h = hamiltonian(problem, 0.0, v, u, chi, NodeMoments.of(v.flat()))
        assert np.allclose(h, -np.sum(u**2, axis=1), atol=1e-14)

    def test_lq_hand_expansion(self, lq):
        # H = p (y - my/2) - P (mY/2 - Y + u) + q (z/4 - mz/8)
        #     - Q (mZ/8 - Z/4) - (u^2 + rho y^2)/2, rho = 1/2
        problem, _ = lq
        m = 16
        rng = np.random.default_rng(2)
        v = quad_batch(rng, m, problem.dims)
        chi = quad_batch(rng, m, problem.dims)
        u = rng.uniform(-1, 1, size=(m, 1))
        law = NodeMoments.of(v.flat())
        my, m_big, mz, m_big_z = (
            v.y.mean(), v.Y.mean(), v.z.mean(), v.Z.mean(),
        )
        p, big_p, q, big_q = chi.y[:, 0], chi.Y[:, 0], chi.z[:, 0, 0], chi.Z[:, 0, 0]
        by_hand = (
            p * (v.y[:, 0] - 0.5 * my)
            - big_p * (0.5 * m_big - v.Y[:, 0] + u[:, 0])
            + q * (0.25 * v.z[:, 0, 0] - 0.125 * mz)
            - big_q * (0.125 * m_big_z - 0.25 * v.Z[:, 0, 0])
            - 0.5 * u[:, 0] ** 2
            - 0.25 * v.y[:, 0] ** 2
        )
        h = hamiltonian(problem, 0.4, v, u, chi, law)
        assert np.allclose(h, by_hand, atol=1e-12)

    def test_cost_sign_audit(self, lq):
        # negating the running cost negates exactly its term in H
        problem, _ = lq
        rng = np.random.default_rng(3)
        m = 8
        v = quad_batch(rng, m, problem.dims)
        chi = quad_batch(rng, m, problem.dims)
        u = rng.uniform(-1, 1, size=(m, 1))
        law = NodeMoments.of(v.flat())
        h = hamiltonian(problem, 0.1, v, u, chi, law)
        ell = problem.running_cost.value(0.1, v, u, law)
        base_cost = problem.running_cost
        problem.running_cost = RunningCost.zero()
        try:
            h0 = hamiltonian(problem, 0.1, v, u, chi, law)
        finally:
            problem.running_cost = base_cost
        assert np.allclose(h + ell, h0, atol=1e-14)

    def test_stack_matches_single_entries(self, lq):
        problem, _ = lq
        rng = np.random.default_rng(11)
        m, k = 9, 4
        v = quad_batch(rng, m * k, problem.dims)
        chi = quad_batch(rng, m * k, problem.dims)
        v, chi = (Quad(*(b.reshape(m, k, *b.shape[1:]) for b in q)) for q in (v, chi))
        u = rng.uniform(-1, 1, size=(m, k, 1))
        t = problem.grid.nodes[[3, 0, 7, 7]]
        law = NodeMoments(rng.standard_normal((k, problem.dims.flat)))
        stacked = hamiltonian(problem, t, v, u, chi, law)
        assert stacked.shape == (m, k)
        for i in range(k):
            def entry(q):
                return Quad(*(b[:, i] for b in q))
            single = hamiltonian(problem, float(t[i]), entry(v), u[:, i], entry(chi), law[i])
            np.testing.assert_allclose(stacked[:, i], single, rtol=0, atol=1e-14)

    def test_stack_is_bitwise_the_expanded_sum(self):
        # <p,F> - <P,f> + <q,G> - <Q,g> - cost, term by term, on stacks of
        # the solver's particle-major views and of gathered nodes
        dims = Dimensions(2, d_w=1, d_b=3)
        grid = TimeGrid(1.0, 6)

        def means(law):
            return split_flat_mean(law.mean, dims)

        problem = zero_cost_problem(grid)
        problem.dims = dims
        problem.dynamics = ControlledDynamics(
            f=lambda t, v, u, law: np.sin(v.Y) * u + means(law).y,
            g=lambda t, v, u, law: np.cos(v.Z) - means(law).Z,
            F=lambda t, v, u, law: v.y * v.Y[..., ::-1] - 0.5 * means(law).Y,
            G=lambda t, v, u, law: np.tanh(v.z) * means(law).z,
        )
        problem.running_cost = RunningCost(
            value=lambda t, v, u, law: np.sum(v.y**2, axis=-1) + u[..., 0] ** 2
        )
        rng = np.random.default_rng(14)
        state, adjoint = (EnsembleState.zeros(7, dims, grid) for _ in range(2))
        for arr in (*state.at(slice(None)), *adjoint.at(slice(None))):
            arr += rng.standard_normal(arr.shape)
        laws = state.node_laws()
        dyn = problem.dynamics
        for k in (slice(None), np.array([4, 0, 4, 6])):
            t, v, chi, law = grid.nodes[k], state.at(k), adjoint.at(k), laws[k]
            u = rng.uniform(-1, 1, size=v.y.shape[:-1] + (1,))
            want = (
                np.sum(chi.y * dyn.F(t, v, u, law), axis=-1)
                - np.sum(chi.Y * dyn.f(t, v, u, law), axis=-1)
                + np.sum(chi.z * dyn.G(t, v, u, law), axis=(-2, -1))
                - np.sum(chi.Z * dyn.g(t, v, u, law), axis=(-2, -1))
                - problem.running_cost.value(t, v, u, law)
            )
            assert np.array_equal(hamiltonian(problem, t, v, u, chi, law), want)

    def test_running_cost_shape_checked(self, lq):
        problem, _ = lq
        m, k = 4, 4
        v = Quad(*(np.zeros((m, k, *b.shape[1:])) for b in Quad.zeros(1, problem.dims)))
        law = NodeMoments(np.zeros((k, problem.dims.flat)))
        base_rc = problem.running_cost
        problem.running_cost = RunningCost(value=lambda t, v, u, law: np.ones(v.particles))
        try:
            with pytest.raises(ValueError, match="running cost returned shape"):
                hamiltonian(problem, problem.grid.nodes[:k], v, np.zeros((m, k, 1)), v, law)
        finally:
            problem.running_cost = base_rc

    def test_non_finite_stack_entry_raises(self, lq):
        problem, _ = lq
        rng = np.random.default_rng(12)
        m, k = 5, 3
        v, chi = (Quad(*(rng.standard_normal((m, k, *b.shape[1:]))
                         for b in Quad.zeros(1, problem.dims))) for _ in range(2))
        u = np.zeros((m, k, 1))
        law = NodeMoments(np.zeros((k, problem.dims.flat)))
        t = problem.grid.nodes[:k]
        assert np.all(np.isfinite(hamiltonian(problem, t, v, u, chi, law)))
        v.Y[3, 2, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite Hamiltonian value"):
            hamiltonian(problem, t, v, u, chi, law)


class TestDifferencedMeanGradients:
    """A cost that reads its law and supplies no hook gets its mean gradient
    by differencing."""

    @pytest.mark.parametrize("value", [
        lambda x, law: 0.5 * float(law.mean @ law.mean) * np.ones(x.shape[0]),
        lambda x, law: x @ law.mean,  # its mean derivative E[x] averages the atoms
    ])
    def test_cost_term(self, value):
        x = np.array([[1.0], [3.0]])
        np.testing.assert_allclose(CostTerm(value=value).mean_grad_values(x), [2.0],
                                   rtol=0, atol=1e-8)

    def test_running_cost(self):
        problem = lq_control_scenario(TimeGrid(1.0, 4))
        dims = problem.dims
        problem.running_cost = RunningCost(
            value=lambda t, v, u, law: 0.5 * np.sum(split_flat_mean(law.mean, dims).y ** 2)
            * np.ones(v.y.shape[:-1])
        )
        v = quad_batch(np.random.default_rng(9), 5, dims)
        law = NodeMoments.of(v.flat())
        grad = _running_grad(problem, 0.0, v, np.zeros((5, 1)), law, "my")
        np.testing.assert_allclose(grad, np.broadcast_to(v.y.mean(axis=0), (5, 1)),
                                   rtol=0, atol=1e-8)

    def test_lift_consistency_superlinear_remainder(self):
        # perturbing every atom by eps*h moves the lifted value by
        # eps * <mean gradient, E h> + o(eps)
        def lifted(mean):
            return float(np.cos(mean[0]) + 0.5 * mean[0] ** 2)

        cost = CostTerm(value=lambda x, law: lifted(law.mean) * np.ones(x.shape[0]))
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((64, 1))
        law = NodeMoments.of(samples)
        h = rng.standard_normal((64, 1))
        linear = float(cost.mean_grad_values(samples) @ h.mean(axis=0))
        remainders = []
        for eps in (1e-3, 1e-4):
            moved = NodeMoments.of(samples + eps * h).mean
            remainders.append(abs(lifted(moved) - lifted(law.mean) - eps * linear))
        # shrinking the step 10x shrinks the remainder ~100x (quadratic)
        assert remainders[1] <= 0.05 * remainders[0] + 1e-14


class TestAdjointConstruction:
    def test_hand_checkable_linear_dynamics(self):
        # f = u, F = y, g = G = 0, zero costs: the adjoint drift/noise entries
        # collapse to F_adj = p and everything else zero
        problem = zero_cost_problem()
        grid = problem.grid
        m = 20
        state_rng = np.random.default_rng(6)
        from mvfbdsde.model import EnsembleState

        state = EnsembleState.zeros(m, problem.dims, grid, x=problem.x)
        state.Y[:] = state_rng.standard_normal(state.Y.shape)
        controls = np.zeros((grid.steps + 1, 1))
        system = build_adjoint_coefficients(problem, state, controls)
        chi = quad_batch(state_rng, m, problem.dims)
        law = NodeMoments.of(chi.flat())
        t = float(grid.nodes[3])
        assert np.allclose(system.base.f(t, chi, law), 0.0, atol=1e-9)
        assert np.allclose(system.base.F(t, chi, law), chi.y, atol=1e-9)
        assert np.allclose(system.base.g(t, chi, law), 0.0, atol=1e-9)
        assert np.allclose(system.base.G(t, chi, law), 0.0, atol=1e-9)
        assert np.allclose(system.x, 0.0)
        assert np.allclose(system.xi, 0.0)
        assert np.array_equal(system.base.h(chi.y, law), -problem.c * chi.y)

    def test_law_free_problem_has_no_mean_terms(self):
        problem = zero_cost_problem()
        m = 10
        from mvfbdsde.model import EnsembleState

        state = EnsembleState.zeros(m, problem.dims, problem.grid, x=problem.x)
        controls = np.zeros((problem.grid.steps + 1, 1))
        trajectory = _trajectory(problem, state, controls)
        rng = np.random.default_rng(7)
        chi = quad_batch(rng, m, problem.dims)
        for block in ("my", "mY", "mz", "mZ"):
            grad = _h_gradient(problem, trajectory, chi, block, 2)
            assert np.all(grad == 0.0)

    def test_fd_matches_analytic_jacobians(self, lq):
        problem, drivers = lq
        m = 200
        rep = solve_state(problem, np.zeros((problem.grid.steps + 1, 1)), drivers_subset(drivers, m), REG)
        state = rep.final_state
        controls = np.zeros((problem.grid.steps + 1, 1))
        trajectory = _trajectory(problem, state, controls)
        stripped = ControlledDynamics(
            f=problem.dynamics.f, g=problem.dynamics.g, F=problem.dynamics.F,
            G=problem.dynamics.G, jacobians={},
        )
        fd_problem = ControlProblem(
            dims=problem.dims, d_u=1, grid=problem.grid, x=problem.x, c=problem.c,
            dynamics=stripped, running_cost=problem.running_cost,
            terminal_cost=problem.terminal_cost, initial_cost=problem.initial_cost,
            u_lo=problem.u_lo, u_hi=problem.u_hi,
        )
        rng = np.random.default_rng(8)
        chi = quad_batch(rng, m, problem.dims)
        for block in ("y", "Y", "z", "Z", "u", "my", "mY", "mz", "mZ"):
            ga = _h_gradient(problem, trajectory, chi, block, 5)
            gf = _h_gradient(fd_problem, trajectory, chi, block, 5)
            scale = max(1.0, float(np.max(np.abs(ga))))
            assert np.max(np.abs(ga - gf)) <= 1e-4 * scale, block


def _h_gradient(problem, trajectory, chi, block, k):
    """Per-particle gradient of H in one block at node k: chi (M, ...)
    against the signed Jacobian, minus the running-cost gradient."""
    jac = _signed_jacobian(problem, trajectory, block)
    jac = jac if jac.ndim == 2 else jac[:, k]
    return (np.einsum(_CONTRACT, chi.flat(), jac)
            - _running_grad(problem, *trajectory, block)[:, k])


def _reference_adjoint_maps(problem, state, controls):
    """The per-block adjoint assembly: every call pairs chi with each of the
    four Jacobians of the point block and of the mean block, each taken from
    the declared table or differenced at the called nodes, and differences or
    evaluates the running-cost gradients there again."""
    grid, dims, d_u = state.grid, problem.dims, problem.d_u
    laws = state.node_laws()

    def point(k):
        v = state.at(k)
        return grid.nodes[k], v, np.broadcast_to(controls[k], v.y.shape[:-1] + (d_u,)), laws[k]

    def jacobian(coef, block, k):
        const = problem.dynamics.jacobians.get((coef, block))
        if const is not None:
            return np.asarray(const, dtype=float).reshape(_size(dims, d_u, coef),
                                                          _size(dims, d_u, block))
        fn = getattr(problem.dynamics, coef)
        return _fd_jacobian(fn, *point(k), block, dims, d_u)

    def grad_block(k, chi, block):
        lead = chi.y.shape[:-1]
        p, big_p, q, big_q = (a.reshape(*lead, -1) for a in chi)
        out = np.einsum("...o,...oi->...i", p, jacobian("F", block, k))
        out = out - np.einsum("...o,...oi->...i", big_p, jacobian("f", block, k))
        out = out + np.einsum("...o,...oi->...i", q, jacobian("G", block, k))
        out = out - np.einsum("...o,...oi->...i", big_q, jacobian("g", block, k))
        return out - _running_grad(problem, *point(k), block)

    def drift_or_noise(block_point, block_mean, out_shape):
        def fn(t, chi, law_chi):
            k = np.clip(np.rint(np.asarray(t) / grid.dt).astype(int), 0, grid.steps)
            k = int(k) if k.ndim == 0 else k
            total = (grad_block(k, chi, block_point)
                     + grad_block(k, chi, block_mean).mean(axis=0, keepdims=True))
            return total.reshape(*chi.y.shape[:-1], *out_shape)

        return fn

    return {
        "f": drift_or_noise("Y", "mY", (dims.d,)),
        "g": drift_or_noise("Z", "mZ", (dims.d, dims.d_w)),
        "F": drift_or_noise("y", "my", (dims.d,)),
        "G": drift_or_noise("z", "mz", (dims.d, dims.d_b)),
    }


def _bank_assembly(problem, state, controls):
    """The adjoint maps and the control gradient as they were assembled
    before the signed Jacobians became plain arrays: each (coefficient,
    block) Jacobian cached over the whole trajectory, the signed stack of a
    block concatenated from the cache and sliced per call."""
    dims, d_u, grid = problem.dims, problem.d_u, state.grid
    v = state.at(slice(None))
    trajectory = (grid.nodes, v, np.broadcast_to(controls, v.y.shape[:-1] + (d_u,)),
                  state.node_laws())
    cache = {}

    def get(coef, block):
        if (coef, block) not in cache:
            const = problem.dynamics.jacobians.get((coef, block))
            if const is not None:
                cache[coef, block] = np.asarray(const, dtype=float).reshape(
                    _size(dims, d_u, coef), _size(dims, d_u, block))
            else:
                cache[coef, block] = _fd_jacobian(getattr(problem.dynamics, coef),
                                                  *trajectory, block, dims, d_u)
        return cache[coef, block]

    def signed(block, k):
        if ("signed", block) not in cache:
            parts = [sign * get(coef, block)
                     for coef, sign in (("F", 1.0), ("f", -1.0), ("G", 1.0), ("g", -1.0))]
            lead = () if all(part.ndim == 2 for part in parts) else state.y.shape[:2]
            cache["signed", block] = np.concatenate(
                [np.broadcast_to(part, (*lead, *part.shape[-2:])) for part in parts], axis=-2)
        arr = cache["signed", block]
        return arr if arr.ndim == 2 else arr[:, k]

    def drift_or_noise(block_point, block_mean, out_shape):
        cost = -_running_grad(problem, *trajectory, block_point)
        cost -= _running_grad(problem, *trajectory, block_mean).mean(axis=0)
        jac_mean = signed(block_mean, slice(None))

        def fn(t, chi, law_chi):
            k = _node_index(t, grid)
            flat = chi.flat()
            jac = signed(block_point, k)
            if jac.ndim == 2:
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

    def control_gradient(adjoint):
        out = np.einsum(_CONTRACT, adjoint.at(slice(None)).flat(), signed("u", slice(None)))
        return (out - _running_grad(problem, *trajectory, "u")).mean(axis=0)

    maps = {
        "f": drift_or_noise("Y", "mY", (dims.d,)),
        "g": drift_or_noise("Z", "mZ", (dims.d, dims.d_w)),
        "F": drift_or_noise("y", "my", (dims.d,)),
        "G": drift_or_noise("z", "mz", (dims.d, dims.d_b)),
    }
    return maps, control_gradient


def _hookless_running_cost(dims):
    """A running cost in the point blocks, the control and the mean of y,
    with no gradient hooks: every adjoint cost term is differenced."""
    def value(t, v, u, law):
        my = split_flat_mean(np.asarray(law.mean), dims).y
        return (0.5 * np.sum(u**2, axis=-1) + 0.3 * np.sum(v.y**2, axis=-1)
                + 0.2 * np.sum(v.Y * my, axis=-1) + 0.1 * np.sum(v.z**2, axis=(-2, -1)))

    return RunningCost(value=value)


VARIANTS = ["analytic", "differenced", "hookless_cost"]


def _variant_case(variant):
    """The LQ problem on 9 steps, with its Jacobians stripped (differenced)
    or a hookless running cost, a random state (M = 17) and random controls,
    and a random-state factory for the adjoint argument."""
    problem = lq_control_scenario(TimeGrid(1.0, 9))
    if variant == "differenced":
        dyn = problem.dynamics
        problem.dynamics = ControlledDynamics(f=dyn.f, g=dyn.g, F=dyn.F, G=dyn.G,
                                              jacobians={})
    elif variant == "hookless_cost":
        problem.running_cost = _hookless_running_cost(problem.dims)
    rng = np.random.default_rng(25)

    def random_state():
        state = EnsembleState.zeros(17, problem.dims, problem.grid)
        for arr in (state.y, state.Y, state.z, state.Z):
            arr += rng.standard_normal(arr.shape)
        return state

    state = random_state()
    controls = rng.uniform(-1.0, 1.0, size=(problem.grid.steps + 1, 1))
    return problem, state, controls, random_state


def _map_calls(n):
    """The Picard step's full grid, the residual's left and right stacks and
    one node."""
    return (slice(None), slice(0, n), slice(1, n + 1), 4)


@pytest.mark.parametrize("steps", [1, 20, 57])
def test_node_index_of_the_grid_nodes(steps):
    # the solver's own node array takes the shortcut; a copy is computed
    grid = TimeGrid(0.75 * np.pi, steps)
    assert _node_index(grid.nodes, grid) == _node_index(grid.nodes.copy(), grid)
    assert _node_index(grid.nodes, grid) == slice(0, steps + 1)


class TestStackedAdjointMaps:
    """The adjoint maps built once per system against the per-block assembly."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_maps_match_per_block_assembly(self, variant):
        problem, state, controls, random_state = _variant_case(variant)
        maps = build_adjoint_coefficients(problem, state, controls).base
        reference = _reference_adjoint_maps(problem, state, controls)
        chi = random_state()
        laws = chi.node_laws()
        nodes = problem.grid.nodes
        for k in _map_calls(problem.grid.steps):
            t = nodes[k] if isinstance(k, slice) else float(nodes[k])
            for name in "fgFG":
                got = getattr(maps, name)(t, chi.at(k), laws[k])
                want = reference[name](t, chi.at(k), laws[k])
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13,
                                           err_msg=f"{variant} map {name} at {k}")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bit_identical_to_cached_assembly(self, variant):
        problem, state, controls, random_state = _variant_case(variant)
        maps = build_adjoint_coefficients(problem, state, controls).base
        reference, control_gradient = _bank_assembly(problem, state, controls)
        chi = random_state()
        laws = chi.node_laws()
        nodes = problem.grid.nodes
        for k in _map_calls(problem.grid.steps):
            t = nodes[k] if isinstance(k, slice) else float(nodes[k])
            for name in "fgFG":
                got = getattr(maps, name)(t, chi.at(k), laws[k])
                assert np.array_equal(got, reference[name](t, chi.at(k), laws[k])), \
                    f"{variant} map {name} at {k}"
        assert np.array_equal(mean_control_gradient(problem, state, chi, controls),
                              control_gradient(chi))


def drivers_subset(drivers, m):
    from mvfbdsde.paths import BrownianPair

    return BrownianPair(
        dW=drivers.dW[:m], dB=drivers.dB[:m], grid=drivers.grid, seed=drivers.seed
    )


class TestAdjointSolve:
    def test_zero_cost_zero_adjoint(self):
        problem = zero_cost_problem()
        drivers = sample_driver_pair(problem.grid, 1, 1, 200, seed=30)
        rep = solve_state(problem, np.zeros((problem.grid.steps + 1, 1)), drivers, REG)
        adj = solve_adjoint(
            problem, rep.final_state, np.zeros((problem.grid.steps + 1, 1)),
            drivers, REG,
        )
        adjoint = adj.final_state
        for arr in (adjoint.y, adjoint.Y, adjoint.z, adjoint.Z):
            assert np.max(np.abs(arr)) <= 1e-10

    def test_lq_adjoint_matches_bvp_oracle(self, lq):
        problem, drivers = lq
        oracle = lq_deterministic_oracle(problem)
        rep = solve_state(problem, oracle.u[:, None], drivers, REG, tol=1e-6)
        adj = solve_adjoint(problem, rep.final_state, oracle.u[:, None], drivers,
                            REG, tol=1e-8)
        assert adj.converged
        mean_p = adj.final_state.y[:, :, 0].mean(axis=0)
        mean_big = adj.final_state.Y[:, :, 0].mean(axis=0)
        assert np.max(np.abs(mean_p - oracle.p)) <= 0.02
        assert np.max(np.abs(mean_big - oracle.P)) <= 0.02
        # boundary data hold by construction: p_0 exactly, P_T within solver tol
        big_y0 = rep.final_state.Y[:, 0]
        assert np.allclose(adj.final_state.y[:, 0], -0.5 * big_y0, atol=1e-12)
        assert adj.residuals.terminal <= 1e-3

    def test_cost_scaling_scales_adjoint(self, lq):
        problem, drivers = lq
        u = np.full((problem.grid.steps + 1, 1), 0.2)
        rep = solve_state(problem, u, drivers, REG)
        adj1 = solve_adjoint(problem, rep.final_state, u, drivers, REG, tol=1e-10)
        doubled = lq_control_scenario(problem.grid)
        base_rc = doubled.running_cost
        doubled.running_cost = RunningCost(
            value=lambda t, v, uu, law: 2.0 * base_rc.value(t, v, uu, law),
            grads={k: (lambda fn: (lambda t, v, uu, law: 2.0 * fn(t, v, uu, law)))(fn)
                   for k, fn in base_rc.grads.items()},
            mean_grads={k: (lambda fn: (lambda t, v, uu, law: 2.0 * fn(t, v, uu, law)))(fn)
                        for k, fn in base_rc.mean_grads.items()},
        )
        base_tc = doubled.terminal_cost
        doubled.terminal_cost = CostTerm(
            value=lambda x, law: 2.0 * base_tc.value(x, law),
            grad=lambda x, law: 2.0 * base_tc.grad(x, law),
            mean_grad=lambda law: 2.0 * base_tc.mean_grad(law),
        )
        base_ic = doubled.initial_cost
        doubled.initial_cost = CostTerm(
            value=lambda x, law: 2.0 * base_ic.value(x, law),
            grad=lambda x, law: 2.0 * base_ic.grad(x, law),
            mean_grad=lambda law: 2.0 * base_ic.mean_grad(law),
        )
        rep2 = solve_state(doubled, u, drivers, REG)
        adj2 = solve_adjoint(doubled, rep2.final_state, u, drivers, REG, tol=1e-10)
        assert np.max(np.abs(adj2.final_state.y - 2.0 * adj1.final_state.y)) <= 1e-3
        assert np.max(np.abs(adj2.final_state.Y - 2.0 * adj1.final_state.Y)) <= 1e-3


class TestCost:
    def test_zero_costs(self):
        problem = zero_cost_problem()
        drivers = sample_driver_pair(problem.grid, 1, 1, 100, seed=31)
        est = estimate_cost(problem, np.zeros((problem.grid.steps + 1, 1)), drivers, REG)
        assert est.value == 0.0

    def test_constant_running_cost_gives_horizon(self):
        problem = zero_cost_problem(TimeGrid(0.75, 30))
        problem.running_cost = RunningCost(
            value=lambda t, v, u, law: np.ones(v.y.shape[:-1])
        )
        drivers = sample_driver_pair(problem.grid, 1, 1, 100, seed=32)
        est = estimate_cost(problem, np.zeros((problem.grid.steps + 1, 1)), drivers, REG)
        assert est.value == pytest.approx(0.75, abs=1e-12)
        assert est.stderr <= 1e-12

    def test_running_cost_ignoring_the_stack_is_rejected(self):
        # a cost that returns (M,) on a stack of nodes would otherwise be
        # summed over particles instead of nodes
        problem = zero_cost_problem()
        problem.running_cost = RunningCost(value=lambda t, v, u, law: np.ones(v.particles))
        drivers = sample_driver_pair(problem.grid, 1, 1, 100, seed=32)
        with pytest.raises(ValueError, match="running cost returned shape"):
            estimate_cost(problem, np.zeros((problem.grid.steps + 1, 1)), drivers, REG)

    def test_lq_candidate_cost_matches_oracle(self, lq):
        problem, drivers = lq
        oracle = lq_deterministic_oracle(problem)
        est = estimate_cost(problem, oracle.u[:, None], drivers, REG, tol=1e-6)
        # the ensemble collapses onto the mean path, so the gap is the order-one
        # discretization bias of the Euler state solve, not Monte Carlo noise
        assert abs(est.value - oracle.cost_grid) <= max(3 * est.stderr, 0.01)

    def test_out_of_box_control_names_node(self, lq):
        problem, drivers = lq
        u = np.zeros((problem.grid.steps + 1, 1))
        u[7] = 5.0
        with pytest.raises(ValueError, match="node 7"):
            estimate_cost(problem, u, drivers, REG)

    def test_box_is_checked_before_the_state_solve(self, lq, monkeypatch):
        import mvfbdsde.control as control_module

        def no_solve(*args, **kwargs):
            raise AssertionError("state solved for an inadmissible control")

        monkeypatch.setattr(control_module, "solve_state", no_solve)
        problem, drivers = lq
        u = np.zeros(problem.grid.steps + 1)
        u[-1] = -5.0
        with pytest.raises(ValueError, match=f"node {problem.grid.steps}"):
            estimate_cost(problem, u, drivers, REG)

    def test_first_node_outside_the_box_is_named(self):
        problem = zero_cost_problem()  # box [-2, 2]
        u = np.zeros((problem.grid.steps + 1, 1))
        u[3], u[7] = -2.5, 2.5
        with pytest.raises(ValueError, match="outside the box at node 3$"):
            problem.check_admissible(u)
        # the box is widened by a 1e-9 slack on both sides
        u[3], u[7] = -2.0 - 5e-10, 2.0 + 5e-10
        problem.check_admissible(u)

    def test_nan_control_rejected(self):
        problem = zero_cost_problem()
        u = np.zeros((problem.grid.steps + 1, 1))
        u[4] = np.nan
        with pytest.raises(ValueError, match="outside the box at node 4$"):
            problem.check_admissible(u)

    def test_vector_control_costs_as_its_column(self):
        problem = lq_control_scenario(TimeGrid(1.0, 12))
        drivers = sample_driver_pair(problem.grid, 1, 1, 60, seed=33)
        u = np.linspace(-0.5, 0.5, problem.grid.steps + 1)
        vector = estimate_cost(problem, u, drivers, REG)
        column = estimate_cost(problem, u[:, None], drivers, REG)
        assert np.array_equal(vector.per_particle, column.per_particle)
        assert (vector.value, vector.stderr) == (column.value, column.stderr)

    def test_only_node_arrays_are_controls(self):
        problem = lq_control_scenario(TimeGrid(1.0, 12))
        n = problem.grid.steps
        for bad in (np.zeros(n), np.zeros((n + 1, 2)), np.zeros((n + 1, 1, 1))):
            with pytest.raises(ValueError, match="control shape"):
                problem.resolve_control(bad)
        # a time-callable is not a control: it is read as no array at all
        with pytest.raises(TypeError):
            problem.resolve_control(lambda k, t: np.array([0.1 * np.cos(t)]))


class TestVerifySmp:
    def test_candidate_and_verification_evaluate_no_residual(self, monkeypatch):
        import mvfbdsde.solver as solver_module

        calls = []
        monkeypatch.setattr(solver_module, "residual", lambda *a: calls.append(a))
        problem = lq_control_scenario(TimeGrid(1.0, 10))
        drivers = sample_driver_pair(problem.grid, 1, 1, 100, seed=910)
        cand = first_order_candidate(problem, drivers, REG, tol=1e-6)
        verify_smp(problem, cand, n_perturbations=0, drivers=drivers, reg=REG,
                   tol=1e-6, seed=19)
        assert calls == []

    def test_lq_candidate_passes(self, lq):
        problem, drivers = lq
        cand = first_order_candidate(problem, drivers, REG, iters=6, tol=1e-6)
        report = verify_smp(problem, cand, n_perturbations=8, drivers=drivers,
                            reg=REG, tol=1e-6, seed=17)
        assert report.verdict, report.text()
        assert report.convexity_margin >= -1e-9
        assert report.concavity_margin >= -1e-7
        assert report.max_condition_gap >= -1e-4
        assert min(report.cost_margins) >= 0.0

    def test_suboptimal_control_fails(self, lq):
        problem, drivers = lq
        bad = np.full((problem.grid.steps + 1, 1), 1.5)
        report = verify_smp(problem, bad, n_perturbations=8, drivers=drivers,
                            reg=REG, tol=1e-6, seed=18)
        assert not (report.checks["max_condition"] and report.checks["cost_dominance"])

    def test_out_of_box_candidate_rejected(self, lq):
        problem, drivers = lq
        bad = np.full((problem.grid.steps + 1, 1), 5.0)
        with pytest.raises(ValueError, match="node"):
            verify_smp(problem, bad, n_perturbations=2, drivers=drivers, reg=REG)


def _per_node_verify(problem, candidate, n_perturbations, drivers, reg, tol, seed):
    """verify_smp's concavity margin, maximum-condition gap and cost margins
    with checks (b) and (c) made one node and one point at a time, as before
    they were stacked."""
    rng = np.random.default_rng(seed)
    values = problem.resolve_control(candidate)
    base_cost = estimate_cost(problem, values, drivers, reg, tol)
    state = base_cost.solve_report.final_state
    adjoint = solve_adjoint(problem, state, values, drivers, reg, tol).final_state
    laws = state.node_laws()
    for term in (problem.terminal_cost, problem.initial_cost):
        _convexity_margin(term, problem.dims.d, rng)
    n, m, dims, nodes = problem.grid.steps, state.particles, problem.dims, problem.grid.nodes

    def mean_h(k, v, u, law):
        u_b = np.broadcast_to(u, (m, problem.d_u))
        return float(np.mean(hamiltonian(problem, float(nodes[k]), v, u_b, adjoint.at(k), law)))

    concavity = np.inf
    for _ in range(60):
        k = int(rng.integers(0, n + 1))
        scale = float(rng.choice([0.3, 1.0, 2.0]))
        ends = []
        for _ in range(2):
            v = Quad(*(scale * rng.standard_normal((m, *b.shape[1:]))
                       for b in Quad.zeros(1, dims)))
            u = problem.project(scale * rng.standard_normal(problem.d_u))
            ends.append((v, u, scale * rng.standard_normal(dims.flat)))
        (va, ua, sa), (vb, ub, sb) = ends
        vm = Quad(*(0.5 * (a + b) for a, b in zip(va, vb)))
        gap = mean_h(k, vm, 0.5 * (ua + ub), laws[k].translated(0.5 * (sa + sb))) - 0.5 * (
            mean_h(k, va, ua, laws[k].translated(sa)) + mean_h(k, vb, ub, laws[k].translated(sb)))
        concavity = min(concavity, gap)

    max_gap = np.inf
    grid_pts = _box_grid(problem, 25, rng)
    for k in range(0, n + 1, max(1, n // 12)):
        best = max(mean_h(k, state.at(k), u_test, laws[k]) for u_test in grid_pts)
        max_gap = min(max_gap, mean_h(k, state.at(k), values[k], laws[k]) - best)

    cost_margins = []
    for i in range(n_perturbations):
        if i % 3 == 0:
            amp = rng.uniform(0.05, 0.5, size=problem.d_u)
            freq = rng.uniform(0.5, 3.0)
            phase = rng.uniform(0, 2 * np.pi)
            pert = values + amp[None, :] * np.sin(freq * nodes[:, None] + phase)
        elif i % 3 == 1:
            pert = values + rng.uniform(-0.5, 0.5, size=problem.d_u)[None, :]
        else:
            pert = np.broadcast_to(rng.uniform(problem.u_lo, problem.u_hi),
                                   (n + 1, problem.d_u)).copy()
        est = estimate_cost(problem, problem.project(pert), drivers, reg, tol)
        diff = est.per_particle - base_cost.per_particle
        cost_margins.append(float(diff.mean()) + 3.0 * float(diff.std(ddof=1) / np.sqrt(m)))
    return concavity, max_gap, cost_margins


class TestStackedVerifySmp:
    def test_matches_per_node_checks(self):
        problem = lq_control_scenario(TimeGrid(1.0, 20))
        drivers = sample_driver_pair(problem.grid, 1, 1, 300, seed=41)
        cand = first_order_candidate(problem, drivers, REG, iters=6, tol=1e-6)
        report = verify_smp(problem, cand, n_perturbations=3, drivers=drivers,
                            reg=REG, tol=1e-6, seed=42)
        concavity, max_gap, cost_margins = _per_node_verify(
            problem, cand, 3, drivers, REG, 1e-6, 42)
        assert report.concavity_margin == pytest.approx(concavity, rel=0, abs=1e-12)
        assert report.max_condition_gap == pytest.approx(max_gap, rel=0, abs=1e-12)
        assert report.cost_margins == cost_margins


class TestGradientConsistency:
    def test_zero_direction(self, lq):
        problem, drivers = lq
        u = np.zeros((problem.grid.steps + 1, 1))
        report = gradient_consistency(problem, u, np.zeros((problem.grid.steps + 1, 1)),
                                      drivers=drivers, reg=REG)
        assert report.fd_value == 0.0 and report.adjoint_value == 0.0

    def test_lq_agreement(self, lq):
        problem, drivers = lq
        u = np.full((problem.grid.steps + 1, 1), 0.3)
        rng = np.random.default_rng(3)
        direction = rng.standard_normal((problem.grid.steps + 1, 1))
        report = gradient_consistency(problem, u, direction, drivers=drivers,
                                      reg=REG, tol=1e-6)
        assert report.rel_error <= 0.05

    def test_first_order_optimality_at_candidate(self, lq):
        # at the stationary candidate the adjoint-side derivative is ~0 in
        # every direction: no first-order descent exists
        problem, drivers = lq
        cand = first_order_candidate(problem, drivers, REG, iters=6, tol=1e-6)
        rep = solve_state(problem, cand, drivers, REG, tol=1e-6)
        adj = solve_adjoint(problem, rep.final_state, cand, drivers, REG, tol=1e-8)
        grad = mean_control_gradient(problem, rep.final_state, adj.final_state, cand)
        rng = np.random.default_rng(4)
        n = problem.grid.steps
        dt = problem.grid.dt
        for _ in range(5):
            direction = rng.standard_normal((n + 1, 1))
            dj = -float(np.sum(grad[:n] * direction[:n]) * dt)
            assert dj >= -5e-3 * float(np.max(np.abs(direction)))


def _same_state(a, b) -> bool:
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("y", "Y", "z", "Z"))


def _cold_candidate(problem, drivers, reg, iters=6, tol=1e-6, relax=0.6):
    """The candidate search with every state and adjoint solve started cold:
    the ladder for the state, zero for the adjoint."""
    n = problem.grid.steps
    u = np.broadcast_to(problem.control_box_center(), (n + 1, problem.d_u)).copy()
    for _ in range(iters):
        report = solve_state(problem, u, drivers, reg, tol)
        adj = solve_adjoint(problem, report.final_state, u, drivers, reg, tol)
        grad = mean_control_gradient(problem, report.final_state, adj.final_state, u)
        u_new = problem.project(u + grad)
        u = (1.0 - relax) * u + relax * u_new
    return problem.project(u)


class TestWarmStart:
    @pytest.fixture(scope="class")
    def small(self):
        problem = lq_control_scenario(TimeGrid(1.0, 10))
        drivers = sample_driver_pair(problem.grid, 1, 1, 200, seed=41)
        u = np.full((problem.grid.steps + 1, 1), 0.2)
        cold = solve_state(problem, u, drivers, REG)
        return problem, drivers, u, cold

    @staticmethod
    def _bad_start(problem, value):
        from mvfbdsde.model import EnsembleState

        bad = EnsembleState.zeros(200, problem.dims, problem.grid)
        bad.Y[:] = value
        return bad

    @pytest.mark.parametrize("value", [1e160, np.nan])
    def test_failed_warm_state_falls_back_to_ladder(self, small, value):
        problem, drivers, u, cold = small
        with np.errstate(over="ignore", invalid="ignore"):
            warm = solve_state(problem, u, drivers, REG,
                               warm=self._bad_start(problem, value))
        assert _same_state(warm.final_state, cold.final_state)
        assert warm.alpha_ladder == cold.alpha_ladder
        assert warm.residuals == cold.residuals

    @pytest.mark.parametrize("value", [1e160, np.nan])
    def test_failed_warm_adjoint_falls_back_to_zero_start(self, small, value):
        problem, drivers, u, cold = small
        ref = solve_adjoint(problem, cold.final_state, u, drivers, REG)
        with np.errstate(over="ignore", invalid="ignore"):
            adj = solve_adjoint(problem, cold.final_state, u, drivers, REG,
                                warm=self._bad_start(problem, value))
        assert _same_state(adj.final_state, ref.final_state)
        assert adj.alpha_ladder == ref.alpha_ladder
        assert adj.residuals == ref.residuals

    def test_warm_state_at_the_solution_skips_the_ladder(self, small):
        problem, drivers, u, cold = small
        warm = solve_state(problem, u, drivers, REG, warm=cold.final_state)
        assert warm.converged and warm.iterations == 1
        assert [r.alpha for r in warm.alpha_ladder] == [1.0]
        # one more Picard step from the ladder's limit: within tol of it in
        # the contraction metric, with residuals no larger
        assert d_metric(warm.final_state, cold.final_state) <= 1e-6
        assert warm.residuals.max() <= cold.residuals.max()

    @pytest.mark.parametrize("steps", [20, 50])
    def test_candidate_climbs_ladder_once_and_agrees_with_cold_search(
        self, monkeypatch, steps
    ):
        import mvfbdsde.control as control_module

        problem = lq_control_scenario(TimeGrid(1.0, steps))
        drivers = sample_driver_pair(problem.grid, 1, 1, 1000, seed=42)
        cold = _cold_candidate(problem, drivers, REG)
        states, picard_problems = [], []

        def recording_state(*args, **kwargs):
            states.append(solve_state(*args, **kwargs))
            return states[-1]

        def counting_picard(*args, **kwargs):
            picard_problems.append(args[0].base.name)
            return picard_solve(*args, **kwargs)

        monkeypatch.setattr(control_module, "solve_state", recording_state)
        monkeypatch.setattr(control_module, "picard_solve", counting_picard)
        warm = first_order_candidate(problem, drivers, REG, iters=6, tol=1e-6)
        # one ladder for the first state; the other 5 states are single
        # Picard solves at alpha = 1, and each of the 6 adjoints is one
        # Picard solve from the previous adjoint
        assert len(states) == 6
        assert len(states[0].alpha_ladder) > 1
        for report in states[1:]:
            assert [r.alpha for r in report.alpha_ladder] == [1.0]
        assert picard_problems == [problem.name + "_adjoint"] * 6
        assert warm.shape == cold.shape
        assert np.max(np.abs(warm - cold)) <= 1e-3


def _moments_only(fn, position):
    """``fn``, asserting that its law argument (at ``position``) is a
    NodeMoments and nothing else."""
    def checked(*args):
        assert type(args[position]) is NodeMoments, type(args[position])
        return fn(*args)
    return checked


class TestMapsReceiveNodeMoments:
    """Every coefficient map, terminal map and cost receives its law as a
    NodeMoments, whichever routine calls it."""

    def test_example1_maps(self):
        base = builtin_example_meanfield()
        coeffs = dataclasses.replace(
            base, h=_moments_only(base.h, 1),
            **{name: _moments_only(getattr(base, name), 2) for name in "fgFG"},
        )
        drivers = sample_driver_pair(TimeGrid(1.0, 8), 1, 1, 60, seed=3)
        continuation_solve(coeffs, "case1", 1.0, 0.0, 0.5, drivers, REG, tol=1e-6,
                           x=np.ones(1))
        estimate_lipschitz(coeffs, PairSampler(coeffs.dims, seed=4), 50)
        check_monotonicity(coeffs, 0.25, 0.25, 0.5, "A2", PairSampler(coeffs.dims, seed=5), 50)

    def test_lq_dynamics_and_costs(self):
        problem = lq_control_scenario(TimeGrid(1.0, 8))
        dyn, rc = problem.dynamics, problem.running_cost
        problem.dynamics = dataclasses.replace(
            dyn, **{name: _moments_only(getattr(dyn, name), 3) for name in "fgFG"})
        problem.running_cost = RunningCost(
            value=_moments_only(rc.value, 3),
            grads={k: _moments_only(fn, 3) for k, fn in rc.grads.items()},
            mean_grads={k: _moments_only(fn, 3) for k, fn in rc.mean_grads.items()},
        )
        for name in ("terminal_cost", "initial_cost"):
            term = getattr(problem, name)
            setattr(problem, name, CostTerm(value=_moments_only(term.value, 1),
                                            grad=_moments_only(term.grad, 1),
                                            mean_grad=_moments_only(term.mean_grad, 0)))
        drivers = sample_driver_pair(problem.grid, 1, 1, 60, seed=6)
        control = np.zeros((problem.grid.steps + 1, 1))
        estimate_cost(problem, control, drivers, REG, tol=1e-6)
        verify_smp(problem, control, n_perturbations=2, drivers=drivers, reg=REG,
                   tol=1e-6, seed=7)
