"""Coefficient systems, the continuation family, built-ins, and residuals."""

import numpy as np
import pytest

from mvfbdsde.control import (
    ControlledDynamics,
    build_adjoint_coefficients,
    lq_control_scenario,
    solve_state,
)
from mvfbdsde.measure import EmpiricalLaw
from mvfbdsde.model import (
    CoefficientError,
    CoefficientSet,
    Dimensions,
    EnsembleState,
    HomotopyProblem,
    LinearTables,
    NodeMoments,
    Quad,
    as_problem,
    builtin_counterexample,
    builtin_example_meanfield,
    eval_system,
    linear_coefficient_set,
    pairing,
    residual,
    split_flat_mean,
)
from mvfbdsde.paths import TimeGrid, sample_driver_pair
from mvfbdsde.solver import RegressionConfig, continuation_solve

DIMS = Dimensions(1, 1, 1)


def build_homotopy_case1(base, alpha, theta1, **kwargs):
    """The continuation member damping the backward pair."""
    return HomotopyProblem(base=base, alpha=alpha, case="case1", theta1=theta1, **kwargs)


def build_homotopy_case2(base, alpha, theta2, **kwargs):
    """The continuation member damping the forward pair."""
    return HomotopyProblem(base=base, alpha=alpha, case="case2", theta2=theta2, **kwargs)


def const_quad(m, y=0.0, Y=0.0, z=0.0, Z=0.0):
    v = Quad.zeros(m, DIMS)
    v.y[:] = y
    v.Y[:] = Y
    v.z[:] = z
    v.Z[:] = Z
    return v


def random_quad(rng, m, dims=DIMS, scale=1.0):
    return Quad(
        scale * rng.standard_normal((m, dims.d)),
        scale * rng.standard_normal((m, dims.d)),
        scale * rng.standard_normal((m, dims.d, dims.d_b)),
        scale * rng.standard_normal((m, dims.d, dims.d_w)),
    )


class TestEvalSystem:
    def test_zero_input_zero_output(self):
        model = builtin_example_meanfield(DIMS)
        v = const_quad(4)
        f, g, big_f, big_g = eval_system(model, 0.0, v, NodeMoments.of(v.flat()))
        for arr in (f, g, big_f, big_g):
            assert np.all(arr == 0.0)

    def test_drift_at_constant_backward_value(self):
        # f = E[Y]/2 - Y at Y = 2 deterministic: 1 - 2 = -1
        model = builtin_example_meanfield(DIMS)
        v = const_quad(8, Y=2.0)
        f, _, _, _ = eval_system(model, 0.0, v, NodeMoments.of(v.flat()))
        assert np.allclose(f, -1.0)

    def test_noise_at_constant_value(self):
        # g = E[Z]/4 - Z/2 at Z = 4 deterministic: 1 - 2 = -1
        model = builtin_example_meanfield(DIMS)
        v = const_quad(8, Z=4.0)
        _, g, _, _ = eval_system(model, 0.0, v, NodeMoments.of(v.flat()))
        assert np.allclose(g, -1.0)

    def test_non_finite_named(self):
        bad = linear_coefficient_set(DIMS, LinearTables(f={"Y": 1.0}))
        bad = bad.__class__(**{**bad.__dict__, "f": lambda t, v, law: v.Y / 0.0})
        v = const_quad(2, Y=1.0)
        with pytest.raises(CoefficientError, match="f"):
            with np.errstate(divide="ignore", invalid="ignore"):
                eval_system(bad, 0.0, v, NodeMoments.of(v.flat()))

    def test_law_decoupling(self):
        # frozen law: two laws with equal means give equal outputs
        model = builtin_example_meanfield(DIMS)
        rng = np.random.default_rng(0)
        v = random_quad(rng, 16)
        other = random_quad(rng, 16)
        flat = other.flat()
        law = NodeMoments.of(flat - flat.mean(axis=0) + NodeMoments.of(v.flat()).mean)
        out1 = eval_system(model, 0.0, v, law)
        out2 = eval_system(model, 0.0, v, NodeMoments.of(v.flat()))
        for a, b in zip(out1, out2):
            assert np.allclose(a, b, atol=1e-12)


@pytest.mark.parametrize("dims", [Dimensions(1, 1, 1), Dimensions(2, 3, 2)])
def test_flat_is_the_sum_of_the_block_sizes(dims):
    # y, Y (d each), z (d x d_b) and Z (d x d_w)
    assert dims.flat == 2 * dims.d + dims.d * dims.d_b + dims.d * dims.d_w
    assert dims.flat == sum(np.zeros(shape).size for shape in dims.shapes)
    assert type(dims.flat) is int


def test_moments_of_samples_match_the_empirical_mean():
    # NodeMoments.of is bit for bit the mean of measure's uniform clouds
    rng = np.random.default_rng(12)
    for _ in range(60):
        n, dim = int(rng.integers(1, 4001)), int(rng.integers(1, 14))
        x = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0)
        assert np.array_equal(NodeMoments.of(x).mean, EmpiricalLaw.from_samples(x).mean)


class TestHomotopy:
    def test_case1_alpha0_is_damped_linear(self):
        model = builtin_example_meanfield(DIMS)
        prob = build_homotopy_case1(model, alpha=0.0, theta1=0.7)
        rng = np.random.default_rng(1)
        v = random_quad(rng, 8)
        law = NodeMoments.of(v.flat())
        assert np.allclose(prob.evaluate(0.3, v, law)[2], -0.7 * v.y)
        assert np.allclose(prob.evaluate(0.3, v, law)[3], -0.7 * v.z)
        assert np.allclose(prob.evaluate(0.3, v, law)[0], 0.0)
        assert np.allclose(prob.evaluate(0.3, v, law)[1], 0.0)
        # terminal collapses to the identity
        y_t = rng.standard_normal((8, 1))
        assert np.allclose(prob.terminal(y_t), y_t)

    def test_case1_alpha1_matches_base(self):
        model = builtin_example_meanfield(DIMS)
        prob = build_homotopy_case1(model, alpha=1.0, theta1=0.7)
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = random_quad(rng, 6)
            law = NodeMoments.of(v.flat())
            t = float(rng.uniform(0, 1))
            assert np.allclose(prob.evaluate(t, v, law)[0], model.f(t, v, law))
            assert np.allclose(prob.evaluate(t, v, law)[1], model.g(t, v, law))
            assert np.allclose(prob.evaluate(t, v, law)[2], model.F(t, v, law))
            assert np.allclose(prob.evaluate(t, v, law)[3], model.G(t, v, law))

    def test_case1_half_alpha_scales_drift(self):
        model = builtin_example_meanfield(DIMS)
        prob = build_homotopy_case1(model, alpha=0.5, theta1=0.7)
        rng = np.random.default_rng(3)
        v = random_quad(rng, 4)
        law = NodeMoments.of(v.flat())
        assert np.allclose(prob.evaluate(0.0, v, law)[0], 0.5 * model.f(0.0, v, law))

    def test_case2_alpha0(self):
        model = builtin_example_meanfield(DIMS)
        xi = np.array([0.25])
        prob = build_homotopy_case2(model, alpha=0.0, theta2=0.4, xi=xi)
        rng = np.random.default_rng(4)
        v = random_quad(rng, 8)
        law = NodeMoments.of(v.flat())
        assert np.allclose(prob.evaluate(0.1, v, law)[0], -0.4 * v.Y)
        assert np.allclose(prob.evaluate(0.1, v, law)[1], -0.4 * v.Z)
        assert np.allclose(prob.evaluate(0.1, v, law)[2], 0.0)
        y_t = rng.standard_normal((8, 1))
        # terminal map vanishes at alpha 0, leaving only the shift
        assert np.allclose(prob.terminal(y_t), 0.25)

    def test_case2_alpha1_matches_base(self):
        model = builtin_example_meanfield(DIMS)
        prob = build_homotopy_case2(model, alpha=1.0, theta2=0.4)
        rng = np.random.default_rng(5)
        v = random_quad(rng, 8)
        law = NodeMoments.of(v.flat())
        assert np.allclose(prob.evaluate(0.0, v, law)[0], model.f(0.0, v, law))
        assert np.allclose(prob.evaluate(0.0, v, law)[3], model.G(0.0, v, law))

    def test_alpha_bounds_and_theta_preconditions(self):
        model = builtin_example_meanfield(DIMS)
        with pytest.raises(ValueError):
            build_homotopy_case1(model, alpha=1.5, theta1=1.0)
        with pytest.raises(ValueError):
            build_homotopy_case1(model, alpha=0.5, theta1=0.0)
        with pytest.raises(ValueError):
            build_homotopy_case2(model, alpha=0.5, theta2=0.0)

    def test_affine_interpolation_in_alpha(self):
        # value at alpha is the affine combination of endpoint and damping
        model = builtin_example_meanfield(DIMS)
        rng = np.random.default_rng(6)
        v = random_quad(rng, 8)
        law = NodeMoments.of(v.flat())
        for alpha in (0.0, 0.3, 0.7, 1.0):
            prob = build_homotopy_case1(model, alpha=alpha, theta1=0.9)
            expected = alpha * model.F(0.2, v, law) + (1 - alpha) * 0.9 * (-v.y)
            assert np.allclose(prob.evaluate(0.2, v, law)[2], expected, atol=1e-14)


class TestEvaluateForms:
    """``evaluate`` over a node stack: the checked map outputs themselves at
    alpha = 1, alpha times them plus the case's damping below it."""

    DAMPED = {"case1": "FG", "case2": "fg"}

    def setup_method(self):
        self.model = builtin_example_meanfield(DIMS)
        state = random_state(np.random.default_rng(13), 9, DIMS, TimeGrid(1.0, 4))
        self.args = (state.grid.nodes, state.at(slice(None)), state.node_laws())

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_alpha1_is_the_checked_base(self, case):
        prob = HomotopyProblem(base=self.model, alpha=1.0, case=case, theta1=0.7, theta2=0.4)
        for got, want in zip(prob.evaluate(*self.args), eval_system(self.model, *self.args)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_damping_lands_on_the_case_pair(self, case):
        alpha, theta = 0.6, 0.7
        prob = HomotopyProblem(base=self.model, alpha=alpha, case=case, theta1=theta,
                               theta2=theta)
        v = self.args[1]
        blocks = {"f": v.Y, "g": v.Z, "F": v.y, "G": v.z}
        base = eval_system(self.model, *self.args)
        for name, got, want in zip("fgFG", prob.evaluate(*self.args), base):
            if name not in self.DAMPED[case]:
                assert np.array_equal(got, alpha * want), name
                continue
            block = blocks[name]
            expected = alpha * want + (1 - alpha) * (-theta * block)
            scale = np.max(np.abs(want)) + np.max(np.abs(block))
            assert np.max(np.abs(got - expected)) <= 1e-15 * scale, name
            assert np.max(np.abs(got - alpha * want)) > 0.1 * scale, name


class TestBuiltins:
    def test_terminal_map_values(self):
        # h = -E[y]/2 + y at deterministic y = 2: -1 + 2 = 1
        model = builtin_example_meanfield(DIMS)
        y = np.full((6, 1), 2.0)
        assert np.allclose(model.h(y, NodeMoments.of(y)), 1.0)

    def test_backward_drift_value(self):
        # F = E[y]/2 - y at y = 1 deterministic: -1/2
        model = builtin_example_meanfield(DIMS)
        v = const_quad(6, y=1.0)
        _, _, big_f, _ = eval_system(model, 0.0, v, NodeMoments.of(v.flat()))
        assert np.allclose(big_f, -0.5)

    def test_mismatched_driver_dims_rejected(self):
        with pytest.raises(ValueError):
            builtin_example_meanfield(Dimensions(1, 2, 1))

    def test_counterexample_terminal_identity(self):
        # cos(3 pi / 4) = -sin(3 pi / 4)
        coeffs, horizon, x0, dims = builtin_counterexample()
        assert horizon == pytest.approx(0.75 * np.pi)
        assert np.all(x0 == 0.0)
        y_t = np.full((4, 1), np.sin(horizon))
        h = coeffs.h(y_t, NodeMoments.of(y_t))
        assert np.allclose(h, np.cos(horizon), atol=1e-15)

    def test_first_moment_resampling_invariance(self):
        model = builtin_example_meanfield(DIMS)
        rng = np.random.default_rng(7)
        v = random_quad(rng, 10)
        flat = v.flat()
        # duplicating every atom preserves the mean, so outputs are unchanged
        law = NodeMoments.of(v.flat())
        law_dup = NodeMoments.of(np.vstack([flat, flat]))
        out1 = eval_system(model, 0.0, v, law)
        out2 = eval_system(model, 0.0, v, law_dup)
        for a, b in zip(out1, out2):
            assert np.allclose(a, b, atol=1e-14)

    def test_pairing_estimate_for_deterministic_displacement(self):
        # the coupled functional at a deterministic displacement equals
        # -|dy|^2/2 - |dY|^2/2 - |dz|^2/4 - |dZ|^2/4 exactly
        model = builtin_example_meanfield(DIMS)
        rng = np.random.default_rng(8)
        base = random_quad(rng, 12)
        dy, d_big_y, dz, d_big_z = 0.8, -1.1, 0.6, 0.3
        shifted = Quad(base.y + dy, base.Y + d_big_y, base.z + dz, base.Z + d_big_z)
        a1 = eval_system(model, 0.0, base, NodeMoments.of(base.flat()))
        a2 = eval_system(model, 0.0, shifted, NodeMoments.of(shifted.flat()))
        da = (a1[2] - a2[2], a1[0] - a2[0], a1[3] - a2[3], a1[1] - a2[1])
        dv = Quad(base.y - shifted.y, base.Y - shifted.Y, base.z - shifted.z,
                  base.Z - shifted.Z)
        functional = float(np.mean(pairing(da, dv)))
        expected = -0.5 * dy**2 - 0.5 * d_big_y**2 - 0.25 * dz**2 - 0.25 * d_big_z**2
        assert functional == pytest.approx(expected, abs=1e-12)


class TestResidual:
    def test_zero_state_on_counterexample(self):
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 50)
        drv = sample_driver_pair(grid, 1, 1, 20, seed=1)
        state = EnsembleState.zeros(20, dims, grid)
        res = residual(coeffs, state, drv)
        assert res.forward == 0.0 and res.backward == 0.0 and res.terminal == 0.0

    def test_injected_sinusoid_small_residual(self):
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 300)
        drv = sample_driver_pair(grid, 1, 1, 100, seed=2)
        state = EnsembleState.zeros(100, dims, grid)
        state.y[:, :, 0] = np.sin(grid.nodes)[None, :]
        state.Y[:, :, 0] = np.cos(grid.nodes)[None, :]
        res = residual(coeffs, state, drv)
        assert res.forward <= 0.05 and res.backward <= 0.05
        assert res.terminal <= 1e-12

    def test_exact_euler_trajectory_zero_residual(self):
        # rebuild a path by the discretization's own recursion; the one-step
        # defects must vanish to round-off
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 40)
        m = 30
        drv = sample_driver_pair(grid, 1, 1, m, seed=9)
        rng = np.random.default_rng(2)
        state = EnsembleState.zeros(m, dims, grid)
        state.z[:] = rng.standard_normal(state.z.shape)
        state.Z[:] = rng.standard_normal(state.Z.shape)
        state.Y[:, 0] = rng.standard_normal((m, 1))
        dt = grid.dt
        for k in range(grid.steps):
            m_y = state.y[:, k].mean(axis=0)
            m_big = state.Y[:, k].mean(axis=0)
            state.y[:, k + 1] = (
                state.y[:, k] + m_big[None, :] * dt
                - state.z[:, k + 1, :, 0] * drv.dB[:, k]
            )
            state.Y[:, k + 1] = (
                state.Y[:, k] - m_y[None, :] * dt
                - state.z[:, k + 1, :, 0] * drv.dB[:, k]
                + state.Z[:, k, :, 0] * drv.dW[:, k]
            )
        res = residual(coeffs, state, drv)
        assert res.forward <= 1e-13
        assert res.backward <= 1e-13

    def test_shape_mismatch(self):
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 10)
        drv = sample_driver_pair(grid, 1, 1, 4, seed=3)
        state = EnsembleState.zeros(5, dims, grid)
        with pytest.raises(ValueError):
            residual(coeffs, state, drv)


class TestLinearTables:
    def test_source_validation(self):
        with pytest.raises(ValueError):
            LinearTables(f={"z": 1.0})
        with pytest.raises(ValueError):
            LinearTables(g={"y": 1.0})
        with pytest.raises(ValueError):
            LinearTables(h={"Y": 1.0})

    def test_counterexample_expressible_as_table(self):
        coeffs, _, _, dims = builtin_counterexample()
        manual = linear_coefficient_set(
            dims,
            LinearTables(f={"mY": 1.0}, F={"my": -1.0}, G={"z": -1.0}, h={"my": -1.0}),
        )
        rng = np.random.default_rng(10)
        v = random_quad(rng, 8)
        law = NodeMoments.of(v.flat())
        for got, want in zip(
            eval_system(manual, 0.0, v, law), eval_system(coeffs, 0.0, v, law)
        ):
            assert np.allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("tables", [
        LinearTables(
            f={"mY": -0.4, "y": 0.3, "my": 0.7, "Y": -1.2},
            F={"Y": 0.6, "y": -0.9, "mY": 0.25, "my": -0.1},
            g={"Z": -0.5, "mZ": 0.125},
            G={"mz": 0.25, "z": -0.75},
        ),
        LinearTables(),
        LinearTables(f={"mY": 1.0}, F={"my": -1.0}, g={"mZ": 0.5}, G={"mz": 0.25}),
    ], ids=["every_key", "empty", "mean_only"])
    def test_bitwise_the_per_block_closures(self, tables):
        dims = Dimensions(2, d_w=1, d_b=3)
        maps = linear_coefficient_set(dims, tables)
        reference = _per_block_table_maps(dims, tables)
        state = random_state(np.random.default_rng(11), 13, dims, TimeGrid(1.0, 5))
        laws = state.node_laws()
        nodes = state.grid.nodes
        for k in (2, slice(None)):
            t = nodes[k] if isinstance(k, slice) else float(nodes[k])
            for name in "fgFG":
                got = getattr(maps, name)(t, state.at(k), laws[k])
                want = reference[name](t, state.at(k), laws[k])
                assert got.shape == want.shape
                assert np.array_equal(got, want), f"map {name} at {k}"


def _per_block_table_maps(dims, tables):
    """The drift and noise closures linear_coefficient_set used to build,
    one per block kind, with the law's mean blocks split once per call."""

    def mean_blocks(law):
        return split_flat_mean(law.mean, dims)

    def drift(table):
        def fn(t, v, law):
            out = np.zeros_like(v.y)
            if not table:
                return out
            mb = mean_blocks(law) if any(k.startswith("m") for k in table) else None
            for key, coef in table.items():
                if key == "y":
                    out += coef * v.y
                elif key == "Y":
                    out += coef * v.Y
                elif key == "my":
                    out += coef * mb.y
                elif key == "mY":
                    out += coef * mb.Y
            return out

        return fn

    def noise(table, which):
        def fn(t, v, law):
            block = v.z if which == "z" else v.Z
            out = np.zeros_like(block)
            if not table:
                return out
            mb = mean_blocks(law) if any(k.startswith("m") for k in table) else None
            for key, coef in table.items():
                if key in ("z", "Z"):
                    out += coef * block
                elif key == "mz":
                    out += coef * mb.z
                elif key == "mZ":
                    out += coef * mb.Z
            return out

        return fn

    return {"f": drift(tables.f), "g": noise(tables.g, "Z"),
            "F": drift(tables.F), "G": noise(tables.G, "z")}


def random_state(rng, m, dims, grid, scale=1.0):
    state = EnsembleState.zeros(m, dims, grid)
    for arr in (state.y, state.Y, state.z, state.Z):
        arr += scale * rng.standard_normal(arr.shape)
    return state


def assert_stack_matches_nodes(problem, state, atol=1e-14):
    """Each map evaluated once over all nodes, against the node moments,
    equals its node-by-node values under each node's empirical law."""
    every = slice(None)
    nodes = state.grid.nodes
    laws = state.node_laws()
    for i, name in enumerate("fgFG"):
        stacked = problem.evaluate(nodes, state.at(every), laws)[i]
        for k, t in enumerate(nodes):
            vk = state.at(k)
            single = problem.evaluate(float(t), vk, NodeMoments.of(vk.flat()))[i]
            np.testing.assert_allclose(
                stacked[:, k], np.broadcast_to(single, stacked[:, k].shape),
                rtol=0, atol=atol, err_msg=f"map {name} at node {k}",
            )


class TestNodeStacks:
    """Every shipped map evaluates a stack of nodes as it does each node."""

    def test_node_moments_match_empirical_means(self):
        dims = Dimensions(2, d_w=2, d_b=3)
        grid = TimeGrid(1.0, 6)
        state = random_state(np.random.default_rng(20), 37, dims, grid, scale=2.0)
        laws = state.node_laws()
        assert laws.mean.shape == (grid.steps + 1, dims.flat)
        for k in range(grid.steps + 1):
            want = NodeMoments.of(state.at(k).flat()).mean
            np.testing.assert_allclose(laws[k].mean, want, rtol=0, atol=1e-15)
            np.testing.assert_allclose(laws.mean[k], want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("which", ["example1", "counterexample", "custom"])
    def test_builtin_and_table_models(self, which):
        if which == "example1":
            dims = Dimensions(2, 2, 2)
            coeffs = builtin_example_meanfield(dims)
        elif which == "counterexample":
            coeffs, _, _, dims = builtin_counterexample()
        else:
            dims = Dimensions(2, d_w=1, d_b=2)
            coeffs = linear_coefficient_set(dims, LinearTables(
                f={"y": 0.3, "Y": -1.2, "my": 0.7, "mY": -0.4},
                F={"y": -0.9, "mY": 0.25},
                g={"Z": -0.5, "mZ": 0.125},
                G={"z": 0.75, "mz": -0.3},
                h={"y": 1.0, "my": 0.5},
            ))
        state = random_state(np.random.default_rng(21), 23, dims, TimeGrid(1.0, 7))
        assert_stack_matches_nodes(as_problem(coeffs), state)

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_homotopy_damping(self, case):
        # alpha strictly inside (0, 1), so both the base maps and the case's
        # damping terms are on the stack
        dims = Dimensions(1, 1, 1)
        grid = TimeGrid(1.0, 7)
        problem = HomotopyProblem(
            base=builtin_example_meanfield(dims), alpha=0.6, case=case,
            theta1=0.3, theta2=0.4,
        )
        state = random_state(np.random.default_rng(22), 19, dims, grid)
        assert_stack_matches_nodes(problem, state)

    @pytest.mark.parametrize("kind", ["array", "vector"])
    def test_lq_controls(self, kind):
        problem = lq_control_scenario(TimeGrid(1.0, 9))
        values = np.linspace(-1.0, 1.5, problem.grid.steps + 1)
        if kind == "array":
            control = values[:, None]
        else:
            # the one-input (N+1,) form resolves to the same column
            control = problem.resolve_control(values)
            assert np.array_equal(control, values[:, None])
        state = random_state(np.random.default_rng(23), 17, problem.dims, problem.grid)
        assert_stack_matches_nodes(as_problem(problem.coefficients_for(control)), state)

    @pytest.mark.parametrize("jacobians", ["analytic", "differenced"])
    def test_lq_adjoint(self, jacobians):
        problem = lq_control_scenario(TimeGrid(1.0, 9))
        if jacobians == "differenced":
            dyn = problem.dynamics
            problem.dynamics = ControlledDynamics(f=dyn.f, g=dyn.g, F=dyn.F, G=dyn.G)
        rng = np.random.default_rng(24)
        state = random_state(rng, 17, problem.dims, problem.grid)
        controls = rng.uniform(-1.0, 1.0, size=(problem.grid.steps + 1, 1))
        system = build_adjoint_coefficients(problem, state, controls)
        chi = random_state(rng, 17, problem.dims, problem.grid)
        assert_stack_matches_nodes(as_problem(system.base), chi, atol=1e-12)

    def test_coefficient_maps_must_be_callable(self):
        base = builtin_example_meanfield(DIMS)
        with pytest.raises(TypeError, match="coefficient G"):
            CoefficientSet(dims=DIMS, f=base.f, g=base.g, F=base.F, G=None, h=base.h)


def _reference_residual(problem, state, drivers):
    """The per-node residual the stacked one replaced: each node's maps under
    that node's empirical law."""
    grid = state.grid
    dt, nodes, n = grid.dt, grid.nodes, grid.steps
    fwd = bwd = 0.0
    laws = [NodeMoments.of(state.at(k).flat()) for k in range(n + 1)]
    for k in range(n):
        vk, vk1 = state.at(k), state.at(k + 1)
        f_k = problem.evaluate(nodes[k], vk, laws[k])[0]
        g_k = problem.evaluate(nodes[k], vk, laws[k])[1]
        big_f = problem.evaluate(nodes[k], vk, laws[k])[2]
        big_g = problem.evaluate(nodes[k + 1], vk1, laws[k + 1])[3]
        dw, db = drivers.dW[:, k], drivers.dB[:, k]
        fdef = (state.y[:, k + 1] - state.y[:, k] - f_k * dt
                - np.einsum("mij,mj->mi", g_k, dw)
                + np.einsum("mij,mj->mi", state.z[:, k + 1], db))
        bdef = (state.Y[:, k + 1] - state.Y[:, k] - big_f * dt
                - np.einsum("mij,mj->mi", big_g, db)
                - np.einsum("mij,mj->mi", state.Z[:, k], dw))
        fwd = max(fwd, float(np.sqrt(np.mean(np.sum(fdef**2, axis=1)))))
        bwd = max(bwd, float(np.sqrt(np.mean(np.sum(bdef**2, axis=1)))))
    y_t = state.y[:, n]
    tdef = state.Y[:, n] - problem.terminal(y_t)
    return fwd, bwd, float(np.sqrt(np.mean(np.sum(tdef**2, axis=1))))


class TestResidualAgainstPerNode:
    def test_example1_ladder_state(self):
        grid = TimeGrid(1.0, 20)
        drivers = sample_driver_pair(grid, 1, 1, 300, seed=25)
        model = builtin_example_meanfield(DIMS)
        report = continuation_solve(model, "case1", 0.25, 0.25, 0.5, drivers,
                                    RegressionConfig(), x=np.array([1.0]))
        problem = HomotopyProblem(base=model, alpha=1.0, case="case1", theta1=0.25,
                                  x=np.array([1.0]))
        got = residual(problem, report.final_state, drivers)
        want = _reference_residual(problem, report.final_state, drivers)
        assert got.max() > 0.0
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_lq_state(self):
        problem = lq_control_scenario(TimeGrid(1.0, 12))
        drivers = sample_driver_pair(problem.grid, 1, 1, 200, seed=26)
        control = np.full((problem.grid.steps + 1, 1), 0.4)
        solved = solve_state(problem, control, drivers, RegressionConfig()).final_state
        rng = np.random.default_rng(27)
        # a perturbed copy keeps every defect well away from zero
        perturbed = EnsembleState(
            *(a + 0.1 * rng.standard_normal(a.shape)
              for a in (solved.y, solved.Y, solved.z, solved.Z)),
            grid=solved.grid,
        )
        target = as_problem(problem.coefficients_for(control), x=problem.x)
        for state in (solved, perturbed):
            got = residual(target, state, drivers)
            want = _reference_residual(target, state, drivers)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
