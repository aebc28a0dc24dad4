"""Decoupled step, linear base solve, Picard iteration, continuation ladder,
the deterministic oracle, and nonuniqueness probing."""

import dataclasses

import numpy as np
import pytest

from mvfbdsde import control, solver
from mvfbdsde.model import (
    CoefficientError,
    Dimensions,
    EnsembleState,
    HomotopyProblem,
    NodeMoments,
    Quad,
    builtin_counterexample,
    builtin_example_meanfield,
    residual,
    zero_coefficient_set,
)
from mvfbdsde.paths import BrownianPair, TimeGrid, sample_driver_pair
from mvfbdsde.solver import (
    RegressionConfig,
    SolveReport,
    SolverError,
    _backward_phase,
    _cross_gram,
    _forward_phase,
    _moments,
    _node_features,
    _terminal_residual,
    continuation_solve,
    d_metric,
    detect_nonuniqueness,
    ladder_rows,
    linear_base_solve,
    moment_ode_oracle,
    picard_solve,
    solve_decoupled_step,
    trajectory_rows,
    write_csv,
)

DIMS = Dimensions(1, 1, 1)
REG = RegressionConfig()


def sinusoid_state(grid, m, dims, noise=0.0, seed=0):
    state = EnsembleState.zeros(m, dims, grid)
    state.y[:, :, 0] = np.sin(grid.nodes)[None, :]
    state.Y[:, :, 0] = np.cos(grid.nodes)[None, :]
    if noise:
        rng = np.random.default_rng(seed)
        state.y += noise * rng.standard_normal(state.y.shape)
        state.Y += noise * rng.standard_normal(state.Y.shape)
    return state


class TestRegressionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionConfig(basis="cubic")
        with pytest.raises(ValueError):
            RegressionConfig(ridge=-1.0)

    def test_feature_shapes(self):
        y = np.zeros((10, 2))
        btail = np.zeros((10, 3))
        assert RegressionConfig("constant").features(y, btail).shape == (10, 1)
        assert RegressionConfig("affine_y").features(y, btail).shape == (10, 3)
        # 1 + d + d(d+1)/2 + d_b = 1 + 2 + 3 + 3
        assert RegressionConfig("poly2_y_plus_Btail").features(y, btail).shape == (10, 9)


# ----------------------------------------------------------------------------
# Per-node reference sweeps: one regression per node and per target, Euler
# loops for y.  The solver's node-batched sweeps must agree with them.
# ----------------------------------------------------------------------------


def _reference_fit(features, targets, ridge, node):
    gram = features.T @ features
    rhs = features.T @ targets
    lam = max(ridge, 0.0)
    eye = np.eye(gram.shape[0])
    for _ in range(4):
        try:
            beta = np.linalg.solve(gram + lam * eye, rhs)
        except np.linalg.LinAlgError:
            beta = None
        if beta is not None and np.all(np.isfinite(beta)):
            return features @ beta
        lam = max(lam * 10.0, 1e-10)
    raise SolverError(f"regression matrix singular at node {node}")


def _reference_forward(drifts, noises, drivers, x0, reg, btail, max_sweeps=5):
    m, n, _ = drivers.dW.shape
    d = x0.shape[1]
    d_b = drivers.dB.shape[2]
    dt = drivers.grid.dt
    z_nodes = np.zeros((m, n + 1, d, d_b))
    y = np.zeros((m, n + 1, d))

    def propagate():
        y[:, 0] = x0
        for k in range(n):
            y[:, k + 1] = (
                y[:, k]
                + drifts[:, k] * dt
                + np.einsum("mij,mj->mi", noises[:, k], drivers.dW[:, k])
                - np.einsum("mij,mj->mi", z_nodes[:, k + 1], drivers.dB[:, k])
            )

    for _ in range(max_sweeps):
        propagate()
        z_new = np.zeros_like(z_nodes)
        for k in range(n):
            mart = y[:, k + 1] - y[:, k] - drifts[:, k] * dt
            target = (mart[:, :, None] * drivers.dB[:, k][:, None, :]).reshape(m, -1)
            phi = reg.features(y[:, k], btail[:, k])
            fitted = _reference_fit(phi, target, reg.ridge, k)
            z_new[:, k + 1] = -fitted.reshape(m, d, d_b) / dt
        z_new[:, 0] = z_new[:, 1]
        change = float(np.sqrt(np.mean((z_new - z_nodes) ** 2)))
        scale = float(np.sqrt(np.mean(z_new**2)))
        z_nodes = z_new
        if change <= 1e-10 + 1e-3 * scale:
            break
    propagate()
    return y, z_nodes


def _reference_backward(terminal, drifts, noises_b, drivers, y_path, reg, btail):
    m, n, d_w = drivers.dW.shape
    d = terminal.shape[1]
    dt = drivers.grid.dt
    big_y = np.zeros((m, n + 1, d))
    big_z = np.zeros((m, n + 1, d, d_w))
    big_y[:, n] = terminal
    for k in range(n - 1, -1, -1):
        phi = reg.features(y_path[:, k], btail[:, k])
        stacked = np.concatenate([big_y[:, k + 1], drifts[:, k] * dt], axis=1)
        fitted = _reference_fit(phi, stacked, reg.ridge, k)
        fit_y_next, fit_drift = fitted[:, :d], fitted[:, d:]
        big_y[:, k] = (
            fit_y_next
            - fit_drift
            - np.einsum("mij,mj->mi", noises_b[:, k + 1], drivers.dB[:, k])
        )
        centered = big_y[:, k + 1] - fit_y_next
        target = (centered[:, :, None] * drivers.dW[:, k][:, None, :]).reshape(m, -1)
        big_z[:, k] = _reference_fit(phi, target, reg.ridge, k).reshape(m, d, d_w) / dt
    big_z[:, n] = big_z[:, n - 1]
    return big_y, big_z


def _sweep_inputs(d, d_w, d_b, m=300, n=12, seed=3):
    """Random coefficient arrays; every particle starts at the same x, so
    the node-0 features are collinear and only the ridge makes the affine
    Gram invertible."""
    grid = TimeGrid(1.0, n)
    drivers = sample_driver_pair(grid, d_w, d_b, m, seed=seed)
    rng = np.random.default_rng(seed)
    drifts = rng.standard_normal((m, n + 1, d))
    noises = 0.5 * rng.standard_normal((m, n + 1, d, d_w))
    fb = rng.standard_normal((m, n + 1, d))
    noises_b = 0.5 * rng.standard_normal((m, n + 1, d, d_b))
    x0 = np.tile(np.linspace(1.0, -0.5, d), (m, 1))
    return drivers, drifts, noises, fb, noises_b, x0


class TestSweepsAgainstReference:
    @pytest.mark.parametrize(
        "basis, d", [("constant", 1), ("affine_y", 1), ("poly2_y_plus_Btail", 2)]
    )
    def test_phases_match_per_node_reference(self, basis, d):
        drivers, drifts, noises, fb, noises_b, x0 = _sweep_inputs(d, 2, 1)
        reg = RegressionConfig(basis)
        btail = drivers.b_tail
        y, z = _forward_phase(drifts, noises, drivers, x0, reg, btail)
        y_ref, z_ref = _reference_forward(drifts, noises, drivers, x0, reg, btail)
        assert np.max(np.abs(y - y_ref)) <= 1e-10
        assert np.max(np.abs(z - z_ref)) <= 1e-10
        assert np.max(np.abs(z)) > 0.0
        terminal = np.sin(y_ref[:, -1])
        big_y, big_z = _backward_phase(terminal, fb, noises_b, drivers, y_ref, reg, btail)
        ref_y, ref_z = _reference_backward(
            terminal, fb, noises_b, drivers, y_ref, reg, btail
        )
        # node 0 included: y_0 = x for every particle
        assert np.all(y_ref[:, 0] == x0)
        assert np.max(np.abs(big_y - ref_y)) <= 1e-10
        assert np.max(np.abs(big_z - ref_z)) <= 1e-10

    def test_unridged_singular_node_escalates_like_reference(self):
        # ridge 0: the node-0 affine Gram is exactly singular, so the node
        # retries with an escalated ridge
        drivers, drifts, noises, fb, noises_b, x0 = _sweep_inputs(1, 1, 1)
        reg = RegressionConfig("affine_y", ridge=0.0)
        btail = drivers.b_tail
        y_ref, _ = _reference_forward(drifts, noises, drivers, x0, reg, btail)
        big_y, big_z = _backward_phase(y_ref[:, -1], fb, noises_b, drivers, y_ref, reg, btail)
        ref_y, ref_z = _reference_backward(
            y_ref[:, -1], fb, noises_b, drivers, y_ref, reg, btail
        )
        assert np.max(np.abs(big_y - ref_y)) <= 1e-10
        assert np.max(np.abs(big_z - ref_z)) <= 1e-10

    def test_nonfinite_features_name_the_node(self):
        drivers, drifts, noises, fb, noises_b, x0 = _sweep_inputs(2, 1, 1)
        reg = RegressionConfig("poly2_y_plus_Btail")
        btail = drivers.b_tail
        y_ref, _ = _reference_forward(drifts, noises, drivers, x0, reg, btail)
        bad_tail = btail.copy()
        bad_tail[:, 7] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(SolverError, match="singular at node 7$"):
                _forward_phase(drifts, noises, drivers, x0, reg, bad_tail)
            with pytest.raises(SolverError, match="singular at node 7$"):
                _reference_forward(drifts, noises, drivers, x0, reg, bad_tail)
            bad_path = y_ref.copy()
            bad_path[:, 4] = np.nan
            with pytest.raises(SolverError, match="singular at node 4$"):
                _backward_phase(y_ref[:, -1], fb, noises_b, drivers, bad_path, reg, btail)
            with pytest.raises(SolverError, match="singular at node 4$"):
                _reference_backward(
                    y_ref[:, -1], fb, noises_b, drivers, bad_path, reg, btail
                )


class TestBackwardRecursion:
    """The coefficient recursion of ``_backward_phase`` against the per-node
    sweep: strong backward noise, a nonlinear terminal, failing nodes."""

    @pytest.mark.parametrize("basis", ["constant", "affine_y", "poly2_y_plus_Btail"])
    def test_noisy_input_matches_reference(self, basis):
        drivers, drifts, noises, fb, noises_b, x0 = _sweep_inputs(2, 2, 1)
        noises_b *= 4.0  # scale 2
        reg = RegressionConfig(basis)
        btail = drivers.b_tail
        y_ref, _ = _reference_forward(drifts, noises, drivers, x0, reg, btail)
        terminal = np.sin(3.0 * y_ref[:, -1]) + y_ref[:, -1] ** 2
        big_y, big_z = _backward_phase(terminal, fb, noises_b, drivers, y_ref, reg, btail)
        ref_y, ref_z = _reference_backward(
            terminal, fb, noises_b, drivers, y_ref, reg, btail
        )
        assert np.max(np.abs(big_y - ref_y)) <= 1e-10
        assert np.max(np.abs(big_z - ref_z)) <= 1e-10
        assert np.max(np.abs(big_z)) > 0.0

    @pytest.mark.parametrize("backward", [_backward_phase, _reference_backward])
    def test_nonfinite_terminal_names_last_node(self, backward):
        drivers, drifts, noises, fb, noises_b, x0 = _sweep_inputs(1, 1, 1)
        btail = drivers.b_tail
        y_ref, _ = _reference_forward(drifts, noises, drivers, x0, REG, btail)
        terminal = y_ref[:, -1].copy()
        terminal[5] = np.inf
        n = drivers.grid.steps
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(SolverError, match=f"singular at node {n - 1}$"):
                backward(terminal, fb, noises_b, drivers, y_ref, REG, btail)

    @pytest.mark.parametrize("backward", [_backward_phase, _reference_backward])
    def test_first_failing_node_in_descending_order(self, backward):
        drivers, drifts, noises, fb, noises_b, x0 = _sweep_inputs(2, 1, 1)
        reg = RegressionConfig("poly2_y_plus_Btail")
        btail = drivers.b_tail
        y_ref, _ = _reference_forward(drifts, noises, drivers, x0, reg, btail)
        bad_path = y_ref.copy()
        bad_path[:, 3] = np.nan
        bad_path[:, 8] = np.nan
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(SolverError, match="singular at node 8$"):
                backward(y_ref[:, -1], fb, noises_b, drivers, bad_path, reg, btail)


class TestForwardSweeps:
    """The z sweeps after the first, which no benchmark workload reaches: on
    random coefficients z never settles, so every sweep runs."""

    def test_every_sweep_keeps_the_euler_step(self, monkeypatch):
        drivers, drifts, noises, _, _, x0 = _sweep_inputs(2, 2, 1)
        fits = []
        fit = solver._ridge_fit
        monkeypatch.setattr(
            solver, "_ridge_fit", lambda *a, **k: fits.append(1) or fit(*a, **k)
        )
        y, z = _forward_phase(drifts, noises, drivers, x0, REG, None)
        assert len(fits) == 5  # one z regression per sweep, FORWARD_SWEEPS of them
        # y_{k+1} - y_k = f_k dt + g_k dW_k - z_{k+1} dB_k at every node
        drift = drifts[:, :-1] * drivers.grid.dt
        gdw = np.einsum("mkij,mkj->mki", noises[:, :-1], drivers.dW)
        zdb = np.einsum("mkij,mkj->mki", z[:, 1:], drivers.dB)
        scale = np.max(np.abs(drift) + np.abs(gdw) + np.abs(zdb))
        assert np.max(np.abs(np.diff(y, axis=1) - (drift + gdw - zdb))) <= 1e-12 * scale
        assert np.max(np.abs(zdb)) > 0.0
        assert np.array_equal(y[:, 0], x0)


class TestSweepsLeaveInputsAlone:
    """At alpha = 1 ``evaluate`` hands the maps' own outputs to the sweeps,
    which may be arrays of the frozen state or read-only broadcasts."""

    def test_frozen_state_is_unchanged(self):
        grid = TimeGrid(1.0, 12)
        drivers = sample_driver_pair(grid, 1, 1, 60, seed=21)
        rng = np.random.default_rng(21)
        frozen = EnsembleState.zeros(60, DIMS, grid)
        for arr in (frozen.y, frozen.Y, frozen.z, frozen.Z):
            arr += rng.standard_normal(arr.shape)
        before = frozen.copy()
        base = dataclasses.replace(
            zero_coefficient_set(DIMS),
            f=lambda t, v, law: v.y,
            G=lambda t, v, law: np.broadcast_to(0.25, v.z.shape),
        )
        v, laws = frozen.at(slice(None)), frozen.node_laws()
        for alpha in (1.0, 0.6):
            prob = HomotopyProblem(base=base, alpha=alpha, case="case1", theta1=1.0,
                                   x=np.array([0.5]))
            f, _, _, big_g = prob.evaluate(grid.nodes, v, laws)
            # alpha = 1 passes the frozen y and the broadcast through
            assert np.shares_memory(f, frozen.y) == (alpha == 1.0)
            assert big_g.flags.writeable == (alpha != 1.0)
            out = solve_decoupled_step(prob, frozen, drivers, REG)
            assert np.max(np.abs(out.y)) > 0.5
            for got, want in zip((frozen.y, frozen.Y, frozen.z, frozen.Z),
                                 (before.y, before.Y, before.z, before.Z)):
                assert np.array_equal(got, want)

    def test_phases_run_on_read_only_inputs(self):
        drivers, drifts, noises, fb, noises_b, x0 = _sweep_inputs(2, 2, 1)
        reg = RegressionConfig("poly2_y_plus_Btail")
        btail = drivers.b_tail
        y, z = _forward_phase(drifts, noises, drivers, x0, reg, btail)
        terminal = np.sin(y[:, -1])
        big_y, big_z = _backward_phase(terminal, fb, noises_b, drivers, y, reg, btail)
        y_path = y.copy()
        for arr in (drifts, noises, fb, noises_b, x0, terminal, y_path):
            arr.flags.writeable = False
        read_only = BrownianPair(drivers.dW[...], drivers.dB[...], drivers.grid,
                                 drivers.seed)
        read_only.dW.flags.writeable = read_only.dB.flags.writeable = False
        got_y, got_z = _forward_phase(drifts, noises, read_only, x0, reg, btail)
        got_big_y, got_big_z = _backward_phase(
            terminal, fb, noises_b, read_only, y_path, reg, btail
        )
        for got, want in ((got_y, y), (got_z, z), (got_big_y, big_y), (got_big_z, big_z)):
            assert np.array_equal(got, want)


# ----------------------------------------------------------------------------
# Normal equations: the sweeps form every Gram, cross-Gram and right-hand side
# from the closed form of the ones column and products of the other columns.
# ----------------------------------------------------------------------------


def _assert_products(got, a, b):
    """``got`` is a_k' b_k per node, to 1e-12 of |a_k|' |b_k| (the scale of
    a dot product's rounding, so that a sum near zero is not held to a
    relative bound it cannot meet)."""
    want = np.stack([ak.T @ bk for ak, bk in zip(a, b)])
    scale = np.stack([np.abs(ak).T @ np.abs(bk) for ak, bk in zip(a, b)])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestNormalEquations:
    @pytest.mark.parametrize("basis, d, d_b", [
        ("constant", 1, 1), ("affine_y", 1, 1), ("affine_y", 2, 1),
        ("poly2_y_plus_Btail", 2, 2),
    ])
    def test_against_explicit_products(self, basis, d, d_b):
        m, n = 300, 9
        reg = RegressionConfig(basis)
        btail = sample_driver_pair(TimeGrid(1.0, n), 1, d_b, m, seed=5).b_tail
        rng = np.random.default_rng(5)
        y = rng.standard_normal((n + 1, m, d)).transpose(1, 0, 2)
        y[:, 0] = np.linspace(1.0, -0.5, d)  # collinear node: y_0 = x on every particle
        phi, x, sums, gram = _node_features(reg, y, btail)
        feats = np.stack([reg.features(y[:, k], btail[:, k]) for k in range(n)])
        p = feats.shape[2]
        assert np.array_equal(phi, feats) and np.array_equal(x, feats[..., 1:])
        assert np.all(sums == gram[:, 0, 1:])
        _assert_products(gram, feats, feats)
        cross = _cross_gram(x, sums, np.empty((n - 1, p, p)))
        _assert_products(cross, feats[:-1], feats[1:])
        targets = rng.standard_normal((n, m, 3))
        _assert_products(_moments(x, targets), feats, targets)
        # node-major y: affine_y's X is the y slab itself, not a copy
        if basis == "affine_y":
            assert np.shares_memory(x, y)
        # particle-major y: X is a C-ordered copy, with the same results
        again = _node_features(reg, np.ascontiguousarray(y), btail)
        assert not np.ascontiguousarray(y)[:, :n].transpose(1, 0, 2).flags.c_contiguous
        if basis == "affine_y":
            assert again[1].flags.c_contiguous and not np.shares_memory(again[1], y)
        for got, want in zip(again, (phi, x, sums, gram)):
            assert np.array_equal(got, want)


def _explicit_node_features(reg, y, btail):
    """The sweeps' features and Grams with phi' phi formed explicitly."""
    n = y.shape[1] - 1
    tail = None if btail is None else btail[:, :n].transpose(1, 0, 2)
    phi = reg.features(y[:, :n].transpose(1, 0, 2), tail)
    gram = np.matmul(phi.transpose(0, 2, 1), phi)
    return phi, phi[..., 1:], gram[:, 0, 1:], gram


def _with_ones(x):
    return np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)


def _explicit_cross_gram(x, sums, out):
    phi = _with_ones(x)
    np.matmul(phi[:-1].transpose(0, 2, 1), phi[1:], out=out)
    return out


def _explicit_moments(x, targets, out=None):
    return np.matmul(_with_ones(x).transpose(0, 2, 1), targets, out=out)


def _max_state_gap(a: EnsembleState, b: EnsembleState) -> float:
    return max(float(np.max(np.abs(u - v)))
               for u, v in ((a.y, b.y), (a.Y, b.Y), (a.z, b.z), (a.Z, b.Z)))


class TestExplicitGramAgreement:
    """Whole solves agree with the same solves on explicitly formed normal
    equations: the same rungs, and states within 1e-10."""

    @staticmethod
    def _explicit(monkeypatch) -> list[str]:
        """Patch in the explicit forms; returns the names of their calls."""
        calls = []
        for name, explicit in (("_node_features", _explicit_node_features),
                               ("_cross_gram", _explicit_cross_gram),
                               ("_moments", _explicit_moments)):
            def patched(*args, _name=name, _explicit=explicit, **kwargs):
                calls.append(_name)
                return _explicit(*args, **kwargs)
            monkeypatch.setattr(solver, name, patched)
        return calls

    def test_example1_continuation(self, monkeypatch):
        model = builtin_example_meanfield(DIMS)
        drivers = sample_driver_pair(TimeGrid(1.0, 20), 1, 1, 500, seed=3)

        def solve():
            return continuation_solve(model, "case1", 0.25, 0.25, 0.2, drivers, REG,
                                      tol=1e-5, x=np.array([1.0]))

        new = solve()
        calls = self._explicit(monkeypatch)
        old = solve()
        assert set(calls) == {"_node_features", "_cross_gram", "_moments"}
        assert new.converged and len(new.alpha_ladder) == 6
        assert ([r.iterations for r in new.alpha_ladder]
                == [r.iterations for r in old.alpha_ladder])
        assert _max_state_gap(new.final_state, old.final_state) <= 1e-10

    def test_lq_first_order_candidate(self, monkeypatch):
        problem = control.lq_control_scenario(TimeGrid(1.0, 10))
        drivers = sample_driver_pair(problem.grid, 1, 1, 200, seed=4)

        def candidate():
            solves = []
            for name in ("solve_state", "solve_adjoint"):
                def record(*args, _solve=getattr(control, name), **kwargs):
                    report = _solve(*args, **kwargs)
                    solves.append(report)
                    return report
                monkeypatch.setattr(control, name, record)
            u = control.first_order_candidate(problem, drivers, REG, iters=6, tol=1e-6)
            monkeypatch.undo()
            return u, solves

        u_new, new = candidate()
        calls = self._explicit(monkeypatch)
        u_old, old = candidate()
        assert set(calls) == {"_node_features", "_cross_gram", "_moments"}
        assert len(new) == len(old) == 12
        for a, b in zip(new, old):
            assert a.converged
            assert ([r.iterations for r in a.alpha_ladder]
                    == [r.iterations for r in b.alpha_ladder])
            assert _max_state_gap(a.final_state, b.final_state) <= 1e-10
        assert np.max(np.abs(u_new - u_old)) <= 1e-10


def _reference_d_metric(a, b):
    """The contraction metric as per-node sums over trailing axes."""
    n = a.grid.steps
    dy = a.y - b.y
    per_node = (
        np.sum(dy**2, axis=2)
        + np.sum((a.Y - b.Y) ** 2, axis=2)
        + np.sum((a.z - b.z) ** 2, axis=(2, 3))
        + np.sum((a.Z - b.Z) ** 2, axis=(2, 3))
    )
    integral = per_node[:, :n].sum(axis=1) * a.grid.dt
    return float(np.mean(integral + np.sum(dy[:, n] ** 2, axis=1)))


class TestDMetricAgainstReference:
    @staticmethod
    def _state(grid, m, rng, node_major):
        d, d_w, d_b = 2, 2, 3
        shapes = ((d,), (d,), (d, d_b), (d, d_w))
        if node_major:
            blocks = [
                np.moveaxis(rng.standard_normal((grid.steps + 1, m) + s), 0, 1)
                for s in shapes
            ]
        else:
            blocks = [rng.standard_normal((m, grid.steps + 1) + s) for s in shapes]
        return EnsembleState(*blocks, grid=grid)

    @pytest.mark.parametrize("layouts", [(True, True), (True, False), (False, False)])
    def test_matches_per_node_formula(self, layouts):
        grid = TimeGrid(0.7, 9)
        rng = np.random.default_rng(11)
        a = self._state(grid, 40, rng, layouts[0])
        b = self._state(grid, 40, rng, layouts[1])
        ref = _reference_d_metric(a, b)
        assert d_metric(a, b) == pytest.approx(ref, rel=1e-14, abs=0.0)


class TestDMetric:
    def test_hand_computed(self):
        grid = TimeGrid(2.0, 2)  # dt = 1
        a = EnsembleState.zeros(1, DIMS, grid)
        b = EnsembleState.zeros(1, DIMS, grid)
        a.y[0, :, 0] = [1.0, 2.0, 3.0]
        a.Y[0, :, 0] = [0.5, 0.0, 0.0]
        a.z[0, 1, 0, 0] = 2.0
        # integral nodes 0,1: (1^2 + 0.5^2) + (2^2 + 2^2), terminal 3^2
        assert d_metric(a, b) == pytest.approx(1.25 + 8.0 + 9.0)

    def test_symmetry(self):
        grid = TimeGrid(1.0, 4)
        rng = np.random.default_rng(0)
        a = EnsembleState.zeros(3, DIMS, grid)
        b = EnsembleState.zeros(3, DIMS, grid)
        a.y[:] = rng.standard_normal(a.y.shape)
        b.Y[:] = rng.standard_normal(b.Y.shape)
        assert d_metric(a, b) == pytest.approx(d_metric(b, a))


class TestLinearBase:
    def test_deterministic_reduction(self):
        # zero coefficients, constant terminal shift: y = x, z = 0,
        # Y_t = x + xi + theta1 x (T - t), Z = 0
        grid = TimeGrid(1.0, 100)
        drivers = sample_driver_pair(grid, 1, 1, 500, seed=7)
        prob = HomotopyProblem(
            base=zero_coefficient_set(DIMS), alpha=0.0, case="case1", theta1=1.0,
            xi=np.array([0.5]), x=np.array([1.0]),
        )
        state = linear_base_solve(prob, drivers, REG)
        expected = 1.0 + 0.5 + (1.0 - grid.nodes)
        assert np.max(np.abs(state.y - 1.0)) == 0.0
        assert np.max(np.abs(state.z)) <= 1e-12
        assert np.max(np.abs(state.Y[:, :, 0] - expected[None, :])) <= 1e-6
        assert np.max(np.abs(state.Z)) <= 1e-8

    def test_all_zero(self):
        grid = TimeGrid(1.0, 20)
        drivers = sample_driver_pair(grid, 1, 1, 50, seed=8)
        prob = HomotopyProblem(
            base=zero_coefficient_set(DIMS), alpha=0.0, case="case1", theta1=1.0,
            x=np.zeros(1),
        )
        state = linear_base_solve(prob, drivers, REG)
        for arr in (state.y, state.Y, state.z, state.Z):
            assert np.max(np.abs(arr)) <= 1e-14

    def test_forward_noise_variance(self):
        # zero drift, constant forward noise c: y_T - x is Gaussian with
        # variance c^2 T
        grid = TimeGrid(1.0, 50)
        m = 4000
        drivers = sample_driver_pair(grid, 1, 1, m, seed=9)
        c = 0.8
        drifts = np.zeros((m, grid.steps + 1, 1))
        noises = np.full((m, grid.steps + 1, 1, 1), c)
        y, _ = _forward_phase(drifts, noises, drivers, np.zeros((m, 1)), REG,
                              solver._btail(REG, drivers))
        var = y[:, -1, 0].var()
        target = c**2 * grid.horizon
        assert abs(var - target) <= 4.0 * target * np.sqrt(2.0 / (m - 1))

    def test_case2_base(self):
        # backward pair decouples: Y_T = xi, psi drift only; then damped forward
        grid = TimeGrid(1.0, 50)
        drivers = sample_driver_pair(grid, 1, 1, 200, seed=10)
        prob = HomotopyProblem(
            base=zero_coefficient_set(DIMS), alpha=0.0, case="case2", theta2=0.5,
            xi=np.array([1.0]), x=np.array([0.0]),
        )
        state = linear_base_solve(prob, drivers, REG)
        # Y == 1 everywhere, y' = -0.5 * 1 -> y = -t/2
        assert np.max(np.abs(state.Y - 1.0)) <= 1e-8
        assert np.max(np.abs(state.y[:, :, 0] + 0.5 * grid.nodes[None, :])) <= 1e-6

    def test_alpha_must_be_zero(self):
        grid = TimeGrid(1.0, 10)
        drivers = sample_driver_pair(grid, 1, 1, 10, seed=11)
        prob = HomotopyProblem(
            base=zero_coefficient_set(DIMS), alpha=0.5, case="case1", theta1=1.0
        )
        with pytest.raises(ValueError):
            linear_base_solve(prob, drivers, REG)


    @pytest.mark.parametrize("dims", [DIMS, Dimensions(1, 2, 2)], ids=["1-1-1", "1-2-2"])
    @pytest.mark.parametrize("basis", solver.BASES)
    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_one_more_step_changes_nothing(self, case, basis, dims):
        # the base solve is the frozen step's fixed point at alpha = 0: bit
        # for bit in case1, to the backward pair's regression round-off in
        # case2, whose fits the second step redoes on the new y
        reg = RegressionConfig(basis)
        drivers = sample_driver_pair(TimeGrid(1.0, 20), dims.d_w, dims.d_b, 200, seed=29)
        prob = HomotopyProblem(
            base=builtin_example_meanfield(dims), alpha=0.0, case=case, theta1=0.25,
            theta2=0.25, x=np.array([1.0]), xi=np.array([0.3]),
        )
        base = linear_base_solve(prob, drivers, reg)
        again = solve_decoupled_step(prob, base, drivers, reg)
        if case == "case1":
            assert _same_bits(base, again)
        else:
            for u, v in ((base.y, again.y), (base.Y, again.Y), (base.z, again.z),
                         (base.Z, again.Z)):
                assert np.max(np.abs(u - v)) <= 1e-10

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_no_base_map_call_at_alpha_zero(self, case):
        calls = []

        def counted(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        model = builtin_example_meanfield(DIMS)
        model = dataclasses.replace(
            model, **{name: counted(name, getattr(model, name)) for name in "fgFGh"}
        )
        grid = TimeGrid(1.0, 10)
        state = sinusoid_state(grid, 30, DIMS, noise=0.1, seed=3)
        rng = np.random.default_rng(4)
        state.z[:] = rng.standard_normal(state.z.shape)
        state.Z[:] = rng.standard_normal(state.Z.shape)
        prob = HomotopyProblem(base=model, alpha=0.0, case=case, theta1=0.25, theta2=0.5,
                               x=np.array([1.0]))
        f, g, big_f, big_g = prob.evaluate(grid.nodes, state.at(slice(None)), state.node_laws())
        assert calls == []
        if case == "case1":
            theta, damped = prob.theta1, ((big_f, state.y), (big_g, state.z))
            undamped = ((f, state.y), (g, state.Z))
        else:
            theta, damped = prob.theta2, ((f, state.Y), (g, state.Z))
            undamped = ((big_f, state.y), (big_g, state.z))
        for out, block in damped:
            assert np.array_equal(out, -theta * block)
        for out, block in undamped:
            assert out.shape == block.shape and not np.any(out)
            assert not out.flags.writeable
        # the base solve reads only the terminal map, once per step
        drivers = sample_driver_pair(grid, 1, 1, 30, seed=30)
        linear_base_solve(prob, drivers, REG)
        assert calls == ["h"] * (1 if case == "case1" else 2)

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_ladder_base_row(self, case, tmp_path):
        drivers = sample_driver_pair(TimeGrid(1.0, 20), 1, 1, 200, seed=31)
        report = continuation_solve(builtin_example_meanfield(DIMS), case, 0.25, 0.25, 0.5,
                                    drivers, REG, x=np.array([1.0]))
        path = tmp_path / "ladder.csv"
        write_csv(str(path), *ladder_rows(report))
        assert path.read_text().splitlines()[1] == "0,0,0,0"


class TestDecoupledStep:
    def test_zero_coefficients_arbitrary_frozen(self):
        grid = TimeGrid(1.0, 40)
        drivers = sample_driver_pair(grid, 1, 1, 100, seed=12)
        rng = np.random.default_rng(1)
        frozen = EnsembleState.zeros(100, DIMS, grid)
        for arr in (frozen.y, frozen.Y, frozen.z, frozen.Z):
            arr += rng.standard_normal(arr.shape)
        prob = HomotopyProblem(
            base=zero_coefficient_set(DIMS), alpha=1.0, case="case1", theta1=1.0,
            x=np.array([2.0]),
        )
        out = solve_decoupled_step(prob, frozen, drivers, REG)
        assert np.max(np.abs(out.y - 2.0)) == 0.0
        assert np.max(np.abs(out.Y)) == 0.0
        assert np.max(np.abs(out.z)) == 0.0
        assert np.max(np.abs(out.Z)) == 0.0

    def test_map_output_is_broadcast_or_named(self):
        grid = TimeGrid(1.0, 10)
        drivers = sample_driver_pair(grid, 1, 1, 20, seed=15)
        frozen = EnsembleState.zeros(20, DIMS, grid)
        # a drift read off the node times alone, shape (K, d), broadcasts
        timed = dataclasses.replace(
            zero_coefficient_set(DIMS), f=lambda t, v, law: np.ones(np.shape(t) + (1,))
        )
        prob = HomotopyProblem(base=timed, alpha=1.0, case="case1", theta1=1.0)
        out = solve_decoupled_step(prob, frozen, drivers, REG)
        assert np.max(np.abs(out.y[:, :, 0] - grid.nodes[None, :])) <= 1e-12
        # two components for d = 1 do not
        bad = dataclasses.replace(
            zero_coefficient_set(DIMS), F=lambda t, v, law: np.zeros(v.y.shape[:-1] + (2,))
        )
        prob = HomotopyProblem(base=bad, alpha=1.0, case="case1", theta1=1.0)
        with pytest.raises(CoefficientError, match="coefficient F returned shape"):
            solve_decoupled_step(prob, frozen, drivers, REG)

    def test_counterexample_sinusoid_near_fixed_point(self):
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 300)
        drivers = sample_driver_pair(grid, 1, 1, 1000, seed=13)
        frozen = sinusoid_state(grid, 1000, dims)
        prob = HomotopyProblem(base=coeffs, alpha=1.0, case="case1", theta1=1.0,
                               x=np.zeros(1))
        out = solve_decoupled_step(prob, frozen, drivers, REG)
        # one-step displacement is discretization-level, lands within O(dt)
        assert d_metric(out, frozen) <= 25.0 * grid.dt**2 * grid.horizon

    def test_reference_model_step_stays_near_oracle(self):
        dims = DIMS
        model = builtin_example_meanfield(dims)
        grid = TimeGrid(1.0, 200)
        drivers = sample_driver_pair(grid, 1, 1, 4000, seed=14)
        oracle = moment_ode_oracle(model, 1.0, grid)
        frozen = EnsembleState.zeros(4000, dims, grid)
        frozen.y[:, :, 0] = oracle.y[None, :, 0]
        frozen.Y[:, :, 0] = oracle.Y[None, :, 0]
        prob = HomotopyProblem(base=model, alpha=1.0, case="case1", theta1=0.25,
                               x=np.array([1.0]))
        out = solve_decoupled_step(prob, frozen, drivers, REG)
        assert d_metric(out, frozen) <= 0.02


class TestPicard:
    def test_zero_coefficients_one_iteration(self):
        grid = TimeGrid(1.0, 20)
        drivers = sample_driver_pair(grid, 1, 1, 50, seed=15)
        prob = HomotopyProblem(
            base=zero_coefficient_set(DIMS), alpha=1.0, case="case1", theta1=1.0,
            x=np.zeros(1),
        )
        warm = EnsembleState.zeros(50, DIMS, grid)
        report = picard_solve(prob, warm, drivers, REG, tol=1e-8)
        assert report.converged and report.iterations == 1

    def test_reference_model_from_zero(self):
        model = builtin_example_meanfield(DIMS)
        grid = TimeGrid(1.0, 200)
        drivers = sample_driver_pair(grid, 1, 1, 4000, seed=16)
        prob = HomotopyProblem(base=model, alpha=1.0, case="case1", theta1=0.25,
                               x=np.array([1.0]))
        warm = EnsembleState.zeros(4000, DIMS, grid, x=np.array([1.0]))
        report = picard_solve(prob, warm, drivers, REG, tol=1e-4, max_iter=60)
        assert report.converged
        assert report.residuals.max() <= 0.02

    def test_counterexample_two_limits(self):
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 300)
        m = 2000
        drivers = sample_driver_pair(grid, 1, 1, m, seed=17)
        prob = HomotopyProblem(base=coeffs, alpha=1.0, case="case1", theta1=1.0,
                               x=np.zeros(1))
        zero = EnsembleState.zeros(m, dims, grid)
        r0 = picard_solve(prob, zero, drivers, REG, tol=1e-4, damping=0.35)
        r1 = picard_solve(
            prob, sinusoid_state(grid, m, dims, noise=0.01, seed=5), drivers, REG,
            tol=1e-4, max_iter=60, damping=0.35,
        )
        assert r0.converged and r1.converged
        assert d_metric(r0.final_state, r1.final_state) >= 0.5
        assert r0.residuals.max() <= 0.05
        assert r1.residuals.max() <= 0.05

    def test_undamped_counterexample_diverges(self):
        # the coupling violates the sign condition; the plain iteration blows up
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 100)
        drivers = sample_driver_pair(grid, 1, 1, 200, seed=18)
        prob = HomotopyProblem(base=coeffs, alpha=1.0, case="case1", theta1=1.0,
                               x=np.zeros(1))
        with pytest.raises(SolverError, match="divergence") as err:
            picard_solve(
                prob, sinusoid_state(grid, 200, dims, noise=0.01, seed=6),
                drivers, REG, tol=1e-6, max_iter=200,
            )
        # the partial report names no problem, so it has no residuals
        assert err.value.report.residuals is None

    def test_bad_parameters(self):
        grid = TimeGrid(1.0, 10)
        drivers = sample_driver_pair(grid, 1, 1, 10, seed=19)
        prob = HomotopyProblem(
            base=zero_coefficient_set(DIMS), alpha=1.0, case="case1", theta1=1.0
        )
        warm = EnsembleState.zeros(10, DIMS, grid)
        with pytest.raises(ValueError):
            picard_solve(prob, warm, drivers, REG, tol=0.0)
        with pytest.raises(ValueError):
            picard_solve(prob, warm, drivers, REG, tol=1e-6, damping=1.5)
        with pytest.raises(ValueError, match="max_iter"):
            picard_solve(prob, warm, drivers, REG, tol=1e-6, max_iter=0)

    def test_fixed_point_property(self):
        model = builtin_example_meanfield(DIMS)
        grid = TimeGrid(1.0, 100)
        drivers = sample_driver_pair(grid, 1, 1, 1000, seed=20)
        prob = HomotopyProblem(base=model, alpha=1.0, case="case1", theta1=0.25,
                               x=np.array([1.0]))
        warm = EnsembleState.zeros(1000, DIMS, grid, x=np.array([1.0]))
        tol = 1e-5
        report = picard_solve(prob, warm, drivers, REG, tol=tol)
        again = solve_decoupled_step(prob, report.final_state, drivers, REG)
        assert d_metric(again, report.final_state) <= 2.0 * tol


class TestContinuation:
    def test_reference_model_ladder(self):
        model = builtin_example_meanfield(DIMS)
        grid = TimeGrid(1.0, 100)
        drivers = sample_driver_pair(grid, 1, 1, 1000, seed=21)
        report = continuation_solve(
            model, "case1", 0.25, 0.25, 0.2, drivers, REG, tol=1e-5,
            x=np.array([1.0]),
        )
        assert report.converged
        alphas = [r.alpha for r in report.alpha_ladder]
        assert alphas == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert all(r.converged for r in report.alpha_ladder)
        assert report.residuals.max() <= 0.02
        # contraction quality on every Picard rung
        for rung in report.alpha_ladder[1:]:
            assert rung.median_ratio < 0.9

    def test_non_finite_map_is_named_by_solve_and_residual(self):
        # F turns NaN after t = 0.5: a map fault, not a failed rung
        model = builtin_example_meanfield(DIMS)

        def late_nan(t, v, law):
            return np.where(np.asarray(t)[..., None] > 0.5, np.nan, model.F(t, v, law))

        bad = dataclasses.replace(model, F=late_nan)
        grid = TimeGrid(1.0, 10)
        drivers = sample_driver_pair(grid, 1, 1, 50, seed=26)
        with pytest.raises(CoefficientError, match="coefficient F produced non-finite"):
            continuation_solve(bad, "case1", 0.25, 0.25, 0.5, drivers, REG, x=np.ones(1))
        state = EnsembleState.zeros(50, DIMS, grid, x=np.ones(1))
        with pytest.raises(CoefficientError, match="coefficient F produced non-finite"):
            residual(bad, state, drivers)

    def test_zero_base_trivial(self):
        grid = TimeGrid(1.0, 20)
        drivers = sample_driver_pair(grid, 1, 1, 50, seed=22)
        report = continuation_solve(
            zero_coefficient_set(DIMS), "case1", 1.0, 0.0, 0.5, drivers, REG,
            tol=1e-8, x=np.zeros(1),
        )
        assert report.converged
        assert all(r.iterations <= 2 for r in report.alpha_ladder)

    def test_counterexample_ladder_converges_on_zero_branch(self):
        # from exact zero data the ladder never excites the expansive mode:
        # every rung sits on the genuine zero solution
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 100)
        drivers = sample_driver_pair(grid, 1, 1, 300, seed=23)
        report = continuation_solve(
            coeffs, "case1", 1.0, 0.0, 0.2, drivers, REG, tol=1e-6,
            x=np.zeros(1), max_iter=40,
        )
        assert report.converged
        assert np.max(np.abs(report.final_state.y)) <= 1e-10

    def test_counterexample_ladder_fails_on_generic_data(self):
        # any inhomogeneity (here a nonzero initial value) excites the
        # expansive mode: some rung fails even after step halvings, and the
        # partial ladder is attached
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 100)
        drivers = sample_driver_pair(grid, 1, 1, 300, seed=23)
        with pytest.raises(SolverError) as err:
            continuation_solve(
                coeffs, "case1", 1.0, 0.0, 0.2, drivers, REG, tol=1e-6,
                x=np.array([0.05]), max_iter=40,
            )
        assert err.value.report is not None
        assert "alpha" in str(err.value)

    def test_case2_reference_model(self):
        model = builtin_example_meanfield(DIMS)
        grid = TimeGrid(1.0, 100)
        drivers = sample_driver_pair(grid, 1, 1, 1000, seed=24)
        report = continuation_solve(
            model, "case2", 0.0, 0.25, 0.25, drivers, REG, tol=1e-5,
            x=np.array([1.0]),
        )
        assert report.converged
        oracle = moment_ode_oracle(model, 1.0, grid)
        mean_y = report.final_state.y[:, :, 0].mean(axis=0)
        assert np.max(np.abs(mean_y - oracle.y[:, 0])) <= 0.02

    def test_grid_refinement_improves_error(self):
        model = builtin_example_meanfield(DIMS)
        errors = {}
        for n in (50, 100):
            grid = TimeGrid(1.0, n)
            drivers = sample_driver_pair(grid, 1, 1, 500, seed=4)
            report = continuation_solve(
                model, "case1", 0.25, 0.25, 0.2, drivers, REG, tol=1e-6,
                x=np.array([1.0]),
            )
            oracle = moment_ode_oracle(model, 1.0, grid)
            st = report.final_state
            errors[n] = max(
                np.max(np.abs(st.y[:, :, 0].mean(axis=0) - oracle.y[:, 0])),
                np.max(np.abs(st.Y[:, :, 0].mean(axis=0) - oracle.Y[:, 0])),
            )
        assert 1.5 <= errors[50] / errors[100] <= 3.0

    def test_one_residual_per_ladder(self, monkeypatch):
        # the solve evaluates no residual; the first read of the report's
        # residuals evaluates the final state's on the alpha = 1 problem, and
        # later reads reuse it
        import mvfbdsde.solver as solver_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].alpha)
            return residual(*args, **kwargs)

        monkeypatch.setattr(solver_module, "residual", counting)
        model = builtin_example_meanfield(DIMS)
        grid = TimeGrid(1.0, 20)
        drivers = sample_driver_pair(grid, 1, 1, 200, seed=25)
        report = continuation_solve(
            model, "case1", 0.25, 0.25, 0.2, drivers, REG, tol=1e-5,
            x=np.array([1.0]),
        )
        assert len(report.alpha_ladder) == 6  # base rung plus 5 Picard rungs
        assert calls == []
        first = report.residuals
        assert calls == [1.0]
        prob = HomotopyProblem(base=model, alpha=1.0, case="case1", theta1=0.25,
                               theta2=0.25, x=np.array([1.0]))
        assert first == residual(prob, report.final_state, drivers)
        assert report.residuals is first and calls == [1.0]
        # picard_solve defers its residual the same way
        rung = picard_solve(prob, report.final_state, drivers, REG, tol=1e-5)
        assert calls == [1.0]
        assert rung.residuals is not None and calls == [1.0, 1.0]


def assert_rungs_consistent(report: SolveReport) -> None:
    """Each rung's counts agree with its own history, and the report's
    iterations and converged with its rungs."""
    assert report.alpha_ladder
    for rung in report.alpha_ladder:
        history = rung.residual_history
        assert rung.iterations == len(history)
        assert rung.final_distance == (history[-1] if history else 0.0)
    assert report.iterations == sum(r.iterations for r in report.alpha_ladder)
    assert report.converged == all(r.converged for r in report.alpha_ladder)


class TestRungInvariants:
    """Every rung a solve returns, on every exit, satisfies the invariants."""

    @pytest.fixture(scope="class")
    def example1(self):
        model = builtin_example_meanfield(DIMS)
        grid = TimeGrid(1.0, 20)
        drivers = sample_driver_pair(grid, 1, 1, 200, seed=27)
        prob = HomotopyProblem(base=model, alpha=1.0, case="case1", theta1=0.25,
                               theta2=0.25, x=np.array([1.0]))
        warm = EnsembleState.zeros(200, DIMS, grid, x=np.array([1.0]))
        return model, drivers, prob, warm

    def test_picard_converged_and_capped(self, example1):
        _, drivers, prob, warm = example1
        done = picard_solve(prob, warm, drivers, REG, tol=1e-5)
        capped = picard_solve(prob, warm, drivers, REG, tol=1e-5, max_iter=2)
        assert done.converged and not capped.converged
        assert capped.iterations == 2
        for report in (done, capped):
            assert [r.alpha for r in report.alpha_ladder] == [1.0]
            assert_rungs_consistent(report)

    def test_picard_divergence_keeps_its_rung(self):
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 40)
        drivers = sample_driver_pair(grid, 1, 1, 100, seed=18)
        prob = HomotopyProblem(base=coeffs, alpha=1.0, case="case1", theta1=1.0,
                               x=np.zeros(1))
        with pytest.raises(SolverError, match="divergence") as err:
            picard_solve(prob, sinusoid_state(grid, 100, dims), drivers, REG,
                         tol=1e-6, max_iter=200)
        partial = err.value.report
        assert_rungs_consistent(partial)
        (rung,) = partial.alpha_ladder
        assert not partial.converged and rung.iterations < 200
        assert rung.final_distance > 1e6 * rung.residual_history[0]

    def test_continuation_cold_and_warm(self, example1):
        model, drivers, _, _ = example1
        args = (model, "case1", 0.25, 0.25, 0.2, drivers, REG, 1e-5)
        cold = continuation_solve(*args, x=np.array([1.0]))
        warm = continuation_solve(*args, x=np.array([1.0]), warm=cold.final_state)
        assert len(cold.alpha_ladder) == 6 and [r.alpha for r in warm.alpha_ladder] == [1.0]
        for report in (cold, warm):
            assert report.converged
            assert_rungs_consistent(report)

    def test_adjoint_cold_and_warm(self):
        from mvfbdsde.control import lq_control_scenario, solve_adjoint, solve_state

        problem = lq_control_scenario(TimeGrid(1.0, 10))
        drivers = sample_driver_pair(problem.grid, 1, 1, 200, seed=41)
        u = np.full((problem.grid.steps + 1, 1), 0.2)
        state = solve_state(problem, u, drivers, REG).final_state
        cold = solve_adjoint(problem, state, u, drivers, REG)
        warm = solve_adjoint(problem, state, u, drivers, REG, warm=cold.final_state)
        for report in (cold, warm):
            assert report.converged
            assert_rungs_consistent(report)


def _particle_major(drivers: BrownianPair) -> BrownianPair:
    """The same increments in C-contiguous (M, N, d) storage, as a
    hand-built pair gives them."""
    return BrownianPair(np.ascontiguousarray(drivers.dW), np.ascontiguousarray(drivers.dB),
                        drivers.grid, drivers.seed)


def _same_bits(a: EnsembleState, b: EnsembleState) -> bool:
    return all(np.ascontiguousarray(u).tobytes() == np.ascontiguousarray(v).tobytes()
               for u, v in ((a.y, b.y), (a.Y, b.Y), (a.z, b.z), (a.Z, b.Z)))


class TestDriverLayout:
    """Results do not depend on how the driver increments are stored."""

    def test_continuation_solve(self):
        model = builtin_example_meanfield(DIMS)
        drivers = sample_driver_pair(TimeGrid(1.0, 20), 1, 1, 200, seed=26)
        copied = _particle_major(drivers)
        assert copied.dW.flags.c_contiguous and not drivers.dW.flags.c_contiguous
        a, b = (
            continuation_solve(model, "case1", 0.25, 0.25, 0.2, drv, REG, tol=1e-5,
                               x=np.array([1.0]))
            for drv in (drivers, copied)
        )
        assert _same_bits(a.final_state, b.final_state)
        assert a.alpha_ladder == b.alpha_ladder
        assert ladder_rows(a) == ladder_rows(b)
        assert a.residuals == b.residuals

    def test_poly2_step_at_two_backward_drivers(self):
        dims = Dimensions(1, 2, 2)
        reg = RegressionConfig("poly2_y_plus_Btail")
        drivers = sample_driver_pair(TimeGrid(1.0, 12), 2, 2, 300, seed=27)
        copied = _particle_major(drivers)
        prob = HomotopyProblem(base=builtin_example_meanfield(dims), alpha=0.0,
                               case="case1", theta1=0.25, theta2=0.25, x=np.array([1.0]))
        states = []
        for drv in (drivers, copied):
            base = linear_base_solve(prob, drv, reg)
            states.append(
                (base, solve_decoupled_step(prob.at_alpha(0.6), base, drv, reg))
            )
        (base_a, step_a), (base_b, step_b) = states
        assert _same_bits(base_a, base_b) and _same_bits(step_a, step_b)
        assert np.max(np.abs(step_a.z)) > 0.0
        assert residual(prob.at_alpha(0.6), step_a, drivers) == residual(
            prob.at_alpha(0.6), step_b, copied
        )


def test_poly2_steps_share_one_read_only_b_tail(monkeypatch):
    dims = Dimensions(1, 2, 2)
    reg = RegressionConfig("poly2_y_plus_Btail")
    drivers = sample_driver_pair(TimeGrid(1.0, 10), 2, 2, 100, seed=28)
    prob = HomotopyProblem(base=builtin_example_meanfield(dims), alpha=0.5,
                           case="case1", theta1=0.25, theta2=0.25, x=np.array([1.0]))
    tails = []

    def record(reg, drivers, _btail=solver._btail):
        tails.append(_btail(reg, drivers))
        return tails[-1]

    monkeypatch.setattr(solver, "_btail", record)
    state = EnsembleState.zeros(100, dims, drivers.grid, x=np.array([1.0]))
    for _ in range(2):
        state = solve_decoupled_step(prob, state, drivers, reg)
    first, second = tails
    assert second is first and not first.flags.writeable
    assert np.max(np.abs(state.z)) > 0.0


class TestMomentOracle:
    def test_closed_form_match(self):
        model = builtin_example_meanfield(DIMS)
        grid = TimeGrid(1.0, 200)
        res = moment_ode_oracle(model, 1.0, grid)
        a = 3.0 / (3.0 + np.exp(-1.0))
        b = a * np.exp(-1.0) / 3.0
        t = grid.nodes
        assert res.unique
        assert abs(res.Y[0, 0] - (a - b)) <= 1e-10
        assert res.Y[0, 0] == pytest.approx(0.7815, abs=5e-5)
        assert np.max(np.abs(res.y[:, 0] - (a * np.exp(-t / 2) + b * np.exp(t / 2)))) <= 1e-10
        assert np.max(np.abs(res.Y[:, 0] - (a * np.exp(-t / 2) - b * np.exp(t / 2)))) <= 1e-10

    def test_zero_start_is_zero(self):
        model = builtin_example_meanfield(DIMS)
        res = moment_ode_oracle(model, 0.0, TimeGrid(1.0, 50))
        assert np.max(np.abs(res.y)) <= 1e-12
        assert np.max(np.abs(res.Y)) <= 1e-12

    def test_counterexample_reports_nonunique(self):
        coeffs, horizon, _, _ = builtin_counterexample()
        res = moment_ode_oracle(coeffs, 0.0, TimeGrid(horizon, 120))
        assert not res.unique
        assert len(res.roots[0]) >= 2

    @pytest.mark.parametrize("maps, named", [(("g", "G"), "g"), (("G",), "G")])
    def test_noisy_model_rejected(self, maps, named):
        # shifted by +1, the noise maps are nonzero at z = Z = 0
        model = builtin_example_meanfield(DIMS)
        shifted = {
            name: (lambda fn: lambda t, v, law: fn(t, v, law) + 1.0)(getattr(model, name))
            for name in maps
        }
        noisy = dataclasses.replace(model, **shifted)
        with pytest.raises(ValueError, match=f"{named} is nonzero"):
            moment_ode_oracle(noisy, 1.0, TimeGrid(1.0, 20))

    def test_non_finite_noise_map_named(self):
        # NaN > 1e-12 is False: the noise probe must check finiteness itself.
        # An f that is NaN only between the probe's levels is caught in the
        # RK4 stages, not passed on to the terminal gap as h's.
        model = builtin_example_meanfield(DIMS)

        def nan_g(t, v, law):
            return np.full(np.shape(v.z), np.nan)

        def nan_f(t, v, law):
            return np.where((np.abs(v.Y) > 3) & (np.abs(v.Y) < 8), np.nan, model.f(t, v, law))

        for name, fn, steps in (("G", nan_g, 20), ("f", nan_f, 50)):
            bad = dataclasses.replace(model, **{name: fn})
            with pytest.raises(CoefficientError,
                               match=f"coefficient {name} produced non-finite"):
                moment_ode_oracle(bad, 1.0, TimeGrid(1.0, steps))

    def test_first_noisy_probe_named(self):
        # G shifted on the last node only: probed after g everywhere else
        model = builtin_example_meanfield(DIMS)
        late = lambda t, v, law: model.G(t, v, law) + np.where(  # noqa: E731
            np.asarray(t) > 0.9, 1.0, 0.0)[None, :, None, None]
        noisy = dataclasses.replace(model, G=late)
        with pytest.raises(ValueError, match=r"G is nonzero at z = Z = 0 \(t=1\)"):
            moment_ode_oracle(noisy, 1.0, TimeGrid(1.0, 20))


def _reference_terminal_residual(model, grid, x0, y0_guess, component):
    """The shooting integration for one guess, one single-atom law per RK4
    stage: the per-guess reference the stacked scan must reproduce."""
    dims, n, dt = model.dims, grid.steps, grid.dt

    def rhs(state, tt):
        v = Quad.zeros(1, dims)
        v.y[0, component] = state[0]
        v.Y[0, component] = state[1]
        law = NodeMoments.of(v.flat())
        return np.array([model.f(tt, v, law)[0, component], model.F(tt, v, law)[0, component]])

    path = np.zeros((n + 1, 2))
    path[0] = (x0, y0_guess)
    t = 0.0
    for k in range(n):
        s = path[k]
        k1 = rhs(s, t)
        k2 = rhs(s + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(s + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(s + dt * k3, t + dt)
        path[k + 1] = s + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    vec = np.zeros((1, dims.d))
    vec[0, component] = path[n, 0]
    h_val = model.h(vec, NodeMoments.of(vec))[0, component]
    return float(path[n, 1] - h_val), path


def _bisection_roots(model, grid, x0, bracket_scale=8.0, scan_points=161):
    """Component 0's shooting roots as the oracle found them by bisection:
    the same scan, plateau, endpoint and deduplication rules, each sign
    change halved until its bracket is below 1e-15 max(1, |a|)."""
    reach = bracket_scale * (1.0 + abs(x0))
    guesses = np.linspace(-reach, reach, scan_points)
    values = _terminal_residual(model, grid, x0, guesses, 0)[0]
    ztol = 1e-9 * max(1.0, float(np.max(np.abs(values))))
    if np.sum(np.abs(values) <= ztol) >= 2:
        return [float(g) for g in guesses[np.abs(values) <= ztol][:8]]
    roots = []
    for i in range(scan_points - 1):
        a, b, fa, fb = guesses[i], guesses[i + 1], values[i], values[i + 1]
        if abs(fa) <= ztol:
            roots.append(float(a))
            continue
        if fa * fb < 0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = _terminal_residual(model, grid, x0, [mid], 0)[0][0]
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
                if b - a <= 1e-15 * max(1.0, abs(a)):
                    break
            roots.append(float(0.5 * (a + b)))
    if abs(values[-1]) <= ztol:
        roots.append(float(guesses[-1]))
    dedup = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-6 * (1.0 + 2.0 * reach):
            dedup.append(r)
    return dedup


class TestBrentRoots:
    @pytest.mark.parametrize("case, steps", [
        ("example1", 12), ("example1", 200), ("counterexample", 120), ("counterexample", 300),
    ])
    def test_roots_match_bisection(self, case, steps):
        if case == "example1":
            model, horizon, x0 = builtin_example_meanfield(DIMS), 1.0, 1.0
        else:
            model, horizon, _, _ = builtin_counterexample()
            x0 = 0.0
        grid = TimeGrid(horizon, steps)
        oracle = moment_ode_oracle(model, x0, grid)
        want = _bisection_roots(model, grid, x0)
        assert oracle.unique == (case == "example1") == (len(want) == 1)
        assert len(oracle.roots[0]) == len(want)
        assert np.max(np.abs(np.array(oracle.roots[0]) - want)) <= 1e-12


class TestStackedShooting:
    @pytest.mark.parametrize("case", ["example1", "counterexample"])
    def test_bit_identical_to_per_guess(self, case):
        if case == "example1":
            model, x0, grid, every = builtin_example_meanfield(DIMS), 1.0, TimeGrid(1.0, 12), 1
        else:
            model, horizon, _, _ = builtin_counterexample()
            x0, grid, every = 0.0, TimeGrid(horizon, 300), 16
        reach = 8.0 * (1.0 + abs(x0))
        guesses = np.linspace(-reach, reach, 161)
        values, paths = _terminal_residual(model, grid, x0, guesses, 0)
        for i in range(0, 161, every):
            value, path = _reference_terminal_residual(model, grid, x0, guesses[i], 0)
            assert values[i] == value
            assert np.array_equal(paths[i], path)
        oracle = moment_ode_oracle(model, x0, grid)
        _, path = _reference_terminal_residual(model, grid, x0, oracle.roots[0][0], 0)
        assert np.array_equal(oracle.y[:, 0], path[:, 0])
        assert np.array_equal(oracle.Y[:, 0], path[:, 1])


class TestDetectNonuniqueness:
    def test_single_start(self):
        grid = TimeGrid(1.0, 20)
        drivers = sample_driver_pair(grid, 1, 1, 50, seed=25)
        prob = HomotopyProblem(
            base=zero_coefficient_set(DIMS), alpha=1.0, case="case1", theta1=1.0,
            x=np.zeros(1),
        )
        report = detect_nonuniqueness(
            prob, [EnsembleState.zeros(50, DIMS, grid)], drivers, REG
        )
        assert len(report.limits) == 1
        assert report.max_distance == 0.0
        assert report.failed_starts == []

    def test_reference_model_unique_limits(self):
        model = builtin_example_meanfield(DIMS)
        grid = TimeGrid(1.0, 100)
        drivers = sample_driver_pair(grid, 1, 1, 500, seed=26)
        prob = HomotopyProblem(base=model, alpha=1.0, case="case1", theta1=0.25,
                               x=np.array([1.0]))
        oracle = moment_ode_oracle(model, 1.0, grid)
        warm2 = EnsembleState.zeros(500, DIMS, grid)
        warm2.y[:, :, 0] = oracle.y[None, :, 0] + 0.1
        warm2.Y[:, :, 0] = oracle.Y[None, :, 0] - 0.1
        tol = 1e-5
        report = detect_nonuniqueness(
            prob,
            [EnsembleState.zeros(500, DIMS, grid, x=np.array([1.0])), warm2],
            drivers, REG, tol=tol,
        )
        assert report.max_distance <= 2.0 * tol

    def test_counterexample_two_limits(self):
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 300)
        m = 2000
        drivers = sample_driver_pair(grid, 1, 1, m, seed=27)
        prob = HomotopyProblem(base=coeffs, alpha=1.0, case="case1", theta1=1.0,
                               x=np.zeros(1))
        report = detect_nonuniqueness(
            prob,
            [EnsembleState.zeros(m, dims, grid),
             sinusoid_state(grid, m, dims, noise=0.01, seed=7)],
            drivers, REG, tol=1e-4, damping=0.35,
        )
        assert report.max_distance >= 0.5
        for lim in report.limits:
            assert lim.residuals.max() <= 0.05


    def test_failed_start_is_recorded(self):
        # the second start blows up the features at node 1: its solve raises
        # without a partial report
        coeffs, horizon, _, dims = builtin_counterexample()
        grid = TimeGrid(horizon, 30)
        m = 200
        drivers = sample_driver_pair(grid, 1, 1, m, seed=27)
        prob = HomotopyProblem(base=coeffs, alpha=1.0, case="case1", theta1=1.0,
                               x=np.zeros(1))
        huge = EnsembleState.zeros(m, dims, grid)
        huge.Y[:] = 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            report = detect_nonuniqueness(
                prob, [EnsembleState.zeros(m, dims, grid), huge], drivers, REG,
                tol=1e-4, damping=0.35,
            )
        assert len(report.limits) == 1
        assert report.failed_starts == [(1, "regression matrix singular at node 1")]


class TestCsvExports:
    def test_trajectory_columns(self):
        grid = TimeGrid(1.0, 4)
        state = EnsembleState.zeros(3, Dimensions(2, 1, 1), grid)
        header, rows = trajectory_rows(state)
        assert header == [
            "t", "mean_y_0", "mean_y_1", "mean_Y_0", "mean_Y_1",
            "rms_z", "rms_Z", "std_y", "std_Y",
        ]
        assert len(rows) == 5

    def test_empty_ladder_header_only(self, tmp_path):
        grid = TimeGrid(1.0, 2)
        report = SolveReport(final_state=EnsembleState.zeros(2, DIMS, grid))
        header, rows = ladder_rows(report)
        path = tmp_path / "ladder.csv"
        write_csv(str(path), header, rows)
        assert path.read_text() == "alpha,iterations,final_D,median_ratio\n"

    def test_float_format_17_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(str(path), ["v"], [[format(1.0 / 3.0, ".17g")]])
        assert "0.33333333333333331" in path.read_text()
