"""Driver sampling, the two quadratures, and the product-rule identity."""

import numpy as np
import pytest

from mvfbdsde.paths import (
    ProcessSpec,
    TimeGrid,
    backward_ito_integral,
    discrete_ito_product_check,
    forward_ito_integral,
    sample_driver_pair,
)


def _per_particle_reference(grid, d_w, d_b, particles, seed):
    """The sampling loop into particle-major (M, N, d) arrays."""
    n = grid.steps
    root_dt = np.sqrt(grid.dt)
    dw = np.empty((particles, n, d_w))
    db = np.empty((particles, n, d_b))
    for p in range(particles):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(p,)))
        )
        dw[p] = rng.standard_normal((n, d_w)) * root_dt
        db[p] = rng.standard_normal((n, d_b)) * root_dt
    return dw, db


@pytest.fixture(scope="module")
def big_drivers():
    grid = TimeGrid(1.0, 100)
    return grid, sample_driver_pair(grid, 1, 1, 10_000, seed=1234)


class TestSampling:
    def test_deterministic(self):
        grid = TimeGrid(1.0, 16)
        a = sample_driver_pair(grid, 2, 3, 5, seed=99)
        b = sample_driver_pair(grid, 2, 3, 5, seed=99)
        assert np.array_equal(a.dW, b.dW) and np.array_equal(a.dB, b.dB)

    def test_seed_sensitivity(self):
        grid = TimeGrid(1.0, 16)
        a = sample_driver_pair(grid, 1, 1, 4, seed=7)
        b = sample_driver_pair(grid, 1, 1, 4, seed=8)
        assert not np.array_equal(a.dW, b.dW)

    def test_stream_depends_only_on_seed_and_particle(self):
        grid = TimeGrid(1.0, 16)
        a = sample_driver_pair(grid, 1, 2, 8, seed=5)
        b = sample_driver_pair(grid, 1, 2, 3, seed=5)
        assert np.array_equal(a.dW[:3], b.dW)
        assert np.array_equal(a.dB[:3], b.dB)

    def test_increment_variance(self):
        grid = TimeGrid(1.0, 10_000)
        drv = sample_driver_pair(grid, 1, 1, 100, seed=77)
        ratio = drv.dW.var() / grid.dt
        assert 0.9 <= ratio <= 1.1

    def test_drivers_uncorrelated(self):
        grid = TimeGrid(1.0, 10_000)
        drv = sample_driver_pair(grid, 1, 1, 100, seed=78)
        corr = np.corrcoef(drv.dW.ravel(), drv.dB.ravel())[0, 1]
        assert abs(corr) <= 4.0 / np.sqrt(100 * 10_000)

    def test_bad_counts(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            sample_driver_pair(grid, 1, 1, 0, seed=0)
        with pytest.raises(ValueError):
            sample_driver_pair(grid, 0, 1, 4, seed=0)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    @pytest.mark.parametrize("d_w, d_b", [(1, 1), (2, 3)])
    def test_node_major_storage_keeps_per_particle_values(self, d_w, d_b):
        # the values are those of the per-particle loop into particle-major
        # arrays; only the storage is node-major
        grid = TimeGrid(1.0, 9)
        drv = sample_driver_pair(grid, d_w, d_b, 7, seed=31)
        ref_w, ref_b = _per_particle_reference(grid, d_w, d_b, 7, 31)
        assert drv.dW.shape == ref_w.shape and drv.dB.shape == ref_b.shape
        assert np.ascontiguousarray(drv.dW).tobytes() == ref_w.tobytes()
        assert np.ascontiguousarray(drv.dB).tobytes() == ref_b.tobytes()
        assert drv.dW.transpose(1, 0, 2).flags.c_contiguous
        assert drv.dB.transpose(1, 0, 2).flags.c_contiguous

    def test_b_tail(self):
        grid = TimeGrid(1.0, 8)
        drv = sample_driver_pair(grid, 1, 1, 3, seed=2)
        tail = drv.b_tail
        assert np.allclose(tail[:, -1], 0.0)
        assert np.allclose(tail[:, 0, 0], drv.dB[:, :, 0].sum(axis=1))

    def test_b_tail_is_kept_and_read_only(self):
        drv = sample_driver_pair(TimeGrid(1.0, 8), 1, 2, 5, seed=2)
        tail = drv.b_tail
        assert drv.b_tail is tail
        with pytest.raises(ValueError):
            tail[0, 0, 0] = 1.0
        want = np.zeros((5, 9, 2))
        want[:, :-1] = np.cumsum(drv.dB[:, ::-1], axis=1)[:, ::-1]
        assert tail.tobytes() == want.tobytes()


class TestIntegrals:
    def test_zero_integrand(self, big_drivers):
        grid, drv = big_drivers
        zeros = np.zeros((drv.particles, grid.steps + 1))
        assert np.all(forward_ito_integral(zeros, drv.dW[:, :, 0]) == 0.0)
        assert np.all(backward_ito_integral(zeros, drv.dB[:, :, 0]) == 0.0)

    def test_constant_telescopes(self):
        grid = TimeGrid(2.0, 50)
        drv = sample_driver_pair(grid, 1, 1, 6, seed=3)
        const = 3.5 * np.ones((6, grid.steps + 1))
        w_total = drv.dW[:, :, 0].sum(axis=1)
        b_total = drv.dB[:, :, 0].sum(axis=1)
        assert np.allclose(forward_ito_integral(const, drv.dW[:, :, 0]), 3.5 * w_total)
        assert np.allclose(backward_ito_integral(const, drv.dB[:, :, 0]), 3.5 * b_total)

    def test_forward_isometry(self, big_drivers):
        grid, drv = big_drivers
        ones = np.ones((drv.particles, grid.steps + 1))
        vals = forward_ito_integral(ones, drv.dW[:, :, 0])
        m = drv.particles
        assert abs(vals.mean()) <= 4.0 / np.sqrt(m)
        assert abs(vals.var() - grid.horizon) <= 0.1 * grid.horizon

    def test_backward_isometry(self, big_drivers):
        grid, drv = big_drivers
        ones = np.ones((drv.particles, grid.steps + 1))
        vals = backward_ito_integral(ones, drv.dB[:, :, 0])
        m = drv.particles
        assert abs(vals.mean()) <= 4.0 / np.sqrt(m)
        assert abs(vals.var() - grid.horizon) <= 0.1 * grid.horizon

    def test_linearity_exact(self):
        grid = TimeGrid(1.0, 32)
        drv = sample_driver_pair(grid, 1, 1, 5, seed=4)
        rng = np.random.default_rng(0)
        f = rng.standard_normal((5, grid.steps + 1))
        g = rng.standard_normal((5, grid.steps + 1))
        for integral, inc in (
            (forward_ito_integral, drv.dW[:, :, 0]),
            (backward_ito_integral, drv.dB[:, :, 0]),
        ):
            combo = integral(2.0 * f - 3.0 * g, inc)
            parts = 2.0 * integral(f, inc) - 3.0 * integral(g, inc)
            assert np.allclose(combo, parts, atol=1e-12)

    def test_shape_mismatch(self):
        grid = TimeGrid(1.0, 8)
        drv = sample_driver_pair(grid, 1, 1, 3, seed=5)
        with pytest.raises(ValueError):
            forward_ito_integral(np.zeros((3, 5)), drv.dW[:, :, 0])

    def test_matrix_integrand(self):
        grid = TimeGrid(1.0, 8)
        drv = sample_driver_pair(grid, 2, 1, 3, seed=6)
        integrand = np.ones((3, grid.steps + 1, 1, 2))
        out = forward_ito_integral(integrand, drv.dW)
        expected = drv.dW.sum(axis=(1, 2))[:, None]
        assert np.allclose(out, expected)


def _drift_specs(grid, particles):
    nodes = grid.nodes
    drift = np.broadcast_to(
        np.cos(nodes)[None, :, None], (particles, grid.steps + 1, 1)
    ).copy()
    return (
        ProcessSpec(initial=np.ones(1), drift=drift),
        ProcessSpec(initial=-np.ones(1), drift=2.0 * drift),
    )


class TestProductIdentity:
    def test_deterministic_drift(self, big_drivers):
        grid, drv = big_drivers
        spec_a, spec_b = _drift_specs(grid, drv.particles)
        res = discrete_ito_product_check(spec_a, spec_b, grid, drv)
        assert res <= 5.0 * grid.dt

    def test_backward_squared_recovers_horizon(self, big_drivers):
        # with the minus sign on the backward covariation the identity gives
        # E[(integral of dB)^2] = T; the residual is pure sampling noise
        grid, drv = big_drivers
        ones = np.ones((drv.particles, grid.steps + 1, 1, 1))
        spec = ProcessSpec(initial=np.zeros(1), backward=ones)
        res = discrete_ito_product_check(spec, spec, grid, drv)
        assert res <= 5.0 * grid.dt

    def test_mixed_drivers_vanish(self, big_drivers):
        grid, drv = big_drivers
        ones = np.ones((drv.particles, grid.steps + 1, 1, 1))
        fwd = ProcessSpec(initial=np.zeros(1), forward=ones)
        bwd = ProcessSpec(initial=np.zeros(1), backward=ones)
        res = discrete_ito_product_check(fwd, bwd, grid, drv)
        assert res <= 4.0 / np.sqrt(drv.particles)

    def test_wrong_sign_breaks_identity(self, big_drivers):
        # flipping the covariation sign must shift the residual by ~2T
        grid, drv = big_drivers
        ones = np.ones((drv.particles, grid.steps + 1, 1, 1))
        spec = ProcessSpec(initial=np.zeros(1), backward=ones)
        good = discrete_ito_product_check(spec, spec, grid, drv)
        assert abs((good + 2.0 * grid.horizon) - 2.0 * grid.horizon) <= 0.1 * grid.horizon

    def test_halving_dt_scales_residual(self):
        def averaged(n):
            total = 0.0
            for seed in range(8):
                grid = TimeGrid(1.0, n)
                drv = sample_driver_pair(grid, 1, 1, 2000, seed=seed)
                nodes = grid.nodes
                drift = np.broadcast_to(
                    np.cos(nodes)[None, :, None], (2000, n + 1, 1)
                ).copy()
                small = 0.3 * np.ones((2000, n + 1, 1, 1))
                total += discrete_ito_product_check(
                    ProcessSpec(np.ones(1), drift=drift, forward=small, backward=small),
                    ProcessSpec(-0.5 * np.ones(1), drift=1.5 * drift, forward=small,
                                backward=small),
                    grid,
                    drv,
                )
            return total / 8.0

        ratio = averaged(100) / averaged(200)
        assert 1.5 <= ratio <= 3.0

    @pytest.mark.parametrize("block", ["forward", "backward"])
    def test_integrand_off_its_driver_axis_is_rejected(self, block):
        # a (M, N+1, 1, 1) integrand against a two-component driver used to
        # broadcast over both components while the covariation counted one
        grid = TimeGrid(1.0, 10)
        drv = sample_driver_pair(grid, 2, 2, 50, seed=3)
        spec = ProcessSpec(initial=np.zeros(1), **{block: np.ones((50, 11, 1, 1))})
        with pytest.raises(ValueError, match="integrand/driver shape mismatch"):
            discrete_ito_product_check(spec, spec, grid, drv)

    @pytest.mark.parametrize("d_w, d_b", [(2, 2), (1, 3)])
    def test_driver_shaped_integrands_keep_the_identity(self, d_w, d_b):
        # the process sums every driver component; E[a_T^2] = d_b T then
        # meets a covariation over d_b components
        grid = TimeGrid(1.0, 100)
        drv = sample_driver_pair(grid, d_w, d_b, 2000, seed=5)
        ones_w, ones_b = (np.ones((2000, 101, 1, d)) for d in (d_w, d_b))
        spec = ProcessSpec(initial=np.zeros(1), backward=ones_b)
        assert discrete_ito_product_check(spec, spec, grid, drv) <= 5.0 * grid.dt
        fwd = ProcessSpec(initial=np.zeros(1), forward=ones_w)
        assert discrete_ito_product_check(fwd, spec, grid, drv) <= 5.0 * grid.dt


def test_grid_nodes_computed_once_and_read_only():
    grid = TimeGrid(0.75 * np.pi, 40)
    nodes = grid.nodes
    assert grid.nodes is nodes
    assert not nodes.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 1.0
    assert np.array_equal(nodes, np.linspace(0.0, 0.75 * np.pi, 41))
    assert grid == TimeGrid(0.75 * np.pi, 40)
