"""Sampling-based certification of the coefficient conditions."""

import numpy as np
import pytest

from mvfbdsde.assumptions import (
    KINDS,
    PAIR_CHUNK,
    PairSampler,
    PairStack,
    _monotonicity_margins,
    check_control_assumptions,
    check_integrability,
    check_monotonicity,
    estimate_lipschitz,
)
from mvfbdsde.control import lq_control_scenario
from mvfbdsde.measure import EmpiricalLaw, wasserstein2, wasserstein2_stack
from mvfbdsde.model import (
    CoefficientError,
    Dimensions,
    LinearTables,
    Quad,
    builtin_counterexample,
    builtin_example_meanfield,
    eval_system,
    linear_coefficient_set,
    pairing,
    quad_law,
    zero_coefficient_set,
)
from mvfbdsde.paths import TimeGrid

DIMS = Dimensions(1, 1, 1)


def _stack(quads):
    """K quadruple batches of M atoms as one (M, K, ...) stack."""
    return Quad(*(np.stack(blocks, axis=1) for blocks in zip(*quads)))


def one_pair_margin(coeffs, t, v1, v2, theta1, theta2, alpha1, direction):
    """Coupling margin of one pair, evaluated as a stack of one."""
    margin, _ = _monotonicity_margins(
        coeffs, np.array([t]), _stack([v1]), _stack([v2]), theta1, theta2, alpha1,
        direction,
    )
    return float(margin[0])


class TestLipschitz:
    def test_reference_model_constants(self):
        # tight constants: drift/terminal ratio 1, noise excess weight <= 1/8
        model = builtin_example_meanfield(DIMS)
        est = estimate_lipschitz(model, PairSampler(DIMS, seed=3), 1500)
        assert est.c_hat <= 1.02
        assert est.c_hat >= 0.9  # the estimator must actually find the constant
        assert est.gamma_hat <= 0.145
        assert est.gamma_ok
        assert not est.violations

    def test_zero_model(self):
        est = estimate_lipschitz(zero_coefficient_set(DIMS), PairSampler(DIMS, seed=4), 300)
        assert est.c_hat == 0.0
        assert est.gamma_hat == 0.0

    def test_linear_gain_two(self):
        # sup ratio of a linear map equals its gain
        model = linear_coefficient_set(DIMS, LinearTables(f={"y": 2.0}))
        est = estimate_lipschitz(model, PairSampler(DIMS, seed=6), 800)
        assert 2.0 - 1e-9 <= est.c_hat <= 2.0 + 1e-9

    def test_tuple_unpacking(self):
        est = estimate_lipschitz(zero_coefficient_set(DIMS), PairSampler(DIMS, seed=7), 50)
        c_hat, gamma_hat, violations = est
        assert (c_hat, gamma_hat, violations) == (0.0, 0.0, [])

    def test_degenerate_sampler_rejected(self):
        sampler = PairSampler(DIMS, seed=8, scales=(0.0,))
        with pytest.raises(ValueError, match="degenerate sampler"):
            estimate_lipschitz(zero_coefficient_set(DIMS), sampler, 20)


class TestMonotonicity:
    def test_reference_model_passes(self):
        model = builtin_example_meanfield(DIMS)
        report = check_monotonicity(
            model, 0.25, 0.25, 0.5, "A2", PairSampler(DIMS, seed=3), 4000,
            local_search=True,
        )
        assert report.ok, report.text()
        assert report.monotonicity_margin <= 1e-9
        assert report.alpha1_margin <= 1e-9

    def test_counterexample_fails_with_pure_backward_witness(self):
        coeffs, _, _, dims = builtin_counterexample()
        report = check_monotonicity(
            coeffs, 1.0, 0.0, 0.5, "A2", PairSampler(dims, seed=4), 4000
        )
        assert not report.passes["A2.coupling"]
        assert report.monotonicity_margin > 0
        # the documented failure mode: a deterministic displacement in the
        # backward variable alone already yields +(E[dY])^2
        m = 16
        v1 = Quad.zeros(m, dims)
        v2 = Quad.zeros(m, dims)
        v2.Y[:] = 1.0
        margin = one_pair_margin(coeffs, 0.0, v1, v2, 1.0, 0.0, 0.5, "A2")
        assert margin == pytest.approx(1.0, abs=1e-12)  # (E dY)^2 + theta2 * 0

    def test_invalid_theta_combination(self):
        model = builtin_example_meanfield(DIMS)
        with pytest.raises(ValueError):
            check_monotonicity(model, 0.0, 0.0, 0.5, "A2", PairSampler(DIMS), 10)
        with pytest.raises(ValueError):
            check_monotonicity(model, 1.0, 0.0, -1.0, "A2", PairSampler(DIMS), 10)
        with pytest.raises(ValueError):
            check_monotonicity(model, 1.0, 0.0, 0.5, "A3", PairSampler(DIMS), 10)

    def test_directions_mutually_exclusive(self):
        # a strictly dissipative map passes A2 and fails the reversed variant
        model = builtin_example_meanfield(DIMS)
        sampler = PairSampler(DIMS, seed=5)
        fwd = check_monotonicity(model, 0.25, 0.25, 0.5, "A2", sampler, 2000)
        rev = check_monotonicity(model, 0.25, 0.25, 0.5, "A2_prime", sampler, 2000)
        assert fwd.passes["A2.coupling"]
        assert not rev.passes["A2_prime.coupling"]

    def test_reversed_direction_passes_an_expansive_map(self):
        model = linear_coefficient_set(
            DIMS,
            LinearTables(
                f={"Y": 1.0}, F={"y": 1.0}, g={"Z": 0.7}, G={"z": 0.7},
                h={"y": -1.0},
            ),
        )
        rev = check_monotonicity(
            model, 0.5, 0.5, 0.5, "A2_prime", PairSampler(DIMS, seed=6), 2000
        )
        assert rev.passes["A2_prime.coupling"]
        assert rev.passes["A2_prime.terminal"]

    def test_margins_monotone_in_sample_count(self):
        # the sampled-pair sequence for a smaller count is a prefix of the
        # larger one, so the supremum margin can only grow with more samples
        coeffs, _, _, dims = builtin_counterexample()
        small = check_monotonicity(coeffs, 1.0, 0.0, 0.5, "A2",
                                   PairSampler(dims, seed=12), 200)
        large = check_monotonicity(coeffs, 1.0, 0.0, 0.5, "A2",
                                   PairSampler(dims, seed=12), 2000)
        assert large.monotonicity_margin >= small.monotonicity_margin
        assert not small.passes["A2.coupling"] or not large.passes["A2.coupling"]

    def test_deterministic_given_seed(self):
        model = builtin_example_meanfield(DIMS)
        r1 = check_monotonicity(model, 0.25, 0.25, 0.5, "A2", PairSampler(DIMS, seed=9), 500)
        r2 = check_monotonicity(model, 0.25, 0.25, 0.5, "A2", PairSampler(DIMS, seed=9), 500)
        assert r1.monotonicity_margin == r2.monotonicity_margin
        assert r1.alpha1_margin == r2.alpha1_margin

    def test_closed_form_quadratic_oracle(self):
        # for linear tables the coupled functional is a quadratic in the
        # displacement's means and centered second moments; compare the
        # ensemble evaluation against that closed form computed independently
        rng = np.random.default_rng(11)
        tables = LinearTables(
            f={"y": 0.3, "Y": -0.9, "my": -0.2, "mY": 0.4},
            F={"y": -1.1, "Y": 0.2, "my": 0.15, "mY": -0.25},
            g={"Z": -0.5, "mZ": 0.2},
            G={"z": -0.7, "mz": 0.1},
            h={"y": 1.0, "my": -0.5},
        )
        model = linear_coefficient_set(DIMS, tables)
        for _ in range(10):
            m = 32
            v1 = Quad(*(rng.standard_normal(s) for s in ((m, 1), (m, 1), (m, 1, 1), (m, 1, 1))))
            dv = Quad(*(rng.standard_normal(s) for s in ((m, 1), (m, 1), (m, 1, 1), (m, 1, 1))))
            v2 = Quad(v1.y + dv.y, v1.Y + dv.Y, v1.z + dv.z, v1.Z + dv.Z)
            margin = one_pair_margin(model, 0.0, v1, v2, 0.0, 0.5, 0.0, "A2")
            functional = margin - 0.5 * float(
                np.mean(np.sum(dv.Y**2, axis=1)) + np.mean(np.sum(dv.Z**2, axis=(1, 2)))
            )
            # closed form: E<dA, dv> with dA assembled from the tables
            e_y = dv.y.mean()
            e_big = dv.Y.mean()
            e_z = dv.z.mean()
            e_bz = dv.Z.mean()
            s_yy = float(np.mean(dv.y * dv.y))
            s_yY = float(np.mean(dv.y * dv.Y))
            s_YY = float(np.mean(dv.Y * dv.Y))
            s_zz = float(np.mean(dv.z * dv.z))
            s_ZZ = float(np.mean(dv.Z * dv.Z))
            expected = (
                # <dF, dy>: F = -1.1 y + 0.2 Y + 0.15 my - 0.25 mY
                -1.1 * s_yy + 0.2 * s_yY + (0.15 * e_y - 0.25 * e_big) * e_y
                # <df, dY>: f = 0.3 y - 0.9 Y - 0.2 my + 0.4 mY
                + 0.3 * s_yY - 0.9 * s_YY + (-0.2 * e_y + 0.4 * e_big) * e_big
                # <dG, dz>: G = -0.7 z + 0.1 mz
                - 0.7 * s_zz + 0.1 * e_z * e_z
                # <dg, dZ>: g = -0.5 Z + 0.2 mZ
                - 0.5 * s_ZZ + 0.2 * e_bz * e_bz
            )
            assert functional == pytest.approx(expected, abs=1e-12)


class TestIntegrability:
    def test_reference_model_passes(self):
        assert check_integrability(builtin_example_meanfield(DIMS), TimeGrid(1.0, 20))

    def test_zero_model_passes(self):
        assert check_integrability(zero_coefficient_set(DIMS), TimeGrid(1.0, 20))

    def test_singular_drift_fails_at_origin(self):
        base = zero_coefficient_set(DIMS)
        singular = base.__class__(
            **{**base.__dict__, "f": lambda t, v, law: v.y / t}
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            report = check_integrability(singular, TimeGrid(1.0, 20))
        assert not report
        assert 0 in report.offending_nodes


class TestControlAssumptions:
    def test_reference_scenario_passes(self):
        problem = lq_control_scenario()
        report = check_control_assumptions(problem)
        assert report.ok, report.text()

    def test_noise_derivative_cap_violation(self):
        problem = lq_control_scenario()
        # same scenario but with a forward-noise slope of 0.5: squared 0.25
        # against the declared cap 1/8 must fail
        problem.dynamics.jacobians[("g", "Z")] = -0.5 * np.eye(1)
        original = problem.dynamics.g
        problem.dynamics.g = lambda t, v, u, law: -0.5 * v.Z
        try:
            report = check_control_assumptions(problem)
        finally:
            problem.dynamics.g = original
        assert not report.passes["noise_Z_derivative"]

    def test_noise_free_maps_pass_any_gamma(self):
        problem = lq_control_scenario()
        zero_mat = np.zeros((1, 1))
        problem.dynamics.g = lambda t, v, u, law: np.zeros_like(v.Z)
        problem.dynamics.G = lambda t, v, u, law: np.zeros_like(v.z)
        for block in ("Z", "mZ"):
            problem.dynamics.jacobians[("g", block)] = zero_mat
        for block in ("z", "mz"):
            problem.dynamics.jacobians[("G", block)] = zero_mat
        report = check_control_assumptions(problem)
        assert report.passes["noise_z_derivative"]
        assert report.passes["noise_Z_derivative"]
        assert report.passes["lderivative_caps"]

    def test_zero_terminal_coefficient_rejected(self):
        problem = lq_control_scenario()
        problem.c = 0.0
        with pytest.raises(ValueError, match="c != 0"):
            check_control_assumptions(problem)


# ---------------------------------------------------------------------------
# Stacked certification against a per-pair reference
# ---------------------------------------------------------------------------
#
# The reference below evaluates every sampled pair on its own, under the
# pair's EmpiricalLaw, one map call per pair and argument combination: the
# per-pair certification the stacked code must reproduce.


def _sq(dv):
    return (
        np.sum(dv.y**2, axis=1),
        np.sum(dv.Y**2, axis=1),
        np.sum(dv.z**2, axis=(1, 2)),
        np.sum(dv.Z**2, axis=(1, 2)),
    )


def _reference_margins(coeffs, t, v1, v2, theta1, theta2, alpha1, direction):
    law1, law2 = quad_law(v1), quad_law(v2)
    a1 = eval_system(coeffs, t, v1, law1)
    a2 = eval_system(coeffs, t, v2, law2)
    dv = Quad(v1.y - v2.y, v1.Y - v2.Y, v1.z - v2.z, v1.Z - v2.Z)
    da = (a1[2] - a2[2], a1[0] - a2[0], a1[3] - a2[3], a1[1] - a2[1])
    functional = float(np.mean(pairing(da, dv)))
    ny, n_big_y, nz, n_big_z = (float(np.mean(s)) for s in _sq(dv))
    theta_quad = theta1 * (ny + nz) + theta2 * (n_big_y + n_big_z)
    dh = (coeffs.h(v1.y, EmpiricalLaw.from_samples(v1.y))
          - coeffs.h(v2.y, EmpiricalLaw.from_samples(v2.y)))
    h_pair = float(np.mean(np.sum(dh * dv.y, axis=1)))
    if direction == "A2":
        return functional + theta_quad, alpha1 * ny - h_pair
    return theta_quad - functional, h_pair + alpha1 * ny


def reference_monotonicity(coeffs, theta1, theta2, alpha1, direction, sampler,
                           n_pairs, local_search=False):
    """(margin sup, terminal sup, coupling witness, terminal witness, pairs);
    a witness is (margin, t, scale, detail)."""
    sup, sup_h, worst, worst_h, used = -np.inf, -np.inf, None, None, 0
    for t, v1, v2, kind, scale in sampler.pairs(n_pairs):
        used += 1
        margin, margin_h = _reference_margins(
            coeffs, t, v1, v2, theta1, theta2, alpha1, direction
        )
        if margin > sup:
            sup, worst = margin, [margin, t, scale, kind, v1, v2]
        if margin_h > sup_h:
            sup_h, worst_h = margin_h, (margin_h, t, scale, kind)
    if local_search:
        rng = np.random.default_rng(sampler.seed + 1)
        _, t, scale, _, v1, v2 = worst
        step = scale
        for _ in range(150):
            cand2 = Quad(*(b + step * rng.standard_normal(b.shape) for b in v2))
            margin, _ = _reference_margins(
                coeffs, t, v1, cand2, theta1, theta2, alpha1, direction
            )
            if margin > worst[0]:
                worst = [margin, t, scale, worst[3] + "+local", v1, cand2]
                v2 = cand2
            else:
                step *= 0.8
        sup = max(sup, worst[0])
    return sup, sup_h, tuple(worst[:4]), worst_h, used


def _reference_w2(a, b):
    la, lb = EmpiricalLaw.from_samples(a), EmpiricalLaw.from_samples(b)
    return wasserstein2(la, lb, "exact_1d" if la.dim == 1 else "assignment")


def reference_lipschitz(coeffs, sampler, n_pairs):
    """(c_hat, gamma_hat, violations as (kind, margin, t, scale, detail),
    samples used)."""
    eps, c_hat, samples = 1e-12, 0.0, []
    for t, v1, v2, kind, scale in sampler.pairs(n_pairs):
        if np.allclose(v1.flat(), v2.flat()):
            continue
        law1, law2 = quad_law(v1), quad_law(v2)
        law_y1 = EmpiricalLaw.from_samples(v1.y)
        law_y2 = EmpiricalLaw.from_samples(v2.y)
        w2, w2y = _reference_w2(v1.flat(), v2.flat()), _reference_w2(v1.y, v2.y)
        combos = (
            ((v1, law1, law_y1), (v2, law2, law_y2), w2, w2y, kind),
            ((v1, law1, law_y1), (v2, law1, law_y1), 0.0, 0.0, kind + "/points"),
            ((v1, law1, law_y1), (v1, law2, law_y2), w2, w2y, kind + "/laws"),
        )
        for (va, la, lya), (vb, lb, lyb), dist, dist_y, tag in combos:
            a1 = eval_system(coeffs, t, va, la)
            a2 = eval_system(coeffs, t, vb, lb)
            dv = Quad(vb.y - va.y, vb.Y - va.Y, vb.z - va.z, vb.Z - va.Z)
            ny, n_big_y, nz, n_big_z = _sq(dv)
            num = np.sqrt(np.sum((a2[0] - a1[0]) ** 2, axis=1)
                          + np.sum((a2[2] - a1[2]) ** 2, axis=1))
            den = np.sqrt(ny + n_big_y + nz + n_big_z) + dist
            if np.any(den > eps):
                c_hat = max(c_hat, float(np.max(num[den > eps] / den[den > eps])))
            num_h = np.linalg.norm(coeffs.h(vb.y, lyb) - coeffs.h(va.y, lya), axis=1)
            den_h = np.sqrt(ny) + dist_y
            if np.any(den_h > eps):
                c_hat = max(c_hat, float(np.max(num_h[den_h > eps] / den_h[den_h > eps])))
            samples.append((t, tag, scale, a1, a2, ny, n_big_y, nz, n_big_z, dist))
    gamma_hat, violations = 0.0, []
    for t, tag, scale, a1, a2, ny, n_big_y, nz, n_big_z, w2 in samples:
        d_big_g = np.sum((a2[3] - a1[3]) ** 2, axis=(1, 2))
        dg = np.sum((a2[1] - a1[1]) ** 2, axis=(1, 2))
        for lhs, c_block, gamma_block, label in (
            (d_big_g, ny + n_big_y + nz, n_big_z + w2**2, "G"),
            (dg, ny + n_big_y + n_big_z, nz + w2**2, "g"),
        ):
            mask = gamma_block > eps
            if np.any(mask):
                excess = np.clip((lhs - c_hat * c_block)[mask], 0.0, None)
                need = float(np.max(excess / gamma_block[mask]))
                gamma_hat = max(gamma_hat, need)
                if need >= 0.5:
                    violations.append((f"lipschitz_{label}", need, t, scale,
                                       f"{tag} displacement needs gamma={need:.4g}"))
    return c_hat, gamma_hat, violations, len(samples)


DIMS2 = Dimensions(2, 2, 2)
UNEVEN = 2 * PAIR_CHUNK + 37  # not a multiple of the stack size


def _lq_case():
    problem = lq_control_scenario()
    frozen = np.broadcast_to(problem.control_box_center(),
                             (problem.grid.steps + 1, problem.d_u))
    return problem.coefficients_for(frozen), problem.dims


def _stacked_cases():
    counter, _, _, cdims = builtin_counterexample()
    lq, lq_dims = _lq_case()
    return {
        "example1_d1": (builtin_example_meanfield(DIMS), DIMS),
        "example1_d2": (builtin_example_meanfield(DIMS2), DIMS2),
        "counterexample": (counter, cdims),
        "lq": (lq, lq_dims),
    }


class TestStackedAgainstPerPair:
    @pytest.mark.parametrize("case", ["example1_d2", "counterexample", "lq"])
    def test_stack_equals_each_pair_alone(self, case):
        # a pair's margins do not depend on the other pairs of its stack
        coeffs, dims = _stacked_cases()[case]
        pairs = list(PairSampler(dims, seed=21).pairs(57))
        t = np.array([p[0] for p in pairs])
        stacked = _monotonicity_margins(
            coeffs, t, _stack([p[1] for p in pairs]), _stack([p[2] for p in pairs]),
            0.25, 0.25, 0.5, "A2",
        )
        for i, (ti, v1, v2, _, _) in enumerate(pairs):
            alone = _monotonicity_margins(
                coeffs, np.array([ti]), _stack([v1]), _stack([v2]), 0.25, 0.25, 0.5, "A2"
            )
            for got, want in zip(stacked, alone):
                assert got[i] == want[0]

    @pytest.mark.parametrize("case", ["example1_d1", "example1_d2", "counterexample", "lq"])
    @pytest.mark.parametrize("direction", ["A2", "A2_prime"])
    def test_monotonicity_matches_reference(self, case, direction):
        coeffs, dims = _stacked_cases()[case]
        n_pairs = UNEVEN if case == "counterexample" else 300
        args = (coeffs, 0.25, 0.25, 0.5, direction, PairSampler(dims, seed=31), n_pairs)
        report = check_monotonicity(*args, local_search=True)
        sup, sup_h, worst, worst_h, used = reference_monotonicity(*args, local_search=True)
        assert report.samples_used == used == n_pairs
        assert report.monotonicity_margin == pytest.approx(sup, rel=0, abs=1e-12)
        assert report.alpha1_margin == pytest.approx(sup_h, rel=0, abs=1e-12)
        ref_ok = {"coupling": sup <= 1e-9 * (1.0 + sup), "terminal": sup_h <= 1e-9 * (1.0 + sup)}
        assert report.passes == {f"{direction}.{k}": v for k, v in ref_ok.items()}
        if case == "counterexample":
            # margins well away from zero: the same witnesses, pair for pair
            got = report.witnesses
            assert (got[0].margin, got[0].t, got[0].scale, got[0].detail) == pytest.approx(worst)
            assert (got[1].margin, got[1].t, got[1].scale, got[1].detail) == pytest.approx(worst_h)

    @pytest.mark.parametrize("case", ["example1_d1", "example1_d2", "counterexample", "lq"])
    def test_lipschitz_matches_reference(self, case):
        coeffs, dims = _stacked_cases()[case]
        n_pairs = UNEVEN if case == "example1_d1" else 150
        est = estimate_lipschitz(coeffs, PairSampler(dims, seed=41), n_pairs)
        c_hat, gamma_hat, violations, used = reference_lipschitz(
            coeffs, PairSampler(dims, seed=41), n_pairs
        )
        assert est.samples_used == used
        assert est.c_hat == pytest.approx(c_hat, rel=1e-12, abs=0)
        assert est.gamma_hat == pytest.approx(gamma_hat, rel=1e-12, abs=0)
        assert len(est.violations) == len(violations)

    def test_violations_in_reference_order(self):
        # noise gains 2 and 1.5 need gamma far above 1/2 on many samples
        model = linear_coefficient_set(
            DIMS, LinearTables(f={"y": 1.0}, g={"Z": 2.0}, G={"z": -1.5})
        )
        est = estimate_lipschitz(model, PairSampler(DIMS, seed=13), 300)
        _, _, violations, _ = reference_lipschitz(model, PairSampler(DIMS, seed=13), 300)
        assert not est.gamma_ok
        assert {v.kind for v in est.violations} == {"lipschitz_G", "lipschitz_g"}
        assert len(est.violations) == len(violations) > PAIR_CHUNK
        for got, (kind, margin, t, scale, detail) in zip(est.violations, violations):
            assert (got.kind, got.t, got.scale) == (kind, t, scale)
            assert got.margin == pytest.approx(margin, rel=1e-12)
            assert got.detail.split(" needs")[0] == detail.split(" needs")[0]


class _ListSampler(PairSampler):
    """A sampler replaying a fixed list of pairs."""

    def __init__(self, dims, pairs):
        super().__init__(dims)
        self.fixed = pairs

    def stacks(self, n_pairs):
        pairs = self.fixed[:n_pairs]
        for lo in range(0, len(pairs), PAIR_CHUNK):
            t, v1, v2, kinds, scales = zip(*pairs[lo:lo + PAIR_CHUNK])
            yield PairStack(np.array(t), _stack(v1), _stack(v2), np.array(kinds),
                            np.array(scales))


class TestWitnessAcrossStacks:
    def test_first_pair_with_the_largest_margin(self):
        coeffs, _, _, dims = builtin_counterexample()
        pairs = list(PairSampler(dims, seed=51).pairs(2 * PAIR_CHUNK))
        margins = [
            _reference_margins(coeffs, t, v1, v2, 0.25, 0.25, 0.5, "A2")[0]
            for t, v1, v2, _, _ in pairs
        ]
        top = int(np.argmax(margins))
        t, v1, v2, _, scale = pairs[top]
        # move the largest pair to the end of the first stack and copy it to
        # the start of the second, each copy labelled by its position
        pairs[top] = pairs[int(np.argmin(margins))]
        pairs[PAIR_CHUNK - 1] = (t, v1, v2, "first", scale)
        pairs[PAIR_CHUNK] = (t, v1, v2, "second", scale)
        report = check_monotonicity(
            coeffs, 0.25, 0.25, 0.5, "A2", _ListSampler(dims, pairs), len(pairs)
        )
        coupling = report.witnesses[0]
        assert coupling.detail == "first"
        assert coupling.margin == pytest.approx(max(margins), rel=1e-12)
        _, _, worst, _, _ = reference_monotonicity(
            coeffs, 0.25, 0.25, 0.5, "A2", _ListSampler(dims, pairs), len(pairs)
        )
        assert worst[3] == "first"


class TestNonFiniteInStack:
    @pytest.mark.parametrize("name", ["f", "g", "F", "G", "h"])
    def test_map_named(self, name):
        # finite everywhere except at the pairs drawn after t = 0.9
        model = builtin_example_meanfield(DIMS)
        base = getattr(model, name)
        if name == "h":
            def bad(y, law):
                return base(y, law) / 0.0
        else:
            def bad(t, v, law):
                out = base(t, v, law)
                late = (np.asarray(t) > 0.9).reshape(1, -1, *([1] * (out.ndim - 2)))
                return np.where(late, np.nan, out)
        broken = model.__class__(**{**model.__dict__, name: bad})
        sampler = PairSampler(DIMS, seed=61)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(CoefficientError, match=f"coefficient {name} "):
                check_monotonicity(broken, 0.25, 0.25, 0.5, "A2", sampler, 300)
            with pytest.raises(CoefficientError, match=f"coefficient {name} "):
                estimate_lipschitz(broken, sampler, 300)


class TestStackedPairs:
    def test_smaller_draw_is_a_prefix(self):
        small = list(PairSampler(DIMS2, seed=71).pairs(37))
        large = list(PairSampler(DIMS2, seed=71).pairs(UNEVEN))
        assert len(small) == 37 and len(large) == UNEVEN
        for (t, v1, v2, kind, scale), (t2, w1, w2, kind2, scale2) in zip(small, large):
            assert (t, kind, scale) == (t2, kind2, scale2)
            for a, b in zip((*v1, *v2), (*w1, *w2)):
                assert np.array_equal(a, b)

    def test_pairs_are_slices_of_the_stacks(self):
        sampler = PairSampler(DIMS2, seed=72)
        stacks = list(sampler.stacks(UNEVEN))
        assert [s.t.size for s in stacks] == [PAIR_CHUNK, PAIR_CHUNK, 37]
        for i, (t, v1, v2, kind, scale) in enumerate(sampler.pairs(UNEVEN)):
            stack, k = stacks[i // PAIR_CHUNK], i % PAIR_CHUNK
            assert (t, kind, scale) == (stack.t[k], stack.kinds[k], stack.scales[k])
            assert kind == KINDS[i % 5]
            assert scale == sampler.scales[(i // 5) % len(sampler.scales)]
            for got, block in zip((*v1, *v2), (*stack.v1, *stack.v2)):
                assert np.array_equal(got, block[:, k])

    def test_each_kind_has_its_structure(self):
        sampler = PairSampler(DIMS2, seed=73)
        stack = next(sampler.stacks(PAIR_CHUNK))
        v1, dv = stack.v1.flat(), stack.v2.flat() - stack.v1.flat()
        for k, (kind, scale) in enumerate(zip(stack.kinds, stack.scales)):
            base, step = v1[:, k], dv[:, k]
            tol = 1e-12 * scale * (1.0 + np.max(np.abs(base)))
            if kind == "axis":
                # one block entry moves, by the same amount on every atom
                moved = np.flatnonzero(np.any(np.abs(step) > tol, axis=0))
                assert moved.size == 1
                col = step[:, moved[0]]
                assert np.max(np.abs(col - col[0])) <= tol
                assert 0.5 * scale - tol <= abs(col[0]) <= 2.0 * scale + tol
            elif kind == "deterministic":
                assert np.max(np.abs(step - step[:1])) <= tol
            elif kind == "random":
                assert np.max(np.abs(step.mean(axis=0))) <= tol
            elif kind == "mean_shift":
                # dv = (rho - 1) v1 + c: differences across atoms fix rho
                dx, dd = base - base[:1], step - step[:1]
                gain = float(np.sum(dx * dd) / np.sum(dx * dx))
                assert np.max(np.abs(dd - gain * dx)) <= 10 * tol
                assert 0.3 <= 1.0 + gain <= 1.7
        assert set(stack.kinds) == set(KINDS)

    @pytest.mark.parametrize("dims", [DIMS, DIMS2])
    def test_stacked_w2_matches_each_pair(self, dims):
        stack = next(PairSampler(dims, seed=74).stacks(80))
        for a, b in ((stack.v1.flat(), stack.v2.flat()), (stack.v1.y, stack.v2.y)):
            got = wasserstein2_stack(a.swapaxes(0, 1), b.swapaxes(0, 1))
            for k in range(a.shape[1]):
                la, lb = EmpiricalLaw.from_samples(a[:, k]), EmpiricalLaw.from_samples(b[:, k])
                want = wasserstein2(la, lb, "exact_1d" if la.dim == 1 else "assignment")
                assert got[k] == pytest.approx(want, rel=1e-12, abs=0)
