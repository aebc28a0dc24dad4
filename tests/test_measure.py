"""Empirical laws and the 2-Wasserstein distance."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mvfbdsde.measure import (
    EmpiricalLaw,
    check_mean_w2_bounds,
    wasserstein2,
    wasserstein2_stack,
)


def law_1d(values):
    return EmpiricalLaw.from_samples(np.asarray(values, dtype=float)[:, None])


def brute_force_w2(a: EmpiricalLaw, b: EmpiricalLaw) -> float:
    """Exhaustive minimum over permutation couplings (uniform, equal counts)."""
    n = a.n_atoms
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(
            np.sum((a.samples - b.samples[list(perm)]) ** 2, axis=1)
        )
        best = min(best, cost)
    return float(np.sqrt(best))


def reference_assignment_w2(a: EmpiricalLaw, b: EmpiricalLaw) -> float:
    """Optimal matching of uniform clouds of equal size on the exact squared
    differences, not the clipped |a|^2 + |b|^2 - 2ab^T expansion that
    ``wasserstein2_stack`` builds."""
    cost = np.sum((a.samples[:, None, :] - b.samples[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


class TestEmpiricalMean:
    def test_single_atom(self):
        assert law_1d([0.0]).mean[0] == 0.0

    def test_two_atom_symmetry(self):
        assert law_1d([1.0, 3.0]).mean[0] == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty measure"):
            EmpiricalLaw.from_samples(np.zeros((0, 1)))

    def test_cached_mean_matches(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((40, 3))
        law = EmpiricalLaw.from_samples(samples)
        assert np.allclose(law.mean, samples.mean(axis=0), atol=1e-12)


class TestWasserstein:
    def test_identity(self):
        rng = np.random.default_rng(1)
        cloud = rng.standard_normal((20, 1))
        law = EmpiricalLaw.from_samples(cloud)
        assert wasserstein2(law, law, "exact_1d") == pytest.approx(0.0, abs=1e-12)
        assert wasserstein2(law, law, "assignment") == pytest.approx(0.0, abs=1e-12)

    def test_diracs(self):
        assert wasserstein2(law_1d([2.0]), law_1d([5.0]), "exact_1d") == pytest.approx(3.0)

    def test_sorted_matching_vs_enumeration(self):
        a = law_1d([0.0, 2.0])
        b = law_1d([1.0, 3.0])
        # couplings: (0->1, 2->3) costs 1; (0->3, 2->1) costs sqrt(5)
        assert brute_force_w2(a, b) == pytest.approx(1.0)
        assert wasserstein2(a, b, "exact_1d") == pytest.approx(1.0, abs=1e-12)

    def test_assignment_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = EmpiricalLaw.from_samples(rng.standard_normal((5, 2)))
            b = EmpiricalLaw.from_samples(rng.standard_normal((5, 2)))
            assert wasserstein2(a, b, "assignment") == pytest.approx(
                brute_force_w2(a, b), abs=1e-12
            )

    def test_assignment_agrees_with_exact_1d(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a = EmpiricalLaw.from_samples(rng.standard_normal((n, 1)))
            b = EmpiricalLaw.from_samples(rng.standard_normal((n, 1)))
            # both methods reach the stacked solver, so each is held to an
            # independent reference
            ref = reference_assignment_w2(a, b)
            assert abs(wasserstein2(a, b, "exact_1d") - ref) <= 1e-9
            assert abs(wasserstein2(a, b, "assignment") - ref) <= 1e-9

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            clouds = [
                EmpiricalLaw.from_samples(rng.standard_normal((8, 3)))
                for _ in range(3)
            ]
            dab = wasserstein2(clouds[0], clouds[1], "assignment")
            dba = wasserstein2(clouds[1], clouds[0], "assignment")
            dbc = wasserstein2(clouds[1], clouds[2], "assignment")
            dac = wasserstein2(clouds[0], clouds[2], "assignment")
            assert abs(dab - dba) <= 1e-12
            assert dac <= dab + dbc + 1e-9

    def test_scaling(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 2))
        b = rng.standard_normal((12, 2))
        base = wasserstein2(
            EmpiricalLaw.from_samples(a), EmpiricalLaw.from_samples(b), "assignment"
        )
        for c in (-2.5, 0.5, 3.0):
            scaled = wasserstein2(
                EmpiricalLaw.from_samples(c * a),
                EmpiricalLaw.from_samples(c * b),
                "assignment",
            )
            assert scaled == pytest.approx(abs(c) * base, rel=1e-12)

    def test_dimension_mismatch(self):
        a = EmpiricalLaw.from_samples(np.zeros((3, 1)))
        b = EmpiricalLaw.from_samples(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            wasserstein2(a, b, "exact_1d")

    def test_method_shape_preconditions(self):
        a = EmpiricalLaw.from_samples(np.zeros((3, 2)))
        b = EmpiricalLaw.from_samples(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="exact_1d"):
            wasserstein2(a, b, "exact_1d")
        c = EmpiricalLaw.from_samples(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="equal atom counts"):
            wasserstein2(a, c, "assignment")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_methods_are_the_stacked_distance(self, dim):
        rng = np.random.default_rng(9)
        for n in (1, 7, 30):
            xa, xb = rng.standard_normal((n, dim)), 2.0 * rng.standard_normal((n, dim))
            want = wasserstein2_stack(xa[None], xb[None])[0]
            a, b = EmpiricalLaw.from_samples(xa), EmpiricalLaw.from_samples(xb)
            for method in ("exact_1d", "assignment") if dim == 1 else ("assignment",):
                got = wasserstein2(a, b, method)
                assert type(got) is float and got == want

    @pytest.mark.parametrize("dim", [1, 2])
    def test_unequal_atom_counts_rejected(self, dim):
        rng = np.random.default_rng(10)
        a = EmpiricalLaw.from_samples(rng.standard_normal((5, dim)))
        b = EmpiricalLaw.from_samples(rng.standard_normal((6, dim)))
        with pytest.raises(ValueError, match="no exact transport method for 5 vs 6 atoms"):
            wasserstein2(a, b, "assignment")

    def test_sliced_is_an_unknown_method(self):
        a = EmpiricalLaw.from_samples(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="unknown method 'sliced'"):
            wasserstein2(a, a, "sliced")


def _reference_quantile_walk(a: EmpiricalLaw, b: EmpiricalLaw) -> float:
    """The quantile walk of two one-dimensional uniform laws, each atom
    carrying mass 1/n."""
    ia = np.argsort(a.samples[:, 0], kind="stable")
    ib = np.argsort(b.samples[:, 0], kind="stable")
    xa, ca = a.samples[ia, 0], np.cumsum(np.full(a.n_atoms, 1.0 / a.n_atoms))
    xb, cb = b.samples[ib, 0], np.cumsum(np.full(b.n_atoms, 1.0 / b.n_atoms))
    cost, i, j, prev = 0.0, 0, 0, 0.0
    while i < len(xa) and j < len(xb):
        level = min(ca[i], cb[j])
        cost += max(level - prev, 0.0) * (xa[i] - xb[j]) ** 2
        prev = level
        i += ca[i] <= level + 1e-12
        j += cb[j] <= level + 1e-12
    return float(np.sqrt(cost))


class TestSortedFastPath:
    """Equal-size clouds match in sorted order, which is the quantile walk;
    clouds of unequal size are rejected."""

    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_quantile_walk(self, ties):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            xa, xb = rng.standard_normal(n), 3.0 * rng.standard_normal(n) + 0.5
            if ties:
                xa, xb = np.round(xa), np.round(xb)
            a, b = law_1d(xa), law_1d(xb)
            ref = _reference_quantile_walk(a, b)
            assert wasserstein2(a, b, "exact_1d") == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_unequal_clouds_rejected(self):
        rng = np.random.default_rng(6)
        a, b = law_1d(rng.standard_normal(7)), law_1d(rng.standard_normal(9))
        with pytest.raises(ValueError, match="no exact transport method for 7 vs 9 atoms: "
                                             "exact_1d requires equal atom counts"):
            wasserstein2(a, b, "exact_1d")


class TestMeanW2Chain:
    def test_identity_coupling(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((16, 1))
        law = EmpiricalLaw.from_samples(x)
        res = check_mean_w2_bounds(law, law, (x, x))
        assert res == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert res.chain_ok()

    def test_two_diracs(self):
        a, b = law_1d([0.0]), law_1d([1.0])
        res = check_mean_w2_bounds(a, b, (np.zeros((4, 1)), np.ones((4, 1))))
        assert res == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
        assert res.chain_ok()

    def test_crossed_coupling(self):
        a = law_1d([-1.0, 1.0])
        b = law_1d([0.0, 0.0])
        xs = np.array([[-1.0], [1.0]])
        ys = np.array([[0.0], [0.0]])
        res = check_mean_w2_bounds(a, b, (xs, ys))
        assert res.mean_gap == pytest.approx(0.0, abs=1e-12)
        assert res.w2 == pytest.approx(1.0, abs=1e-12)
        assert res.coupling_l2 == pytest.approx(1.0, abs=1e-12)
        assert res.chain_ok(1e-9)

    def test_marginal_mismatch_reported(self):
        a, b = law_1d([0.0]), law_1d([1.0])
        with pytest.raises(ValueError, match="marginals off"):
            check_mean_w2_bounds(a, b, (np.zeros((4, 1)) + 0.3, np.ones((4, 1))))

    def test_no_exact_method_rejected(self):
        # two-dimensional clouds of unequal size: no assignment, no quantiles
        rng = np.random.default_rng(7)
        a = EmpiricalLaw.from_samples(rng.standard_normal((4, 2)))
        b = EmpiricalLaw.from_samples(rng.standard_normal((2, 2)))
        coupling = (a.samples, np.tile(b.samples, (2, 1)))
        with pytest.raises(ValueError, match="no exact transport method"):
            check_mean_w2_bounds(a, b, coupling)

    def test_chain_on_random_pairs(self):
        # permutation couplings have exact marginals; slack 1e-9
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = int(rng.integers(2, 24))
            dim = int(rng.integers(1, 4))
            xs = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0)
            ys = rng.standard_normal((n, dim)) + rng.uniform(-1, 1, size=dim)
            a = EmpiricalLaw.from_samples(xs)
            b = EmpiricalLaw.from_samples(ys)
            perm = rng.permutation(n)
            res = check_mean_w2_bounds(a, b, (xs, ys[perm]))
            assert res.mean_gap <= res.w2 + 1e-9, trial
            assert res.w2 <= res.coupling_l2 + 1e-9, trial


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=1, max_size=12))
def test_mean_gap_lower_bound_property(pairs):
    # unequal clouds are no W2 input, so the two clouds are drawn pairwise
    xs, ys = zip(*pairs)
    a = law_1d(xs)
    b = law_1d(ys)
    gap = abs(float(a.mean[0] - b.mean[0]))
    assert gap <= wasserstein2(a, b, "exact_1d") + 1e-7 * (1.0 + gap)
