"""Empirical probability measures and the 2-Wasserstein distance.

Laws are weighted sample clouds on a flat Euclidean product space.  Exact
transport is available in one dimension (quantile matching, weighted) and for
uniform clouds with equal atom counts (optimal assignment); larger clouds fall
back to a sliced Monte Carlo approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

WEIGHT_TOL = 1e-12
ASSIGNMENT_CAP = 512


@dataclass(frozen=True)
class EmpiricalLaw:
    """Weighted sample cloud with a cached mean."""

    samples: np.ndarray  # (n, dim)
    weights: np.ndarray  # (n,), nonnegative, sums to 1
    cached_mean: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if samples.size == 0:
            raise ValueError("empty measure")
        weights = np.asarray(self.weights, dtype=float).ravel()
        if weights.shape[0] != samples.shape[0]:
            raise ValueError("weights and samples disagree in length")
        if np.any(weights < -WEIGHT_TOL):
            raise ValueError("negative weight")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, not 1")
        weights = np.clip(weights, 0.0, None) / total
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "cached_mean", weights @ samples)

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalLaw":
        """Uniform-weight law over the given sample rows."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.size == 0:
            raise ValueError("empty measure")
        n = samples.shape[0]
        return cls(samples, np.full(n, 1.0 / n))

    @classmethod
    def dirac(cls, point: np.ndarray | float) -> "EmpiricalLaw":
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return cls(point[None, :], np.ones(1))

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.samples.shape[0]

    @property
    def mean(self) -> np.ndarray:
        return self.cached_mean

    def is_uniform(self) -> bool:
        """Whether every atom carries exactly the same weight."""
        return bool(np.all(self.weights == self.weights[0]))

    def translated(self, delta: np.ndarray) -> "EmpiricalLaw":
        delta = np.broadcast_to(np.asarray(delta, dtype=float), (self.dim,))
        return EmpiricalLaw(self.samples + delta[None, :], self.weights)


def _w2_exact_1d(a: EmpiricalLaw, b: EmpiricalLaw) -> float:
    """Weighted quantile matching; exact for one-dimensional laws.  Two
    clouds of equal size with exactly constant weights match in sorted
    order, so their distance is the RMS of the sorted differences."""
    xa = a.samples[:, 0]
    xb = b.samples[:, 0]
    if len(xa) == len(xb) and a.is_uniform() and b.is_uniform():
        gap = np.sort(xa) - np.sort(xb)
        return float(np.sqrt(gap @ gap / len(gap)))
    ia = np.argsort(xa, kind="stable")
    ib = np.argsort(xb, kind="stable")
    xa, wa = xa[ia], a.weights[ia]
    xb, wb = xb[ib], b.weights[ib]
    ca = np.cumsum(wa)
    cb = np.cumsum(wb)
    # walk the merged quantile breakpoints
    cost = 0.0
    i = j = 0
    prev = 0.0
    while i < len(xa) and j < len(xb):
        level = min(ca[i], cb[j])
        seg = level - prev
        if seg > 0:
            cost += seg * (xa[i] - xb[j]) ** 2
        prev = level
        if ca[i] <= level + WEIGHT_TOL:
            i += 1
        if cb[j] <= level + WEIGHT_TOL:
            j += 1
    return float(np.sqrt(max(cost, 0.0)))


def _w2_assignment(a: EmpiricalLaw, b: EmpiricalLaw) -> float:
    """Exact optimal matching for uniform clouds with equal atom counts."""
    if a.n_atoms != b.n_atoms:
        raise ValueError("assignment requires equal atom counts")
    if a.n_atoms > ASSIGNMENT_CAP:
        raise ValueError(f"assignment capped at {ASSIGNMENT_CAP} atoms")
    if not (a.is_uniform() and b.is_uniform()):
        raise ValueError("assignment requires uniform weights")
    diff = a.samples[:, None, :] - b.samples[None, :, :]
    cost = np.sum(diff**2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


# a stack's cost matrices are built this many bytes at a time: 2 MiB was as
# fast but raised the certification runs' peak RSS through the allocator
_COST_BYTES = 2**19


def wasserstein2_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact W2 between the uniform clouds on the rows of a[k] and of b[k],
    for (K, n, dim) stacks of K pairs: one distance per pair, shape (K,).

    One dimension matches in sorted order, the whole stack at once.  Else
    each pair solves its own assignment on a cost |a|^2 + |b|^2 - 2ab^T
    (clipped at 0) built for a sub-stack at a time; the matched costs are
    then taken from the differences themselves, as ``wasserstein2`` does.
    """
    k, n, dim = a.shape
    if b.shape != a.shape:
        raise ValueError(f"stack shapes disagree: {a.shape} vs {b.shape}")
    if dim == 1:
        gap = np.sort(a[..., 0], axis=1) - np.sort(b[..., 0], axis=1)
        return np.sqrt(np.einsum("kn,kn->k", gap, gap) / n)
    if n > ASSIGNMENT_CAP:
        raise ValueError(f"assignment capped at {ASSIGNMENT_CAP} atoms")
    matched = np.empty_like(b)
    step = max(1, _COST_BYTES // (8 * n * n))
    for lo in range(0, k, step):
        sa, sb = a[lo:lo + step], b[lo:lo + step]
        cost = sa @ sb.transpose(0, 2, 1)
        cost *= -2.0
        cost += np.einsum("kni,kni->kn", sa, sa)[:, :, None]
        cost += np.einsum("kni,kni->kn", sb, sb)[:, None, :]
        np.maximum(cost, 0.0, out=cost)
        for j, c in enumerate(cost):
            matched[lo + j] = sb[j, linear_sum_assignment(c)[1]]
    return np.sqrt(np.mean(np.sum((a - matched) ** 2, axis=2), axis=1))


def _w2_sliced(
    a: EmpiricalLaw, b: EmpiricalLaw, projections: int, seed: int
) -> float:
    """Monte Carlo sliced approximation: RMS of 1-d distances over random directions."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(projections):
        direction = rng.standard_normal(a.dim)
        direction /= np.linalg.norm(direction)
        pa = EmpiricalLaw(a.samples @ direction[:, None], a.weights)
        pb = EmpiricalLaw(b.samples @ direction[:, None], b.weights)
        total += _w2_exact_1d(pa, pb) ** 2
    return float(np.sqrt(total / projections))


def wasserstein2(
    a: EmpiricalLaw,
    b: EmpiricalLaw,
    method: str = "exact_1d",
    *,
    projections: int = 64,
    seed: int = 0,
) -> float:
    """2-Wasserstein distance between two sample clouds.

    ``exact_1d`` requires dimension 1 (weights allowed); ``assignment`` solves
    the optimal matching exactly for uniform clouds of equal size up to
    ``ASSIGNMENT_CAP`` atoms; ``sliced`` is a seeded Monte Carlo approximation
    using ``projections`` random directions.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if method == "exact_1d":
        if a.dim != 1:
            raise ValueError("exact_1d requires dimension 1")
        return _w2_exact_1d(a, b)
    if method == "assignment":
        return _w2_assignment(a, b)
    if method == "sliced":
        return _w2_sliced(a, b, projections, seed)
    raise ValueError(f"unknown method {method!r}")


class MeanW2Bounds(NamedTuple):
    """The mean-gap / distance / coupling-cost chain for one pair of laws."""

    mean_gap: float
    w2: float
    coupling_l2: float

    def chain_ok(self, slack: float = 1e-9) -> bool:
        return (
            self.mean_gap <= self.w2 + slack and self.w2 <= self.coupling_l2 + slack
        )


def check_mean_w2_bounds(
    a: EmpiricalLaw,
    b: EmpiricalLaw,
    coupling_samples: tuple[np.ndarray, np.ndarray],
    *,
    marginal_tol: float = 1e-8,
) -> MeanW2Bounds:
    """Mean gap, exact distance, and L2 cost of a supplied coupling.

    ``coupling_samples`` is a pair of equal-length sample arrays whose rows are
    paired draws with marginals ``a`` and ``b``.  Marginal means are verified
    against the laws' means within ``marginal_tol``.  The distance is exact:
    quantile matching in one dimension, else assignment, which needs uniform
    clouds of equal size; other inputs raise ValueError.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    xs = np.atleast_2d(np.asarray(coupling_samples[0], dtype=float))
    ys = np.atleast_2d(np.asarray(coupling_samples[1], dtype=float))
    if xs.shape != ys.shape or xs.shape[1] != a.dim:
        raise ValueError("coupling sample shapes disagree")
    gap_a = float(np.linalg.norm(xs.mean(axis=0) - a.mean))
    gap_b = float(np.linalg.norm(ys.mean(axis=0) - b.mean))
    if gap_a > marginal_tol or gap_b > marginal_tol:
        raise ValueError(
            f"coupling marginals off by ({gap_a:.3e}, {gap_b:.3e}), "
            f"tolerance {marginal_tol:.3e}"
        )
    mean_gap = float(np.linalg.norm(a.mean - b.mean))
    if a.dim == 1:
        w2 = wasserstein2(a, b, "exact_1d")
    elif a.n_atoms == b.n_atoms <= ASSIGNMENT_CAP and a.is_uniform() and b.is_uniform():
        w2 = wasserstein2(a, b, "assignment")
    else:
        raise ValueError("no exact transport method for this input shape")
    coupling_l2 = float(np.sqrt(np.mean(np.sum((xs - ys) ** 2, axis=1))))
    return MeanW2Bounds(mean_gap, w2, coupling_l2)
