"""Empirical probability measures and the 2-Wasserstein distance.

A law is the uniform cloud on its sample rows, in a flat Euclidean product
space, and two laws are compared only when they hold equally many atoms:
then an optimal transport plan is a matching of the rows, found exactly by
sorting in one dimension and by optimal assignment (up to ``ASSIGNMENT_CAP``
atoms) in more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import NodeMoments

ASSIGNMENT_CAP = 512
MARGINAL_TOL = 1e-8  # check_mean_w2_bounds' tolerance on the coupling's means


@dataclass(frozen=True)
class EmpiricalLaw:
    """Uniform sample cloud with its mean, computed once: the input of the
    W2 distance and of the mean-bound check (coefficient maps read
    ``model.NodeMoments``, whose mean rule this shares)."""

    samples: np.ndarray  # (n, dim)
    mean: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if samples.size == 0:
            raise ValueError("empty measure")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "mean", NodeMoments.of(samples).mean)

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalLaw":
        """Uniform law over the given sample rows."""
        return cls(samples)

    @classmethod
    def dirac(cls, point: np.ndarray | float) -> "EmpiricalLaw":
        return cls(np.atleast_1d(np.asarray(point, dtype=float))[None, :])

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.samples.shape[0]


# a stack's cost matrices are built this many bytes at a time: 2 MiB was as
# fast but raised the certification runs' peak RSS through the allocator
_COST_BYTES = 2**19


def wasserstein2_stack(
    a: np.ndarray, b: np.ndarray, in_order: np.ndarray | None = None
) -> np.ndarray:
    """Exact W2 between the uniform clouds on the rows of a[k] and of b[k],
    for (K, n, dim) stacks of K pairs: one distance per pair, shape (K,).

    One dimension matches in sorted order, the whole stack at once.  Else
    each pair solves its own assignment on a cost |a|^2 + |b|^2 - 2ab^T
    (clipped at 0) built for a sub-stack at a time; the matched costs are
    then taken from the differences themselves.  The pairs flagged in the
    (K,) mask ``in_order`` are known to be optimally matched row for row
    (b[k] an increasing affine image of a[k]): they skip the assignment, and
    their distance is the RMS of the differences.
    """
    k, n, dim = a.shape
    if b.shape != a.shape:
        raise ValueError(f"stack shapes disagree: {a.shape} vs {b.shape}")
    if dim == 1:
        gap = np.sort(a[..., 0], axis=1) - np.sort(b[..., 0], axis=1)
        return np.sqrt(np.einsum("kn,kn->k", gap, gap) / n)
    if n > ASSIGNMENT_CAP:
        raise ValueError(f"assignment capped at {ASSIGNMENT_CAP} atoms")
    # imported on use: scipy.optimize is most of the package's import time
    from scipy.optimize import linear_sum_assignment

    # matched shares b's layout, so the final reduction sums each pair in
    # the same order whichever pairs were assigned
    matched = np.empty_like(b)
    if in_order is None:
        todo = np.arange(k)
    else:
        np.copyto(matched, b, where=in_order[:, None, None])
        todo = np.flatnonzero(~in_order)
    step = max(1, _COST_BYTES // (8 * n * n))
    for lo in range(0, todo.size, step):
        rows = todo[lo:lo + step]
        sa, sb = a[rows], b[rows]
        cost = sa @ sb.transpose(0, 2, 1)
        cost *= -2.0
        cost += np.einsum("kni,kni->kn", sa, sa)[:, :, None]
        cost += np.einsum("kni,kni->kn", sb, sb)[:, None, :]
        np.maximum(cost, 0.0, out=cost)
        for j, c in zip(rows, cost):
            matched[j] = b[j, linear_sum_assignment(c)[1]]
    return np.sqrt(np.mean(np.sum((a - matched) ** 2, axis=2), axis=1))


def wasserstein2(a: EmpiricalLaw, b: EmpiricalLaw, method: str = "exact_1d") -> float:
    """Exact 2-Wasserstein distance between two uniform clouds of equal size,
    the one-pair form of ``wasserstein2_stack``.

    ``exact_1d`` requires dimension 1; ``assignment`` takes any dimension,
    with at most ``ASSIGNMENT_CAP`` atoms in more than one.
    """
    if method not in ("exact_1d", "assignment"):
        raise ValueError(f"unknown method {method!r}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if method == "exact_1d" and a.dim != 1:
        raise ValueError("exact_1d requires dimension 1")
    if a.n_atoms != b.n_atoms:
        raise ValueError(
            f"no exact transport method for {a.n_atoms} vs {b.n_atoms} atoms: "
            f"{method} requires equal atom counts"
        )
    return float(wasserstein2_stack(a.samples[None], b.samples[None])[0])


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
) -> MeanW2Bounds:
    """Mean gap, exact distance, and L2 cost of a supplied coupling.

    ``coupling_samples`` is a pair of equal-length sample arrays whose rows are
    paired draws with marginals ``a`` and ``b``.  Marginal means are verified
    against the laws' means within ``MARGINAL_TOL``.  The distance is
    ``wasserstein2``'s, so laws of unequal size raise ValueError.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    xs = np.atleast_2d(np.asarray(coupling_samples[0], dtype=float))
    ys = np.atleast_2d(np.asarray(coupling_samples[1], dtype=float))
    if xs.shape != ys.shape or xs.shape[1] != a.dim:
        raise ValueError("coupling sample shapes disagree")
    gap_a = float(np.linalg.norm(xs.mean(axis=0) - a.mean))
    gap_b = float(np.linalg.norm(ys.mean(axis=0) - b.mean))
    if gap_a > MARGINAL_TOL or gap_b > MARGINAL_TOL:
        raise ValueError(
            f"coupling marginals off by ({gap_a:.3e}, {gap_b:.3e}), "
            f"tolerance {MARGINAL_TOL:.3e}"
        )
    mean_gap = float(np.linalg.norm(a.mean - b.mean))
    w2 = wasserstein2(a, b, "exact_1d" if a.dim == 1 else "assignment")
    coupling_l2 = float(np.sqrt(np.mean(np.sum((xs - ys) ** 2, axis=1))))
    return MeanW2Bounds(mean_gap, w2, coupling_l2)
