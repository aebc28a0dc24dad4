"""Sampling-based certification of the coefficient conditions.

"Pass" means no violation was found over a structured sample sweep that always
includes axis-aligned deterministic displacements, random zero-mean
displacements, and mean shifts, at several scales.  Compared ensembles share
atoms (common random numbers), so the monotonicity functional is evaluated on
an explicit coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

# wasserstein2, the per-pair form of wasserstein2_stack, stays importable from
# here: bench/tracing.py wraps it under this name
from .control import _fd_jacobian
from .measure import wasserstein2, wasserstein2_stack  # noqa: F401
from .model import (
    CoefficientSet,
    Dimensions,
    NodeMoments,
    Quad,
    eval_system,
    eval_terminal,
    pairing,
)
from .paths import TimeGrid

VIOLATION_TOL = 1e-9


@dataclass
class Witness:
    """Worst-case sample for one checked inequality."""

    kind: str
    margin: float
    t: float
    scale: float
    detail: str = ""
    base: Quad | None = None
    displacement: Quad | None = None


@dataclass
class AssumptionReport:
    estimated_C: float | None = None
    estimated_gamma: float | None = None
    monotonicity_margin: float | None = None
    alpha1_margin: float | None = None
    passes: dict[str, bool] = field(default_factory=dict)
    witnesses: list[Witness] = field(default_factory=list)
    samples_used: int = 0

    @property
    def ok(self) -> bool:
        return all(self.passes.values())

    def text(self) -> str:
        lines = []
        for key, value in sorted(self.passes.items()):
            lines.append(f"{key}: {'pass' if value else 'FAIL'}")
        if self.estimated_C is not None:
            lines.append(f"C_hat = {self.estimated_C:.6g}")
        if self.estimated_gamma is not None:
            lines.append(f"gamma_hat = {self.estimated_gamma:.6g}")
        if self.monotonicity_margin is not None:
            lines.append(f"monotonicity_margin = {self.monotonicity_margin:.6g}")
        if self.alpha1_margin is not None:
            lines.append(f"terminal_margin = {self.alpha1_margin:.6g}")
        lines.append(f"samples_used = {self.samples_used}")
        for w in self.witnesses[:4]:
            lines.append(
                f"witness[{w.kind}] margin={w.margin:.6g} t={w.t:.3g} "
                f"scale={w.scale:.3g} {w.detail}"
            )
        return "\n".join(lines)

    def kv(self) -> dict[str, str]:
        out = {f"pass.{k}": str(v).lower() for k, v in self.passes.items()}
        for key in ("estimated_C", "estimated_gamma", "monotonicity_margin",
                    "alpha1_margin"):
            val = getattr(self, key)
            if val is not None:
                out[key] = format(float(val), ".17g")
        out["samples_used"] = str(self.samples_used)
        return out


# Pairs are drawn and evaluated in stacks of this many, through the maps'
# node-stack contract with one pair per node: blocks (M, K, ...), the K pair
# times and the K per-pair means.  A fixed size bounds the memory of a stack.
PAIR_CHUNK = 256

KINDS = ("axis", "random", "deterministic", "mean_shift", "decoupled")
# the kinds whose v2 is an increasing affine image of v1, atom by atom (a
# translation, or rho v1 + c with rho > 0): matching the atoms in order is an
# optimal coupling (Brenier; Villani 2009, Thm 5.10), so their W2 needs no
# assignment
COUPLED_KINDS = ("axis", "deterministic", "mean_shift")

Pair = tuple[float, Quad, Quad, str, float]


class PairStack(NamedTuple):
    """K coupled pairs: their times (K,), v1 and v2 = v1 + dv as (M, K, ...)
    stacks, and each pair's kind and scale."""

    t: np.ndarray
    v1: Quad
    v2: Quad
    kinds: np.ndarray
    scales: np.ndarray

    def pair(self, k: int) -> Pair:
        """Pair k on its own: (t, v1, v2, kind, scale), blocks (M, ...)
        copied out, so a witness does not keep the whole stack alive."""
        v1, v2 = (Quad(*(b[:, k].copy() for b in v)) for v in (self.v1, self.v2))
        return float(self.t[k]), v1, v2, str(self.kinds[k]), float(self.scales[k])

    def select(self, keep: np.ndarray | slice) -> "PairStack":
        """The pairs at the indices, mask or slice ``keep``, in order."""
        v1, v2 = (Quad(*(b[:, keep] for b in v)) for v in (self.v1, self.v2))
        return PairStack(self.t[keep], v1, v2, self.kinds[keep], self.scales[keep])


@dataclass
class PairSampler:
    """Structured generator of coupled ensemble pairs (v1, v2 = v1 + dv).
    Pair idx has kind ``KINDS[idx % 5]`` and scale ``scales[(idx // 5) % 3]``
    (for three scales); every call restarts from ``seed``."""

    dims: Dimensions
    atoms: int = 64
    seed: int = 0
    t_max: float = 1.0
    scales: tuple[float, ...] = (0.25, 1.0, 3.0)

    def _random_stack(self, rng: np.random.Generator, scale: np.ndarray) -> Quad:
        m, k = self.atoms, scale.size
        return Quad(*(
            scale.reshape(1, k, *(1,) * len(s)) * rng.standard_normal((m, k, *s))
            for s in self.dims.shapes
        ))

    def _axes(self) -> list[tuple[str, tuple]]:
        """(block, entry) of every coordinate: y_i, Y_i, then z_ij, Z_ij."""
        d, widths = self.dims.d, (("z", self.dims.d_b), ("Z", self.dims.d_w))
        return ([(block, (i,)) for i in range(d) for block in "yY"]
                + [(block, (i, j)) for i in range(d) for block, w in widths
                   for j in range(w)])

    def _draw(self, rng: np.random.Generator, idx: np.ndarray,
              axes: list[tuple[str, tuple]]) -> PairStack:
        """The pairs ``idx``, drawn by the same batched RNG calls whatever
        their kinds.  dv is, by kind: one block entry moved alike on every
        atom (axis), a zero-mean cloud (random), one random row on every atom
        (deterministic), (rho - 1) v1 plus such a row with rho in [0.3, 1.7]
        (mean_shift), or an independent cloud minus v1 (decoupled)."""
        k, kind = idx.size, idx % len(KINDS)
        scale = np.asarray(self.scales, float)[(idx // len(KINDS)) % len(self.scales)]
        t = rng.uniform(0.0, self.t_max, k)
        base, other = self._random_stack(rng, scale), self._random_stack(rng, scale)
        step = scale * rng.choice([-1.0, 1.0], k)
        step *= rng.uniform(0.5, 2.0, k)
        rho = rng.uniform(0.3, 1.7, k)
        axis, rand, det, shift, dec = (np.flatnonzero(kind == j) for j in range(5))
        dv = Quad(*(np.zeros_like(b) for b in base))
        for b, o, out in zip(base, other, dv):
            out[:, rand] = o[:, rand] - o[:, rand].mean(axis=0)
            out[:, det] = o[:1, det]
            gain = (rho[shift] - 1.0).reshape(1, -1, *(1,) * (b.ndim - 2))
            out[:, shift] = gain * b[:, shift] + o[:1, shift]
            out[:, dec] = o[:, dec] - b[:, dec]
        which = idx[axis] % len(axes)
        for a, (block, pos) in enumerate(axes):
            sel = axis[which == a]
            getattr(dv, block)[(slice(None), sel, *pos)] = step[sel]
        for b, out in zip(base, dv):  # dv becomes v2 = v1 + dv
            out += b
        return PairStack(t, base, dv, np.array(KINDS)[kind], scale)

    def stacks(self, n_pairs: int) -> Iterator[PairStack]:
        """The first ``n_pairs`` pairs in stacks of PAIR_CHUNK.  Each stack is
        drawn whole and the last one then cut short, so the first n pairs are
        a prefix of the first n' > n."""
        rng = np.random.default_rng(self.seed)
        axes = self._axes()
        for start in range(0, n_pairs, PAIR_CHUNK):
            idx = np.arange(start, start + PAIR_CHUNK)
            yield self._draw(rng, idx, axes).select(slice(0, n_pairs - start))

    def pairs(self, n_pairs: int) -> Iterator[Pair]:
        """The same pairs one at a time: (t, v1, v2, kind, scale)."""
        for stack in self.stacks(n_pairs):
            for k in range(stack.t.size):
                yield stack.pair(k)


def _sq_norms(dv: Quad) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.sum(dv.y**2, axis=-1),
        np.sum(dv.Y**2, axis=-1),
        np.sum(dv.z**2, axis=(-2, -1)),
        np.sum(dv.Z**2, axis=(-2, -1)),
    )


def _particle_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the atoms (axis 0) of an (M, K, ...) stack, shape (K, ...).
    Each pair is reduced along its own contiguous row, so its mean does not
    depend on the other pairs of the stack.  The sum over the row divided by
    M is ``mean``'s own rule, without its per-call overhead."""
    rows = np.ascontiguousarray(x.transpose(*range(1, x.ndim), 0))
    return np.add.reduce(rows, axis=-1) / x.shape[0]


def _moments(v: Quad) -> NodeMoments:
    """Per-pair first moments (K, flat) of an (M, K, ...) stack."""
    k = v.y.shape[1]
    return NodeMoments(
        np.concatenate([_particle_mean(b).reshape(k, -1) for b in v], axis=1)
    )


def _terminal(coeffs: CoefficientSet, y: np.ndarray, law: NodeMoments) -> np.ndarray:
    """h on a stack of y blocks against the y-part of the per-pair moments."""
    return eval_terminal(coeffs, y, NodeMoments(law.mean[:, : coeffs.dims.d]))


@dataclass
class LipschitzEstimate:
    c_hat: float
    gamma_hat: float
    violations: list[Witness]
    gamma_ok: bool = True
    samples_used: int = 0


def estimate_lipschitz(
    coeffs: CoefficientSet,
    sampler: PairSampler,
    n_pairs: int = 2000,
) -> LipschitzEstimate:
    """Empirical Lipschitz constants of the coefficient maps.

    C_hat is the largest observed ratio for the drift pair (f, F) jointly and
    for the terminal map; gamma_hat is the smallest weight that closes the
    squared bounds for the two noise maps once the C_hat part is subtracted.
    A sample needing gamma >= 1/2 is recorded as a violation.

    Point and measure arguments are independent in the bound, so each
    distinct pair (v1, v2) with laws (mu1, mu2) gives three samples: the
    coupled displacement A(v2, mu2) - A(v1, mu1), the point-only one
    A(v2, mu1) - A(v1, mu1) and the measure-only one A(v1, mu2) - A(v1, mu1).
    The four evaluations are made once per stack of pairs.
    """
    eps = 1e-12
    c_hat = 0.0
    # per stack: its pairs' times, kinds and scales, and for G and for g the
    # (lhs, C block, gamma block) terms of the three samples of each pair,
    # shape (2, 3, M, K, 3), kept for gamma once C_hat is final
    stacks = []
    for stack in sampler.stacks(n_pairs):
        flat1, flat2 = stack.v1.flat(), stack.v2.flat()
        distinct = ~np.isclose(flat1, flat2).all(axis=(0, 2))
        if not distinct.any():
            continue
        stack = stack.select(distinct)
        t, v1, v2 = stack.t, stack.v1, stack.v2
        # W2 takes (K, M, dim) stacks: pairs first
        w2 = wasserstein2_stack(flat1[:, distinct].swapaxes(0, 1),
                                flat2[:, distinct].swapaxes(0, 1),
                                in_order=np.isin(stack.kinds, COUPLED_KINDS))
        w2y = wasserstein2_stack(v1.y.swapaxes(0, 1), v2.y.swapaxes(0, 1))
        del flat1, flat2
        mu1, mu2 = _moments(v1), _moments(v2)
        a11 = eval_system(coeffs, t, v1, mu1)
        h11 = _terminal(coeffs, v1.y, mu1)
        norms = _sq_norms(Quad(v2.y - v1.y, v2.Y - v1.Y, v2.z - v1.z, v2.Z - v1.Z))
        zero = np.zeros_like(norms[0])
        terms = np.empty((2, 3, *zero.shape, 3))
        samples = (
            (v2, mu2, norms, w2, w2y),
            (v2, mu1, norms, zero[0], zero[0]),
            (v1, mu2, (zero,) * 4, w2, w2y),
        )
        for j, (v, mu, (ny, n_big_y, nz, n_big_z), dist, dist_y) in enumerate(samples):
            a2 = eval_system(coeffs, t, v, mu)
            num = np.sqrt(np.sum((a2[0] - a11[0]) ** 2, axis=-1)
                          + np.sum((a2[2] - a11[2]) ** 2, axis=-1))
            den = np.sqrt(ny + n_big_y + nz + n_big_z) + dist
            mask = den > eps
            if np.any(mask):
                c_hat = max(c_hat, float(np.max(num[mask] / den[mask])))
            num_h = np.linalg.norm(_terminal(coeffs, v.y, mu) - h11, axis=-1)
            den_h = np.sqrt(ny) + dist_y
            mask = den_h > eps
            if np.any(mask):
                c_hat = max(c_hat, float(np.max(num_h[mask] / den_h[mask])))
            # (y, Y, z) carries the C part of G, (y, Y, Z) that of g
            terms[0, ..., j] = (np.sum((a2[3] - a11[3]) ** 2, axis=(-2, -1)),
                                ny + n_big_y + nz, n_big_z + dist**2)
            terms[1, ..., j] = (np.sum((a2[1] - a11[1]) ** 2, axis=(-2, -1)),
                                ny + n_big_y + n_big_z, nz + dist**2)
        stacks.append((t, stack.kinds, stack.scales, terms))

    if not stacks:
        raise ValueError("degenerate sampler: no distinct pairs produced")
    gamma_hat = 0.0
    violations: list[Witness] = []
    for times, kinds, scales, terms in stacks:
        needs, has = [], []
        for lhs, c_block, gamma_block in terms:
            mask = gamma_block > eps
            ratio = np.divide(
                np.clip(lhs - c_hat * c_block, 0.0, None), gamma_block,
                out=np.full(lhs.shape, -np.inf), where=mask,
            )
            needs.append(ratio.max(axis=0))
            has.append(mask.any(axis=0))
        # (K, 3 samples, 2 labels): the order the samples were drawn in
        need, has = np.stack(needs, axis=-1), np.stack(has, axis=-1)
        if np.any(has):
            gamma_hat = max(gamma_hat, float(np.max(need[has])))
        for k, sample, label in np.argwhere(has & (need >= 0.5)):
            tag = str(kinds[k]) + ("", "/points", "/laws")[sample]
            value = float(need[k, sample, label])
            violations.append(
                Witness(
                    kind=f"lipschitz_{'Gg'[label]}",
                    margin=value,
                    t=float(times[k]),
                    scale=float(scales[k]),
                    detail=f"{tag} displacement needs gamma={value:.4g}",
                )
            )
    return LipschitzEstimate(
        c_hat=c_hat,
        gamma_hat=gamma_hat,
        violations=violations,
        gamma_ok=gamma_hat < 0.5,
        samples_used=3 * sum(s[0].size for s in stacks),
    )


def _monotonicity_margins(
    coeffs: CoefficientSet,
    t: np.ndarray,
    v1: Quad,
    v2: Quad,
    theta1: float,
    theta2: float,
    alpha1: float,
    direction: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(coupling margin, terminal margin) of each pair of a stack: ``t``
    holds the K pair times and v1, v2 are (M, K, ...) stacks, each pair under
    its own empirical moments.  Both margins have shape (K,)."""
    law1, law2 = _moments(v1), _moments(v2)
    a1 = eval_system(coeffs, t, v1, law1)
    a2 = eval_system(coeffs, t, v2, law2)
    dv = Quad(v1.y - v2.y, v1.Y - v2.Y, v1.z - v2.z, v1.Z - v2.Z)
    # pairing uses (F, f, G, g) order against (y, Y, z, Z)
    da = (a1[2] - a2[2], a1[0] - a2[0], a1[3] - a2[3], a1[1] - a2[1])
    functional = _particle_mean(pairing(da, dv))
    ny, n_big_y, nz, n_big_z = (_particle_mean(s) for s in _sq_norms(dv))
    theta_quad = theta1 * (ny + nz) + theta2 * (n_big_y + n_big_z)
    dh = _terminal(coeffs, v1.y, law1) - _terminal(coeffs, v2.y, law2)
    h_pair = _particle_mean(np.sum(dh * dv.y, axis=-1))
    if direction == "A2":
        return functional + theta_quad, alpha1 * ny - h_pair
    # A2_prime: functional >= +theta quad, terminal pairing <= -alpha1
    return theta_quad - functional, h_pair + alpha1 * ny


# the local search's iterations, one candidate each
LOCAL_STEPS = 150

def _local_search(
    margins: Callable[[np.ndarray, Quad, Quad], tuple[np.ndarray, np.ndarray]],
    worst: Witness,
    seed: int,
) -> Witness:
    """Random ascent on the coupling margin from the witness ``worst``;
    ``margins(t, v1, v2)`` gives a stack's (coupling, terminal) margins.

    Iteration i proposes v2 + step * noise_i, with fresh standard normal
    noise, and takes it if its margin beats the incumbent's; else the step
    shrinks by 0.8.  The iterations run as speculative stacks: a batch of w
    candidates assumes all are rejected, so candidate j carries the step
    after j rejections, and the first to beat the incumbent is taken with
    the rest dropped.  A batch holds one candidate after an acceptance and
    twice the last one after none.  Each pair is evaluated on its own row of
    the stack, so the result is that of one candidate at a time.
    """
    rng = np.random.default_rng(seed)
    v1, v2 = worst.base, worst.displacement
    # all iterations' noise in one draw, each row split into the blocks in
    # the order y, Y, z, Z (the stream of one draw per block per iteration),
    # then laid out as (M, LOCAL_STEPS, ...) stacks
    ends = np.cumsum([b.size for b in v2])
    rows = np.split(rng.standard_normal((LOCAL_STEPS, int(ends[-1]))), ends[:-1], axis=1)
    noise = [np.ascontiguousarray(n.reshape(LOCAL_STEPS, *b.shape).swapaxes(0, 1))
             for n, b in zip(rows, v2)]
    step, done, width, accepted, detail = worst.scale, 0, 1, 0, worst.detail
    while done < LOCAL_STEPS:
        w = min(width, LOCAL_STEPS - done)
        # the steps after 0, 1, ..., w rejections, multiplied one at a time
        steps = [step]
        for _ in range(w):
            steps.append(steps[-1] * 0.8)
        sizes = np.array(steps[:w])
        cand = Quad(*(b[:, None] + sizes.reshape(w, *(1,) * (b.ndim - 1))
                      * n[:, done:done + w] for b, n in zip(v2, noise)))
        base = Quad(*(np.repeat(b[:, None], w, axis=1) for b in v1))
        margin = margins(np.full(w, worst.t), base, cand)[0]
        better = np.flatnonzero(margin > worst.margin)
        if better.size == 0:
            step, done, width = steps[w], done + w, 2 * width
            continue
        j = int(better[0])
        v2 = Quad(*(b[:, j].copy() for b in cand))
        accepted += 1
        worst = Witness(
            kind=worst.kind, margin=float(margin[j]), t=worst.t, scale=worst.scale,
            detail=f"{detail}+local({accepted})", base=v1, displacement=v2,
        )
        step, done, width = steps[j], done + j + 1, 1
    return worst


def check_monotonicity(
    coeffs: CoefficientSet,
    theta1: float,
    theta2: float,
    alpha1: float,
    direction: str = "A2",
    sampler: PairSampler | None = None,
    n_pairs: int = 10000,
    local_search: bool = False,
) -> AssumptionReport:
    """Sign check of the coupling functional against the damped quadratic.

    ``A2`` demands E[(dA, dv)] <= -theta1 E[|dy|^2 + |dz|^2]
    - theta2 E[|dY|^2 + |dZ|^2] together with the terminal lower bound on
    alpha1; ``A2_prime`` reverses both inequalities.  Margins are suprema over
    the sampled pairs, evaluated a stack of pairs at a time; each witness is
    the first pair in sampler order attaining its supremum.  Positive margin
    beyond tolerance is a violation.

    ``local_search`` then climbs from the coupling witness: LOCAL_STEPS
    random perturbations of its v2, seeded by ``sampler.seed + 1``, each kept
    if it raises the margin, with a step that starts at the witness's scale
    and shrinks by 0.8 after each rejection (``_local_search``, which runs
    them as speculative stacks).  A climbed witness's detail is the start
    witness's plus "+local(n)", n the number of accepted steps.
    """
    if direction not in ("A2", "A2_prime"):
        raise ValueError(f"bad direction {direction!r}")
    if theta1 < 0 or theta2 < 0:
        raise ValueError("theta1, theta2 must be nonnegative")
    if theta1 + theta2 <= 0:
        raise ValueError("need theta1 + theta2 > 0")
    if alpha1 + theta2 <= 0:
        raise ValueError("need alpha1 + theta2 > 0")
    sampler = sampler or PairSampler(coeffs.dims)

    def margins(t: np.ndarray, v1: Quad, v2: Quad) -> tuple[np.ndarray, np.ndarray]:
        return _monotonicity_margins(coeffs, t, v1, v2, theta1, theta2, alpha1, direction)

    # (coupling, terminal): supremum so far and the first pair attaining it
    sups = [-np.inf, -np.inf]
    found: list[Witness | None] = [None, None]
    used = 0
    for stack in sampler.stacks(n_pairs):
        used += stack.t.size
        for j, (label, margin) in enumerate(
            zip(("coupling", "terminal"), margins(stack.t, stack.v1, stack.v2))
        ):
            i = int(np.argmax(margin))
            if margin[i] > sups[j]:
                t_i, v1, v2, kind, scale = stack.pair(i)
                sups[j] = float(margin[i])
                found[j] = Witness(
                    kind=f"{direction}_{label}",
                    margin=sups[j],
                    t=t_i,
                    scale=scale,
                    detail=kind,
                    base=v1,
                    displacement=v2,
                )
    margin_sup, margin_h_sup = sups
    worst, worst_h = found

    if local_search and worst is not None:
        worst = _local_search(margins, worst, sampler.seed + 1)
        margin_sup = max(margin_sup, worst.margin)

    tol = VIOLATION_TOL * (1.0 + margin_sup if np.isfinite(margin_sup) else 1.0)
    ok_coupling = margin_sup <= tol
    ok_terminal = margin_h_sup <= tol
    report = AssumptionReport(
        monotonicity_margin=float(margin_sup),
        alpha1_margin=float(margin_h_sup),
        passes={
            f"{direction}.coupling": bool(ok_coupling),
            f"{direction}.terminal": bool(ok_terminal),
        },
        witnesses=[w for w in (worst, worst_h) if w is not None],
        samples_used=used,
    )
    return report


@dataclass
class IntegrabilityReport:
    ok: bool
    offending_nodes: list[int] = field(default_factory=list)
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_integrability(
    coeffs: CoefficientSet,
    grid: TimeGrid,
) -> IntegrabilityReport:
    """Finiteness and square-summability of t -> A(t, v, law) at fixed probes."""
    dims = coeffs.dims
    probes = [Quad.zeros(1, dims)]
    ones = Quad.zeros(1, dims)
    ones.y[:] = 1.0
    ones.Y[:] = -1.0
    ones.z[:] = 0.5
    ones.Z[:] = -0.5
    probes.append(ones)
    offending: list[int] = []
    message = ""
    total = 0.0
    for k, t in enumerate(grid.nodes):
        for probe in probes:
            try:
                law = NodeMoments.of(probe.flat())
                f, g, big_f, big_g = eval_system(coeffs, float(t), probe, law)
            except Exception as exc:  # non-finite or misshapen
                offending.append(k)
                message = message or str(exc)
                break
            total += (
                float(np.sum(f**2) + np.sum(g**2) + np.sum(big_f**2) + np.sum(big_g**2))
                * grid.dt
            )
    try:
        probe_y = np.ones((1, dims.d))
        eval_terminal(coeffs, probe_y, NodeMoments.of(probe_y))
    except Exception as exc:
        offending.append(grid.steps)
        message = message or str(exc)
    ok = bool(not offending and np.isfinite(total))
    return IntegrabilityReport(ok=ok, offending_nodes=sorted(set(offending)), message=message)


def check_control_assumptions(problem, sampler: PairSampler | None = None,
                              n_pairs: int = 2000) -> AssumptionReport:
    """Control-side certification: noise-derivative caps, first-moment
    derivative caps, and the sign-dispatched coupling condition.

    ``problem`` is a control problem exposing paper-form dynamics, the declared
    gamma/theta/alpha constants, and the terminal coefficient c.  The coupling
    condition is checked on the canonicalized coefficient map at frozen probe
    controls, on ``n_pairs`` sampled pairs; c = 0 is rejected.
    """
    if problem.c == 0:
        raise ValueError("A6 requires c != 0")
    dims = problem.dims
    sampler = sampler or PairSampler(dims, seed=11)
    gamma = problem.gamma
    report = AssumptionReport(samples_used=0)
    report.passes["gamma_below_cap"] = bool(0.0 < gamma < 1.0 / 6.0)

    # largest squared derivative of g and G over 40 random probes of four
    # particles: in a point block, the square of the Jacobian's spectral norm
    # per particle; in a mean block, sum_j max_m |d_j|^2 (the first-moment
    # caps on the measure argument)
    rng = np.random.default_rng(101)
    u_mid = problem.control_box_center()
    u = np.broadcast_to(u_mid, (4, problem.d_u)).copy()
    caps = dict.fromkeys(("z", "Z", "mz", "mZ"), 0.0)
    for _ in range(40):
        v = Quad(*(rng.standard_normal((4, *shape)) for shape in dims.shapes))
        law = NodeMoments.of(v.flat())
        t = float(rng.uniform(0.0, problem.grid.horizon))
        for fn in (problem.dynamics.g, problem.dynamics.G):
            for block in caps:
                jac = _fd_jacobian(fn, t, v, u, law, block, dims, problem.d_u)
                if block.startswith("m"):
                    sq = np.sum(np.max(np.sum(jac**2, axis=1), axis=0))
                else:
                    sq = np.max(np.linalg.norm(jac, ord=2, axis=(1, 2))) ** 2
                caps[block] = max(caps[block], float(sq))
    report.passes["noise_z_derivative"] = bool(caps["z"] < gamma)
    report.passes["noise_Z_derivative"] = bool(caps["Z"] < gamma)
    report.estimated_gamma = max(caps["z"], caps["Z"])
    report.passes["lderivative_caps"] = bool(max(caps["mz"], caps["mZ"]) < gamma / 3.0)

    direction = "A2" if problem.c > 0 else "A2_prime"
    frozen_u = np.broadcast_to(u_mid, (problem.grid.steps + 1, problem.d_u))
    mono = check_monotonicity(
        problem.coefficients_for(frozen_u),
        problem.theta1,
        problem.theta2,
        problem.alpha1,
        direction=direction,
        sampler=sampler,
        n_pairs=n_pairs,
    )
    report.passes.update({f"A6.{k}": v for k, v in mono.passes.items()})
    report.monotonicity_margin = mono.monotonicity_margin
    report.alpha1_margin = mono.alpha1_margin
    report.witnesses.extend(mono.witnesses)
    report.samples_used = mono.samples_used
    return report
