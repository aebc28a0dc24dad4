"""Traced runs: timing wrappers around the package's public functions.

Each wrapper is installed where its caller looks the name up: ``solver``
imports ``residual`` by name, so the wrapper goes on ``solver.residual``;
``control`` imports ``continuation_solve`` and ``picard_solve``, so those go on
``control``.  Methods are wrapped on their class.  Coefficient maps are
wrapped as each ``CoefficientSet`` is built, which covers the sets the
control layer builds per solve.

Spans (kind, start, end, parent) are kept in flat arrays in memory and
written once, at the end.  Self times are derived from them afterwards.
Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from mvfbdsde import assumptions, control, measure, model, paths, solver

# (module, attribute, span name).  Several entries share a span name when
# callers look one function up in different modules.
SPANS = (
    (paths, "sample_driver_pair", "paths.sample"),
    (solver, "linear_base_solve", "solver.base"),
    (solver, "solve_decoupled_step", "solver.step"),
    (solver, "d_metric", "solver.metric"),
    (solver, "moment_ode_oracle", "solver.oracle"),
    (solver, "residual", "model.residual"),
    (measure, "wasserstein2", "measure.w2"),
    (assumptions, "wasserstein2", "measure.w2"),
    (control, "first_order_candidate", "control.candidate"),
    (control, "verify_smp", "control.verify"),
    (control, "solve_state", "control.state"),
    (control, "solve_adjoint", "control.adjoint"),
    (control, "estimate_cost", "control.cost"),
    (control, "mean_control_gradient", "control.gradient"),
    (control, "hamiltonian", "control.hamiltonian"),
)
METHOD_SPANS = ((model.EnsembleState, "node_laws", "model.laws"),)
METHOD_COUNTS = (
    (solver.RegressionConfig, "features", "solver.features_calls"),
    (measure.EmpiricalLaw, "__post_init__", "measure.law_builds"),
)
COEF_MAPS = ("f", "g", "F", "G", "h")

# per-layer metric -> the span name whose total time per round it is
TIMES = {
    "solver.base_s": "solver.base",
    "solver.step_s": "solver.step",
    "solver.metric_s": "solver.metric",
    "solver.oracle_s": "solver.oracle",
    "model.laws_s": "model.laws",
    "model.coef_s": "model.coef",
    "model.residual_s": "model.residual",
    "measure.w2_s": "measure.w2",
    "assumptions.monotonicity_s": "assumptions.monotonicity",
    "assumptions.lipschitz_s": "assumptions.lipschitz",
    "control.candidate_s": "control.candidate",
    "control.verify_s": "control.verify",
    "control.state_s": "control.state",
    "control.adjoint_s": "control.adjoint",
    "control.gradient_s": "control.gradient",
    "control.hamiltonian_s": "control.hamiltonian",
}
# per-layer metric -> the span name whose calls per round it counts
CALLS = {
    "solver.step_calls": "solver.step",
    "model.coef_calls": "model.coef",
    "model.residual_calls": "model.residual",
    "measure.w2_calls": "measure.w2",
    "control.state_solves": "control.state",
    "control.hamiltonian_calls": "control.hamiltonian",
}
COUNTS = (
    "solver.features_calls",
    "measure.law_builds",
    "solver.picard_iters",
    "solver.rungs",
    "solver.halvings",
    "assumptions.pairs",
)
DERIVED = ("paths.sample_s", "solver.sweep_s", "control.cost_s")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, sorted by name."""
    names = [(m, "s") for m in (*TIMES, *DERIVED)]
    names += [(m, "count") for m in (*CALLS, *COUNTS)]
    return sorted(names)


def ladder_halvings(report, delta: float) -> int:
    """Step halvings behind an accepted ladder, replayed from its rung alphas.

    ``continuation_solve`` targets min(1, alpha + step) and halves the step on
    each failed rung, so each accepted alpha fixes how often it was halved.
    """
    step, prev, halvings = delta, 0.0, 0
    for rung in report.alpha_ladder[1:]:
        while min(1.0, prev + step) > rung.alpha + 1e-12:
            step /= 2.0
            halvings += 1
        prev = rung.alpha
    return halvings


class Tracer:
    """Installs the wrappers, records spans and counts, derives the metrics."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _kind(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, fn, name: str, on_result=None):
        kind_id = self._kind(name)
        kind, start, end, parent, stack = self.kind, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if on_result is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(kind)
            kind.append(kind_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, signature.bind(*args, **kwargs).arguments)
            return result

        wrapper.traced = True
        return wrapper

    def counting(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- report fields ------------------------------------------------------

    def _ladder_report(self, result, arguments) -> None:
        self.counts["solver.picard_iters"] += result.iterations
        self.counts["solver.rungs"] += len(result.alpha_ladder) - 1
        self.counts["solver.halvings"] += ladder_halvings(result, arguments["delta"])

    def _picard_report(self, result, arguments) -> None:
        self.counts["solver.picard_iters"] += result.iterations

    def _pairs(self, result, arguments) -> None:
        self.counts["assumptions.pairs"] += result.samples_used

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for module, attr, name in SPANS:
            self._patch(module, attr, self.span(getattr(module, attr), name))
        for module, attr, name, on_result in (
            (assumptions, "check_monotonicity", "assumptions.monotonicity", self._pairs),
            (assumptions, "estimate_lipschitz", "assumptions.lipschitz", self._pairs),
            # the ladder workload calls solver.continuation_solve; solve_state
            # calls control.continuation_solve and solve_adjoint
            # control.picard_solve
            (solver, "continuation_solve", "solver.continuation", self._ladder_report),
            (control, "continuation_solve", "solver.continuation", self._ladder_report),
            (control, "picard_solve", "solver.picard", self._picard_report),
        ):
            self._patch(module, attr, self.span(getattr(module, attr), name, on_result))
        for cls, attr, name in METHOD_SPANS:
            self._patch(cls, attr, self.span(cls.__dict__[attr], name))
        for cls, attr, name in METHOD_COUNTS:
            self._patch(cls, attr, self.counting(cls.__dict__[attr], name))
        span = self.span
        original = model.CoefficientSet.__post_init__

        def post_init(coeffs) -> None:
            original(coeffs)
            for attr in COEF_MAPS:
                fn = getattr(coeffs, attr)
                if not getattr(fn, "traced", False):
                    object.__setattr__(coeffs, attr, span(fn, "model.coef"))

        self._patch(model.CoefficientSet, "__post_init__", post_init)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- derivation ---------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to measure from: spans recorded and counts so far."""
        return len(self.kind), Counter(self.counts)

    def metrics(self, setup_end: tuple, measured: tuple, rounds: int) -> dict[str, dict]:
        """Per-layer metrics per round over the spans recorded since
        ``measured``; driver sampling is taken from the set-up spans."""
        kind = np.array(self.kind, dtype=np.int16)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        first = measured[0]
        in_run = np.arange(kind.size) >= first

        def ids(name):
            return self.names.index(name) if name in self.names else -1

        def total(name, mask=in_run):
            return float(dur[mask & (kind == ids(name))].sum())

        def within(outer, inner_names):
            """Time of ``inner_names`` spans whose parent is an ``outer`` span."""
            has_parent = in_run & (parent >= 0)
            parent_kind = np.full(kind.size, -1)
            parent_kind[has_parent] = kind[parent[has_parent]]
            inner = np.isin(kind, [ids(n) for n in inner_names])
            return float(dur[has_parent & inner & (parent_kind == ids(outer))].sum())

        values: dict[str, float] = {}
        for metric, name in TIMES.items():
            values[metric] = total(name) / rounds
        for metric, name in CALLS.items():
            values[metric] = int(np.count_nonzero(in_run & (kind == ids(name)))) // rounds
        counts = self.counts - measured[1]
        for metric in COUNTS:
            values[metric] = counts[metric] // rounds
        values["paths.sample_s"] = total("paths.sample", np.arange(kind.size) < setup_end[0])
        values["solver.sweep_s"] = (
            total("solver.step") - within("solver.step", ("model.laws", "model.coef"))
        ) / rounds
        values["control.cost_s"] = (
            total("control.cost") - within("control.cost", ("control.state",))
        ) / rounds
        units = dict(per_layer_names())
        return {m: {"value": values[m], "unit": units[m]} for m, _ in per_layer_names()}

    def write(self, path: Path, **extra) -> None:
        """All spans in one compressed file: kind ids with their names,
        start and end clock readings, parent span index (-1 at top level)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            kind=np.array(self.kind, dtype=np.int16),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            **{k: np.asarray(v) for k, v in extra.items()},
        )
