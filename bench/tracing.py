"""Spans and counts for the traced run, recorded from the benchmark's side.

The tracer replaces public functions by wrappers for the duration of one
run, wraps the callbacks of each built ``EnergyProblem``, and keeps every
span in memory: name, start, end, parent span and level.  Nothing in
``src/`` is changed; the wrappers are removed when the run ends.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import hpmin.problems
import hpmin.solver

import workloads

# (module, attribute, span name): the set-up functions as bound in
# hpmin.problems, the mesh generators and problem builders as bound in the
# benchmark, and the solver's collaborators as bound in hpmin.solver.
PATCHES = (
    (workloads, "make_lshape", "mesh.build"),
    (workloads, "make_perforated_square", "mesh.build"),
    (workloads, "plaplace_problem", "problems"),
    (workloads, "neohooke_problem", "problems"),
    (hpmin.problems, "rule_for_degree", "quadrature.rule"),
    (hpmin.problems, "tabulate", "basis.tabulate"),
    (hpmin.problems, "geometry_factors", "mesh.geometry"),
    (hpmin.problems, "build_dofmap", "dofmap.build"),
    (hpmin.problems, "sparsity_pattern", "dofmap.pattern"),
    (hpmin.solver, "greedy_coloring", "fd.coloring"),
    (hpmin.solver, "hessian_fd", "fd.hessian"),
    (hpmin.solver, "steihaug_cg", "solver.cg"),
)

NAME, START, END, PARENT, LEVEL = range(5)


class _CountingOperator:
    """Counts the products ``H @ x`` that Steihaug CG asks of the Hessian."""

    def __init__(self, H, tracer):
        self._H = H
        self._tracer = tracer

    def __matmul__(self, x):
        self._tracer.count("solver.cg_matvecs")
        return self._H @ x


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (level, name) -> count
        self.level = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter(), math.nan,
                  self._stack[-1] if self._stack else -1, self.level]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1):
        self.counts[self.level, name] += n

    def wrap(self, fn, name: str, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every name in PATCHES for the duration of the block."""
        hooks = {"fd.coloring": self._record_colors,
                 "solver.cg": self._record_cg_exit}
        self._originals = [(module, attr, getattr(module, attr))
                           for module, attr, _ in PATCHES]
        try:
            for (module, attr, fn), (_, _, name) in zip(self._originals, PATCHES):
                if name == "solver.cg":
                    fn = self._counting_cg(fn)
                setattr(module, attr, self.wrap(fn, name, hooks.get(name)))
            yield self
        finally:
            for module, attr, original in self._originals:
                setattr(module, attr, original)

    def _counting_cg(self, steihaug_cg):
        def counting_cg(H, *args, **kwargs):
            return steihaug_cg(_CountingOperator(H, self), *args, **kwargs)
        return counting_cg

    def _record_colors(self, colored):
        self.counts[self.level, "fd.n_colors"] = colored.n_groups

    def _record_cg_exit(self, result):
        self.count("solver.cg_boundary_exits", int(result[1]))

    def restored(self) -> bool:
        """Whether every patched name is the original function object again."""
        return all(getattr(module, attr) is original
                   for module, attr, original in self._originals)

    def instrument(self, problem):
        """The problem with its energy and gradient callbacks traced."""
        def on_energy(value):
            if not math.isfinite(value):
                self.count("solver.barrier_rejections")

        fields = {"energy": self.wrap(problem.energy, "energy.energy", on_energy),
                  "gradient": self.wrap(problem.gradient, "energy.gradient")}
        if problem.gradient_fd is not None:
            fields["gradient_fd"] = self.wrap(problem.gradient_fd,
                                              "fd.central_grad")
        return replace(problem, **fields)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def spans_as_dicts(self, workload: str) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "workload": workload, "level": s[LEVEL]}
                for s in self.spans]


def solver_trace(tracer: Tracer, level, gradient_span: str) -> dict:
    """Iterations, acceptances and rejections of one level's ``minimize``,
    read from the order of its direct children.

    After the initial energy and gradient, every iteration makes one trial
    energy call, and an accepted trial is followed by one gradient call.
    """
    [root] = [i for i, s in enumerate(tracer.spans)
              if s[NAME] == "solver.minimize" and s[LEVEL] == level]
    names = [s[NAME] for s in tracer.spans if s[PARENT] == root]
    trials = [i for i, n in enumerate(names) if n == "energy.energy"][1:]
    accepted = sum(i + 1 < len(names) and names[i + 1] == gradient_span
                   for i in trials)
    return {"iterations": len(trials), "accepted": accepted,
            "rejected": len(trials) - accepted}


def level_totals(tracer: Tracer) -> dict:
    """Per level: span counts (``name.calls``), total time (``name.s``) and
    self time (``name.self_s``) for every span name, plus the counters."""
    totals: dict = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        t = totals[s[LEVEL]]
        t[s[NAME] + ".calls"] += 1
        t[s[NAME] + ".s"] += s[END] - s[START]
        t[s[NAME] + ".self_s"] += self_s
    for (level, name), n in tracer.counts.items():
        totals[level][name] += n
    return totals
