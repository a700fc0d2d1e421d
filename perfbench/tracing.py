"""Spans around the public functions of each cyclicfiber module.

`install()` replaces each traced function at the attribute where its callers
look it up (``lp.solve_strict``, ``coherence.circuit_coeffs``,
``subdiv.cells_compatible``, ...) with a wrapper that records a span
``[name, start, end, parent]`` in memory.  Untraced runs never call it.
`layer_metrics()` turns the spans into the per-layer metrics, and `dump()`
writes them out once the repetition has ended.

``cyclic``'s predicates are too fine-grained to wrap without distorting the
timings, so their cost shows as self time of their callers.  ``catalog`` is
data and ``cli`` is bypassed: the benchmark calls what the CLI calls.
"""

from __future__ import annotations

import functools
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.facts: dict[str, list] = {}  # name -> what `keep` kept of each call
        self._stack: list[int] = []

    def wrap(self, fn, name: str, keep=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        facts = self.facts.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if keep is not None:
                facts.append(keep(args, result))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each attribute its callers use."""
    from cyclicfiber import coherence, gale, linalg, lp, paths, subdiv

    def solve_facts(args, res):
        system = args[0]
        values = res.x if isinstance(res, lp.Witness) else res.y
        return (isinstance(res, lp.Certificate), len(system.strict) + len(system.equalities), _bits(values))

    def feasible_facts(args, res):
        return (res is not None, _bits(res or ()))

    def count_result(args, res):
        return len(res)

    plan = [
        # (function, span name, modules whose attribute callers look up, facts)
        (lp.solve_strict, "lp.solve_strict", [lp, coherence], solve_facts),
        (lp.feasible, "lp.feasible", [lp], feasible_facts),
        (lp.verify, "lp.verify", [lp], None),
        (linalg.nullspace, "linalg.nullspace", [linalg, lp, gale], None),
        (gale.circuit_coeffs, "gale.circuit_coeffs", [gale, coherence], None),
        (gale.dependence_basis, "gale.dependence_basis", [gale, coherence], None),
        (coherence.is_regular, "coherence.is_regular", [coherence], None),
        (coherence.regularity_system, "coherence.regularity_system", [coherence], None),
        (coherence.pi_coherence_system, "coherence.pi_coherence_system", [coherence], None),
        (coherence.fiber_face_poset, "coherence.fiber_face_poset", [coherence], None),
        (subdiv.enumerate_triangulations, "subdiv.enumerate_triangulations", [subdiv],
         lambda args, res: (args, len(res))),
        (subdiv.bistellar_flips, "subdiv.bistellar_flips", [subdiv], None),
        (subdiv.enumerate_subdivisions_by_type, "subdiv.enumerate_subdivisions_by_type", [subdiv], None),
        (subdiv.cells_compatible, "subdiv.cells_compatible", [subdiv], lambda args, res: res),
        (subdiv.enumerate_baues_poset, "subdiv.enumerate_baues_poset", [subdiv, coherence],
         lambda args, res: len(res.elements)),
        (subdiv.order_complex_euler, "subdiv.order_complex_euler", [subdiv], None),
        (paths.polytope_edges, "paths.polytope_edges", [paths], None),
        (paths.monotone_edge_paths, "paths.monotone_edge_paths", [paths], count_result),
        (paths.path_coherence_system, "paths.path_coherence_system", [paths], None),
        (paths.coherent_paths_of_general_polytope, "paths.coherent_paths_of_general_polytope",
         [paths], count_result),
    ]
    for fn, name, modules, keep in plan:
        traced = tracer.wrap(fn, name, keep)
        for module in modules:
            if getattr(module, fn.__name__, None) is fn:
                setattr(module, fn.__name__, traced)
    paths.GeneralPolytope.validate = tracer.wrap(paths.GeneralPolytope.validate, "paths.validate")


# The per-layer metrics every traced run reports, in BENCHMARK.json order.
LAYER_METRICS = [
    ("lp.solve_strict.calls", "count"),
    ("lp.solve_strict.self_s", "s"),
    ("lp.solve_strict.ms_p50", "ms"),
    ("lp.solve_strict.certificates", "count"),
    ("lp.solve_strict.rows_in", "count"),
    ("lp.result_bits_max", "bits"),
    ("lp.feasible.calls", "count"),
    ("lp.feasible.self_s", "s"),
    ("lp.feasible.found_frac", "ratio"),
    ("lp.verify.calls", "count"),
    ("lp.verify.self_s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.self_s", "s"),
    ("gale.circuit_coeffs.calls", "count"),
    ("gale.circuit_coeffs.self_s", "s"),
    ("gale.dependence_basis.self_s", "s"),
    ("coherence.system_build.calls", "count"),
    ("coherence.system_build.self_s", "s"),
    ("coherence.is_regular.self_s", "s"),
    ("coherence.fiber_face_poset.self_s", "s"),
    ("subdiv.enumerate_triangulations.self_s", "s"),
    ("subdiv.triangulations", "count"),
    ("subdiv.bistellar_flips.calls", "count"),
    ("subdiv.bistellar_flips.self_s", "s"),
    ("subdiv.enumerate_subdivisions_by_type.calls", "count"),
    ("subdiv.enumerate_subdivisions_by_type.self_s", "s"),
    ("subdiv.cells_compatible.calls", "count"),
    ("subdiv.cells_compatible.self_s", "s"),
    ("subdiv.cells_compatible.true_frac", "ratio"),
    ("subdiv.enumerate_baues_poset.self_s", "s"),
    ("subdiv.baues_elements", "count"),
    ("subdiv.order_complex_euler.self_s", "s"),
    ("paths.polytope_edges.calls", "count"),
    ("paths.polytope_edges.self_s", "s"),
    ("paths.path_coherence_system.self_s", "s"),
    ("paths.validate.self_s", "s"),
    ("paths.monotone_paths", "count"),
    ("paths.coherent_paths", "count"),
]

SYSTEM_FUNCTIONS = ("coherence.regularity_system", "coherence.pi_coherence_system")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times of one traced repetition."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        durations.setdefault(name, []).append(end - start)
    facts = tracer.facts

    def ratio(values) -> float:
        return sum(map(bool, values)) / len(values) if values else 0.0

    solves = facts.get("lp.solve_strict", [])
    found = facts.get("lp.feasible", [])
    special = {
        "lp.solve_strict.ms_p50": 1000 * statistics.median(durations.get("lp.solve_strict", [0.0])),
        "lp.solve_strict.certificates": sum(f[0] for f in solves),
        "lp.solve_strict.rows_in": sum(f[1] for f in solves),
        "lp.result_bits_max": max([f[2] for f in solves] + [f[1] for f in found], default=0),
        "lp.feasible.found_frac": ratio([f[0] for f in found]),
        # pi_coherence_system calls regularity_system: count outermost builds only
        "coherence.system_build.calls": sum(
            1 for name, _, _, parent in spans
            if name in SYSTEM_FUNCTIONS and (parent < 0 or spans[parent][0] not in SYSTEM_FUNCTIONS)
        ),
        "coherence.system_build.self_s": sum(self_s.get(name, 0.0) for name in SYSTEM_FUNCTIONS),
        # enumerate_triangulations is cached: count each (n, d) once
        "subdiv.triangulations": sum(dict(facts.get("subdiv.enumerate_triangulations", [])).values()),
        "subdiv.cells_compatible.true_frac": ratio(facts.get("subdiv.cells_compatible", [])),
        "subdiv.baues_elements": sum(facts.get("subdiv.enumerate_baues_poset", [])),
        "paths.monotone_paths": max(facts.get("paths.monotone_edge_paths", []), default=0),
        "paths.coherent_paths": max(facts.get("paths.coherent_paths_of_general_polytope", []), default=0),
    }

    def value(metric: str) -> float:
        if metric in special:
            return special[metric]
        name, kind = metric.rsplit(".", 1)
        return (calls if kind == "calls" else self_s).get(name, 0)

    return {metric: value(metric) for metric, _ in LAYER_METRICS}
