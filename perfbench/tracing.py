"""Spans and counters for the traced benchmark run.

Each traced layer is a public ``mmfvs`` function.  ``Tracer.install``
replaces every ``mmfvs.*`` module attribute bound to that function object,
because ``extension``, ``oracle``, ``approx``, ``vcsolver`` and ``batch``
import by name: patching only the defining module would miss their inner
calls.  ``Graph.delete``/``induced``/``contract`` share the span name
``graph.derive`` and ``Graph.components`` is ``graph.components``.

A span records its name, start, end and parent (the innermost enclosing
wrapped call).  Spans are closed in ``finally`` so that a deadline's
``SIGALRM`` unwinding through them still ends them.  Self time is a span's
duration minus the time its child spans cover.  Counters are harvested from
the ``SolveReport``s the wrapped solver calls return.  Everything is kept in
memory and written once, at the end, by ``write_spans``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

# (metric prefix, module, attribute) of every wrapped function.
FUNCTIONS = (
    ("graph.is_acyclic_without", "mmfvs.graph", "is_acyclic_without"),
    ("verify.has_private_cycle", "mmfvs.verify", "has_private_cycle"),
    ("verify.partial_minimality_ok", "mmfvs.verify", "partial_minimality_ok"),
    ("verify.members_have_private_cycles", "mmfvs.verify", "members_have_private_cycles"),
    ("verify.private_cycle", "mmfvs.verify", "private_cycle"),
    ("verify.is_minimal_fvs", "mmfvs.verify", "is_minimal_fvs"),
    ("verify.greedy_minimal_fvs", "mmfvs.verify", "greedy_minimal_fvs"),
    ("verify.min_vertex_cover", "mmfvs.verify", "min_vertex_cover"),
    ("extension.solve_extension", "mmfvs.extension", "solve_extension"),
    ("ksolver.solve_k", "mmfvs.ksolver", "solve_k"),
    ("ksolver.opt_exact_solution", "mmfvs.ksolver", "opt_exact_solution"),
    ("vcsolver.solve_vc", "mmfvs.vcsolver", "solve_vc"),
    ("vcsolver.find_connectors", "mmfvs.vcsolver", "find_connectors"),
    ("approx.approx_solve", "mmfvs.approx", "approx_solve"),
    ("batch.run_one", "mmfvs.batch", "run_one"),
    ("instances.generate", "mmfvs.instances", "generate"),
    ("instances.write_instance", "mmfvs.instances", "write_instance"),
    ("instances.parse_instance", "mmfvs.instances", "parse_instance"),
    ("reduction.ppt_mmvc_to_mmfvs", "mmfvs.reduction", "ppt_mmvc_to_mmfvs"),
    ("oracle.opt_mmfvs_brute", "mmfvs.oracle", "opt_mmfvs_brute"),
)

# (span name, Graph method) of the wrapped methods.
METHODS = (
    ("graph.derive", "delete"),
    ("graph.derive", "induced"),
    ("graph.derive", "contract"),
    ("graph.components", "components"),
)

SPAN_NAMES = tuple(dict.fromkeys([f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]))

# Counters harvested from solver reports, then the ratios derived from them
# as (metric, numerator counter, denominator counter or span calls).
COUNTERS = (
    "extension.nodes",
    "extension.completion_failures",
    "extension.fallback_branchings",
    "extension.rule.strip_acyclic_fringe",
    "extension.rule.force_cycle_closers",
    "extension.rule.contract_degree_two_pairs",
    "ksolver.guesses_tried",
    "vcsolver.cover_guesses",
    "vcsolver.comp_partitions",
    "vcsolver.structure_guesses",
    "vcsolver.assignments_tried",
    "vcsolver.guess_rejected_at_verify",
    "vcsolver.forest_check_failures",
    "approx.cover_guesses",
    "approx.wrong_cover_guesses",
    "approx.guess_rejected_at_verify",
)
RATIOS = (
    ("extension.yes_ratio", "extension.yes", "extension.solve_extension.calls"),
    ("ksolver.greedy_shortcut_ratio", "ksolver.greedy_shortcuts", "ksolver.solve_k.calls"),
    ("ksolver.solve_k_per_opt", "ksolver.solve_k_in_opt", "ksolver.opt_exact_solution.calls"),
    ("vcsolver.viable_ratio", "vcsolver.viable_cover_guesses", "vcsolver.cover_guesses"),
    ("approx.greedy_mode_ratio", "approx.greedy_mode", "approx.approx_solve.calls"),
    ("approx.verified_ratio", "approx.verified_guesses", "approx.cover_guesses"),
)
OVERHEAD = "trace.overhead_ratio"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    for name, _, _ in RATIOS:
        units[name] = "ratio"
    units[OVERHEAD] = "ratio"
    return units


def _add(counters: dict[str, float], name: str, value: float) -> None:
    counters[name] = counters.get(name, 0) + value


def _harvest(name: str, result: object, parent: str | None, counters: dict[str, float]) -> None:
    """Fold the counters of one returned solver result into `counters`."""
    if name == "extension.solve_extension":
        _add(counters, "extension.nodes", result.nodes_explored)
        _add(counters, "extension.yes", result.is_yes)
        _add(counters, "extension.completion_failures", result.extras["completion_failures"])
        _add(counters, "extension.fallback_branchings", result.extras["fallback_branchings"])
        for rule, fired in result.reductions_fired.items():
            _add(counters, f"extension.rule.{rule}", fired)
    elif name == "ksolver.solve_k":
        guesses = result.extras["guesses_tried"]
        _add(counters, "ksolver.guesses_tried", guesses)
        _add(counters, "ksolver.greedy_shortcuts", guesses == 0)
        _add(counters, "ksolver.solve_k_in_opt", parent == "ksolver.opt_exact_solution")
    elif name == "vcsolver.solve_vc":
        extras = result[1].extras
        for key in ("cover_guesses", "comp_partitions", "structure_guesses",
                    "assignments_tried", "guess_rejected_at_verify", "forest_check_failures"):
            _add(counters, f"vcsolver.{key}", extras[key])
        _add(counters, "vcsolver.viable_cover_guesses", extras["viable_cover_guesses"])
    elif name == "approx.approx_solve":
        extras = result.report.extras
        _add(counters, "approx.greedy_mode", result.mode == "greedy")
        for key in ("cover_guesses", "wrong_cover_guesses", "guess_rejected_at_verify"):
            _add(counters, f"approx.{key}", extras.get(key, 0))
        _add(counters, "approx.verified_guesses", extras.get("verified_guesses", 0))


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}
        self._active: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers ---------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name)
            _harvest(name, result, parent, tracer.counters)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every mmfvs module attribute bound to a traced function."""
        from mmfvs.graph import Graph

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "mmfvs" or key.startswith("mmfvs."))]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, method in METHODS:
            original = getattr(Graph, method)
            self._patched.append((Graph, method, original))
            setattr(Graph, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> str | None:
        parent = self._stack[-1] if self._stack else -1
        self.span_name.append(self._ids[name])
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        self._stack.append(len(self.span_name) - 1)
        self._child_time.append(0.0)
        self._active[name] = self._active.get(name, 0) + 1
        self.span_start.append(time.perf_counter())
        return self.names[self.span_name[parent]] if parent >= 0 else None

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        idx = self._stack.pop()
        children = self._child_time.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        self._active[name] -= 1
        if not self._active[name]:
            self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + duration
        if self._child_time:
            self._child_time[-1] += duration

    # -- excluding calls that hit the deadline --------------------------------

    def snapshot(self) -> tuple[dict, dict, dict, dict]:
        return (dict(self.calls), dict(self.self_s), dict(self.inclusive_s), dict(self.counters))

    def restore(self, snap: tuple[dict, dict, dict, dict]) -> None:
        self.calls, self.self_s, self.inclusive_s, self.counters = (dict(d) for d in snap)

    # -- results --------------------------------------------------------------

    def counter_section(self) -> dict[str, float]:
        """The deterministic part: call counts, harvested counters, ratios."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        for name, num, den in RATIOS:
            denominator = out.get(den, self.counters.get(den, 0))
            out[name] = self.counters.get(num, 0) / denominator if denominator else 0.0
        return out

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        out = self.counter_section()
        for name in SPAN_NAMES:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out[OVERHEAD] = overhead_ratio
        units = metric_units()
        return {name: out[name] for name in units}

    def write_spans(self, path: Path) -> int:
        """Write all spans as tab-separated lines; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.span_start[0] if self.span_start else 0.0
        with path.open("w") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - base:.9f}\t{self.span_end[i] - base:.9f}\t"
                    f"{self.span_parent[i]}\n"
                )
        return len(self.span_name)
