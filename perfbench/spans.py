"""Span tracing of flowkit from the outside.

The tracer wraps public flowkit functions for the duration of a traced
pass and unwraps them afterwards; flowkit itself is not modified.  A
wrapper must replace the function at every name a caller looks it up by:
the defining module's attribute, every ``from ... import`` binding in the
other flowkit modules, and the values of ``solvers.ALGORITHMS``.
:meth:`Tracer.install` finds those names by identity, so a new binding in
flowkit is wrapped without a change here.

Spans are kept in memory as ``[name, start, end, parent, record]`` and
written out when the run ends.  Counters are read from return values
(``MaxflowResult.stats``, the length of ``HMaxflowResult.trace``, ...).
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# module -> functions that get a span; the span is named "<module>.<function>"
TRACED = {
    "cli": ("main",),
    "network": ("read_dimacs", "build_network", "validate", "write_flow", "net_flow"),
    "solvers": ("edmonds_karp", "push_relabel", "hochbaum_maxflow"),
    "decompose": ("min_cut_from_flow", "decompose", "recover_flow"),
    "lp": ("solve_standard", "simplex_solve", "build_primal", "build_dual"),
    "simplicial": ("hmaxflow_lp", "hmaxflow_augment", "find_augmenting_cycle", "read_hnet"),
    "apps": ("segment_image", "image_from_pgm", "perfect_matching", "max_disjoint_chains",
             "read_poset"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

COUNTERS = ("network.arcs", "network.gadget_vertices",
            "solvers.ek.augmentations", "solvers.pr.pushes", "solvers.pr.relabels",
            "solvers.hoch.iterations", "decompose.components",
            "lp.solve_standard.calls", "lp.constraint_cells", "simplicial.augmentations")

MAXIMA = ("solvers.flow_max_bits", "lp.max_bits")


def bits(x):
    """Largest numerator or denominator bit length of a rational."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _flow_bits(result):
    return max([bits(result.value)] + [bits(x) for x in result.flow.raw.values()])


def _solver(*keys):
    def count(tracer, bound, result):
        for key, stat in keys:
            tracer.counters[key] += result.stats[stat]
        tracer.raise_max("solvers.flow_max_bits", _flow_bits(result))
    return count


def _solve_standard(tracer, bound, result):
    args = bound.arguments
    tracer.counters["lp.solve_standard.calls"] += 1
    rows = len(args.get("ub_rows", ())) + len(args.get("eq_rows", ()))
    tracer.counters["lp.constraint_cells"] += rows * len(args["objective"])
    _, point = result
    if point:
        tracer.raise_max("lp.max_bits", max(bits(x) for x in point))


def _build_network(tracer, bound, result):
    tracer.counters["network.arcs"] += result.m
    tracer.counters["network.gadget_vertices"] += len(result.gadget_vertices)


def _decompose(tracer, bound, result):
    tracer.counters["decompose.components"] += len(result)


def _augment(tracer, bound, result):
    tracer.counters["simplicial.augmentations"] += len(result.trace or ())


COUNT_HOOKS = {
    "solvers.edmonds_karp": _solver(("solvers.ek.augmentations", "augmentations")),
    "solvers.push_relabel": _solver(("solvers.pr.pushes", "pushes"),
                                    ("solvers.pr.relabels", "relabels")),
    "solvers.hochbaum_maxflow": _solver(("solvers.hoch.iterations", "iterations")),
    "network.build_network": _build_network,
    "decompose.decompose": _decompose,
    "lp.solve_standard": _solve_standard,
    "simplicial.hmaxflow_augment": _augment,
}


class Tracer:
    """Collects spans and counters while installed; one per traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.record = -1           # index of the operation being run
        self.counters = Counter()
        self.maxima = {}
        self._patches = []

    def raise_max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _wrap(self, name, fn):
        hook = COUNT_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.record]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook:
                hook(self, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function at every name that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "flowkit" or name.startswith("flowkit."))}
        wrappers = {}
        for short, functions in TRACED.items():
            mod = modules[f"flowkit.{short}"]
            for fn_name in functions:
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{fn_name}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    self._patches.append((vars(mod), attr, value))
                    setattr(mod, attr, hit[1])
        table = modules["flowkit.solvers"].ALGORITHMS
        for key, value in list(table.items()):
            hit = wrappers.get(id(value))
            if hit and hit[0] is value:
                self._patches.append((table, key, value))
                table[key] = hit[1]

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches = []

    def snapshot(self):
        """Counters and maxima gathered since the last snapshot."""
        out = {key: self.counters.get(key, 0) for key in COUNTERS}
        out.update({key: self.maxima.get(key, 0) for key in MAXIMA})
        self.counters = Counter()
        self.maxima = {}
        return out

    def self_times(self, weight):
        """Self time per span name, each span scaled by ``weight[record]``.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, record in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, parent, record) in enumerate(self.spans):
            totals[name] += (end - start - children[i]) * weight[record]
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("record\tname\tparent\tstart\tend\n")
            for name, start, end, parent, record in self.spans:
                handle.write(f"{record}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")
