"""Outside-in tracer: wraps the library's public functions from the
benchmark, records one span per call and derives per-layer metrics.

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory and summarised when the run ends.  A span's self time is its
duration minus the time covered by its child spans; calls are strictly
nested in one thread, so that is the sum of the children's durations.

The layers are the library modules.  ``cli`` is only imported, so
``run.py`` reports its import time itself.

Element-wise vector helpers (``linalg.add``, ``linalg.dot``, ...) are not
wrapped: they run millions of times and their cost lands in the self time
of their callers.
"""

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

FUNCTIONS = {
    "linalg": ("rank", "solve_in_basis", "invert", "solve_square"),
    "rootsystem": ("build_root_system", "reflect", "pairing", "to_simple_root_coords",
                   "from_simple_root_coords", "cartan_matrix"),
    "weylorbit": ("orbit", "orbit_words", "fundamental_weight", "apply_chain"),
    "minuscule": ("is_minuscule", "cube_normal_form", "saturation_progressions",
                  "minuscule_catalog"),
    "affgeom": ("Configuration", "collinear_triple_count", "no_three_collinear",
                "detect_e7_config", "separation_partition"),
    "frobmodel": ("build_delta", "t_eta_count", "sum_set", "invariant_level_sets",
                  "recover_lambda_sq", "line_set", "b_set", "fiber_constancy_check",
                  "e7_fiber_projection_check"),
    "serialize": ("eigenset_from_json",),
    "report": ("SuiteReport.to_json",),
    "suites": ("catalog_suite", "verify_e7_suite", "fiber_constancy_suite",
               "e7_projection_suite", "frobmodel_suite"),
}

# useful outcomes counted where the work happens: metric name -> test on the result
OUTCOMES = {
    "affgeom.no_three_collinear": ("witness_ratio", lambda r: r[0] is False),
    "affgeom.detect_e7_config": ("found_ratio", lambda r: r is not None),
    "minuscule.is_minuscule": ("true_ratio", lambda r: r is True),
}


class Tracer:
    """Spans of the wrapped functions while installed.  ``install`` and
    ``uninstall`` only swap attributes, so the tracer can be switched on
    and off around single requests."""

    def __init__(self):
        self.names = []
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.raised = bytearray()
        self.hits = Counter()
        self._stack = []
        self._patches = self._plan()

    def _wrap(self, name, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        raised, stack, hits = self.raised, self._stack, self.hits
        outcome = OUTCOMES.get(name, (None, None))[1]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            raised.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                raised[idx] = 1
                stack.pop()
                raise
            ends[idx] = clock()
            stack.pop()
            if outcome is not None and outcome(result):
                hits[name] += 1
            return result

        return traced

    def _plan(self):
        """(owner, attribute, original, wrapper) for each listed function in
        every library namespace that binds it, so calls through ``from .x
        import f`` bindings are seen too.  Classes are traced through
        ``__init__``, methods on their class."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "microweight" or n.startswith("microweight.")]
        patches = []
        for layer, fns in FUNCTIONS.items():
            module = importlib.import_module(f"microweight.{layer}")
            for fn in fns:
                name = f"{layer}.{fn}"
                owner_name, _, method = fn.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    orig = vars(owner)[method]
                    patches.append((owner, method, orig, self._wrap(name, orig)))
                    continue
                orig = getattr(module, fn)
                if isinstance(orig, type):
                    init = vars(orig)["__init__"]
                    patches.append((orig, "__init__", init, self._wrap(name, init)))
                    continue
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            patches.append((mod, attr, orig, wrapper))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def metrics(self, passes=1):
        """Per-layer and per-function figures, divided by ``passes`` so that
        they read per replay of the workload's request list."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls, self_s, raised = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.ids[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - covered[i]
            raised[name] += self.raised[i]
        out = {}
        for layer in FUNCTIONS:
            members = [f"{layer}.{fn}" for fn in FUNCTIONS[layer]]
            out[f"{layer}.calls"] = (sum(calls[k] for k in members) / passes, "count")
            out[f"{layer}.self_s"] = (sum(self_s[k] for k in members) / passes, "s")
            out[f"{layer}.raised"] = (sum(raised[k] for k in members) / passes, "count")
        for layer, fns in FUNCTIONS.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = (calls[name] / passes, "count")
                out[f"{name}.self_s"] = (self_s[name] / passes, "s")
        for name, (ratio, _) in OUTCOMES.items():
            out[f"{name}.{ratio}"] = (self.hits[name] / calls[name] if calls[name] else 0.0,
                                      "ratio")
        return out
