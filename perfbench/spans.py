"""Spans and counts recorded from outside the vrlat package.

The traced worker replaces public functions of vrlat's modules with
wrappers, at every module attribute that names them (so `vrlat.cli.build_flag`
and `vrlat.complexes.build_flag` both go through the same wrapper).  Each
wrapped call records a span (name, layer, start, end, parent) in memory.
Counts that describe what a layer did are derived at the same boundaries
from the arguments and results, never from the package's internals:

* betti_z2: the reducer's pivots follow from the rank recursion
  r_0 = 1, r_{d+1} = f_d - r_d - b_d; dimension d has f_d columns, and the
  columns cleared there are the pivots of dimension d + 1, r_{d+1}.
* smith_diagonal: columns are counted as the reducer drains them; a call
  repeats when its (complex, dim) pair was already reduced in the same
  pass; invariant factors other than 1 are counted as non-unit.

Nothing under src/ is edited; the wrappers exist only in the traced
process.
"""

import itertools
import json
import resource
import weakref
from collections import Counter
from time import perf_counter_ns

LAYERS = ("setfam", "complexes", "homology", "formulas", "cli")

# functions traced per layer; setfam.dist and order_cmp are left out on
# purpose: they run once per vertex pair and their spans would cost more
# than the work they time
_TRACED = {
    "setfam": ("gen_uniform", "gen_prefix", "gen_union", "complement_map",
               "fix_element_subfamily"),
    "complexes": ("build_flag",),
    "homology": ("betti_z2", "homology_integer", "smith_diagonal",
                 "euler_characteristic"),
    "cli": ("run_verify", "_compute_entry", "emit_report"),
}

# per-layer metric name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "setfam.family_s": "s",
    "complexes.build_s": "s",
    "complexes.simplices": "count",
    "complexes.build_rss_mb": "MB",
    "homology.z2_s": "s",
    "homology.z2_columns": "count",
    "homology.z2_pivots": "count",
    "homology.z2_cleared": "count",
    "homology.z2_useful_frac": "ratio",
    "homology.int_s": "s",
    "homology.snf_s": "s",
    "homology.snf_calls": "count",
    "homology.snf_cols": "count",
    "homology.snf_repeat_frac": "ratio",
    "homology.snf_nonunit": "count",
    "formulas.s": "s",
    "formulas.calls": "count",
    "cli.overhead_s": "s",
    "cli.report_s": "s",
    "trace_overhead_frac": "ratio",
}

# counts that must repeat exactly between passes and between runs
EXACT_COUNTS = (
    "complexes.simplices",
    "homology.z2_columns",
    "homology.z2_pivots",
    "homology.z2_cleared",
    "homology.snf_calls",
    "homology.snf_cols",
    "homology.snf_nonunit",
    "formulas.calls",
)


def z2_counts(f_vector, betti) -> tuple[int, int, int]:
    """(columns, pivots, cleared) of one betti_z2 call, from its result.

    betti_z2 reduces dimensions top..1 with top = min(complete_through + 1,
    max_dim); the rank recursion gives r_1..r_top from the reduced Betti
    numbers b_0..b_{top-1}.
    """
    top = min(betti.complete_through + 1, len(f_vector) - 1)
    ranks = [1 if f_vector[0] else 0]
    for d in range(top):
        ranks.append(f_vector[d] - ranks[d] - betti.values[d])
    columns = sum(f_vector[1:top + 1])
    pivots = sum(ranks[1:top + 1])
    cleared = sum(ranks[2:top + 1])
    return columns, pivots, cleared


class Tracer:
    """In-memory span recorder with per-pass counts.

    Recording is off until a pass starts, so set-up and the bench's own
    correctness checks leave no spans.
    """

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent]
        self._stack: list[int] = []
        self._int_complexes: list = []  # complexes of open homology_integer calls
        self._serial = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._pass_start = 0
        self.counts = Counter()
        self._snf_seen: set = set()

    # -- recording -------------------------------------------------------

    def _call(self, name, layer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, layer, perf_counter_ns(), 0, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        hook = getattr(self, f"_hook_{fn.__name__}", None)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if hook is not None:
                return hook(name, layer, fn, args, kwargs)
            return self._call(name, layer, fn, args, kwargs)

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _hook_build_flag(self, name, layer, fn, args, kwargs):
        k = self._call(name, layer, fn, args, kwargs)
        self.counts["complexes.simplices"] += sum(k.f_vector)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.counts["build_rss_kb"] = max(self.counts["build_rss_kb"], rss)
        return k

    def _hook_betti_z2(self, name, layer, fn, args, kwargs):
        bv = self._call(name, layer, fn, args, kwargs)
        k = args[0] if args else kwargs["k"]
        columns, pivots, cleared = z2_counts(k.f_vector, bv)
        self.counts["homology.z2_columns"] += columns
        self.counts["homology.z2_pivots"] += pivots
        self.counts["homology.z2_cleared"] += cleared
        return bv

    def _hook_homology_integer(self, name, layer, fn, args, kwargs):
        self._int_complexes.append(args[0] if args else kwargs["k"])
        try:
            return self._call(name, layer, fn, args, kwargs)
        finally:
            self._int_complexes.pop()

    def _hook_smith_diagonal(self, name, layer, fn, args, kwargs):
        columns = args[0] if args else kwargs.pop("columns")
        drained = 0

        def counted():
            nonlocal drained
            for col in columns:
                drained += 1
                yield col

        snf = self._call(name, layer, fn, (counted(), *args[1:]), kwargs)
        dim = args[1] if len(args) > 1 else kwargs.get("dim", 0)
        key = None
        if self._int_complexes:
            k = self._int_complexes[-1]
            if k not in self._serial:
                self._serial[k] = next(self._serials)
            key = (self._serial[k], dim)
        self.counts["homology.snf_calls"] += 1
        self.counts["homology.snf_cols"] += drained
        self.counts["snf_repeats"] += key is not None and key in self._snf_seen
        self.counts["homology.snf_nonunit"] += sum(1 for v in snf.diag if v != 1)
        self._snf_seen.add(key)
        return snf

    # -- passes ----------------------------------------------------------

    def begin_pass(self) -> None:
        self.counts = Counter()
        self._snf_seen = set()
        self._pass_start = len(self.spans)
        self.active = True

    def end_pass(self) -> dict:
        """Per-layer metrics of the pass since begin_pass."""
        self.active = False
        spans = self.spans[self._pass_start:]
        base = self._pass_start
        child_ns = [0] * len(spans)
        for s in spans:
            if s[4] >= base:
                child_ns[s[4] - base] += s[3] - s[2]
        self_ns = Counter()
        incl_ns = Counter()
        calls = Counter()
        for s, inner in zip(spans, child_ns):
            dur = s[3] - s[2]
            self_ns[s[1]] += dur - inner
            incl_ns[s[0]] += dur
            calls[s[1]] += 1
        c = self.counts
        useful_base = c["homology.z2_columns"] - c["homology.z2_cleared"]
        out = {
            "setfam.family_s": self_ns["setfam"] / 1e9,
            "complexes.build_s": self_ns["complexes"] / 1e9,
            "complexes.simplices": c["complexes.simplices"],
            "complexes.build_rss_mb": c["build_rss_kb"] / 1024,
            "homology.z2_s": incl_ns["homology.betti_z2"] / 1e9,
            "homology.z2_columns": c["homology.z2_columns"],
            "homology.z2_pivots": c["homology.z2_pivots"],
            "homology.z2_cleared": c["homology.z2_cleared"],
            "homology.z2_useful_frac": (
                c["homology.z2_pivots"] / useful_base if useful_base else 0.0
            ),
            "homology.int_s": incl_ns["homology.homology_integer"] / 1e9,
            "homology.snf_s": incl_ns["homology.smith_diagonal"] / 1e9,
            "homology.snf_calls": c["homology.snf_calls"],
            "homology.snf_cols": c["homology.snf_cols"],
            "homology.snf_repeat_frac": (
                c["snf_repeats"] / c["homology.snf_calls"]
                if c["homology.snf_calls"] else 0.0
            ),
            "homology.snf_nonunit": c["homology.snf_nonunit"],
            "formulas.s": self_ns["formulas"] / 1e9,
            "formulas.calls": calls["formulas"],
            "cli.overhead_s": (
                self_ns["cli"] - incl_ns["cli.emit_report"]
            ) / 1e9,
            "cli.report_s": incl_ns["cli.emit_report"] / 1e9,
        }
        out["self_s"] = {layer: self_ns[layer] / 1e9 for layer in (*LAYERS, "bench")}
        return out

    def span(self, name: str, fn, *args):
        """Record a bench-level span (layer "bench") around fn(*args)."""
        return self._call(name, "bench", fn, args, {})

    def dump(self, path) -> None:
        """Write every span as [name, start_ns, end_ns, parent] rows."""
        rows = [[s[0], s[2], s[3], s[4]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def install(tracer: Tracer, vrlat_modules) -> None:
    """Route every traced function through the tracer's wrappers.

    vrlat_modules maps a layer name to its module; the package itself may
    be given under any other key.  Every attribute of every given module
    that is the original function is replaced, so callers that imported a
    function by name are traced too.
    """
    originals = []
    for layer, names in _TRACED.items():
        originals += [(layer, getattr(vrlat_modules[layer], n)) for n in names]
    formulas = vrlat_modules["formulas"]
    originals += [
        ("formulas", fn)
        for attr, fn in sorted(vars(formulas).items())
        if not attr.startswith("_")
        and callable(fn)
        and not isinstance(fn, type)
        and getattr(fn, "__module__", None) == formulas.__name__
    ]
    for layer, fn in originals:
        wrapper = tracer.wrap(layer, fn)
        for mod in vrlat_modules.values():
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
