"""Per-layer tracing installed from outside the package.

`Tracer.install` replaces each public function of interest in every module
namespace that holds it (``from .units import fundamental_unit`` binds a
separate name in dnumbers, dplus and fusion), and the QuadInt arithmetic
and ordering methods on the class.  Every wrapped call adds to a call count
and to its layer's self time: the call's duration minus the time spent in
wrapped calls beneath it.  Calls outside `HOT` also leave a span (name, id,
parent span, item, start, end) in memory; the hot QuadInt methods run
10^5-10^6 times a run, so they keep only the count and summed time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

SIEVE_BOUND = 10**6
MAX_SPANS = 200_000

# metric prefix -> QuadInt methods aggregated under it
QUADINT_GROUPS = {
    "quadring.arith": ("__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__pow__"),
    "quadring.order": ("sign", "__lt__", "__le__", "__gt__", "__ge__", "__eq__"),
}
# (metric prefix, module, public function); the prefix is also the layer
FUNCTIONS = (
    ("quadring.order", "quadring", "sign"),
    ("quadring.order", "quadring", "compare"),
    ("quadring.exact_divide", "quadring", "exact_divide"),
    ("quadring.compare_values", "quadring", "compare_values"),
    ("quadring.factorize", "quadring", "factorize"),
    ("units.fundamental_unit", "units", "fundamental_unit"),
    ("units.cf_expand", "units", "cf_expand"),
    ("dnumbers.canonical_factor", "dnumbers", "canonical_factor"),
    ("dnumbers.evaluate", "dnumbers", "evaluate"),
    ("dnumbers.generator_set", "dnumbers", "generator_set"),
    ("dplus.enumerate_all", "dplus", "enumerate_all"),
    ("dplus.enumerate_field", "dplus", "enumerate_field"),
    ("dplus.in_dplus", "dplus", "in_dplus"),
    ("fusion.decompose_global_dim", "fusion", "decompose_global_dim"),
    ("fusion.refine_simple_dims", "fusion", "refine_simple_dims"),
    ("fusion.kronecker_screen", "fusion", "kronecker_screen"),
    ("cli.main", "cli", "main"),
)
# the metrics whose counts _on_result reads off a call's result
HOOKED = {"quadring.factorize", "units.fundamental_unit", "dplus.enumerate_field",
          "fusion.decompose_global_dim", "fusion.refine_simple_dims", "cli.main"}
HOT = {"quadring.arith", "quadring.order", "quadring.exact_divide",
       "quadring.compare_values", "units.fundamental_unit", "units.cf_expand",
       "dplus.in_dplus", "dnumbers.generator_set"}
LAYERS = ("quadring", "units", "dnumbers", "dplus", "fusion", "cli")


def _field_n(arg) -> int:
    return arg if isinstance(arg, int) else arg.N


class Tracer:
    """Counts, self times and spans of one traced pass."""

    def __init__(self):
        self.reset()
        self._stack: list[list[float]] = []  # child time of each open call
        self._span_stack: list[int] = []
        self.item = None  # id of the item in progress, stamped on its spans

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct_n: set[int] = set()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_id = 0
        self._adopted = _empty_snapshot()

    def adopt(self, snap: dict) -> None:
        """Add what a forked child recorded to this pass."""
        _merge(self._adopted, snap)

    # -- result hooks: work counts read off what a layer returned ----------

    def _on_result(self, name: str, args, out) -> None:
        if name == "quadring.factorize":
            if any(p > SIEVE_BOUND for p in out):
                self.counts["quadring.factorize.beyond_sieve"] += 1
        elif name == "units.fundamental_unit":
            self.distinct_n.add(_field_n(args[0]))
        elif name == "dplus.enumerate_field":
            if out:
                self.counts["dplus.fields_with_members"] += 1
        elif name == "fusion.decompose_global_dim":
            self.counts["fusion.candidates_scanned"] += out.candidates_scanned
        elif name == "fusion.refine_simple_dims":
            self.counts["fusion.profiles"] += len(out)
        elif name == "cli.main":
            if out == 3:
                self.counts["cli.exit_3"] += 1

    def wrap(self, key: str, fn):
        spans = key not in HOT
        hooked = key in HOOKED
        stack, span_stack = self._stack, self._span_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if spans:
                span_id = self._next_id
                self._next_id += 1
                parent = span_stack[-1] if span_stack else None
                span_stack.append(span_id)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except self._limit_error:
                if key == "quadring.factorize":
                    self.counts["quadring.factorize.failed"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self.calls[key] += 1
                self.self_s[key] += elapsed - frame[0]
                self.total_s[key] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if spans:
                    span_stack.pop()
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((key, span_id, parent, self.item, start, end))
                    else:
                        self.spans_dropped += 1
            if hooked:
                self._on_result(key, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        import artifact
        from artifact import cli, dnumbers, dplus, fusion, quadring, units

        modules = {"quadring": quadring, "units": units, "dnumbers": dnumbers,
                   "dplus": dplus, "fusion": fusion, "cli": cli}
        namespaces = [artifact, *modules.values()]
        self._limit_error = quadring.FactorizationLimit
        for key, mod, attr in FUNCTIONS:
            original = getattr(modules[mod], attr)
            wrapped = self.wrap(key, original)
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, bound, wrapped)
        for group, methods in QUADINT_GROUPS.items():
            for method in methods:
                original = quadring.QuadInt.__dict__[method]
                setattr(quadring.QuadInt, method, self.wrap(group, original))

    def snapshot(self) -> dict:
        """Plain-data copy of this pass, adopted children included."""
        snap = {
            "calls": dict(self.calls), "self_s": dict(self.self_s),
            "total_s": dict(self.total_s), "counts": dict(self.counts),
            "distinct_n": sorted(self.distinct_n), "spans": list(self.spans),
            "spans_dropped": self.spans_dropped,
        }
        _merge(snap, self._adopted)
        return snap


def _merge(into: dict, part: dict) -> None:
    for key in ("calls", "self_s", "total_s", "counts"):
        for name, value in part[key].items():
            into[key][name] = into[key].get(name, 0) + value
    into["distinct_n"] = sorted(set(into["distinct_n"]) | set(part["distinct_n"]))
    room = MAX_SPANS - len(into["spans"])
    into["spans"].extend(part["spans"][:room])
    into["spans_dropped"] += part["spans_dropped"] + max(0, len(part["spans"]) - room)


def _empty_snapshot() -> dict:
    return {"calls": {}, "self_s": {}, "total_s": {}, "counts": {},
            "distinct_n": [], "spans": [], "spans_dropped": 0}


def per_layer_metrics(snap: dict, item_s: float) -> dict[str, float]:
    """The per-layer metric values of one traced pass, by BENCHMARK.json name."""
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    out: dict[str, float] = {}
    for name in sorted({key for key, _, _ in FUNCTIONS} | set(QUADINT_GROUPS)):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["units.fundamental_unit.distinct_n"] = len(snap["distinct_n"])
    for name in ("units.fundamental_unit", "dnumbers.canonical_factor"):
        out[f"{name}.total_s"] = snap["total_s"].get(name, 0.0)
    for name in ("dplus.fields_with_members", "quadring.factorize.beyond_sieve",
                 "quadring.factorize.failed", "fusion.candidates_scanned",
                 "fusion.profiles", "cli.exit_3"):
        out[name] = counts.get(name, 0)
    fields = calls.get("dplus.enumerate_field", 0)
    out["dplus.enumerate_field.useful_ratio"] = (
        counts.get("dplus.fields_with_members", 0) / fields if fields else 0.0)
    attributed = 0.0
    for layer in LAYERS:
        layer_s = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        attributed += layer_s
        out[f"{layer}.self_share"] = layer_s / item_s if item_s else 0.0
    out["trace.item_s"] = item_s
    out["trace.unattributed_s"] = item_s - attributed
    out["trace.spans_dropped"] = snap["spans_dropped"]
    return out
