"""Span recorder that wraps cubesieve's public functions at module boundaries.

`from x import y` binds a second name for the same function object, so each
wrapper replaces the original at every module attribute that holds it; that is
where callers look it up. Two methods are patched on their class. Per-element
hot paths (`contains_prime`, `legendre`, `is_prime`, `_valid_extension`, the DP
inner loop) are left alone: wrapping them would time the tracer, not the layer.

Spans are kept in memory as (name, start, end, parent, run id) plus the
per-call counts read off the returned value, totalled per pass, and written out
once the run ends. Nothing is installed unless a traced run asks for it."""

from __future__ import annotations

import contextlib
import json
import statistics
from time import perf_counter

from cubesieve import arithsets, cube, harness, primes, sieve, sunflower, zq

MODULES = (primes, arithsets, zq, sieve, cube, sunflower, harness)


def _len(res, args, kwargs):
    return {"items": len(res)}


def _search(res, args, kwargs):
    return {"nodes": res.nodes_expanded, "completed": int(res.exact)}


def _cutoff(res, args, kwargs):
    return {"moduli": len(res.rows[-1][1].moduli_used), "bound_evals": len(res.rows)}


def _valid(res, args, kwargs):
    return {"valid": int(bool(res))}


def _strategy(args, kwargs):
    strategy = kwargs.get("strategy", args[2] if len(args) > 2 else "direct")
    return f"zq.schwarzwald_{strategy}"


# (owner, attribute, span name or name function, counter); the owner is the
# defining module or, for methods, the class
TARGETS = (
    (harness, "main", "harness", None),
    (cube, "max_dimension_exact", "cube.exact", _search),
    (cube, "max_dimension_greedy", "cube.greedy", _search),
    (cube, "verify", "cube.verify", None),
    (arithsets, "enumerate_members", "arithsets.enumerate", _len),
    (arithsets, "is_member", "arithsets.member", None),
    (arithsets, "factorize", "arithsets.factorize", None),
    (primes, "primes_up_to", "primes.sieve", None),
    (primes.PrimeSet, "primes_up_to", "primes.primeset", _len),
    (sieve, "optimize_cutoff", "sieve.cutoff", _cutoff),
    (zq, "subset_sum_find", "zq.olson", None),
    (zq, "find_lift_zero", "zq.liftzero", None),
    (zq, "schwarzwald", _strategy, None),
    (zq.SubsetWitness, "validate", "zq.validate", _valid),
    (sunflower, "find_sunflower", "sunflower.find", None),
    (sunflower, "rep_count_g", "sunflower.repcount", None),
    (sunflower, "homogeneous_ap_via_sunflower", "sunflower.ap", None),
)


def bindings() -> list[tuple[object, str, object]]:
    """Every (owner, attribute, value) a traced run may replace, as it stands."""
    out = []
    for owner, attr, _, _ in TARGETS:
        original = vars(owner)[attr]
        if isinstance(owner, type):
            out.append((owner, attr, original))
            continue
        for mod in MODULES:
            for name, value in vars(mod).items():
                if value is original:
                    out.append((mod, name, value))
    return out


class Tracer:
    """In-memory span recorder. Use as a context manager: entering installs
    the wrappers, leaving restores every replaced binding. Calls made while
`paused` (the benchmark's own output checks) are not recorded. Each pass of the
    measured section is a run id; `end_pass` totals its spans. Later passes
    repeat the first call for call, so only the first pass's spans are kept
    for `dump`, which bounds memory and file size."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.passes: list[tuple[dict[str, dict], float]] = []
        self.run_id = 0
        self._paused = False
        self._overhead_s = 0.0
        self._pass_start = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            span_name = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                counts = counter(result, args, kwargs) if counter and result is not None else None
                spans[idx] = (span_name, start, end, parent, self.run_id, counts)
                self._overhead_s += (start - t0) + (perf_counter() - end)

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        by_original = {}
        for owner, attr, name, counter in TARGETS:
            original = vars(owner)[attr]
            by_original[id(original)] = self._wrap(original, name, counter)
        self._saved = bindings()
        for owner, attr, value in self._saved:
            setattr(owner, attr, by_original[id(value)])
        return self

    def __exit__(self, *exc):
        for owner, attr, value in self._saved:
            setattr(owner, attr, value)
        self._saved = []
        return False

    @contextlib.contextmanager
    def paused(self):
        """Calls inside this block go straight to the original functions."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def start_pass(self, run_id: int) -> None:
        self.run_id = run_id
        self._overhead_s = 0.0
        self._pass_start = len(self.spans)

    def end_pass(self) -> None:
        """Total the pass's spans per name (calls, self time, counts) and keep
        them with the tracer's own time in this pass."""
        first = self._pass_start
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        totals: dict[str, dict] = {}
        for (name, start, end, _, _, counts), child in zip(spans, child_time):
            agg = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child
            for key, value in (counts or {}).items():
                agg[key] = agg.get(key, 0) + value
        self.passes.append((totals, self._overhead_s))
        if self.passes[1:]:
            del self.spans[first:]

    def dump(self, path, header: dict) -> None:
        """Write the header, each pass's totals and the first pass's spans
        (times in seconds from its first span) as one JSON document."""
        origin = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[name], round(start - origin, 7), round(end - origin, 7), parent, run, counts]
            for name, start, end, parent, run, counts in self.spans
        ]
        doc = {**header, "pass_totals": [totals for totals, _ in self.passes],
               "span_fields": ["name", "start_s", "end_s", "parent", "run", "counts"],
               "names": names, "spans": rows}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def layer_metrics(totals: dict[str, dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass, from its `Tracer.end_pass` totals."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in ("cube.exact", "cube.greedy", "cube.verify", "arithsets.enumerate",
                 "arithsets.member", "arithsets.factorize", "primes.sieve",
                 "primes.primeset", "sieve.cutoff", "zq.olson", "zq.liftzero",
                 "zq.schwarzwald_direct", "zq.schwarzwald_paper", "zq.validate",
                 "sunflower.find", "sunflower.repcount", "sunflower.ap"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    calls = get("cube.exact", "calls")
    out["cube.exact.nodes"] = get("cube.exact", "nodes")
    out["cube.exact.nodes_per_s"] = (
        out["cube.exact.nodes"] / get("cube.exact", "self_s") if calls else 0.0
    )
    out["cube.exact.completed_frac"] = get("cube.exact", "completed") / calls if calls else 0.0
    out["cube.greedy.nodes"] = get("cube.greedy", "nodes")
    out["arithsets.enumerate.members"] = get("arithsets.enumerate", "items")
    out["primes.primeset.primes"] = get("primes.primeset", "items")
    out["sieve.cutoff.moduli"] = get("sieve.cutoff", "moduli")
    out["sieve.cutoff.bound_evals"] = get("sieve.cutoff", "bound_evals")
    checked = get("zq.validate", "calls")
    out["zq.valid_frac"] = get("zq.validate", "valid") / checked if checked else 0.0
    out["harness.self_s"] = get("harness", "self_s")
    out["trace.overhead_s"] = overhead_s
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over the passes, taken as a measured value (the
    lower middle one), so counts stay whole and repeat exactly."""
    return {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
