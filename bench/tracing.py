"""Wrappers that trace calls into the ristruct layers from outside.

``Tracer.install`` replaces each listed public function or method by a
wrapper, both on its defining module or class and under every other
module-level name it is imported as (``ristruct.hopf.degree_form`` is
the same function as ``ristruct.grading.degree_form``), so calls made
from inside the package are seen too.  Nothing under ``src/`` changes.

Each wrapper keeps a stack frame so that self time (duration minus the
time covered by wrapped callees) is exact per call.  Two modes, by the
cost of the wrapped call:

* ``span`` - aggregate, and also record a span (id, parent span id,
  name, start, end, run id) in memory; for calls of a millisecond or
  more, of which a run makes at most a few thousand;
* ``agg``  - aggregate calls, self and total time only; for hot calls
  of a few microseconds, made up to a hundred thousand times per run,
  where a stored span would cost more than the call and the span file
  would be unreadable.

Spans of wrapped callees point at the nearest recorded ancestor.  The
spans are written out by the caller when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
import weakref

# (metric stem, "module:qualname", mode); a stem's layer is everything
# before its last dot
TARGETS = [
    ("trees.tree_product", "ristruct.trees:tree_product", "agg"),
    ("grading.degree_form", "ristruct.grading:degree_form", "agg"),
    ("hopf.planted_degree", "ristruct.hopf:Hopf.planted_degree", "agg"),
    ("hopf.coproduct", "ristruct.hopf:Hopf.coproduct", "agg"),
    ("hopf.coproduct_graphical", "ristruct.hopf:Hopf.coproduct_graphical",
     "agg"),
    ("hopf.coproduct_plus", "ristruct.hopf:Hopf.coproduct_plus", "agg"),
    ("hopf.antipode", "ristruct.hopf:Hopf.antipode", "agg"),
    ("hopf.comodule_check", "ristruct.hopf:Hopf.comodule_check", "span"),
    ("hopf.coassociativity_plus_check",
     "ristruct.hopf:Hopf.coassociativity_plus_check", "span"),
    ("hopf.convolution_check", "ristruct.hopf:Hopf.convolution_check",
     "span"),
    ("sector.generate_from_rule", "ristruct.sector:generate_from_rule",
     "span"),
    ("sector.w_plus_generators", "ristruct.sector:Sector.w_plus_generators",
     "span"),
    ("renorm.rcmap_apply", "ristruct.renorm:RcMap.apply", "agg"),
    ("renorm.verify_preparation", "ristruct.renorm:verify_preparation",
     "span"),
    ("analytic.grid.init", "ristruct.analytic.grid:OperatorContext.__init__",
     "span"),
    ("analytic.grid.time_integral",
     "ristruct.analytic.grid:OperatorContext.time_integral", "span"),
    ("analytic.grid.apply_multiplier",
     "ristruct.analytic.grid:OperatorContext.apply_multiplier", "agg"),
    ("analytic.noise.white_noise", "ristruct.analytic.noise:white_noise",
     "span"),
    ("analytic.noise.random_fourier_series",
     "ristruct.analytic.noise:random_fourier_series", "span"),
    ("analytic.noise.smooth_field", "ristruct.analytic.noise:smooth_field",
     "span"),
    ("analytic.model.init", "ristruct.analytic.model:Model.__init__", "agg"),
    ("analytic.model.pi_x", "ristruct.analytic.model:Model.pi_x", "agg"),
    ("analytic.model.pi_x_hat", "ristruct.analytic.model:Model.pi_x_hat",
     "agg"),
    ("analytic.checks.route",
     "ristruct.analytic.checks:check_route_equivalence", "span"),
    ("analytic.checks.comparison", "ristruct.analytic.checks:check_comparison",
     "span"),
    ("analytic.checks.dpidd",
     "ristruct.analytic.checks:check_derivative_identity", "span"),
    ("analytic.checks.qnorm_series", "ristruct.analytic.checks:qnorm_series",
     "span"),
    ("analytic.mc.constant_samples", "ristruct.analytic.mc:constant_samples",
     "span"),
    ("analytic.mc.solve_bphz_c", "ristruct.analytic.mc:solve_bphz_c", "span"),
    ("analytic.mc.scaling_ensemble", "ristruct.analytic.mc:scaling_ensemble",
     "span"),
    ("analytic.mc.scaling_fit", "ristruct.analytic.mc:scaling_fit", "span"),
]


def layer_of(stem: str) -> str:
    return stem.rsplit(".", 1)[0]


LAYERS = tuple(dict.fromkeys(layer_of(stem) for stem, _t, _m in TARGETS))

# results whose identity with an earlier result is tracked (hit_ratio)
TRACK_HITS = {"hopf.coproduct", "hopf.coproduct_plus", "analytic.model.pi_x",
              "analytic.model.pi_x_hat"}

_clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "hits", "seen", "terms",
                 "points", "bytes", "samples", "sizes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.hits = 0
        self.seen = {}
        self.terms = 0
        self.points = 0
        self.bytes = 0
        self.samples = 0
        self.sizes = 0


def _resolve(target):
    modname, qual = target.split(":")
    mod = sys.modules[modname]
    owner, attr = mod, qual
    if "." in qual:
        cls, attr = qual.split(".")
        owner = getattr(mod, cls)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Per-process call recorder; one instance traces one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats = {}
        self.spans = []
        # a frame is [time covered by wrapped callees, enclosing span id]
        self._stack = [[0.0, None]]
        self._next_id = 0

    # installation -------------------------------------------------------

    def install(self) -> None:
        for stem, target, mode in TARGETS:
            if target.split(":")[0] not in sys.modules:
                continue  # a layer the workload never imports stays idle
            owner, attr, orig = _resolve(target)
            wrapper = self._wrap(stem, orig, mode)
            setattr(owner, attr, wrapper)
            if not isinstance(owner, type):
                # the same function imported under its name elsewhere
                for mod in list(sys.modules.values()):
                    if (mod is not owner and mod is not None
                            and mod.__name__.startswith("ristruct")
                            and mod.__dict__.get(attr) is orig):
                        setattr(mod, attr, wrapper)

    def _wrap(self, stem, fn, mode):
        st = self.stats.setdefault(stem, Stat())
        hook = _HOOKS.get(stem)
        track = stem in TRACK_HITS
        stack = self._stack
        spans = self.spans if mode == "span" else None
        sig = inspect.signature(fn) if hook else None

        def timed(*a, **k):
            parent = stack[-1]
            if spans is None:
                frame = [0.0, parent[1]]
            else:
                self._next_id += 1
                frame = [0.0, self._next_id]
            stack.append(frame)
            start = _clock()
            try:
                out = fn(*a, **k)
            finally:
                dur = _clock() - start
                stack.pop()
                parent[0] += dur
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - frame[0]
                if spans is not None:
                    spans.append((frame[1], parent[1], stem, start,
                                  start + dur))
            if track:
                _track_hit(st, out)
            if hook:
                hook(st, sig.bind(*a, **k).arguments, out)
            return out
        return timed

    def root(self, name: str):
        """Context manager recording a span around benchmark code."""
        return _Root(self, name)

    # metrics --------------------------------------------------------------

    def metrics(self) -> dict:
        from ristruct.trees import Tree

        s = self.stats

        def get(stem, field):
            st = s.get(stem)
            return getattr(st, field) if st is not None else 0

        def ratio(stem):
            calls = get(stem, "calls")
            return get(stem, "hits") / calls if calls else 0.0

        m = {
            "trees.intern_size": len(Tree._intern),
            "trees.tree_product.calls": get("trees.tree_product", "calls"),
            "grading.degree_form.calls": get("grading.degree_form", "calls"),
            "grading.degree_form.self_s": get("grading.degree_form",
                                              "self_s"),
            "hopf.identity_checks.self_s": sum(get(n, "self_s") for n in (
                "hopf.comodule_check", "hopf.coassociativity_plus_check",
                "hopf.convolution_check")),
            "sector.members": get("sector.generate_from_rule", "sizes"),
            "sector.w_plus_gens": get("sector.w_plus_generators", "sizes"),
            "analytic.grid.setup_s": get("analytic.grid.init", "total_s")
            + get("analytic.grid.time_integral", "total_s"),
            "analytic.grid.apply_multiplier.points": get(
                "analytic.grid.apply_multiplier", "points"),
            "analytic.grid.apply_multiplier.bytes_computed": get(
                "analytic.grid.apply_multiplier", "bytes"),
            "analytic.model.instances": get("analytic.model.init", "calls"),
        }
        for stem in ("hopf.planted_degree", "hopf.coproduct",
                     "hopf.coproduct_plus", "hopf.antipode",
                     "renorm.rcmap_apply", "analytic.grid.apply_multiplier",
                     "analytic.model.pi_x", "analytic.model.pi_x_hat"):
            m[stem + ".calls"] = get(stem, "calls")
            m[stem + ".self_s"] = get(stem, "self_s")
        for stem in TRACK_HITS:
            m[stem + ".hit_ratio"] = ratio(stem)
        m["hopf.coproduct.terms"] = get("hopf.coproduct", "terms")
        for stem in ("hopf.coproduct_graphical", "sector.generate_from_rule",
                     "sector.w_plus_generators", "renorm.verify_preparation",
                     "analytic.checks.route", "analytic.checks.comparison",
                     "analytic.checks.dpidd", "analytic.checks.qnorm_series",
                     "analytic.mc.constant_samples",
                     "analytic.mc.scaling_ensemble",
                     "analytic.mc.scaling_fit"):
            m[stem + ".self_s"] = get(stem, "self_s")
        noise = [n for n, _t, _m in TARGETS
                 if layer_of(n) == "analytic.noise"]
        m["analytic.noise.calls"] = get("analytic.noise.white_noise",
                                        "calls")
        m["analytic.noise.self_s"] = sum(get(n, "self_s") for n in noise)
        samples = sum(get(n, "samples") for n in (
            "analytic.mc.constant_samples", "analytic.mc.scaling_ensemble"))
        sample_s = (get("analytic.mc.constant_samples", "total_s")
                    + get("analytic.mc.scaling_ensemble", "total_s"))
        m["analytic.mc.sample_ms"] = (1e3 * sample_s / samples
                                      if samples else 0.0)
        return m

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for stem, _t, _m in TARGETS:
            st = self.stats.get(stem)
            if st is not None:
                out[layer_of(stem)] += st.self_s
        return out

    def span_records(self) -> list:
        return [{"id": i, "parent": p, "name": n, "start": a, "end": b,
                 "run": self.run_id} for i, p, n, a, b in self.spans]


class _Root:
    """A recorded span around benchmark code; callees nest under it."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        tr._next_id += 1
        self.frame = [0.0, tr._next_id]
        self.parent = tr._stack[-1]
        tr._stack.append(self.frame)
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        dur = _clock() - self.start
        tr._stack.pop()
        self.parent[0] += dur
        st = tr.stats.setdefault(self.name, Stat())
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - self.frame[0]
        tr.spans.append((self.frame[1], self.parent[1], self.name,
                         self.start, self.start + dur))
        return False


def _track_hit(st: Stat, out) -> None:
    """Count a hit when ``out`` is the very object returned earlier.

    Weak references where the type allows them (arrays), so tracking
    keeps no field alive; otherwise a strong one (coproduct tables,
    which the Hopf memo keeps alive anyway)."""
    key = id(out)
    ref = st.seen.get(key)
    if ref is not None and ref() is out:
        st.hits += 1
        return
    try:
        st.seen[key] = weakref.ref(out)
    except TypeError:
        st.seen[key] = lambda: out
    if hasattr(out, "terms"):
        st.terms += len(out.terms)


def _apply_multiplier_hook(st, args, out):
    f, mult = args["f"], args["mult"]
    st.points += f.size
    # input, multiplier, and the three complex intermediates the call
    # materialises (forward spectrum, product, inverse transform)
    st.bytes += f.nbytes + getattr(mult, "nbytes", 0) + 3 * 16 * f.size


def _samples_hook(st, args, out):
    st.samples += int(args["n_samples"])


def _size_hook(st, args, out):
    st.sizes += len(out.members()) if hasattr(out, "members") else len(out)


_HOOKS = {
    "analytic.grid.apply_multiplier": _apply_multiplier_hook,
    "analytic.mc.constant_samples": _samples_hook,
    "analytic.mc.scaling_ensemble": _samples_hook,
    "sector.generate_from_rule": _size_hook,
    "sector.w_plus_generators": _size_hook,
}
