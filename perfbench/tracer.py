"""Run the kp2 command line with its layer boundaries wrapped from outside.

Usage: python3 tracer.py OUT.json KP2-ARGUMENT...

The package must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).  Before ``kp2.cli.main`` runs, the public functions and methods
named in install() are replaced, in every kp2 module global and class attribute
that refers to them, by wrappers that record what the layer did.  The program
itself is not changed and prints exactly what it prints untraced.

Three kinds of wrapper:

* span: one record per call (name, start, end, parent span, self time),
  for the coarse boundaries that are called a few thousand times at most;
* timed: calls, inclusive time and self time aggregated per name, for hot
  calls such as ring products;
* counted: calls only, for the hottest calls (Q(zeta) scalar products).

Self time is a call's duration minus the time of the timed calls and spans
made inside it.  When main returns, the spans, the per-name aggregates and
the per-layer metrics derived from them are written to OUT.json.
"""

from __future__ import annotations

import importlib
import json
import sys
from functools import wraps
from time import perf_counter

MODULES = ("scalars", "series", "lring", "mgn", "mirror", "rseries",
           "localization", "anomaly", "cli")


class Tracer:
    """Spans and per-name aggregates of one traced process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # one [child_seconds, enclosing_span_id] per open call
        self.calls: dict = {}
        self.seconds: dict = {}  # inclusive, outermost calls only
        self.self_seconds: dict = {}
        self.depth: dict = {}
        self.extra: dict = {}  # named sums filled in by hooks
        self.keys: dict = {}  # name -> set of argument keys

    def _register(self, name):
        for table in (self.calls, self.depth):
            table.setdefault(name, 0)
        for table in (self.seconds, self.self_seconds):
            table.setdefault(name, 0.0)

    def add(self, name, amount):
        self.extra[name] = self.extra.get(name, 0) + amount

    def timed(self, name, fn, span=False, after=None):
        """Wrap fn so each call adds to name's calls, time and self time."""
        self._register(name)
        stack = self.stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            sid = None
            if span:
                sid = len(self.spans)
                self.spans.append(None)
            frame = [0.0, sid if span else parent_span]
            stack.append(frame)
            depth = self.depth[name]
            self.depth[name] = depth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.depth[name] = depth
                duration = t1 - t0
                if parent is not None:
                    parent[0] += duration
                self.calls[name] += 1
                if depth == 0:
                    self.seconds[name] += duration
                self.self_seconds[name] += duration - frame[0]
                if span:
                    self.spans[sid] = {
                        "id": sid, "name": name, "parent": parent_span,
                        "start": t0, "end": t1, "self": duration - frame[0],
                    }
            if after is not None:
                after(args, result, duration)
            return result

        return wrapper

    def counted(self, name, fn, key=None):
        """Wrap fn so each call adds one to name's calls, and nothing else."""
        self.calls.setdefault(name, 0)
        calls = self.calls
        if key is None:
            @wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        else:
            keys = self.keys.setdefault(name, set())

            @wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                keys.add(key(*args, **kwargs))
                return fn(*args, **kwargs)
        return wrapper

    def span_summary(self) -> dict:
        """Per span name: count, total and self seconds."""
        out: dict = {}
        for s in self.spans:
            if s is None:  # still open: the run raised inside it
                continue
            row = out.setdefault(s["name"], {"count": 0, "s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["s"] += s["end"] - s["start"]
            row["self_s"] += s["self"]
        return out


def _patch_function(mods, tracer_wrap, module, name):
    """Replace kp2.<module>.<name> wherever a kp2 module global refers to it."""
    fn = getattr(mods[module], name)
    wrapper = tracer_wrap(fn)
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
    return wrapper


def _patch_method(cls, names, tracer_wrap):
    """Replace the class attributes in names (aliases of one function)."""
    fn = cls.__dict__[names[0]]
    wrapper = tracer_wrap(fn)
    for attr in names:
        if cls.__dict__[attr] is not fn:
            raise RuntimeError(f"{cls.__name__}.{attr} is not an alias of {names[0]}")
        setattr(cls, attr, wrapper)


def _ring_terms(x):
    return len(x.terms) if hasattr(x, "terms") else 1


def install(tracer: Tracer) -> dict:
    """Wrap every traced layer boundary; returns the imported kp2 modules."""
    mods = {m: importlib.import_module(f"kp2.{m}") for m in MODULES}
    t = tracer
    scalars, series, lring = mods["scalars"], mods["series"], mods["lring"]

    _patch_method(scalars.CycScalar, ("__mul__", "__rmul__"),
                  lambda fn: t.counted("scalars.cyc_mul", fn))
    _patch_method(scalars.CycScalar, ("inverse",),
                  lambda fn: t.counted("scalars.cyc_inverse", fn))
    _patch_method(series.QSeries, ("__mul__", "__rmul__"),
                  lambda fn: t.counted("series.qseries_mul", fn))
    _patch_method(series.QZSeries, ("__mul__", "__rmul__"),
                  lambda fn: t.timed("series.qzseries_mul", fn))
    _patch_method(series.RatFunZ, ("expand_at_zero",),
                  lambda fn: t.timed("series.expand_at_zero", fn))

    def term_pairs(args, result, _):
        t.add("lring.mul.term_pairs", _ring_terms(args[0]) * _ring_terms(args[1]))

    _patch_method(lring.RingElem, ("__mul__", "__rmul__"),
                  lambda fn: t.timed("lring.mul", fn, after=term_pairs))
    _patch_method(lring.RingElem, ("derive",),
                  lambda fn: t.counted("lring.derive", fn))

    def function(module, name, metric, **kw):
        kind = kw.pop("kind", "timed")
        wrap = t.counted if kind == "counted" else t.timed
        if kind == "span":
            kw["span"] = True
        return _patch_function(mods, lambda fn: wrap(metric, fn, **kw), module, name)

    function("mgn", "hodge_psi_integral", "mgn.hodge_psi_integral")
    function("mirror", "mirror_data", "mirror.mirror_data", kind="span")
    function("rseries", "extract_R_rows", "rseries.extract_R_rows", kind="span")
    function("rseries", "solve_linear", "rseries.solve_linear")
    function("localization", "build_context", "localization.build_context", kind="span")
    function("localization", "enumerate_graphs", "localization.enumerate_graphs",
             kind="span", after=lambda a, r, d: t.add("localization.graphs", len(r)))
    function("localization", "decoration_orbits", "localization.decoration_orbits",
             kind="span", after=lambda a, r, d: t.add("localization.orbits", len(r)))
    function("localization", "per_graph_contributions",
             "localization.per_graph_contributions", kind="span")
    function("localization", "graph_contribution", "localization.graph_contribution",
             kind="span")
    function("localization", "vertex_contribution", "localization.vertex_contribution",
             kind="counted",
             key=lambda ctx, h, i, a_values, gamma_override=None: (
                 id(ctx), h, i, tuple(sorted(a_values)),
                 None if gamma_override is None else id(gamma_override)))
    function("localization", "edge_contribution", "localization.edge_contribution",
             kind="counted", key=lambda ctx, i, j, b1, b2: (id(ctx), i, j, b1, b2))
    function("localization", "leg_contribution", "localization.leg_contribution",
             kind="counted")

    def zero_time(args, result, duration):
        t.add("localization.correlator.zero_s", duration if result.is_zero() else 0.0)

    function("localization", "correlator", "localization.correlator", kind="span",
             after=zero_time)
    # Correlator calls made by the anomaly layer, counted on top of the
    # localization wrapper that anomaly's global now refers to.
    anomaly = mods["anomaly"]
    anomaly.correlator = t.counted(
        "anomaly.correlator", anomaly.correlator,
        key=lambda ctx, g, insertions, threads=1: (id(ctx), g, tuple(insertions)))
    for name in ("verify_ttt", "verify_lift", "verify_ss56"):
        function("anomaly", name, "anomaly.verify", kind="span")
    function("cli", "main", "cli.main", kind="span")
    return mods


def _ratio_of_distinct(tracer, name, unique):
    calls = tracer.calls.get(name, 0)
    if not calls:
        return 0.0
    distinct = len(tracer.keys.get(name, ()))
    return distinct / calls if unique else 1.0 - distinct / calls


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, by their benchmark names (times in seconds)."""
    c, s = tracer.calls, tracer.seconds
    return {
        "mirror.mirror_data.s": s["mirror.mirror_data"],
        "rseries.extract_R_rows.s": s["rseries.extract_R_rows"],
        "rseries.solve_linear.calls": c["rseries.solve_linear"],
        "rseries.solve_linear.s": s["rseries.solve_linear"],
        "series.qseries_mul.calls": c["series.qseries_mul"],
        "series.qzseries_mul.calls": c["series.qzseries_mul"],
        "series.qzseries_mul.s": s["series.qzseries_mul"],
        "series.expand_at_zero.s": s["series.expand_at_zero"],
        "scalars.cyc_mul.calls": c["scalars.cyc_mul"],
        "scalars.cyc_inverse.calls": c["scalars.cyc_inverse"],
        "lring.mul.calls": c["lring.mul"],
        "lring.mul.term_pairs": tracer.extra.get("lring.mul.term_pairs", 0),
        "lring.mul.s": s["lring.mul"],
        "lring.derive.calls": c["lring.derive"],
        "mgn.hodge_psi_integral.calls": c["mgn.hodge_psi_integral"],
        "mgn.hodge_psi_integral.s": s["mgn.hodge_psi_integral"],
        "localization.build_context.s": s["localization.build_context"],
        "localization.enumerate_graphs.s": s["localization.enumerate_graphs"],
        "localization.graphs": tracer.extra.get("localization.graphs", 0),
        "localization.decoration_orbits.s": s["localization.decoration_orbits"],
        "localization.orbits": tracer.extra.get("localization.orbits", 0),
        "localization.graph_contribution.calls": c["localization.graph_contribution"],
        "localization.graph_contribution.s": s["localization.graph_contribution"],
        "localization.vertex_contribution.calls": c["localization.vertex_contribution"],
        "localization.edge_contribution.calls": c["localization.edge_contribution"],
        "localization.leg_contribution.calls": c["localization.leg_contribution"],
        "localization.vertex_memo.hit_ratio":
            _ratio_of_distinct(tracer, "localization.vertex_contribution", False),
        "localization.edge_memo.hit_ratio":
            _ratio_of_distinct(tracer, "localization.edge_contribution", False),
        "localization.correlator.zero_s":
            tracer.extra.get("localization.correlator.zero_s", 0.0),
        "anomaly.verify.s": s["anomaly.verify"],
        "anomaly.correlator.calls": c["anomaly.correlator"],
        "anomaly.correlator.unique_ratio":
            _ratio_of_distinct(tracer, "anomaly.correlator", True),
        "cli.main.s": s["cli.main"],
    }


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py OUT.json KP2-ARGUMENT...", file=sys.stderr)
        return 2
    out_path, kp2_args = argv[0], argv[1:]
    tracer = Tracer()
    mods = install(tracer)
    try:
        code = mods["cli"].main(kp2_args)
    finally:
        sys.stdout.flush()
        record = {
            "metrics": layer_metrics(tracer),
            "layers": {
                name: {"calls": tracer.calls[name],
                       "s": tracer.seconds.get(name),
                       "self_s": tracer.self_seconds.get(name)}
                for name in sorted(tracer.calls)
            },
            "span_summary": tracer.span_summary(),
            "spans": [s for s in tracer.spans if s is not None],
        }
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
