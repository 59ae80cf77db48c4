"""Spans and counters around the public functions of each hessaut module.

The tracer wraps, from outside the program:

* functions at their module attribute and at every `from .x import f`
  site (any module global, or value of a module-level dict such as
  `cli.SUITES`, that is the same object);
* methods at their class attribute.

A span is (name, start, end, parent, request), kept in memory and
written out once by `Tracer.write`. Hot leaves are aggregated instead of
recorded one span per call: `exact.mat_mul` gets a call count and total
time, `exact.dot` only a call count (its time stays in the caller's self
time). A span's self time is its duration minus the time of the traced
spans and timed leaves inside it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (module, attribute path, metric name, kind)
TARGETS = [
    ("golay", "steiner_system", "golay.steiner_system", SPAN),
    ("golay", "golay_code", "golay.golay_code", SPAN),
    ("leech", "contains", "leech.contains", SPAN),
    ("lorentz", "bilinear", "lorentz.bilinear", SPAN),
    ("exact", "hermite_normal_form", "exact.hermite_normal_form", SPAN),
    ("exact", "solve_rational", "exact.solve_rational", SPAN),
    ("exact", "invert_rational", "exact.invert_rational", SPAN),
    ("exact", "vec_mat", "exact.vec_mat", SPAN),
    ("exact", "mat_mul", "exact.mat_mul", TIMED),
    ("exact", "dot", "exact.dot", COUNTED),
    ("lattices", "ambient", "lattices.ambient", SPAN),
    ("lattices", "Ambient.coords", "lattices.Ambient.coords", SPAN),
    ("lattices", "span", "lattices.span", SPAN),
    ("lattices", "fqf_isomorphic", "lattices.fqf_isomorphic", SPAN),
    ("lattices", "root_type", "lattices.root_type", SPAN),
    ("lattices", "short_vectors", "lattices.short_vectors", SPAN),
    ("lattices", "discriminant_form_from_gram", "lattices.discriminant_form_from_gram", SPAN),
    ("weber", "affine_symplectic_group", "weber.affine_symplectic_group", SPAN),
    ("weber", "pentahedral_dictionary", "weber.pentahedral_dictionary", SPAN),
    ("weber", "weber_hexads", "weber.weber_hexads", SPAN),
    ("hessian", "picard", "hessian.picard", SPAN),
    ("hessian", "Picard.inner", "hessian.Picard.inner", SPAN),
    ("hessian", "Picard.resolve", "hessian.Picard.resolve", SPAN),
    ("hessian", "Picard.project_to_sh", "hessian.Picard.project_to_sh", SPAN),
    ("hessian", "pencil_catalog", "hessian.pencil_catalog", SPAN),
    ("hessian", "relation_checks", "hessian.relation_checks", SPAN),
    ("autgroup", "enumerate_wall_roots", "autgroup.enumerate_wall_roots", SPAN),
    ("autgroup", "classify_wall_root", "autgroup.classify_wall_root", SPAN),
    ("autgroup", "autctx", "autgroup.autctx", SPAN),
    ("autgroup", "AutContext.discriminant_action", "autgroup.AutContext.discriminant_action", SPAN),
    ("autgroup", "AutContext._apply_q", "autgroup.AutContext._apply_q", SPAN),
    ("autgroup", "Isometry.inverse", "autgroup.Isometry.inverse", SPAN),
    ("autgroup", "compose", "autgroup.compose", SPAN),
    ("autgroup", "AutContext.reduce_height", "autgroup.AutContext.reduce_height", SPAN),
    ("cli", "_cmd_reduce", "cli.reduce", SPAN),
] + [
    ("cli", f"{suite}_suite", f"cli.suite.{suite}", SPAN)
    for suite in ("golay", "leech", "embedding", "curves", "picard",
                  "pencils", "weber", "walls", "generators", "reduce")
]

REDUCE = "autgroup.AutContext.reduce_height"
DISC_FORM = "lattices.discriminant_form_from_gram"


class Tracer:
    def __init__(self):
        self.request = 0
        self.spans: list = []
        # open spans: [span index, start, time of traced children]
        self.stack: list = []
        self.calls: dict = defaultdict(int)
        self.total: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.depth: dict = defaultdict(int)
        self.descent_steps = 0
        self.descent_dots = 0
        self.grams: set = set()

    # --- wrappers ---------------------------------------------------------

    def _close(self, name: str, start: float, end: float, children: float) -> None:
        self.calls[name] += 1
        if self.depth[name] == 0:
            self.total[name] += end - start
        self.self_time[name] += end - start - children
        if self.stack:
            self.stack[-1][2] += end - start

    def span(self, name: str, fn):
        tracer = self
        spans, stack, depth = self.spans, self.stack, self.depth
        perf = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, perf(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[name] -= 1
                spans[index] = (name, frame[1], end, parent, tracer.request)
                tracer._close(name, frame[1], end, frame[2])

        return traced

    def timed(self, name: str, fn):
        stack, calls, total = self.stack, self.calls, self.total
        perf = time.perf_counter

        def traced(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf() - start
                calls[name] += 1
                total[name] += took
                if stack:
                    stack[-1][2] += took

        return traced

    def counted(self, name: str, fn):
        tracer, calls, depth = self, self.calls, self.depth

        def traced(*args, **kwargs):
            calls[name] += 1
            if depth[REDUCE]:
                tracer.descent_dots += 1
            return fn(*args, **kwargs)

        return traced

    def _wrap(self, name: str, kind: str, fn):
        wrapped = getattr(self, kind)(name, fn)
        if name == REDUCE:
            inner = wrapped

            def wrapped(*args, **kwargs):
                word, residual = inner(*args, **kwargs)
                self.descent_steps += len(word)
                return word, residual
        elif name == DISC_FORM:
            inner = wrapped

            def wrapped(gram, *args, **kwargs):
                self.grams.add(tuple(tuple(row) for row in gram))
                return inner(gram, *args, **kwargs)
        return wrapped

    def install(self, package) -> None:
        """Wrap every target in the modules of `package`."""
        modules = {
            m: importlib.import_module(f"{package}.{m}")
            for m in ("exact", "golay", "leech", "lorentz", "lattices",
                      "weber", "hessian", "autgroup", "cli")
        }
        everywhere = [importlib.import_module(package)] + list(modules.values())
        for module, path, name, kind in TARGETS:
            owner = modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self._wrap(name, kind, raw.__func__)))
                continue
            wrapped = self._wrap(name, kind, raw)
            if classes:
                setattr(owner, attr, wrapped)
                continue
            for mod in everywhere:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is raw:
                                value[k] = wrapped

    # --- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for _, _, name, kind in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            if kind != COUNTED:
                out[f"{name}.s"] = self.total[name]
            if kind == SPAN:
                out[f"{name}.self_s"] = self.self_time[name]
        calls = self.calls[DISC_FORM]
        out[f"{DISC_FORM}.distinct_ratio"] = len(self.grams) / calls if calls else 0.0
        out["autgroup.descent.steps"] = self.descent_steps
        out["autgroup.descent.dots_per_step"] = (
            self.descent_dots / self.descent_steps if self.descent_steps else 0.0
        )
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent index, request."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
