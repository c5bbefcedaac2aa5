"""Outside-in tracer for the perfscore layer modules.

The library carries no instrumentation, so the tracer wraps its public
functions and methods from the outside while a traced run is active:

* every public function defined in a layer module is replaced in every
  namespace that binds it (``from .x import f`` makes a separate binding in
  each importing module and in the package namespace);
* public methods of classes defined in a layer module, plus the
  ``SimplexPoint`` and ``TangentVector`` constructors, are replaced on the
  class;
* private helpers (``_ascend``, ``_objective``, ...) and properties stay
  unwrapped, so their time shows as self time of the public caller.

Spans are not kept one by one: a five-outcome trial opens ~15k of them.
Each span name instead aggregates its call count, inclusive time (the
outermost activation only, so recursion is not double counted) and self
time (its duration minus the durations of the spans it directly contains).
Self times therefore partition the wrapped time, and their sum never
exceeds the wall time of the traced region.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("simplex", "scoring", "environment", "solvers", "bounds", "games", "harness")

# constructors that are counted although they are dunder methods
TRACED_INITS = (("simplex", "SimplexPoint"), ("simplex", "TangentVector"))


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


def _public_classes(module):
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Installs span-recording wrappers on a package's layer modules.

    Single use: install once (or enter once as a context manager), then
    read ``stats``, which maps span name to ``[calls, inclusive_s,
    self_s]`` and survives ``uninstall``.
    """

    def __init__(self, package):
        self.package = package
        self.stats = {}
        self.layer_of = {}
        self.patched = []  # (owner, attribute, original) of every binding
        self._stack = []  # child-time accumulators of the open spans
        self._depth = {}

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(span name, owner class or None, attribute, original) to wrap."""
        pkg = self.package.__name__
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for name, fn in _public_functions(module):
                yield f"{layer}.{name}", None, name, fn
            for cls_name, cls in _public_classes(module):
                for name, fn in vars(cls).items():
                    if name.startswith("_") or not inspect.isfunction(fn):
                        continue
                    yield f"{layer}.{name}", cls, name, fn
                if (layer, cls_name) in TRACED_INITS:
                    yield f"{layer}.{cls_name}", cls, "__init__", vars(cls)["__init__"]

    def _namespaces(self):
        pkg = self.package.__name__
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == pkg or name.startswith(pkg + "."))
        ]

    def install(self):
        if self.patched:
            raise RuntimeError("a tracer installs only once")
        namespaces = self._namespaces()
        for span, owner, attr, original in self._targets():
            if span in self.layer_of:
                raise RuntimeError(f"duplicate span name {span}")
            self.layer_of[span] = span.split(".", 1)[0]
            wrapper = self._wrap(span, original)
            if owner is not None:
                self.patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self.patched.append((ns, name, original))
                        setattr(ns, name, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def unrestored(self):
        """Patched bindings that do not hold their original value."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self.patched
            if getattr(owner, attr) is not original
        ]

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording -----------------------------------------------------------

    def _wrap(self, span, fn):
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        depth = self._depth
        depth[span] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            depth[span] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[span] -= 1
                stats[0] += 1
                stats[2] += dt - children[0]
                if depth[span] == 0:
                    stats[1] += dt
                if stack:
                    stack[-1][0] += dt

        return traced

    # -- summaries -------------------------------------------------------------

    def calls(self, span):
        return self.stats.get(span, (0, 0.0, 0.0))[0]

    def inclusive_s(self, span):
        return self.stats.get(span, (0, 0.0, 0.0))[1]

    def self_s(self, span):
        return self.stats.get(span, (0, 0.0, 0.0))[2]

    def layer_totals(self):
        """{layer: (calls, self_s)} over every span of the layer."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for span, (calls, _, self_s) in self.stats.items():
            acc = out[self.layer_of[span]]
            acc[0] += calls
            acc[1] += self_s
        return {layer: tuple(v) for layer, v in out.items()}

    def table(self):
        """Every span with at least one call, busiest self time first."""
        rows = [
            {"span": span, "calls": c, "s": incl, "self_s": own}
            for span, (c, incl, own) in self.stats.items()
            if c
        ]
        rows.sort(key=lambda r: -r["self_s"])
        return rows
