"""Outside-in tracer: per-layer self time and call counts for pentalab.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
public function of the traced modules with a timing wrapper, in every
``pentalab`` module namespace that holds a reference to it: ``from .curves
import gamma_jet`` copies the reference into ``chimap`` and ``lax``, so
patching only the defining module would miss those callers.  It also wraps
``CurveSpec.frame_at`` and counts ``Jet.__init__``.  A plain function
returned by a wrapped one (the solver closures of ``jets.jet_solver`` and
``linalg.lu_solver``) is wrapped as ``<name>.result`` of the same layer.
``Tracer.remove`` puts every original back.

A span's self time is its duration minus the durations of the wrapped
spans it called, so the self times of all keys add up to the time spent
inside wrapped functions, each second counted once.
"""

import sys
import time
import types

import numpy as np

LAYERS = ("jets", "curves", "linalg", "configs", "chimap", "discretize",
          "fitting", "expansion", "kdvops", "lax", "realize", "cli")

# linalg entry points whose first argument is a matrix the map solves or
# factors; least-squares fit designs are fixed by the step ladder and left out
_COND_KEYS = ("linalg.solve_dense", "linalg.lu_solver", "linalg.det_dense",
              "linalg.null_basis")


def _cond(a):
    """2-norm condition number of a, in float64."""
    s = np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > 0 else float("inf")


class Tracer:
    """Wraps the public functions of pentalab's layers while installed.

    ``stats`` maps a key such as ``"curves.gamma_jet"`` to ``[calls,
    self_s, total_s]``; total_s includes wrapped children.
    ``begin_op``/``end_op`` bracket one command so that ``gamma_jet`` lift
    points are counted as distinct within one command, the scope a per-run
    memo would have.
    """

    def __init__(self, package="pentalab", layers=LAYERS):
        self.package = package
        self.layers = layers
        self.stats = {}
        self.jets_created = 0
        self.cond_max = 0.0
        self.gamma_distinct = 0
        self._gamma_calls = 0
        self._gamma_seen = set()
        self._stack = []
        self._patches = []

    # -- install / remove ------------------------------------------------

    def _namespaces(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(prefix))]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = self._namespaces()
        wrapped = {}
        for layer in self.layers:
            mod = sys.modules[f"{self.package}.{layer}"]
            for name, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType)
                        and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, name, hit[1])
        if "curves" in self.layers:
            spec_cls = sys.modules[f"{self.package}.curves"].CurveSpec
            self._patch(spec_cls, "frame_at",
                        self._wrap(spec_cls.frame_at, "curves.frame_at"))
        if "jets" in self.layers:
            jet_cls = sys.modules[f"{self.package}.jets"].Jet
            jet_init = jet_cls.__init__

            def counted_init(jet, *args, **kwargs):
                self.jets_created += 1
                jet_init(jet, *args, **kwargs)

            self._patch(jet_cls, "__init__", counted_init)
        return self

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def remove(self):
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- spans -----------------------------------------------------------

    def _wrap(self, fn, key):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        cond_arg = key in _COND_KEYS
        gamma = key == "curves.gamma_jet"

        def wrapper(*args, **kwargs):
            span = [0.0, clock()]  # [time in wrapped children, start]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += end - span[1] - span[0]
                stat[2] += end - span[1]
                if stack:
                    stack[-1][0] += end - span[1]
            # bookkeeping below is the tracer's time, not the caller's
            if cond_arg:
                self.cond_max = max(self.cond_max, _cond(args[0]))
            if gamma:
                self._gamma_calls += 1
                self._gamma_seen.add((id(args[0]), float(args[1]),
                                      int(args[2])))
            if type(result) is types.FunctionType:
                result = self._wrap(result, key + ".result")
            if stack:
                stack[-1][0] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def begin_op(self):
        self._gamma_calls = 0
        self._gamma_seen.clear()

    def end_op(self):
        """(gamma_jet calls, distinct lift points) of the op just ended."""
        distinct = len(self._gamma_seen)
        self.gamma_distinct += distinct
        self._gamma_seen.clear()
        return self._gamma_calls, distinct

    # -- summaries -------------------------------------------------------

    def layer_totals(self):
        """{layer: [calls, self_s]} summed over the layer's keys."""
        out = {layer: [0, 0.0] for layer in self.layers}
        for key, (calls, self_s, _) in self.stats.items():
            tot = out[key.split(".", 1)[0]]
            tot[0] += calls
            tot[1] += self_s
        return out

    def total_self(self):
        return sum(s for _, s, _ in self.stats.values())
