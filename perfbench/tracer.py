"""Per-layer tracing of ``gaborop`` from outside the package.

``Tracer.install`` wraps every public callable of every ``gaborop`` module
(the names in the module's ``__all__``; ``cli``, which has none, contributes
the public functions it defines), every public method of each public class
(plain, class and static methods; properties and dunders such as element
arithmetic stay unwrapped), and the ``numpy.linalg`` eigen and singular-value
solvers.  Every ``gaborop`` namespace that holds an original callable is
rebound to its wrapper, so calls made through ``from .x import y`` are seen
too.  ``Tracer.uninstall`` puts every original back, and ``Tracer.restored``
checks that by identity.

Each wrapped ``gaborop`` call is a span charged to the module that defines
the callable.  A module's self time is the time of its spans minus the time
of their child spans.  A solver call is charged to the innermost open span.
``eig_d3`` is computed from the operand shapes (m * n * min(m, n) per matrix,
D**3 for a square one), not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

import numpy as np

PACKAGE = "gaborop"
LAYERS = ("groups", "signals", "operators", "frames", "pencil",
          "constructions", "perturbation", "scenario", "presets", "cli")
COUNTS = ("calls", "errors", "eig_calls", "eig_d3")
TIMES = ("self_s", "eig_s")
SOLVERS = ("eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals", "pinv", "norm")
_SVD_NORM_ORDS = (2, -2, "nuc")


class _Layer:
    __slots__ = COUNTS + TIMES

    def __init__(self):
        for name in COUNTS + TIMES:
            setattr(self, name, 0)


def _solver_dims(fn_name, args, kwargs):
    """(m, n, batch) of the matrix operand, or None when no solve happens."""
    if not args:
        return None
    a = np.asarray(args[0])
    if a.ndim < 2:
        return None
    if fn_name == "norm":
        ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
        axis = kwargs.get("axis", args[2] if len(args) > 2 else None)
        if a.ndim != 2 or axis is not None or ord_ not in _SVD_NORM_ORDS:
            return None  # Frobenius and entrywise norms solve nothing
    m, n = a.shape[-2:]
    return m, n, int(np.prod(a.shape[:-2], dtype=np.int64))


class Tracer:
    """Spans and solver counts for the ``gaborop`` layers.

    ``clock`` is injectable so tests can drive the span arithmetic.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers = {name: _Layer() for name in LAYERS}
        self.family_members = 0
        self.record_spans = False
        self.spans: list[tuple] = []
        self.report_label = None
        self.report_dims: Counter = Counter()
        self._stack: list[list] = []   # open spans: [span id, layer, child time]
        self._next_id = 0
        self._rebound: list[tuple] = []   # (namespace, attribute, original)
        self._installed = False
        self._family_type = None

    # ---------------------------------------------------------------- spans

    def call(self, layer_name: str, qualname: str, fn, args, kwargs):
        """Run ``fn`` as one span of ``layer_name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        frame = [self._next_id, layer_name, 0.0]
        stack.append(frame)
        failed = True
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            layer = self.layers[layer_name]
            layer.calls += 1
            layer.self_s += duration - frame[2]
            layer.errors += failed
            if parent is not None:
                parent[2] += duration
            if self.record_spans:
                self.spans.append((frame[0], parent[0] if parent else None,
                                   self.report_label, layer_name, qualname,
                                   start, end, failed))
        if (layer_name == "frames" and self._family_type is not None
                and isinstance(result, self._family_type)):
            self.family_members += len(result)
        return result

    def solve(self, fn_name: str, fn, args, kwargs):
        """Run a numpy solver, charging it to the innermost open span."""
        dims = _solver_dims(fn_name, args, kwargs) if self._stack else None
        if dims is None:
            return fn(*args, **kwargs)
        start = self.clock()
        result = fn(*args, **kwargs)
        elapsed = self.clock() - start
        m, n, batch = dims
        layer = self.layers[self._stack[-1][1]]
        layer.eig_calls += 1
        layer.eig_s += elapsed
        layer.eig_d3 += batch * m * n * min(m, n)
        self.report_dims[m if m == n else f"{m}x{n}"] += 1
        return result

    def snapshot(self) -> dict:
        """Current totals as ``{"<layer>.<field>": value}`` plus family members."""
        out = {f"{name}.{field}": getattr(layer, field)
               for name, layer in self.layers.items() for field in COUNTS + TIMES}
        out["frames.family_members"] = self.family_members
        return out

    # ------------------------------------------------------------- wrapping

    def _modules(self):
        root = importlib.import_module(PACKAGE)
        mods = [root]
        for info in pkgutil.iter_modules(root.__path__, PACKAGE + "."):
            mods.append(importlib.import_module(info.name))
        return mods

    def _public_names(self, module):
        names = getattr(module, "__all__", None)
        if names is not None:
            return list(names)
        return [name for name, obj in vars(module).items()
                if not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__]

    def _span_wrapper(self, fn, layer_name):
        qualname = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer_name, qualname, fn, args, kwargs)

        return wrapper

    def _solver_wrapper(self, fn_name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.solve(fn_name, fn, args, kwargs)

        return wrapper

    def _rebind(self, namespace, attribute, replacement):
        self._rebound.append((namespace, attribute, vars(namespace)[attribute]))
        setattr(namespace, attribute, replacement)

    def install(self) -> None:
        if self._installed or self._rebound:
            raise RuntimeError("a tracer installs once")
        self._installed = True
        modules = self._modules()
        prefix = PACKAGE + "."
        wrappers: dict = {}   # original function -> its wrapper
        classes: dict = {}    # public classes, in discovery order
        for module in modules:
            if module.__name__ == PACKAGE:
                continue
            layer_name = module.__name__[len(prefix):]
            if layer_name not in self.layers:
                raise KeyError(f"{module.__name__} is not in LAYERS")
            for name in self._public_names(module):
                obj = getattr(module, name, None)
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    classes[obj] = None
                elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._span_wrapper(obj, layer_name)
        for cls in classes:
            layer_name = cls.__module__[len(prefix):]
            for name, attr in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                if isinstance(attr, (classmethod, staticmethod)):
                    wrapped = type(attr)(self._span_wrapper(attr.__func__, layer_name))
                elif inspect.isfunction(attr):
                    wrapped = self._span_wrapper(attr, layer_name)
                else:
                    continue   # properties and plain data
                self._rebind(cls, name, wrapped)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(module, name, wrappers[obj])
        for fn_name in SOLVERS:
            fn = getattr(np.linalg, fn_name, None)
            if fn is not None:
                self._rebind(np.linalg, fn_name, self._solver_wrapper(fn_name, fn))
        frames = importlib.import_module(prefix + "frames")
        self._family_type = frames.VectorFamily

    def uninstall(self) -> None:
        for namespace, attribute, original in reversed(self._rebound):
            setattr(namespace, attribute, original)
        self._installed = False

    def restored(self) -> bool:
        """Whether every rebound attribute holds its original object again."""
        return not self._installed and all(
            vars(namespace).get(attribute) is original
            for namespace, attribute, original in self._rebound
        )
