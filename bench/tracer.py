"""Per-module spans for entwit, installed from outside the package.

``install()`` replaces every public function of the seven entwit modules,
in every entwit namespace that binds it (``entwit.kron``,
``entwit.hilbert.kron`` and ``entwit.witnesses.kron`` are one function
bound three times), with a wrapper that records a span.  The methods of
the two ``hilbert`` classes are wrapped on the class.  Methods of the other
modules' classes are left alone, so their time stays with the function that
called them (polynomial arithmetic is part of ``polyid.expand``).  Nothing
under ``src/`` is edited.

Spans are aggregated as they close rather than stored: each key keeps its
call count, its total self time (span duration minus the time covered by
its child spans) and the exceptions that left it.  Keys are
``<module>.<function>``, with these groups:

* ``hilbert.moments`` -- ``expectation``, ``variance`` and the second-moment
  helper the conditions call directly;
* ``hilbert.matrix_new`` -- ``ComplexMatrix.__init__``;
* ``hilbert.matrix_op`` -- the other ``ComplexMatrix`` methods (``+``, ``@``,
  powers, Hermiticity checks), so operator arithmetic is charged to the
  module that does it and not to the condition that asked for it;
* ``hilbert.state_new`` -- the ``QuantumState`` constructors (the mixed one
  runs a full ``eigvalsh``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("cli", "states", "operators", "hilbert", "witnesses", "optimize", "polyid")

_GROUPS = {
    "hilbert.expectation": "hilbert.moments",
    "hilbert.variance": "hilbert.moments",
    "hilbert._second_moment": "hilbert.moments",
}
_DUNDERS_KEPT = {"__init__", "__add__", "__sub__", "__mul__", "__rmul__",
                 "__matmul__", "__neg__"}


class Tracer:
    """Span aggregates for one process; create one and call :meth:`install`."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.kron_bytes = 0
        self.max_side = 0
        self.terms_out = 0
        # One frame per open span: [key, start, time covered by children].
        self._stack: list[list] = []

    def _wrap(self, key: str, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter
        module = key.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                self._close(frame, clock())
                # Count an exception once per module it leaves.
                if not stack or not stack[-1][0].startswith(module + "."):
                    self.errors[module] = self.errors.get(module, 0) + 1
                raise
            stack.pop()
            self._close(frame, clock())
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _close(self, frame, end: float) -> None:
        key, start, covered = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[key] = self.calls.get(key, 0) + 1
        self.self_s[key] = self.self_s.get(key, 0.0) + duration - covered

    def _observe_kron(self, args, result) -> None:
        self.kron_bytes += 16 * result.side * result.side

    def _observe_matrix(self, args, result) -> None:
        self.max_side = max(self.max_side, args[0].side)

    def _observe_expand(self, args, result) -> None:
        self.terms_out += len(result.terms)

    def install(self) -> None:
        """Wrap the public names of every traced module, in place."""
        modules = {name: importlib.import_module(f"entwit.{name}") for name in MODULES}
        namespaces = [mod for name, mod in sys.modules.items()
                      if mod is not None and (name == "entwit" or name.startswith("entwit."))]
        replacements = {}
        for name, mod in modules.items():
            public = list(mod.__all__) + (["_second_moment"] if name == "hilbert" else [])
            for attr in public:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{name}.{attr}"
                    observe = {"hilbert.kron": self._observe_kron,
                               "polyid.expand": self._observe_expand}.get(key)
                    replacements[id(obj)] = self._wrap(_GROUPS.get(key, key), obj, observe)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
        self._wrap_class(modules["hilbert"].ComplexMatrix)
        self._wrap_class(modules["hilbert"].QuantumState)

    def _wrap_class(self, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS_KEPT:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn, rewrap = raw, None
            else:
                continue
            observe = None
            if cls.__name__ == "QuantumState":
                key = "hilbert.state_new"
            elif attr == "__init__":
                key, observe = "hilbert.matrix_new", self._observe_matrix
            else:
                key = "hilbert.matrix_op"
            wrapper = self._wrap(key, fn, observe)
            setattr(cls, attr, rewrap(wrapper) if rewrap else wrapper)
