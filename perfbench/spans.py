"""Span tracing of the ``aent`` layers from outside the package.

A :class:`Tracer` replaces every public function of every ``aent`` module
at each binding where a caller looks it up (``aent.entropy.tensorize``,
``aent.experiments.profile``, ``aent.cli.read_matrix`` ...), plus two
methods named in ``METHOD_SPANS``.  Each call records a span keyed by its
call path, so inclusive time, self time (inclusive minus the time of
traced children) and call counts can be read per layer afterwards.
Leaving the ``with`` block puts every original object back.

No file of the package changes; spans inside the package would be a
change of their own.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time
import types

# (module, class, attribute) -> span name for methods worth a span of their own.
METHOD_SPANS = {
    ("attention", "AttentionScene", "build"): "attention.scene_build",
    ("rmt", "MarchenkoPastur", "__init__"): "rmt.marchenko_pastur",
}


def _argv_output_bytes(args, kwargs, result):
    """Bytes of the --out / --json files a ``cli.main`` call wrote."""
    argv = list(args[0] if args else kwargs.get("argv") or [])
    total = 0
    for flag in ("--out", "--json"):
        if flag in argv[:-1]:
            path = argv[argv.index(flag) + 1]
            if path != "-" and os.path.exists(path):
                total += os.path.getsize(path)
    return total


# span name -> (counter metric, amount(args, kwargs, result)).
COUNTERS = {
    "mps.decompose": ("mps.decompose.cuts", lambda a, kw, r: len(r.bond_spectra)),
    "matrixfile.read_matrix": (
        "matrixfile.read_matrix.bytes",
        lambda a, kw, r: os.path.getsize(a[0] if a else kw["path"]),
    ),
    "cli.main": ("cli.bytes_out", _argv_output_bytes),
}


def span_name(fn) -> str:
    """``<defining module>.<function>``, collapsed to one word when equal."""
    module = fn.__module__.rsplit(".", 1)[-1]
    return module if module == fn.__name__ else f"{module}.{fn.__name__}"


def aent_modules() -> list[types.ModuleType]:
    """The ``aent`` package and every submodule of it."""
    package = importlib.import_module("aent")
    names = sorted(info.name for info in pkgutil.iter_modules(package.__path__))
    return [package] + [importlib.import_module(f"aent.{name}") for name in names]


def traceable_bindings() -> list[tuple[object, str, object, str]]:
    """(owner, attribute, original, span name) for every binding to wrap."""
    bindings = []
    for module in aent_modules():
        for attr, value in sorted(vars(module).items()):
            if (
                not attr.startswith("_")
                and isinstance(value, types.FunctionType)
                and value.__module__.startswith("aent.")
            ):
                bindings.append((module, attr, value, span_name(value)))
    for (module, cls, attr), name in sorted(METHOD_SPANS.items()):
        owner = getattr(importlib.import_module(f"aent.{module}"), cls)
        bindings.append((owner, attr, vars(owner)[attr], name))
    return bindings


class Tracer:
    """Wraps the package's functions for the life of a ``with`` block."""

    def __init__(self):
        # call path (tuple of span names) -> [calls, inclusive s, self s]
        self.paths: dict[tuple[str, ...], list[float]] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, time spent in traced children]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for owner, attr, original, name in traceable_bindings():
                setattr(owner, attr, self._wrap_binding(original, name))
                self._patched.append((owner, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def wrapped_calls(self) -> int:
        return int(sum(calls for calls, _, _ in self.paths.values()))

    def _wrap_binding(self, original, name):
        if isinstance(original, classmethod):
            return classmethod(self.wrap(original.__func__, name))
        return self.wrap(original, name)

    def wrap(self, fn, name):
        """``fn`` recording a span called ``name`` on every call."""
        counter = COUNTERS.get(name)
        stack = self._stack
        paths = self.paths

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                path = tuple(f[0] for f in stack)
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = paths.setdefault(path, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if counter is not None:
                metric, amount = counter
                self.counters[metric] = self.counters.get(metric, 0) + amount(args, kwargs, result)
            return result

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive s (outermost calls only), self s."""
        out: dict[str, dict[str, float]] = {}
        for path, (calls, inclusive, self_s) in self.paths.items():
            name = path[-1]
            layer = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            layer["calls"] += calls
            layer["self_s"] += self_s
            if name not in path[:-1]:
                layer["s"] += inclusive
        return out


def per_call_overhead(calls: int = 20000) -> float:
    """Seconds a traced call costs over a plain one, measured on a no-op."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "calibration")
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - plain) / calls)
    return max(best, 0.0)
