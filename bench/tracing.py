"""Per-layer spans and counters, installed around the package from outside.

The layers are the package's modules.  :class:`Tracer` wraps every public
function and method of each layer module, plus the arithmetic dunders and
constructors of its classes, and installs each wrapper in every namespace
that holds the original: module globals (``from .x import f`` binds its
own copy), dict registries such as ``cli.FAMILY_BUILDERS`` or
``verification._SUITES``, and class attributes, including aliases such as
``__rmul__ = __mul__``.  ``uninstall`` restores every original object.

A span is one call of a wrapped function.  Spans are aggregated in memory
as they close instead of being stored one by one, because a single pass
opens millions of them: per function the call count, the inclusive time,
and the self time, which is the inclusive time minus the time of the
wrapped calls it made.  The layer's self time is the sum over its
functions, so time spent in a private helper counts for the public
caller that invoked it.

:class:`FractionCounter` counts ``Fraction`` arithmetic and construction
by wrapping the class's own methods; it runs in a pass of its own because
it slows every scalar operation.  Its counts depend on the interpreter's
``fractions`` implementation, so compare them only on one Python version.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from workloads import SUITES

LAYERS = ("cli", "verification", "powersum", "bernoulli", "lah", "eulerian", "stirling",
          "symfunc", "sheffer", "poly", "fps", "exact")
_DUNDERS = frozenset({"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                      "__rmul__", "__truediv__", "__neg__", "__pow__"})
ROUTES = {  # metric suffix -> wrapped function key (o.g.f. routes split by argument)
    "direct": "powersum.ps_direct",
    "ordinary": "powersum.ps_via_ordinary",
    "faulhaber": "powersum.ps_faulhaber",
    "egf": "powersum.eps_coefficients",
}


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _DUNDERS


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    """Span aggregation for one pass at a time; ``reset`` between passes."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, inclusive_s]
        self.by_arg: dict[str, float] = defaultdict(float)  # inclusive time split by argument
        self.distinct: dict[str, set] = defaultdict(set)
        self.checks = 0
        self._stack = [0.0]
        self._patches: list[tuple] = []

    # -- wrapping -----------------------------------------------------------------

    def _probe(self, key: str):
        """Extra bookkeeping that needs the call's arguments, for a few keys."""
        if key == "powersum.gps_coefficients":
            def probe(args, kwargs, result, dt):
                self.by_arg["ogf_" + _arg(args, kwargs, 3, "route", "stacked")] += dt
        elif key == "verification.run_suite":
            def probe(args, kwargs, result, dt):
                self.by_arg["suite." + _arg(args, kwargs, 0, "name")] += dt
                self.checks += len(result)
        elif key == "stirling.s2_triangle":
            def probe(args, kwargs, result, dt):
                prog = _arg(args, kwargs, 0, "prog")
                self.distinct[key].add((prog.d, prog.a, _arg(args, kwargs, 1, "size")))
        elif key == "bernoulli.bernoulli_numbers":
            def probe(args, kwargs, result, dt):
                self.distinct[key].add(_arg(args, kwargs, 0, "n_max"))
        else:
            return None
        return probe

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        probe = self._probe(key)

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - children
                stats[2] += elapsed
            if probe is not None:
                probe(args, kwargs, result, elapsed)
            return result

        span.__name__, span.__qualname__, span.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
        return span

    def _wrappers(self) -> dict[int, object]:
        """id(original function) -> wrapper, for every layer's public callables."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"apsums.{layer}")
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__ or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        fn = getattr(member, "__func__", member)
                        if _public(attr) and inspect.isfunction(fn) and id(fn) not in wrappers:
                            wrappers[id(fn)] = self._wrap(f"{layer}.{name}.{fn.__name__}", fn)
        return wrappers

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = self._wrappers()

        def replacement(obj):
            if isinstance(obj, (classmethod, staticmethod)):
                inner = wrappers.get(id(obj.__func__))
                return None if inner is None else type(obj)(inner)
            return wrappers.get(id(obj))

        for name, module in list(sys.modules.items()):
            if name != "apsums" and not name.startswith("apsums."):
                continue
            for attr, obj in list(vars(module).items()):
                new = replacement(obj)
                if new is not None:
                    self._patch(module, attr, obj, new, setattr)
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        new = replacement(v)
                        if new is not None:
                            self._patch(obj, k, v, new, dict.__setitem__)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for member_name, member in list(vars(obj).items()):
                        new = replacement(member)
                        if new is not None:
                            self._patch(obj, member_name, member, new, setattr)

    def _patch(self, holder, name, original, new, setter) -> None:
        setter(holder, name, new)
        self._patches.append((holder, name, original, setter))

    def uninstall(self) -> None:
        while self._patches:
            holder, name, original, setter = self._patches.pop()
            setter(holder, name, original)

    def reset(self) -> None:
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0]
        self.by_arg.clear()
        self.distinct.clear()
        self.checks = 0

    # -- results ------------------------------------------------------------------

    def _get(self, key: str, field: int):
        return self.stats.get(key, [0, 0.0, 0.0])[field]

    def timings(self) -> dict[str, float]:
        """Per-pass times in seconds, keyed by metric name."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for key, (_, self_s, _) in self.stats.items():
            out[key.split(".", 1)[0] + ".self_s"] += self_s
        for metric, key in (("fps.mul_self_s", "fps.Fps.__mul__"),
                            ("fps.recip_self_s", "fps.Fps.reciprocal"),
                            ("fps.compose_self_s", "fps.Fps.compose"),
                            ("fps.reverse_self_s", "fps.Fps.reverse"),
                            ("fps.pow_self_s", "fps.Fps.pow"),
                            ("sheffer.multiply_self_s", "sheffer.Triangle.multiply"),
                            ("sheffer.inverse_self_s", "sheffer.Triangle.inverse"),
                            ("sheffer.pair_triangle_self_s", "sheffer.ShefferPair.triangle"),
                            ("sheffer.triangle_new_self_s", "sheffer.Triangle.__init__")):
            out[metric] = self._get(key, 1)
        out["fps.pow_s"] = self._get("fps.Fps.pow", 2)
        out["lah.sheffer_route_s"] = self._get("lah.lah_sheffer_triangle", 2)
        for route, key in ROUTES.items():
            out[f"powersum.route.{route}_s"] = self._get(key, 2)
        for route in ("stacked", "eulerian"):
            out[f"powersum.route.ogf_{route}_s"] = self.by_arg.get(f"ogf_{route}", 0.0)
        for suite in SUITES:
            out[f"verification.suite.{suite}_s"] = self.by_arg.get(f"suite.{suite}", 0.0)
        return out

    def counts(self) -> dict[str, float]:
        """Per-pass call counts and useful-work ratios, keyed by metric name."""
        out = {f"{layer}.calls": 0 for layer in LAYERS}
        for key, (calls, _, _) in self.stats.items():
            out[key.split(".", 1)[0] + ".calls"] += calls
        out["fps.mul_calls"] = self._get("fps.Fps.__mul__", 0)
        for metric, key in (("stirling.s2_triangle", "stirling.s2_triangle"),
                            ("bernoulli.numbers", "bernoulli.bernoulli_numbers")):
            calls = self._get(key, 0)
            out[f"{metric}_calls"] = calls
            # No calls wasted nothing: the ratio of useful to attempted work is 1.
            out[f"{metric}_useful_ratio"] = len(self.distinct[key]) / calls if calls else 1.0
        out["verification.checks"] = self.checks
        return out


class FractionCounter:
    """Counts Fraction arithmetic calls and constructions while installed."""

    OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
           "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__")

    def __init__(self) -> None:
        self.ops = 0
        self.new = 0
        self._saved: dict[str, object] = {}

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("counter already installed")
        self._saved = {name: Fraction.__dict__[name] for name in self.OPS + ("__new__",)}
        for name in self.OPS:
            setattr(Fraction, name, self._counted_op(self._saved[name]))
        original_new = self._saved["__new__"].__func__

        def counted_new(cls, *args, **kwargs):
            self.new += 1
            return original_new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted_new)

    def _counted_op(self, fn):
        def counted(*args):
            self.ops += 1
            return fn(*args)
        return counted

    def uninstall(self) -> None:
        for name, original in self._saved.items():
            setattr(Fraction, name, original)
        self._saved = {}
