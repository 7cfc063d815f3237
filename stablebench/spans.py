"""Per-module spans and counters, installed from outside stablerep.

install() wraps the public functions and methods of each stablerep module
with a timer and rebinds every module attribute that refers to them, so
`from .yor import irrep_table` in another module is traced too.  A
module's self time is the time inside its wrapped callables minus the
time spent in wrapped callables they call (of any module; a call into
the same module is credited back to it).

Counters are taken at the same boundaries.  Spans and counters live in
one Tracer; a forked job inherits the installed wrappers and dumps its
own totals when it ends.
"""

from __future__ import annotations

import functools
import inspect
import importlib
import json
import time
from collections import defaultdict

import numpy
from scipy import optimize as _scipy_optimize

LAYERS = ("permutations", "partitions", "characters", "yor", "fourier", "thoma",
          "canonical", "stability", "gns", "induction", "cli")

# Methods called millions of times per job that do O(1) work: wrapping them
# would multiply job time, so their cost stays with the caller.
UNWRAPPED = {"Permutation": {"__call__"}, "StateFunction": {"__call__"}}
WRAPPED_DUNDERS = {"__call__", "__mul__", "__sub__", "__rmul__"}

COUNTERS = (
    "permutations.constructed", "yor.table_calls", "yor.table_entries",
    "yor.matrix_calls", "fourier.blocks", "fourier.block_dim_sum", "fourier.svd_eig_s",
    "stability.rho_distance_calls", "gns.carrier_dim", "thoma.supports",
    "thoma.optimizer_starts", "thoma.nfev", "canonical.evaluations",
    "characters.mn_calls", "induction.calls",
)


class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []

    def reset(self):
        self.self_time.clear()
        self.counts.clear()

    def totals(self):
        out = {"%s.s" % layer: self.self_time[layer] for layer in LAYERS}
        out.update({name: self.counts[name] for name in COUNTERS})
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.totals(), fh)

    def span(self, layer, fn, after=None):
        """fn timed as `layer`; after(args, result) returns counter increments."""
        stack, self_time, counts = self._stack, self.self_time, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_time[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                for name, amount in after(args, result).items():
                    counts[name] += amount
            return result

        return traced

    def install(self, package):
        """Wrap every layer of the imported stablerep package; returns self."""
        # Not getattr(package, name): the package rebinds `fourier` and `gns`
        # to the functions of those names.
        modules = {name: importlib.import_module("%s.%s" % (package.__name__, name))
                   for name in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = self.span(layer, obj, AFTER.get(name))
        for mod in [package, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])

        counts = self.counts
        perm = modules["permutations"].Permutation
        init = perm.__init__

        def counted_init(self, mapping):
            counts["permutations.constructed"] += 1
            init(self, mapping)

        perm.__init__ = counted_init
        thoma = modules["thoma"]
        fit = thoma._fit_support

        def counted_fit(*args):
            counts["thoma.supports"] += 1
            return fit(*args)

        thoma._fit_support = counted_fit
        thoma.optimize = _Proxy(_scipy_optimize, {
            name: _optimizer(counts, getattr(_scipy_optimize, name))
            for name in ("minimize", "least_squares")})
        modules["fourier"].np = _Proxy(numpy, {"linalg": _Proxy(numpy.linalg, {
            name: _timed(counts, "fourier.svd_eig_s", getattr(numpy.linalg, name))
            for name in ("svd", "eigvalsh")})})
        return self

    def _wrap_methods(self, layer, cls):
        skip = UNWRAPPED.get(cls.__name__, set())
        for name, attr in list(vars(cls).items()):
            if name in skip or (name.startswith("_") and name not in WRAPPED_DUNDERS):
                continue
            after = AFTER.get("%s.%s" % (cls.__name__, name))
            if isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self.span(layer, attr.__func__, after)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.span(layer, attr, after))


# Counter increments taken when a wrapped callable returns, keyed by its name.
AFTER = {
    "irrep_table": lambda args, r: {"yor.table_calls": 1, "yor.table_entries": r.size},
    "irrep_matrix": lambda args, r: {"yor.matrix_calls": 1},
    "fourier": lambda args, r: {"fourier.blocks": len(r.blocks), "fourier.block_dim_sum":
                                sum(b.shape[0] for b in r.blocks.values())},
    "rho_distance": lambda args, r: {"stability.rho_distance_calls": 1},
    "gns": lambda args, r: {"gns.carrier_dim": r.dimension},
    "CanonicalState.__call__": lambda args, r: {"canonical.evaluations": 1},
    "mn_character": lambda args, r: {"characters.mn_calls": 1},
    "induced_character": lambda args, r: {"induction.calls": 1},
}


class _Proxy:
    """A module seen through a few replaced attributes."""

    def __init__(self, base, overrides):
        self._base = base
        vars(self).update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _optimizer(counts, fn):
    def run(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts["thoma.optimizer_starts"] += 1
        counts["thoma.nfev"] += result.nfev
        return result
    return run


def _timed(counts, name, fn):
    def run(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            counts[name] += time.perf_counter() - start
    return run
