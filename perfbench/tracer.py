"""Aggregating tracer over schurkit's public names.

``Tracer.install()`` replaces each public function listed in ``SPANS`` (and
the ``Polynomial`` operators in ``METHODS``) by a wrapper, rebinding it in
every ``schurkit`` module that holds the same object, so calls made between
modules are seen as well as calls from the benchmark.  Each wrapper adds to
an aggregate per name: calls, inclusive time (outermost call of that name
only, so recursion is not counted twice) and self time (time minus the time
of traced calls made inside it).  No span is kept per call.

Only public names are wrapped.  A name that a later version of the library
no longer has, or no longer exposes in the expected form, reports zeros and
a note; it never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

SPANS = (
    "partitions.partitions_of",
    "characters.character",
    "characters.dimension",
    "polyalgebra.exact_divide",
    "polyalgebra.determinant",
    "polyalgebra.canonical_text",
    "polyalgebra.to_term_list",
    "polyalgebra.from_term_list",
    "symfun.homogeneous",
    "symfun.elementary",
    "symfun.schur",
    "symfun.schur_via_characters",
    "symfun.hall_littlewood",
    "symfun.miwa_push",
    "verify.run_scope",
    "cli.run",
)

# (module.class.attribute, aggregate name)
METHODS = (
    ("polyalgebra.Polynomial.__add__", "polyalgebra.add"),
    ("polyalgebra.Polynomial.__radd__", "polyalgebra.add"),
    ("polyalgebra.Polynomial.__mul__", "polyalgebra.mul"),
    ("polyalgebra.Polynomial.__rmul__", "polyalgebra.mul"),
    ("polyalgebra.Polynomial.substitute", "polyalgebra.substitute"),
)

AGGREGATES = tuple(dict.fromkeys(SPANS + tuple(name for _, name in METHODS)))

# Extra exact counts, each reported as <name>.<field>.
EXTRAS = (
    ("partitions.partitions_of", "yielded"),
    ("polyalgebra.canonical_text", "terms"),
    ("symfun.homogeneous", "cache_hits"),
    ("symfun.homogeneous", "cache_misses"),
    ("verify.run_scope", "cases"),
)
OUTPUT_TERMS = "symfun.output_terms"

PACKAGE = "schurkit"


class _Stat:
    __slots__ = ("calls", "time_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.time_s = 0.0
        self.self_s = 0.0
        self.extra = {}


class Tracer:
    def __init__(self):
        self.stats = {name: _Stat() for name in AGGREGATES}
        self.notes: list[str] = []
        self.output_terms = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._cache_base = None
        self._homogeneous = None
        self._symfun_stats = {self.stats[n] for n in SPANS if n.startswith("symfun.")}

    # -- per-thread call stack ---------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.active
        except AttributeError:
            local.stack, local.active = [], {}
            return local.stack, local.active

    def _enter(self, stat):
        stack, active = self._state()
        frame = [0.0]
        stack.append(frame)
        active[stat] = active.get(stat, 0) + 1
        return frame

    def _leave(self, stat, frame, elapsed):
        stack, active = self._state()
        stack.pop()
        depth = active[stat] = active[stat] - 1
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            stat.self_s += elapsed - frame[0]
            if not depth:
                stat.time_s += elapsed

    def _count(self, stat, field, amount):
        with self._lock:
            stat.extra[field] = stat.extra.get(field, 0) + amount

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        after = self._after_hooks().get(name)
        is_symfun = name.startswith("symfun.")
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(stat)
            symfun_outer = is_symfun and tracer._symfun_depth() == 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(stat, frame, perf() - start)
                with tracer._lock:
                    stat.calls += 1
            if symfun_outer:
                tracer._add_output_terms(result)
            return after(args, result) if after else result

        return wrapper

    def _symfun_depth(self):
        _, active = self._state()
        return sum(n for s, n in active.items() if s in self._symfun_stats)

    def _add_output_terms(self, result):
        terms = getattr(result, "terms", None)
        if isinstance(terms, dict):
            with self._lock:
                self.output_terms += len(terms)

    def _after_hooks(self):
        def partitions_after(args, result):
            stat = self.stats["partitions.partitions_of"]
            if hasattr(result, "__next__"):
                return _TimedIterator(self, stat, result)
            if hasattr(result, "__len__"):
                self._count(stat, "yielded", len(result))
            return result

        def canonical_after(args, result):
            terms = getattr(args[0], "terms", None) if args else None
            if isinstance(terms, dict):
                self._count(self.stats["polyalgebra.canonical_text"], "terms", len(terms))
            return result

        def run_scope_after(args, result):
            try:
                cases = sum(int(item[2]) for item in result)
            except (TypeError, ValueError, IndexError):
                self.note("verify.run_scope: result no longer holds (name, passed, cases)")
                return result
            self._count(self.stats["verify.run_scope"], "cases", cases)
            return result

        return {
            "partitions.partitions_of": partitions_after,
            "polyalgebra.canonical_text": canonical_after,
            "verify.run_scope": run_scope_after,
        }

    # -- installation ----------------------------------------------------------

    def note(self, text: str):
        if text not in self.notes:
            self.notes.append(text)

    def _module(self, short):
        try:
            return importlib.import_module(f"{PACKAGE}.{short}")
        except ImportError:
            return None

    def _rebind(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap every listed name that exists; note the ones that do not."""
        for qual in SPANS:
            short, attr = qual.rsplit(".", 1)
            module = self._module(short)
            original = getattr(module, attr, None) if module else None
            if not callable(original):
                self.note(f"{qual}: not found, reported as 0")
                continue
            self._rebind(original, self._wrap(qual, original))
            if qual == "symfun.homogeneous":
                self._homogeneous = original
        for qual, name in METHODS:
            short, cls_name, attr = qual.rsplit(".", 2)
            module = self._module(short)
            cls = getattr(module, cls_name, None) if module else None
            original = vars(cls).get(attr) if isinstance(cls, type) else None
            if not callable(original):
                self.note(f"{qual}: not found, reported as 0")
                continue
            setattr(cls, attr, self._wrap(name, original))
        self._cache_base = self._cache_info()

    def _cache_info(self):
        info = getattr(self._homogeneous, "cache_info", None)
        if not callable(info):
            self.note("symfun.homogeneous: no cache_info(), cache counts reported as 0")
            return None
        return info()

    # -- report ------------------------------------------------------------------

    def times(self) -> dict:
        """The ``time_s`` and ``self_s`` metrics so far, for per-request deltas."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.time_s"] = stat.time_s
            out[f"{name}.self_s"] = stat.self_s
        return out

    def report(self) -> dict:
        """Metric name -> value for every aggregate, present or not."""
        out = {f"{name}.calls": stat.calls for name, stat in self.stats.items()}
        out.update(self.times())
        for name, field in EXTRAS:
            out[f"{name}.{field}"] = self.stats[name].extra.get(field, 0)
        now = self._cache_info() if self._cache_base is not None else None
        if now is not None:
            out["symfun.homogeneous.cache_hits"] = now.hits - self._cache_base.hits
            out["symfun.homogeneous.cache_misses"] = now.misses - self._cache_base.misses
        out[OUTPUT_TERMS] = self.output_terms
        return out


def metric_names() -> list[str]:
    """Names ``Tracer.report`` returns, in a fixed order."""
    names = [f"{n}.{f}" for n in AGGREGATES for f in ("calls", "time_s", "self_s")]
    names += [f"{n}.{f}" for n, f in EXTRAS]
    return names + [OUTPUT_TERMS]


class _TimedIterator:
    """Times each step of a traced generator as a call of its aggregate."""

    def __init__(self, tracer, stat, iterator):
        self._tracer = tracer
        self._stat = stat
        self._it = iterator

    def __iter__(self):
        return self

    def __next__(self):
        tracer, stat = self._tracer, self._stat
        frame = tracer._enter(stat)
        start = time.perf_counter()
        try:
            item = next(self._it)
        finally:
            tracer._leave(stat, frame, time.perf_counter() - start)
        tracer._count(stat, "yielded", 1)
        return item
