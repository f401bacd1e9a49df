"""Spans around patlab's public functions, recorded from outside the package.

A Tracer wraps each target function in every patlab module namespace
that holds it (including dict tables of handlers), so calls made inside
the package are seen too.  Spans stay in memory as
(name, start, end, parent index, count); per-layer figures are derived
from them after the pass.  Targets that a later patlab no longer has are
skipped, and their figures read 0.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name); "Class.method" patches a method
TARGETS = [
    ("patlab.mapspec", "load_map_spec", "mapspec.load"),
    ("patlab.pwl", "orbit_linearization", "pwl.refine"),
    ("patlab.engine", "exact_allowed", "engine.allowed"),
    ("patlab.engine", "exact_basic_forbidden", "engine.basic"),
    ("patlab.engine", "shortest_forbidden_length", "engine.shortest"),
    ("patlab.engine", "is_realized", "engine.realize"),
    ("patlab.perms", "PatternSet.from_perms", "perms.patternset"),
    ("patlab.perms", "PatternSet.to_json", "perms.to_json"),
    ("patlab.perms", "PatternSet.from_json", "perms.from_json"),
    ("patlab.perms", "count_avoiders", "perms.count"),
    ("patlab.perms", "avoiders", "perms.list"),
    ("patlab.numeric", "sampled_allowed", "numeric.sample"),
    ("patlab.numeric", "first_missing_cap", "numeric.scan"),
    ("patlab.bounds", "shortest_bound", "bounds"),
    ("patlab.bounds", "basis_obstruction", "bounds"),
    ("patlab.bounds", "basis_length_check", "bounds"),
    ("patlab.cache", "load", "cache.load"),
    ("patlab.cache", "store", "cache.store"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS} | {"cli.run"})


def _sample_size(args, kwargs, _result) -> int:
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    if cfg is None:
        from patlab.numeric import SampleConfig

        cfg = SampleConfig()
    return cfg.grid_count + cfg.random_count


# what a span counts, from (args, kwargs, result)
COUNTERS = {
    "pwl.refine": lambda a, k, r: len(r.cells),
    "perms.count": lambda a, k, r: r,
    "numeric.sample": _sample_size,
    "cache.load": lambda a, k, r: len(r or ""),
    "cache.store": lambda a, k, r: len(a[1]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counter is not None:
                    rec[4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that the loaded patlab defines."""
        import patlab  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "patlab" or n.startswith("patlab.")]
        for mod_name, attr, name in TARGETS:
            home = sys.modules.get(mod_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                raw = owner.__dict__.get(method) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, method, self.wrap(name, raw))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = traced


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._open[-1] if t._open else -1
        self.index = len(t.spans)
        rec = [self.name, time.perf_counter(), None, parent, 0]
        t.spans.append(rec)
        t._open.append(self.index)
        return rec

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._open.pop()
        return False


def summarize(span_lists) -> dict[str, float]:
    """Per span name, over the span lists of one pass's processes: outermost
    total seconds, self seconds, summed count and largest single count."""
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.total"] = 0.0
        out[f"{name}.self"] = 0.0
        out[f"{name}.count"] = 0
        out[f"{name}.maxcount"] = 0
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, count) in enumerate(spans):
            dur = t1 - t0
            out[f"{name}.self"] += dur - child_time[i]
            out[f"{name}.count"] += count
            out[f"{name}.maxcount"] = max(out[f"{name}.maxcount"], count)
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}.total"] += dur
    return out
