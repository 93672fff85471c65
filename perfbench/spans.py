"""Spans around the package's public entry points, recorded from outside.

``Tracer.install`` replaces each entry point named in ``ENTRY_POINTS`` by a
wrapper, in its home module and in every module that bound it with
``from .x import y`` (and in the package namespace), so no call slips past.
Each call records a span ``(id, name, start, end, parent, item)`` in memory;
nothing under ``src/`` changes.  Worker threads of the ``verify`` pool keep
their own parent stacks; a span opened on a thread with an empty stack is
parented to the innermost open span of the thread that installed the tracer
(the ``run_theorem`` call that started the pool).

Stages without a public entry point are read from their ``lru_cache``
statistics only (``CACHES``).
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "skein_homfly"

#: traced entry points: metric name -> (module, attribute path)
ENTRY_POINTS = {
    "characters.character": ("characters", "character"),
    "schur.character_bracket_sum": ("schur", "character_bracket_sum"),
    "schur.plethysm_coefficients": ("schur", "plethysm_coefficients"),
    "exact.RationalQT.simplified": ("exact", "RationalQT.simplified"),
    "exact.RationalQT.substituted": ("exact", "RationalQT.substituted"),
    "exact.RationalQT.eq": ("exact", "RationalQT.__eq__"),
    "exact.limit_at_one": ("exact", "limit_at_one"),
    "exact.expand_series": ("exact", "expand_series"),
    "exact.truncated_series": ("exact", "truncated_series"),
    "torus.colored_homfly": ("torus", "colored_homfly"),
    "special.special_delta": ("special", "special_delta"),
    "special.special_H": ("special", "special_H"),
    "hecke.element_of_braid": ("hecke", "element_of_braid"),
    "hecke.markov_trace": ("hecke", "markov_trace"),
    "verify.run_theorem": ("verify", "run_theorem"),
    "cli.main": ("cli", "main"),
}

#: lru_caches read through cache_info(): metric name -> (module, attribute)
CACHES = {
    "characters._char": ("characters", "_char"),
    "schur._class_data": ("schur", "_class_data"),
    "schur._plethysm_cached": ("schur", "_plethysm_cached"),
    "schur.unknot_value": ("schur", "unknot_value"),
    "torus._torus_value": ("torus", "_torus_value"),
    "hecke._trace_perm": ("hecke", "_trace_perm"),
}


def _rational_terms(r) -> int:
    return len(r.num.terms) + len(r.den.terms)


def _count_simplified(tracer, args, kwargs, result):
    tracer.add("exact.RationalQT.simplified.terms_in", _rational_terms(args[0]))
    tracer.add("exact.RationalQT.simplified.terms_out", _rational_terms(result))


def _count_series_order(tracer, args, kwargs, result):
    tracer.maximum("exact.truncated_series.max_order", result.order)


def _count_hecke_terms(tracer, args, kwargs, result):
    tracer.add("hecke.element_of_braid.terms", len(result.terms))


def _count_stdout(tracer, args, kwargs, result):
    # the caller captures stdout in a fresh StringIO for each CLI call
    getvalue = getattr(sys.stdout, "getvalue", None)
    if getvalue is not None:
        tracer.add("cli.main.stdout_bytes", len(getvalue().encode()))


#: counts recorded at a boundary from its arguments and result
COUNTERS = {
    "exact.RationalQT.simplified": (
        _count_simplified,
        ("exact.RationalQT.simplified.terms_in", "exact.RationalQT.simplified.terms_out"),
    ),
    "exact.truncated_series": (_count_series_order, ("exact.truncated_series.max_order",)),
    "hecke.element_of_braid": (_count_hecke_terms, ("hecke.element_of_braid.terms",)),
    "cli.main": (_count_stdout, ("cli.main.stdout_bytes",)),
}


def _module(name):
    return importlib.import_module(f"{PACKAGE}.{name}")


def _resolve(module, path):
    owner = _module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.item = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()
        self._restore = []
        self._counts_lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, n):
        with self._counts_lock:  # counters are also bumped from pool threads
            self.counts[name] += n

    def maximum(self, name, n):
        with self._counts_lock:
            self.counts[name] = max(self.counts[name], n)

    def wrap(self, name, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home and stack is not home else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.item))
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every entry point at its definition and at every import binding."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, (module, path) in ENTRY_POINTS.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            counter = COUNTERS.get(name, (None,))[0]
            wrapped = self.wrap(name, original, counter)
            self._rebind(owner, attr, original, wrapped)
            if not isinstance(owner, type):
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and (mod, key) != (owner, attr):
                            self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def self_times(spans):
    """Map span id -> self time: the part of its interval no child covers.

    Children of one span may overlap when they run on pool threads, so the
    self time is the sum of the gaps left by the union of their intervals.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        gaps, reach = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            if a > reach:
                gaps += min(a, end) - reach
            reach = max(reach, min(b, end))
        out[sid] = gaps + max(0.0, end - reach)
    return out


def layer_metrics(spans, counts) -> dict:
    """Per-layer calls, inclusive and self time, counts and cache statistics.

    Inclusive time counts only the outermost span of each name on a call
    path, so recursion through one entry point is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    calls = defaultdict(int)
    incl = defaultdict(float)
    own = defaultdict(float)
    for sid, name, start, end, parent, _ in spans:
        calls[name] += 1
        own[name] += selfs[sid]
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[1] != name:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            incl[name] += end - start
    out = {}
    for name in ENTRY_POINTS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.incl_s"] = (incl[name], "s")
        out[f"{name}.self_s"] = (own[name], "s")
    for _, names in COUNTERS.values():
        for key in names:
            unit = "bytes" if key.endswith("_bytes") else "count"
            out[key] = (counts.get(key, 0), unit)
    for name, (module, attr) in CACHES.items():
        info = getattr(_module(module), attr).cache_info()
        looked_up = info.hits + info.misses
        out[f"{name}.misses"] = (info.misses, "count")
        out[f"{name}.hit_ratio"] = (info.hits / looked_up if looked_up else 0.0, "ratio")
    return out


def check_spans(spans) -> list:
    """Problems with a span list: children outside their parent, negative self time."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for sid, name, start, end, parent, _ in spans:
        if end < start:
            problems.append(f"span {sid} {name} ends before it starts")
        if parent is not None:
            p = by_id.get(parent)
            if p is None:
                problems.append(f"span {sid} {name} has no recorded parent {parent}")
            elif start < p[2] or end > p[3]:
                problems.append(f"span {sid} {name} lies outside its parent {p[1]}")
    for sid, value in self_times(spans).items():
        if value < 0:
            problems.append(f"span {sid} {by_id[sid][1]} has negative self time {value}")
    return problems
