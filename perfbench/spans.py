"""Spans around the calls into each wahlkit layer, installed from outside.

The program is not edited: ``install`` replaces each traced function, in
every loaded wahlkit module that holds it (modules import functions by
name), with a wrapper that records a span.  A span's self time is its
duration minus the time of the spans it caused.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# (span group, module, attribute); BENCHMARK.json names a group's metrics
# <group>.calls (calls), <group>.s or <group>.self_s (self time)
SPANS = (
    ("chains.wahl_singularity", "wahlkit.chains", "wahl_singularity"),
    ("chains.discrepancies", "wahlkit.chains", "discrepancies"),
    ("configuration.blow_up", "wahlkit.configuration", "Configuration.blow_up"),
    ("configuration.query", "wahlkit.configuration", "Configuration.curve"),
    ("configuration.query", "wahlkit.configuration", "Configuration.node"),
    ("configuration.query", "wahlkit.configuration", "Configuration.nodes_between"),
    ("configuration.query", "wahlkit.configuration", "Configuration.pairing"),
    ("configuration.query", "wahlkit.configuration", "Configuration.neighbors"),
    ("configuration.intersection_matrix", "wahlkit.configuration",
     "Configuration.intersection_matrix"),
    ("configuration.det_exact", "wahlkit.configuration", "det_exact"),
    ("configuration.rank_exact", "wahlkit.configuration", "rank_exact"),
    ("assembly.marked_surface", "wahlkit.assembly", "MarkedSurface.__post_init__"),
    ("assembly.nef_ample_check", "wahlkit.assembly", "nef_ample_check"),
    ("assembly.obstruction_dim", "wahlkit.assembly", "obstruction_dim"),
    ("assembly.pi1_verdict", "wahlkit.assembly", "pi1_verdict"),
    ("plans.targeted_outcomes", "wahlkit.plans", "_targeted_outcomes"),
    ("plans.tower_outcomes", "wahlkit.plans", "_tower_outcomes"),
    ("plans.tower_scripts", "wahlkit.plans", "_tower_scripts"),
    ("plans.greedy_mark", "wahlkit.plans", "_greedy_mark"),
    ("plans.mark_chains", "wahlkit.plans", "mark_chains"),
    ("plans.combo_feasible", "wahlkit.plans", "_combo_feasible"),
    ("plans.infer_plan", "wahlkit.plans", "infer_plan"),
    ("plans.search", "wahlkit.plans", "search_constructions"),
    ("catalog.verify", "wahlkit.catalog.verify", "verify_all"),
    ("cli.run", "wahlkit.cli", "run"),
)

GROUPS = frozenset(group for group, _, _ in SPANS)
# groups whose non-None results count as marked leaves
MARKERS = ("plans.mark_chains", "plans.greedy_mark")
# groups whose results carry a `states` count
SEARCHES = ("plans.infer_plan", "plans.search")


class Tracer:
    """Per-group call counts, self and total times, and result counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.marked: Counter = Counter()
        self.states = 0
        # stack[0] collects the durations of top-level spans
        self.stack = [0.0]
        self.missing: list[str] = []

    @property
    def top_level_s(self) -> float:
        return self.stack[0]

    def _close(self, group: str, start: float) -> None:
        duration = time.perf_counter() - start
        child = self.stack.pop()
        self.stack[-1] += duration
        self.self_s[group] += duration - child
        self.total_s[group] += duration

    def _observe(self, group: str, result) -> None:
        if group in MARKERS and result is not None:
            self.marked[group] += 1
        elif group in SEARCHES:
            self.states += result.states

    def span(self, group: str, fn):
        observe = group in MARKERS or group in SEARCHES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(group, start)
                self.calls[group] += 1
            if observe:
                self._observe(group, result)
            return result
        return wrapper

    def generator_span(self, group: str, fn):
        """A generator's work happens at each resumption: one span per step."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[group] += 1
            inner = fn(*args, **kwargs)
            while True:
                self.stack.append(0.0)
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(group, start)
                yield item
        return wrapper

    def install(self) -> None:
        """Wrap every function of SPANS wherever a wahlkit module holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "wahlkit" or name.startswith("wahlkit.")]
        for group, module_name, path in SPANS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:  # renamed or removed: its metrics read 0
                self.missing.append(f"{module_name}.{path}")
                continue
            wrap = self.generator_span if inspect.isgeneratorfunction(fn) else self.span
            wrapper = wrap(group, fn)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)

    def totals(self) -> dict:
        """Everything recorded, by span group, as plain JSON."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "marked": dict(self.marked),
                "states": self.states, "top_level_s": self.top_level_s,
                "missing": self.missing}
