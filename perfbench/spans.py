"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: `SpanRecorder.install`
wraps every public function and method of the pgf layer modules after they
are imported, so no file under src/pgf changes. Plain functions are rebound
under every name that refers to them in loaded ``pgf`` modules, including
the names a module imported from another (``from .pc import pc_to_perm``);
methods and classmethods are replaced on their class. Spans then follow
whatever route production code takes, and a function that a later refactor
adds is wrapped without editing this file.

Spans are aggregated while they close (calls, total and self time per
function) instead of being stored one by one: the bounds workload makes
over a million membership calls. Self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
import weakref

# The pgf modules measured as layers. `perm` is left out on purpose: its
# methods run hundreds of thousands of times per job, so its cost shows in
# the self time of `group` and `ops`. `kernels` is left out and never
# imported here; `table` reaches it on its own.
LAYERS = (
    "pc",
    "group",
    "table",
    "ops",
    "family",
    "ramification",
    "census",
    "verify",
    "cli",
)

# Functions whose individual span durations are kept for percentiles.
KEEP_DURATIONS = ("census.classify_presentation", "ramification.compare_bounds")


def _lattice_subgroups(rec, result):
    # lattice() memoises per table, so count each Lattice object once
    if result not in rec._lattices_seen:
        rec._lattices_seen.add(result)
        rec.counters["table.lattice.subgroups"] += len(result.subgroups)


def _quotient_index(rec, result):
    rec.counters["ops.quotient_group.index_sum"] += len(result.reps)


def _witness_steps(rec, result):
    if result.witness:
        rec.counters["family.witness_steps"] += len(result.witness)


# Work counts read from return values: span key -> (counter name, hook).
RETURN_COUNTERS = {
    "table.CayleyTable.lattice": ("table.lattice.subgroups", _lattice_subgroups),
    "ops.quotient_group": ("ops.quotient_group.index_sum", _quotient_index),
    "family.semiabelian_table": ("family.witness_steps", _witness_steps),
}


def public_callables(module):
    """Yield (key, owner, attr, raw) for each public function of `module`
    and each public method, classmethod or staticmethod of its classes.
    An explicit ``__init__`` counts as public; a dataclass's generated one
    does not."""
    layer = module.__name__.rpartition(".")[2]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in sorted(vars(obj).items()):
                if attr == "__init__":
                    if dataclasses.is_dataclass(obj):
                        continue
                elif attr.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                    yield f"{layer}.{name}.{attr}", obj, attr, raw


class SpanRecorder:
    def __init__(self):
        self._readers = {}  # span key -> reads [calls, total_s, self_s]
        self.durations = {key: [] for key in KEEP_DURATIONS}
        self.counters = {name: 0 for name, _ in RETURN_COUNTERS.values()}
        self.top_level_s = 0.0  # time covered by spans with no parent span
        self._stack = []  # child time accumulated under each open span
        self._lattices_seen = weakref.WeakSet()

    def install(self, modules):
        """Wrap the public callables of `modules` (imported pgf layers)."""
        for module in modules:
            for key, owner, attr, raw in list(public_callables(module)):
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(self._wrap(key, raw.__func__)))
                elif inspect.isclass(owner):
                    setattr(owner, attr, self._wrap(key, raw))
                else:
                    self._rebind(raw, self._wrap(key, raw))

    @staticmethod
    def _rebind(original, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "pgf" or name.startswith("pgf.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, key, fn):
        calls, total, own = 0, 0.0, 0.0
        durations = self.durations.get(key)
        hook = RETURN_COUNTERS.get(key, (None, None))[1]
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = time.perf_counter
        rec = self

        # Per-call cost is what the traced run's overhead is made of, so
        # the counters live in closure cells rather than in a dict.
        def span(*args, **kwargs):
            nonlocal calls, total, own
            push(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own += dt - pop()
                total += dt
                calls += 1
                if stack:
                    stack[-1] += dt
                else:
                    rec.top_level_s += dt
                if durations is not None:
                    durations.append(dt)
            if hook is not None:
                hook(rec, result)
            return result

        self._readers[key] = lambda: [calls, total, own]
        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        return span

    @property
    def stats(self):
        """Span key -> [calls, total_s, self_s]."""
        return {key: read() for key, read in self._readers.items()}

    def layer_self_s(self):
        """Self time summed per layer module."""
        out = {layer: 0.0 for layer in LAYERS}
        for key, (_, _, self_s) in self.stats.items():
            out[key.partition(".")[0]] += self_s
        return out
