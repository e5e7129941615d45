"""Spans and counters around qjoint's public functions, installed from outside.

The tracer wraps functions by name (``module:attr`` or ``module:Class.attr``)
and rebinds every alias of the original object in the loaded ``qjoint``
modules, so a call that reaches the function through another module's import
is traced too.  A name that no longer exists is recorded as absent and
skipped; the traced run still completes and its metrics read zero.

Spans (name, start, end, parent, operation key) stay in memory until
:meth:`Tracer.dump`; the caller sets :attr:`Tracer.op` to the key of the
operation under way.  Hot scalar helpers get a counter (calls, and time per
operation key when asked) instead of a span, because a span per call would
cost more than the call.  Counter time is not subtracted from the enclosing
span's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

# What the traced run wraps: a span for each of SPANS; a call counter for each
# (target, timed) of COUNTERS, which also sums its time when ``timed``.
SPANS = (
    "qjoint.cli:main",
    "qjoint.serialize:load_json_file",
    "qjoint.serialize:wire_to_check_inputs",
    "qjoint.serialize:report_to_wire",
    "qjoint.serialize:permutator_report_to_wire",
    "qjoint.serialize:search_result_to_wire",
    "qjoint.serialize:canonical_dumps",
    "qjoint.measurement:Povm.from_elements",
    "qjoint.measurement:MeasurementFamily.from_povms",
    "qjoint.measurement:MeasurementFamily.binary_projective",
    "qjoint.distribution:orbit_states",
    "qjoint.distribution:check_functional_axioms",
    "qjoint.distribution:check_marginals",
    "qjoint.distribution:check_disjointness",
    "qjoint.distribution:check_reducibility",
    "qjoint.distribution:check_sequential_independence",
    "qjoint.distribution:check_on_state_projector",
    "qjoint.distribution:theorem1_check",
    "qjoint.distribution:theorem2_verdict",
    "qjoint.permutation:is_fully_permutable",
    "qjoint.counterexample:search",
    "qjoint.counterexample:minimize",
    "qjoint.counterexample:least_squares",
    "qjoint.counterexample:verify_instance",
    "qjoint.jordan:jordan_decompose",
    "qjoint.jordan:repair_projector",
)
COUNTERS = (
    ("qjoint.distribution:trace_inner", False),
    ("qjoint.distribution:trace_distance", False),
    ("qjoint.counterexample:parametrize_projector", True),
)


def _short(target: str) -> str:
    module, attr = target.split(":")
    return module.removeprefix("qjoint.") + "." + attr


def _result_counts(name: str, result) -> dict[str, int]:
    """Work counts read from a traced call's return value."""
    if name == "distribution.orbit_states":
        return {"states": len(result)}
    if name in ("counterexample.minimize", "counterexample.least_squares"):
        out = {"nfev": int(getattr(result, "nfev", 0))}
        if name == "counterexample.minimize":
            out["nit"] = int(getattr(result, "nit", 0))
        return out
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: object


class Tracer:
    """Installs wrappers, records spans and counters, and restores nothing.

    The traced process exits after the run, so wrappers are never removed.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.counter_s: dict[tuple, float] = {}  # (name, operation key) -> seconds
        self.absent: list[str] = []
        self.op: object = None
        self._stack: list[int] = []

    # -- installation -----------------------------------------------------
    def install(self, spans=SPANS, counters=COUNTERS) -> None:
        for target in spans:
            self._wrap(target, self._span_wrapper)
        for target, timed in counters:
            self._wrap(target, functools.partial(self._counter_wrapper, timed=timed))

    def _wrap(self, target: str, make) -> None:
        module_name, attr_path = target.split(":")
        name = _short(target)
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(name)
            return
        owner = module
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                self.absent.append(name)
                return
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if not isinstance(raw, classmethod):
                self.absent.append(name)
                return
            setattr(owner, attr, classmethod(make(name, raw.__func__)))
            return
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qjoint" or mod_name.startswith("qjoint.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            for key, n in _result_counts(name, result).items():
                self.count(f"{name}.{key}", n)
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn, timed: bool):
        counts, seconds = self.counts, self.counter_s
        key = f"{name}.calls"
        counts.setdefault(key, 0)
        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed_counted(*args, **kwargs):
            counts[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = (name, self.op)
                seconds[slot] = seconds.get(slot, 0.0) + time.perf_counter() - t0

        return timed_counted

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict:
        """Seconds per operation key and name: each span's self time (its
        duration minus its direct children) plus each timed counter's time."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: dict = {}
        for span, inner in zip(self.spans, child):
            names = out.setdefault(span.op, {})
            names[span.name] = names.get(span.name, 0.0) + (span.end - span.start - inner)
        for (name, op), sec in self.counter_s.items():
            names = out.setdefault(op, {})
            names[name] = names.get(name, 0.0) + sec
        return out

    def span_calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def dump(self, path: str) -> None:
        """Write one JSON line per span, then one line of counters and absent names."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent, span.op]))
                fh.write("\n")
            fh.write(json.dumps({
                "counts": self.counts,
                "counter_s": [[name, op, sec] for (name, op), sec in self.counter_s.items()],
                "absent": self.absent,
            }))
            fh.write("\n")
