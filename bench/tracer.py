"""Spans around the calls into each loctrace module, recorded from outside.

The tracer patches public functions and class methods of the package for
the length of one traced pass and restores them afterwards, so untraced
passes run the unmodified code.  Every call through a patched target
records a span (name, start, end, parent, counts).  Busy time of a layer
is the time its outermost spans cover; self time is a span's duration
minus the durations of its direct children.

A hook whose target no longer exists marks its layer absent; it never
raises.  Convenience wrappers slated for deletion (``trace_route_A`` and
friends) are deliberately not hooked.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    """Current resident set size of this process, in MiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.count_failures: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        """Record a span per call.  ``name`` may be a callable of the arguments;
        ``counts(args, kwargs)`` returns counts taken before the call, and a
        callable value in that dict is evaluated once the call has returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(
                name=name(*args, **kwargs) if callable(name) else name,
                start=0.0,
                parent=self._stack[-1] if self._stack else None,
            )
            if counts:
                span.counts = self._guarded(span.name, counts, args, kwargs) or {}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                for key, value in list(span.counts.items()):
                    if callable(value):
                        span.counts[key] = self._guarded(span.name, value)
                        if span.counts[key] is None:
                            del span.counts[key]

        return wrapper

    def _guarded(self, span_name: str, fn: Callable, *args):
        """A count reads program internals that a refactor may remove: a
        failure marks the count missing instead of failing the call."""
        try:
            return fn(*args)
        except Exception:
            self.count_failures.add(f"{span_name} (counts)")
            return None

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s, self_s and summed/maxed counts."""
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            t = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += own[i]
            if not self._has_ancestor_named(i, s.name):
                t["busy_s"] += s.end - s.start
            for key, value in s.counts.items():
                if key.endswith("_max"):
                    t[key] = max(t.get(key, value), value)
                else:
                    t[key] = t.get(key, 0) + value
        return out

    def _has_ancestor_named(self, i: int, name: str) -> bool:
        p = self.spans[i].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False


# ---------------------------------------------------------------------------
# hook table: layer name -> targets ("module:Class.attr" or "module.attr")
# ---------------------------------------------------------------------------


def _commutant_counts(args, kwargs):
    ops = args[0] if args else kwargs["operators"]
    n = len(ops[0])
    # rows of the doubled real system handed to the nullspace SVD
    return {"system_rows_max": 2 * len(ops) * n * n}


def _full_line_counts(args, kwargs):
    sgrid = args[0] if args else kwargs["sgrid"]
    return {"matrix_bytes": 16 * sgrid.n * sgrid.n}


def _route_c_setup_counts(args, kwargs):
    before = rss_mb()
    return {"rss_delta_mb": lambda: rss_mb() - before}


def _route_c_trace_counts(args, kwargs):
    lab, lam = args[0], args[1] if len(args) > 1 else kwargs["lam"]
    x = abs(lab.sgrid.x)
    # the block and its quadrature rows, as trace_route_c selects them
    block = x <= lam * (1.0 + 1e-12)
    return {
        "block_rows": int(block.sum()),
        "bad_rows": int((block & (x < lab.BAD_ROW_EXTENT)).sum()),
    }


def _suite_name(name, *args, **kwargs):
    return f"sandbox.suite.{name}"


@dataclass(frozen=True)
class Hook:
    layer: str
    targets: tuple[str, ...]
    counts: Optional[Callable] = None
    name: Optional[Callable] = None


HOOKS = (
    Hook("cli.run_trace_sweep", ("loctrace.cli.run_trace_sweep",)),
    Hook("cli.run_sandbox", ("loctrace.cli.run_sandbox",)),
    Hook("sandbox.suite", ("loctrace.sandbox.run_suite",), name=_suite_name),
    Hook("sandbox.commutant_of_set", ("loctrace.sandbox.commutant_of_set",), _commutant_counts),
    Hook("sandbox.resolvent_normality_check", ("loctrace.sandbox.resolvent_normality_check",)),
    Hook("fourier.build_fourier", ("loctrace.cli.build_fourier", "loctrace.fourier.build_fourier")),
    Hook("fourier.measure_defect", ("loctrace.fourier:FourierOperator.measure_defect",)),
    Hook(
        "fourier.apply_product_lattice",
        ("loctrace.fourier:FourierOperator.apply_product_lattice",),
    ),
    Hook(
        "fourier.full_line_fourier",
        ("loctrace.cutoff_trace.full_line_fourier", "loctrace.fourier.full_line_fourier"),
        _full_line_counts,
    ),
    Hook("cutoff_trace.route_a", ("loctrace.cutoff_trace:TraceComputation.route_a",)),
    Hook("cutoff_trace.route_b", ("loctrace.cutoff_trace:TraceComputation.route_b",)),
    Hook("cutoff_trace.error_bound", ("loctrace.cutoff_trace:TraceComputation.error_bound",)),
    Hook(
        "cutoff_trace.route_c_setup",
        ("loctrace.cutoff_trace:SignedTraceLab.__init__",),
        _route_c_setup_counts,
    ),
    Hook(
        "cutoff_trace.route_c_trace",
        ("loctrace.cutoff_trace:SignedTraceLab.trace_route_c",),
        _route_c_trace_counts,
    ),
    Hook("cutoff_trace.cyclicity", ("loctrace.cutoff_trace:SignedTraceLab.cyclicity_defect",)),
    Hook("operators.profile_eval", ("loctrace.operators:TestFunction.__call__",)),
)

_MISSING = object()


def _resolve(target: str):
    """(owner, attribute) of a target, or None when it does not exist."""
    if ":" in target:
        module_name, rest = target.split(":")
        class_name, attr = rest.split(".")
    else:
        module_name, _, attr = target.rpartition(".")
        class_name = None
    try:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
    except (ImportError, AttributeError):
        return None
    if getattr(owner, attr, _MISSING) is _MISSING:
        return None
    return owner, attr


def install(tracer: Tracer, hooks=HOOKS) -> tuple[Callable[[], None], list[str]]:
    """Patch every hook target; returns (restore, absent layer names).

    All bindings of one function share one wrapper, so a call through any of
    them records exactly one span.
    """
    undo = []
    absent = []
    for hook in hooks:
        resolved = [r for r in map(_resolve, hook.targets) if r is not None]
        if not resolved:
            absent.append(hook.layer)
            continue
        wrappers: dict[int, Callable] = {}
        for owner, attr in resolved:
            original = getattr(owner, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(hook.name or hook.layer, original, hook.counts)
            # restore exactly what the owner itself held (a class may inherit it)
            undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, wrappers[id(original)])

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore, absent
