"""Outside-in spans: wrap public callables of ``repro`` with timers.

A :class:`Tracer` replaces each target callable with a wrapper that
pushes a frame on an in-memory stack, times the call, and on exit adds
the call's duration minus its child spans' durations to the span's self
time.  Function targets are replaced at every module attribute under
``repro`` that *is* the original object, so ``from x import f`` binding
sites are covered too; method targets are replaced on their class.
Nothing is written while the program runs; :meth:`Tracer.report` gives
the totals at the end.  Spans never touch the program's state, so a
traced run charges the same ledger as an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: (span, module, attribute path).  Several targets may share one span.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("serve.decode", "repro.serve.parser", "decode_command"),
    ("serve.encode", "repro.serve.parser", "encode"),
    ("serve.encode", "repro.serve.parser", "encode_event"),
    ("serve.submit", "repro.serve.reducer", "ServeReducer.submit"),
    ("serve.view_capture", "repro.serve.view", "ForestView.capture"),
    ("stream.admit", "repro.stream.coalescer", "CoalescingBuffer.admit"),
    ("stream.admit", "repro.stream.coalescer", "AdmissionBuffer.admit"),
    ("stream.cut", "repro.stream.coalescer", "CoalescingBuffer.cut"),
    ("stream.cut", "repro.stream.coalescer", "AdmissionBuffer.cut"),
    ("core.build", "repro.core.api", "DynamicMST.build"),
    ("core.apply_batch", "repro.core.api", "DynamicMST.apply_batch"),
    ("core.batch_add", "repro.core.batch_addition", "batch_add"),
    ("core.batch_delete", "repro.core.batch_deletion", "batch_delete"),
    ("core.structural", "repro.core.scripts", "run_structural_batch"),
    ("perf.structural_columnar", "repro.perf.columnar", "run_structural_batch_columnar"),
    ("comm.broadcasts", "repro.comm.rerouting", "scheduled_broadcasts"),
    ("comm.batched_queries", "repro.comm.aggregate", "batched_queries"),
    ("comm.lenzen_sort", "repro.comm.lenzen", "lenzen_sort"),
    ("comm.lenzen_route", "repro.comm.lenzen", "lenzen_route"),
    ("cclique.cc_msf", "repro.cclique.engines", "cc_msf"),
    ("sim.superstep", "repro.sim.network", "Network.superstep"),
    ("sim.superstep_plane", "repro.sim.network", "Network.superstep_plane"),
)

SPANS: Tuple[str, ...] = tuple(dict.fromkeys(span for span, _, _ in TARGETS))


class Tracer:
    """Per-span call counts and self times for one traced region."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = dict.fromkeys(SPANS, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(SPANS, 0.0)
        #: Targets that no longer exist, as "module:attribute".
        self.missing: List[str] = []
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, span: str, fn: Callable) -> Callable:
        stack, clock = self._stack, self.clock
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time spent in child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[span] += 1
                self_s[span] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; list the others in ``missing``."""
        for span, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                raw = vars(owner)[attr] if outer else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            if outer:
                self._patch_method(span, owner, attr, raw)
            else:
                self._patch_function(span, raw)

    def _patch_method(self, span: str, cls: type, attr: str, raw: object) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(span, raw.__func__))
        else:
            wrapped = self._wrap(span, raw)
        setattr(cls, attr, wrapped)
        self._patched.append((cls, attr, raw))

    def _patch_function(self, span: str, fn: Callable) -> None:
        wrapped = self._wrap(span, fn)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        """Put every original object back where it was found."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def total_s(self) -> float:
        """Wall time inside any span (the sum of all self times)."""
        return sum(self.self_s.values())

    def report(self, wall_s: float) -> Dict[str, float]:
        """``<span>.calls``, ``<span>.self_s`` and ``<span>.share`` (self
        time over ``wall_s``, the traced region's wall time)."""
        out: Dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
            out[f"{span}.share"] = self.self_s[span] / wall_s if wall_s > 0 else 0.0
        return out
