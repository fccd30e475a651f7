"""Columnar fast-path rules: SIM006 (unstable order), SIM009 (parity).

The columnar engines' contract is *byte-identical wire* against the
scalar reference path.  The equivalence suites certify that contract
per-scenario; these rules certify the two code patterns that break it
silently on scenarios the suites did not draw:

* an **unstable sort** on a tie-bearing key column resolves ties in an
  implementation-defined order — the scalar path's strict-``<`` scan is
  deterministic, so the transcripts diverge only on inputs with
  duplicate keys (SIM006);
* a columnar twin whose **signature or phase annotations drift** from
  its scalar sibling dispatches fine today and mis-charges tomorrow
  (SIM009).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Set, Tuple

from repro.analysis.dataflow import array_locals
from repro.analysis.findings import Finding
from repro.analysis.rules.base import (
    LintContext,
    Rule,
    call_tail,
    dotted_name,
    keyword_arg,
    string_const,
    walk_functions,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.callgraph import FunctionSummary, Project

#: numpy sort entry points whose *order* output depends on stability.
_ORDER_SORTS = frozenset({"argsort"})
#: numpy sort entry points flagged when applied to arrays (value sorts
#: are order-deterministic for scalars, but structured/record arrays and
#: downstream index arithmetic are not worth the ambiguity on the wire).
_VALUE_SORTS = frozenset({"sort"})
_NUMPY_ROOTS = frozenset({"np", "numpy"})


def _wire_affecting(project: Project) -> Set[str]:
    """Functions whose outputs can reach the wire.

    Seeds: every function that (transitively) communicates, plus every
    columnar twin reached through a ``fast_path_enabled()`` dispatch.
    Closure: their resolved callees — a helper's sort order propagates
    into whatever its caller ships.
    """
    cached = getattr(project, "_wire_affecting_cache", None)
    if cached is not None:
        return cached  # type: ignore[no-any-return]
    seed: Set[str] = set(project.communicates)
    for _scalar, twin, _site in project.fast_twins:
        seed.add(twin.qualname)
    work = list(seed)
    closure = set(seed)
    while work:
        q = work.pop()
        fn = project.functions.get(q)
        if fn is None:
            continue
        for site in fn.calls:
            r = site.resolved
            if r is not None and r not in closure:
                closure.add(r)
                work.append(r)
    setattr(project, "_wire_affecting_cache", closure)
    return closure


class UnstableColumnarOrder(Rule):
    """An unstable numpy sort in a wire-affecting function.

    ``np.argsort`` (and the ``.argsort()`` method on array locals)
    defaults to an unstable introsort: rows with equal keys come back in
    an arbitrary order, which is exactly the scalar/columnar divergence
    class the per-scenario equivalence suites can miss.  Pass
    ``kind="stable"`` — or use ``np.lexsort``, which is always stable.
    ``np.unique``-derived ordering fed straight into a communication
    payload is flagged too: its ascending-value order must be argued
    against the scalar path's iteration order, not assumed.
    """

    code = "SIM006"
    name = "unstable-columnar-order"
    summary = "unstable numpy sort (or np.unique order) on a wire-affecting path"

    def check(
        self, tree: ast.Module, path: str, ctx: Optional[LintContext] = None
    ) -> Iterator[Finding]:
        wire: Optional[Set[str]] = (
            _wire_affecting(ctx.project) if ctx is not None else None
        )
        for func in walk_functions(tree):
            if not self._in_scope(func, ctx, wire):
                continue
            arrays = array_locals(func)
            unique_locals = self._unique_locals(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                yield from self._check_sort(node, path, arrays)
                yield from self._check_unique_payload(
                    node, path, unique_locals
                )

    def _in_scope(
        self,
        func: ast.AST,
        ctx: Optional[LintContext],
        wire: Optional[Set[str]],
    ) -> bool:
        if ctx is None or wire is None:
            return True  # single-file analysis: every function is suspect
        line = getattr(func, "lineno", 1)
        name = getattr(func, "name", "")
        for qual, fn in ctx.module.functions.items():
            if fn.line == line and fn.name == name:
                return qual in wire
        return False

    def _check_sort(
        self, node: ast.Call, path: str, arrays: Set[str]
    ) -> Iterator[Finding]:
        tail = call_tail(node)
        if tail not in _ORDER_SORTS | _VALUE_SORTS:
            return
        kind = keyword_arg(node, "kind")
        if kind is not None and string_const(kind) == "stable":
            return
        func = node.func
        is_np_call = False
        target = ""
        if isinstance(func, ast.Attribute):
            root = dotted_name(func.value)
            if root in _NUMPY_ROOTS:
                is_np_call = True
                if node.args:
                    target = dotted_name(node.args[0]) or "<expr>"
                else:
                    target = "?"
            elif isinstance(func.value, ast.Name) and func.value.id in arrays:
                is_np_call = True
                target = func.value.id
        if not is_np_call:
            return
        if kind is not None:
            yield self.finding(
                f"{tail} on '{target}' with kind={ast.unparse(kind)!s} — "
                "wire-affecting sorts must pass kind=\"stable\" so ties "
                "match the scalar path's first-occurrence order",
                path, node,
            )
        else:
            yield self.finding(
                f"{tail} on '{target}' without kind=\"stable\" — ties "
                "resolve in an arbitrary order and the scalar/columnar "
                "transcripts can diverge on duplicate keys",
                path, node,
            )

    @staticmethod
    def _unique_locals(func: ast.AST) -> Set[str]:
        """Names bound (possibly via tuple unpack) from ``np.unique``."""
        out: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not (
                isinstance(value, ast.Call) and call_tail(value) == "unique"
                and (dotted_name(value.func) or "").split(".")[0] in _NUMPY_ROOTS
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
                elif isinstance(target, ast.Tuple):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            out.add(elt.id)
        return out

    def _check_unique_payload(
        self, node: ast.Call, path: str, unique_locals: Set[str]
    ) -> Iterator[Finding]:
        tail = call_tail(node)
        if tail not in {"Message", "broadcast", "scheduled_broadcasts",
                        "batched_queries", "superstep"}:
            return
        if not unique_locals:
            return
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name) and sub.id in unique_locals:
                    yield self.finding(
                        f"np.unique-derived '{sub.id}' feeds a communication "
                        "payload — its ascending-value order must be shown "
                        "to match the scalar path's iteration order "
                        "(suppress with the argument, or sort explicitly)",
                        path, node,
                    )
                    return


class FallbackParity(Rule):
    """A fast-path twin drifting from its scalar fallback.

    Every ``if fast_path_enabled(): return g(...)`` dispatch promises
    that ``g`` is a drop-in for the enclosing scalar function: same
    parameters in the same order, and the same ``ledger.phase(...)``
    annotations so both engines bill the same phase names.  Signature or
    phase drift dispatches fine today and silently breaks ledger
    equivalence (or the call itself) on the next edit.
    """

    code = "SIM009"
    name = "fallback-parity"
    summary = "backend twin signature/phase annotations drifted from scalar fallback"

    def check(
        self, tree: ast.Module, path: str, ctx: Optional[LintContext] = None
    ) -> Iterator[Finding]:
        if ctx is None:
            return
        # Report at the dispatch site, once per (scalar, twin) pair whose
        # dispatch lives in this module.
        for scalar, twin, site in ctx.project.fast_twins:
            if scalar.module != ctx.module.modname:
                continue
            anchor = _Anchor(site.line, site.col)
            yield from self._check_pair(scalar, twin, path, anchor)

    def _check_pair(
        self,
        scalar: FunctionSummary,
        twin: FunctionSummary,
        path: str,
        anchor: "_Anchor",
    ) -> Iterator[Finding]:
        sp = self._model_params(scalar)
        tp = self._model_params(twin)
        if tp[: len(sp)] != sp:
            yield Finding(
                self.code,
                f"fast-path twin '{twin.name}' signature drifted from "
                f"scalar fallback '{scalar.name}': {self._sig(sp)} vs "
                f"{self._sig(tp)} — the dispatch promises a drop-in",
                path, anchor.line, anchor.col,
            )
        elif len(tp) > len(sp):
            extra = len(tp) - len(sp)
            if twin.n_defaults < extra:
                yield Finding(
                    self.code,
                    f"fast-path twin '{twin.name}' grew required "
                    f"parameter(s) {tp[len(sp):]} its scalar fallback "
                    f"'{scalar.name}' never passes",
                    path, anchor.line, anchor.col,
                )
        s_phases = set(scalar.phase_names)
        t_phases = set(twin.phase_names)
        if s_phases != t_phases:
            yield Finding(
                self.code,
                f"fast-path twin '{twin.name}' charges phases "
                f"{sorted(t_phases) or '[]'} but scalar fallback "
                f"'{scalar.name}' charges {sorted(s_phases) or '[]'} — "
                "both engines must bill identical phase names",
                path, anchor.line, anchor.col,
            )

    @staticmethod
    def _model_params(fn: FunctionSummary) -> Tuple[str, ...]:
        return tuple(p for p in fn.params if p not in ("self", "cls"))

    @staticmethod
    def _sig(params: Tuple[str, ...]) -> str:
        return "(" + ", ".join(params) + ")"


class _Anchor:
    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int) -> None:
        self.line = line
        self.col = col
