"""Pass 1 of the two-pass analyzer: symbols, calls, and effects.

One :class:`ModuleSummary` per file captures everything the
flow-sensitive rules need to reason *across* files without re-reading
them: function/method definitions with their parameter lists, the
imports that name other project symbols, every call site (with whether
it sits under a ``with ledger.phase(...)`` and whether it sits under a
``fast_path_enabled()`` gate), and each function's *direct* effects —
does it put words on the wire, does it annotate the ledger, does it
touch space gauges.

A :class:`Project` stitches the summaries together: it resolves
intra-package calls (``from repro.x import f`` / ``import repro.x as
m`` / bare same-module calls / ``self.method``) and then propagates
effects transitively to a fixpoint:

``communicates``
    the function's call chain reaches a communication primitive;
``unphased_comm``
    ...reaches one with **no** dominating ``ledger.phase`` anywhere
    along the chain (the SIM004 condition);
``charges``
    the chain reaches an explicit ledger annotation;
``phase_covered``
    every known project call site of the function is itself inside a
    phase block (or inside a covered function) — the "``ledger.phase``
    two frames up" that legitimately silences SIM004.

Summaries are plain-data (``to_dict``/``from_dict``) so the incremental
cache (:mod:`repro.analysis.cache`) can persist pass 1 per file and
rebuild the whole-program graph without re-parsing unchanged files.
"""

from __future__ import annotations

import ast
import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.dataflow import (
    fast_gate_locals,
    is_fast_gate_test,
    phase_dominated_nodes,
)
from repro.analysis.astutil import (
    COMM_TAILS,
    GROW_METHODS,
    LEDGER_TAILS,
    call_tail,
    dotted_name,
    string_const,
)

#: Gauge-touching call tails (the SIM005 vocabulary, reused for the
#: "mutates gauged state" effect summary).
GAUGE_TAILS = frozenset({"set_gauge", "bump_gauge", "_update_gauges", "refresh_gauges"})

#: Pseudo-function name for a module's top-level statements.
MODULE_BODY = "<module>"


@dataclass
class CallSite:
    """One call expression inside one function."""

    line: int
    col: int
    callee: str  #: the dotted text as written (``net.superstep``) or tail
    tail: str  #: last component of the callee
    resolved: Optional[str] = None  #: project qualname, when resolvable
    in_phase: bool = False  #: lexically under a ``with ...phase(...)``
    in_fast_gate: bool = False  #: under an ``if fast_path_enabled():`` branch
    is_twin_return: bool = False  #: gate branch is a bare ``return g(...)``

    def to_dict(self) -> Dict[str, Any]:
        return {
            "line": self.line, "col": self.col, "callee": self.callee,
            "tail": self.tail, "resolved": self.resolved,
            "in_phase": self.in_phase, "in_fast_gate": self.in_fast_gate,
            "is_twin_return": self.is_twin_return,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CallSite":
        return cls(
            line=int(d["line"]), col=int(d["col"]), callee=str(d["callee"]),
            tail=str(d["tail"]), resolved=d.get("resolved"),
            in_phase=bool(d["in_phase"]), in_fast_gate=bool(d["in_fast_gate"]),
            is_twin_return=bool(d["is_twin_return"]),
        )


@dataclass
class FunctionSummary:
    """One function/method definition and its direct (local) effects."""

    qualname: str  #: ``repro.mod.Class.method`` / ``repro.mod.func``
    module: str
    name: str
    line: int
    col: int
    params: Tuple[str, ...]
    n_defaults: int
    calls: List[CallSite] = field(default_factory=list)
    direct_comm: bool = False
    direct_unphased_comm: bool = False
    direct_charge: bool = False
    phase_names: Tuple[str, ...] = ()
    touches_gauges: bool = False
    grows_self_state: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname, "module": self.module,
            "name": self.name, "line": self.line, "col": self.col,
            "params": list(self.params), "n_defaults": self.n_defaults,
            "calls": [c.to_dict() for c in self.calls],
            "direct_comm": self.direct_comm,
            "direct_unphased_comm": self.direct_unphased_comm,
            "direct_charge": self.direct_charge,
            "phase_names": list(self.phase_names),
            "touches_gauges": self.touches_gauges,
            "grows_self_state": self.grows_self_state,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=str(d["qualname"]), module=str(d["module"]),
            name=str(d["name"]), line=int(d["line"]), col=int(d["col"]),
            params=tuple(d["params"]), n_defaults=int(d["n_defaults"]),
            calls=[CallSite.from_dict(c) for c in d["calls"]],
            direct_comm=bool(d["direct_comm"]),
            direct_unphased_comm=bool(d["direct_unphased_comm"]),
            direct_charge=bool(d["direct_charge"]),
            phase_names=tuple(d["phase_names"]),
            touches_gauges=bool(d["touches_gauges"]),
            grows_self_state=bool(d["grows_self_state"]),
        )


@dataclass
class ModuleSummary:
    """Pass-1 output for one file."""

    path: str
    modname: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    aliases: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path, "modname": self.modname,
            "functions": {q: f.to_dict() for q, f in self.functions.items()},
            "aliases": dict(self.aliases),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            path=str(d["path"]), modname=str(d["modname"]),
            functions={
                q: FunctionSummary.from_dict(f)
                for q, f in d["functions"].items()
            },
            aliases={str(k): str(v) for k, v in d["aliases"].items()},
        )


# ----------------------------------------------------------------------
# module naming
# ----------------------------------------------------------------------
def module_name_for(path: str, root: Optional[str] = None) -> str:
    """Dotted module name for ``path``.

    Files under a ``src`` directory get their real package name
    (``src/repro/sim/network.py`` → ``repro.sim.network``); everything
    else (tests, tools, fixtures) gets a path-derived pseudo-name so it
    can still own symbols in the project table.
    """
    norm = os.path.normpath(os.path.abspath(path))
    parts = norm.split(os.sep)
    if "src" in parts:
        rel = parts[parts.index("src") + 1:]
    elif root is not None:
        relpath = os.path.relpath(norm, os.path.abspath(root))
        rel = [] if relpath.startswith("..") else relpath.split(os.sep)
    else:
        rel = []
    if not rel:
        rel = parts[-2:]
    stem = [p[:-3] if p.endswith(".py") else p for p in rel]
    if stem and stem[-1] == "__init__":
        stem = stem[:-1]
    return ".".join(p for p in stem if p) or os.path.basename(norm)


# ----------------------------------------------------------------------
# pass 1: summarize one module
# ----------------------------------------------------------------------
class _ModuleSummarizer(ast.NodeVisitor):
    def __init__(self, path: str, modname: str) -> None:
        self.summary = ModuleSummary(path=path, modname=modname)
        self._class_stack: List[str] = []

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.summary.aliases[local] = target
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.summary.aliases[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # -- definitions ----------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._summarize_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._summarize_function(node)

    def _qualname(self, name: str) -> str:
        scope = ".".join([self.summary.modname, *self._class_stack])
        return f"{scope}.{name}"

    def _summarize_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = node.args
        params = tuple(
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        )
        fn = FunctionSummary(
            qualname=self._qualname(node.name),
            module=self.summary.modname,
            name=node.name,
            line=node.lineno,
            col=node.col_offset,
            params=params,
            n_defaults=len(args.defaults) + sum(
                1 for d in args.kw_defaults if d is not None
            ),
        )
        _collect_effects(node, fn)
        self.summary.functions[fn.qualname] = fn
        # Nested defs/classes still get their own summaries.
        self._class_stack.append(node.name)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._class_stack.pop()


def _collect_effects(
    func: ast.FunctionDef | ast.AsyncFunctionDef, fn: FunctionSummary
) -> None:
    """Fill ``fn`` with call sites and direct effects from ``func``'s body."""
    phase_nodes = phase_dominated_nodes(func)
    gate_vars = fast_gate_locals(func)
    gate_nodes: Set[int] = set()
    twin_calls: Set[int] = set()
    phase_names: List[str] = []

    for node in ast.walk(func):
        if isinstance(node, ast.If) and is_fast_gate_test(node.test, gate_vars):
            for sub in node.body:
                for inner in ast.walk(sub):
                    gate_nodes.add(id(inner))
            # Twin-style dispatch: the gate branch is (imports +) one
            # ``return g(...)`` — the columnar function substitutes for
            # the scalar body wholesale.
            tail_stmt = node.body[-1] if node.body else None
            if (
                isinstance(tail_stmt, ast.Return)
                and isinstance(tail_stmt.value, ast.Call)
            ):
                twin_calls.add(id(tail_stmt.value))

    own_body = set()
    for stmt in _own_statements(func):
        for inner in ast.walk(stmt):
            own_body.add(id(inner))

    for node in ast.walk(func):
        if id(node) not in own_body:
            continue  # belongs to a nested def/class, summarized separately
        if not isinstance(node, ast.Call):
            continue
        tail = call_tail(node)
        if tail is None:
            continue
        in_phase = id(node) in phase_nodes
        site = CallSite(
            line=node.lineno,
            col=node.col_offset,
            callee=dotted_name(node.func) or tail,
            tail=tail,
            in_phase=in_phase,
            in_fast_gate=id(node) in gate_nodes,
            is_twin_return=id(node) in twin_calls,
        )
        fn.calls.append(site)
        if tail in COMM_TAILS:
            fn.direct_comm = True
            if not in_phase:
                fn.direct_unphased_comm = True
        if tail in LEDGER_TAILS:
            fn.direct_charge = True
            if tail == "phase" and node.args:
                name = string_const(node.args[0])
                if name is not None:
                    phase_names.append(name)
        if tail in GAUGE_TAILS:
            fn.touches_gauges = True
        if tail in GROW_METHODS and isinstance(node.func, ast.Attribute):
            root: ast.expr = node.func.value
            while isinstance(root, (ast.Subscript, ast.Attribute)):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "self":
                fn.grows_self_state = True

    fn.phase_names = tuple(dict.fromkeys(phase_names))


def _own_statements(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterable[ast.stmt]:
    """Statements of ``func`` excluding nested function/class bodies."""
    stack: List[ast.stmt] = list(func.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        for name in ("body", "orelse", "finalbody"):
            children = getattr(stmt, name, None)
            if children:
                stack.extend(
                    c for c in children
                    if not isinstance(
                        c, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    )
                )
        for handler in getattr(stmt, "handlers", ()):
            stack.extend(
                c for c in handler.body
                if not isinstance(
                    c, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            )


def summarize_module(
    tree: ast.Module, path: str, root: Optional[str] = None
) -> ModuleSummary:
    """Run pass 1 over one parsed module."""
    modname = module_name_for(path, root)
    visitor = _ModuleSummarizer(path, modname)
    # Module top-level code participates too (driver scripts, tools/).
    top = FunctionSummary(
        qualname=f"{modname}.{MODULE_BODY}", module=modname,
        name=MODULE_BODY, line=1, col=0, params=(), n_defaults=0,
    )
    pseudo = ast.Module(
        body=[
            s for s in tree.body
            if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ],
        type_ignores=[],
    )
    wrapper = ast.FunctionDef(
        name=MODULE_BODY,
        args=ast.arguments(
            posonlyargs=[], args=[], kwonlyargs=[], kw_defaults=[],
            defaults=[],
        ),
        body=pseudo.body or [ast.Pass()],
        decorator_list=[],
    )
    ast.fix_missing_locations(wrapper)
    _collect_effects(wrapper, top)
    visitor.summary.functions[top.qualname] = top
    visitor.visit(tree)
    return visitor.summary


# ----------------------------------------------------------------------
# pass 1.5: the project — resolution and effect propagation
# ----------------------------------------------------------------------
class Project:
    """The whole-program view: all summaries, resolved and propagated."""

    def __init__(self, modules: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {m.path: m for m in modules}
        self.functions: Dict[str, FunctionSummary] = {}
        for mod in self.modules.values():
            self.functions.update(mod.functions)
        #: transitive effect sets, filled by :meth:`propagate`
        self.communicates: Set[str] = set()
        self.unphased_comm: Set[str] = set()
        self.charges: Set[str] = set()
        self.phase_covered: Set[str] = set()
        self.fast_twins: List[Tuple[FunctionSummary, FunctionSummary, CallSite]] = []
        self._callers: Dict[str, List[Tuple[str, CallSite]]] = {}
        self._resolve_all()
        self._propagate()

    # -- resolution -----------------------------------------------------
    def _resolve_all(self) -> None:
        for mod in self.modules.values():
            for fn in mod.functions.values():
                cls_scope = self._class_scope(fn)
                for site in fn.calls:
                    site.resolved = self._resolve(mod, cls_scope, site)
                    if site.resolved is not None:
                        self._callers.setdefault(site.resolved, []).append(
                            (fn.qualname, site)
                        )

    @staticmethod
    def _class_scope(fn: FunctionSummary) -> Optional[str]:
        """Enclosing scope (``mod.Class``) for a method's qualname."""
        head, _, _ = fn.qualname.rpartition(".")
        return head if head != fn.module else None

    def _resolve(
        self, mod: ModuleSummary, cls_scope: Optional[str], site: CallSite
    ) -> Optional[str]:
        parts = site.callee.split(".")
        head = parts[0]
        # self.method() → a sibling method of the same class.
        if head == "self" and cls_scope is not None and len(parts) == 2:
            candidate = f"{cls_scope}.{parts[1]}"
            if candidate in self.functions:
                return candidate
            return None
        # Bare name → alias or same-module top-level function.
        if len(parts) == 1:
            target = mod.aliases.get(head)
            if target is not None and target in self.functions:
                return target
            candidate = f"{mod.modname}.{head}"
            if candidate in self.functions:
                return candidate
            return None
        # mod_alias.func(...) or pkg.mod.func(...).
        target = mod.aliases.get(head)
        if target is not None:
            candidate = ".".join([target, *parts[1:]])
            if candidate in self.functions:
                return candidate
        candidate = site.callee
        if candidate in self.functions:
            return candidate
        return None

    # -- propagation ----------------------------------------------------
    def _propagate(self) -> None:
        comm = {q for q, f in self.functions.items() if f.direct_comm}
        unphased = {
            q for q, f in self.functions.items() if f.direct_unphased_comm
        }
        charges = {q for q, f in self.functions.items() if f.direct_charge}
        changed = True
        while changed:
            changed = False
            for q, fn in self.functions.items():
                for site in fn.calls:
                    r = site.resolved
                    if r is None or r == q:
                        continue
                    if r in comm and q not in comm:
                        comm.add(q)
                        changed = True
                    if r in unphased and not site.in_phase and q not in unphased:
                        unphased.add(q)
                        changed = True
                    if r in charges and q not in charges:
                        charges.add(q)
                        changed = True
        self.communicates = comm
        self.unphased_comm = unphased
        self.charges = charges
        self._propagate_coverage()
        self._collect_twins()

    def _propagate_coverage(self) -> None:
        """``phase_covered``: every project call site sits under a phase
        (directly, or inside a function that is itself covered)."""
        covered: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for q in self.functions:
                if q in covered:
                    continue
                sites = self._callers.get(q, [])
                if not sites:
                    continue
                if all(
                    site.in_phase or caller in covered
                    for caller, site in sites
                ):
                    covered.add(q)
                    changed = True
        self.phase_covered = covered

    def _collect_twins(self) -> None:
        """(scalar, columnar, dispatch site) triples from fast-path gates."""
        for q, fn in self.functions.items():
            for site in fn.calls:
                if not (site.is_twin_return and site.in_fast_gate):
                    continue
                if site.resolved is None:
                    continue
                twin = self.functions.get(site.resolved)
                if twin is not None and twin.qualname != q:
                    self.fast_twins.append((fn, twin, site))

    # -- queries used by rules -----------------------------------------
    def comm_chain(self, qualname: str, limit: int = 6) -> List[str]:
        """A shortest call chain from ``qualname`` to a comm primitive,
        as human-readable hops (for SIM004 messages)."""
        from collections import deque

        queue: deque[Tuple[str, List[str]]] = deque([(qualname, [])])
        seen = {qualname}
        while queue:
            q, chain = queue.popleft()
            fn = self.functions.get(q)
            if fn is None or len(chain) >= limit:
                continue
            if fn.direct_comm:
                comm_tail = next(
                    (s.tail for s in fn.calls if s.tail in COMM_TAILS), "?"
                )
                return [*chain, fn.name, f"{comm_tail}()"]
            for site in fn.calls:
                r = site.resolved
                if r is not None and r not in seen:
                    seen.add(r)
                    queue.append((r, [*chain, fn.name]))
        return []

    def effects_digest(self) -> str:
        """Stable digest of the propagated effect tables.

        The incremental cache stores this next to each file's findings:
        if an edit anywhere shifts any transitive effect, the digest
        moves and cached *findings* (not summaries) are invalidated.
        """
        h = hashlib.sha256()
        for q in sorted(self.functions):
            h.update(q.encode())
            h.update(
                bytes(
                    (
                        q in self.communicates,
                        q in self.unphased_comm,
                        q in self.charges,
                        q in self.phase_covered,
                    )
                )
            )
            fn = self.functions[q]
            h.update(",".join(fn.phase_names).encode())
            h.update(",".join(fn.params).encode())
        return h.hexdigest()
