"""Shared AST helpers, model vocabulary, and the rule base classes.

Everything the rule modules (and the call-graph pass) agree on lives
here: how to read a dotted name off an ``ast`` chain, which call tails
count as *communication* and which as *ledger annotation*, and the
:class:`Rule` contract every SIM rule implements.  This module sits
*below* both :mod:`repro.analysis.callgraph` and the
:mod:`repro.analysis.rules` package in the import graph (the rules
package eagerly instantiates its catalog, so nothing the call-graph
pass needs may live inside it).

Rules come in two flavours.  A plain :class:`Rule` sees one module's AST
and nothing else (SIM001..SIM003, SIM005 — their violations are local by
nature).  A rule that opts into the whole-program pass reads
``ctx.project`` — the resolved symbol table, call graph, and transitive
effect summaries built by :mod:`repro.analysis.callgraph` — which is how
SIM004 follows a loop's *call chain* to a send and how SIM009 pairs a
fast-path dispatch with its scalar twin.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.analysis.callgraph import ModuleSummary, Project
    from repro.analysis.config import SimlintConfig

# ----------------------------------------------------------------------
# Model vocabulary shared by rules and the call-graph pass
# ----------------------------------------------------------------------

#: Call tails that put words on the wire (directly or through a comm
#: wrapper).  The call-graph pass seeds its "communicates" effect from
#: this set; SIM004 uses it both directly and transitively.
COMM_TAILS = frozenset({
    "superstep", "superstep_plane", "fanout", "point_to_point", "broadcast",
    "batched_queries", "scheduled_broadcasts", "lenzen_route", "lenzen_sort",
    "tree_broadcast", "tree_converge_cast", "run_structural_batch",
})

#: Call tails that annotate the ledger (attribute rounds to a phase or
#: charge them explicitly).
LEDGER_TAILS = frozenset({"charge_rounds", "phase"})

#: Container-mutating method names (shared by SIM002/SIM005/SIM007).
GROW_METHODS = frozenset({
    "append", "add", "update", "setdefault", "extend", "insert",
})

#: Call tails that gate a columnar-twin dispatch (SIM009's dispatch
#: marker, and the call-graph's ``in_fast_gate`` flag).
FAST_GATE_TAILS = frozenset({"fast_path_enabled"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a Name/Attribute chain (``net.ledger.phase``) or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_tail(call: ast.Call) -> Optional[str]:
    """Last component of the called name (``phase`` for ``x.y.phase(...)``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def is_literal_nonpositive(node: ast.AST) -> bool:
    """True for a literal ``0``/negative number (a dishonest word cost)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return not isinstance(node.value, bool) and node.value <= 0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = node.operand
        return isinstance(operand, ast.Constant) and isinstance(
            operand.value, (int, float)
        )
    return False


def walk_functions(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def is_phase_with(stmt: ast.stmt) -> bool:
    """Is ``stmt`` a ``with ...phase(...)`` block (a ledger phase scope)?"""
    if not isinstance(stmt, (ast.With, ast.AsyncWith)):
        return False
    return any(
        isinstance(item.context_expr, ast.Call)
        and call_tail(item.context_expr) == "phase"
        for item in stmt.items
    )


def keyword_arg(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def has_star_args(call: ast.Call) -> bool:
    return any(isinstance(a, ast.Starred) for a in call.args) or any(
        kw.arg is None for kw in call.keywords
    )


def string_const(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ----------------------------------------------------------------------
# Rule contract
# ----------------------------------------------------------------------


@dataclass
class LintContext:
    """Everything a rule may see beyond one module's AST.

    ``project`` is the whole-program symbol table / call graph; it is
    always present when the engine runs (even for a single source via
    :func:`repro.analysis.engine.analyze_source`, which builds a
    one-module project), so project rules degrade gracefully to
    intraprocedural behaviour on isolated files.
    """

    path: str
    project: "Project"
    module: "ModuleSummary"
    config: Optional["SimlintConfig"] = None


class Rule:
    """Base class: one stable code, one analysis pass per module."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check(
        self, tree: ast.Module, path: str, ctx: Optional[LintContext] = None
    ) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def finding(self, message: str, path: str, node: ast.AST) -> Finding:
        return Finding(
            self.code,
            message,
            path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
        )
