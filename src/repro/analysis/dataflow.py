"""Lightweight flow-sensitive facts about one function body.

This is not a general dataflow framework — it answers exactly the
questions the rule pack asks, on the shapes protocol code actually
takes:

* which statements are *dominated* by a ``with ledger.phase(...)``
  block (structural domination: every path to the statement enters the
  ``with`` first, which for Python's syntax means lexical nesting);
* which local names are bound to numpy arrays (assigned from a
  ``np.*``/``numpy.*`` call, or propagated through another array
  local) — SIM006 uses this to treat ``x.argsort()`` on an array local
  like ``np.argsort(x)``;
* which local names hold the fast-path gate
  (``use_fast = fast_path_enabled()``) so dispatch sites written as
  ``if use_fast:`` resolve the same as ``if fast_path_enabled():``.

Everything here is deliberately syntactic and intra-function: the
interprocedural half lives in :mod:`repro.analysis.callgraph`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set, Tuple

from repro.analysis.astutil import (
    FAST_GATE_TAILS,
    call_tail,
    dotted_name,
    is_phase_with,
)

#: Numpy call tails whose result is (or wraps) an ndarray — enough to
#: seed array-local inference; propagation covers derived names.
_ARRAYISH_ROOTS = frozenset({"np", "numpy"})


def phase_dominated_nodes(func: ast.AST) -> Set[int]:
    """``id()`` of every AST node lexically inside a phase ``with``.

    Python has no goto: a statement nested under ``with ...phase(...)``
    executes only after the phase opened, so lexical containment *is*
    domination for this query.
    """
    covered: Set[int] = set()

    def visit(node: ast.AST, in_phase: bool) -> None:
        if in_phase:
            covered.add(id(node))
        enter = in_phase or (isinstance(node, ast.stmt) and is_phase_with(node))
        for child in ast.iter_child_nodes(node):
            visit(child, enter)

    for child in ast.iter_child_nodes(func):
        visit(child, False)
    return covered


def array_locals(func: ast.AST) -> Set[str]:
    """Names in ``func`` bound (at least once) to a numpy array value.

    Two propagation sweeps catch the ``a = np.f(...); b = a[mask]``
    chains the columnar kernels use; deeper chains are out of scope (and
    err on the quiet side).
    """
    arrays: Set[str] = set()
    assigns: Sequence[Tuple[str, ast.expr]] = list(_simple_assigns(func))
    for _sweep in range(2):
        for name, value in assigns:
            if _is_arrayish(value, arrays):
                arrays.add(name)
    return arrays


def fast_gate_locals(func: ast.AST) -> Set[str]:
    """Names assigned from ``fast_path_enabled()`` (fast-path gate vars)."""
    gates: Set[str] = set()
    for name, value in _simple_assigns(func):
        if isinstance(value, ast.Call) and call_tail(value) in FAST_GATE_TAILS:
            gates.add(name)
    return gates


def is_fast_gate_test(test: ast.expr, gate_vars: Set[str]) -> bool:
    """Does an ``if`` test consult the columnar fast-path switch?"""
    for node in ast.walk(test):
        if isinstance(node, ast.Call) and call_tail(node) in FAST_GATE_TAILS:
            return True
        if isinstance(node, ast.Name) and node.id in gate_vars:
            return True
    return False


def _simple_assigns(func: ast.AST) -> Iterator[Tuple[str, ast.expr]]:
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.value
                elif isinstance(target, ast.Tuple):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            yield elt.id, node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                yield node.target.id, node.value


def _is_arrayish(value: ast.expr, arrays: Set[str]) -> bool:
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        if dotted is not None and dotted.split(".")[0] in _ARRAYISH_ROOTS:
            return True
        # x.astype(...) / x.copy(...) / x.reshape(...) on a known array.
        func = value.func
        if isinstance(func, ast.Attribute):
            return _is_arrayish_expr(func.value, arrays)
        return False
    return _is_arrayish_expr(value, arrays)


def _is_arrayish_expr(value: ast.expr, arrays: Set[str]) -> bool:
    """Is ``value`` rooted in a known array local (``a``, ``a[...]``)?"""
    node: Optional[ast.expr] = value
    while isinstance(node, (ast.Subscript, ast.BinOp, ast.UnaryOp)):
        if isinstance(node, ast.BinOp):
            node = node.left
        elif isinstance(node, ast.UnaryOp):
            node = node.operand
        else:
            node = node.value
    return isinstance(node, ast.Name) and node.id in arrays
