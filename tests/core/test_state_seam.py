"""Only the storages touch storage: the state seam is enforced.

Shared code — the §6 protocols, queries, snapshots, the checker, the
serve view — reads and writes a machine's MST edges, witnesses and tour
ids through :class:`repro.core.state.MachineStateBase`'s methods, so an
``inproc-columnar`` instance can hold them in fleet columns while a
``reference`` instance keeps dicts.  This scan fails on any ``.mst``,
``.witness`` or ``.tour_of`` attribute access in ``src/`` outside the
two storages and the reference engine.
"""

import ast
import os

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src", "repro",
)
STORAGE_ATTRS = frozenset({"mst", "witness", "tour_of"})
#: The dict storage and the reference engine over it, the columnar store
#: and engine, and the centralized oracle's own per-vertex map
#: (``EulerForest.tour_of``, not machine state).
ALLOWED = frozenset({
    os.path.join("core", "state.py"),
    os.path.join("core", "scripts.py"),
    os.path.join("perf", "columnar.py"),
    os.path.join("euler", "tour.py"),
})


def storage_accesses(source: str, path: str):
    """``(path, line, attr)`` of every storage attribute access in ``source``."""
    return [
        (path, node.lineno, node.attr)
        for node in ast.walk(ast.parse(source, filename=path))
        if isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRS
    ]


def _src_files():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                yield os.path.relpath(path, SRC), path


def test_no_storage_access_outside_the_storages():
    found = []
    for rel, path in _src_files():
        if rel in ALLOWED:
            continue
        with open(path, encoding="utf-8") as f:
            found.extend(storage_accesses(f.read(), rel))
    assert not found, "direct state storage access outside the seam:\n" + "\n".join(
        f"  src/repro/{p}:{line}: .{attr}" for p, line, attr in found
    )


@pytest.mark.parametrize("snippet", [
    "def f(st):\n    return st.mst.get((0, 1))\n",
    "def f(st, x):\n    return st.witness[x]\n",
    "def f(st, x):\n    st.tour_of[x] = 3\n",
])
def test_the_scan_catches_a_direct_read(snippet):
    assert storage_accesses(snippet, "core/queries.py")


def test_seam_calls_pass_the_scan():
    snippet = "def f(st, x):\n    return st.tour_id(x), st.witness_snapshot(x), st.mst_edge((0, 1))\n"
    assert storage_accesses(snippet, "core/queries.py") == []
