"""Protocols send from their own modules; ``repro.perf`` holds local kernels.

Every protocol is written once, in its reference module, for both
engines: only a machine's local computation (a candidate scan, a
relabelling, a closed-form charge) dispatches to :mod:`repro.perf`.  A
function there that talks to the wire would be a second body of some
protocol, whose wire only the cross-engine suites could vouch for.
simlint's call graph names the functions that call a communication
primitive directly (``direct_comm``); none may live under
``repro.perf``.
"""

import os

from repro.analysis import build_project, collect_files
from repro.analysis.config import SimlintConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _project():
    config = SimlintConfig(root=REPO_ROOT)
    files = collect_files([os.path.join(REPO_ROOT, "src", "repro")], config)
    project, _summaries, _raw = build_project(files, config)
    return project


def test_no_function_under_repro_perf_talks_to_the_wire():
    functions = _project().functions
    perf = [fn for fn in functions.values() if fn.module.startswith("repro.perf")]
    assert perf, "no repro.perf function summarized; the scan found nothing"
    senders = sorted(fn.qualname for fn in perf if fn.direct_comm)
    assert senders == [], f"repro.perf functions that send: {senders}"
    # Control: the detector sees the protocols' own sends.
    for qualname in (
        "repro.core.init_build.distributed_init",
        "repro.mpc.init_mpc.mpc_init",
        "repro.cclique.engines.boruvka_engine",
    ):
        assert functions[qualname].direct_comm, qualname
