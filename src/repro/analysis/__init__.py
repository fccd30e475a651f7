"""simlint: model-compliance static analysis for the simulator.

The simulator's scientific claim is only as good as its accounting —
every cross-machine word must be charged, every protocol must be a
deterministic function of (graph, seed), every machine must stay inside
its own state and space budget, and the columnar fast paths must put the
*same bytes on the wire* as their scalar fallbacks.  This package
enforces those invariants statically (rules SIM001..SIM009, ``python -m
repro.analysis``); :mod:`repro.sim.strict` enforces the runtime subset
dynamically (``Network(strict=True)`` / ``REPRO_STRICT=1``).

Since v2 the analyzer is whole-program: pass 1
(:mod:`repro.analysis.callgraph`) builds a project symbol table, call
graph, and transitive effect summaries; pass 2 runs flow-sensitive rules
with that project in scope.  Reports serialize to text, JSON, or SARIF
2.1.0; repeated runs are incremental via ``.simlint_cache/``
(:mod:`repro.analysis.cache`).

See ``docs/static_analysis.md`` for the rule catalog and the suppression
syntax.
"""

from repro.analysis.callgraph import (
    CallSite,
    FunctionSummary,
    ModuleSummary,
    Project,
    summarize_module,
)
from repro.analysis.config import SimlintConfig, load_config
from repro.analysis.engine import (
    Report,
    analyze_source,
    build_project,
    collect_files,
    run,
)
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.rules import ALL_RULES, LintContext, Rule
from repro.analysis.sarif import format_sarif, to_sarif

__all__ = [
    "ALL_RULES",
    "CallSite",
    "Finding",
    "FunctionSummary",
    "LintContext",
    "ModuleSummary",
    "Project",
    "Report",
    "Rule",
    "SimlintConfig",
    "analyze_source",
    "build_project",
    "collect_files",
    "format_sarif",
    "load_config",
    "run",
    "sort_findings",
    "summarize_module",
    "to_sarif",
]
