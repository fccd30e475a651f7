"""The simlint engine: two passes over the project.

v2 is a whole-program analyzer.  **Pass 1** parses every collected file
once and distils it to a :class:`~repro.analysis.callgraph.ModuleSummary`
(definitions, imports, call sites, direct effects); the summaries are
stitched into a :class:`~repro.analysis.callgraph.Project` that resolves
intra-package calls and propagates effects ("communicates", "charges
rounds", "mutates gauged state") transitively to a fixpoint.  **Pass 2**
runs the rule catalog per file with a :class:`LintContext` exposing that
project view, which is how SIM004 follows a loop's call *chain* to a
send and SIM009 pairs fast-path twins across modules.

The engine stays deterministic — sorted file order, stable finding
order, one AST parse per file per pass — so a finding's presence depends
only on the source tree, never on traversal order or cache state.  The
incremental cache (:mod:`repro.analysis.cache`) composes around the
passes without changing their results.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.cache import AnalysisCache, DEFAULT_CACHE_DIR, file_sha256
from repro.analysis.callgraph import ModuleSummary, Project, summarize_module
from repro.analysis.config import SimlintConfig, load_config
from repro.analysis.findings import META_CODE, Finding, sort_findings
from repro.analysis.rules import ALL_RULES, LintContext, Rule
from repro.analysis.suppress import parse_suppressions

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", DEFAULT_CACHE_DIR})


@dataclass
class Report:
    """Outcome of one analysis run."""

    findings: List[Finding]
    files_checked: int
    suppressions_used: int = 0
    cache_hits: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        return dict(sorted(counts.items()))

    def format_text(self) -> str:
        lines = [f.format_text() for f in self.findings]
        by_code = ", ".join(f"{c}×{n}" for c, n in self.counts_by_code().items())
        tail = (
            f"{len(self.findings)} finding(s) [{by_code}]"
            if self.findings
            else "clean"
        )
        lines.append(
            f"simlint: {self.files_checked} file(s), "
            f"{self.suppressions_used} suppression(s) honoured — {tail}"
        )
        return "\n".join(lines)

    def format_json(self) -> str:
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "suppressions_used": self.suppressions_used,
                "cache_hits": self.cache_hits,
                "counts": self.counts_by_code(),
                "findings": [f.to_dict() for f in self.findings],
            },
            indent=2,
            sort_keys=True,
        )


def collect_files(
    paths: Sequence[str], config: Optional[SimlintConfig] = None
) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    ``config.exclude`` prunes the walk — unless the scan root itself
    lies inside an excluded path, in which case the exclusion is
    ignored for that root: asking for an excluded directory *by name*
    (the CI fixture self-check does) means you want it analyzed.
    """
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            prune = config is not None and not config.is_excluded(path)
            for dirpath, dirnames, filenames in os.walk(path):
                keep = []
                for d in sorted(dirnames):
                    if d in _SKIP_DIRS:
                        continue
                    if prune and config.is_excluded(os.path.join(dirpath, d)):
                        continue
                    keep.append(d)
                dirnames[:] = keep
                for name in sorted(filenames):
                    if not name.endswith(".py"):
                        continue
                    full = os.path.join(dirpath, name)
                    if prune and config.is_excluded(full):
                        continue
                    out.append(full)
        else:
            raise FileNotFoundError(path)
    return sorted(dict.fromkeys(out))


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run the rule catalog over one source text (the unit-test surface).

    A one-module project is built around the source, so the
    interprocedural rules see call chains *within* the file and degrade
    gracefully (no cross-file edges) rather than switching off.
    """
    findings, _used = _analyze(source, path, rules)
    return findings


def _analyze(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    ctx: Optional[LintContext] = None,
    disabled: FrozenSet[str] = frozenset(),
) -> Tuple[List[Finding], int]:
    """(sorted findings, count of suppressions that silenced something)."""
    active = [
        r for r in (rules if rules is not None else ALL_RULES)
        if r.code not in disabled
    ]
    table = parse_suppressions(path, source)
    findings: List[Finding] = list(table.errors)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(Finding(
            META_CODE, f"file does not parse: {exc.msg}", path, exc.lineno or 1,
        ))
        return sort_findings(_drop_disabled(findings, disabled)), 0
    if ctx is None:
        summary = summarize_module(tree, path)
        ctx = LintContext(path=path, project=Project([summary]), module=summary)
    for rule in active:
        for finding in rule.check(tree, path, ctx):
            if not table.is_suppressed(finding.code, _finding_lines(tree, finding)):
                findings.append(finding)
    used = len({
        id(s) for sups in table.by_line.values() for s in sups if s.used
    })
    for sup in table.unused():
        if disabled and set(sup.codes) <= disabled:
            # The suppressed rule is switched off in this directory; the
            # directive is dormant, not dead.
            continue
        findings.append(Finding(
            META_CODE,
            f"unused suppression of {', '.join(sup.codes)} — nothing to "
            "silence on this line; delete it",
            path, sup.line,
        ))
    return sort_findings(_drop_disabled(findings, disabled)), used


def _drop_disabled(
    findings: List[Finding], disabled: FrozenSet[str]
) -> List[Finding]:
    if not disabled:
        return findings
    return [f for f in findings if f.code not in disabled]


def _finding_lines(tree: ast.Module, finding: Finding) -> range:
    """Physical lines a suppression may sit on for this finding.

    The flagged statement may span lines (a multi-line call), so accept a
    directive on any line of the smallest statement containing the
    finding's anchor line.
    """
    best: Optional[range] = None
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        lineno = getattr(node, "lineno", None)
        end = getattr(node, "end_lineno", None)
        if lineno is None or end is None:
            continue
        if lineno <= finding.line <= end:
            if best is None or (end - lineno) < (best.stop - 1 - best.start):
                best = range(lineno, end + 1)
    return best if best is not None else range(finding.line, finding.line + 1)


def _select_rules(
    rules: Optional[Sequence[Rule]], select: Optional[Iterable[str]]
) -> Tuple[List[Rule], Optional[FrozenSet[str]]]:
    active: List[Rule] = list(rules if rules is not None else ALL_RULES)
    if select is None:
        return active, None
    wanted = frozenset(select)
    unknown = wanted - {r.code for r in ALL_RULES}
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return [r for r in active if r.code in wanted], wanted


def _cache_key(path: str, root: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), root)
    if rel.startswith(".."):
        return os.path.abspath(path).replace(os.sep, "/")
    return rel.replace(os.sep, "/")


def _fingerprint(config: SimlintConfig) -> str:
    codes = ",".join(sorted(r.code for r in ALL_RULES))
    return f"simlint-v2|{codes}|{config.digest_key()}"


def build_project(
    files: Sequence[str],
    config: Optional[SimlintConfig] = None,
    cache: Optional[AnalysisCache] = None,
) -> Tuple[Project, Dict[str, Optional[ModuleSummary]], Dict[str, bytes]]:
    """Pass 1: summaries for every file (cached where unchanged).

    Returns the propagated project, the per-path summaries (None for
    files that do not parse), and the raw bytes read per path so pass 2
    never re-reads the tree off disk.
    """
    root = config.root if config is not None else os.getcwd()
    summaries: Dict[str, Optional[ModuleSummary]] = {}
    raw_bytes: Dict[str, bytes] = {}
    for path in files:
        with open(path, "rb") as fh:
            raw = fh.read()
        raw_bytes[path] = raw
        summary: Optional[ModuleSummary] = None
        key = _cache_key(path, root)
        sha = file_sha256(raw)
        mtime = size = 0
        if cache is not None:
            st = os.stat(path)
            mtime, size = st.st_mtime_ns, st.st_size
            summary = cache.get_summary(key, mtime, size, sha)
        if summary is None:
            try:
                tree = ast.parse(raw.decode("utf-8"), filename=path)
            except (SyntaxError, UnicodeDecodeError):
                summaries[path] = None  # pass 2 reports the parse failure
                continue
            summary = summarize_module(tree, path, root)
            if cache is not None:
                cache.put_summary(key, mtime, size, sha, summary)
        summaries[path] = summary
    project = Project([s for s in summaries.values() if s is not None])
    return project, summaries, raw_bytes


def run(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Iterable[str]] = None,
    *,
    config: Optional[SimlintConfig] = None,
    use_cache: bool = False,
    cache_dir: Optional[str] = None,
) -> Report:
    """Analyze ``paths``; ``select`` restricts to a subset of rule codes."""
    active, wanted = _select_rules(rules, select)
    if config is None:
        start = next((p for p in paths if os.path.exists(p)), None)
        config = load_config(start)
    cache: Optional[AnalysisCache] = None
    if use_cache:
        cache = AnalysisCache(
            cache_dir or os.path.join(config.root, DEFAULT_CACHE_DIR),
            _fingerprint(config),
        )
    files = collect_files(paths, config)

    # Pass 1: whole-program symbol table, call graph, effect propagation.
    project, summaries, raw_bytes = build_project(files, config, cache)
    digest = project.effects_digest()

    # Pass 2: per-file rules with the project in scope.
    findings: List[Finding] = []
    suppressions_used = 0
    cache_hits = 0
    for path in files:
        disabled = config.disabled_for(path)
        file_rules = [r for r in active if r.code not in disabled]
        rules_sig = (
            ",".join(r.code for r in file_rules)
            + "|" + ",".join(sorted(disabled))
        )
        key = _cache_key(path, config.root)
        sha = file_sha256(raw_bytes[path])
        cached = (
            cache.get_findings(key, sha, digest, rules_sig)
            if cache is not None else None
        )
        if cached is not None:
            file_findings, used = cached
            cache_hits += 1
        else:
            summary = summaries[path]
            ctx = (
                LintContext(
                    path=path, project=project, module=summary, config=config
                )
                if summary is not None
                else None
            )
            file_findings, used = _analyze(
                raw_bytes[path].decode("utf-8", errors="replace"),
                path, file_rules, ctx, disabled,
            )
            if cache is not None:
                cache.put_findings(
                    key, sha, digest, rules_sig, file_findings, used
                )
        suppressions_used += used
        if wanted is not None:
            # SIM000 (suppression hygiene) stays on even under --select,
            # except unused-suppression noise for rules we did not run.
            file_findings = [
                f for f in file_findings
                if f.code in wanted
                or (f.code == META_CODE and "unused suppression" not in f.message)
            ]
        findings.extend(file_findings)
    if cache is not None:
        cache.save()

    return Report(
        sort_findings(findings), len(files), suppressions_used,
        cache_hits=cache_hits,
    )
