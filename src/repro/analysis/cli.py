"""``python -m repro.analysis`` — the simlint command line.

Exit codes: 0 clean, 1 findings, 2 usage/IO error (the convention CI
and the pytest self-clean gate rely on).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.config import load_config
from repro.analysis.engine import run
from repro.analysis.rules import ALL_RULES
from repro.analysis.sarif import format_sarif


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint — model-compliance static analysis for the "
        "round-accurate simulator and its protocols",
    )
    p.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    p.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--output", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    p.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (e.g. SIM001,SIM003); "
        "suppression hygiene (SIM000) is always checked",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental cache under .simlint_cache/",
    )
    p.add_argument(
        "--cache-dir", metavar="DIR",
        help="cache location (default: .simlint_cache/ next to pyproject.toml)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return p


def _list_rules() -> str:
    lines = ["SIM000 meta                   malformed/bare/unused suppressions"]
    for rule in ALL_RULES:
        lines.append(f"{rule.code} {rule.name:<22} {rule.summary}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    select = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
    config = load_config(next((p for p in args.paths if os.path.exists(p)), None))
    try:
        report = run(
            args.paths,
            select=select,
            config=config,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
        )
    except FileNotFoundError as exc:
        print(f"simlint: no such file or directory: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"simlint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = report.format_json()
    elif args.format == "sarif":
        text = format_sarif(report.findings)
    else:
        text = report.format_text()
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write("\n")
        else:
            print(text)
            sys.stdout.flush()
    except BrokenPipeError:
        # Downstream (e.g. ``| head``) closed the pipe; the exit code
        # still carries the verdict, so suppress the traceback.
        sys.stderr.close()
    return 0 if report.ok else 1
