"""SARIF 2.1.0 serialization of a simlint report.

SARIF is the interchange format code-scanning UIs ingest (GitHub's
``upload-sarif`` action renders each result as an annotation on the PR
diff).  The mapping is deliberately small:

* one ``run`` with ``tool.driver.name = "simlint"`` and the full rule
  catalog (so viewers can show rule help without a second lookup);
* one ``result`` per finding, at level ``error``;
* ``artifactLocation.uri`` is the forward-slash relative path, which is
  what code-scanning matches against the checkout.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Sequence

from repro.analysis.findings import META_CODE, Finding
from repro.analysis.rules import ALL_RULES, Rule

SARIF_VERSION = "2.1.0"
_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_INFO_URI = "https://example.invalid/repro/docs/static_analysis.md"


def _rule_descriptor(rule: Rule) -> Dict[str, Any]:
    return {
        "id": rule.code,
        "name": rule.name,
        "shortDescription": {"text": rule.summary},
        "defaultConfiguration": {"level": "error"},
    }


def _meta_descriptor() -> Dict[str, Any]:
    return {
        "id": META_CODE,
        "name": "meta",
        "shortDescription": {
            "text": "malformed, bare, or unused suppression directives"
        },
        "defaultConfiguration": {"level": "error"},
    }


def _result(finding: Finding) -> Dict[str, Any]:
    uri = os.path.normpath(finding.path).replace(os.sep, "/").lstrip("./")
    return {
        "ruleId": finding.code,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {
                        "startLine": max(1, finding.line),
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }


def to_sarif(
    findings: Sequence[Finding], rules: Optional[Sequence[Rule]] = None
) -> Dict[str, Any]:
    """Build the SARIF log object (a plain dict, ready for json.dump)."""
    catalog = list(rules if rules is not None else ALL_RULES)
    return {
        "$schema": _SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": _INFO_URI,
                        "rules": [
                            _meta_descriptor(),
                            *(_rule_descriptor(r) for r in catalog),
                        ],
                    }
                },
                "results": [_result(f) for f in findings],
            }
        ],
    }


def format_sarif(
    findings: Sequence[Finding], rules: Optional[Sequence[Rule]] = None
) -> str:
    return json.dumps(to_sarif(findings, rules), indent=2, sort_keys=True)
