"""SARIF 2.1.0 serialisation for ``repro-lint`` findings.

Static Analysis Results Interchange Format is what CI annotation
surfaces (GitHub code scanning, most IDE problem panes) ingest, so the
lint job uploads one ``repro-lint.sarif`` artifact per run.  We emit
the minimal valid shape: one run, one tool driver, a rule table built
from whichever rules/passes actually fired plus the registered
catalogues, and one result per finding with a ``partialFingerprints``
entry carrying the same baseline fingerprint the text pipeline uses —
so a SARIF consumer's dedup agrees with ``.repro-lint-baseline``.
"""

from __future__ import annotations

import json

from repro.lint.engine import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
FINGERPRINT_KEY = "reproLint/v1"


def _rule_catalogue() -> dict[str, str]:
    """rule id -> short description, from rules and passes."""
    from repro.lint.passes import default_passes
    from repro.lint.rules import default_rules

    catalogue: dict[str, str] = {}
    for rule in default_rules():
        catalogue[rule.name] = rule.summary
    for pass_ in default_passes():
        # A pass may emit under several rule ids; register the ones
        # its module declares.
        for attr in ("RULE",):
            rule_id = getattr(pass_, attr, None)
            if rule_id:
                catalogue[rule_id] = pass_.summary
    from repro.lint import streams, units

    catalogue.setdefault(units.RULE, "cross-unit time arithmetic")
    catalogue.setdefault(streams.PURPOSE_RULE, "unregistered child_rng purpose")
    catalogue.setdefault(streams.SCOPE_RULE, "sanitizer scope discipline")
    return catalogue


def to_sarif(findings: list[Finding], tool_version: str = "0") -> dict:
    """One SARIF ``log`` dict for *findings*."""
    catalogue = _rule_catalogue()
    fired = sorted({f.rule for f in findings})
    rule_ids = sorted(set(catalogue) | set(fired))
    index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": catalogue.get(rule_id, rule_id),
            },
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": f.rule,
            "ruleIndex": index[f.rule],
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path.replace("\\", "/")},
                        "region": {
                            "startLine": max(f.line, 1),
                            "startColumn": max(f.col, 0) + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {FINGERPRINT_KEY: f.fingerprint()},
        }
        for f in findings
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "version": tool_version,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(findings: list[Finding]) -> str:
    return json.dumps(to_sarif(findings), indent=2, sort_keys=True)
