#!/usr/bin/env python
"""Emit a JSON rule-hit summary of ``repro.lint`` for BENCH tracking.

Usage::

    PYTHONPATH=src python tools/lint_report.py [paths...] [-o report.json]

The v3 payload runs the whole-program analyzer (per-file rules plus the
flow rules) and records, per rule, how many diagnostics fired and in
how many distinct files, plus the scanned-file count and the analysis
wall time — a longitudinal signal for how clean the tree stays and how
fast the analyzer keeps up as it grows.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lint import ProjectAnalyzer, load_config  # noqa: E402
from repro.lint.flow_rules import PROJECT_RULES  # noqa: E402
from repro.lint.reporting import summarize  # noqa: E402
from repro.lint.rules import DEFAULT_RULES  # noqa: E402
from repro.utils.atomic_io import atomic_write_text  # noqa: E402

SCHEMA = "repro-lint-report/v3"


def build_report(paths: list[str]) -> dict:
    config = load_config(REPO_ROOT)
    result = ProjectAnalyzer(config=config).analyze(paths)
    violations = result.violations
    files_by_rule: dict[str, set] = defaultdict(set)
    for violation in violations:
        files_by_rule[violation.rule].add(violation.path)

    def _entry(name: str, severity: str, kind: str) -> dict:
        return {
            "name": name,
            "kind": kind,
            "hits": sum(1 for v in violations if v.rule == name),
            "files": len(files_by_rule.get(name, ())),
            "severity": severity,
        }

    rules = [
        _entry(
            rule.name,
            config.rule_settings(
                rule.name, rule.default_severity, rule.default_paths
            ).severity,
            "file",
        )
        for rule in DEFAULT_RULES
    ]
    rules.extend(
        _entry(
            rule.name,
            config.rule_settings(
                rule.name, rule.default_severity, rule.default_paths
            ).severity,
            "project",
        )
        for rule in PROJECT_RULES
    )
    return {
        "schema": SCHEMA,
        "paths": paths,
        "files_scanned": result.stats["files"],
        "rules": rules,
        "summary": summarize(violations),
        "analysis": {"wall_time_s": result.stats["wall_time_s"]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=[str(REPO_ROOT / "src" / "repro")]
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="write the JSON here instead of stdout",
    )
    args = parser.parse_args(argv)
    report = build_report(list(args.paths))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        atomic_write_text(args.output, text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
