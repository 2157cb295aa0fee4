"""CLI for the engine's static analysis: ``python -m repro.analysis [paths]``.

Exit status: 0 when no findings (or only warnings without ``--strict``),
1 when any error-severity finding survives suppression, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .lint import SEVERITY_ERROR, collect_modules, render_report, run_analysis
from .rules import default_rules


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="engine-specific static analysis (lock discipline, knob "
                    "documentation, metric naming)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to scan (default: src/ "
                             "if present, else the current directory)")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as errors for the exit status")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    options = parser.parse_args(argv)

    rules = default_rules()
    if options.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.severity:7s}  {rule.description}")
        return 0

    if options.paths:
        paths = [Path(path) for path in options.paths]
    else:
        default = Path("src")
        paths = [default if default.is_dir() else Path(".")]
    missing = [path for path in paths if not path.exists()]
    if missing:
        print(f"error: no such path: {', '.join(str(path) for path in missing)}",
              file=sys.stderr)
        return 2

    modules, _ = collect_modules(paths)
    findings = run_analysis(paths, rules)
    print(render_report(findings, rules, scanned=len(modules)))
    if any(finding.severity == SEVERITY_ERROR for finding in findings):
        return 1
    if options.strict and findings:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
