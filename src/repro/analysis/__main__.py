"""CLI for LOCK001: ``python -m repro.analysis [paths]``.

Exit status: 0 when no findings, 1 when any, 2 on a missing path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .lint import run_analysis


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="LOCK001: no blocking call while holding an engine lock")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to scan (default: src/ "
                             "if present, else the current directory)")
    options = parser.parse_args(argv)

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

    findings = run_analysis(paths)
    for finding in findings:
        print(finding.render())
    print(f"{len(findings)} finding(s)" if findings else "clean: no findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
