"""LOCK001: no blocking call while holding an engine lock.

A ``with self._lock:`` body must not sleep, touch files or the simulated
device, or wait on futures/threads: every other thread that needs the lock
would wait out the I/O too.  The dynamic tracker cannot see this — a lock
held across I/O is slow, not deadlocked — so it is checked on the AST.
Locks declared ``allows_blocking=True`` in
:mod:`repro.analysis.lock_hierarchy` are exempt, and that exemption is the
only one: it lives in one table, where review sees it.

A lock is a ``self.<attr>`` context manager whose name looks lockish
(``*_lock``/``*_cond``/``*_mutex``) or whose ``Owner.attr`` is declared.
A blocking call inside a nested def or lambda is not flagged: it runs when
the closure is invoked, usually after the lock is released.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from .lock_hierarchy import LOCK_HIERARCHY

RULE_ID = "LOCK001"

_LOCKISH_ATTR = re.compile(r".*(_lock|_cond|_mutex)$")

#: Calls that block: sleeping, file I/O, simulated-device I/O, futures.
_BLOCKING_DOTTED = {"time.sleep"}
_BLOCKING_METHODS = {"result", "read", "write", "flush", "readline", "readlines",
                     "read_page", "write_page", "delete_file"}


@dataclass(frozen=True)
class Finding:
    """One blocking call under a lock, anchored to a source line."""

    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {RULE_ID} {self.message}"


def _self_attribute(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` -> attr name, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute/name chains (empty string otherwise)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _outside_nested_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function/lambda bodies."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _blocking_reason(node: ast.Call) -> Optional[str]:
    """Describe why ``node`` blocks, or ``None`` when it does not."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open()"
    dotted = _dotted_name(func)
    if dotted in _BLOCKING_DOTTED:
        return f"{dotted}()"
    if isinstance(func, ast.Attribute):
        if func.attr == "join" and not node.args and not node.keywords:
            # str.join always takes an iterable argument; a zero-argument
            # .join() is a thread/process join and blocks.
            return ".join()"
        if func.attr in _BLOCKING_METHODS:
            return f".{func.attr}()"
    return None


def check_source(source: str, path: str) -> List[Finding]:
    """Every blocking call under a non-exempt lock in one module's source."""
    findings: List[Finding] = []
    for class_node in ast.walk(ast.parse(source, filename=path)):
        if not isinstance(class_node, ast.ClassDef):
            continue
        for with_node in ast.walk(class_node):
            if not isinstance(with_node, ast.With):
                continue
            for item in with_node.items:
                attr = _self_attribute(item.context_expr)
                if attr is None:
                    continue
                key = f"{class_node.name}.{attr}"
                decl = LOCK_HIERARCHY.get(key)
                if decl is None and not _LOCKISH_ATTR.match(attr):
                    continue
                if decl is not None and decl.allows_blocking:
                    continue
                for statement in with_node.body:
                    for node in _outside_nested_functions(statement):
                        reason = _blocking_reason(node) if isinstance(node, ast.Call) else None
                        if reason is not None:
                            findings.append(Finding(
                                path, node.lineno,
                                f"blocking call {reason} while holding {key} "
                                f"(declare allows_blocking in the lock hierarchy only "
                                f"if holding across I/O is the lock's documented job)"))
    return findings


def run_analysis(paths: Sequence[Path]) -> List[Finding]:
    """LOCK001 over every ``.py`` file under ``paths`` (files or directories).

    A file that does not parse raises :class:`SyntaxError`: a broken file
    must fail the run, not hide from it.
    """
    files: List[Path] = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    findings: List[Finding] = []
    for file_path in files:
        findings.extend(check_source(file_path.read_text(encoding="utf-8"),
                                     file_path.as_posix()))
    return sorted(findings, key=lambda finding: (finding.path, finding.line))
