"""KNOB001: environment knobs go through one accessor and stay documented.

Two failure modes this rule exists for, both observed in real engines:

* a module reads ``os.environ`` directly, so the knob never shows up in any
  central inventory and silently diverges from the documented behaviour
  (different default, different truthy values);
* a knob is wired through the accessor but never added to the README table,
  so users cannot discover it.

The rule therefore enforces: (1) no ``os.environ``/``os.getenv`` outside the
config accessor module; (2) every knob name passed to
``env_str``/``env_flag`` — resolved through module-level string
constants like ``TRACE_ENV_VAR = "REPRO_TRACE"`` — appears in the README
knob table as `` `REPRO_X` ``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Tuple

from ..lint import Finding, Module, Project, Rule, dotted_name

_KNOB_NAME_RE = re.compile(r"^REPRO_[A-Z0-9_]+$")

#: The accessor functions exported by ``repro.config``.
_ACCESSORS = ("env_str", "env_flag")


class KnobAccessorRule(Rule):
    """KNOB001: central accessor + README documentation for every knob."""

    rule_id = "KNOB001"
    description = ("REPRO_* knobs are read via repro.config env accessors "
                   "and documented in the README knob table")

    def __init__(self, accessor_suffix: str = "config.py") -> None:
        self._accessor_suffix = accessor_suffix
        #: knob name -> first (module rel, line) that reads it.
        self._knobs: Dict[str, Tuple[str, int]] = {}

    def check_module(self, module: Module, project: Project) -> Iterable[Finding]:
        is_accessor_module = (module.rel.endswith(self._accessor_suffix)
                              and "analysis/" not in module.rel)
        constants = _module_string_constants(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not is_accessor_module:
                findings.extend(self._check_direct_read(module, node))
            if isinstance(node, ast.Call):
                self._record_accessor_call(module, node, constants)
        # Knob names defined as module constants count as reads too: a
        # constant like TRACE_ENV_VAR documents intent even if the actual
        # accessor call resolves it indirectly.
        for name, (value, line) in constants.items():
            if name.endswith("_ENV_VAR") and _KNOB_NAME_RE.match(value):
                self._knobs.setdefault(value, (module.rel, line))
        return findings

    def _check_direct_read(self, module: Module, node: ast.AST) -> Iterable[Finding]:
        if isinstance(node, ast.Attribute) and dotted_name(node) == "os.environ":
            yield self.finding(
                module, node.lineno,
                "direct os.environ access — read knobs through the "
                "repro.config env accessors (env_str/env_flag)")
        elif isinstance(node, ast.Call) and dotted_name(node.func) == "os.getenv":
            yield self.finding(
                module, node.lineno,
                "os.getenv() — read knobs through the repro.config env "
                "accessors (env_str/env_flag)")

    def _record_accessor_call(self, module: Module, node: ast.Call,
                              constants: Dict[str, Tuple[str, int]]) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name not in _ACCESSORS or not node.args:
            return
        knob = _resolve_string(node.args[0], constants)
        if knob is not None and _KNOB_NAME_RE.match(knob):
            self._knobs.setdefault(knob, (module.rel, node.lineno))

    def finalize(self, project: Project) -> Iterable[Finding]:
        if not project.readme_text:
            return
        for knob, (rel, line) in sorted(self._knobs.items()):
            if f"`{knob}`" not in project.readme_text:
                yield self.finding(
                    rel, line,
                    f"knob {knob} is read here but missing from the README "
                    f"knob table — document it (default + effect)")


def _module_string_constants(tree: ast.Module) -> Dict[str, Tuple[str, int]]:
    """Top-level ``NAME = "literal"`` assignments of a module."""
    constants: Dict[str, Tuple[str, int]] = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            constants[node.targets[0].id] = (node.value.value, node.lineno)
    return constants


def _resolve_string(node: ast.expr,
                    constants: Dict[str, Tuple[str, int]]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name) and node.id in constants:
        return constants[node.id][0]
    if isinstance(node, ast.Attribute) and node.attr in constants:
        # config.SOME_ENV_VAR style reference to another module's constant:
        # only resolvable when the constant also exists locally; skip here.
        return None
    return None
