"""record-exhaustiveness: every record type must be dispatched everywhere.

Paper invariant (Sections IV–V): the auditor's verdict is only sound if
*every* record kind the engine can emit is accounted for by crash
recovery, by the audit's log replay, and by the forensic localiser.  A
record type added to ``wal/records.py`` or ``core/records.py`` without a
matching arm silently falls through those dispatchers — the classic
refactor hazard this linter exists to close ("new record types fail the
build until handled").

A module is a *dispatcher* for an enum when either

* its basename appears in :data:`DEFAULT_DISPATCHERS` (the three
  protocol modules of this tree), or
* it carries a ``# repro-lint: exhaustive=<EnumName>`` marker (used by
  fixtures and future dispatch sites).

A member counts as **handled** in a dispatcher when the module mentions
it as an ``<Enum>.<MEMBER>`` attribute (including inside explicit
"deliberately ignored" sets, which thereby document the decision) or
defines a ``_on_<member>`` handler method (the audit's dynamic-dispatch
idiom).  The enum definitions themselves are discovered in the linted
file set, so the rule works on any subset that includes them.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Dict, List, Set

from ..core import (LintFinding, ModuleUnit, Project, Rule, iter_functions,
                    register_rule)

#: module basename -> enums it must dispatch exhaustively
DEFAULT_DISPATCHERS: Dict[str, List[str]] = {
    "recovery.py": ["WalRecordType"],
    "audit_scan.py": ["CLogType"],
    "forensics.py": ["CLogType"],
}

#: enums the default map knows about (markers may add others)
KNOWN_ENUMS = ("WalRecordType", "CLogType")


def _mentioned_members(unit: ModuleUnit, enum_name: str) -> Set[str]:
    mentioned: Set[str] = set()
    for node in ast.walk(unit.tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == enum_name:
            mentioned.add(node.attr)
    for fn in iter_functions(unit.tree):
        if fn.name.startswith("_on_"):
            mentioned.add(fn.name[len("_on_"):].upper())
    return mentioned


def _defines_enum(unit: ModuleUnit, enum_name: str) -> bool:
    return any(isinstance(node, ast.ClassDef) and node.name == enum_name
               for node in ast.walk(unit.tree))


@register_rule
class RecordExhaustivenessRule(Rule):
    """Recovery/replay/forensics must handle every declared record type."""

    name = "record-exhaustiveness"
    description = ("every WAL/compliance record type must appear in "
                   "recovery, audit-replay, and forensics dispatch")
    invariant = ("Sections IV–V: the audit verdict is sound only if every "
                 "record kind is accounted for by every dispatcher")

    def finalize(self, project: Project) -> List[LintFinding]:
        findings: List[LintFinding] = []
        for unit in project.units:
            basename = PurePath(unit.path).name
            enums = list(DEFAULT_DISPATCHERS.get(basename, []))
            enums.extend(mark for mark in unit.exhaustive_marks
                         if mark not in enums)
            for enum_name in enums:
                if _defines_enum(unit, enum_name) and \
                        enum_name in DEFAULT_DISPATCHERS.get(basename, []):
                    # the defining module is not its own dispatcher
                    continue
                members = project.enum_members(enum_name)
                if members is None:
                    findings.append(LintFinding(
                        self.name, unit.path, 1, 0,
                        f"dispatcher declares enum {enum_name!r} but its "
                        "definition is not in the linted file set — lint "
                        "the whole package so exhaustiveness can be "
                        "checked"))
                    continue
                missing = [m for m in members
                           if m not in _mentioned_members(unit, enum_name)]
                for member in missing:
                    findings.append(LintFinding(
                        self.name, unit.path, 1, 0,
                        f"{enum_name}.{member} has no dispatch arm in "
                        f"{basename} — handle it or add it to an "
                        "explicit ignored-set with a comment explaining "
                        "why it cannot occur here"))
        return findings
