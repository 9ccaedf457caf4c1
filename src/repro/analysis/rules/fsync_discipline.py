"""fsync-before-rename: atomic publishes must be durable first.

Invariant (Section IV, applied to any state this tree publishes by
rename): the atomic-rename pattern — write ``file.tmp``, then
``os.replace`` it over ``file`` — only gives crash atomicity when the
*contents* of the temp file are on disk before the rename is.  Most
filesystems may commit the metadata (the rename) ahead of the data
pages; after a crash the new name then points at truncated or
zero-filled bytes.  A marker or state file published that way *looks*
valid but reads back garbage — worse than no file at all, because the
reader has no reason to distrust it.  No code in ``src/repro``
publishes by rename today; the rule keeps it that way unless the
fsync comes first.

The rule flags ``os.replace``/``os.rename``/``<path>.rename`` calls in
functions where no ``fsync`` happens lexically before the rename —
either a direct ``os.fsync(...)``/``<f>.fsync()`` call or a helper that
(within the call-graph depth bound) reaches one.  Renames of files the
function never wrote (pure moves) are rare in this tree; where one is
genuinely durable-by-construction, suppress with a justification.
"""

from __future__ import annotations

import ast
from typing import List

from ..core import (LintFinding, ModuleUnit, Project, Rule, before,
                    dotted_name, iter_functions, ordered_calls,
                    register_rule)

_RENAME_DOTTED = {"os.replace", "os.rename"}


def _is_rename(call: ast.Call) -> bool:
    callee = dotted_name(call.func)
    if callee in _RENAME_DOTTED:
        return True
    # pathlib: tmp.rename(dst) / tmp.replace(dst) — but never
    # str.replace(old, new), which takes two arguments
    if isinstance(call.func, ast.Attribute) and \
            call.func.attr in ("rename", "replace") and \
            callee is not None and not callee.startswith("os.") and \
            len(call.args) == 1 and not call.keywords:
        return call.func.attr == "rename" or \
            not isinstance(call.args[0], ast.Constant)
    return False


def _is_fsync(call: ast.Call) -> bool:
    callee = dotted_name(call.func)
    if callee == "os.fsync":
        return True
    return isinstance(call.func, ast.Attribute) and \
        call.func.attr == "fsync"


@register_rule
class FsyncBeforeRenameRule(Rule):
    """Atomic-rename publishes need a preceding fsync."""

    name = "fsync-before-rename"
    description = ("os.replace/rename of a checkpoint or marker without "
                   "an fsync of its contents first")
    invariant = ("crash atomicity: the rename may hit disk before the "
                 "data unless the data was fsynced first")

    def check_module(self, unit: ModuleUnit,
                     project: Project) -> List[LintFinding]:
        findings: List[LintFinding] = []
        graph = project.callgraph()
        for fn in iter_functions(unit.tree):
            calls = ordered_calls(fn)
            renames = [call for call in calls if _is_rename(call)]
            if not renames:
                continue
            caller = graph.info_for(fn)
            syncs = [call for call in calls
                     if _is_fsync(call) or
                     (not _is_rename(call) and
                      graph.call_reaches_attr(call, caller, {"fsync"}))]
            for rename in renames:
                if any(before(sync, rename) for sync in syncs):
                    continue
                target = dotted_name(rename.func) or \
                    f"<expr>.{rename.func.attr}"  # type: ignore[union-attr]
                findings.append(LintFinding(
                    self.name, unit.path, rename.lineno,
                    rename.col_offset,
                    f"'{fn.name}' publishes via {target}(...) with no "
                    "preceding fsync — after a crash the rename can be "
                    "durable while the file's bytes are not (torn "
                    "checkpoint/marker)"))
        return findings
