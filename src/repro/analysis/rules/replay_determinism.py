"""replay-determinism: audit replay must be a pure function of the log.

Paper invariant (Section V): the auditor re-derives every page hash
``Hs`` and the ADD-HASH completeness digest purely from the snapshot and
the compliance log; any nondeterminism in what the engine *feeds* those
hashes (wall-clock reads, unseeded randomness, dict-order iteration)
makes the honest system indistinguishable from a tampered one.

Flagged anywhere in the linted set:

* wall-clock / entropy calls: ``time.time``, ``time.time_ns``,
  ``datetime.now``/``utcnow``/``today``, ``os.urandom``,
  ``uuid.uuid1``/``uuid4``, anything from ``secrets`` — the engine runs
  on :class:`~repro.common.clock.SimulatedClock`, full stop.
  (``time.perf_counter`` is allowed: it feeds metrics, never hashes.)
* module-level ``random.<fn>(...)`` calls and unseeded
  ``random.Random()`` — a seeded ``random.Random(seed)`` instance is
  deterministic and allowed (the TPC-C generators use one).
* hash constructions fed by an **unsorted dict view**:
  ``SeqHash``/``AddHash``/``seq_hash``/``add_hash``/``h`` whose argument
  is ``<d>.values()/items()/keys()`` (directly or as the iterable of a
  comprehension) without a ``sorted(...)`` wrapper.  ADD-HASH is
  commutative, so a deliberate unsorted feed there may be suppressed
  with a justification; ``Hs`` is order-sensitive and never may be.

Since lint v2 a second, **interprocedural** rule rides in this module:
``replay-reachability``.  Every function in the audit replay surface (``audit.py``, ``audit_scan.py``, ``forensics.py``,
``recovery.py`` under ``repro``, plus any module marked
``# repro-lint: replay-root``) is a reachability root, and a call site
in reachable code whose resolved callee *transitively* performs a
wall-clock/entropy read is flagged where the contamination enters the
replay surface — wrapping ``time.time()`` in a helper module no longer
hides it from the audit path.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Optional, Set, Tuple

from ..callgraph import iter_calls
from ..core import (LintFinding, ModuleUnit, Project, Rule, dotted_name,
                    register_rule)

#: modules under ``repro`` that are always replay/audit reachability roots
_AUDIT_BASENAMES = {"audit.py", "audit_scan.py", "forensics.py",
                    "recovery.py"}

_FORBIDDEN_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.now": "wall-clock read",
    "datetime.utcnow": "wall-clock read",
    "datetime.today": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "os.urandom": "entropy source",
    "uuid.uuid1": "entropy source",
    "uuid.uuid4": "entropy source",
}

_HASH_CALLEES = {"SeqHash", "AddHash", "seq_hash", "add_hash", "h"}
_DICT_VIEWS = {"values", "items", "keys"}


def _unsorted_view(node: ast.expr) -> Optional[str]:
    """The ``.values()``-style view call in ``node``, if unsorted."""
    if isinstance(node, ast.Call) and \
            isinstance(node.func, ast.Attribute) and \
            node.func.attr in _DICT_VIEWS:
        receiver = dotted_name(node.func.value) or "<expr>"
        return f"{receiver}.{node.func.attr}()"
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        for comp in node.generators:
            view = _unsorted_view(comp.iter)
            if view is not None:
                return view
    return None


def _forbidden_desc(call: ast.Call) -> Optional[str]:
    """Short description when ``call`` is a direct nondeterminism source.

    The predicate the interprocedural pass runs down the call graph;
    mirrors the direct-ban logic of :meth:`check_module`.
    """
    callee = dotted_name(call.func)
    if callee is None:
        return None
    if callee in _FORBIDDEN_CALLS:
        return f"{callee}() ({_FORBIDDEN_CALLS[callee]})"
    if callee.startswith("secrets."):
        return f"{callee}() (shared entropy)"
    if callee.startswith("random."):
        fn = callee.split(".", 1)[1]
        if fn != "Random":
            return f"{callee}() (shared/unseeded randomness)"
        if not call.args and not call.keywords:
            return "random.Random() with no seed"
    return None


@register_rule
class ReplayDeterminismRule(Rule):
    """No wall clocks, entropy, or dict-order feeds into audit hashes."""

    name = "replay-determinism"
    description = ("forbid time.time/random and unsorted-dict iteration "
                   "feeding Hs/ADD-HASH")
    invariant = ("Section V: the auditor's replay must re-derive every "
                 "digest purely from the snapshot and the log")

    def check_module(self, unit: ModuleUnit,
                     project: Project) -> List[LintFinding]:
        findings: List[LintFinding] = []
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee in _FORBIDDEN_CALLS:
                findings.append(LintFinding(
                    self.name, unit.path, node.lineno, node.col_offset,
                    f"{callee}() is a {_FORBIDDEN_CALLS[callee]} — replay "
                    "must take time from the SimulatedClock/Compliance "
                    "Clock only"))
            elif callee is not None and (callee.startswith("random.") or
                                         callee.startswith("secrets.")):
                fn = callee.split(".", 1)[1]
                if callee.startswith("secrets.") or fn != "Random":
                    findings.append(LintFinding(
                        self.name, unit.path, node.lineno,
                        node.col_offset,
                        f"{callee}() draws from shared/unseeded "
                        "randomness — use a seeded random.Random(seed) "
                        "instance"))
                elif not node.args and not node.keywords:
                    findings.append(LintFinding(
                        self.name, unit.path, node.lineno,
                        node.col_offset,
                        "random.Random() without a seed is "
                        "nondeterministic — pass an explicit seed"))
            func_name = node.func.id if isinstance(node.func, ast.Name) \
                else None
            if func_name in _HASH_CALLEES:
                for arg in node.args:
                    view = _unsorted_view(arg)
                    if view is not None:
                        findings.append(LintFinding(
                            self.name, unit.path, node.lineno,
                            node.col_offset,
                            f"{func_name}({view}) feeds dict-order "
                            "iteration into a hash — wrap the view in "
                            "sorted(...) or justify why order cannot "
                            "matter"))
        return findings


@register_rule
class ReplayReachabilityRule(Rule):
    """Nondeterminism reachable from the audit replay surface."""

    name = "replay-reachability"
    description = ("flag replay/audit-reachable call sites whose callees "
                   "transitively read wall clocks or entropy")
    invariant = ("Section V: every function the auditor's replay can "
                 "reach must be deterministic, not just the replay "
                 "modules themselves")

    def finalize(self, project: Project) -> List[LintFinding]:
        """Interprocedural pass: nondeterminism reachable from replay.

        Call sites *inside* the replay surface whose resolved callees
        transitively hit a wall-clock/entropy read are flagged at the
        point where the contamination enters — the direct per-module
        bans of ``replay-determinism`` already cover the source itself.
        """
        graph = project.callgraph()
        roots = []
        for unit in project.units:
            if unit.replay_root or (
                    Path(unit.path).name in _AUDIT_BASENAMES and
                    unit.in_repro_package()):
                roots.extend(graph.functions_of_unit(unit))
        if not roots:
            return []
        findings: List[LintFinding] = []
        seen: Set[Tuple[str, int, int]] = set()
        for key in sorted(graph.reachable_functions(roots)):
            info = graph.functions[key]
            for call in iter_calls(info.node):
                for target in graph.resolve_call(call, info):
                    hit = graph.reaches(target, _forbidden_desc)
                    if hit is None:
                        continue
                    site = (info.unit.path, call.lineno,
                            call.col_offset)
                    if site not in seen:
                        seen.add(site)
                        findings.append(LintFinding(
                            self.name, info.unit.path, call.lineno,
                            call.col_offset,
                            f"replay-reachable call in "
                            f"'{info.qualname}' reaches {hit} via "
                            f"'{target.qualname}' — the audit replay "
                            "surface must be deterministic"))
                    break
        return findings
