"""Runtime concurrency sanitizer: lock order + single-writer confinement.

The static rules in :mod:`repro.analysis.rules` prove *shape*; this
module watches the real threads.  When installed it monkey-patches four
seams — cheaply enough to run under the full server test suite:

* ``threading.Lock`` — every lock created while installed is wrapped in
  a :class:`_TracedLock` named by its creation site.  Each successful
  acquisition while other traced locks are held adds *held-site →
  acquired-site* edges to a global acquisition-order graph; a cycle
  means two threads can deadlock, and is recorded as a ``lock-order``
  **violation** with both acquisition stacks' sites.
* ``LockTable.acquire``/``release_all``/``clear`` — the strict-2PL
  table.  Per-transaction resource acquisition order feeds a second
  graph; cycles there are recorded as ``resource-order`` **warnings**
  (this engine's table rejects conflicts immediately instead of
  blocking, so an order inversion is a latent hazard for a blocking
  lock manager, not a live deadlock).
* ``SingleWriterExecutor._run`` — registers the writer thread that owns
  a database.
* ``ComplianceService.__init__`` — binds the service's database (via
  its engine's lock table) to that executor.  From then on a
  ``LockTable.acquire`` from any *other* thread while the writer is
  alive is a ``confinement`` **violation**: exactly the race the
  single-writer design exists to make impossible.

Enable per-process with the ``REPRO_SANITIZE=1`` environment variable
(the test suites' conftest installs it and fails any test that adds a
violation; a ``CompliantDB`` coming up under it installs it too).
Everything here is stdlib-only and import-light so the engine can pull
it in lazily.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: environment toggle honoured by CompliantDB and the test conftest
ENV_VAR = "REPRO_SANITIZE"


def env_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for the sanitizer."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in \
        ("", "0", "false", "no")


@dataclass(frozen=True)
class Violation:
    """One detected concurrency-discipline breach."""

    kind: str        #: 'lock-order' | 'confinement' | 'resource-order'
    message: str
    thread: str      #: name of the thread that completed the breach

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message} (thread {self.thread})"


class SanitizerError(AssertionError):
    """Raised by :meth:`LockOrderSanitizer.assert_clean`."""


def _creation_site(depth: int = 2) -> str:
    """``file:line`` of the frame that created a lock."""
    frame = sys._getframe(depth)
    return f"{os.path.basename(frame.f_code.co_filename)}:" \
           f"{frame.f_lineno}"


class _TracedLock:
    """Proxy around a real ``threading.Lock`` that reports acquisitions.

    Exposes the full lock protocol (``acquire``/``release``/context
    manager/``locked``) so it also works as the lock behind a
    ``threading.Condition`` — the Condition fallbacks only need these.
    """

    def __init__(self, sanitizer: "LockOrderSanitizer", site: str):
        self._lock = sanitizer._real_lock_factory()
        self._sanitizer = sanitizer
        self.site = site

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)  # repro-lint: disable=lock-discipline -- proxy method: the CALLER owns this mutex's scope; the proxy only forwards and records
        if got:
            self._sanitizer._on_mutex_acquired(self)
        return got

    def release(self) -> None:
        self._sanitizer._on_mutex_released(self)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_TracedLock {self.site} locked={self.locked()}>"


class LockOrderSanitizer:
    """Acquisition-order graphs plus writer-thread confinement checks."""

    def __init__(self) -> None:
        #: the unpatched factory (captured at install)
        self._real_lock_factory: Callable[[], Any] = threading.Lock
        self._guard = threading.Lock()  # created pre-patch in practice
        self._tls = threading.local()
        #: mutex graph: site -> sites acquired while it was held
        self._edges: Dict[str, Set[str]] = {}
        #: resource graph: resource -> resources acquired later by a txn
        self._res_edges: Dict[Any, Set[Any]] = {}
        #: (table id, txn id) -> resources held, in acquisition order
        self._txn_held: Dict[Tuple[int, int], List[Any]] = {}
        #: lock-table id -> executor whose writer thread owns it
        self._confined: Dict[int, Any] = {}
        #: executor id -> live writer thread
        self._writers: Dict[int, threading.Thread] = {}
        self.violations: List[Violation] = []
        self.warnings: List[Violation] = []
        self._installed = False
        #: patch site -> original (key: 'threading.Lock' or (cls, attr))
        self._saved: Dict[Any, Any] = {}

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        """Patch the four seams (idempotent)."""
        if self._installed:
            return
        self._installed = True
        self._real_lock_factory = threading.Lock
        self._saved["threading.Lock"] = threading.Lock

        def traced_lock() -> _TracedLock:
            return _TracedLock(self, _creation_site())

        threading.Lock = traced_lock  # type: ignore[misc,assignment]
        self._patch_lock_table()
        self._patch_server()

    def uninstall(self) -> None:
        """Undo every patch this instance applied."""
        if not self._installed:
            return
        self._installed = False
        threading.Lock = (  # type: ignore[misc]
            self._saved.pop("threading.Lock"))
        for dotted, original in self._saved.items():
            cls_or_mod, attr = dotted
            setattr(cls_or_mod, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        """Forget graphs and reports (keeps the patches in place)."""
        with self._guard:
            self._edges.clear()
            self._res_edges.clear()
            self._txn_held.clear()
            self.violations.clear()
            self.warnings.clear()

    def assert_clean(self) -> None:
        """Raise :class:`SanitizerError` if any violation was recorded."""
        if self.violations:
            lines = "\n".join(f"  {v}" for v in self.violations)
            raise SanitizerError(
                f"{len(self.violations)} concurrency violation(s):\n"
                f"{lines}")

    # -- patching ----------------------------------------------------------

    def _patch_lock_table(self) -> None:
        from ..txn.locks import LockTable
        sanitizer = self

        orig_acquire = LockTable.acquire
        orig_release_all = LockTable.release_all
        orig_clear = LockTable.clear

        def acquire(table: Any, txn_id: int, resource: str,
                    mode: Any) -> Any:
            sanitizer._check_confinement(table)
            result = orig_acquire(table, txn_id, resource, mode)
            sanitizer._on_table_acquired(table, txn_id, resource)
            return result

        def release_all(table: Any, txn_id: int) -> Any:
            result = orig_release_all(table, txn_id)
            with sanitizer._guard:
                sanitizer._txn_held.pop((id(table), txn_id), None)
            return result

        def clear(table: Any) -> Any:
            result = orig_clear(table)
            with sanitizer._guard:
                for key in [k for k in sanitizer._txn_held
                            if k[0] == id(table)]:
                    del sanitizer._txn_held[key]
            return result

        for attr, patched, original in (
                ("acquire", acquire, orig_acquire),
                ("release_all", release_all, orig_release_all),
                ("clear", clear, orig_clear)):
            setattr(LockTable, attr, patched)
            self._saved[(LockTable, attr)] = original

    def _patch_server(self) -> None:
        from ..server.service import ComplianceService, \
            SingleWriterExecutor
        sanitizer = self

        orig_run = SingleWriterExecutor._run
        orig_init = ComplianceService.__init__

        def _run(executor: Any) -> Any:
            with sanitizer._guard:
                sanitizer._writers[id(executor)] = \
                    threading.current_thread()
            try:
                return orig_run(executor)
            finally:
                with sanitizer._guard:
                    sanitizer._writers.pop(id(executor), None)

        def __init__(service: Any, db: Any, *args: Any,
                     **kwargs: Any) -> None:
            orig_init(service, db, *args, **kwargs)
            sanitizer.confine(db, service.executor)

        SingleWriterExecutor._run = _run  # type: ignore[method-assign]
        self._saved[(SingleWriterExecutor, "_run")] = orig_run
        ComplianceService.__init__ = (  # type: ignore[method-assign]
            __init__)
        self._saved[(ComplianceService, "__init__")] = orig_init

    def confine(self, db: Any, executor: Any) -> None:
        """Bind ``db``'s lock table to ``executor``'s writer thread."""
        table = getattr(getattr(getattr(db, "engine", None), "txns",
                                None), "locks", None)
        if table is None:
            return
        with self._guard:
            self._confined[id(table)] = executor

    # -- event handlers ----------------------------------------------------

    def _held_stack(self) -> List[_TracedLock]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _on_mutex_acquired(self, lock: _TracedLock) -> None:
        stack = self._held_stack()
        with self._guard:
            for held in stack:
                if held.site != lock.site:
                    self._add_edge(self._edges, held.site, lock.site,
                                   kind="lock-order",
                                   what="threading locks")
        stack.append(lock)

    def _on_mutex_released(self, lock: _TracedLock) -> None:
        stack = self._held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                break

    def _on_table_acquired(self, table: Any, txn_id: int,
                           resource: str) -> None:
        key = (id(table), txn_id)
        with self._guard:
            held = self._txn_held.setdefault(key, [])
            for earlier in held:
                if earlier != resource:
                    self._add_edge(self._res_edges, earlier, resource,
                                   kind="resource-order",
                                   what="lock-table resources")
            if resource not in held:
                held.append(resource)

    def _check_confinement(self, table: Any) -> None:
        with self._guard:
            executor = self._confined.get(id(table))
            writer = self._writers.get(id(executor)) \
                if executor is not None else None
        if writer is None or writer is threading.current_thread():
            return
        self._record(Violation(
            "confinement",
            "LockTable touched off the writer thread while the "
            "SingleWriterExecutor is running — database state must "
            "only be reached through executor.submit(...)",
            threading.current_thread().name))

    # -- graph bookkeeping (caller holds self._guard) ----------------------

    def _add_edge(self, graph: Dict[Any, Set[Any]], a: Any, b: Any,
                  kind: str, what: str) -> None:
        if b in graph.get(a, ()):  # seen edge: already checked
            return
        graph.setdefault(a, set()).add(b)
        cycle = self._find_path(graph, b, a)
        if cycle is not None:
            order = " -> ".join(str(node) for node in cycle + [b])
            self._record(Violation(
                kind,
                f"inconsistent acquisition order of {what}: acquiring "
                f"'{b}' while holding '{a}' closes the cycle "
                f"[{order}] — two threads taking these in opposite "
                "order can deadlock",
                threading.current_thread().name), locked=True)

    @staticmethod
    def _find_path(graph: Dict[Any, Set[Any]], start: Any,
                   goal: Any) -> Optional[List[Any]]:
        """DFS path ``start -> ... -> goal`` through ``graph``."""
        stack: List[Tuple[Any, List[Any]]] = [(start, [start])]
        seen: Set[Any] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for nxt in sorted(graph.get(node, ()), key=repr):
                stack.append((nxt, path + [nxt]))
        return None

    def _record(self, violation: Violation,
                locked: bool = False) -> None:
        target = self.warnings if violation.kind == "resource-order" \
            else self.violations
        if locked:
            target.append(violation)
        else:
            with self._guard:
                target.append(violation)


#: the installed instance, if any
_ACTIVE: Optional[LockOrderSanitizer] = None
_ACTIVE_GUARD = threading.Lock()


def current() -> Optional[LockOrderSanitizer]:
    """The installed sanitizer, or ``None``."""
    return _ACTIVE


def install(sanitizer: Optional[LockOrderSanitizer] = None) \
        -> LockOrderSanitizer:
    """Install (or return the already-installed) global sanitizer."""
    global _ACTIVE
    with _ACTIVE_GUARD:
        if _ACTIVE is not None:
            return _ACTIVE
        _ACTIVE = sanitizer if sanitizer is not None \
            else LockOrderSanitizer()
        _ACTIVE.install()
        return _ACTIVE


def uninstall() -> None:
    """Remove the global sanitizer's patches, if installed."""
    global _ACTIVE
    with _ACTIVE_GUARD:
        if _ACTIVE is not None:
            _ACTIVE.uninstall()
            _ACTIVE = None


def ensure_installed_from_env() -> Optional[LockOrderSanitizer]:
    """Install iff ``REPRO_SANITIZE`` is set; used by CompliantDB."""
    if env_enabled():
        return install()
    return None
