"""Outside-in layer ledger: class-level timing wrappers around each
layer's entry points.

The benchmark, not the program, records the spans: :class:`Tracer`
replaces the public entry points of every layer (``TARGETS`` below) with
a wrapper that keeps a per-thread stack of open spans.  A span's self
time is its duration minus the time its child spans cover; finished
spans are folded at once into ``(parent layer, layer) -> [calls, total
ns, self ns]`` edges — the layer call graph — because a cold TPC-C run
finishes about a million spans and keeping each would cost more memory
than the database under test.  Per-call durations are kept only for the
few entry points whose percentiles are reported (``SAMPLED``).

Install **before** any database is built: hooks such as
``CompliancePlugin.on_pread`` are bound into the pager's hook lists at
``attach()``, and only a bound *wrapped* method is traced.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer = module name; every reported layer, in outside-in order
LAYERS = (
    "tpcc", "server.client", "server.protocol", "server.frontend",
    "server.service", "shard.coordinator", "shard.fanout",
    "shard.journal", "shard.dist_audit", "temporal", "txn", "btree",
    "storage.buffer", "storage.page", "storage.pager", "wal",
    "core.plugin", "core.clog", "crypto", "worm",
)

#: pseudo-layer for time blocked in ``socket.recv``: idle on the server
#: side, "waiting for the server" on the client side; never a layer's
#: own work, so it is kept out of every layer's self time
SOCKET_WAIT = "socket_wait"

#: (layer, "module:Class" or "module" for functions, names).  Private
#: names appear only where the method is registered as a callback by
#: its owner (so the time would otherwise be billed to the caller's
#: layer) or where the 1PC/2PC split needs it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("tpcc", "repro.tpcc.transactions:TPCCTransactions",
     "new_order payment order_status delivery stock_level"),
    ("temporal", "repro.temporal.engine:Engine",
     "begin prepare commit abort get insert insert_many update delete "
     "scan versions checkpoint quiesce run_stamper recover "
     "_after_commit _undo_transaction"),
    ("txn", "repro.txn.manager:TransactionManager",
     "begin prepare commit abort"),
    ("txn", "repro.txn.locks:LockTable", "acquire release_all"),
    ("btree", "repro.btree.tree:BPlusTree",
     "insert get_version page_of versions last_version range_scan "
     "remove stamp"),
    ("storage.buffer", "repro.storage.buffer:BufferCache",
     "get prefetch new_page flush_page flush_all maybe_evict drop_all"),
    ("storage.page", "repro.storage.page:Page", "from_bytes to_bytes"),
    ("storage.pager", "repro.storage.pager:Pager",
     "read_page read_pages write_page read_raw allocate"),
    ("wal", "repro.wal.log:TransactionLog", "append flush"),
    ("core.plugin", "repro.core.plugin:CompliancePlugin",
     "on_pread on_pread_batch on_pwrite on_commit on_abort on_split "
     "maintenance barrier _page_barrier begin_recovery "
     "recovery_outcomes"),
    ("core.clog", "repro.core.compliance_log:ComplianceLog",
     "append barrier"),
    ("worm", "repro.worm.server:WormServer",
     "create_file create_append_file append sync sync_all read"),
    ("crypto", "repro.crypto.hashes", "h h_int seq_hash add_hash"),
    ("crypto", "repro.crypto.batch",
     "seq_hash_page seq_hash_page_resumed"),
    ("crypto", "repro.crypto.hashes:AddHash",
     "add add_many remove union"),
    ("crypto", "repro.crypto.hashes:SeqHash", "add add_many"),
    ("crypto", "repro.crypto.pool:DigestPool",
     "h h_many seq_hash_page seq_hash_page_resumed seq_hash_pages "
     "add_hash_many"),
    ("server.client", "repro.server.client:ServerClient", "request"),
    ("server.protocol", "repro.server.protocol",
     "recv_frame send_frame"),
    (SOCKET_WAIT, "repro.server.protocol", "_recv_exact"),
    ("server.frontend", "repro.server.frontend:ComplianceServer",
     "_handle"),
    ("shard.coordinator", "repro.shard.coordinator:ShardedDB",
     "begin commit abort get scan insert insert_many update delete "
     "checkpoint maintenance recover crash_recover _commit_1pc "
     "_commit_2pc"),
    ("shard.fanout", "repro.shard.fanout:FanoutExecutor", "map"),
    ("shard.journal", "repro.shard.journal:DecisionJournal",
     "log_commit"),
    ("shard.dist_audit", "repro.shard.dist_audit:DistributedAuditor",
     "audit"),
)

#: entry points whose per-call durations are kept, by sample name
SAMPLED = {
    ("repro.shard.coordinator:ShardedDB", "_commit_1pc"): "commit_1pc",
    ("repro.shard.coordinator:ShardedDB", "_commit_2pc"): "commit_2pc",
    ("repro.shard.journal:DecisionJournal", "log_commit"):
        "journal_fsync",
    # the WAL keeps no flush counter; the sample count stands in for it
    ("repro.wal.log:TransactionLog", "flush"): "wal_flush",
}
#: enqueue -> start on the single writer thread (see ``_wrap_submit``)
QUEUE_WAIT = "queue_wait"

Edge = Tuple[Optional[str], str]


class _ThreadState:
    """One thread's open-span stack and its folded edges."""

    __slots__ = ("stack", "edges", "samples")

    def __init__(self) -> None:
        #: open spans, innermost last: ``[layer, child ns]``
        self.stack: List[List[Any]] = []
        self.edges: Dict[Edge, List[int]] = {}
        self.samples: Dict[str, List[int]] = {}


class Tracer:
    """Installs the wrappers and owns the ledger they write."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        #: (owner, attribute, original) in install order
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- the ledger ------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def take(self) -> Dict[str, Any]:
        """Everything recorded since the last call, merged over threads.

        Call at a quiescent point (no request in flight): a span still
        open on another thread reports into the next interval.
        """
        edges: Dict[Edge, List[int]] = {}
        samples: Dict[str, List[int]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            mine, state.edges = state.edges, {}
            for key, (calls, total, own) in mine.items():
                edge = edges.setdefault(key, [0, 0, 0])
                edge[0] += calls
                edge[1] += total
                edge[2] += own
            drawn, state.samples = state.samples, {}
            for name, values in drawn.items():
                samples.setdefault(name, []).extend(values)
        return {
            "edges": [[parent, layer, calls, total, own]
                      for (parent, layer), (calls, total, own)
                      in sorted(edges.items(),
                                key=lambda item: (item[0][0] or "",
                                                  item[0][1]))],
            "samples_ns": samples,
        }

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], layer: str,
              sample: Optional[str]) -> Callable[..., Any]:
        local = self._local
        new_state = self._state
        now = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            frame = [layer, 0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (parent[0], layer)
                else:
                    key = (None, layer)
                edge = state.edges.get(key)
                if edge is None:
                    edge = state.edges[key] = [0, 0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
                if sample is not None:
                    state.samples.setdefault(sample, []).append(elapsed)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _wrap_submit(self, submit: Callable[..., Any]
                     ) -> Callable[..., Any]:
        """``SingleWriterExecutor.submit``: the job runs on the writer
        thread while the submitting connection thread blocks on the
        future, so the span crosses threads.  The job's run is a
        ``server.service`` span on the writer thread; enqueue -> start
        is the queue wait; and both are charged to the submitter's open
        span as child time, because a blocked thread is not working."""
        get_state = self._state
        now = time.perf_counter_ns
        layer = "server.service"

        def traced_submit(executor: Any, fn: Callable[[], Any],
                          force: bool = False) -> Any:
            stack = get_state().stack
            waiter = stack[-1] if stack else None
            queued = now()

            def job() -> Any:
                started = now()
                state = get_state()
                state.samples.setdefault(QUEUE_WAIT, []).append(
                    started - queued)
                frame = [layer, 0]
                state.stack.append(frame)
                try:
                    return fn()
                finally:
                    ended = now()
                    state.stack.pop()
                    elapsed = ended - started
                    key = (waiter[0] if waiter is not None else None,
                           layer)
                    edge = state.edges.get(key)
                    if edge is None:
                        edge = state.edges[key] = [0, 0, 0]
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += elapsed - frame[1]
                    if waiter is not None:
                        waiter[1] += ended - queued

            return submit(executor, job, force)

        traced_submit.__wrapped__ = submit  # type: ignore[attr-defined]
        return traced_submit

    # -- install / uninstall ---------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point in ``TARGETS`` (raises if one is gone,
        so a refactor of the program updates this table, not silently
        drops a layer)."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        # import everything first: a module imported after a function
        # was patched would copy the wrapper, and uninstall could not
        # find that copy
        importlib.import_module("repro")
        for _layer, where, _names in TARGETS:
            importlib.import_module(where.partition(":")[0])
        try:
            for layer, where, names in TARGETS:
                module_name, _, class_name = where.partition(":")
                module = sys.modules[module_name]
                for name in names.split():
                    sample = SAMPLED.get((where, name))
                    if class_name:
                        self._patch_method(getattr(module, class_name),
                                           name, layer, sample)
                    else:
                        self._patch_function(module, name, layer)
            service = importlib.import_module("repro.server.service")
            executor = service.SingleWriterExecutor
            original = vars(executor)["submit"]
            self._set(executor, "submit", original,
                      self._wrap_submit(original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def _set(self, owner: Any, name: str, original: Any,
             replacement: Any) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, replacement)

    def _patch_method(self, cls: type, name: str, layer: str,
                      sample: Optional[str]) -> None:
        original = vars(cls)[name]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(
                self._wrap(original.__func__, layer, sample))
        elif isinstance(original, staticmethod):
            wrapped = staticmethod(
                self._wrap(original.__func__, layer, sample))
        else:
            wrapped = self._wrap(original, layer, sample)
        self._set(cls, name, original, wrapped)

    def _patch_function(self, module: Any, name: str,
                        layer: str) -> None:
        """Replace a module-level function in every ``repro`` namespace
        that holds it (``from .hashes import h`` copies the reference)."""
        original = vars(module)[name]
        wrapped = self._wrap(original, layer, None)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or
                                   mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, original, wrapped)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


def targets_snapshot() -> Dict[Tuple[str, str], Any]:
    """The current object behind every ``TARGETS`` entry point — equal
    before install and after uninstall iff the wrappers are gone."""
    snapshot: Dict[Tuple[str, str], Any] = {}
    for _layer, where, names in TARGETS:
        module_name, _, class_name = where.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for name in names.split():
            snapshot[(where, name)] = vars(owner)[name]
    return snapshot
