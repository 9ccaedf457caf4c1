"""The :class:`Observability` bundle: one registry plus one tracer.

Every instrumented component takes an ``obs`` parameter.  A
:class:`~repro.core.database.CompliantDB` builds a single bundle from
``DBConfig.obs`` and threads it through the WORM server, pager, buffer
cache, transaction manager, compliance plugin, shredder, and auditor,
so one ``db.metrics()`` call sees the whole stack.  Components built
standalone (unit tests, tools) default to a private bundle, keeping
their counters isolated.  The registry is the one place a counter is
read: ``db.metrics()`` or ``obs.registry.value(...)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .registry import MetricsRegistry
from .tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config docs)
    from ..common.config import ObsConfig


class Observability:
    """A metrics registry and a tracer that travel together."""

    __slots__ = ("registry", "tracer")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()

    @classmethod
    def from_config(
        cls,
        config: "ObsConfig",
        now: Optional[Callable[[], int]] = None,
    ) -> "Observability":
        """Build a bundle from a validated ``ObsConfig``.

        ``now`` should be the database's ``SimulatedClock.now`` so span
        timestamps are replay-deterministic.
        """
        return cls(
            MetricsRegistry(),
            Tracer(now=now, capacity=config.trace_capacity),
        )

