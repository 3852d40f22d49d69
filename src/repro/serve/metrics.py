"""Service metrics: the one event table, decision counters, Prometheus text.

Every control-plane decision is one event, emitted once by
``SccService._emit``: it lands in the job's decision history, in the
:class:`ServiceMetrics` counters :data:`EVENT_TABLE` maps it to, as one
``serve:<event>`` trace counter, and as a :class:`ServeEvent` in the
service's event log, which observers read instead of polling.
:func:`to_prometheus` renders the counters in the text exposition
format, mirroring ``repro.profile.to_prometheus`` (``docs/observability.md`` §9).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache

from ..profile.report import prom_escape

__all__ = ["EVENT_TABLE", "EventRow", "ServeEvent", "ServiceMetrics", "event_counters",
           "to_prometheus", "COUNTER_HELP", "GAUGE_HELP"]

EventRow = namedtuple("EventRow", "event reason counter series help")

#: The one event table.  An event adds its ``n`` to the ``counter`` of
#: every row naming it whose ``reason`` is None or equals the event's
#: ``reason`` detail: ``shed`` counts by reason, and a ``dead-letter`` by
#: deadline also counts ``deadline_expired``.  ``series`` marks counters
#: worth a time series; ``help`` is the counter's exposition HELP text.
EVENT_TABLE: "tuple[EventRow, ...]" = tuple(EventRow(*row) for row in (
    ("submit", None, "submitted", True, "jobs submitted"),
    ("reject-budget", None, "rejected_budget", False,
     "jobs rejected at admission: tenant over budget"),
    ("admit", None, "admitted", True, "jobs admitted to the run queue"),
    ("retry", None, None, False, "a retry's backoff elapsed; the job re-enters admission"),
    ("dispatch", None, "dispatched", True, "execution attempts dispatched to workers"),
    ("delay", None, "delayed", False, "completions stretched by injected message delays"),
    ("complete", None, "completed", True, "jobs completed successfully"),
    ("crash", None, "crashed", True, "execution attempts killed by injected worker crashes"),
    ("retry-scheduled", None, "retries", True, "retry attempts scheduled (bounded, backoff)"),
    ("shed", "backpressure", "shed_backpressure", True, "jobs shed: bounded run queue full"),
    ("shed", "breaker-open", "shed_breaker", True, "jobs shed: workload circuit breaker open"),
    ("dead-letter", None, "dead_letter", True, "jobs moved to the dead-letter lane"),
    ("dead-letter", "deadline", "deadline_expired", False, "jobs dead-lettered by their deadline"),
    ("breaker-opened", None, "breaker_opened", False, "circuit-breaker open transitions"),
    ("breaker-half-open", None, None, False, "an open breaker lets one probe job through"),
    ("breaker-reopened", None, "breaker_reopened", False,
     "failed half-open probes (breaker re-opened)"),
    ("breaker-closed", None, "breaker_closed", False,
     "successful half-open probes (breaker closed)"),
    ("cache_hit", None, "cache_hits", True,
     "read jobs completed from the solve cache (zero device cost)"),
    ("cache_miss", None, "cache_misses", False, "read executions that found no cache entry"),
    ("cache_put", None, None, False, "a completed read memoized in the solve cache"),
    ("cache_eviction", None, "cache_evictions", False,
     "solve-cache entries evicted by the LRU byte budget"),
    ("cache_invalidation", None, "cache_invalidations", False,
     "solve-cache entries dropped by a generation advance"),
    ("coalesce_attach", None, "coalesced_reads", True,
     "solve/query jobs completed from a coalesced leader's result"),
    ("coalesce_merge", None, "coalesced_updates", False,
     "update jobs merged into another update's single apply"),
    ("coalesce_requeue", None, "coalesce_requeued", False,
     "coalesced followers returned to the queue by a leader crash"),
))

#: every counter the service emits, with its exposition HELP text.
COUNTER_HELP = {row.counter: row.help for row in EVENT_TABLE if row.counter}


@lru_cache(maxsize=None)
def event_counters(event: str, reason: "str | None" = None) -> "tuple[str, ...]":
    """The counters *event* increments given its *reason* (KeyError if unknown)."""
    rows = [row for row in EVENT_TABLE if row.event == event]
    if not rows:
        raise KeyError(f"unknown serve event {event!r}")
    return tuple(r.counter for r in rows if r.counter and r.reason in (None, reason))


#: One emitted decision in ``SccService.events``: ``job`` is None for
#: breaker and cache decisions; ``n`` is added to each of ``counters``.
ServeEvent = namedtuple("ServeEvent", "t event job n counters detail")

#: every gauge the service emits, with its exposition HELP text.
GAUGE_HELP = {
    "queue_peak_depth": "deepest the bounded run queue got during the run",
    "makespan_s": "simulated seconds from first arrival to last terminal job",
    "shed_wait_s_total": "queue seconds wasted by jobs that were later shed",
    "cache_bytes": "bytes resident in the solve cache at end of run",
    "cache_entries": "entries resident in the solve cache at end of run",
}


class ServiceMetrics:
    """Aggregate decision counters plus a few service-level gauges."""

    #: counters worth a time series, in :data:`EVENT_TABLE` order
    SERIES = tuple(row.counter for row in EVENT_TABLE if row.series)

    def __init__(self) -> None:
        self.counters: "Counter[str]" = Counter()
        self.gauges: "dict[str, float]" = {}

    def incr(self, name: str, value: int = 1) -> None:
        self.counters[name] += value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def __getitem__(self, name: str) -> int:
        return self.counters.get(name, 0)

    def as_dict(self) -> "dict[str, object]":
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }


def to_prometheus(
    metrics: ServiceMetrics, *, prefix: str = "repro_serve"
) -> str:
    """Text exposition of the service counters and gauges.

    Counter names become ``<prefix>_<name>_total``; gauges keep their
    name.  Unknown counters (callers may add their own) get a generic
    HELP line rather than being dropped.
    """
    lines: "list[str]" = []
    for kind, values, helps, suffix in (
        ("counter", metrics.counters, COUNTER_HELP, "_total"),
        ("gauge", metrics.gauges, GAUGE_HELP, ""),
    ):
        for name in sorted(values):
            metric = f"{prefix}_{name}{suffix}"
            help_text = helps.get(name, f"service {kind} {name}")
            value = values[name] if kind == "counter" else f"{values[name]:.9g}"
            lines += [f"# HELP {metric} {prom_escape(help_text)}",
                      f"# TYPE {metric} {kind}", f"{metric} {value}"]
    return "\n".join(lines) + "\n"
