"""The observer that turns a live service run into observability data.

:class:`ObsRecorder` plugs into ``SccService(observer=...)``.  It is
push-fed: the service emits every decision once into its append-only
``service.events`` log and calls :meth:`on_event` after every simulated
event; the recorder consumes only the events appended since its last
call, so its cost is linear in what it observes.  From them it builds
:class:`~repro.obs.timeseries.SeriesRegistry` samples (change-driven
step series, so flat stretches cost nothing), latency
:class:`~repro.obs.timeseries.StreamingHistogram` sketches, and one
:class:`~repro.obs.timeline.JobTimeline` per terminal job.

The coupling is duck-typed on purpose: ``repro.obs`` never imports
``repro.serve``.  Besides the event log the recorder reads only O(1)
service surface: ``now``, ``queue``, ``pool``, ``cache``,
``breakers_enabled``, ``metrics.SERIES`` and ``budget_utilization``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from .timeline import JobTimeline, job_timeline
from .timeseries import SeriesRegistry, StreamingHistogram

__all__ = ["ObsRecorder", "BREAKER_STATE_LEVELS"]

#: gauge encoding of circuit-breaker states (closed is healthy/low).
BREAKER_STATE_LEVELS = {"closed": 0.0, "half-open": 1.0, "open": 2.0}

#: breaker events -> the state they leave the breaker in
_BREAKER_STATE_OF = {"breaker-half-open": "half-open", "breaker-opened": "open",
                     "breaker-reopened": "open", "breaker-closed": "closed"}
#: events after which the service finishes their job
_TERMINAL_EVENTS = frozenset({"complete", "reject-budget", "shed", "dead-letter"})


class ObsRecorder:
    """Records an :class:`~repro.serve.service.SccService` run as it goes.

    Parameters
    ----------
    growth:
        Bucket growth factor of the latency histograms; the reported
        quantiles have relative error at most ``sqrt(growth) - 1``.
    """

    def __init__(self, *, growth: float = 1.04) -> None:
        self.registry = SeriesRegistry()
        #: DONE-job end-to-end latency, seconds
        self.latency_hist = StreamingHistogram(growth)
        #: per-phase dwell time across all terminal jobs, seconds
        self.phase_hists: "dict[str, StreamingHistogram]" = {}
        self.timelines: "list[JobTimeline]" = []
        self.report: Any = None
        self._growth = growth
        self._events_cursor = 0
        self._counts: "Counter[str]" = Counter()
        self._breakers: "dict[str, str]" = {}
        self.events_observed = 0

    # ------------------------------------------------------------------
    # service hook
    # ------------------------------------------------------------------
    def on_event(self, service: Any) -> None:
        """Called by the service after each simulated event.

        Samples keep a fixed order: queue and WIP gauges, counter
        series, cache gauges, then the breakers and tenants the new
        events touched (sorted), then the new terminal jobs' timelines
        by job id.
        """
        self.events_observed += 1
        now = service.now
        self._gauge_changed("queue_depth", now, float(len(service.queue)))
        self._gauge_changed("wip_in_flight", now, float(service.pool.in_flight))

        new = service.events[self._events_cursor:]
        self._events_cursor += len(new)
        workloads: "set[str]" = set()
        tenants: "set[str]" = set()
        finished: "list[Any]" = []
        for ev in new:
            for name in ev.counters:
                self._counts[name] += ev.n
            if ev.event in _BREAKER_STATE_OF:
                workloads.add(ev.detail["workload"])
                self._breakers[ev.detail["workload"]] = _BREAKER_STATE_OF[ev.event]
            elif ev.event == "dispatch" and service.breakers_enabled:
                # a workload's first dispatch creates its (closed) breaker
                workloads.add(ev.job.spec.workload)
                self._breakers.setdefault(ev.job.spec.workload, "closed")
            if ev.event in ("complete", "crash"):  # charged its tenant
                tenants.add(ev.job.spec.tenant)
            if ev.event in _TERMINAL_EVENTS:
                finished.append(ev.job)

        touched = {name for ev in new for name in ev.counters}
        for name in service.metrics.SERIES:
            # every series starts at the first event, at zero if untouched
            if name in touched or self.events_observed == 1:
                self.registry.counter(f"metric:{name}", now, float(self._counts[name]))

        cache = service.cache
        if cache is not None:
            lookups = cache.stats.hits + cache.stats.misses
            if lookups:
                self._gauge_changed("cache_hit_rate", now, cache.stats.hits / lookups)
            self._gauge_changed("cache_bytes", now, float(cache.bytes))
        for workload in sorted(workloads):
            level = BREAKER_STATE_LEVELS[self._breakers[workload]]
            self._gauge_changed(f"breaker:{workload}", now, level)
        for tenant in sorted(tenants):
            util = service.budget_utilization(tenant)
            if util is not None:
                self._gauge_changed(f"budget_util:{tenant}", now, util)
        for job in sorted(finished, key=lambda j: j.id):
            self._on_terminal(job)

    def _gauge_changed(self, series: str, t: float, value: float) -> None:
        """Record a gauge point only when the level actually moved."""
        last = self.registry.last(series)
        if last is None or last.value != value:
            self.registry.gauge(series, t, value)

    def _on_terminal(self, job: Any) -> None:
        tl = job_timeline(job)
        self.timelines.append(tl)
        if str(job.state) == "done":
            self.latency_hist.observe(job.latency_s)
        for phase, seconds in tl.by_phase().items():
            hist = self.phase_hists.get(phase)
            if hist is None:
                hist = self.phase_hists[phase] = StreamingHistogram(self._growth)
            hist.observe(seconds)

    # ------------------------------------------------------------------
    # end of run
    # ------------------------------------------------------------------
    def finalize(self, report: Any) -> "ObsRecorder":
        """Attach the finished run's :class:`ServiceReport`."""
        self.report = report
        return self

    def quantiles_ms(self, *qs: float) -> "dict[str, float | None]":
        """DONE-latency quantiles in milliseconds, keyed ``p50``-style."""
        out: "dict[str, float | None]" = {}
        for q in qs:
            v = self.latency_hist.quantile(q)
            key = f"p{q * 100:g}".replace(".", "")
            out[key] = None if v is None else v * 1e3
        return out

    def summary(self) -> "dict[str, Any]":
        """JSON-safe digest: series, histograms, timelines, run totals."""
        phases: "dict[str, Any]" = {}
        for name in sorted(self.phase_hists):
            hist = self.phase_hists[name]
            phases[name] = {
                "total": hist.total,
                "p50_s": hist.quantile(0.5),
                "p99_s": hist.quantile(0.99),
                "max_s": hist.max,
            }
        out: "dict[str, Any]" = {
            "events_observed": self.events_observed,
            "series": self.registry.as_dict(),
            "latency_hist": self.latency_hist.as_dict(),
            "latency_ms": self.quantiles_ms(0.5, 0.99, 0.999),
            "quantile_error": self.latency_hist.quantile_error,
            "phases": phases,
            "timelines": [tl.as_dict() for tl in self.timelines],
        }
        if self.report is not None:
            out["makespan_s"] = self.report.makespan_s
            out["by_state"] = self.report.by_state()
        return out

    def to_trace(self, trace: Any) -> Any:
        """Append samples + timelines to a ``repro.trace.Trace`` (v3)."""
        from repro.trace.records import SampleRecord, TimelineRecord

        for s in self.registry.samples:
            trace.samples.append(
                SampleRecord(series=s.series, kind=s.kind, t=s.t, value=s.value)
            )
        for tl in self.timelines:
            trace.timelines.append(
                TimelineRecord(
                    job_id=tl.job_id,
                    tenant=tl.tenant,
                    workload=tl.workload,
                    state=tl.state,
                    submit_s=tl.submit_s,
                    finish_s=tl.finish_s,
                    segments=tuple(
                        (seg.phase, seg.t0, seg.t1) for seg in tl.segments
                    ),
                )
            )
        return trace
