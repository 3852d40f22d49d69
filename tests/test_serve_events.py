"""One emit per serve decision: every view reads the same event stream.

* **Golden digests** — ``ServiceReport.to_dict()``,
  ``ObsRecorder.summary()`` and the ``to_trace`` JSONL of four seeded
  serve runs hash to the values in ``golden_serve_digests.json``,
  captured before the recorder moved from polling to the event stream.
  Regenerate with ``PYTHONPATH=src python tests/test_serve_events.py``.
* **Agreement** — per event, the ``serve:<event>`` trace records, the
  ``ServiceMetrics`` counters and the job decision histories count the
  same decisions.
* **Linearity** — the recorder adds no ``Job.terminal`` evaluations to
  a run: it learns about terminal jobs from their terminal events.
"""

import hashlib
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import repro.serve.bench as serve_bench
from repro.faults import preset_plan
from repro.obs import ObsRecorder
from repro.serve import Job, SccService, ServeBenchConfig, run_serve_bench
from repro.serve.metrics import EVENT_TABLE
from repro.trace import Trace, Tracer

GOLDEN = Path(__file__).with_name("golden_serve_digests.json")

#: the golden runs: the CLI's serve-bench defaults (60 jobs, seed 0),
#: plus a longer crash run whose budget and deadline exercise the
#: rejection, dead-letter and breaker re-open paths
SCENARIOS = {
    "zipf-clean": {},
    "zipf-clean-nocache": {"cache_enabled": False, "coalesce_enabled": False},
    "serve-crash": {"plan": ("serve-crash", 0)},
    "serve-delay": {"plan": ("serve-delay", 0)},
    "serve-crash-budget": {
        "plan": ("serve-crash", 2), "seed": 2, "num_jobs": 200,
        "tenant0_budget_s": 2e-4, "deadline_factor": 3.0,
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=str)


def scenario_digests(name: str) -> "dict[str, str]":
    kwargs = dict(SCENARIOS[name])
    if "plan" in kwargs:
        kwargs["plan"] = preset_plan(*kwargs["plan"])
    obs = ObsRecorder()
    run_serve_bench(ServeBenchConfig(scenario=name, **kwargs), obs=obs)
    trace = obs.to_trace(Trace(meta={"scenario": name}))
    return {
        "report": _sha(_canonical(obs.report.to_dict())),
        "summary": _sha(_canonical(obs.summary())),
        "trace_jsonl": _sha(trace.to_jsonl_str()),
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_digests(name):
    golden = json.loads(GOLDEN.read_text())
    assert scenario_digests(name) == golden[name]


def run_with_service(monkeypatch, cfg, **service_kwargs):
    """``run_serve_bench(cfg)``, returning the :class:`SccService` it ran."""
    services = []

    def make(**kwargs):
        services.append(SccService(**{**kwargs, **service_kwargs}))
        return services[-1]

    monkeypatch.setattr(serve_bench, "SccService", make)
    run_serve_bench(cfg)
    return services[0]


def test_every_view_counts_the_same_decisions(monkeypatch):
    """Trace records, counters and job histories agree, event by event."""
    # serve-crash plus delays, a budget, deadlines and a small cache:
    # every event in the table fires at least once
    cfg = ServeBenchConfig(
        plan=replace(preset_plan("serve-crash", 1), message_delay_rate=0.2),
        num_jobs=200, tenant0_budget_s=2e-4, deadline_factor=4.0,
        cache_bytes=5000, seed=1,
    )
    tracer = Tracer()
    svc = run_with_service(monkeypatch, cfg, tracer=tracer)
    assert svc.cache is not None and svc.coalesce_enabled
    assert {ev.event for ev in svc.events} == {row.event for row in EVENT_TABLE}

    # the serve:* trace stream is the event log, record for record
    records = [e for e in tracer.finish().events if e.name.startswith("serve:")]
    assert [r.name for r in records] == [f"serve:{ev.event}" for ev in svc.events]
    for rec, ev in zip(records, svc.events):
        job_attr = {} if ev.job is None else {"job": ev.job.id}
        assert rec.attrs == {**job_attr, **ev.detail}
        assert rec.value == 1

    traced = Counter(r.name.removeprefix("serve:") for r in records)
    history = Counter(d["decision"] for job in svc.jobs for d in job.decisions)
    # Job.finish appends one more record named after the terminal state,
    # which for shed and dead-letter jobs is the event's own name
    history.subtract(str(job.state) for job in svc.jobs)
    about_jobs = {ev.event for ev in svc.events if ev.job is not None}
    for row in EVENT_TABLE:
        events = [ev for ev in svc.events if ev.event == row.event]
        expected = traced[row.event] if row.event in about_jobs else 0
        assert history[row.event] == expected, row.event
        if row.counter is None:
            continue
        counted = [
            ev for ev in events
            if row.reason in (None, ev.detail.get("reason"))
        ]
        assert svc.metrics[row.counter] == sum(ev.n for ev in counted), row
        if all(ev.n == 1 for ev in events) and row.reason is None:
            assert svc.metrics[row.counter] == traced[row.event], row


@pytest.mark.parametrize("num_jobs", [600, 3000])
def test_recorder_makes_no_terminal_checks(monkeypatch, num_jobs):
    """An attached recorder adds no ``Job.terminal`` evaluations."""
    calls = Counter()
    terminal = Job.terminal

    def counting(job):
        calls["terminal"] += 1
        return terminal.fget(job)

    monkeypatch.setattr(Job, "terminal", property(counting))
    cfg = ServeBenchConfig(num_jobs=num_jobs)
    checks = []
    for observer in (None, ObsRecorder()):
        calls.clear()
        svc = run_with_service(monkeypatch, cfg, observer=observer)
        assert svc.observer is observer
        checks.append(calls["terminal"])
    assert checks[1] == checks[0]


def test_every_event_is_documented():
    """docs/observability.md names every ``serve:<event>`` record."""
    doc = Path(__file__).parents[1] / "docs" / "observability.md"
    text = doc.read_text()
    missing = [r.event for r in EVENT_TABLE if f"serve:{r.event}" not in text]
    assert not missing


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    print(json.dumps({n: scenario_digests(n) for n in sorted(SCENARIOS)},
                     indent=2, sort_keys=True))
