"""The traced run: one pass with spans, giving the per-layer metrics.

The benchmark records its own span around each layer call on a
``repro.Tracer`` (names below), and the static solves run a second
time with the program's own ``repro.Tracer`` attached so the
``phase1-init`` / ``phase2-propagate`` / ``phase3-filter`` spans and
the ``relaxation-round`` / ``scheduler:pick`` counters can be read.
``fb`` is never traced: its traces hold ~25k spans and
``profile_run`` is quadratic in spans.

Both traces are kept in memory and written at the end:
``bench_spans.jsonl`` (the benchmark's spans, one ``op`` attribute per
solve, batch or serve load), ``program_<engine>_<graph>.jsonl`` and
``self_times.json``.

Benchmark span names and the layer each one times:

==========================  ==========================================
``setup.*``                 set-up (inputs, dynamic init, serve calibration, registration)
``engine.solve``            ``repro.solve`` with an ECL-SCC engine (repro.core/engine)
``baselines.solve``         ``repro.solve(g, "fb")`` (repro.baselines)
``dynamic.apply/query``     ``DynamicGraph.apply`` / ``query`` (repro.dynamic)
``serve.run``               ``SccService.run`` (repro.serve; self time excludes obs)
``obs.on_event``            ``ObsRecorder.on_event`` (repro.obs)
``trace.solve``             ``repro.solve`` with a program tracer (repro.trace)
``profile.attribute``       ``repro.profile.profile_run`` (repro.profile)
==========================  ==========================================
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from repro import Tracer
from repro.profile import profile_run

from inputs import Size, build_inputs
from passes import nearest_rank
from layers import (
    LOADS,
    SOLVERS,
    Oracle,
    Tally,
    clock,
    replay,
    serve,
    setup,
    static_solves,
)

ENGINES = tuple(suffix for suffix, algorithm, _ in SOLVERS if algorithm == "ecl-scc")
PHASES = (("phase1", "phase1-init"), ("phase2", "phase2-propagate"),
          ("phase3", "phase3-filter"))


def self_times(trace) -> "dict[str, float]":
    """Seconds per span name: each span's duration minus what its children cover."""
    children = defaultdict(list)
    for span in trace.spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.t_start, span.t_end))
    out: "dict[str, float]" = defaultdict(float)
    for span in trace.spans:
        covered = 0.0
        end = -float("inf")
        for lo, hi in sorted(children[span.span_id]):
            lo = max(lo, end)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[span.name] += span.duration - covered
    return dict(out)


def _quarter_means(values: "list[float]") -> "tuple[float, float]":
    k = max(1, len(values) // 4)
    return statistics.fmean(values[:k]), statistics.fmean(values[-k:])


def _engine_metrics(m: dict, untraced: dict, traced: dict, profile_s: dict) -> None:
    for e in ENGINES:
        phase_s = defaultdict(float)
        rounds = outer = spans = launches = moved = 0
        for row in traced[e]["rows"]:
            trace = row["result"].trace
            st = self_times(trace)
            for key, name in PHASES:
                phase_s[key] += st.get(name, 0.0)
            rounds += trace.sum_counter("relaxation-round")
            outer += trace.count_spans("outer-iteration")
            spans += len(trace.spans)
            launches += row["result"].counters.get("kernel_launches", 0)
            moved += row["result"].counters.get("bytes_moved", 0)
        for key, _ in PHASES:
            m[f"engine.{key}_ms.{e}"] = 1e3 * phase_s[key]
        m[f"engine.rounds.{e}"] = rounds
        m[f"engine.outer_iters.{e}"] = outer
        m[f"engine.round_us.{e}"] = 1e6 * phase_s["phase2"] / max(rounds, 1)
        m[f"engine.launches.{e}"] = launches
        m[f"engine.bytes_moved.{e}"] = moved
        wall = untraced[e]["walls"][0]
        traced_wall = traced[e]["walls"][0]
        m[f"engine.wall_ms.{e}"] = 1e3 * wall
        m[f"trace.wall_ms.{e}"] = 1e3 * traced_wall
        m[f"trace.overhead.{e}"] = traced_wall / wall
        m[f"trace.spans.{e}"] = spans
        m[f"profile.attribute_ms.{e}"] = 1e3 * profile_s[e]
    m["engine.frontier_over_async"] = (
        m["engine.wall_ms.frontier"] / m["engine.wall_ms.async"]
    )
    picks = [
        ev for row in traced["adaptive"]["rows"] for ev in row["result"].trace.events
        if ev.name == "scheduler:pick"
    ]
    m["engine.scheduler_picks"] = len(picks)
    m["engine.dense_pick_share"] = (
        sum(ev.attrs.get("policy") == "dense" for ev in picks) / max(len(picks), 1)
    )
    fb_wall = untraced["fb"]["walls"][0]
    fb_launches = sum(r["result"].counters.get("kernel_launches", 0)
                      for r in untraced["fb"]["rows"])
    m["baselines.fb_wall_ms"] = 1e3 * fb_wall
    m["baselines.fb_launches"] = fb_launches
    m["baselines.fb_launch_us"] = 1e6 * fb_wall / max(fb_launches, 1)


def _dynamic_metrics(m: dict, init_s: float, batches: "list[dict]") -> None:
    reports = [r for b in batches for r in b["reports"]]
    m["dynamic.init_s"] = init_s
    m["dynamic.batches"] = len(batches)
    m["dynamic.apply_ms.p50"] = 1e3 * statistics.median(b["apply_s"] for b in batches)
    m["dynamic.apply_ms.max"] = 1e3 * max(b["apply_s"] for b in batches)
    m["dynamic.query_ms.p50"] = 1e3 * statistics.median(b["query_s"] for b in batches)
    for field in ("invalidated", "resolve_vertices", "labels_changed"):
        m[f"dynamic.{field}"] = sum(getattr(r, field) for r in reports)
    m["dynamic.resolve_yield"] = (
        m["dynamic.labels_changed"] / max(m["dynamic.resolve_vertices"], 1)
    )


def _serve_metrics(m: dict, runs: dict, capacity_jps: float) -> None:
    m["serve.capacity_jps"] = capacity_jps
    for load, _ in LOADS:
        run = runs[load]
        report, recorder = run["report"], run["observer"].inner
        calls = run["observer"].call_s
        obs_s = sum(calls)
        done = [tl for tl in recorder.timelines if tl.state == "done"]
        queued = sorted(tl.by_phase().get("queued", 0.0) for tl in done)
        execute = sorted(
            tl.by_phase()["execute"] for tl in done if "execute" in tl.by_phase()
        )
        cache = report.cache or {}
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        counters = report.metrics.counters
        m[f"serve.wall_s.{load}"] = run["wall_s"]
        m[f"serve.run_s.{load}"] = run["wall_s"] - obs_s
        m[f"serve.jobs.{load}"] = len(report.jobs)
        m[f"serve.queued_ms.p99.{load}"] = 1e3 * nearest_rank(queued, 0.99)
        m[f"serve.execute_ms.p50.{load}"] = 1e3 * nearest_rank(execute, 0.5)
        m[f"serve.cache_hits.{load}"] = cache.get("hits", 0)
        m[f"serve.cache_lookups.{load}"] = lookups
        m[f"serve.cache_hit_rate.{load}"] = cache.get("hits", 0) / max(lookups, 1)
        m[f"serve.coalesced_reads.{load}"] = counters.get("coalesced_reads", 0)
        m[f"serve.coalesced_updates.{load}"] = counters.get("coalesced_updates", 0)
        m[f"serve.worker_utilization.{load}"] = (
            run["service"].pool.utilization(report.makespan_s)
        )
        m[f"serve.shed.{load}"] = report.by_state().get("shed", 0)
        q1, q4 = _quarter_means(calls)
        m[f"obs.events.{load}"] = len(calls)
        m[f"obs.wall_s.{load}"] = obs_s
        m[f"obs.event_us.{load}"] = 1e6 * obs_s / max(len(calls), 1)
        m[f"obs.event_us_q1.{load}"] = 1e6 * q1
        m[f"obs.event_us_q4.{load}"] = 1e6 * q4
        m[f"obs.share.{load}"] = obs_s / run["wall_s"]
        m[f"obs.cost_growth.{load}"] = q4 / q1


def run_traced(workload: str, seed: int, out_dir: Path, size: Size):
    """Returns ``(metrics, tally, bench_self_times)``; writes the traces."""
    oracle = Oracle()
    tally = Tally()
    bt = Tracer(meta={"workload": workload, "seed": seed})
    with bt.span("pass", op="pass"):
        st = setup(lambda: build_inputs(workload, seed, size), bt, size, 0)
        untraced = static_solves(st.inputs, oracle, tally, bt)
        traced = static_solves(
            st.inputs, oracle, tally, bt,
            solvers=[s for s in SOLVERS if s[0] in ENGINES], tracer_factory=Tracer,
        )
        profile_s = defaultdict(float)
        for e in ENGINES:
            for row in traced[e]["rows"]:
                op = f"solve:{e}:{row['graph']}"
                with bt.span("profile.attribute", op=op):
                    t0 = clock()
                    profile_run(row["result"])
                    profile_s[e] += clock() - t0
        batches = replay(st, oracle, tally, bt)
        runs = serve(st, tally, bt)
    bench_trace = bt.finish()

    metrics: "dict[str, float]" = {}
    _engine_metrics(metrics, untraced, traced, profile_s)
    _dynamic_metrics(metrics, st.init_s, batches)
    _serve_metrics(metrics, runs, st.capacity_jps)

    out_dir.mkdir(parents=True, exist_ok=True)
    bench_trace.to_jsonl(out_dir / "bench_spans.jsonl")
    program = {}
    for e in ENGINES:
        merged = defaultdict(float)
        for row in traced[e]["rows"]:
            stem = row["graph"].replace(":", "-")
            row["result"].trace.to_jsonl(out_dir / f"program_{e}_{stem}.jsonl")
            for name, s in self_times(row["result"].trace).items():
                merged[name] += s
        program[e] = dict(merged)
    bench_self = self_times(bench_trace)
    (out_dir / "self_times.json").write_text(json.dumps(
        {"bench_s": bench_self, "program_s": program}, indent=2, sort_keys=True
    ) + "\n")
    return metrics, tally, bench_self
