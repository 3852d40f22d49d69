"""One pass of a workload: set-up, then one timed call per layer.

Every timer here sits outside the program, around a public entry
point: ``repro.solve``, ``repro.DynamicGraph`` (constructor, ``apply``,
``query``), ``repro.serve.SccService`` (``register_graph``, ``submit``,
``run``) and ``repro.obs.ObsRecorder.on_event``.  Each call also opens
a span on the benchmark's own tracer ``tr`` -- ``repro.NULL_TRACER`` in
untraced runs, so both modes run the same code.  Correctness checks
run outside the timed regions; a mismatch is recorded on the
:class:`Tally` as a failed operation.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro import DynamicGraph, solve
from repro.obs import ObsRecorder
from repro.serve import SccService
from repro.serve.bench import build_workload, verify_report

from inputs import BATCH_EVENTS, REPLAYS, Inputs, Size

#: (metric suffix, algorithm, engine) of every timed cold solve
SOLVERS = (
    ("async", "ecl-scc", "async"),
    ("frontier", "ecl-scc", "frontier"),
    ("adaptive", "ecl-scc", "adaptive"),
    ("fb", "fb", None),
)
#: cap on the rounds of one solver over the static graphs in one pass
STATIC_MAX_ROUNDS = 25
#: offered loads of the serve runs, as multiples of calibrated capacity
LOADS = (("load080", 0.8), ("load150", 1.5))
#: the replay checks the handle against a cold solve every this many batches
CHECK_EVERY = 6
#: offered load of the calibration run, in the load generator's nominal
#: units (workers / hot-graph cold-solve time): light, so jobs rarely queue
CALIBRATION_UTILIZATION = 0.5

clock = time.perf_counter


@dataclass
class Tally:
    """Operations attempted and those whose output failed its check."""

    attempted: int = 0
    failures: "list[str]" = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Oracle:
    """Tarjan labels, computed once per graph outside every timed region."""

    def __init__(self) -> None:
        self._labels: "dict[Any, np.ndarray]" = {}

    def labels(self, key: Any, graph) -> np.ndarray:
        if key not in self._labels:
            self._labels[key] = np.asarray(solve(graph, "tarjan").labels)
        return self._labels[key]


class ClockedObserver:
    """Wraps an observer and times each ``on_event`` call (host wall)."""

    def __init__(self, inner: Any, tr: Any, op: str) -> None:
        self.inner = inner
        self.tr = tr
        self.op = op
        self.call_s: "list[float]" = []

    def on_event(self, service: Any) -> None:
        with self.tr.span("obs.on_event", op=self.op):
            t0 = clock()
            self.inner.on_event(service)
            self.call_s.append(clock() - t0)


def _resolve_deletions(spec, initial_edges):
    """Materialize an ``("initial", start, stop)`` deletion slice.

    The serve bench keeps the same helper private; the benchmark keeps
    its own copy so that it depends on public names only.
    """
    if spec.delete_edges is None or spec.delete_edges[0] != "initial":
        return spec
    _, start, stop = spec.delete_edges
    src, dst = initial_edges[spec.graph]
    return replace(
        spec, delete_edges=(src[start:stop].tolist(), dst[start:stop].tolist())
    )


def _registered(inputs: Inputs, observer: Any, utilization: float, jobs: int,
                mean_s: float, seed: int) -> SccService:
    """A service with the world registered and a seeded job stream submitted."""
    cfg = replace(inputs.serve, utilization=utilization, num_jobs=jobs, seed=seed)
    svc = SccService(
        workers=cfg.workers,
        queue_capacity=cfg.queue_capacity,
        shed_policy=cfg.shed_policy,
        cache_enabled=cfg.cache_enabled,
        cache_bytes=cfg.cache_bytes,
        coalesce_enabled=cfg.coalesce_enabled,
        merge_updates=cfg.merge_updates,
        observer=observer,
        seed=seed,
    )
    for name, g in inputs.world.items():
        svc.register_graph(name, g)
    initial = {name: g.edges() for name, g in inputs.world.items()}
    for at, spec in build_workload(cfg, mean_service_s=mean_s):
        svc.submit(_resolve_deletions(spec, initial), at=at)
    return svc


def calibrate_capacity(inputs: Inputs, jobs: int, seed: int) -> "tuple[float, float]":
    """``(mean_service_s, capacity_jobs_per_s)`` of one job stream.

    ``mean_service_s`` is the hot graph's cold-solve model time (the
    load generator's unit).  Capacity is measured, not assumed: DONE
    jobs per second of worker busy time when the stream is offered
    lightly, so cache hits and coalescing count towards it.  The loads
    then offer the same job sequence at multiples of that capacity, so
    the job mix a seed happens to draw does not move the overload.
    """
    mean_s = float(solve(inputs.world["g0"]).model_seconds)
    svc = _registered(inputs, None, CALIBRATION_UTILIZATION, jobs, mean_s, seed)
    report = svc.run()
    busy_s = svc.pool.utilization(report.makespan_s) * report.makespan_s
    return mean_s, report.by_state().get("done", 0) / busy_s


@dataclass
class Setup:
    """What one pass's set-up built, and how long it took."""

    inputs: Inputs
    #: which edge log and which job streams this pass uses
    replay: int
    dynamic: DynamicGraph
    services: "dict[str, tuple[SccService, ClockedObserver]]"
    #: ``clock()`` at the start and end of the set-up
    t0: float
    t1: float
    init_s: float
    capacity_jps: float


def setup(build, tr, size: Size, replay: int) -> Setup:
    """Generate inputs, build the dynamic handle, calibrate and register.

    Pass *replay* gets the dynamic handle for edge log ``replay`` and
    the job stream seeded ``REPLAYS * seed + replay``, offered at each load.
    """
    gc.collect()
    t0 = clock()
    with tr.span("setup", op="setup"):
        with tr.span("setup.inputs", op="setup"):
            inputs = build()
        with tr.span("setup.dynamic-init", op="setup"):
            t_init = clock()
            dynamic = DynamicGraph(inputs.logs[replay].base)
            init_s = clock() - t_init
        stream = REPLAYS * inputs.seed + replay
        with tr.span("setup.serve-calibrate", op="setup"):
            mean_s, capacity = calibrate_capacity(inputs, size.serve_jobs, stream)
        services = {}
        for load, factor in LOADS:
            with tr.span("setup.serve-register", op=f"serve:{load}", load=load):
                observer = ClockedObserver(ObsRecorder(), tr, f"serve:{load}")
                svc = _registered(
                    inputs, observer, factor * capacity * mean_s / inputs.serve.workers,
                    size.serve_jobs, mean_s, stream,
                )
                services[load] = (svc, observer)
    return Setup(inputs, replay, dynamic, services, t0, clock(), init_s, capacity)


# ----------------------------------------------------------------------
# static solves (repro.core / repro.engine / repro.baselines)
# ----------------------------------------------------------------------

def static_solves(inputs: Inputs, oracle: Oracle, tally: Tally, tr, *,
                  solvers=SOLVERS, tracer_factory=None, min_s: float = 0.0):
    """Cold-solve every static graph with every solver.

    Each solver's round over the graphs repeats until *min_s* of wall
    time is spent (at most :data:`STATIC_MAX_ROUNDS` times), so cheap
    solves give more samples.  Returns ``{suffix: {"rows": [{graph,
    wall_s, t0, t1, result}, ...] of the first round, "walls": [seconds
    per round], "spans": [[(t0, t1) per solve] per round]}}``.  With
    *tracer_factory* each solve also gets a fresh program tracer
    (``repro.Tracer``) so its phase spans and counters can be read.
    """
    out: "dict[str, dict]" = {}
    for suffix, algorithm, engine in solvers:
        if tracer_factory is not None:
            span = "trace.solve"
        else:
            span = "baselines.solve" if algorithm == "fb" else "engine.solve"
        walls: "list[float]" = []
        #: (start, end) of each solve, by round
        spans: "list[list[tuple[float, float]]]" = []
        first: "list[dict]" = []
        gc.collect()
        while not walls or (sum(walls) < min_s and len(walls) < STATIC_MAX_ROUNDS):
            rows = []
            for name, g in inputs.static.items():
                tracer = tracer_factory() if tracer_factory is not None else None
                op = f"solve:{suffix}:{name}"
                with tr.span(span, op=op, engine=suffix, graph=name):
                    t0 = clock()
                    res = solve(g, algorithm, engine=engine, tracer=tracer)
                    t1 = clock()
                tally.check(
                    np.array_equal(np.asarray(res.labels),
                                   oracle.labels(("static", name), g)),
                    f"{op}: labels differ from Tarjan",
                )
                rows.append({"graph": name, "wall_s": t1 - t0, "t0": t0, "t1": t1,
                             "result": res})
            walls.append(sum(r["wall_s"] for r in rows))
            spans.append([(r["t0"], r["t1"]) for r in rows])
            first = first or rows
        out[suffix] = {"rows": first, "walls": walls, "spans": spans}
    return out


# ----------------------------------------------------------------------
# dynamic replay (repro.dynamic)
# ----------------------------------------------------------------------

def _net_effect(n: int, op, src, dst):
    """Net ``(deletions, insertions)`` of one batch of log events.

    Log deletes always target resident edges, so only the per-pair
    count delta matters; a pair inserted and deleted in one batch
    cancels.  ``repro.dynamic.replay`` keeps the same reduction private;
    this copy keeps the benchmark on public names only.
    """
    keys = src.astype(np.int64) * n + dst
    uniq, inverse = np.unique(keys, return_inverse=True)
    net = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(net, inverse, op.astype(np.int64))
    dels = np.repeat(uniq[net < 0], -net[net < 0])
    ins = np.repeat(uniq[net > 0], net[net > 0])
    return (
        (dels // n, dels % n) if dels.size else None,
        (ins // n, ins % n) if ins.size else None,
    )


def replay(st: Setup, oracle: Oracle, tally: Tally, tr) -> "list[dict]":
    """Apply the pass's edge log batch by batch, querying after each."""
    dg, which = st.dynamic, st.replay
    log = st.inputs.logs[which]
    n = log.base.num_vertices
    batches = list(log.batches(BATCH_EVENTS))
    rows = []
    for index, (lo, hi) in enumerate(batches):
        deletions, insertions = _net_effect(
            n, log.op[lo:hi], log.src[lo:hi], log.dst[lo:hi]
        )
        model_before = dg.model_seconds()
        op = f"batch:{which}:{index}"
        with tr.span("batch", op=op):
            with tr.span("dynamic.apply", op=op):
                t0 = clock()
                reports = dg.apply(deletions=deletions, insertions=insertions)
                t1 = clock()
            with tr.span("dynamic.query", op=op):
                labels = dg.query().labels
                t2 = clock()
        rows.append({
            "events": hi - lo,
            "apply_s": t1 - t0,
            "query_s": t2 - t1,
            "t0": t0,
            "t2": t2,
            "model_s": dg.model_seconds() - model_before,
            "reports": reports,
        })
        last = index == len(batches) - 1
        if last or (index + 1) % CHECK_EVERY == 0:
            tally.check(
                np.array_equal(
                    np.asarray(labels),
                    oracle.labels(("dynamic", which, index), dg.graph()),
                ),
                f"{op}: dynamic labels differ from a cold solve of the snapshot",
            )
    return rows


# ----------------------------------------------------------------------
# serving (repro.serve, observed by repro.obs)
# ----------------------------------------------------------------------

def serve(st: Setup, tally: Tally, tr) -> "dict[str, dict]":
    """Run each offered load once and check it with ``verify_report``."""
    out = {}
    for load, _ in LOADS:
        svc, observer = st.services[load]
        gc.collect()
        with tr.span("serve.run", op=f"serve:{load}", load=load):
            t0 = clock()
            report = svc.run()
            t1 = clock()
        observer.inner.finalize(report)
        outcome = verify_report(report, st.inputs.world)
        tally.attempted += len(report.jobs)
        tally.failures.extend(f"serve:{load}: {msg}" for msg in outcome["failures"])
        out[load] = {
            "report": report,
            "service": svc,
            "wall_s": t1 - t0,
            "t0": t0,
            "t1": t1,
            "observer": observer,
        }
    return out
