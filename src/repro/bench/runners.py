"""Unified algorithm runner for the benchmark harness.

One entry point, :func:`run_algorithm`, runs any of the SCC codes on any
virtual device, optionally wall-clock timing it with the paper's
median-of-9 protocol and verifying the labels against Tarjan.  The
returned :class:`RunResult` carries both the *model* runtime (virtual
device cost estimate — the number the paper-style tables use) and the
Python wall time (reported alongside for transparency).

Every algorithm returns an :class:`~repro.results.AlgoResult`, so the
dispatch here is a flat registry instead of the old per-algorithm
unpacking if-chain; pass ``tracer=`` to record the run's phase spans
(attached to the result as ``RunResult.trace``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ..analysis.verify import verify_labels
from ..core.eclscc import ecl_scc
from ..core.minmax import minmax_scc
from ..core.options import ALL_ON, EclOptions
from ..baselines import (
    coloring_scc,
    fb_scc,
    fbtrim_scc,
    gpu_scc,
    hong_scc,
    ispan_scc,
    kosaraju_scc,
    multistep_scc,
    tarjan_scc,
)
from ..device.executor import VirtualDevice
from ..device.spec import DeviceSpec
from ..engine import ArrayBackend
from ..errors import AlgorithmError
from ..faults.plan import FaultPlan
from ..graph.csr import CSRGraph
from ..profile.ledger import attach_ledger
from ..results import AlgoResult
from ..trace import NULL_TRACER, Trace, Tracer, ensure_tracer
from .timing import TimedRun, median_time

__all__ = ["RunResult", "run_algorithm", "ALGORITHM_NAMES"]


def _run_oracle(fn: Callable, graph: CSRGraph, spec: DeviceSpec, tracer) -> AlgoResult:
    """Serial oracle run: attach a device charged with all-serial work."""
    dev = VirtualDevice(spec)
    res = fn(graph, tracer=tracer)
    tr = ensure_tracer(tracer)
    attach_ledger(dev, tr)
    # serial oracle: all work on the critical path
    with tr.span("serial-oracle"):
        dev.serial(4 * (graph.num_vertices + graph.num_edges))
    res.device = dev
    return res


#: name -> callable(graph, spec, options, tracer, backend) -> AlgoResult
_DISPATCH: "dict[str, Callable[..., AlgoResult]]" = {
    "ecl-scc": lambda g, spec, opts, tr, be=None: ecl_scc(
        g, options=opts, device=spec, backend=be, tracer=tr
    ),
    "ecl-scc-minmax": lambda g, spec, opts, tr, be=None: minmax_scc(
        g, device=spec, backend=be, tracer=tr
    ),
    "gpu-scc": lambda g, spec, opts, tr, be=None: gpu_scc(
        g, device=spec, backend=be, tracer=tr
    ),
    "ispan": lambda g, spec, opts, tr, be=None: ispan_scc(
        g, device=spec, backend=be, tracer=tr
    ),
    "hong": lambda g, spec, opts, tr, be=None: hong_scc(
        g, device=spec, backend=be, tracer=tr
    ),
    "multistep": lambda g, spec, opts, tr, be=None: multistep_scc(
        g, device=spec, backend=be, tracer=tr
    ),
    "coloring": lambda g, spec, opts, tr, be=None: coloring_scc(
        g, device=spec, backend=be, tracer=tr
    ),
    "fb": lambda g, spec, opts, tr, be=None: fb_scc(
        g, device=spec, backend=be, tracer=tr
    ),
    "fb-trim": lambda g, spec, opts, tr, be=None: fbtrim_scc(
        g, device=spec, backend=be, tracer=tr
    ),
    "tarjan": lambda g, spec, opts, tr, be=None: _run_oracle(tarjan_scc, g, spec, tr),
    "kosaraju": lambda g, spec, opts, tr, be=None: _run_oracle(
        kosaraju_scc, g, spec, tr
    ),
}

ALGORITHM_NAMES = (
    "ecl-scc",
    "ecl-scc-minmax",
    "gpu-scc",
    "ispan",
    "hong",
    "multistep",
    "coloring",
    "fb",
    "fb-trim",
    "tarjan",
    "kosaraju",
)

#: signature arrays resident per vertex (memory term of the cost model)
_SIGNATURE_ARRAYS = {"ecl-scc": 2, "ecl-scc-minmax": 4}


@dataclass
class RunResult:
    """Outcome of one (algorithm, device, graph) benchmark cell."""

    algorithm: str
    device: str
    graph_name: str
    num_vertices: int
    num_edges: int
    num_sccs: int
    model_seconds: float
    wall: Optional[TimedRun]
    counters: "dict[str, int]"
    labels: np.ndarray
    trace: Optional[Trace] = None
    status: str = "clean"
    fault_report: Optional[object] = None
    #: the adaptive scheduler's per-round decisions (``ecl-scc`` with
    #: ``engine="adaptive"`` only; None otherwise)
    decision_log: Optional[list] = None

    @property
    def model_throughput_mvs(self) -> float:
        return self.num_vertices / self.model_seconds / 1e6

    @property
    def wall_throughput_mvs(self) -> float:
        if self.wall is None:
            return float("nan")
        return self.num_vertices / self.wall.median_s / 1e6


def _execute(
    name: str,
    graph: CSRGraph,
    spec: DeviceSpec,
    options: "EclOptions | None",
    tracer: "Tracer | None" = None,
    backend: "ArrayBackend | str | None" = None,
    faults: "FaultPlan | None" = None,
) -> AlgoResult:
    """One run of *name* on *graph*; returns the algorithm's AlgoResult."""
    try:
        fn = _DISPATCH[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; known: {ALGORITHM_NAMES}"
        ) from None
    if faults is not None:
        # only ECL-SCC's monotone re-sweeping loops give injected faults
        # sound recovery semantics; the one-shot BFS baselines would
        # silently return wrong labels under the same perturbations
        if name != "ecl-scc":
            raise AlgorithmError(
                f"fault injection is only supported for 'ecl-scc', not"
                f" {name!r}"
            )
        return ecl_scc(
            graph, options=options, device=spec, backend=backend,
            tracer=tracer, faults=faults,
        )
    return fn(graph, spec, options, tracer, backend)


def run_algorithm(
    graph: CSRGraph,
    algorithm: str,
    device: DeviceSpec,
    *,
    options: "EclOptions | None" = None,
    backend: "ArrayBackend | str | None" = None,
    engine: "str | None" = None,
    time_wall: bool = False,
    repeats: int = 9,
    verify: bool = False,
    tracer: "Tracer | None" = None,
    faults: "FaultPlan | None" = None,
) -> RunResult:
    """Run *algorithm* on *graph* against the *device* model.

    ``backend`` selects the registered :class:`~repro.engine.ArrayBackend`
    the run's engine primitives account against (default: the dense
    backend, which reproduces the historical launch costs; the oracles
    ignore it).  ``engine`` selects ECL-SCC's Phase-2 engine by name —
    any entry of :data:`~repro.core.options.ENGINE_NAMES`, set as the
    ``engine`` field of ``options`` (default ``ALL_ON``); only ``ecl-scc``
    has multiple Phase-2 engines, so passing it for any other algorithm
    raises :class:`~repro.errors.AlgorithmError`.  The ``adaptive``
    engine's per-round policy decisions are carried on the result as
    ``RunResult.decision_log``.
    ``time_wall`` additionally measures Python wall time
    with the median-of-N protocol (each repeat uses a fresh device so
    counters stay single-run; repeats run untraced so the caller's
    tracer sees exactly one run).  ``verify`` checks labels against
    Tarjan (paper §4 methodology) — skipped for the oracles themselves.
    ``tracer`` records the run's phase spans; the trace is carried on
    the result.  ``faults`` injects a :class:`~repro.faults.FaultPlan`
    (``ecl-scc`` only — the baselines have no sound recovery
    semantics); the outcome lands in ``RunResult.status`` /
    ``RunResult.fault_report``.
    """
    if engine is not None:
        if algorithm != "ecl-scc":
            raise AlgorithmError(
                f"engine selection is only supported for 'ecl-scc', not"
                f" {algorithm!r}"
            )
        options = replace(options or ALL_ON, engine=engine)
    res = _execute(algorithm, graph, device, options, tracer, backend, faults)
    sigs = _SIGNATURE_ARRAYS.get(algorithm, 1)
    estimate = res.device.estimate(
        graph.num_vertices, graph.num_edges, signatures=sigs
    )
    wall = None
    if time_wall:
        wall = median_time(
            lambda: _execute(
                algorithm, graph, device, options, NULL_TRACER, backend, faults
            ),
            repeats=repeats,
        )
    if verify and algorithm not in ("tarjan", "kosaraju"):
        verify_labels(graph, res.labels)
    return RunResult(
        algorithm=algorithm,
        device=device.name,
        graph_name=graph.name or "graph",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        num_sccs=res.num_sccs,
        model_seconds=estimate.total,
        wall=wall,
        counters=res.device.counters.snapshot(),
        labels=res.labels,
        trace=res.trace,
        status=res.status,
        fault_report=res.fault_report,
        decision_log=getattr(res, "decision_log", None),
    )
