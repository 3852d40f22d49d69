"""Seeded inputs of the three benchmark workloads.

Every workload drives the same three user-facing surfaces -- cold
static solves, a dynamic edge-log replay, and an open-loop serve run --
on its own input family:

* ``powerlaw-rw``: the flickr stand-in at 1/32 scale (25,652 V /
  307,993 E, one giant SCC); serve world of four 200-V flickr
  stand-ins at 1/4096 scale.
* ``mesh-sweep``: the Table-1 ``toroid-hex`` group at the default small
  scale, ordinates 0 and 1 (6,000 V / ~16.9k E each, a deep DAG); serve
  world of four 384-V ordinates of the smallest toroid-hex mesh.
* ``serve-zipf``: the ``ServeBenchConfig`` Zipf world (4 x 160-V gnm
  graphs); the static solves and the replay run on its graphs.

Seed 0 keeps every graph exactly as the committed gates build it, so
its model seconds can be cross-checked against ``BENCH_pr6.json``.  Any
other seed adds copies of a few seeded edges to each graph, which keeps
the SCCs and regimes while varying the input.  The seed also drives the
edge logs and the job streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import CSRGraph
from repro.dynamic import EdgeLog, generate_edge_log
from repro.graph.generators import random_gnm
from repro.graph.suite import build_powerlaw
from repro.mesh.suite import small_mesh_suite
from repro.serve.bench import ServeBenchConfig

WORKLOADS = ("powerlaw-rw", "mesh-sweep", "serve-zipf")

#: events per dynamic batch ("small batches" of the replay)
BATCH_EVENTS = 12
#: seeded parallel-edge copies added to each graph when seed != 0
PERTURB_COPIES = 64
#: distinct seeded edge logs and serve job streams per run; pass k uses
#: the (k % REPLAYS)-th of each
REPLAYS = 3


@dataclass(frozen=True)
class Size:
    """How much work one pass does (full runs vs the smoke test)."""

    flickr_scale: float
    mesh_scale: "float | None"
    #: replay batches per edge log, by workload
    batches: "dict[str, int]"
    #: jobs in one serve stream (calibration and each load)
    serve_jobs: int


#: The serve quantiles pool the REPLAYS streams of a load: p99 needs
#: >= 1000 DONE jobs (ten beyond it), and at 1.5x of capacity a tenth to
#: a fifth of the jobs are shed.  flickr/32 batches cost ~70 ms (some
#: over 1 s), the others ~20 ms, so they get more batches.
FULL = Size(
    flickr_scale=1 / 32, mesh_scale=None,
    batches={"powerlaw-rw": 12, "mesh-sweep": 48, "serve-zipf": 24},
    serve_jobs=1400,
)
TINY = Size(
    flickr_scale=1 / 2048, mesh_scale=0.02,
    batches={workload: 3 for workload in WORKLOADS},
    serve_jobs=40,
)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class Inputs:
    """Everything one pass of a workload feeds the program."""

    seed: int
    #: graphs cold-solved by every engine, by name
    static: "dict[str, CSRGraph]"
    #: seeded edge logs over one base graph, replayed in turn
    logs: "tuple[EdgeLog, ...]"
    #: named graphs registered with the service
    world: "dict[str, CSRGraph]"
    #: serve scenario (utilization and job count are set per load)
    serve: ServeBenchConfig


def _perturb(graph: CSRGraph, seed: int) -> CSRGraph:
    """Add copies of a few seeded edges (seed 0: the graph unchanged).

    A parallel edge changes no reachability, so the SCCs and the
    regime stay; the copies change the edge counts the cost model and
    the host see.  Deleting edges instead split flickr's giant SCC on
    some seeds and moved its model time by up to 30%.
    """
    if seed == 0:
        return graph
    src, dst = graph.edges()
    pick = np.random.default_rng(seed).integers(0, src.size, size=PERTURB_COPIES)
    return CSRGraph.from_edges(
        np.concatenate([src, src[pick]]), np.concatenate([dst, dst[pick]]),
        graph.num_vertices, name=graph.name,
    )


def _mesh_graphs(scale: "float | None", ordinates: int) -> "list[CSRGraph]":
    (group,) = small_mesh_suite(
        names=["toroid-hex"], num_ordinates=ordinates, scale=scale
    )
    return list(group.graphs)


def build_inputs(workload: str, seed: int, size: Size = FULL) -> Inputs:
    """Generate *workload*'s inputs from *seed* (same seed, same inputs)."""
    if workload == "powerlaw-rw":
        flickr, _ = build_powerlaw("flickr", scale=size.flickr_scale)
        static = {"flickr": _perturb(flickr, seed)}
        world = {
            f"g{i}": _perturb(build_powerlaw("flickr", scale=1 / 4096, seed=i)[0], seed)
            for i in range(4)
        }
    elif workload == "mesh-sweep":
        static = {
            f"toroid-hex:o{i}": _perturb(g, seed)
            for i, g in enumerate(_mesh_graphs(size.mesh_scale, 2))
        }
        world = {
            f"g{i}": _perturb(g, seed)
            for i, g in enumerate(_mesh_graphs(0.02, 4))
        }
    elif workload == "serve-zipf":
        cfg = ServeBenchConfig()
        world = {
            f"g{i}": _perturb(
                random_gnm(cfg.graph_vertices, cfg.graph_edges, seed=cfg.seed + i), seed
            )
            for i in range(cfg.num_graphs)
        }
        static = dict(world)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    base = next(iter(static.values()))
    logs = tuple(
        generate_edge_log(
            base, events=size.batches[workload] * BATCH_EVENTS, seed=REPLAYS * seed + k
        )
        for k in range(REPLAYS)
    )
    serve = replace(
        ServeBenchConfig(),
        num_graphs=len(world),
        graph_vertices=next(iter(world.values())).num_vertices,
        graph_edges=min(g.num_edges for g in world.values()),
        seed=seed,
    )
    return Inputs(seed, static, logs, world, serve)
