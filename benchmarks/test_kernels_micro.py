"""Microbenchmarks of the building-block kernels (Python wall time).

Not a paper table — these track the implementation's own hot paths so
regressions in the NumPy formulations (reduceat segment-max, worklist
compaction, CSR construction, Tarjan) are visible in CI.
"""

import numpy as np
import pytest

from repro.baselines import tarjan_scc
from repro.core import ALL_ON, DoubleBufferWorklist, EdgeGrouping, Signatures, phase3_filter
from repro.device import A100, VirtualDevice
from repro.graph import CSRGraph, rmat_graph
from repro.mesh import beam_hex, build_sweep_graph, ordinates_3d


@pytest.fixture(scope="module")
def medium_graph():
    return rmat_graph(14, 8, seed=7)


def test_csr_construction(benchmark, medium_graph):
    src, dst = medium_graph.edges()
    benchmark(lambda: CSRGraph.from_edges(src, dst, medium_graph.num_vertices))


def test_transpose(benchmark, medium_graph):
    benchmark(lambda: medium_graph.reverse_copy())


def test_edge_grouping_build(benchmark, medium_graph):
    src, dst = medium_graph.edges()
    benchmark(lambda: EdgeGrouping.build(src, dst))


def test_relax_round(benchmark, medium_graph):
    src, dst = medium_graph.edges()
    grouping = EdgeGrouping.build(src, dst)
    sigs = Signatures.identity(medium_graph.num_vertices)

    def round_():
        grouping.relax_masked(sigs, None, medium_graph.num_vertices, compress=True)

    benchmark(round_)


def test_phase3_compaction(benchmark, medium_graph):
    src, dst = medium_graph.edges()
    sigs = Signatures.identity(medium_graph.num_vertices)

    def run():
        wl = DoubleBufferWorklist(src.copy(), dst.copy())
        phase3_filter(wl, sigs, VirtualDevice(A100), ALL_ON)

    benchmark(run)


def test_tarjan_oracle(benchmark, medium_graph):
    benchmark(lambda: tarjan_scc(medium_graph))


def test_sweep_graph_construction(benchmark):
    mesh = beam_hex(4)
    omega = ordinates_3d(1)[0]
    benchmark(lambda: build_sweep_graph(mesh, omega))
