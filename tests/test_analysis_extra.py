"""Tests for bow-tie decomposition and parallelism profiles."""

import numpy as np
import pytest

from repro.analysis import (
    bfs_frontier_profile,
    bowtie_decomposition,
    parallelism_summary,
    peel_profile,
)
from repro.baselines import tarjan_scc
from repro.graph import CSRGraph, build_powerlaw, cycle_graph, path_graph, scc_ladder


class TestBowTie:
    def test_canonical_bowtie(self):
        # IN (0) -> CORE {1,2} -> OUT (3); 4 disconnected
        g = CSRGraph.from_edges([0, 1, 2, 2], [1, 2, 1, 3], num_vertices=5)
        bt = bowtie_decomposition(g, tarjan_scc(g).labels)
        assert bt.core.tolist() == [False, True, True, False, False]
        assert bt.in_component.tolist() == [True, False, False, False, False]
        assert bt.out_component.tolist() == [False, False, False, True, False]
        assert bt.other.tolist() == [False, False, False, False, True]

    def test_regions_partition(self):
        g, _ = build_powerlaw("web-Google", scale=1 / 256, seed=0)
        bt = bowtie_decomposition(g, tarjan_scc(g).labels)
        total = (
            bt.core.astype(int) + bt.in_component.astype(int)
            + bt.out_component.astype(int) + bt.other.astype(int)
        )
        assert (total == 1).all()

    def test_fractions_sum_to_one(self):
        g = cycle_graph(6)
        bt = bowtie_decomposition(g, tarjan_scc(g).labels)
        assert sum(bt.fractions().values()) == pytest.approx(1.0)
        assert bt.fractions()["core"] == 1.0

    def test_empty_graph(self):
        g = CSRGraph.empty(0)
        bt = bowtie_decomposition(g, np.empty(0, dtype=np.int64))
        assert bt.core.size == 0


class TestProfiles:
    def test_bfs_profile_path(self):
        g = path_graph(5)
        prof = bfs_frontier_profile(g, 0)
        # each level has exactly one vertex with out-degree 1 (last has 0)
        assert prof.tolist() == [1, 1, 1, 1, 0]

    def test_bfs_profile_star_out(self):
        g = CSRGraph.from_adjacency([[1, 2, 3], [], [], []])
        prof = bfs_frontier_profile(g, 0)
        assert prof.tolist() == [3, 0]

    def test_bfs_profile_unreached_source(self):
        g = CSRGraph.empty(3)
        prof = bfs_frontier_profile(g, 1)
        assert prof.tolist() == [0]

    def test_peel_profile_ladder(self):
        g = scc_ladder(4)
        prof = peel_profile(g, tarjan_scc(g).labels)
        assert prof.tolist() == [2, 2, 2, 2]  # one 2-SCC per level

    def test_peel_profile_single_scc(self):
        g = cycle_graph(9)
        prof = peel_profile(g, tarjan_scc(g).labels)
        assert prof.tolist() == [9]

    def test_summary_fields(self):
        s = parallelism_summary(np.array([10, 20, 30]), saturation=25)
        assert s["steps"] == 3
        assert s["max_width"] == 30
        assert s["saturated_fraction"] == pytest.approx(1 / 3)
        # work-weighted width favours wide steps
        assert s["weighted_parallelism"] > s["mean_width"]

    def test_summary_empty(self):
        s = parallelism_summary(np.zeros(0, dtype=np.int64))
        assert s["steps"] == 0 and s["weighted_parallelism"] == 0.0

    def test_mesh_vs_powerlaw_shape(self):
        """The §1 claim in miniature: mesh profiles are long and thin,
        power-law profiles short and fat."""
        from repro.mesh import sweep_graphs, torch_hex

        _, mesh_g = sweep_graphs(torch_hex(2), 1)[0]
        pl_g, _ = build_powerlaw("soc-LiveJournal1", scale=1 / 256, seed=0)
        deg = mesh_g.out_degree() + mesh_g.in_degree()
        mesh_prof = bfs_frontier_profile(mesh_g, int(np.argmax(deg)))
        deg = pl_g.out_degree() + pl_g.in_degree()
        pl_prof = bfs_frontier_profile(pl_g, int(np.argmax(deg)))
        assert mesh_prof.size > 3 * pl_prof.size
        assert pl_prof.max() / pl_g.num_edges > mesh_prof.max() / mesh_g.num_edges
