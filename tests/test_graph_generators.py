"""Unit tests for repro.graph.generators — planted structure must verify."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    complete_digraph,
    cycle_graph,
    dag_chain_of_cliques,
    dag_depth,
    grid_dag,
    path_graph,
    planted_scc_graph,
    random_gnm,
    random_gnp,
    random_tournament,
    scc_ladder,
)
from repro.baselines import tarjan_scc
from repro.analysis import partitions_equal


class TestDeterministicShapes:
    def test_cycle_one_scc(self):
        g = cycle_graph(11)
        assert np.unique(tarjan_scc(g).labels).size == 1

    def test_cycle_minimum_size(self):
        with pytest.raises(GraphFormatError):
            cycle_graph(0)

    def test_path_all_trivial(self):
        g = path_graph(6)
        labels = tarjan_scc(g).labels
        assert np.unique(labels).size == 6
        assert dag_depth(g, labels) == 6

    def test_complete_digraph(self):
        g = complete_digraph(6)
        assert g.num_edges == 30
        assert np.unique(tarjan_scc(g).labels).size == 1

    def test_ladder_structure(self):
        g = scc_ladder(8)
        labels = tarjan_scc(g).labels
        _, counts = np.unique(labels, return_counts=True)
        assert (counts == 2).all()
        assert dag_depth(g, labels) == 8

    def test_grid_dag_depth(self):
        g = grid_dag(6, 7)
        labels = tarjan_scc(g).labels
        assert np.unique(labels).size == 42
        assert dag_depth(g, labels) == 12

    def test_chain_of_cliques(self):
        g = dag_chain_of_cliques(9, 5, seed=4)
        labels = tarjan_scc(g).labels
        uniq, counts = np.unique(labels, return_counts=True)
        assert uniq.size == 9
        assert (counts == 5).all()
        assert dag_depth(g, labels) == 9


class TestPlanted:
    @pytest.mark.parametrize("seed", range(5))
    def test_planted_matches_truth(self, seed):
        sizes = [1, 3, 2, 8, 1, 5, 2]
        g, truth = planted_scc_graph(sizes, extra_dag_edges=12, seed=seed)
        labels = tarjan_scc(g).labels
        assert partitions_equal(labels, truth)

    def test_planted_sizes(self):
        sizes = [4, 4, 4]
        g, truth = planted_scc_graph(sizes, seed=0)
        _, counts = np.unique(tarjan_scc(g).labels, return_counts=True)
        assert sorted(counts.tolist()) == [4, 4, 4]

    def test_planted_all_trivial(self):
        g, truth = planted_scc_graph([1] * 10, extra_dag_edges=15, seed=2)
        assert np.unique(tarjan_scc(g).labels).size == 10


class TestRandomGenerators:
    def test_gnm_shape(self):
        g = random_gnm(100, 300, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges == 300

    def test_gnm_no_self_loops_by_default(self):
        g = random_gnm(50, 500, seed=2)
        s, d = g.edges()
        assert not np.any(s == d)

    def test_gnm_self_loops_allowed(self):
        g = random_gnm(10, 2000, seed=3, self_loops=True)
        s, d = g.edges()
        assert np.any(s == d)

    def test_gnm_deterministic(self):
        a = random_gnm(30, 60, seed=7)
        b = random_gnm(30, 60, seed=7)
        assert a.same_structure(b)

    def test_gnp(self):
        g = random_gnp(40, 0.1, seed=1)
        assert g.num_vertices == 40
        s, d = g.edges()
        assert not np.any(s == d)

    def test_gnp_guard(self):
        with pytest.raises(GraphFormatError):
            random_gnp(100_000, 0.5)

    def test_tournament(self):
        n = 12
        g = random_tournament(n, seed=5)
        assert g.num_edges == n * (n - 1) // 2
        # tournaments of moderate size are a.s. strongly connected
        assert np.unique(tarjan_scc(g).labels).size == 1
