"""Tests for the ECL-SCC driver: correctness, iteration behaviour,
worklist dynamics, and result metadata."""

import numpy as np
import pytest

from repro.baselines import tarjan_scc
from repro.core import (
    ALL_OFF,
    ALL_ON,
    DoubleBufferWorklist,
    EclOptions,
    Signatures,
    ablation_variants,
    ecl_scc,
    ecl_scc_reference,
    minmax_scc,
    phase3_filter,
)
from repro.device import A100, TITAN_V, VirtualDevice
from repro.graph import (
    CSRGraph,
    cycle_graph,
    dag_chain_of_cliques,
    path_graph,
    permute_random,
    planted_scc_graph,
    scc_ladder,
)


class TestCorrectness:
    @pytest.mark.parametrize("variant", list(ablation_variants()))
    def test_all_variants_match_tarjan(self, variant, all_graphs):
        opts = ablation_variants()[variant]
        for g in all_graphs:
            truth = tarjan_scc(g).labels
            res = ecl_scc(g, options=opts)
            assert np.array_equal(res.labels, truth), (variant, g)

    def test_reference_matches_tarjan(self, all_graphs):
        for g in all_graphs:
            assert np.array_equal(ecl_scc_reference(g), tarjan_scc(g).labels)

    def test_minmax_matches_tarjan(self, all_graphs):
        for g in all_graphs:
            assert np.array_equal(minmax_scc(g).labels, tarjan_scc(g).labels)

    def test_optimized_matches_reference(self, random_graphs):
        for g in random_graphs:
            assert np.array_equal(ecl_scc(g).labels, ecl_scc_reference(g))

    def test_labels_are_max_member(self):
        g = cycle_graph(6)
        res = ecl_scc(g)
        assert (res.labels == 5).all()

    def test_empty_graph(self):
        res = ecl_scc(CSRGraph.empty(0))
        assert res.num_sccs == 0
        assert res.labels.size == 0

    def test_edgeless_vertices(self):
        res = ecl_scc(CSRGraph.empty(7))
        assert res.num_sccs == 7
        assert res.labels.tolist() == list(range(7))

    def test_atomic_phase2_matches_tarjan(self, all_graphs):
        opts = EclOptions(atomic_phase2=True)
        for g in all_graphs:
            res = ecl_scc(g, options=opts)
            assert np.array_equal(res.labels, tarjan_scc(g).labels), g

    def test_atomic_phase2_counts_atomics(self):
        g = cycle_graph(64)
        res = ecl_scc(g, options=EclOptions(atomic_phase2=True))
        base = ecl_scc(g)
        assert res.device.counters.atomics > base.device.counters.atomics
        assert np.array_equal(res.labels, base.labels)

    def test_duplicate_edges_and_self_loops(self):
        g = CSRGraph.from_edges([0, 0, 0, 1, 1], [0, 1, 1, 0, 0], num_vertices=3)
        res = ecl_scc(g)
        assert np.array_equal(res.labels, tarjan_scc(g).labels)


class TestIterationBehaviour:
    def test_one_iteration_for_single_scc(self):
        res = ecl_scc(cycle_graph(32))
        assert res.outer_iterations == 1

    def test_deep_dag_logarithmic_iterations(self):
        """Random IDs: outer iterations ~ log(DAG depth), the paper's
        expected-complexity claim (§3)."""
        g = dag_chain_of_cliques(128, 3, seed=0)
        res = ecl_scc(g)
        assert res.outer_iterations <= 20  # log2(128)=7 plus slack, not 128

    def test_completion_monotone(self):
        g = dag_chain_of_cliques(16, 4, seed=1)
        res = ecl_scc(g)
        assert sum(res.completed_per_iteration) == g.num_vertices
        assert all(c >= 0 for c in res.completed_per_iteration)

    def test_at_least_one_scc_per_iteration(self):
        """§3.2.1: every iteration finishes >= the max SCC per cluster."""
        g, _ = planted_scc_graph([5, 3, 2, 7, 1], extra_dag_edges=6, seed=2)
        res = ecl_scc(g)
        assert all(c > 0 for c in res.completed_per_iteration)

    def test_worklist_drains_with_scc_edge_removal(self):
        g = scc_ladder(20)
        res = ecl_scc(g, options=ALL_ON)
        assert res.edges_final == 0

    def test_worklist_keeps_intra_edges_without_removal(self):
        g = cycle_graph(8)
        res = ecl_scc(g, options=ALL_ON.disabling("remove_scc_edges"))
        assert res.edges_final == g.num_edges  # intra-SCC edges retained

    def test_async_reduces_launches(self):
        g, _ = permute_random(cycle_graph(4096), seed=0)
        on = ecl_scc(g, options=ALL_ON)
        off = ecl_scc(g, options=ALL_ON.disabling("async_phase2"))
        assert on.kernel_launches < off.kernel_launches

    def test_device_estimate_attached(self):
        res = ecl_scc(cycle_graph(10), device=TITAN_V)
        assert res.device.spec is TITAN_V
        assert res.estimated_seconds > 0
        assert res.estimate.total == res.estimated_seconds

    def test_accepts_bare_spec_or_device(self):
        g = path_graph(5)
        a = ecl_scc(g, device=A100)
        b = ecl_scc(g, device=VirtualDevice(A100))
        assert np.array_equal(a.labels, b.labels)


class TestPhase3Filter:
    def _setup(self, src, dst, sig_in, sig_out):
        wl = DoubleBufferWorklist(np.asarray(src), np.asarray(dst))
        sigs = Signatures.identity(len(sig_in))
        sigs.sig_in = np.asarray(sig_in)
        sigs.sig_out = np.asarray(sig_out)
        return wl, sigs, VirtualDevice(A100)

    def test_mismatched_edge_removed(self):
        wl, sigs, dev = self._setup([0], [1], [0, 1], [0, 1])
        kept, removed = phase3_filter(wl, sigs, dev, ALL_ON)
        assert kept == 0 and removed == 1

    def test_matched_incomplete_edge_kept(self):
        # identical signatures but in != out: still part of a live cluster
        wl, sigs, dev = self._setup([0], [1], [5, 5], [7, 7])
        kept, removed = phase3_filter(wl, sigs, dev, ALL_ON)
        assert kept == 1 and removed == 0

    def test_completed_scc_edge_removed_with_option(self):
        wl, sigs, dev = self._setup([0], [1], [5, 5], [5, 5])
        kept, _ = phase3_filter(wl, sigs, dev, ALL_ON)
        assert kept == 0

    def test_completed_scc_edge_kept_without_option(self):
        wl, sigs, dev = self._setup([0], [1], [5, 5], [5, 5])
        opts = ALL_ON.disabling("remove_scc_edges")
        kept, _ = phase3_filter(wl, sigs, dev, opts)
        assert kept == 1

    def test_generation_bumps(self):
        wl, sigs, dev = self._setup([0], [1], [0, 1], [0, 1])
        g0 = wl.generation
        phase3_filter(wl, sigs, dev, ALL_ON)
        assert wl.generation == g0 + 1

    def test_atomic_count_matches_kept(self):
        wl, sigs, dev = self._setup([0, 1], [1, 0], [5, 5], [7, 7])
        kept, _ = phase3_filter(wl, sigs, dev, ALL_ON)
        assert dev.counters.atomics == kept == 2

    def test_zero_survivors_preserve_integer_dtypes(self):
        # regression: compacting to zero edges once produced float64
        # empties, poisoning every later index operation on the worklist
        wl, sigs, dev = self._setup([0, 1], [1, 0], [0, 1], [2, 3])
        kept, removed = phase3_filter(wl, sigs, dev, ALL_ON)
        assert kept == 0 and removed == 2
        assert wl.src.dtype.kind == wl.dst.dtype.kind == "i"
        assert wl.num_edges == 0

    def test_empty_worklist_is_a_noop(self):
        # fully-disconnected graph: no edges -> no launch, no charge,
        # and the generation must NOT advance (no compaction pass ran)
        empty = np.array([], dtype=np.int64)
        wl = DoubleBufferWorklist(empty, empty.copy())
        sigs = Signatures.identity(2)
        dev = VirtualDevice(A100)
        g0 = wl.generation
        kept, removed = phase3_filter(wl, sigs, dev, ALL_ON)
        assert (kept, removed) == (0, 0)
        assert wl.generation == g0
        assert dev.counters.kernel_launches == 0
        assert wl.src.dtype.kind == "i"

    def test_invalidate_marks_removed_endpoints(self):
        # frontier engine: endpoints of dropped edges feed next
        # iteration's seed set
        wl, sigs, dev = self._setup(
            [0, 2], [1, 3], [0, 1, 5, 5], [2, 3, 7, 7]
        )
        inv = np.zeros(4, dtype=bool)
        kept, removed = phase3_filter(wl, sigs, dev, ALL_ON, invalidate=inv)
        assert kept == 1 and removed == 1  # (0,1) mismatched, (2,3) kept
        assert inv.tolist() == [True, True, False, False]
