"""Tests for sweep-graph construction (§4.1) and the mesh suite classes.

These tests assert the *structural signatures* the paper's Tables 1-2
attribute to each mesh family — the properties the whole evaluation
rests on.
"""

import numpy as np
import pytest

from repro.baselines import tarjan_scc
from repro.errors import MeshError
from repro.graph import dag_depth
from repro.mesh import (
    SweepGraphBuilder,
    beam_hex,
    build_sweep_graph,
    klein_bottle,
    mobius_strip,
    ordinates_2d,
    ordinates_3d,
    star,
    structured_hex_grid,
    sweep_graphs,
    toroid_hex,
    torch_tet,
    twist_hex,
)


def scc_summary(g):
    labels = tarjan_scc(g).labels
    uniq, counts = np.unique(labels, return_counts=True)
    return {
        "sccs": uniq.size,
        "largest": int(counts.max()),
        "size2": int((counts == 2).sum()),
        "labels": labels,
    }


class TestConstruction:
    def test_vertex_is_element(self):
        m = structured_hex_grid((3, 2, 2))
        g = build_sweep_graph(m, np.array([0.3, 0.5, 0.8]))
        assert g.num_vertices == m.num_elements

    def test_one_edge_per_plain_face(self):
        m = structured_hex_grid((3, 3, 3))
        g = build_sweep_graph(m, np.array([0.3, 0.5, 0.8]))
        # straight grid, generic ordinate: exactly one direction per face
        from repro.mesh import interior_faces

        assert g.num_edges == interior_faces(m).num_faces

    def test_opposite_ordinate_reverses(self):
        m = structured_hex_grid((3, 3, 3))
        omega = np.array([0.3, 0.5, 0.8])
        a = build_sweep_graph(m, omega)
        b = build_sweep_graph(m, -omega)
        assert a.reverse_copy().same_structure(b)

    def test_ordinate_dim_checked(self):
        m = structured_hex_grid((2, 2, 2))
        with pytest.raises(MeshError, match="dim"):
            build_sweep_graph(m, np.array([1.0, 0.0]))

    def test_builder_reuse(self):
        m = beam_hex(2)
        b = SweepGraphBuilder(m)
        for omega in ordinates_3d(3):
            g = b.build(omega)
            assert g.num_vertices == m.num_elements

    def test_sweep_graphs_count(self):
        m = beam_hex(2)
        out = sweep_graphs(m, 5)
        assert len(out) == 5

    def test_straight_grid_no_reentrant(self):
        m = structured_hex_grid((3, 3, 3))
        b = SweepGraphBuilder(m)
        assert b.num_reentrant_candidates == 0


class TestMeshClassSignatures:
    """Tables 1-2: each family's SCC class must reproduce."""

    def test_beam_hex_all_trivial(self):
        for _, g in sweep_graphs(beam_hex(3), 3):
            s = scc_summary(g)
            assert s["sccs"] == g.num_vertices
            assert s["largest"] == 1

    def test_beam_hex_deep_dag(self):
        _, g = sweep_graphs(beam_hex(3), 1)[0]
        s = scc_summary(g)
        assert dag_depth(g, s["labels"]) > 20

    def test_star_all_trivial_deep(self):
        _, g = sweep_graphs(star(8), 1)[0]
        s = scc_summary(g)
        assert s["largest"] == 1
        assert dag_depth(g, s["labels"]) > 30

    def test_torch_tet_small_sccs(self):
        counts = []
        for _, g in sweep_graphs(torch_tet(2), 3):
            s = scc_summary(g)
            counts.append(s["size2"])
            assert 1 < s["largest"] <= 64  # small clusters only
        assert max(counts) > 10  # plenty of size-2 SCCs

    def test_toroid_hex_small_scc_clusters(self):
        for _, g in sweep_graphs(toroid_hex(3), 2):
            s = scc_summary(g)
            assert s["largest"] <= 32
            assert s["sccs"] < g.num_vertices  # some cycles exist

    def test_twist_hex_single_giant_scc(self):
        for _, g in sweep_graphs(twist_hex(2), 4):
            s = scc_summary(g)
            assert s["sccs"] == 1
            assert s["largest"] == g.num_vertices

    def test_klein_bottle_giant_scc(self):
        for _, g in sweep_graphs(klein_bottle(6), 4):
            s = scc_summary(g)
            assert s["largest"] > 0.9 * g.num_vertices

    def test_mobius_bimodal(self):
        giants = trivials = 0
        for _, g in sweep_graphs(mobius_strip(8), 8):
            s = scc_summary(g)
            if s["largest"] > 0.5 * g.num_vertices:
                giants += 1
            elif s["largest"] == 1:
                trivials += 1
        assert giants >= 2
        assert trivials >= 2

    def test_mesh_degrees_small(self):
        """Mesh sweep graphs have near-constant small degree (Tables 1-2)."""
        for mesh in (beam_hex(2), toroid_hex(2), twist_hex(2)):
            _, g = sweep_graphs(mesh, 1)[0]
            assert g.out_degree().max() <= 6
            assert g.in_degree().max() <= 6
