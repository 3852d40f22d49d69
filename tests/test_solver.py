"""Tests for the unified solve facade (repro.solve / repro.Solver) and
the EclOptions.engine field it rides on."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import repro
from repro import EclOptions, Solver, solve
from repro.bench.runners import RunResult
from repro.core import ecl_scc
from repro.core.options import ALL_ON, ENGINE_NAMES, validate_engine
from repro.dynamic import DynamicGraph
from repro.errors import AlgorithmError
from repro.graph import cycle_graph, random_gnm


G = random_gnm(40, 120, seed=1)


# ----------------------------------------------------------------------
# solve(): the one-call front door
# ----------------------------------------------------------------------
class TestSolve:
    def test_default_solve_is_ecl_scc(self):
        res = solve(G)
        assert isinstance(res, RunResult)
        assert res.algorithm == "ecl-scc"
        assert np.array_equal(res.labels, ecl_scc(G).labels)

    def test_positional_algorithm(self):
        res = solve(G, "tarjan")
        assert res.algorithm == "tarjan"
        assert res.num_sccs == ecl_scc(G).num_sccs

    def test_engine_keyword(self):
        res = solve(G, engine="frontier", verify=True)
        assert np.array_equal(res.labels, ecl_scc(G).labels)

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(AlgorithmError) as exc:
            solve(G, engine="warp")
        for name in ENGINE_NAMES:
            assert name in str(exc.value)

    def test_exported_at_top_level(self):
        assert repro.solve is solve
        assert repro.Solver is Solver

    def test_unknown_keyword_raises_typeerror(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            solve(G, fronteir_phase2=True)  # typo must not pass silently


# ----------------------------------------------------------------------
# Solver: frozen reusable configuration
# ----------------------------------------------------------------------
class TestSolver:
    def test_solver_is_frozen_and_reusable(self):
        s = Solver(engine="frontier")
        with pytest.raises(FrozenInstanceError):
            s.engine = "sync"
        a = s.solve(G)
        b = s.solve(G)
        assert np.array_equal(a.labels, b.labels)
        assert a.model_seconds == b.model_seconds

    def test_static_equals_degenerate_dynamic_query(self):
        s = Solver(engine="frontier")
        static = s.solve(G)
        handle = s.dynamic(G)
        assert isinstance(handle, DynamicGraph)
        assert np.array_equal(handle.query().labels, static.labels)

    def test_dynamic_requires_ecl_scc(self):
        with pytest.raises(AlgorithmError, match="ecl-scc"):
            Solver(algorithm="tarjan").dynamic(G)

    def test_solver_dynamic_stays_identical_under_updates(self):
        handle = Solver(engine="frontier").dynamic(cycle_graph(6))
        handle.delete_edges([2], [3])
        handle.insert_edges([2], [3])
        assert np.array_equal(
            handle.query().labels, ecl_scc(cycle_graph(6)).labels
        )


# ----------------------------------------------------------------------
# EclOptions.engine: the registry-backed field
# ----------------------------------------------------------------------
class TestEngineField:
    def test_engine_field_validates_on_construction(self):
        assert EclOptions(engine="frontier").phase2_engine == "frontier"
        with pytest.raises(AlgorithmError, match="valid choices"):
            EclOptions(engine="bogus")

    def test_default_engine_derives_from_ablation_flags(self):
        assert ALL_ON.phase2_engine == "async"
        assert EclOptions(async_phase2=False).phase2_engine == "sync"
        assert EclOptions(atomic_phase2=True).phase2_engine == "atomic"
        # an explicit engine overrides the flags
        assert EclOptions(atomic_phase2=True, engine="sync").phase2_engine == "sync"

    def test_engine_options_rejects_unknown_names(self):
        # deriving options from a base, and the solve keyword, both validate
        base = EclOptions(path_compression=False)
        with pytest.raises(AlgorithmError, match="valid choices"):
            replace(base, engine="nope")
        with pytest.raises(AlgorithmError, match="valid choices"):
            solve(G, engine="nope")

    def test_validate_engine_passthrough(self):
        for name in ENGINE_NAMES:
            assert validate_engine(name) == name
