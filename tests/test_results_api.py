"""Tests for the unified result API (``repro.results.AlgoResult``)."""

import numpy as np
import pytest

from repro.baselines import coloring_scc, gpu_scc, kosaraju_scc, tarjan_scc
from repro.core import ecl_scc
from repro.core.eclscc import EclResult
from repro.distributed import block_partition, distributed_ecl_scc
from repro.distributed.eclscc import DistributedResult
from repro.graph import planted_scc_graph, scc_ladder
from repro.results import AlgoResult, coerce_labels, count_sccs


@pytest.fixture(scope="module")
def graph():
    return planted_scc_graph([3, 5, 1, 4, 2], extra_dag_edges=6, seed=0)[0]


class TestAlgoResultFields:
    def test_every_entry_point_returns_algoresult(self, graph):
        part = block_partition(graph, 2)
        for res in (
            ecl_scc(graph),
            tarjan_scc(graph),
            kosaraju_scc(graph),
            gpu_scc(graph),
            coloring_scc(graph),
            distributed_ecl_scc(graph, part),
        ):
            assert isinstance(res, AlgoResult)
            assert res.num_sccs == count_sccs(res.labels)
            assert res.trace is None

    def test_subclass_hierarchy(self, graph):
        assert isinstance(ecl_scc(graph), EclResult)
        assert issubclass(EclResult, AlgoResult)
        assert issubclass(DistributedResult, AlgoResult)

    def test_oracles_carry_no_device(self, graph):
        assert tarjan_scc(graph).device is None
        assert gpu_scc(graph).device is not None

    def test_result_to_result_equality(self, graph):
        a, b = tarjan_scc(graph), kosaraju_scc(graph)
        assert a == b and not (a != b)
        assert hash(a) != hash(b)  # identity hash, still usable in sets

    def test_coerce_labels(self, graph):
        res = tarjan_scc(graph)
        assert coerce_labels(res) is np.asarray(res.labels)
        bare = np.arange(4)
        assert coerce_labels(bare) is bare


class TestLegacyCallSites:
    """The idioms old call sites used, spelled with the named fields."""

    def test_verify_against_oracle(self, graph):
        labels = ecl_scc(graph).labels
        assert np.array_equal(labels, tarjan_scc(graph).labels)

    def test_tuple_style_baseline(self):
        res = coloring_scc(scc_ladder(8))
        assert count_sccs(res.labels) == 8
        assert res.device.counters.snapshot()

    def test_count_sccs_empty(self):
        assert count_sccs(np.empty(0, dtype=np.int64)) == 0


class TestStatusEnum:
    """The Status enum is string-compatible with the old literals."""

    def test_members_equal_legacy_strings(self):
        from repro.results import Status

        assert Status.CLEAN == "clean"
        assert Status.RECOVERED == "recovered"
        assert Status.DEGRADED == "degraded"
        assert str(Status.RECOVERED) == "recovered"
        assert f"{Status.DEGRADED}" == "degraded"

    def test_json_renders_bare_value(self):
        import json

        from repro.results import Status

        assert json.dumps({"status": Status.CLEAN}) == '{"status": "clean"}'

    def test_post_init_coerces_known_strings(self):
        from repro.results import Status

        res = ecl_scc(scc_ladder(4))
        assert isinstance(res.status, Status)
        assert res.status is Status.CLEAN
        res.status = "recovered"          # legacy writers assign strings
        assert AlgoResult.__post_init__(res) is None
        assert res.status is Status.RECOVERED

    def test_unknown_status_passes_through(self):
        import dataclasses

        res = ecl_scc(scc_ladder(4))
        custom = dataclasses.replace(res, status="experimental")
        assert custom.status == "experimental"

    def test_status_exported_at_top_level(self):
        import repro
        from repro.results import Status

        assert repro.Status is Status
