"""Smoke test of the benchmark, at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

It checks that every declared metric is reported with its unit and a
finite value, that a corrupted label array counts as a failed
operation, that seed 0 measures the program the committed gates
measure, and that a checkout without the program's source is refused.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
from hostspeed import NOMINAL_S, HostSpeed, clock  # noqa: E402
from inputs import FULL, WORKLOADS, build_inputs  # noqa: E402


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported(workload, trace, tmp_path, capsys):
    measured = run.measure(workload, 1, 0.0, trace, "tiny", tmp_path)
    assert run.report(*measured, trace) == 0
    result = _result_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = run.declared_metrics(trace)
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"]), name
    if trace:
        out = tmp_path / f"{workload}-seed1"
        assert (out / "bench_spans.jsonl").is_file()
        self_s = json.loads((out / "self_times.json").read_text())["bench_s"]
        for span in ("setup.dynamic-init", "engine.solve", "baselines.solve",
                     "dynamic.apply", "dynamic.query", "serve.run",
                     "obs.on_event", "trace.solve", "profile.attribute"):
            assert self_s[span] > 0, span


def test_host_speed_removes_probe_time_and_scales():
    host = HostSpeed()
    host.starts = [0.0, 1.0, 2.0, 3.0]
    host.durations = [2 * NOMINAL_S] * 4
    # probes at 1.0 and 2.0 ran inside; the host ran at half nominal speed
    assert host.seconds(0.5, 2.5) == pytest.approx((2.0 - 4 * NOMINAL_S) / 2)
    with pytest.raises(RuntimeError):
        HostSpeed().seconds(0.0, 1.0)


def test_host_speed_probes_while_entered():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSpeed(period_s=0.005) as host:
        t0 = clock()
        while clock() - t0 < 0.2:
            pass
    assert len(host.durations) >= 5
    assert signal.getsignal(signal.SIGALRM) is previous
    assert host.seconds(t0, t0 + 0.2) > 0


def test_corrupted_labels_count_as_failed(monkeypatch, tmp_path, capsys):
    real_solve = layers.solve
    corrupted = []

    def corrupting_solve(graph, algorithm="ecl-scc", **kwargs):
        res = real_solve(graph, algorithm, **kwargs)
        if kwargs.get("engine") == "async" and not corrupted:
            res.labels = np.array(res.labels, copy=True)
            res.labels[0] += 1
            corrupted.append(res)
        return res

    # the traced run makes its pass in this process, so the patch applies
    monkeypatch.setattr(layers, "solve", corrupting_solve)
    measured = run.measure("serve-zipf", 0, 0.0, True, "tiny", tmp_path)
    assert run.report(*measured, True) == 1
    result = _result_line(capsys)
    assert corrupted
    assert result["correct"] is False and result["failed"] == 1


def test_seed0_model_seconds_match_committed_gate():
    """Seed 0 solves the graphs ``BENCH_pr6.json`` gates, bit for bit."""
    committed = {
        (row["algorithm"], row["graph"]): row["model_seconds"]
        for row in json.loads((ROOT / "BENCH_pr6.json").read_text())["results"]
    }
    graphs = {
        **build_inputs("powerlaw-rw", 0, FULL).static,
        **build_inputs("mesh-sweep", 0, FULL).static,
    }
    checked = 0
    for name, g in graphs.items():
        for algorithm, engine in (("ecl-scc", "frontier"), ("fb", None)):
            if (algorithm, name) in committed:
                res = layers.solve(g, algorithm, engine=engine)
                assert res.model_seconds == committed[(algorithm, name)], (algorithm, name)
                checked += 1
    assert checked == 6


def test_checkout_without_source_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-zipf",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
