"""Untraced runs: the end-to-end metrics, tracing off.

A run repeats whole passes (set-up, static solves, dynamic replay,
serve runs) until ``seconds`` have gone by, and at least
:data:`MIN_PASSES` times.  Each pass runs in a fresh interpreter: the
wall time of one Python process differs from the next by up to a
third, so a median over passes from one process would carry that
process's speed.  Each wall-time sample is normalized to a nominal
host speed by the probe of :mod:`hostspeed`, which runs through the
pass, and each wall-time metric is the median of its samples across
passes; the update metrics pool the batches of every pass.
Model and simulated-time metrics come from the first
:data:`~inputs.REPLAYS` passes, which replay distinct seeded edge logs
and job streams, so they vary only with the seed and never with how
many passes ran.

Run as a script, this module makes one pass and prints its samples as
JSON: ``python3 passes.py <workload> <seed> <pass> <size>``.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: fewest passes a run makes: every median has at least three samples and
#: every edge log and job stream is replayed
MIN_PASSES = 3
#: wall time a pass spends on each solver at least (cheap solves repeat)
STATIC_MIN_S = 0.5
#: ServiceReport states that count against ``serve_fail_share``
FAILED_STATES = ("shed", "rejected", "dead-letter")
#: (metric, load, quantile) of the exact DONE-latency quantiles
SERVE_QUANTILES = (
    ("serve_p50_ms.load150", "load150", 0.5),
    ("serve_p99_ms.load080", "load080", 0.99),
    ("serve_p99_ms.load150", "load150", 0.99),
)


def nearest_rank(sorted_values: "list[float]", q: float) -> float:
    """Exact nearest-rank quantile of an already sorted list."""
    rank = max(1, min(len(sorted_values), math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def run_pass(workload: str, seed: int, index: int, size) -> dict:
    """One untraced pass; returns its samples, JSON-safe.

    Every wall-time sample is normalized by the host-speed probe
    running through the pass (:mod:`hostspeed`).
    """
    from repro import NULL_TRACER

    from hostspeed import HostSpeed
    from inputs import REPLAYS, build_inputs
    from layers import Oracle, Tally, replay, serve, setup, static_solves

    oracle = Oracle()
    tally = Tally()
    tr = NULL_TRACER
    simulated = index < REPLAYS
    samples: "dict[str, list[float]]" = defaultdict(list)
    with HostSpeed() as host:
        st = setup(lambda: build_inputs(workload, seed, size), tr, size, index % REPLAYS)
        solves = static_solves(st.inputs, oracle, tally, tr, min_s=STATIC_MIN_S)
        batches = replay(st, oracle, tally, tr)
        runs = serve(st, tally, tr)
    samples["setup_s"].append(host.seconds(st.t0, st.t1))

    for suffix, solved in solves.items():
        samples[f"solve_ms.{suffix}"].extend(
            1e3 * sum(host.seconds(t0, t1) for t0, t1 in spans)
            for spans in solved["spans"]
        )
        if suffix != "fb":
            samples[f"model_us.{suffix}"].append(
                1e6 * sum(r["result"].model_seconds for r in solved["rows"])
            )

    for b in batches:
        seconds = host.seconds(b["t0"], b["t2"])
        samples["update_ms.p50"].append(1e3 * seconds)
        samples["update_events_per_s"].append(b["events"] / seconds)
        if simulated:
            samples["update_model_us"].append(1e6 * b["model_s"])

    samples["serve_us_per_job"].append(
        1e6 * sum(host.seconds(r["t0"], r["t1"]) for r in runs.values())
        / sum(len(r["report"].jobs) for r in runs.values())
    )
    latencies: "dict[str, list[float]]" = {}
    submitted = failed = 0
    if simulated:
        for load, run in runs.items():
            report = run["report"]
            latencies[load] = report.done_latencies()
            submitted += len(report.jobs)
            by_state = report.by_state()
            failed += sum(by_state.get(s, 0) for s in FAILED_STATES)
    return {
        "samples": samples,
        "latencies": latencies,
        "submitted": submitted,
        "failed_jobs": failed,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "probe_s": host.median_s(),
    }


def run_untraced(workload: str, seed: int, seconds: float, size_name: str):
    """Returns ``(metrics, attempted, failures)``.

    *metrics* map name -> (value, samples).  Each pass is a child
    interpreter running this module; the run waits for each to end.
    """
    from hostspeed import NOMINAL_S

    samples: "dict[str, list[float]]" = defaultdict(list)
    #: DONE latencies of each load's REPLAYS streams, pooled
    latencies: "dict[str, list[float]]" = defaultdict(list)
    submitted = failed = attempted = 0
    failures: "list[str]" = []
    start = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - start < seconds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passes.py"), workload, str(seed),
             str(index), size_name],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"pass {index} failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, values in out["samples"].items():
            samples[name].extend(values)
        for load, values in out["latencies"].items():
            latencies[load].extend(values)
        submitted += out["submitted"]
        failed += out["failed_jobs"]
        attempted += out["attempted"]
        failures.extend(out["failures"])
        print(f"pass {index}: host-speed probe median {1e6 * out['probe_s']:.1f} us"
              f" (nominal {1e6 * NOMINAL_S:.1f} us)")
        index += 1

    metrics = {
        name: (statistics.median(values), len(values))
        for name, values in samples.items()
    }
    for name, load, q in SERVE_QUANTILES:
        pooled = sorted(latencies[load])
        metrics[name] = (1e3 * nearest_rank(pooled, q), len(pooled))
    metrics["serve_fail_share"] = (failed / submitted, submitted)
    return metrics, attempted, failures


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from inputs import SIZES

    workload, seed, index, size_name = sys.argv[1:5]
    print(json.dumps(run_pass(workload, int(seed), int(index), SIZES[size_name])))
