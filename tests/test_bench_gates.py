"""Every bench/serve gate rule, one passing and one failing row set each.

The expected outcomes — exit codes and the exact failure strings — are
in ``golden_gate_rules.json``, captured before the gate functions moved
out of the CLI into :mod:`repro.bench.gates`.  A rule whose semantics,
tolerance or message text drifts fails here.  Regenerate with
``PYTHONPATH=src python tests/test_bench_gates.py``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.bench.gates import (
    bench_compare,
    engine_matrix_failures,
    serve_row_failures,
    top_regressed_phase,
)

GOLDEN = Path(__file__).with_name("golden_gate_rules.json")


def _ecl(**kw):
    row = {"algorithm": "ecl-scc", "graph": "g", "num_sccs": 3,
           "model_seconds": 1.0, "bytes_moved": 100, "kernel_launches": 5}
    row.update(kw)
    return row


def _phases(p1, p2):
    return {
        "phase1": {"seconds": p1, "launches": 1,
                   "classification": "bandwidth-bound"},
        "phase2": {"seconds": p2, "launches": 4,
                   "classification": "launch-overhead-bound"},
    }


def _replay(incr, recompute):
    return {"algorithm": "dynamic-replay", "graph": "g:replay-b12",
            "num_sccs": 3, "model_seconds": incr,
            "recompute_seconds": recompute}


def _engines(adaptive=1.01, frontier_sccs=3):
    return [
        _ecl(engine="async", model_seconds=1.2),
        _ecl(engine="frontier", model_seconds=1.0, num_sccs=frontier_sccs),
        _ecl(engine="adaptive", model_seconds=adaptive),
    ]


def _serve(graph="zipf-clean", **kw):
    row = {"algorithm": "serve-bench", "graph": graph,
           "throughput_jps": 100.0, "shed_rate": 0.1, "p99_ms": 1.0,
           "cache_enabled": False, "plan": None}
    row.update(kw)
    return row


def _twins(on, off):
    return [_serve("zipf-crash+breakers", **{"p99_ms": 1.0, **on}),
            _serve("zipf-crash-nobreakers",
                   **{"p99_ms": 2.0, "shed_rate": 0.2, **off})]


#: case name -> (gate, new rows, baseline rows, keyword arguments); the
#: "phase" gate takes (new phases, baseline phases) instead of rows
CASES = {
    # bench_compare: num_sccs must match the baseline exactly
    "num_sccs/pass": ("compare", [_ecl()], [_ecl()], {}),
    "num_sccs/fail": ("compare", [_ecl(num_sccs=4, model_seconds=0.5)],
                      [_ecl()], {}),
    # bench_compare: ecl-scc model_seconds within +tolerance
    "model_seconds/pass": ("compare", [_ecl(model_seconds=1.04)], [_ecl()],
                           {"tolerance": 0.05}),
    "model_seconds/fail": ("compare", [_ecl(model_seconds=1.2)], [_ecl()],
                           {"tolerance": 0.05}),
    "model_seconds/wider-tolerance-pass": (
        "compare", [_ecl(model_seconds=1.2)], [_ecl()], {"tolerance": 0.25}),
    "model_seconds/fail-phase-vs-baseline-phases": (
        "compare", [_ecl(model_seconds=1.3, phases=_phases(0.1, 1.2))],
        [_ecl(phases=_phases(0.1, 0.9))], {}),
    "model_seconds/fail-phase-no-baseline-phases": (
        "compare", [_ecl(model_seconds=1.3, phases=_phases(0.1, 1.2))],
        [_ecl()], {}),
    "model_seconds/fail-no-phase-grew": (
        "compare", [_ecl(model_seconds=1.3, phases=_phases(0.1, 0.9))],
        [_ecl(phases=_phases(0.1, 0.9))], {}),
    # bench_compare: incremental replay must beat full recompute
    "dynamic-replay/pass": ("compare", [_replay(0.5, 1.0)], [], {}),
    "dynamic-replay/fail": ("compare", [_replay(1.0, 1.0)], [], {}),
    # engine matrix: cross-engine num_sccs agreement
    "engines-num_sccs/pass": ("engines", _engines(), [], {}),
    "engines-num_sccs/fail": ("engines", _engines(frontier_sccs=4), [], {}),
    # engine matrix: adaptive within +engine_tolerance of best static
    "engines-adaptive/pass": ("engines", _engines(adaptive=1.019), [],
                              {"engine_tolerance": 0.02}),
    "engines-adaptive/fail": ("engines", _engines(adaptive=1.05), [],
                              {"engine_tolerance": 0.02}),
    "engines-adaptive/wider-tolerance-pass": (
        "engines", _engines(adaptive=1.05), [], {"engine_tolerance": 0.1}),
    "compare-engines/pass": ("compare", _engines(), _engines(), {}),
    "compare-engines/fail": ("compare", _engines(adaptive=1.05),
                             _engines(adaptive=1.05),
                             {"engine_tolerance": 0.02}),
    # serve rows vs baseline: throughput drop (relative tolerance)
    "serve-throughput/pass": ("serve", [_serve(throughput_jps=96.0)],
                              [_serve()], {}),
    "serve-throughput/fail": ("serve", [_serve(throughput_jps=94.0)],
                              [_serve()], {}),
    # serve rows vs baseline: shed-rate rise (absolute tolerance)
    "serve-shed/pass": ("serve", [_serve(shed_rate=0.14)], [_serve()], {}),
    "serve-shed/fail": ("serve", [_serve(shed_rate=0.16)], [_serve()], {}),
    # a cache-enabled row vs a pre-cache baseline must strictly win
    "cache-vs-pre-cache/pass": (
        "serve", [_serve(cache_enabled=True, throughput_jps=110.0,
                         p99_ms=0.9)],
        [{k: v for k, v in _serve().items() if k != "cache_enabled"}], {}),
    "cache-vs-pre-cache/throughput-fail": (
        "serve", [_serve(cache_enabled=True, p99_ms=0.9)], [_serve()], {}),
    "cache-vs-pre-cache/p99-fail": (
        "serve", [_serve(cache_enabled=True, throughput_jps=110.0,
                         p99_ms=1.1)], [_serve()], {}),
    "cache-vs-pre-cache/p99-faulted-pass": (
        "serve", [_serve(cache_enabled=True, throughput_jps=110.0,
                         p99_ms=1.1, plan="serve-crash")], [_serve()], {}),
    # the -nocache twin must lose to its cache-enabled scenario
    "nocache-twin/pass": (
        "serve", [_serve(cache_enabled=True, throughput_jps=110.0,
                         p99_ms=0.9),
                  _serve("zipf-clean-nocache")], [], {}),
    "nocache-twin/throughput-fail": (
        "serve", [_serve(cache_enabled=True, p99_ms=0.9),
                  _serve("zipf-clean-nocache")], [], {}),
    "nocache-twin/p99-fail": (
        "serve", [_serve(cache_enabled=True, throughput_jps=110.0,
                         p99_ms=1.1),
                  _serve("zipf-clean-nocache")], [], {}),
    # the -nobreakers twin must be worse on both p99 and shed rate
    "breakers-twin/pass": ("serve", _twins({}, {}), [], {}),
    "breakers-twin/p99-fail": ("serve", _twins({}, {"p99_ms": 1.0}), [], {}),
    "breakers-twin/shed-fail": ("serve", _twins({}, {"shed_rate": 0.1}),
                                [], {}),
    "compare-serve/pass": ("compare", _twins({}, {}), _twins({}, {}), {}),
    "compare-serve/fail": ("compare", _twins({}, {"shed_rate": 0.1}),
                           _twins({}, {}), {}),
    # the top-regressed-phase suffix on its own
    "phase/vs-baseline-phases": ("phase", _phases(0.1, 1.2),
                                 _phases(0.1, 0.9), {}),
    "phase/no-baseline-phases": ("phase", _phases(0.1, 1.2), None, {}),
    "phase/no-phase-grew": ("phase", _phases(0.1, 0.9), _phases(0.2, 0.9),
                            {}),
    "phase/no-new-phases": ("phase", None, _phases(0.1, 0.9), {}),
}


def _key(row):
    return (row["algorithm"], row.get("engine"), row["graph"])


def run_case(name: str) -> dict:
    gate, rows, base, kw = CASES[name]
    if gate == "phase":
        return {"top": top_regressed_phase(rows, base)}
    if gate == "engines":
        return {"failures": engine_matrix_failures(rows, **kw)}
    if gate == "serve":
        base_rows = {_key(r): r for r in base}
        return {"failures": serve_row_failures(
            rows, base_rows, kw.get("tolerance", 0.05))}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.json"
        path.write_text(json.dumps({"results": base}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench_compare(
                rows, str(path), kw.get("tolerance", 0.05),
                engine_tolerance=kw.get("engine_tolerance", 0.02),
            )
    lines = out.getvalue().splitlines()
    failures = []
    if "bench-regression gate: FAIL" in lines:
        start = lines.index("bench-regression gate: FAIL") + 1
        failures = [line[2:] for line in lines[start:]]
    return {"exit": code, "failures": failures}


def test_every_rule_has_a_passing_and_a_failing_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(CASES)
    rules = {}
    for name, outcome in golden.items():
        failed = bool(outcome.get("failures") or outcome.get("top"))
        rules.setdefault(name.split("/")[0], set()).add(failed)
    assert all(seen == {True, False} for rule, seen in rules.items()
               if rule != "phase"), rules


@pytest.mark.parametrize("name", sorted(CASES))
def test_gate_rule_matches_golden(name):
    assert run_case(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    print(json.dumps({n: run_case(n) for n in sorted(CASES)},
                     indent=2, sort_keys=True))
