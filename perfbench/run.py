#!/usr/bin/env python3
"""Two-clock benchmark of the ECL-SCC reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload powerlaw-rw --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``
(tracing off); ``--trace 1`` makes one traced pass and prints the
per-layer metrics, writing its spans under ``.perfbench_out/``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table.  A failed correctness check exits 1;
a checkout without the program's source exits 2.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: where traced runs write their spans
OUT_DIR = ROOT / ".perfbench_out"


def declared_metrics(trace: bool) -> "dict[str, str]":
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool, size_name: str,
            out_dir: Path):
    """``(values, sample_counts, attempted, failures)`` of one run."""
    if trace:
        from inputs import SIZES
        from traced import run_traced

        out_dir = out_dir / f"{workload}-seed{seed}"
        values, tally, bench_self = run_traced(workload, seed, out_dir, SIZES[size_name])
        print(f"traced pass: spans and self times written to {out_dir}")
        for name, s in sorted(bench_self.items()):
            print(f"  self {name:24s} {1e3 * s:12.3f} ms")
        return values, {}, tally.attempted, tally.failures
    from passes import run_untraced

    measured, attempted, failures = run_untraced(workload, seed, seconds, size_name)
    values = {k: v for k, (v, _) in measured.items()}
    counts = {k: n for k, (_, n) in measured.items()}
    return values, counts, attempted, failures


def report(values: dict, counts: dict, attempted: int, failures: "list[str]",
           trace: bool) -> int:
    """Print the table and the result line; returns the exit code."""
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise RuntimeError(
            "measured metrics differ from BENCHMARK.json:"
            f" missing {sorted(set(units) - set(values))},"
            f" undeclared {sorted(set(values) - set(units))}"
        )
    bad = sorted(k for k, v in values.items() if not math.isfinite(v))
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    for name, unit in units.items():
        n = f"  n={counts[name]}" if name in counts else ""
        print(f"{name:34s} {values[name]:16.6g} {unit}{n}")
    print("serve arrivals are scheduled simulated-time events: the open-loop"
          " generator never runs late (lateness 0 s)")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if failures else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    trace = bool(args.trace)
    measured = measure(args.workload, args.seed, args.seconds, trace, "full", OUT_DIR)
    return report(*measured, trace)


if __name__ == "__main__":
    sys.exit(main())
