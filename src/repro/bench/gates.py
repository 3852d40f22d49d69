"""The bench/serve regression gates behind ``repro bench`` and ``repro serve``.

Every rule that can fail a CI gate lives here, written once:

* :func:`bench_compare` — smoke/engine/serve rows against a committed
  baseline JSON (exact ``num_sccs``, bounded ecl-scc ``model_seconds``,
  incremental replay cheaper than recompute), folding in the two rule
  sets below;
* :func:`engine_matrix_failures` — cross-engine ``num_sccs`` agreement
  and the adaptive engine within a tolerance of the best static one;
* :func:`serve_row_failures` — serve throughput and shed rate against
  the baseline, the cache win and the breaker win;
* :func:`top_regressed_phase` — the phase a model-seconds failure
  message points at.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..serve.bench import breaker_win

__all__ = [
    "bench_compare",
    "engine_matrix_failures",
    "serve_row_failures",
    "top_regressed_phase",
]


def engine_matrix_failures(
    rows: "list[dict]", engine_tolerance: float = 0.02
) -> "list[str]":
    """Engine-matrix gate over rows carrying an ``engine`` key.

    Two rules, applied per graph: every engine must report the same
    ``num_sccs`` (engines select *how* to propagate, never *what* is
    computed), and the adaptive engine's ``model_seconds`` must not
    exceed the best static engine's by more than *engine_tolerance*
    (default 2%) — the scheduler pays for its density scans, so it is
    allowed epsilon, not a free pass.  Returns failure strings (empty
    on pass); rows without an ``engine`` key are ignored so the gate
    composes with the smoke rows.
    """
    by_graph: "dict[str, dict[str, dict]]" = {}
    for r in rows:
        if "engine" in r and "num_sccs" in r:
            by_graph.setdefault(r["graph"], {})[r["engine"]] = r
    failures = []
    for gname, cells in by_graph.items():
        sccs = {e: r["num_sccs"] for e, r in cells.items()}
        if len(set(sccs.values())) > 1:
            failures.append(f"{gname}: num_sccs differs across engines: {sccs}")
        ad = cells.get("adaptive")
        static = {
            e: r["model_seconds"] for e, r in cells.items() if e != "adaptive"
        }
        if ad is None or not static:
            continue
        best_engine = min(static, key=static.get)
        best = static[best_engine]
        if ad["model_seconds"] > best * (1.0 + engine_tolerance):
            failures.append(
                f"{gname}: adaptive model_seconds"
                f" {ad['model_seconds']:.3e}s exceeds best static engine"
                f" ({best_engine}, {best:.3e}s)"
                f" by more than +{engine_tolerance:.0%}"
            )
    return failures


def bench_compare(rows: "list[dict]", baseline: str, tolerance: float,
                  *, engine_tolerance: float = 0.02) -> int:
    """Gate the smoke/engine/serve rows against a committed baseline JSON.

    ``num_sccs`` must match exactly on every shared cell (an engine or
    backend must never change *what* is computed); ecl-scc
    ``model_seconds`` must not exceed baseline x (1 + tolerance) on any
    graph.  ``dynamic-replay`` rows must additionally keep incremental
    maintenance cheaper than full recompute (``model_seconds <
    recompute_seconds``) — the crossover guarantee of repro.dynamic.
    Rows carrying an ``engine`` key (the ``bench engines`` matrix) are
    keyed per engine and additionally pass through
    :func:`engine_matrix_failures`: the adaptive engine must stay
    within *engine_tolerance* of the best static engine on every
    workload.  ``serve-bench`` rows are gated by
    :func:`serve_row_failures`.  Prints the comparison table and the
    verdict; returns 0 on pass, 1 on violation.  Baselines written
    before the profiling layer (no ``bytes_streamed``/``phases`` keys)
    still compare; a regression's failure message names the top
    regressed phase when per-phase data is available on the new side.
    """
    base = json.loads(Path(baseline).read_text())
    base_rows = {
        (r["algorithm"], r.get("engine"), r["graph"]): r
        for r in base["results"]
    }
    failures = engine_matrix_failures(rows, engine_tolerance)
    failures += serve_row_failures(rows, base_rows, tolerance)
    print(f"\ncomparison vs {baseline}"
          f" (tolerance +{tolerance:.0%} on ecl-scc model_seconds):")
    print(f"  {'graph':<16s} {'base ms':>9s} {'new ms':>9s} {'ratio':>6s}"
          f" {'bytes':>6s} {'launches':>13s}")
    for row in rows:
        if row["algorithm"] == "serve-bench":
            continue  # gated by serve_row_failures (no num_sccs/ms cells)
        if row["algorithm"] == "dynamic-replay":
            if row["model_seconds"] >= row["recompute_seconds"]:
                failures.append(
                    f"{row['graph']}: incremental updates"
                    f" ({row['model_seconds']:.3e}s) no longer beat full"
                    f" recompute ({row['recompute_seconds']:.3e}s)"
                )
        key = (row["algorithm"], row.get("engine"), row["graph"])
        b = base_rows.get(key)
        if b is None:
            continue
        label = row["graph"] + (
            f"/{row['engine']}" if row.get("engine") else ""
        )
        if row["num_sccs"] != b["num_sccs"]:
            failures.append(
                f"{label}: num_sccs {row['num_sccs']} !="
                f" baseline {b['num_sccs']}"
            )
        if row["algorithm"] != "ecl-scc":
            continue
        # degenerate corpus entries (empty graphs) estimate to 0.0s
        ratio = (
            row["model_seconds"] / b["model_seconds"]
            if b["model_seconds"] else 1.0
        )
        byte_ratio = row["bytes_moved"] / max(b.get("bytes_moved", 0), 1)
        print(f"  {label:<16s} {b['model_seconds'] * 1e3:9.3f}"
              f" {row['model_seconds'] * 1e3:9.3f} {ratio:6.2f}"
              f" {byte_ratio:6.2f} {b.get('kernel_launches', 0):>5d} ->"
              f" {row['kernel_launches']:<5d}")
        if ratio > 1.0 + tolerance:
            msg = (
                f"{label}: model_seconds regressed x{ratio:.3f}"
                f" (> +{tolerance:.0%})"
            )
            top = top_regressed_phase(row.get("phases"), b.get("phases"))
            if top:
                msg += f"; top regressed phase: {top}"
            failures.append(msg)
    if failures:
        print("bench-regression gate: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    print("bench-regression gate: pass")
    return 0


def serve_row_failures(rows: "list[dict]", base_rows: "dict",
                       tolerance: float) -> "list[str]":
    """Gate rules for ``serve-bench`` rows (the serve-smoke artifact).

    Versus the baseline, per scenario: throughput must not drop more
    than *tolerance* (relative) and the backpressure shed rate must not
    rise more than *tolerance* (absolute — shed rates are fractions of
    submitted jobs); a cache-enabled row additionally must *strictly
    beat* its baseline twin on throughput with no-worse p99 when that
    baseline predates the cache (the PR9 acceptance gate).  Within the
    new rows alone, two pair rules must hold: the ``-nobreakers`` crash
    scenario must show strictly worse p99 latency and shed rate than
    its ``+breakers`` twin (the breaker win,
    :func:`repro.serve.bench.breaker_win`), and a ``-nocache`` twin
    must show strictly lower throughput at no-better p99 than its
    cache-enabled scenario (the cache win).
    """
    failures: "list[str]" = []
    serve_rows = [r for r in rows if r["algorithm"] == "serve-bench"]
    for row in serve_rows:
        key = (row["algorithm"], row.get("engine"), row["graph"])
        b = base_rows.get(key)
        if b is None:
            continue
        if row["throughput_jps"] < b["throughput_jps"] * (1.0 - tolerance):
            failures.append(
                f"{row['graph']}: serve throughput regressed"
                f" {b['throughput_jps']:.1f} -> {row['throughput_jps']:.1f}"
                f" jobs/s (> -{tolerance:.0%})"
            )
        if row["shed_rate"] > b["shed_rate"] + tolerance:
            failures.append(
                f"{row['graph']}: serve shed rate regressed"
                f" {b['shed_rate']:.3f} -> {row['shed_rate']:.3f}"
                f" (> +{tolerance:.2f} absolute)"
            )
        if row.get("cache_enabled") and not b.get("cache_enabled"):
            # a pre-cache baseline: the short-circuit layer must be a
            # strict improvement on the same workload.  The p99 half
            # only binds fault-free rows — under an injected fault plan
            # the cache *completes* jobs the baseline shed, so the two
            # latency populations are not comparable.
            if row["throughput_jps"] <= b["throughput_jps"]:
                failures.append(
                    f"{row['graph']}: cache win lost vs pre-cache baseline —"
                    f" throughput {b['throughput_jps']:.1f} ->"
                    f" {row['throughput_jps']:.1f} jobs/s not strictly up"
                )
            p99_b, p99_r = b["p99_ms"], row["p99_ms"]
            if (row.get("plan") is None and p99_b is not None
                    and p99_r is not None and p99_r > p99_b):
                failures.append(
                    f"{row['graph']}: cache win lost vs pre-cache baseline —"
                    f" p99 {p99_b:.4f}ms -> {p99_r:.4f}ms worsened"
                )
    by_scenario = {r["graph"]: r for r in serve_rows}
    for name, off_row in by_scenario.items():
        if not name.endswith("-nocache"):
            continue
        on_row = by_scenario.get(name[: -len("-nocache")])
        if on_row is None or not on_row.get("cache_enabled"):
            continue
        if on_row["throughput_jps"] <= off_row["throughput_jps"]:
            failures.append(
                f"{name[: -len('-nocache')]}: cache win lost — throughput"
                f" with cache ({on_row['throughput_jps']:.1f}/s) does not"
                f" beat without ({off_row['throughput_jps']:.1f}/s)"
            )
        p99_on, p99_off = on_row["p99_ms"], off_row["p99_ms"]
        if p99_on is not None and p99_off is not None and p99_on > p99_off:
            failures.append(
                f"{name[: -len('-nocache')]}: cache win lost — p99 with"
                f" cache ({p99_on:.4f}ms) worse than without"
                f" ({p99_off:.4f}ms)"
            )
    for name, on_row in by_scenario.items():
        if not name.endswith("+breakers"):
            continue
        off_row = by_scenario.get(name[: -len("+breakers")] + "-nobreakers")
        if off_row is None:
            continue
        win = breaker_win(on_row, off_row)
        if win["p99_degradation"] <= 1.0:
            failures.append(
                f"{name}: breaker win lost — p99 without breakers"
                f" ({off_row['p99_ms']:.4f}ms) no longer degrades vs with"
                f" ({on_row['p99_ms']:.4f}ms)"
            )
        if win["shed_rate_delta"] <= 0.0:
            failures.append(
                f"{name}: breaker win lost — shed rate without breakers"
                f" ({off_row['shed_rate']:.3f}) no longer degrades vs with"
                f" ({on_row['shed_rate']:.3f})"
            )
    return failures


def top_regressed_phase(new_phases: "dict | None",
                        base_phases: "dict | None") -> "str | None":
    """Name the phase that grew the most between two smoke rows.

    Pre-profiling baselines carry no ``phases``; fall back to the new
    run's most expensive phase so the gate message still points at the
    place to look.
    """
    if not new_phases:
        return None
    if base_phases:
        deltas = {
            name: ph["seconds"] - base_phases.get(name, {}).get("seconds", 0.0)
            for name, ph in new_phases.items()
        }
        name = max(deltas, key=lambda k: deltas[k])
        if deltas[name] <= 0:
            return None
        ph = new_phases[name]
        return (f"{name} (+{deltas[name]:.3e}s,"
                f" {ph['classification']})")
    name = max(new_phases, key=lambda k: new_phases[k]["seconds"])
    ph = new_phases[name]
    return (f"{name} ({ph['seconds']:.3e}s of the run,"
            f" {ph['classification']}; baseline has no phase data)")
