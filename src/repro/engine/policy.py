"""Per-round propagation policies for ECL-SCC's Phase 2.

Phase 2 is monotone max-propagation, so its fixed point does not depend
on the schedule; every engine is a different schedule over the same few
kernel steps, and each step has exactly one implementation:

* **pull relax** — :meth:`~repro.core.propagation.EdgeGrouping.relax_masked`,
  per-vertex segment maxima over grouped candidate edges (gather +
  ``np.maximum.reduceat``, no write races);
* **push relax** — :func:`scatter_max`, racy plain-write scatter maxima
  from the edge sources/destinations (the paper's §3.4 argument:
  monotone max-propagation tolerates lost updates); :func:`scatter_round`
  adds path compression restricted to the relaxed endpoints;
* **dense compression** —
  :meth:`~repro.core.signatures.Signatures.pointer_jump` and
  :meth:`~repro.core.signatures.Signatures.feedback`, each returning the
  mask of vertices it raised.

A :class:`PropagationPolicy` packages one round — consume the current
frontier, raise signatures, emit device charges, return the
changed-vertex set — so the organization can be chosen *per round*
(:mod:`repro.engine.scheduler`).  The registry ships two policies:
``dense`` (pull over every worklist edge, the sync engine's round) and
``frontier`` (push over the edges incident to the frontier).  Both the
frontier and the adaptive engines drain through
:func:`~repro.core.propagation.propagate_adaptive`; the frontier engine
pins the ``frontier`` policy, the adaptive engine lets the scheduler
pick between :data:`DEFAULT_POLICIES`.

Correctness of mixing policies across rounds: every policy performs a
monotone step of the same max-propagation join semilattice, a round that
changes nothing certifies that no plain relaxation can make progress
(edges not incident to a changed vertex relax to values they already
hold), and a monotone iteration's fixed point is schedule-independent —
so any per-round policy sequence converges to the *same* signatures,
and labels stay bit-identical to the dense engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.costmodel import STREAM_EFF, effective_bandwidth
from ..device.spec import DeviceSpec
from ..errors import AlgorithmError
from .accounting import (
    ADJACENCY_EDGE_BYTES,
    PAIR_FLAG_BYTES,
    SIGNATURE_PAIR_BYTES,
    STATUS_FLAG_BYTES,
    charge_dense_round,
    charge_frontier_round,
)
from .primitives import incident_edges

__all__ = [
    "RoundState",
    "RoundStats",
    "PropagationPolicy",
    "DensePullPolicy",
    "FrontierPushPolicy",
    "scatter_max",
    "scatter_round",
    "register_policy",
    "get_policy",
    "policy_names",
    "DEFAULT_POLICIES",
]


@dataclass
class RoundState:
    """Everything one propagation round consumes (duck-typed core state).

    The policy layer deliberately never imports :mod:`repro.core` (the
    dependency arrow points core -> engine); the driver hands the live
    core objects over through this bundle and the policies use only
    their array surface.
    """

    #: Signatures-like object exposing ``sig_in``/``sig_out`` arrays and
    #: the ``pointer_jump``/``feedback`` compression steps.
    sigs: object
    #: EdgeGrouping-like object over the current edge worklist
    #: (``src``/``dst``/``touched``/``num_edges``/``relax_masked``).
    grouping: object
    #: vertex-incidence CSR of the worklist (each edge under both
    #: endpoints), from
    #: :func:`~repro.engine.primitives.build_vertex_incidence`.
    indptr: np.ndarray
    edge_ids: np.ndarray
    #: sorted unique ids of vertices whose signatures changed last round.
    frontier: np.ndarray
    num_vertices: int
    #: apply the paper's path-compression refinements this round.
    compress: bool


@dataclass(frozen=True)
class RoundStats:
    """Backend-invariant inputs of one scheduling decision.

    ``degree_sum`` is the incidence-degree sum over the frontier; the
    incidence structure lists every edge under both endpoints, so it
    overcounts the unique incident edges a push round actually gathers
    by at most 2x — a deliberate conservative bias toward the dense
    policy (documented in ``docs/performance_model.md``).
    """

    frontier_size: int
    degree_sum: int
    worklist_edges: int
    touched: int
    num_vertices: int
    compress: bool

    @property
    def density(self) -> float:
        """Frontier-incident degree mass relative to the worklist size."""
        return self.degree_sum / max(1, self.worklist_edges)

    @property
    def avg_degree(self) -> float:
        return self.degree_sum / max(1, self.frontier_size)


def scatter_max(
    sigs, s: np.ndarray, d: np.ndarray, num_vertices: int, *, compress: bool
) -> np.ndarray:
    """Push relaxation over the edges ``s[i] -> d[i]``.

    Scatter-maxes both signature directions with racy plain writes
    (every edge proposes ``sig_out[d]`` to ``s`` and ``sig_in[s]`` to
    ``d``; with *compress* the candidate read is ``sig[sig[w]]``).
    Returns the mask of vertices whose signature rose.
    """
    sig_in, sig_out = sigs.sig_in, sigs.sig_out
    changed_v = np.zeros(num_vertices, dtype=bool)
    cand = sig_out[d]
    if compress:
        cand = sig_out[cand]
    before = sig_out[s]
    np.maximum.at(sig_out, s, cand)
    changed_v[s[sig_out[s] > before]] = True
    cand = sig_in[s]
    if compress:
        cand = sig_in[cand]
    before = sig_in[d]
    np.maximum.at(sig_in, d, cand)
    changed_v[d[sig_in[d] > before]] = True
    return changed_v


def scatter_round(
    sigs, s: np.ndarray, d: np.ndarray, num_vertices: int, *, compress: bool
) -> "tuple[np.ndarray, int]":
    """One push round over the edges ``s[i] -> d[i]``.

    :func:`scatter_max`, then (with *compress*) pointer doubling and
    signature feedback restricted to the edges' endpoints.  Returns
    ``(changed_v, compress_work)``.

    Both compression steps are idempotent under repeated vertices, so
    the host runs them once per distinct endpoint (a vertex mark array,
    no sort); ``compress_work`` still charges the device kernel's one
    thread per edge endpoint, ``2 * (s.size + d.size)``.
    """
    changed_v = scatter_max(sigs, s, d, num_vertices, compress=compress)
    if not (compress and s.size):
        return changed_v, 0
    sig_in, sig_out = sigs.sig_in, sigs.sig_out
    endpoint = np.zeros(num_vertices, dtype=bool)
    endpoint[s] = True
    endpoint[d] = True
    e = np.flatnonzero(endpoint)
    # pointer doubling restricted to the active endpoints
    ji = sig_in[sig_in[e]]
    upd = ji > sig_in[e]
    sig_in[e[upd]] = ji[upd]
    changed_v[e[upd]] = True
    jo = sig_out[sig_out[e]]
    upd = jo > sig_out[e]
    sig_out[e[upd]] = jo[upd]
    changed_v[e[upd]] = True
    changed_v |= sigs.feedback(e)
    return changed_v, 2 * (s.size + d.size)


class PropagationPolicy:
    """One round-step strategy; stateless, registered by name."""

    #: registry key.
    name: str = ""
    #: relaxation direction axis: ``"pull"`` (segment max) or ``"push"``
    #: (scatter max).
    direction: str = ""

    def run_round(self, state: RoundState, dev) -> np.ndarray:
        """Run one relaxation round; charge *dev*; return changed mask."""
        raise NotImplementedError

    def round_cost(
        self, stats: RoundStats, spec: DeviceSpec, working_set_bytes: float
    ) -> float:
        """Modelled seconds one round under *stats* would cost.

        Uses the same bandwidth arithmetic as the cost model
        (:func:`~repro.device.costmodel.effective_bandwidth`,
        ``STREAM_EFF``) on the same byte conventions the policy's charge
        helper applies, so the scheduler's forecasts and the profiler's
        attributions share one vocabulary.  Next-frontier enqueue
        atomics are identical across policies (same changed set) and are
        left out of the comparison.
        """
        raise NotImplementedError


class DensePullPolicy(PropagationPolicy):
    """Full-worklist Jacobi segment-max round (the sync engine's step)."""

    name = "dense"
    direction = "pull"

    def run_round(self, state: RoundState, dev) -> np.ndarray:
        sigs = state.sigs
        g = state.grouping
        n = state.num_vertices
        changed_v = g.relax_masked(sigs, None, n, compress=state.compress)
        compress_work = 0
        if state.compress:
            changed_v |= sigs.pointer_jump()
            changed_v |= sigs.feedback(g.touched)
            compress_work = n + g.touched.size
        enqueues = int(np.count_nonzero(changed_v))
        charge_dense_round(
            dev, edges=g.num_edges, vertices=compress_work, enqueues=enqueues
        )
        return changed_v

    def round_cost(
        self, stats: RoundStats, spec: DeviceSpec, working_set_bytes: float
    ) -> float:
        bw_irr = effective_bandwidth(spec, working_set_bytes)
        bw_str = spec.mem_bw_gbs * 1e9 * STREAM_EFF
        m = stats.worklist_edges
        seconds = m * ADJACENCY_EDGE_BYTES / bw_irr + m * PAIR_FLAG_BYTES / bw_str
        if stats.compress:
            seconds += (
                (stats.num_vertices + stats.touched)
                * SIGNATURE_PAIR_BYTES
                / bw_irr
            )
        return seconds


class FrontierPushPolicy(PropagationPolicy):
    """Frontier-incident scatter-max round (the frontier engine's step)."""

    name = "frontier"
    direction = "push"

    def run_round(self, state: RoundState, dev) -> np.ndarray:
        idx = incident_edges(state.indptr, state.edge_ids, state.frontier)
        g = state.grouping
        changed_v, compress_work = scatter_round(
            state.sigs, g.src[idx], g.dst[idx], state.num_vertices,
            compress=state.compress,
        )
        enqueues = int(np.count_nonzero(changed_v))
        charge_frontier_round(
            dev,
            edges=idx.size,
            frontier_size=state.frontier.size,
            vertices=compress_work,
            enqueues=enqueues,
        )
        return changed_v

    def round_cost(
        self, stats: RoundStats, spec: DeviceSpec, working_set_bytes: float
    ) -> float:
        bw_irr = effective_bandwidth(spec, working_set_bytes)
        bw_str = spec.mem_bw_gbs * 1e9 * STREAM_EFF
        # unique incident edges never exceed the worklist, however large
        # the (double-counting) degree sum gets
        edges = min(stats.degree_sum, stats.worklist_edges)
        seconds = (
            edges * (ADJACENCY_EDGE_BYTES + PAIR_FLAG_BYTES) / bw_irr
            + stats.frontier_size * STATUS_FLAG_BYTES / bw_str
        )
        if stats.compress:
            # compression work is 2 * |[s; d]| = 4 * edges touched
            seconds += 4 * edges * SIGNATURE_PAIR_BYTES / bw_irr
        return seconds


_POLICIES: "dict[str, PropagationPolicy]" = {}


def register_policy(policy: PropagationPolicy) -> PropagationPolicy:
    """Register *policy* under ``policy.name`` (last registration wins)."""
    if not policy.name or policy.direction not in ("push", "pull"):
        raise AlgorithmError(
            "a propagation policy needs a name and a direction"
            " ('push' or 'pull')"
        )
    _POLICIES[policy.name] = policy
    return policy


def get_policy(name: str) -> PropagationPolicy:
    """Look up a registered policy; raise listing the registry if unknown."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown propagation policy {name!r}; registered: "
            + ", ".join(sorted(_POLICIES))
        ) from None


def policy_names() -> "list[str]":
    """Registered policy names, sorted."""
    return sorted(_POLICIES)


register_policy(DensePullPolicy())
register_policy(FrontierPushPolicy())

#: the policy pair the adaptive scheduler chooses between.
DEFAULT_POLICIES = ("dense", "frontier")
