"""Label verification against reference oracles (paper §4).

The paper verifies every ECL-SCC run against Tarjan; :func:`verify_labels`
is that check.  Two labellings are *equivalent* when they induce the same
partition of the vertex set; because every algorithm in this library
normalizes labels to the maximum member ID, equivalence reduces to exact
array equality — but :func:`partitions_equal` also handles foreign
labelling conventions.
"""

from __future__ import annotations

import numpy as np

from ..baselines.tarjan import tarjan_scc
from ..errors import VerificationError
from ..graph.csr import CSRGraph
from ..results import coerce_labels

__all__ = [
    "partitions_equal",
    "verify_labels",
    "assert_valid_scc_labels",
    "fixed_point_offenders",
]


def partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff labellings *a* and *b* induce the same vertex partition."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    pairs = np.unique(np.stack([a, b], axis=1), axis=0)
    return (
        pairs.shape[0] == np.unique(a).size == np.unique(b).size
    )


def verify_labels(graph: CSRGraph, labels: np.ndarray, *, oracle=None) -> None:
    """Raise :class:`VerificationError` unless *labels* match the oracle.

    The default oracle is Tarjan's algorithm, per the paper's methodology.
    """
    labels = np.asarray(labels)
    if labels.size != graph.num_vertices:
        raise VerificationError(
            f"labels has {labels.size} entries for {graph.num_vertices} vertices"
        )
    truth = coerce_labels((oracle or tarjan_scc)(graph))
    if not partitions_equal(labels, truth):
        bad = int(np.count_nonzero(labels != truth))
        raise VerificationError(
            f"SCC labelling disagrees with the oracle on ~{bad} vertices"
        )


def fixed_point_offenders(graph: CSRGraph, labels: np.ndarray) -> np.ndarray:
    """Vertices on which *labels* is not a valid SCC fixed point.

    A correct max-ID SCC labelling satisfies two invariants that can be
    checked without an oracle (this is the verification guard behind
    :func:`repro.faults.heal_labels`):

    1. every label class is strongly connected — equivalently, intra-class
       forward *and* backward max-propagation both reach the class's max
       member ID at every member, and that ID is the label;
    2. the condensation of the classes is acyclic — two classes on a
       directed cycle are really one SCC split in two.

    Vertices with out-of-range labels or whose representative does not
    label itself are treated as singleton classes and flagged directly.
    Offending vertices are reported as whole classes, and classes on a
    common condensation cycle are reported together — so the returned
    set is always a union of *complete true SCCs* and can be re-solved
    as an induced subgraph in isolation.  Returns a sorted vertex array
    (empty when the labelling verifies).
    """
    n = graph.num_vertices
    labels = np.asarray(labels)
    if labels.size != n:
        raise VerificationError(
            f"labels has {labels.size} entries for {n} vertices"
        )
    if n == 0:
        return np.empty(0, dtype=np.int64)
    lab = labels.astype(np.int64, copy=False)
    structural = np.zeros(n, dtype=bool)
    valid = (lab >= 0) & (lab < n)
    structural[valid] = lab[lab[valid]] == lab[valid]
    ids = np.arange(n, dtype=np.int64)
    key = np.where(structural, lab, n + ids)

    src, dst = graph.edges()
    intra = key[src] == key[dst]
    isrc, idst = src[intra], dst[intra]
    fwd = ids.copy()
    bwd = ids.copy()
    for _ in range(n):  # pure max-propagation: fixed point within n rounds
        nxt_f = fwd.copy()
        nxt_b = bwd.copy()
        np.maximum.at(nxt_f, idst, fwd[isrc])
        np.maximum.at(nxt_b, isrc, bwd[idst])
        if np.array_equal(nxt_f, fwd) and np.array_equal(nxt_b, bwd):
            break
        fwd, bwd = nxt_f, nxt_b
    vertex_bad = ~structural | (fwd != lab) | (bwd != lab)

    # any failing member condemns its whole class
    uniq, comp = np.unique(key, return_inverse=True)
    class_bad = np.zeros(uniq.size, dtype=bool)
    np.logical_or.at(class_bad, comp, vertex_bad)

    # condensation acyclicity: classes on a cycle are one split SCC
    inter = comp[src] != comp[dst]
    if np.any(inter):
        class_graph = CSRGraph.from_edges(
            comp[src[inter]], comp[dst[inter]], uniq.size
        )
        cond = tarjan_scc(class_graph).labels
        sizes = np.bincount(cond, minlength=uniq.size)
        class_bad |= sizes[cond] > 1

    return np.flatnonzero(class_bad[comp])


def assert_valid_scc_labels(labels: np.ndarray) -> None:
    """Structural sanity: labels are the max vertex ID of their group."""
    labels = np.asarray(labels)
    n = labels.size
    if n == 0:
        return
    if labels.min() < 0 or labels.max() >= n:
        raise VerificationError("labels must be vertex IDs in [0, n)")
    # the representative of each group must be labelled by itself
    reps = np.unique(labels)
    if not np.array_equal(labels[reps], reps):
        raise VerificationError("group representatives must label themselves")
