"""Signature arrays for ECL-SCC (paper §3, Algorithm 1 lines 3-6).

Each vertex v carries two signature values:

* ``sig_in[v]``  — the maximum vertex ID found so far on any path *into* v
  (an ancestor of v, or v itself), and
* ``sig_out[v]`` — the maximum vertex ID found so far on any path *out of*
  v (a descendant of v, or v itself).

Both are initialized to ``v`` and only ever increase (the max operation is
monotonic — the paper's termination argument, §3.2.2).  The invariant that
makes path compression legal is maintained throughout:

    ``sig_in[v]`` can reach v; v can reach ``sig_out[v]``   (in the current
    worklist graph, or the value equals v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..types import VERTEX_DTYPE

__all__ = ["Signatures"]


@dataclass
class Signatures:
    """The pair of per-vertex signature arrays."""

    sig_in: np.ndarray
    sig_out: np.ndarray

    @classmethod
    def identity(cls, num_vertices: int) -> "Signatures":
        """Phase-1 initialization: ``v_in = v_out = v_id`` for every v."""
        return cls(
            np.arange(num_vertices, dtype=VERTEX_DTYPE),
            np.arange(num_vertices, dtype=VERTEX_DTYPE),
        )

    def reinit(self, vertices: "np.ndarray | None" = None) -> None:
        """In-place Phase-1 re-initialization (avoids reallocating).

        With *vertices*, only that subset returns to its identity
        signature — the frontier engine's partial re-init, which leaves
        completed vertices' (label:label) pairs untouched (they are at
        their fixed point already; re-deriving them is pure waste).
        """
        if vertices is None:
            n = self.sig_in.size
            self.sig_in[:] = np.arange(n, dtype=VERTEX_DTYPE)
            self.sig_out[:] = np.arange(n, dtype=VERTEX_DTYPE)
        else:
            ids = np.asarray(vertices).astype(VERTEX_DTYPE, copy=False)
            self.sig_in[ids] = ids
            self.sig_out[ids] = ids

    def completed(self) -> np.ndarray:
        """Boolean mask of vertices whose signatures match (SCC identified)."""
        return self.sig_in == self.sig_out

    def pointer_jump(self) -> np.ndarray:
        """One pointer-doubling step on both arrays; returns the moved mask.

        ``sig_out[v]`` names a descendant y; y's own ``sig_out`` names a
        descendant of y, hence of v, and is >= y by monotonicity — so
        ``sig_out <- sig_out[sig_out]`` is a pure improvement.  Symmetric
        for ``sig_in``.  This is the first half of the paper's
        path-compression optimization (using ``in[in[v]]``/``out[out[v]]``).
        The returned boolean mask marks every vertex whose in- or
        out-signature rose.
        """
        jumped_in = self.sig_in[self.sig_in]
        jumped_out = self.sig_out[self.sig_out]
        moved = (jumped_in != self.sig_in) | (jumped_out != self.sig_out)
        self.sig_in = jumped_in
        self.sig_out = jumped_out
        return moved

    def feedback(self, vertices: "np.ndarray | None" = None) -> np.ndarray:
        """The paper's signature-feedback rule (§3.3, second refinement).

        For a vertex v with signature x:y (x = ``sig_in[v]``, an ancestor;
        y = ``sig_out[v]``, a descendant):

        * every descendant of v shares v's ancestors, so y's in-signature
          may absorb v's:  ``sig_in[y] <- max(sig_in[y], sig_in[v])``;
        * every ancestor of v shares v's descendants, so x's out-signature
          may absorb v's: ``sig_out[x] <- max(sig_out[x], sig_out[v])``.

        This is the provably-safe reading of the paper's "update the
        signature of vertex s with value t" step and matches its stated
        justification sentence verbatim.  Applied to *vertices* (default:
        all); returns the boolean mask of vertices whose signature rose.
        """
        if vertices is None:
            sig_in_v = self.sig_in
            sig_out_v = self.sig_out
        else:
            sig_in_v = self.sig_in[vertices]
            sig_out_v = self.sig_out[vertices]
        # change detection via gathers at the touched targets only, not a
        # before/after compare of the whole arrays
        changed = np.zeros(self.sig_in.size, dtype=bool)
        before = self.sig_in[sig_out_v]
        np.maximum.at(self.sig_in, sig_out_v, sig_in_v)
        changed[sig_out_v[self.sig_in[sig_out_v] > before]] = True
        before = self.sig_out[sig_in_v]
        np.maximum.at(self.sig_out, sig_in_v, sig_out_v)
        changed[sig_in_v[self.sig_out[sig_in_v] > before]] = True
        return changed
