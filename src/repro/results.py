"""The unified algorithm-result API: :class:`AlgoResult`.

Historically the ``*_scc`` entry points disagreed on their return type:
``tarjan_scc`` returned a bare label array, ``gpu_scc`` and friends
returned ad-hoc ``(labels, device)`` tuples, and ``ecl_scc`` returned
the rich :class:`~repro.core.eclscc.EclResult`.  Every entry point now
returns an :class:`AlgoResult` (or a subclass) carrying::

    result.labels     # per-vertex SCC labels (max member ID)
    result.num_sccs   # number of distinct components
    result.device     # VirtualDevice with counters (None for oracles)
    result.trace      # repro.trace.Trace when a tracer was passed

A result is not an array: label-consuming helpers take
``result.labels`` (or go through :func:`coerce_labels`).  Two results
compare equal when their labels and component counts agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

__all__ = ["AlgoResult", "Status", "count_sccs", "coerce_labels"]


class Status(str, enum.Enum):
    """Outcome classification of one algorithm run.

    Promoted from the ad-hoc strings of PR 3 so callers (notably
    :mod:`repro.serve`) can switch on terminal states safely.  The
    ``str`` mixin is the string-compat shim: every member *is* its
    legacy string (``Status.CLEAN == "clean"``, f-strings and
    ``json.dumps`` render the bare value), so existing comparisons and
    serializations are unchanged.

    Members
    -------
    CLEAN:
        no faults observed.
    RECOVERED:
        faults were injected and absorbed; labels verified.
    DEGRADED:
        permanent capacity loss absorbed by failover; labels correct,
        cost profile changed.
    """

    CLEAN = "clean"
    RECOVERED = "recovered"
    DEGRADED = "degraded"

    def __str__(self) -> str:  # stable across Python 3.10/3.11+
        return self.value

    __format__ = str.__format__


def count_sccs(labels: np.ndarray) -> int:
    """Number of distinct SCC labels (0 for an empty labelling)."""
    labels = np.asarray(labels)
    return int(np.unique(labels).size) if labels.size else 0


def coerce_labels(labels_or_result: Any) -> np.ndarray:
    """Accept an :class:`AlgoResult` or a bare array; return the array."""
    if isinstance(labels_or_result, AlgoResult):
        return np.asarray(labels_or_result.labels)
    return np.asarray(labels_or_result)


@dataclass(eq=False)
class AlgoResult:
    """Outcome of one SCC-algorithm run — the unified return contract.

    Attributes
    ----------
    labels:
        per-vertex SCC label = max vertex ID in the component.
    num_sccs:
        number of distinct components.
    device:
        the :class:`~repro.device.executor.VirtualDevice` the run was
        instrumented against, with its counters (None for serial
        oracles run without a device).
    trace:
        the :class:`~repro.trace.Trace` recorded by the ``tracer=``
        argument, or None when tracing was off.
    status:
        a :class:`Status` member — :attr:`Status.CLEAN` (no faults
        observed), :attr:`Status.RECOVERED` (faults were injected and
        absorbed; labels verified), or :attr:`Status.DEGRADED`
        (permanent loss absorbed by failover).  Always CLEAN when no
        :class:`~repro.faults.FaultPlan` was active.  Known legacy
        strings passed by constructors are coerced to the enum;
        ``result.status == "clean"`` keeps working via the ``str``
        mixin.
    fault_report:
        the run's :class:`~repro.faults.FaultReport` (every injected
        fault and recovery action), or None without a fault plan.
    """

    labels: np.ndarray
    num_sccs: int
    device: Optional[Any] = None
    trace: Optional[Any] = None
    status: "Status | str" = Status.CLEAN
    fault_report: Optional[Any] = None

    def __post_init__(self):
        # string-compat shim: constructors may still pass the legacy
        # strings; known values become Status members, unknown strings
        # pass through untouched (callers can extend the vocabulary)
        if not isinstance(self.status, Status):
            try:
                self.status = Status(self.status)
            except ValueError:
                pass

    def __eq__(self, other):
        if not isinstance(other, AlgoResult):
            return NotImplemented
        return self is other or (
            np.array_equal(self.labels, other.labels)
            and self.num_sccs == other.num_sccs
        )

    __hash__ = object.__hash__
