"""Recoverability enumeration and rebuild-traffic planning."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from ..placement import Placement
from . import linear


@dataclass(frozen=True)
class RecoverabilityRow:
    failures: int
    total_patterns: int
    recoverable: int

    @property
    def fraction(self) -> float:
        return self.recoverable / self.total_patterns if self.total_patterns else 1.0


@dataclass(frozen=True)
class RecoverabilityReport:
    scheme_label: str
    rows: tuple[RecoverabilityRow, ...]


def recoverability_report(scheme, max_t: int) -> RecoverabilityReport:
    """Fraction of failure patterns of each size 0..max_t that lose no data.

    Each row reads the code's count of unrecoverable patterns of that size.
    """
    code = linear.code_of(scheme)
    if not 0 <= max_t <= code.count:
        raise ValueError(f"max_t must be within 0..{code.count}, got {max_t}")

    rows = []
    for t in range(max_t + 1):
        patterns = comb(code.count, t)
        rows.append(RecoverabilityRow(t, patterns, patterns - code.unrecoverable(t)))
    return RecoverabilityReport(scheme.label, tuple(rows))


@dataclass(frozen=True)
class RepairPlan:
    """Sources chosen to rebuild one failed fragment, and what they cost to move."""

    failed_index: int
    sources: tuple[int, ...]
    source_dcs: tuple[int, ...]
    local_transfers: int
    remote_transfers: int


def repair_plan(
    placement: Placement, failed_index: int, unavailable: tuple[int, ...] = ()
) -> RepairPlan:
    """Pick rebuild sources for one failed fragment, minimizing remote transfers.

    ``linear.repair_sources`` reads an intact local repair set whole (an LRC
    data or local-parity loss reads the rest of its group), or else asks the
    code for survivors, taken same-DC-first, that determine the fragment with
    none to spare: one replica, or m Reed-Solomon fragments.  Every index,
    failed or unavailable, must lie in 0..N-1.
    """
    code = linear.code_of(placement.scheme)
    for index in (failed_index, *unavailable):
        if not 0 <= index < code.count:
            raise ValueError(f"index {index} outside 0..{code.count - 1}")
    sources = linear.repair_sources(code, placement, failed_index, unavailable)
    assignment = placement.assignment
    dcs = tuple([assignment[s] for s in sources])
    local = dcs.count(assignment[failed_index])
    return RepairPlan(
        failed_index=failed_index,
        sources=tuple(sources),
        source_dcs=dcs,
        local_transfers=local,
        remote_transfers=len(sources) - local,
    )
