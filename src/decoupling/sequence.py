"""Piecewise-constant control cycles built from a decoupling group.

A cycle visits every group element once, holding the control frame
constant for a fixed slice of the cycle. Between slices the frame jumps,
which in the lab corresponds to a strong instantaneous pulse equal to
``f_{j+1} f_j^dag``. The cycle is described here entirely by its frames;
:func:`boundary_pulses` recovers the pulse program when needed.

All segments of a cycle last the same ``delta_t`` (the cycle time is
divided evenly among the segments).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import Operator, STRUCT_TOL
from .groups import DecouplingGroup

_PAULI_WORD = re.compile(r"^[IXYZ]+$")


@dataclass(frozen=True)
class Segment:
    """One constant-frame slice of a cycle.

    ``frame`` is the control unitary in force during the slice and
    ``label`` names it (a Pauli word for group-derived schedules).
    """

    frame: Operator
    label: str

    def __post_init__(self):
        if not self.frame.is_unitary():
            raise ValueError(f"segment frame {self.label!r} is not unitary")


@dataclass(frozen=True)
class CycleSchedule:
    """A full control cycle: ordered segments, each lasting ``delta_t``.

    ``symmetric`` marks palindromic cycles (validated on construction by
    comparing mirrored frames). The labels and ordering of the source
    group are retained so a schedule can be serialized compactly and
    rebuilt exactly.
    """

    segments: tuple[Segment, ...]
    delta_t: float
    symmetric: bool = False
    source_group_labels: tuple[str, ...] | None = None
    ordering: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a cycle needs at least one segment")
        if not (np.isfinite(self.delta_t) and self.delta_t > 0):
            raise ValueError("delta_t must be a positive finite number")
        dims = self.segments[0].frame.dims
        for k, seg in enumerate(self.segments):
            if seg.frame.dims != dims:
                raise ValueError(f"segment {k} frame dims {seg.frame.dims} != {dims}")
        if self.symmetric:
            segs = self.segments
            for k in range(len(segs) // 2):
                a, b = segs[k].frame.matrix, segs[-1 - k].frame.matrix
                if float(np.max(np.abs(a - b))) > STRUCT_TOL:
                    raise ValueError("schedule is marked symmetric but is not palindromic")

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def cycle_time(self) -> float:
        return self.n_segments * self.delta_t

    @property
    def dims(self) -> tuple[int, ...]:
        return self.segments[0].frame.dims


def schedule_from_group(
    group: DecouplingGroup, delta_t: float, ordering: Sequence[int] | None = None
) -> CycleSchedule:
    """One segment per group element, each lasting ``delta_t``.

    ``ordering`` permutes the group's natural element order; it must be a
    permutation of ``range(group.order)``. The default visits elements in
    group order, which starts at the identity.
    """
    if ordering is None:
        ordering = tuple(range(group.order))
    else:
        ordering = tuple(int(k) for k in ordering)
        if sorted(ordering) != list(range(group.order)):
            raise ValueError(
                f"ordering must be a permutation of range({group.order}), got {list(ordering)}"
            )
    segments = tuple(
        Segment(frame=group.elements[k], label=group.labels[k]) for k in ordering
    )
    return CycleSchedule(
        segments=segments,
        delta_t=delta_t,
        symmetric=False,
        source_group_labels=group.labels,
        ordering=ordering,
    )


def symmetrize(schedule: CycleSchedule) -> CycleSchedule:
    """Mirror a cycle in time, producing a palindromic cycle.

    The segment list is followed by its reversal, every segment keeping
    its original duration (no merging of the repeated middle segment, so
    the result has exactly twice as many segments). The cycle time
    doubles; odd-order error terms of the averaged dynamics cancel.
    """
    if schedule.symmetric:
        raise ValueError("schedule is already symmetric")
    mirrored = schedule.segments + tuple(reversed(schedule.segments))
    return CycleSchedule(
        segments=mirrored,
        delta_t=schedule.delta_t,
        symmetric=True,
        source_group_labels=schedule.source_group_labels,
        ordering=schedule.ordering,
    )


def boundary_pulses(schedule: CycleSchedule) -> list[Operator]:
    """Instantaneous pulses between segments, last one closing the cycle.

    Pulse ``j`` fires at the end of segment ``j`` and equals
    ``f_{j+1} f_j^dag`` (with the frame after the last segment wrapping
    to the first), so composing ``pulse, evolve`` pairs right to left
    reproduces one cycle of the controlled evolution.
    """
    frames = [seg.frame for seg in schedule.segments]
    n = len(frames)
    return [frames[(j + 1) % n] @ frames[j].dagger() for j in range(n)]


def schedule_to_record(schedule: CycleSchedule) -> dict:
    """Compact JSON-ready description of a group-derived schedule."""
    if schedule.source_group_labels is None or schedule.ordering is None:
        raise ValueError("schedule was not built from a group; cannot serialize")
    for label in schedule.source_group_labels:
        if not _PAULI_WORD.match(label):
            raise ValueError(
                f"group label {label!r} is not a Pauli word; schedule is not serializable"
            )
    return {
        "group": list(schedule.source_group_labels),
        "delta_t": float(schedule.delta_t),
        "ordering": list(schedule.ordering),
        "symmetric": bool(schedule.symmetric),
    }


def schedule_from_record(record: dict) -> CycleSchedule:
    """Rebuild a schedule written by :func:`schedule_to_record`."""
    expected = {"group", "delta_t", "ordering", "symmetric"}
    keys = set(record)
    if keys != expected:
        missing = sorted(expected - keys)
        extra = sorted(keys - expected)
        parts = []
        if missing:
            parts.append(f"missing keys {missing}")
        if extra:
            parts.append(f"unknown keys {extra}")
        raise ValueError("bad schedule record: " + ", ".join(parts))
    group = DecouplingGroup(record["group"])
    schedule = schedule_from_group(group, float(record["delta_t"]), record["ordering"])
    if record["symmetric"]:
        schedule = symmetrize(schedule)
    return schedule
