"""Piecewise-constant control cycles built from a decoupling group.

A cycle is its group and the order in which it visits the group's
words: each word is held as the control frame for one slice of length
``delta_t``, and between slices the frame jumps, which in the lab is a
strong instantaneous pulse ``f_{j+1} f_j^dag``. Up to phase that pulse
is the word product of the neighbouring frames, which
:func:`boundary_pulses` computes. A symmetric cycle follows the visiting
order with its reversal, so it is palindromic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .groups import DecouplingGroup, _word_product


@dataclass(frozen=True)
class CycleSchedule:
    """A control cycle: ``group``'s words in ``ordering``, each held ``delta_t``.

    ``ordering`` is a permutation of ``range(group.order)``. A
    ``symmetric`` cycle appends the reversed order, doubling the number
    of segments and the cycle time.
    """

    group: DecouplingGroup
    delta_t: float
    ordering: tuple[int, ...]
    symmetric: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.delta_t) and self.delta_t > 0):
            raise ValueError("delta_t must be a positive finite number")
        ordering = tuple(int(k) for k in self.ordering)
        if sorted(ordering) != list(range(self.group.order)):
            raise ValueError(
                f"ordering must be a permutation of range({self.group.order}), "
                f"got {list(ordering)}"
            )
        object.__setattr__(self, "ordering", ordering)
        if not np.isfinite(self.n_segments * float(self.delta_t)):
            raise ValueError(f"delta_t={self.delta_t!r}: cycle time n_segments * delta_t overflows")

    @property
    def _visits(self) -> tuple[int, ...]:
        if self.symmetric:
            return self.ordering + self.ordering[::-1]
        return self.ordering

    @property
    def segments(self) -> tuple[str, ...]:
        """The frame word of each segment, in time order."""
        return tuple(self.group.labels[k] for k in self._visits)

    @property
    def frames(self) -> tuple[np.ndarray, ...]:
        """The frame matrix of each segment, in time order."""
        return tuple(self.group.elements[k].matrix for k in self._visits)

    @property
    def n_segments(self) -> int:
        return len(self._visits)

    @property
    def cycle_time(self) -> float:
        return self.n_segments * self.delta_t

    @property
    def dims(self) -> tuple[int, ...]:
        return self.group.dims


def schedule_from_group(
    group: DecouplingGroup, delta_t: float, ordering: Sequence[int] | None = None
) -> CycleSchedule:
    """One segment per group element, each lasting ``delta_t``.

    The default ``ordering`` visits elements in group order, which starts
    at the identity.
    """
    return CycleSchedule(group, delta_t, range(group.order) if ordering is None else ordering)


def symmetrize(schedule: CycleSchedule) -> CycleSchedule:
    """Mirror a cycle in time: its segments followed by their reversal.

    Every segment keeps its duration (the repeated middle segment is not
    merged), so the cycle time doubles; odd-order error terms of the
    averaged dynamics cancel.
    """
    if schedule.symmetric:
        raise ValueError("schedule is already symmetric")
    return replace(schedule, symmetric=True)


def boundary_pulses(words: Sequence[str]) -> list[str]:
    """Pulse words between segments, the last one closing the cycle.

    Pulse ``j`` fires at the end of segment ``j`` and equals
    ``f_{j+1} f_j^dag`` up to phase (the frame after the last segment
    wraps to the first): the word product of the two frames.
    """
    n = len(words)
    return [_word_product(words[(j + 1) % n], w) for j, w in enumerate(words)]


def schedule_to_record(schedule: CycleSchedule) -> dict:
    """Compact JSON-ready description of a schedule."""
    return {
        "group": list(schedule.group.labels),
        "delta_t": float(schedule.delta_t),
        "ordering": list(schedule.ordering),
        "symmetric": bool(schedule.symmetric),
    }

