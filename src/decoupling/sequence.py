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

from .groups import DecouplingGroup, _code, _label
from .operators import _integer, _real


@dataclass(frozen=True)
class CycleSchedule:
    """A control cycle: ``group``'s words in ``ordering``, each held ``delta_t``.

    ``ordering`` is a permutation of ``range(group.order)``. A
    ``symmetric`` cycle appends the reversed order, doubling the number
    of segments and the cycle time. ``delta_t`` is a positive real number,
    stored as a ``float``, whose cycle time is finite; a ``ValueError`` is
    led by the field's name.
    """

    group: DecouplingGroup
    delta_t: float
    ordering: tuple[int, ...]
    symmetric: bool = False

    def __post_init__(self):
        delta_t = _real("delta_t", self.delta_t, positive=True)
        ordering = tuple(int(k) for k in self.ordering)
        if sorted(ordering) != list(range(self.group.order)):
            raise ValueError(
                f"ordering: must be a permutation of range({self.group.order}), "
                f"got {list(ordering)}"
            )
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "delta_t", delta_t)
        if not np.isfinite(self.cycle_time):
            raise ValueError(f"delta_t: the cycle time {self.n_segments} * {delta_t!r} overflows")

    @property
    def visits(self) -> tuple[int, ...]:
        """The group index of each segment's frame, in time order."""
        return self.ordering + self.ordering[::-1] if self.symmetric else self.ordering

    @property
    def segments(self) -> tuple[str, ...]:
        """The frame word of each segment, in time order."""
        return tuple(self.group.labels[k] for k in self.visits)

    @property
    def codes(self) -> np.ndarray:
        """The code of each segment's frame word, in time order."""
        return np.array([self.group.codes[k] for k in self.visits])

    @property
    def n_segments(self) -> int:
        return len(self.ordering) * (1 + self.symmetric)

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


def _check_sampling(n_cycles, sample_every) -> tuple[int, int]:
    """A run's cycle count and snapshot stride, ``(n_cycles, sample_every)``, as ints of at
    least 1, the stride dividing the count; otherwise a ``ValueError`` led by the field's
    name."""
    n, every = _integer("n_cycles", n_cycles, 1), _integer("sample_every", sample_every, 1)
    if n % every:
        raise ValueError(f"sample_every: sample_every={every} does not divide n_cycles={n}")
    return n, every


def boundary_pulses(words: Sequence[str]) -> list[str]:
    """Pulse words between segments, the last one closing the cycle.

    Pulse ``j`` fires at the end of segment ``j`` and equals
    ``f_{j+1} f_j^dag`` up to phase (the frame after the last segment
    wraps to the first): the word product of the two frames, the XOR of
    their codes.
    """
    if not words:
        raise ValueError("a cycle needs at least one word")
    n, codes = len(words[0]), [_code(w) for w in words]
    return [_label(p, n) for p in map(int.__xor__, codes[1:] + codes[:1], codes)]


def schedule_to_record(schedule: CycleSchedule) -> dict:
    """Compact JSON-ready description of a schedule."""
    return {
        "group": list(schedule.group.labels),
        "delta_t": float(schedule.delta_t),
        "ordering": list(schedule.ordering),
        "symmetric": bool(schedule.symmetric),
    }

