"""Average Hamiltonians of a control cycle, order by order.

Over one cycle the joint dynamics is generated segment by segment by the
toggled Hamiltonians

    H_j = (g_j (x) 1)^dag  H  (g_j (x) 1),

and the exact cycle propagator equals ``exp(-i (H0 + H1 + ...) T_c)`` for
the series computed here. Every segment lasts ``tau = delta_t``, so the
leading term ``H0`` is the plain mean of the toggled Hamiltonians; when
the frames run over a decoupling group this is exactly the
group-averaging projector applied to each system factor, which is what
makes unwanted couplings vanish to first order. The next term,

    H1 = (-i / (2 T_c)) * tau**2 * sum_{j>l} [H_j, H_l],

is the leading correction; it flips sign under time reversal of the
cycle, so palindromic cycles cancel it identically.
"""

from __future__ import annotations

import numpy as np

from .operators import Operator, expm_hermitian
from .groups import conjugate_word, project_commutant
from .model import SystemBathModel, total_hamiltonian
from .sequence import CycleSchedule
from .evolve import _matching_model, cycle_propagator


def average_h0(model: SystemBathModel, schedule: CycleSchedule) -> Operator:
    """Zeroth-order average: the mean of the toggled Hamiltonians. A cycle visits
    every group word equally often, so that mean is the group average."""
    return project_commutant(total_hamiltonian(_matching_model(model, schedule)),
                             schedule.group)


def average_h1(model: SystemBathModel, schedule: CycleSchedule) -> Operator:
    """First-order correction from non-commuting segments.

    Every segment lasts ``tau = delta_t``. Computed with a prefix sum:
    ``sum_{j>l} tau**2 [H_j, H_l]`` equals ``sum_j [tau H_j, A_j]`` with
    ``A_j`` the accumulated earlier weighted Hamiltonians, so the cost is
    linear in segment count. The result is not Hermitized: with Pauli
    frames it comes out Hermitian entry for entry on every preset.
    """
    h = total_hamiltonian(_matching_model(model, schedule))
    tau = schedule.delta_t
    acc = np.zeros_like(h.matrix)
    prefix = np.zeros_like(h.matrix)
    for w in schedule.segments:
        hw = tau * conjugate_word(w, h.matrix)
        acc += hw @ prefix - prefix @ hw
        prefix += hw
    return Operator((-1j / (2.0 * schedule.cycle_time)) * acc, h.dims)


def truncation_error(model: SystemBathModel, schedule: CycleSchedule, order: int) -> float:
    """Frobenius distance of the truncated series from the exact cycle.

    The exact cycle comes from the model's joint spectrum, so a scan over
    schedules and orders diagonalizes the model once. ``order`` 0 keeps
    only the averaged Hamiltonian; 1 adds the first correction. The error
    contracts like the cycle time to the power ``order + 2`` as
    ``delta_t`` shrinks (one power faster again for palindromic cycles at
    order 1, whose correction vanishes).
    """
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1, got {order}")
    effective = average_h0(model, schedule)
    if order == 1:
        effective = effective + average_h1(model, schedule)
    exact = cycle_propagator(model, schedule)
    approx = expm_hermitian(effective, schedule.cycle_time)
    return float(np.linalg.norm(exact.matrix - approx.matrix))
