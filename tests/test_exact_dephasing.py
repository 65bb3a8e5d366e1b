"""Both paths against the exact dephasing of a qubit by a boson bath.

``oracle_boson`` holds the closed form of the independent-boson model
under ideal flips. The product path runs it at several truncations and
mode counts, and the joint path at ``d = 288`` (two modes of 12 levels),
reached by passing the bath's ground state as ``rho_b0``. The couplings
keep ``|alpha|^2`` small enough that the truncation's Poisson tail is below
round-off. Each tolerance was set once, from the largest error measured on
these cases.
"""

import numpy as np
import pytest

from decoupling import (
    BathSpec,
    Operator,
    SimulationRun,
    build_system_bath_model,
    evolve,
    pauli_group,
    schedule_from_group,
    symmetrize,
    trivial_group,
)

import oracle_boson
import oracle_dm

#: The largest errors measured on these cases: 2.9e-15 on the product path
#: (its free runs, in closed form; 6.7e-16 stepped) and 1.6e-13 on the joint path.
TOL = {"modes": 5e-15, "joint": 3e-13}

PLUS = Operator(np.full((2, 2), 0.5, dtype=complex), [2])
DELTA_T, N_CYCLES = 0.1, 60
SCHEDULES = {
    "free": schedule_from_group(trivial_group(1), 2 * DELTA_T),
    "flip": schedule_from_group(pauli_group(1, "flip"), DELTA_T),
    "flip-palindromic": symmetrize(schedule_from_group(pauli_group(1, "flip"), DELTA_T / 2)),
}


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("path, n_modes, truncation, coupling_scale", [
    ("modes", 2, 12, 1.0), ("modes", 3, 12, 1.0), ("modes", 2, 24, 2.0), ("modes", 2, 40, 2.0),
    ("modes", 1, 40, 2.0), ("joint", 2, 12, 1.0),
])
def test_boson_dephasing_matches_the_exact_closed_form(path, n_modes, truncation,
                                                       coupling_scale, schedule, seed):
    bath = BathSpec(kind="boson-mode", n_modes=n_modes, cutoff=1.0,
                    coupling_scale=coupling_scale, seed=seed, boson_truncation=truncation)
    model = build_system_bath_model(1, bath, coupling="dephasing")
    rho_b0 = oracle_dm.bath_ground_state(model) if path == "joint" else None
    run = SimulationRun(model=model, schedule=SCHEDULES[schedule], n_cycles=N_CYCLES,
                        rho_s0=PLUS, rho_b0=rho_b0)
    assert rho_b0 is None or model.system_dim * model.bath_dim == 288
    got = evolve(run)
    want = oracle_boson.reduced_states(run)
    assert got.path == path
    if schedule == "free":
        assert want[-1, 0, 1].real < 0.499  # the free coherence visibly decays
    errors = {"states": np.max(np.abs(got.states - want)),
              # the reference is |+> itself (no h_s): the fidelity is <+|rho|+>
              "fidelity": np.max(np.abs(got.fidelity - (0.5 + want[:, 0, 1].real)))}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= TOL[path], f"{worst} misses the closed form by {errors[worst]:.3e}"
