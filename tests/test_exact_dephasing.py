"""Both paths against the exact dephasing of a qubit by a boson bath.

``oracle_boson`` holds the closed form of the independent-boson model
under ideal flips. The product path runs it at several truncations and
mode counts, and the joint path at ``d = 288`` (two modes of 12 levels),
reached by passing the bath's ground state as ``rho_b0``. The couplings
keep ``|alpha|^2`` small enough that the truncation's Poisson tail is below
round-off. Each tolerance was set once, from the largest error measured on
these cases. The CI's boson sweep is checked the same way: each point's
infidelity and the fitted slope against the closed form's.
"""

import json

import numpy as np
import pytest

from decoupling import (
    BathSpec,
    Operator,
    SimulationRun,
    build_model,
    build_schedule,
    build_system_bath_model,
    evolve,
    fit_scaling_exponent,
    parse_config,
    pauli_group,
    run_sweep,
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


#: The CI's product-path boson sweep: flip pulses at three spacings over one total time.
CI_SWEEP = {"scenario": "custom", "K": 1, "group": "flip", "coupling": "dephasing",
            "bath": {"kind": "boson-mode", "n_modes": 2, "boson_truncation": 3, "cutoff": 1.0,
                     "coupling_scale": 0.3},
            "delta_t": 0.1, "n_cycles": 20,
            "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 0.025]}}

#: The largest errors measured on the CI sweep at seeds 7 and 1009: 1.9e-9 in the
#: slope and 2.6e-9 relative in a point's infidelity (3.1e-13 absolute, at
#: delta_t 0.1: the three-level truncation's Poisson tail, ``|alpha|**6 / 6``).
SWEEP_TOL = 1e-8


@pytest.mark.parametrize("seed", [7, 1009])
def test_the_sweep_slope_matches_exact_physics(tmp_path, seed):
    """The infidelity of each point of the CI's boson sweep, and the log-log slope
    ``run_sweep`` writes, against the exact closed form: ``|+>`` under no ``h_s``
    has the reference ``|+>`` itself, so the terminal infidelity is
    ``0.5 (1 - factor(T))``, fitted by the same least squares."""
    config = parse_config({**CI_SWEEP, "seed": seed})
    assert run_sweep(config, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["path"] == "modes"
    model = build_model(config)
    exact = [0.5 * (1.0 - oracle_boson.coherence_factor(
                 SimulationRun(model, build_schedule(config, delta_t=v), n, config.rho_s0))[-1])
             for v, n in zip(config.sweep_values, summary["sweep"]["n_cycles"])]
    for point, want in zip(summary["points"], exact):
        assert abs(point["infidelity"] - want) <= SWEEP_TOL * want
    slope = fit_scaling_exponent(list(zip(config.sweep_values, exact))).slope
    assert abs(summary["slope"] - slope) <= SWEEP_TOL
