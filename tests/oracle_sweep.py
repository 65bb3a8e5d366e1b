"""The delta_t sweep's per-point loop, kept as an oracle for ``run_sweep``.

Every sweep point runs two full trajectories through the public
``evolve``: the controlled one and the free one (trivial group, same
cycle time, same sample grid), and compares their decay rates with
``estimate_rates``. The package makes the same controlled calls, but
evolves one free run for the finest grid and for each grid whose cycle
count divides no evolved one, and reads every other grid's free
coherence off an evolved one, every k-th sample.
"""

from decoupling import (
    SimulationRun,
    build_model,
    build_schedule,
    estimate_rates,
    evolve,
    fit_scaling_exponent,
    schedule_from_group,
    trivial_group,
)
from decoupling.scenarios import _sweep_cycle_counts


def per_point_sweep(config):
    """``(rows, fit, fit_point_count)``: one ``(delta_t, infidelity, rate record)``
    row per sweep value, and the log-log fit of every infidelity."""
    _, counts = _sweep_cycle_counts(config)
    model = build_model(config)
    rows = []
    for v, n_cycles in zip(config.sweep_values, counts):
        schedule = build_schedule(config, delta_t=v)
        free = schedule_from_group(trivial_group(config.n_qubits), schedule.cycle_time)
        controlled, free = (
            evolve(SimulationRun(model=model, schedule=s, n_cycles=n_cycles,
                                 rho_s0=config.rho_s0, sample_every=config.sample_every))
            for s in (schedule, free))
        rates = estimate_rates(controlled.times, free.coherence, controlled.coherence)
        rows.append((v, float(1.0 - controlled.fidelity[-1]), rates.to_record()))
    return rows, fit_scaling_exponent([(v, infidelity) for v, infidelity, _ in rows]), len(rows)
