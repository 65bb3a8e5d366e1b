"""Selective decoupling: remove the bath, keep the logic.

Two qubits couple collectively to a bath, and their Hamiltonian holds
both a wanted ZZ interaction and an unwanted single-qubit stray term.
Averaging over {II, XX, YY, ZZ} removes the bath coupling and the stray
term while the ZZ interaction, which commutes with the whole group,
keeps generating entangling evolution. Fidelity is measured against
the ideal evolution under the projected Hamiltonian.

Run:
    python3 demos/05_selective_logic.py
"""

import numpy as np

from decoupling import (
    SimulationRun,
    build_model,
    build_schedule,
    check_decoupling,
    coupling_tables,
    evolve,
    observable_drift,
    parse_config,
    pauli_sum,
    pauli_word_operator,
    project_commutant,
)

cfg = parse_config({"scenario": "collective-register", "seed": 11})
model = build_model(cfg)

report = check_decoupling(cfg.group, coupling_tables(cfg.n_qubits, cfg.coupling))
print(f"mode: {report.mode} (commutant dimension {report.commutant_dimension})")
print("effective system Hamiltonian after averaging:")
kept = project_commutant(pauli_sum(model.words[0], cfg.n_qubits), cfg.group).matrix
print(np.array_str(kept.real, precision=3, suppress_small=True))
print("the 0.1 * Z x 1 stray term is gone; the 0.25 * Z x Z logic term survives")

run = SimulationRun(model=model, schedule=build_schedule(cfg),
                    n_cycles=cfg.n_cycles, rho_s0=cfg.rho_s0, sample_every=10)
traj = evolve(run)
print(f"\nterminal fidelity vs ideal projected evolution: "
      f"{traj.terminal_fidelity:.6f} over time {traj.times[-1]:.1f}")

times, zz = observable_drift(traj, pauli_word_operator("ZZ"))
print(f"\n{'time':>6}  {'<ZZ>':>8}  {'fidelity':>10}")
for k in range(len(times)):
    print(f"{times[k]:6.1f}  {zz[k]:8.4f}  {traj.fidelity[k]:10.6f}")
print("\n<ZZ> is conserved exactly by the ideal dynamics; its drift here "
      "is the residual decoherence the finite pulse rate lets through.")
