"""A first look: the two-segment echo versus free dephasing.

One qubit couples through sigma_z to a small bath of spins. Left alone,
its off-diagonal coherence decays. Interleaving the free evolution with
X pulses (the flip group {1, X}) averages the coupling away; we watch
both trajectories side by side and compare the fitted decay rates.

Run:
    python3 demos/01_echo_basics.py
"""

import numpy as np

from decoupling import (
    BathSpec,
    Operator,
    SimulationRun,
    build_system_bath_model,
    estimate_rates,
    evolve,
    pauli_group,
    schedule_from_group,
    trivial_group,
)

bath = BathSpec(kind="spin-bath", n_modes=4, cutoff=1.0, coupling_scale=0.4, seed=7)
model = build_system_bath_model(1, bath, coupling="dephasing")
print("bath mode frequencies:", [f"{w:.3f}" for w in bath.mode_frequencies])

plus = Operator(np.full((2, 2), 0.5, dtype=complex), [2])
flip = pauli_group(1, "flip")
delta_t = 0.1
n_cycles = 80

controlled = evolve(SimulationRun(
    model=model,
    schedule=schedule_from_group(flip, delta_t=delta_t),
    n_cycles=n_cycles,
    rho_s0=plus,
))

# the free run spends the same total time without any pulses: a single
# "identity" segment whose length equals one full control cycle, so its
# snapshots come in closed form, exp(-i H t), with no cycle to step
free = evolve(SimulationRun(
    model=model,
    schedule=schedule_from_group(trivial_group(1), delta_t=2 * delta_t),
    n_cycles=n_cycles,
    rho_s0=plus,
))

print(f"\n{'time':>6}  {'free coherence':>15}  {'echo coherence':>15}")
for k in range(0, len(controlled.times), 10):
    print(f"{controlled.times[k]:6.1f}  {free.coherence[k]:15.4f}  "
          f"{controlled.coherence[k]:15.4f}")

# both runs are sampled at the same times, once a cycle
rates = estimate_rates(controlled.times, free.coherence, controlled.coherence)
print(f"\nfree decay rate        {rates.gamma:.4e}")
print(f"controlled decay rate  {rates.gamma_c:.4e}")
print(f"suppression ratio      {rates.ratio:.2e}   (method: {rates.method})")
print(f"terminal fidelity      {controlled.terminal_fidelity:.6f} "
      f"vs free {free.terminal_fidelity:.6f}")
# the qubit is conserved by the coupling, so both runs are evolved mode by mode
print(f"path                   {controlled.metadata['path']}")
