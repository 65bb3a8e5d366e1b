"""Average Hamiltonians and how fast they converge.

The stroboscopic evolution over one control cycle is generated by an
effective Hamiltonian series. Order zero is the plain time average of
the toggled Hamiltonians, which equals the group projection applied
factor by factor. This demo measures the defect of truncating the
series, halving the segment length repeatedly, and shows the palindrome
trick that cancels the first-order term outright.

Run:
    python3 demos/03_average_hamiltonians.py
"""

from decoupling import (
    BathSpec,
    average_h0,
    average_h1,
    build_system_bath_model,
    pauli_group,
    schedule_from_group,
    symmetrize,
    truncation_error,
)

bath = BathSpec(kind="spin-bath", n_modes=4, cutoff=1.0, coupling_scale=0.4, seed=7)
model = build_system_bath_model(1, bath, coupling="dephasing")
flip = pauli_group(1, "flip")

sched = schedule_from_group(flip, delta_t=0.1)
h0 = average_h0(model, sched)
h1 = average_h1(model, sched)
print(f"|H0| = {h0.norm():.4f}   |H1| = {h1.norm():.4f}   (flip cycle, dt=0.1)")

sym = symmetrize(sched)
print(f"symmetrized cycle: {sym.n_segments} segments, "
      f"|H1| = {average_h1(model, sym).norm():.2e}")

# the model diagonalizes its joint Hamiltonian once, for the first exact cycle
print("\ntruncation defect |U_exact - exp(-i H_eff T_c)| while halving dt:")
print(f"{'dt':>8}  {'order 0':>12}  {'ratio':>6}  {'order 1':>12}  {'ratio':>6}")
prev = {0: None, 1: None}
for dt in (0.1, 0.05, 0.025, 0.0125):
    s = schedule_from_group(flip, delta_t=dt)
    errs = {order: truncation_error(model, s, order) for order in (0, 1)}
    r0 = "" if prev[0] is None else f"{prev[0] / errs[0]:6.2f}"
    r1 = "" if prev[1] is None else f"{prev[1] / errs[1]:6.2f}"
    print(f"{dt:8.4f}  {errs[0]:12.3e}  {r0:>6}  {errs[1]:12.3e}  {r1:>6}")
    prev = errs

print("\nratios near 4 and 8: the defects shrink as dt^2 and dt^3.")
