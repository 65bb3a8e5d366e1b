"""Group averaging as a projector.

Conjugation-averaging an operator over a finite unitary group projects
it onto the group's commutant. This demo shows what survives for three
groups on one qubit, then prints the commutant of the two-qubit
collective group, the algebra that selective decoupling preserves.

Run:
    python3 demos/02_group_projector.py
"""

import numpy as np

from decoupling import (
    check_decoupling,
    commutant_basis,
    pauli_group,
    pauli_word_operator,
    project_commutant,
)

print("projection of each Pauli operator, group by group")
print(f"{'group':<12} {'X':>6} {'Y':>6} {'Z':>6}")
for name in ("flip", "collective", "full"):
    group = pauli_group(1, name)
    norms = []
    for w in "XYZ":
        p = project_commutant(pauli_word_operator(w), group)
        norms.append(f"{p.norm():.2f}")
    print(f"{name:<12} {norms[0]:>6} {norms[1]:>6} {norms[2]:>6}")
print("(flip keeps X, the full group removes everything traceless)")

print("\ncommutant of the two-qubit collective group {II, XX, YY, ZZ}:")
basis = commutant_basis(pauli_group(2, "collective"))
print(f"dimension {len(basis)}")
for word in ("II", "XX", "YY", "ZZ"):
    v = pauli_word_operator(word).matrix.ravel()
    mine = np.array([op.matrix.ravel() for op in basis])
    q, _ = np.linalg.qr(mine.T)
    res = np.linalg.norm(v - q @ (q.conj().T @ v)) / np.linalg.norm(v)
    print(f"  {word} lies in the commutant (residual {res:.1e})")

print("\ndoes the flip group decouple a dephasing interaction?")
report = check_decoupling(pauli_group(1, "flip"), [{"Z": 1.0}])
print(f"mode: {report.mode}, residuals {[f'{r:.1e}' for r in report.residuals]}, "
      f"commutant dimension {report.commutant_dimension}")

print("\n... and an interaction it cannot remove (an X coupling)?")
bad = check_decoupling(pauli_group(1, "flip"), [{"X": 1.0}])
print(f"mode: {bad.mode}, residuals {[f'{r:.1e}' for r in bad.residuals]}")
