"""From interaction to pulse sequence, automatically.

Given the Pauli span of an unwanted interaction, search for the
smallest conjugation group that averages it away, then read off the
physical pulses: the unitary kicks between consecutive toggling frames.

Run:
    python3 demos/06_pulse_design.py
"""

from decoupling import boundary_pulses, minimal_group_search


for description, words in (
    ("single-qubit dephasing", ["Z"]),
    ("single qubit, all three axes", ["X", "Y", "Z"]),
    ("two-qubit crosstalk ZZ plus local Z noise", ["ZI", "IZ", "ZZ"]),
):
    hits = minimal_group_search([{w: 1.0} for w in words], n_qubits=len(words[0]))
    print(f"\ninteraction: {description}  span {words}")
    if not hits:
        print("  no Pauli decoupling group within the search cap")
        continue
    print(f"  minimal group order: {hits[0].order} ({len(hits)} group(s) found)")
    for group in hits[:3]:
        cycle = " ".join(f"dt {w}" for w in boundary_pulses(group.labels))
        print(f"  {list(group.labels)}  ->  cycle: {cycle}")

print("\nEach line reads left to right: free evolution for dt, then the "
      "pulse, repeated; after the last pulse the frame returns to the "
      "identity and the cycle restarts.")
