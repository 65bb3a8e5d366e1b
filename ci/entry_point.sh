#!/usr/bin/env bash
# Command-line checks of the decoupling entry point: design, simulate and
# sweep calls whose exit codes, line counts and summary keys are asserted.
#
# Usage: ci/entry_point.sh COMMAND...
#   COMMAND runs the command line, e.g. `decoupling` once the package is
#   installed, or `python -m decoupling.cli` with PYTHONPATH=src.
# `python` on PATH reads the summaries. Exits non-zero at the first failure.
set -eo pipefail
if [ $# -eq 0 ]; then
  echo "usage: $0 COMMAND..." >&2
  exit 2
fi
cli=("$@")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fit_points() {
  python -c 'import json, sys; assert json.load(open(sys.argv[1]))["fit_point_count"] == int(sys.argv[2])' "$1" "$2"
}
path_is() {
  python -c 'import json, sys; assert json.load(open(sys.argv[1]))["path"] == sys.argv[2]' "$1" "$2"
}
mode_is() {
  python -c 'import json, sys; assert json.load(open(sys.argv[1]))["mode"] == sys.argv[2]' "$1" "$2"
}

"${cli[@]}" design --interaction ZI IZ ZZ --qubits 2
words=$(python -c 'import itertools; print(*["".join(w) for w in itertools.product("IXYZ", repeat=3)][1:])')
"${cli[@]}" design --interaction $words --qubits 3 > "$work/design63.txt"
grep -q "order 64" "$work/design63.txt"
echo '{"scenario": "dephasing-echo", "seed": 7}' > "$work/echo.json"
"${cli[@]}" simulate --config "$work/echo.json" --out "$work/echo"
echo '{"scenario": "maximal-averaging", "seed": 7}' > "$work/maximal.json"
"${cli[@]}" simulate --config "$work/maximal.json" --out "$work/maximal"
echo '{"scenario": "selective-logic", "seed": 7}' > "$work/selective.json"
"${cli[@]}" simulate --config "$work/selective.json" --out "$work/selective"
echo '{"scenario": "collective-register", "seed": 7, "group": "flip"}' > "$work/flip.json"
code=0
"${cli[@]}" simulate --config "$work/flip.json" --out "$work/flip" || code=$?
test "$code" -eq 1
# a sweep rejects the same way, before any sweep point is run
echo '{"scenario": "collective-register", "seed": 7, "group": "flip", "sweep": {"parameter": "delta_t", "values": [0.05, 0.025, 0.01]}}' > "$work/flip-sweep.json"
code=0
"${cli[@]}" sweep --config "$work/flip-sweep.json" --out "$work/flip-sweep" || code=$?
test "$code" -eq 1
mode_is "$work/flip-sweep/summary.json" none
test ! -e "$work/flip-sweep/sweep.csv"
# a step exponent that overflows is an error line and exit 2, not exit 1
echo '{"scenario": "dephasing-echo", "seed": 7, "h_s": {"Z": 1e308}}' > "$work/overflow.json"
code=0
"${cli[@]}" simulate --config "$work/overflow.json" --out "$work/overflow" 2> "$work/overflow.txt" || code=$?
test "$code" -eq 2
grep -q '^error: ' "$work/overflow.txt"
test ! -e "$work/overflow"
echo '{"scenario": "dephasing-echo", "seed": 7, "symmetric": true, "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 0.025]}}' > "$work/sweep.json"
"${cli[@]}" sweep --config "$work/sweep.json" --out "$work/sweep"
echo '{"scenario": "custom", "seed": 7, "K": 1, "group": "flip", "coupling": "dephasing", "bath": {"kind": "boson-mode", "n_modes": 2, "boson_truncation": 3, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.1, "n_cycles": 20}' > "$work/boson.json"
"${cli[@]}" simulate --config "$work/boson.json" --out "$work/boson"
# the first qubit is not conserved: one joint eigh
echo '{"scenario": "custom", "seed": 7, "K": 2, "group": "full", "coupling": "dephasing", "bath": {"n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.05, "n_cycles": 20, "h_s": {"ZX": 0.2, "IX": 0.1}}' > "$work/partial.json"
"${cli[@]}" simulate --config "$work/partial.json" --out "$work/partial"
echo '{"scenario": "custom", "seed": 7, "K": 2, "group": "full", "coupling": "dephasing", "bath": {"n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.05, "n_cycles": 20, "h_s": {"ZZ": 0.2}}' > "$work/conserved.json"
"${cli[@]}" simulate --config "$work/conserved.json" --out "$work/conserved"
echo '{"scenario": "custom", "seed": 7, "K": 1, "group": "flip", "coupling": "dephasing", "bath": {"kind": "boson-mode", "n_modes": 2, "boson_truncation": 3, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.1, "n_cycles": 20, "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 0.025]}}' > "$work/boson-sweep.json"
"${cli[@]}" sweep --config "$work/boson-sweep.json" --out "$work/boson-sweep"
fit_points "$work/boson-sweep/summary.json" 3
echo '{"scenario": "custom", "seed": 7, "K": 1, "group": "flip", "coupling": "dephasing", "bath": {"n_modes": 2, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.1, "n_cycles": 100, "sample_every": 2}' > "$work/blocks.json"
"${cli[@]}" simulate --config "$work/blocks.json" --out "$work/blocks"
test $(wc -l < "$work/blocks/trajectory.csv") -eq 52
echo '{"scenario": "dephasing-echo", "seed": 7, "sweep": {"parameter": "delta_t", "values": [0.1, 0.08, 0.05]}}' > "$work/mixed.json"
"${cli[@]}" sweep --config "$work/mixed.json" --out "$work/mixed"
test $(wc -l < "$work/mixed/sweep.csv") -eq 4
fit_points "$work/mixed/summary.json" 3
path_is "$work/mixed/summary.json" modes
echo '{"scenario": "dephasing-echo", "seed": 17, "symmetric": true, "bath": {"n_modes": 5}, "sweep": {"parameter": "delta_t", "values": [0.2, 0.1, 0.05, 0.025]}}' > "$work/seed17.json"
"${cli[@]}" sweep --config "$work/seed17.json" --out "$work/seed17" > "$work/seed17.txt"
if grep -q warning "$work/seed17.txt"; then exit 1; fi
fit_points "$work/seed17/summary.json" 4
# the couplings do not commute with the bath: a sweep on the joint path
echo '{"scenario": "maximal-averaging", "seed": 7, "symmetric": true, "delta_t": 0.16, "n_cycles": 20, "sweep": {"parameter": "delta_t", "values": [0.02, 0.04, 0.08, 0.16]}}' > "$work/joint-sweep.json"
"${cli[@]}" sweep --config "$work/joint-sweep.json" --out "$work/joint-sweep"
fit_points "$work/joint-sweep/summary.json" 4
path_is "$work/joint-sweep/summary.json" joint
# the first qubit is not conserved: a joint-path sweep whose grids (10, 20 and 25 cycles) do not nest
echo '{"scenario": "custom", "seed": 7, "K": 2, "group": "full", "coupling": "dephasing", "bath": {"n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.05, "n_cycles": 20, "h_s": {"ZX": 0.2, "IX": 0.1}, "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 0.04]}}' > "$work/partial-sweep.json"
"${cli[@]}" sweep --config "$work/partial-sweep.json" --out "$work/partial-sweep"
fit_points "$work/partial-sweep/summary.json" 3
path_is "$work/partial-sweep/summary.json" joint
# a 3-qubit register under the full group: a 64-frame cycle on the joint path
echo '{"scenario": "custom", "seed": 7, "K": 3, "group": "full", "coupling": "linear-collective", "bath": {"n_modes": 3, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.02, "n_cycles": 20, "h_s": {"ZZI": 0.2}}' > "$work/k3-full.json"
"${cli[@]}" simulate --config "$work/k3-full.json" --out "$work/k3-full"
path_is "$work/k3-full/summary.json" joint
