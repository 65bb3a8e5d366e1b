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
# the summary's path_reason holds the given text
reason_has() {
  python -c 'import json, sys; assert sys.argv[2] in json.load(open(sys.argv[1]))["diagnostics"]["path_reason"]' "$1" "$2"
}
# the summary's h_s_kept (or h_s_removed) words are exactly the given ones
words_are() {
  python -c 'import json, sys; assert sorted(json.load(open(sys.argv[1]))[sys.argv[2]]) == sys.argv[3:]' "$@"
}
# refuses FIELD OUT COMMAND...: the command exits 2 with an `error:` line naming FIELD
# and leaves no OUT behind; the address-space limit keeps a broken check (one that
# lets a run start allocating) from exhausting the machine
refuses() {
  local field=$1 out=$2 code=0
  shift 2
  (ulimit -v 2000000; "$@") 2> "$work/refused.txt" || code=$?
  test "$code" -eq 2
  grep "^error: " "$work/refused.txt" | grep -qF -- "$field"
  test ! -e "$out"
}

# the listing's length and order: 16 groups of order 4, two lines each
"${cli[@]}" design --interaction ZI IZ ZZ --qubits 2 > "$work/design2.txt"
test $(wc -l < "$work/design2.txt") -eq 34
test $(grep -c "^  group " "$work/design2.txt") -eq 16
grep -m1 "^  group " "$work/design2.txt" | grep -qF "group ['II', 'IX', 'XI', 'XX']"
words=$(python -c 'import itertools; print(*["".join(w) for w in itertools.product("IXYZ", repeat=3)][1:])')
"${cli[@]}" design --interaction $words --qubits 3 > "$work/design63.txt"
grep -q "order 64" "$work/design63.txt"
# the benchmark's 3-qubit interaction: 2 groups of order 2, in word order
"${cli[@]}" design --interaction ZII IZI IIZ XXI IXX --qubits 3 > "$work/design3.txt"
grep -qx "minimal decoupling groups (order 2):" "$work/design3.txt"
test $(grep -c "^  group " "$work/design3.txt") -eq 2
grep -m1 "^  group " "$work/design3.txt" | grep -qF "group ['III', 'XYX']"
echo '{"scenario": "dephasing-echo", "seed": 7}' > "$work/echo.json"
"${cli[@]}" simulate --config "$work/echo.json" --out "$work/echo"
mode_is "$work/echo/summary.json" selective
reason_has "$work/echo/summary.json" "the register is conserved"
echo '{"scenario": "maximal-averaging", "seed": 7}' > "$work/maximal.json"
"${cli[@]}" simulate --config "$work/maximal.json" --out "$work/maximal"
mode_is "$work/maximal/summary.json" maximal
words_are "$work/maximal/summary.json" h_s_removed X Z
echo '{"scenario": "selective-logic", "seed": 7}' > "$work/selective.json"
"${cli[@]}" simulate --config "$work/selective.json" --out "$work/selective"
mode_is "$work/selective/summary.json" selective
words_are "$work/selective/summary.json" h_s_kept XX
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
# a coefficient whose phase a double cannot resolve is a config error naming
# the field and exit 2, not exit 1, before any output is written
echo '{"scenario": "dephasing-echo", "seed": 7, "h_s": {"Z": 1e308}}' > "$work/overflow.json"
refuses "config field 'h_s.Z'" "$work/overflow" "${cli[@]}" simulate --config "$work/overflow.json" --out "$work/overflow"
echo '{"scenario": "dephasing-echo", "seed": 7, "h_s": {"Z": 1e200}}' > "$work/overflow2.json"
refuses "config field 'h_s.Z'" "$work/overflow2" "${cli[@]}" simulate --config "$work/overflow2.json" --out "$work/overflow2"
# a coupling scale whose square is subnormal is a config error naming the field
echo '{"scenario": "collective-register", "seed": 7, "bath": {"coupling_scale": 1e-320}}' > "$work/underflow.json"
refuses "config field 'bath.coupling_scale'" "$work/underflow" "${cli[@]}" simulate --config "$work/underflow.json" --out "$work/underflow"
# a group word that repeats an earlier one is named by its index
echo '{"scenario": "dephasing-echo", "seed": 7, "group": ["I", "X", "X"]}' > "$work/repeat.json"
refuses "config field 'group[2]'" "$work/repeat" "${cli[@]}" simulate --config "$work/repeat.json" --out "$work/repeat"
echo '{"scenario": "dephasing-echo", "seed": 7, "coupling": "nope"}' > "$work/nope.json"
refuses "config field 'coupling'" "$work/nope" "${cli[@]}" simulate --config "$work/nope.json" --out "$work/nope"
# a subnormal delta_t divides the total time into infinitely many cycles
echo '{"scenario": "dephasing-echo", "seed": 7, "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 1e-320]}}' > "$work/subnormal-sweep.json"
refuses "config field 'sweep.values[2]'" "$work/subnormal-sweep" "${cli[@]}" sweep --config "$work/subnormal-sweep.json" --out "$work/subnormal-sweep"
# design names the flag of a bad word (and makes no directory)
refuses "--interaction: 'ZQ'" "$work/design-zq" "${cli[@]}" design --interaction ZQ --qubits 2
# |0> does not dephase: every infidelity is 0.0, the fit cannot be made, and
# the sweep exits 2 naming the points, leaving no output directory behind
echo '{"scenario": "custom", "seed": 7, "K": 1, "coupling": "dephasing", "group": "flip", "rho_s0": "zero", "bath": {"n_modes": 3, "cutoff": 1.0, "coupling_scale": 0.2}, "delta_t": 0.1, "n_cycles": 8, "sweep": {"parameter": "delta_t", "values": [0.2, 0.1, 0.05]}}' > "$work/zero-sweep.json"
refuses "sweep.values[0] (delta_t 0.2) has infidelity" "$work/zero-sweep" "${cli[@]}" sweep --config "$work/zero-sweep.json" --out "$work/zero-sweep"
echo '{"scenario": "dephasing-echo", "seed": 7, "symmetric": true, "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 0.025]}}' > "$work/sweep.json"
"${cli[@]}" sweep --config "$work/sweep.json" --out "$work/sweep"
fit_points "$work/sweep/summary.json" 3
path_is "$work/sweep/summary.json" modes
echo '{"scenario": "custom", "seed": 7, "K": 1, "group": "flip", "coupling": "dephasing", "bath": {"kind": "boson-mode", "n_modes": 2, "boson_truncation": 3, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.1, "n_cycles": 20}' > "$work/boson.json"
"${cli[@]}" simulate --config "$work/boson.json" --out "$work/boson"
path_is "$work/boson/summary.json" modes
# X in h_s: the register is not conserved, so the joint Hamiltonian carries the boson bath blocks
echo '{"scenario": "custom", "seed": 7, "K": 1, "group": "flip", "coupling": "dephasing", "h_s": {"X": 0.2}, "bath": {"kind": "boson-mode", "n_modes": 2, "boson_truncation": 3, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.1, "n_cycles": 20}' > "$work/boson-joint.json"
"${cli[@]}" simulate --config "$work/boson-joint.json" --out "$work/boson-joint"
path_is "$work/boson-joint/summary.json" joint
reason_has "$work/boson-joint/summary.json" "h_s word 'X'"
# the first qubit is not conserved: one joint eigh
echo '{"scenario": "custom", "seed": 7, "K": 2, "group": "full", "coupling": "dephasing", "bath": {"n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.05, "n_cycles": 20, "h_s": {"ZX": 0.2, "IX": 0.1}}' > "$work/partial.json"
"${cli[@]}" simulate --config "$work/partial.json" --out "$work/partial"
path_is "$work/partial/summary.json" joint
echo '{"scenario": "custom", "seed": 7, "K": 2, "group": "full", "coupling": "dephasing", "bath": {"n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.05, "n_cycles": 20, "h_s": {"ZZ": 0.2}}' > "$work/conserved.json"
"${cli[@]}" simulate --config "$work/conserved.json" --out "$work/conserved"
path_is "$work/conserved/summary.json" modes
echo '{"scenario": "custom", "seed": 7, "K": 1, "group": "flip", "coupling": "dephasing", "bath": {"kind": "boson-mode", "n_modes": 2, "boson_truncation": 3, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.1, "n_cycles": 20, "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 0.025]}}' > "$work/boson-sweep.json"
"${cli[@]}" sweep --config "$work/boson-sweep.json" --out "$work/boson-sweep"
fit_points "$work/boson-sweep/summary.json" 3
path_is "$work/boson-sweep/summary.json" modes
# X in h_s: a boson-bath sweep on the joint path
echo '{"scenario": "custom", "seed": 7, "K": 1, "group": "flip", "coupling": "dephasing", "h_s": {"X": 0.2}, "bath": {"kind": "boson-mode", "n_modes": 2, "boson_truncation": 3, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.1, "n_cycles": 20, "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 0.025]}}' > "$work/boson-joint-sweep.json"
"${cli[@]}" sweep --config "$work/boson-joint-sweep.json" --out "$work/boson-joint-sweep"
fit_points "$work/boson-joint-sweep/summary.json" 3
path_is "$work/boson-joint-sweep/summary.json" joint
echo '{"scenario": "custom", "seed": 7, "K": 1, "group": "flip", "coupling": "dephasing", "bath": {"n_modes": 2, "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.1, "n_cycles": 100, "sample_every": 2}' > "$work/every-2.json"
"${cli[@]}" simulate --config "$work/every-2.json" --out "$work/every-2"
test $(wc -l < "$work/every-2/trajectory.csv") -eq 52
path_is "$work/every-2/summary.json" modes
# a run whose snapshots cannot be held is refused on n_cycles before anything is allocated
echo '{"scenario": "dephasing-echo", "seed": 7, "n_cycles": 100000000}' > "$work/too-long.json"
refuses "config field 'n_cycles'" "$work/too-long" "${cli[@]}" simulate --config "$work/too-long.json" --out "$work/too-long"
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
mode_is "$work/k3-full/summary.json" maximal
