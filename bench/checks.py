"""Output checks that decide whether an op counts as failed.

Three checks, strongest first:

* reference: for the default seed, every number in ``summary.json``, the
  trajectory CSVs and ``sweep.csv``, and the ``design`` listing, agree
  with outputs taken when the benchmark was defined. Fidelity, coherence,
  trace distance and infidelity agree to 1e-10 absolute (the gate for
  replacing a numerical kernel); the sweep's log-log fit to 1e-3 absolute,
  because its smallest infidelities (about 1e-9) move in the fifth digit
  with the BLAS thread count; other numbers, mostly rates derived from
  coherences, to 1e-6 relative. Never by bytes: bytes differ across BLAS
  thread counts.
* invariants, for any seed: exit code, ``mode``, fidelities in [0, 1],
  controlled beating free where the preset promises suppression, the
  symmetric sweep's slope near 4, and ``design`` finding the expected
  minimal group order.
* determinism, within one run: every repeat of an op writes exactly the
  bytes its first call wrote (the promise at a fixed thread count).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from workloads import Op

#: Columns and keys held to the kernel-replacement gate.
STATE_TOL = 1e-10
STATE_KEY = re.compile(r"fidelity|coherence|trace_distance|infidelity")
#: The sweep's fit of log infidelity against log delta_t.
FIT_KEYS = {"slope", "intercept", "r_squared"}
FIT_TOL = 1e-3
#: Derived numbers (rates, times) amplify last-digit differences.
DERIVED_RTOL = 1e-6
SLOPE_TOL = 0.25

_DESIGN_ORDER = re.compile(r"minimal decoupling groups \(order (\d+)\):")


@dataclass(frozen=True)
class Outputs:
    """What one op produced: exit code, artifact bytes and stdout."""

    rc: int
    files: dict
    stdout: str

    def same_as(self, other: "Outputs") -> bool:
        return (self.rc, self.files, self.stdout) == (other.rc, other.files, other.stdout)


def collect(op: Op, rc: int, out_dir: Path, stdout: str) -> Outputs:
    files = {}
    for name in op.files:
        path = out_dir / name
        files[name] = path.read_bytes() if path.is_file() else None
    return Outputs(rc=rc, files=files, stdout=stdout)


def parse_csv(data: bytes) -> dict:
    lines = data.decode().strip().splitlines()
    header = [h.strip() for h in lines[0].split(",")]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return {"header": header, "rows": rows}


def parsed(op: Op, out: Outputs) -> dict:
    """The comparable content of an op's outputs."""
    doc = {"rc": out.rc}
    for name, data in out.files.items():
        if data is None:
            doc[name] = None
        elif name.endswith(".json"):
            doc[name] = json.loads(data)
        else:
            doc[name] = parse_csv(data)
    if op.command == "design":
        doc["stdout"] = out.stdout
    return doc


def _close(a, b, key: str) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if STATE_KEY.search(key):
        return abs(a - b) <= STATE_TOL
    if key in FIT_KEYS:
        return abs(a - b) <= FIT_TOL
    return abs(a - b) <= STATE_TOL + DERIVED_RTOL * abs(b)


def compare(got, want, path: str = "", key: str = "") -> list[str]:
    """Differences between two parsed documents, numbers by tolerance."""
    if isinstance(want, dict) and isinstance(got, dict):
        if "header" in want and "rows" in want:
            return _compare_table(got, want, path)
        # keys the program adds later are not compared; keys it drops fail
        missing = sorted(set(want) - set(got))
        if missing:
            return [f"{path}: missing keys {missing}"]
        out = []
        for k in sorted(want):
            out += compare(got[k], want[k], f"{path}.{k}", k)
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]", key)
        return out
    numeric = (int, float)
    if (
        isinstance(got, numeric)
        and isinstance(want, numeric)
        and not isinstance(got, bool)
        and not isinstance(want, bool)
    ):
        return [] if _close(float(got), float(want), key) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _compare_table(got: dict, want: dict, path: str) -> list[str]:
    missing = [col for col in want["header"] if col not in got["header"]]
    if missing:
        return [f"{path}: missing columns {missing}"]
    if len(got["rows"]) != len(want["rows"]):
        return [f"{path}: {len(got['rows'])} rows != {len(want['rows'])}"]
    out = []
    for c, col in enumerate(want["header"]):
        for r, (g, w) in enumerate(zip(_column(got, col), (row[c] for row in want["rows"]))):
            if not _close(g, w, col):
                out.append(f"{path} row {r} {col}: {g!r} != {w!r}")
    return out


def check_reference(op: Op, out: Outputs, reference: dict) -> list[str]:
    if op.name not in reference:
        return [f"no reference output for op {op.name!r}"]
    return compare(parsed(op, out), reference[op.name], op.name)


def _column(table: dict, name: str) -> list[float]:
    i = table["header"].index(name)
    return [row[i] for row in table["rows"]]


def check_outputs(op: Op, out: Outputs, reference: dict | None) -> list[str]:
    """Invariants, and the reference when given; malformed outputs fail."""
    try:
        problems = check_invariants(op, out)
        if reference is not None and out.rc == 0:
            problems += check_reference(op, out, reference)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"malformed outputs: {exc!r}"]
    return problems


def check_invariants(op: Op, out: Outputs) -> list[str]:
    """Seed-independent properties of an op's outputs."""
    if out.rc != 0:
        return [f"exit code {out.rc}, expected 0"]
    missing = [name for name, data in out.files.items() if data is None]
    if missing:
        return [f"missing output files {missing}"]
    doc = parsed(op, out)
    problems = []
    summary = doc.get("summary.json")
    if op.mode is not None and summary["mode"] != op.mode:
        problems.append(f"mode {summary['mode']!r}, expected {op.mode!r}")
    if op.command == "simulate":
        for name in ("trajectory.csv", "trajectory_free.csv"):
            fid = _column(doc[name], "fidelity")
            if not all(0.0 <= f <= 1.0 for f in fid):
                problems.append(f"{name}: fidelity outside [0, 1]")
        terminal = summary["terminal"]
        if op.suppresses and not terminal["fidelity_controlled"] > terminal["fidelity_free"]:
            problems.append(
                f"controlled fidelity {terminal['fidelity_controlled']!r} does not beat "
                f"free {terminal['fidelity_free']!r}"
            )
    if op.command == "sweep":
        infid = _column(doc["sweep.csv"], "terminal_infidelity")
        if not all(0.0 <= x <= 1.0 for x in infid):
            problems.append("sweep.csv: infidelity outside [0, 1]")
        if abs(summary["slope"] - op.slope) > SLOPE_TOL:
            problems.append(f"sweep slope {summary['slope']!r}, expected {op.slope} +- {SLOPE_TOL}")
    if op.design_order is not None:
        found = _DESIGN_ORDER.search(out.stdout)
        order = int(found.group(1)) if found else None
        if order != op.design_order:
            problems.append(f"design reports order {order}, expected {op.design_order}")
    return problems
