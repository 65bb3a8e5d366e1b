"""Named experiment presets, strict config parsing, and artifact output.

A scenario bundles everything one controlled-versus-free comparison
needs: a system-bath model, a decoupling group, a cycle schedule, and an
initial state. Four named presets pin the standard register experiments
(single-qubit echo, collective-noise register, full averaging, engineered
logic under decoupling); ``custom`` starts from nothing and takes every
field from the config document.

Config documents are single JSON objects. Validation is strict: unknown
keys anywhere are hard errors carrying the offending path, and the seed
is mandatory, so a run is fully determined by its config. All output
files (trajectory CSVs, sweep CSV, summary JSON) are written with
shortest round-trip float formatting and sorted keys; repeated runs of
the same config are byte-identical. Wall-clock timestamps go to
``run.log`` only.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .operators import DIM_CAP, Operator
from .model import (
    BATH_KINDS,
    COUPLING_KINDS,
    BathSpec,
    SystemBathModel,
    bath_capacity_problem,
    build_system_bath_model,
    coupling_tables,
)
from .groups import DecouplingGroup, check_decoupling, pauli_group, pauli_sum, trivial_group
from .sequence import CycleSchedule, schedule_from_group, schedule_to_record
from .evolve import SimulationRun, estimate_rates, evolve, fit_scaling_exponent

SCENARIO_NAMES = (
    "dephasing-echo",
    "collective-register",
    "maximal-averaging",
    "selective-logic",
    "custom",
)

_TOP_KEYS = {
    "scenario", "seed", "K", "bath", "group", "delta_t", "n_cycles",
    "symmetric", "sweep", "output_dir", "coupling", "h_s", "rho_s0",
    "sample_every",
}
_BATH_KEYS = {"kind", "n_modes", "cutoff", "coupling_scale", "boson_truncation", "seed"}
_SWEEP_KEYS = {"parameter", "values"}

#: Frozen defaults for the named presets. ``custom``'s entries, which fix
#: no physics, are every preset's base; a user config overrides any field.
PRESETS: dict[str, dict] = {
    "dephasing-echo": {
        "K": 1,
        "coupling": "dephasing",
        "bath": {"kind": "spin-bath", "n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.4},
        "group": "flip",
        "delta_t": 0.1,
        "n_cycles": 80,
    },
    "collective-register": {
        "K": 2,
        "coupling": "linear-collective",
        "bath": {"kind": "spin-bath", "n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.2},
        "group": "collective",
        "delta_t": 0.05,
        "n_cycles": 60,
        "h_s": {"ZZ": 0.25, "ZI": 0.1},
    },
    "maximal-averaging": {
        "K": 1,
        "coupling": "total",
        "bath": {"kind": "spin-bath", "n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.4},
        "group": "full",
        "delta_t": 0.05,
        "n_cycles": 50,
        "h_s": {"X": 0.3, "Z": 0.2},
        "rho_s0": "tilted",
    },
    "selective-logic": {
        "K": 2,
        "coupling": "linear-collective",
        "bath": {"kind": "spin-bath", "n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.2},
        "group": "collective",
        "delta_t": 0.05,
        "n_cycles": 60,
        "h_s": {"XX": 0.2},
        "rho_s0": "zero",
    },
    "custom": {
        "symmetric": False,
        "h_s": {},
        "rho_s0": "plus",
        "sample_every": 1,
    },
}


class ConfigError(ValueError):
    """Config document rejected; the message carries the field path."""


def _fail(path: str, msg: str):
    raise ConfigError(f"config field {path!r}: {msg}")


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        _fail(f"{path}{key}", "required field is missing")
    return doc[key]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if type(value) is not int:
        _fail(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _as_number(value, path: str, positive: bool = False) -> float:
    if type(value) is bool or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    v = float(value)
    if not math.isfinite(v):
        _fail(path, "must be finite")
    if positive and v <= 0:
        _fail(path, f"must be positive, got {v}")
    return v


def _as_bool(value, path: str) -> bool:
    if type(value) is not bool:
        _fail(path, f"expected a boolean, got {type(value).__name__}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _check_keys(doc: dict, allowed: set, path: str):
    if not isinstance(doc, dict):
        _fail(path.rstrip(".") or "<root>", "expected an object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        _fail(f"{path}{unknown[0]}", "unknown key")


def _named_state(name: str, n_qubits: int, path: str) -> Operator:
    single = {
        "plus": np.array([1.0, 1.0]) / math.sqrt(2.0),
        "zero": np.array([1.0, 0.0]),
        "tilted": np.array([math.cos(math.pi / 5), math.sin(math.pi / 5)]),
    }
    if name not in single:
        _fail(path, f"unknown initial state {name!r}; expected one of {sorted(single)}")
    psi = np.array([1.0])
    for _ in range(n_qubits):
        psi = (psi[:, None] * single[name]).ravel()
    return Operator(np.outer(psi, psi.conj()), (2,) * n_qubits)


def _system_hamiltonian(table: dict, n_qubits: int, path: str) -> Operator:
    if not isinstance(table, dict):
        _fail(path, "expected an object mapping Pauli words to real coefficients")
    for word in sorted(table):
        _as_number(table[word], f"{path}.{word}")
        if len(word) != n_qubits or any(c not in "IXYZ" for c in word):
            _fail(f"{path}.{word}", f"not a {n_qubits}-letter Pauli word")
    return pauli_sum(table, n_qubits)


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario: validated objects, not raw JSON values."""

    scenario: str
    seed: int
    n_qubits: int
    bath: BathSpec
    group: DecouplingGroup
    delta_t: float
    n_cycles: int
    symmetric: bool
    coupling: str
    h_s: Operator
    rho_s0: Operator
    sample_every: int
    sweep_values: tuple[float, ...] | None
    output_dir: str | None


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a config document and resolve it against its preset.

    Unknown keys anywhere are hard errors; every error message names the
    offending field path. The ``seed`` field is mandatory.
    """
    _check_keys(doc, _TOP_KEYS, "")
    scenario = _as_str(_require(doc, "scenario", ""), "scenario")
    if scenario not in SCENARIO_NAMES:
        _fail("scenario", f"unknown scenario {scenario!r}; expected one of {SCENARIO_NAMES}")
    seed = _as_int(_require(doc, "seed", ""), "seed", minimum=0)

    preset = PRESETS[scenario]
    merged = {**PRESETS["custom"], **preset}
    merged_bath = dict(preset.get("bath", {}))
    for key, value in doc.items():
        if key == "bath":
            _check_keys(value, _BATH_KEYS, "bath.")
            merged_bath.update(value)
        else:
            merged[key] = value

    n_qubits = _as_int(_require(merged, "K", ""), "K", minimum=1)
    if n_qubits >= DIM_CAP.bit_length():  # 2**K > DIM_CAP, with no huge 2**K formed
        _fail("K", f"register dimension 2**{n_qubits} exceeds the cap {DIM_CAP}")

    merged_bath.setdefault("kind", "spin-bath")
    for key in ("n_modes", "cutoff", "coupling_scale"):
        if key not in merged_bath:
            _fail(f"bath.{key}", "required field is missing")
    kind = _as_str(merged_bath["kind"], "bath.kind")
    if kind not in BATH_KINDS:
        _fail("bath.kind", f"unknown bath kind {kind!r}; expected one of {BATH_KINDS}")
    truncated = merged_bath.get("boson_truncation") is not None
    if kind == "boson-mode" and not truncated:
        _fail("bath.boson_truncation", "required for boson-mode baths")
    if kind != "boson-mode" and truncated:
        _fail("bath.boson_truncation", "only applies to boson-mode baths")
    n_modes = _as_int(merged_bath["n_modes"], "bath.n_modes", minimum=1)
    truncation = (
        _as_int(merged_bath["boson_truncation"], "bath.boson_truncation", minimum=2)
        if truncated else None
    )
    local = truncation or 2
    # the exponent stops where the product already exceeds the cap, so a
    # huge n_modes never becomes a huge integer
    if 2**n_qubits * local ** min(n_modes, DIM_CAP.bit_length()) > DIM_CAP:
        _fail("bath.n_modes", f"joint dimension 2**{n_qubits} * {local}**{n_modes} "
                              f"exceeds the cap {DIM_CAP}")
    bath = BathSpec(
        kind=kind,
        n_modes=n_modes,
        cutoff=_as_number(merged_bath["cutoff"], "bath.cutoff", positive=True),
        coupling_scale=_as_number(
            merged_bath["coupling_scale"], "bath.coupling_scale", positive=True
        ),
        seed=_as_int(merged_bath.get("seed", seed), "bath.seed", minimum=0),
        boson_truncation=truncation,
    )

    group_field = _require(merged, "group", "")
    if isinstance(group_field, str):
        if group_field == "trivial":
            group = trivial_group(n_qubits)
        elif group_field in ("full", "collective", "flip"):
            try:
                group = pauli_group(n_qubits, group_field)
            except ValueError as exc:
                _fail("group", str(exc))
        else:
            _fail("group", f"unknown group variant {group_field!r}")
    elif isinstance(group_field, list):
        words = [_as_str(w, f"group[{i}]") for i, w in enumerate(group_field)]
        for i, w in enumerate(words):
            if len(w) != n_qubits:
                _fail(f"group[{i}]", f"Pauli word {w!r} is not {n_qubits} letters")
        try:
            group = DecouplingGroup(words)
        except ValueError as exc:
            _fail("group", str(exc))
    else:
        _fail("group", "expected a named variant or a list of Pauli words")

    coupling = _as_str(_require(merged, "coupling", ""), "coupling")
    if coupling not in COUPLING_KINDS:
        _fail("coupling", f"unknown coupling {coupling!r}; expected one of {COUPLING_KINDS}")
    problem = bath_capacity_problem(bath, n_qubits, coupling)
    if problem is not None:
        _fail(*problem)
    h_s = _system_hamiltonian(merged.get("h_s", {}), n_qubits, "h_s")
    rho_s0 = _named_state(_as_str(merged["rho_s0"], "rho_s0"), n_qubits, "rho_s0")

    sweep_values = None
    if "sweep" in merged and merged["sweep"] is not None:
        sweep = merged["sweep"]
        _check_keys(sweep, _SWEEP_KEYS, "sweep.")
        parameter = _as_str(_require(sweep, "parameter", "sweep."), "sweep.parameter")
        if parameter != "delta_t":
            _fail("sweep.parameter", f"only 'delta_t' sweeps are supported, got {parameter!r}")
        raw_values = _require(sweep, "values", "sweep.")
        if not isinstance(raw_values, list) or len(raw_values) < 3:
            _fail("sweep.values", "need a list of at least 3 values")
        sweep_values = tuple(
            _as_number(v, f"sweep.values[{i}]", positive=True) for i, v in enumerate(raw_values)
        )
        for i, v in enumerate(sweep_values):
            if v in sweep_values[:i]:
                _fail(f"sweep.values[{i}]",
                      f"repeats {v!r}, sweep.values[{sweep_values.index(v)}]")

    output_dir = merged.get("output_dir")
    if output_dir is not None:
        output_dir = _as_str(output_dir, "output_dir")

    return ScenarioConfig(
        scenario=scenario,
        seed=seed,
        n_qubits=n_qubits,
        bath=bath,
        group=group,
        delta_t=_as_number(_require(merged, "delta_t", ""), "delta_t", positive=True),
        n_cycles=_as_int(_require(merged, "n_cycles", ""), "n_cycles", minimum=1),
        symmetric=_as_bool(merged["symmetric"], "symmetric"),
        coupling=coupling,
        h_s=h_s,
        rho_s0=rho_s0,
        sample_every=_as_int(merged["sample_every"], "sample_every", minimum=1),
        sweep_values=sweep_values,
        output_dir=output_dir,
    )


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return parse_config(doc)


def build_model(config: ScenarioConfig) -> SystemBathModel:
    return build_system_bath_model(
        config.n_qubits, config.bath, coupling=config.coupling, h_s=config.h_s
    )


def build_schedule(config: ScenarioConfig, delta_t: float | None = None) -> CycleSchedule:
    return CycleSchedule(config.group, config.delta_t if delta_t is None else delta_t,
                         range(config.group.order), config.symmetric)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _feasibility(omega_c_delta_t: float) -> str:
    if omega_c_delta_t <= 1.0:
        return (
            f"omega_c*delta_t = {omega_c_delta_t!r}: cycle resolves the bath memory time; "
            "suppression expected"
        )
    return (
        f"omega_c*delta_t = {omega_c_delta_t!r}: cycle slower than the bath memory time; "
        "suppression not expected"
    )


def _command(config: ScenarioConfig, out_dir, body) -> int:
    """The frame ``simulate`` and ``sweep`` run in; returns the process exit code.

    Makes ``out_dir`` and checks that the group averages the coupling away.
    A group that does not (mode ``none``) is rejected: the per-channel
    residual table goes to stdout, ``summary.json`` holds the residuals, no
    model is built, and the code is 1. Otherwise ``body(model, out, report)``
    runs on the one model and returns the summary keys past the shared
    ``scenario``/``seed``/``mode`` head and the text to print. Either way
    the frame writes ``summary.json`` and ``run.log``; if the run raises,
    an ``out_dir`` it made that is still empty is removed.
    """
    t_start = time.time()
    out = Path(out_dir)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        report = check_decoupling(config.group, coupling_tables(config.n_qubits, config.coupling))
        if report.mode == "none":
            omega_c_delta_t = config.bath.cutoff * config.delta_t
            keys = {
                "commutant_dimension": report.commutant_dimension,
                "residuals": [float(r) for r in report.residuals],
                "omega_c_delta_t": omega_c_delta_t,
                "feasibility": _feasibility(omega_c_delta_t),
            }
            text = "\n".join([
                f"group does not decouple this interaction (mode = {report.mode})",
                "coupling channel residuals after group averaging:",
                *(f"  S[{i}]: |projection| = {r:.3e}" for i, r in enumerate(report.residuals)),
            ])
            status, code = "rejected: mode none", 1
        else:
            keys, text = body(build_model(config), out, report)
            status, code = "ok", 0
        summary = {"scenario": config.scenario, "seed": config.seed, "mode": report.mode, **keys}
        (out / "summary.json").write_text(_json_text(summary))
        _write_log(out, config, t_start, status=status)
        print(text)
        return code
    except BaseException:
        if made and not any(out.iterdir()):
            out.rmdir()
        raise


def run_scenario(config: ScenarioConfig, out_dir) -> int:
    """Run one controlled-versus-free comparison and write artifacts.

    Writes ``trajectory.csv`` (controlled), ``trajectory_free.csv``,
    ``summary.json``, and ``run.log`` into ``out_dir``. The summary's
    ``path`` is the one both runs took (``"modes"`` or ``"joint"``, see
    :func:`evolve`); its ``diagnostics`` give each trajectory's joint
    purity drift, terminal minus initial: unitary propagation conserves
    purity, so anything above round-off is a numerical fault. Returns a
    process exit code: nonzero when the configured group fails to average
    the coupling away (mode ``none``), with the per-channel residual table
    on stdout; that check reads the config only, so a rejected run builds
    no model.
    """
    _check_sample_every(config.n_cycles, config, "sample_every")

    def body(model, out, report):
        schedule = build_schedule(config)
        omega_c_delta_t = config.bath.cutoff * config.delta_t
        run = SimulationRun(model=model, schedule=schedule, n_cycles=config.n_cycles,
                            rho_s0=config.rho_s0, sample_every=config.sample_every)
        controlled, free = evolve(run), evolve(_free_run(run))
        rates = estimate_rates(controlled.times, free.coherence, controlled.coherence)

        controlled.write_csv(out / "trajectory.csv")
        free.write_csv(out / "trajectory_free.csv")

        keys = {
            "path": controlled.path,
            "commutant_dimension": report.commutant_dimension,
            "residuals": [float(r) for r in report.residuals],
            "schedule": schedule_to_record(schedule),
            "n_cycles": config.n_cycles,
            "total_time": config.n_cycles * schedule.cycle_time,
            "omega_c_delta_t": omega_c_delta_t,
            "feasibility": _feasibility(omega_c_delta_t),
            "rates": rates.to_record(),
            "terminal": {
                "fidelity_controlled": float(controlled.fidelity[-1]),
                "fidelity_free": float(free.fidelity[-1]),
                "infidelity_controlled": float(1.0 - controlled.fidelity[-1]),
                "coherence_controlled": float(controlled.coherence[-1]),
                "coherence_free": float(free.coherence[-1]),
                "trace_distance_controlled": float(controlled.trace_distance[-1]),
                "trace_distance_free": float(free.trace_distance[-1]),
            },
            "diagnostics": {
                f"joint_purity_drift_{name}": traj.joint_purity[1] - traj.joint_purity[0]
                for name, traj in (("controlled", controlled), ("free", free))
            },
        }
        text = (f"{config.scenario}: mode={report.mode}, "
                f"terminal fidelity={controlled.fidelity[-1]:.6f} "
                f"(free {free.fidelity[-1]:.6f}), rate ratio={keys['rates']['ratio']}\n"
                f"{keys['feasibility']}")
        return keys, text

    return _command(config, out_dir, body)


def _free_run(run: SimulationRun) -> SimulationRun:
    """``run`` with the trivial group's schedule of the same cycle time: its free reference,
    on the same model, initial state and sample times."""
    n_qubits = len(run.schedule.dims)
    return replace(run, schedule=schedule_from_group(trivial_group(n_qubits),
                                                     run.schedule.cycle_time))


def _check_sample_every(n_cycles: int, config: ScenarioConfig, path: str):
    if n_cycles % config.sample_every:
        _fail(path, f"sample_every={config.sample_every} does not divide "
                    f"n_cycles={n_cycles}")


def _sweep_cycle_counts(config: ScenarioConfig) -> tuple[float, list[int]]:
    """Total time of the reference run and integer cycle counts per value.

    The sweep holds the total evolution time fixed (that of the reference
    ``delta_t``/``n_cycles`` pair) so terminal errors at different step
    sizes are comparable; each sweep value must divide that time into a
    whole number of cycles, and ``sample_every`` must divide each count.
    """
    n_segments = build_schedule(config).n_segments
    total_time = config.n_cycles * n_segments * config.delta_t
    counts = []
    for i, v in enumerate(config.sweep_values):
        n_exact = total_time / (n_segments * v)
        n = round(n_exact)
        if n < 1 or abs(n_exact - n) > 1e-9 * max(1.0, abs(n_exact)):
            raise ConfigError(
                f"config field 'sweep.values[{i}]': delta_t={v!r} does not divide the "
                f"total time {total_time!r} into whole cycles (got {n_exact!r})"
            )
        _check_sample_every(n, config, f"sweep.values[{i}]")
        counts.append(n)
    return total_time, counts


def run_sweep(config: ScenarioConfig, out_dir) -> int:
    """Sweep ``delta_t`` at fixed total time; fit the error scaling law.

    Writes ``sweep.csv`` (one row per value: delta_t, terminal
    infidelity, controlled/free rate ratio), ``summary.json`` with the
    log-log fit of terminal infidelity against delta_t over every value
    (``fit_point_count`` of them), and ``run.log``. The infidelity is
    ``1 - <y|rho|y>`` for the pure reference ``y`` of every named initial
    state, read off the reduced state ``rho`` as it is, not renormalized.
    Every trajectory is evolved by :func:`evolve`, as in :func:`run_scenario`,
    and only what the sweep reads is computed: no trace distance, and no
    fidelity of a free run. The free reference does not depend on
    ``delta_t`` but only on the sample grid: free runs go finest grid
    first, and a grid whose cycle count divides that of an evolved one
    reads its every k-th sample, while any other grid evolves its own. The summary's ``path`` is the one every
    point took. A group that fails to decouple is rejected as in
    :func:`run_scenario`.
    """
    if config.sweep_values is None:
        raise ConfigError("config field 'sweep': required for the sweep command")
    total_time, counts = _sweep_cycle_counts(config)

    def body(model, out, report):
        runs = [SimulationRun(model=model, schedule=build_schedule(config, delta_t=v),
                              n_cycles=n, rho_s0=config.rho_s0, sample_every=config.sample_every)
                for v, n in zip(config.sweep_values, counts)]

        free = {}  # cycle count -> free coherence, finest grid first
        for run in sorted(runs, key=lambda run: -run.n_cycles):
            n = run.n_cycles
            m = next((m for m in free if m % n == 0), None)
            free[n] = evolve(_free_run(run)).coherence if m is None else free[m][::m // n]
        rows = []
        for v, run in zip(config.sweep_values, runs):
            traj = evolve(run)
            rows.append({"delta_t": v, "infidelity": float(1.0 - traj.fidelity[-1]),
                         "rates": estimate_rates(traj.times, free[run.n_cycles], traj.coherence)})

        lines = ["delta_t, terminal_infidelity, ratio"]
        for row in rows:
            lines.append(f"{row['delta_t']!r}, {row['infidelity']!r}, "
                         f"{float(row['rates'].ratio)!r}")
        (out / "sweep.csv").write_text("\n".join(lines) + "\n")

        fit = fit_scaling_exponent([(row["delta_t"], row["infidelity"]) for row in rows])
        keys = {
            "path": traj.path,  # the same for every point
            "sweep": {
                "parameter": "delta_t",
                "values": list(config.sweep_values),
                "total_time": total_time,
                "n_cycles": counts,
                "symmetric": config.symmetric,
            },
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "fit_point_count": len(rows),
            "points": [
                {"delta_t": row["delta_t"], "infidelity": row["infidelity"],
                 "rates": row["rates"].to_record()}
                for row in rows
            ],
            "feasibility": _feasibility(config.bath.cutoff * max(config.sweep_values)),
        }
        text = (f"{config.scenario} sweep: slope={fit.slope:.3f}, r^2={fit.r_squared:.4f} "
                f"over {len(rows)} values (total time {total_time!r})")
        return keys, text

    return _command(config, out_dir, body)


def _write_log(out: Path, config: ScenarioConfig, t_start: float, status: str):
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(t_start))
    elapsed = time.time() - t_start
    (out / "run.log").write_text(
        f"{stamp} scenario={config.scenario} seed={config.seed} "
        f"status={status} elapsed={elapsed:.3f}s\n"
    )
