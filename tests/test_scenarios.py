"""Scenario configs: parsing, validation, file outputs, sweep mechanics."""

import importlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracle_sweep

from decoupling import (
    ConfigError,
    build_model,
    build_schedule,
    load_config,
    parse_config,
    run_scenario,
    run_sweep,
)
from decoupling.scenarios import PRESETS, SCENARIO_NAMES, _named_state


def test_preset_names():
    assert set(PRESETS) == set(SCENARIO_NAMES)
    assert "dephasing-echo" in SCENARIO_NAMES
    assert "custom" in SCENARIO_NAMES


def test_minimal_preset_config():
    cfg = parse_config({"scenario": "dephasing-echo", "seed": 7})
    assert cfg.scenario == "dephasing-echo"
    assert cfg.seed == 7
    assert cfg.n_qubits == 1
    assert cfg.bath.kind == "spin-bath"
    assert cfg.bath.n_modes == 4
    assert cfg.bath.seed == 7  # inherits the top-level seed
    assert cfg.group.labels == ("I", "X")
    assert cfg.delta_t == 0.1
    assert not cfg.symmetric
    assert cfg.sweep_values is None
    # plus state on one qubit
    assert np.allclose(cfg.rho_s0.matrix, np.full((2, 2), 0.5))
    assert np.allclose(cfg.h_s.matrix, np.zeros((2, 2)))


def test_seed_is_required():
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"scenario": "dephasing-echo"})


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ConfigError, match="swep"):
        parse_config({"scenario": "dephasing-echo", "seed": 1, "swep": {}})
    with pytest.raises(ConfigError, match="bath.n_mode"):
        parse_config({"scenario": "dephasing-echo", "seed": 1,
                      "bath": {"n_mode": 3}})
    with pytest.raises(ConfigError, match="sweep.step"):
        parse_config({"scenario": "dephasing-echo", "seed": 1,
                      "sweep": {"parameter": "delta_t", "values": [0.1, 0.2, 0.3],
                                "step": 2}})


def test_type_checks_reject_bool_and_strings():
    with pytest.raises(ConfigError):
        parse_config({"scenario": "dephasing-echo", "seed": True})
    with pytest.raises(ConfigError):
        parse_config({"scenario": "dephasing-echo", "seed": 1, "n_cycles": "80"})
    with pytest.raises(ConfigError):
        parse_config({"scenario": "dephasing-echo", "seed": 1, "symmetric": 1})
    with pytest.raises(ConfigError):
        parse_config({"scenario": "dephasing-echo", "seed": 1, "delta_t": "0.1"})


def test_unknown_scenario():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config({"scenario": "echo-chamber", "seed": 1})


def test_custom_scenario_requires_explicit_fields():
    with pytest.raises(ConfigError):
        parse_config({"scenario": "custom", "seed": 1})
    cfg = parse_config({
        "scenario": "custom",
        "seed": 1,
        "K": 1,
        "bath": {"kind": "spin-bath", "n_modes": 3, "cutoff": 1.0,
                 "coupling_scale": 0.3},
        "coupling": "dephasing",
        "group": "flip",
        "delta_t": 0.1,
        "n_cycles": 10,
    })
    assert cfg.group.order == 2
    assert cfg.bath.n_modes == 3


def test_explicit_group_word_list():
    cfg = parse_config({
        "scenario": "custom",
        "seed": 1,
        "K": 2,
        "bath": {"kind": "spin-bath", "n_modes": 4, "cutoff": 1.0,
                 "coupling_scale": 0.2},
        "coupling": "dephasing",
        "group": ["II", "XX", "YY", "ZZ"],
        "delta_t": 0.1,
        "n_cycles": 10,
    })
    assert cfg.group.labels == ("II", "XX", "YY", "ZZ")
    with pytest.raises(ConfigError, match="group"):
        parse_config({
            "scenario": "custom", "seed": 1, "K": 2,
            "bath": {"kind": "spin-bath", "n_modes": 4, "cutoff": 1.0,
                     "coupling_scale": 0.2},
            "coupling": "dephasing",
            "group": ["I", "X"],  # words too short for K=2
            "delta_t": 0.1, "n_cycles": 10,
        })


def test_named_system_hamiltonian_terms():
    cfg = parse_config({"scenario": "collective-register", "seed": 3})
    sz = np.diag([1.0, -1.0])
    want = 0.25 * np.kron(sz, sz) + 0.1 * np.kron(sz, np.eye(2))
    assert np.max(np.abs(cfg.h_s.matrix - want)) < 1e-12


def test_sweep_validation():
    base = {"scenario": "dephasing-echo", "seed": 1}
    with pytest.raises(ConfigError, match="parameter"):
        parse_config(dict(base, sweep={"parameter": "n_cycles",
                                       "values": [1.0, 2.0, 3.0]}))
    with pytest.raises(ConfigError, match="values"):
        parse_config(dict(base, sweep={"parameter": "delta_t", "values": [0.1, 0.2]}))
    with pytest.raises(ConfigError, match="values"):
        parse_config(dict(base, sweep={"parameter": "delta_t",
                                       "values": [0.1, -0.2, 0.3]}))
    # a repeated value would be run twice and weigh double in the fit
    with pytest.raises(ConfigError, match=r"'sweep.values\[2\]': repeats 0.1,"):
        parse_config(dict(base, sweep={"parameter": "delta_t", "values": [0.1, 0.05, 0.1]}))
    cfg = parse_config(dict(base, sweep={"parameter": "delta_t",
                                         "values": [0.1, 0.05, 0.025]}))
    assert cfg.sweep_values == (0.1, 0.05, 0.025)


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(listy)


def test_build_model_and_schedule_roundtrip():
    cfg = parse_config({"scenario": "maximal-averaging", "seed": 5})
    model = build_model(cfg)
    assert model.system_dim == 2
    assert len(model.couplings) == 3
    sched = build_schedule(cfg)
    assert sched.n_segments == 4
    assert sched.delta_t == cfg.delta_t
    halved = build_schedule(cfg, delta_t=cfg.delta_t / 2)
    assert halved.delta_t == cfg.delta_t / 2


def test_symmetric_flag_builds_palindromic_schedule():
    cfg = parse_config({"scenario": "dephasing-echo", "seed": 5, "symmetric": True})
    sched = build_schedule(cfg)
    assert sched.symmetric
    assert sched.n_segments == 4
    assert sched.segments == ("I", "X", "X", "I")


def test_boson_bath_scenario():
    cfg = parse_config({
        "scenario": "custom",
        "seed": 2,
        "K": 1,
        "bath": {"kind": "boson-mode", "n_modes": 2, "cutoff": 1.0,
                 "coupling_scale": 0.3, "boson_truncation": 3},
        "coupling": "dephasing",
        "group": "flip",
        "delta_t": 0.1,
        "n_cycles": 10,
    })
    model = build_model(cfg)
    assert model.bath_dim == 9
    with pytest.raises(ConfigError, match="coupling"):
        parse_config({
            "scenario": "custom", "seed": 2, "K": 1,
            "bath": {"kind": "boson-mode", "n_modes": 2, "cutoff": 1.0,
                     "coupling_scale": 0.3, "boson_truncation": 3},
            "coupling": "total", "group": "full",
            "delta_t": 0.1, "n_cycles": 10,
        })


@pytest.mark.parametrize("bath, message", [
    ({"kind": "boson-mode", "n_modes": 1, "boson_truncation": 3},
     "2 coupling channels need at least 2 bath modes, got 1"),
    ({"kind": "boson-mode", "n_modes": 8, "boson_truncation": 3},
     r"joint dimension 2\*\*2 \* 3\*\*8 exceeds the cap"),
    ({"n_modes": 10**6}, r"joint dimension 2\*\*2 \* 2\*\*1000000 exceeds the cap"),
])
def test_bath_size_is_checked_at_parse_time(bath, message):
    """Mode count against the coupling channels and the joint dimension
    against the cap, for both bath kinds, before any bath is drawn."""
    doc = {"scenario": "collective-register", "seed": 1, "coupling": "dephasing", "bath": bath}
    with pytest.raises(ConfigError, match=f"config field 'bath.n_modes': {message}"):
        parse_config(doc)


@pytest.mark.parametrize("k", [13, 10**12])
def test_register_size_is_checked_without_forming_its_dimension(k):
    """A register above the cap fails on ``K`` with its size in the message;
    a huge ``K`` is compared by bit length, so ``2**K`` is never formed."""
    with pytest.raises(ConfigError, match=rf"config field 'K': register dimension 2\*\*{k} "
                                          "exceeds the cap 4096"):
        parse_config({"scenario": "dephasing-echo", "seed": 1, "K": k})


def test_run_scenario_writes_outputs(tmp_path):
    cfg = parse_config({"scenario": "dephasing-echo", "seed": 7, "n_cycles": 20})
    code = run_scenario(cfg, tmp_path)
    assert code == 0
    for name in ("trajectory.csv", "trajectory_free.csv", "summary.json", "run.log"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "cycle, time, fidelity, coherence, trace_distance"
    assert len(lines) == 22  # header + initial + 20 cycles
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "dephasing-echo"
    assert summary["mode"] == "selective"
    assert summary["path"] == "modes"
    assert summary["schedule"]["group"] == ["I", "X"]
    assert summary["rates"]["ratio"] < 0.05
    assert summary["total_time"] == pytest.approx(20 * 2 * 0.1)
    assert "feasibility" in summary
    log_line = (tmp_path / "run.log").read_text()
    assert "scenario=dephasing-echo" in log_line
    assert "status=ok" in log_line


NON_DECOUPLING = {
    "scenario": "custom",
    "seed": 3,
    "K": 1,
    "bath": {"kind": "spin-bath", "n_modes": 4, "cutoff": 1.0,
             "coupling_scale": 0.3},
    "coupling": "linear-independent",
    "group": "flip",
    "delta_t": 0.05,
    "n_cycles": 10,
}


def test_a_d4096_echo_places_no_bath_matrix(tmp_path):
    """The product path evolves the echo from the mode table: a d = 4096
    ``simulate`` (2048 x 2048 bath, one complex matrix of which is 64 MiB)
    allocates less than 16 MiB in all."""
    config = parse_config({"scenario": "dephasing-echo", "seed": 7, "bath": {"n_modes": 11}})
    tracemalloc.start()
    try:
        assert run_scenario(config, tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_run_scenario_rejects_non_decoupling_group(tmp_path, capsys):
    cfg = parse_config(NON_DECOUPLING)
    code = run_scenario(cfg, tmp_path)
    assert code == 1
    out = capsys.readouterr().out
    assert "mode = none" in out
    assert "residual" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["mode"] == "none"
    assert max(summary["residuals"]) > 1.0
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("run", (run_scenario, run_sweep))
def test_rejection_builds_no_model(tmp_path, monkeypatch, run):
    monkeypatch.setattr("decoupling.scenarios.build_model", _no_model)
    doc = {**NON_DECOUPLING, "sweep": {"parameter": "delta_t", "values": [0.05, 0.025, 0.01]}}
    assert run(parse_config(doc), tmp_path) == 1


@pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if n != "custom"])
def test_joint_purity_drift_is_round_off(tmp_path, name):
    assert run_scenario(parse_config({"scenario": name, "seed": 7}), tmp_path) == 0
    drift = json.loads((tmp_path / "summary.json").read_text())["diagnostics"]
    assert sorted(drift) == ["joint_purity_drift_controlled", "joint_purity_drift_free"]
    assert max(abs(v) for v in drift.values()) <= 1e-10


def test_run_sweep_rejects_non_decoupling_group(tmp_path, capsys):
    """The sweep rejects like ``simulate``: same table, same summary.json."""
    cfg = parse_config({**NON_DECOUPLING, "sweep": {"parameter": "delta_t",
                                                    "values": [0.025, 0.05, 0.1]}})
    assert run_sweep(cfg, tmp_path / "sweep") == 1
    sweep_out = capsys.readouterr().out
    assert run_scenario(parse_config(NON_DECOUPLING), tmp_path / "simulate") == 1
    assert capsys.readouterr().out == sweep_out
    for name in ("summary.json", "run.log"):
        assert (tmp_path / "sweep" / name).exists()
    assert ((tmp_path / "sweep" / "summary.json").read_text()
            == (tmp_path / "simulate" / "summary.json").read_text())
    assert not (tmp_path / "sweep" / "sweep.csv").exists()


def test_run_sweep_outputs_and_fit(tmp_path):
    cfg = parse_config({
        "scenario": "dephasing-echo", "seed": 7, "n_cycles": 8, "delta_t": 0.16,
        "sweep": {"parameter": "delta_t", "values": [0.04, 0.08, 0.16]},
    })
    code = run_sweep(cfg, tmp_path)
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "delta_t, terminal_infidelity, ratio"
    assert len(lines) == 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["sweep"]["values"] == [0.04, 0.08, 0.16]
    # total time is pinned by the config's own (n_cycles, delta_t) pair
    assert summary["sweep"]["total_time"] == pytest.approx(8 * 2 * 0.16)
    assert summary["sweep"]["n_cycles"] == [32, 16, 8]
    assert 1.4 < summary["slope"] < 2.6
    assert summary["fit_point_count"] == 3
    assert len(summary["points"]) == 3


def test_sweep_csv_writes_an_infinite_rate_ratio_as_inf(tmp_path):
    """Every point's free coherence stays put (``gamma_free`` 0) while the
    controlled one decays: each ratio is infinite, and ``sweep.csv`` says so
    where ``summary.json``, which has no infinity, writes null."""
    cfg = parse_config({
        "scenario": "maximal-averaging", "seed": 7, "n_cycles": 2, "delta_t": 0.04,
        "h_s": {"X": 3.0, "Z": 0.2},
        "sweep": {"parameter": "delta_t", "values": [0.01, 0.02, 0.04]},
    })
    assert run_sweep(cfg, tmp_path) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(", ")[2] for row in rows] == ["inf"] * 3
    points = json.loads((tmp_path / "summary.json").read_text())["points"]
    for point in points:
        assert point["rates"]["gamma_free"] == 0.0 and point["rates"]["gamma_controlled"] > 0
        assert point["rates"]["ratio"] is None


def test_run_sweep_fits_every_point_of_a_symmetric_echo(tmp_path, capsys):
    """The last point of this sweep is 9.70e-11, ``1 - <+|rho|+>`` of a reduced
    state whose top eigenvalue is within 1e-10 of one; a fidelity that took
    such a state as pure read it as 6.7e-16, which drags the slope of a fit
    over all four points to 9.1. Every point is fitted, with no warning,
    and the slope is the symmetric cycle's delta_t**4."""
    cfg = parse_config({
        "scenario": "dephasing-echo", "seed": 17, "symmetric": True,
        "bath": {"n_modes": 5},
        "sweep": {"parameter": "delta_t", "values": [0.2, 0.1, 0.05, 0.025]},
    })
    assert run_sweep(cfg, tmp_path) == 0
    assert "warning:" not in capsys.readouterr().out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["fit_point_count"] == 4
    assert summary["points"][-1]["infidelity"] == pytest.approx(9.70e-11, rel=0.0, abs=1e-12)
    assert 3.8 <= summary["slope"] <= 4.2
    assert summary["r_squared"] > 0.999


def test_run_sweep_requires_commensurate_values():
    cfg = parse_config({
        "scenario": "dephasing-echo", "seed": 7, "n_cycles": 8, "delta_t": 0.16,
        "sweep": {"parameter": "delta_t", "values": [0.16, 0.08, 0.07]},
    })
    with pytest.raises(ConfigError, match="0.07"):
        run_sweep(cfg, "/tmp/never-written")


def _no_model(config):
    raise AssertionError("the model was built before the config was checked")


def test_run_scenario_checks_sample_every_before_building(tmp_path, monkeypatch):
    monkeypatch.setattr("decoupling.scenarios.build_model", _no_model)
    cfg = parse_config({"scenario": "dephasing-echo", "seed": 7, "sample_every": 7})
    with pytest.raises(ConfigError, match="config field 'sample_every'.*n_cycles=80"):
        run_scenario(cfg, tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_run_sweep_checks_every_point_before_building(tmp_path, monkeypatch):
    """sample_every 40 divides the 80 cycles of the first point but not the
    100 of the second; the reference run's own count is not required."""
    monkeypatch.setattr("decoupling.scenarios.build_model", _no_model)
    cfg = parse_config({
        "scenario": "dephasing-echo", "seed": 7, "sample_every": 40,
        "sweep": {"parameter": "delta_t", "values": [0.1, 0.08, 0.05]},
    })
    with pytest.raises(ConfigError, match=r"config field 'sweep.values\[1\]'.*n_cycles=100"):
        run_sweep(cfg, tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_unclosed_group_word_list_names_the_field():
    with pytest.raises(ConfigError, match="config field 'group': not projectively closed"):
        parse_config({"scenario": "collective-register", "seed": 1,
                      "group": ["II", "XX", "YY"]})


def test_run_sweep_rejects_degenerate_values(tmp_path):
    """The parser names the first repeated value; a config made without it
    still fails at the fit."""
    doc = {"scenario": "dephasing-echo", "seed": 7, "n_cycles": 8, "delta_t": 0.16,
           "sweep": {"parameter": "delta_t", "values": [0.16, 0.16, 0.16]}}
    with pytest.raises(ConfigError, match=r"'sweep.values\[1\]': repeats 0.16,"):
        parse_config(doc)
    cfg = replace(parse_config({**doc, "sweep": None}), sweep_values=(0.16,) * 3)
    with pytest.raises(ValueError, match="distinct"):
        run_sweep(cfg, tmp_path)
    with pytest.raises(ValueError, match="distinct"):
        oracle_sweep.per_point_sweep(cfg)


def test_run_scenario_deterministic_bytes(tmp_path):
    cfg = parse_config({"scenario": "selective-logic", "seed": 19, "n_cycles": 12})
    run_scenario(cfg, tmp_path / "a")
    run_scenario(cfg, tmp_path / "b")
    for name in ("trajectory.csv", "trajectory_free.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_named_states_match_their_kron_form_bitwise(n_qubits):
    single = {"plus": np.array([1.0, 1.0]) / np.sqrt(2.0), "zero": np.array([1.0, 0.0]),
              "tilted": np.array([np.cos(np.pi / 5), np.sin(np.pi / 5)])}
    for name, v in single.items():
        psi = np.array([1.0])
        for _ in range(n_qubits):
            psi = np.kron(psi, v)
        got = _named_state(name, n_qubits, "rho_s0")
        assert got.dims == (2,) * n_qubits
        assert np.array_equal(got.matrix, np.outer(psi, psi))


SYMMETRIC_ECHO_SWEEP = {"parameter": "delta_t", "values": [0.2, 0.1, 0.05, 0.025]}
PLAIN_ECHO_SWEEP = {"parameter": "delta_t", "values": [0.1, 0.08, 0.05]}
#: A joint-path sweep at a fixed total time, 20 cycles of the largest value.
JOINT_SWEEP = {"scenario": "maximal-averaging", "seed": 7, "delta_t": 0.16, "n_cycles": 20,
               "sweep": {"parameter": "delta_t", "values": [0.02, 0.04, 0.08, 0.16]}}
#: A joint-path sweep whose grids (10, 20 and 25 cycles) do not nest: the first
#: qubit is not conserved, the K2-ZX-IX custom config.
K2_ZX_IX_SWEEP = {"scenario": "custom", "seed": 7, "K": 2, "group": "full",
                  "coupling": "dephasing",
                  "bath": {"n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.3},
                  "delta_t": 0.05, "n_cycles": 20, "h_s": {"ZX": 0.2, "IX": 0.1},
                  "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 0.04]}}


@pytest.mark.parametrize("doc", [
    {"scenario": "dephasing-echo", "seed": 7, "symmetric": True, "bath": {"n_modes": 5},
     "sweep": SYMMETRIC_ECHO_SWEEP},
    {"scenario": "dephasing-echo", "seed": 17, "symmetric": True, "bath": {"n_modes": 5},
     "sweep": SYMMETRIC_ECHO_SWEEP},
    {"scenario": "dephasing-echo", "seed": 7, "sweep": PLAIN_ECHO_SWEEP},
    {"scenario": "dephasing-echo", "seed": 7, "sample_every": 2,
     "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 0.025]}},
    {**JOINT_SWEEP, "symmetric": False},
    {**JOINT_SWEEP, "symmetric": True},
    K2_ZX_IX_SWEEP,
], ids=["symmetric-echo-seed7", "symmetric-echo-seed17", "non-nested", "sample-every-2",
        "joint-plain", "joint-symmetric", "joint-non-nested"])
def test_run_sweep_matches_the_per_point_loop(doc, tmp_path):
    """``run_sweep`` against the per-point loop it replaced: the controlled
    runs are the same calls, so infidelities and the fit agree bit for bit;
    a grid whose cycle count divides that of an evolved free run reads that
    run's coherence, every k-th sample, so the free rate moves in its last
    digits only. The plain echo's grids (80, 100 and 160 cycles) and
    K2-ZX-IX's (10, 20 and 25) do not nest: 100 and 20 evolve their own free
    runs. The echoes take the product path; ``maximal-averaging``, whose
    couplings do not commute with the bath, and K2-ZX-IX, whose first qubit
    is not conserved, the joint path."""
    config = parse_config(doc)
    rows, fit, fit_points = oracle_sweep.per_point_sweep(config)
    assert run_sweep(config, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["path"] == ("modes" if doc["scenario"] == "dephasing-echo" else "joint")
    assert (summary["slope"], summary["intercept"], summary["r_squared"]) == (
        fit.slope, fit.intercept, fit.r_squared)
    assert summary["fit_point_count"] == fit_points
    csv_rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(summary["points"]) == len(csv_rows) == len(rows)
    for point, line, (v, infidelity, rates) in zip(summary["points"], csv_rows, rows):
        assert point["delta_t"] == v and point["infidelity"] == infidelity
        assert float(line.split(",")[1]) == infidelity
        got = point["rates"]
        for key in ("fit_window", "method", "flagged", "gamma_controlled"):
            assert got[key] == rates[key], key
        for key in ("gamma_free", "ratio", "fit_residual"):
            assert got[key] == pytest.approx(rates[key], rel=1e-12, abs=0.0), key


@pytest.fixture(scope="module")
def joint_sweeps(tmp_path_factory):
    """``joint_sweeps(scenario, seed)``: the summaries of the plain and the
    palindromic ``JOINT_SWEEP`` of a preset, each run once per module."""
    done = {}

    def summaries(scenario, seed):
        if (scenario, seed) not in done:
            done[scenario, seed] = {}
            for symmetric in (False, True):
                config = parse_config({**JOINT_SWEEP, "scenario": scenario, "seed": seed,
                                       "symmetric": symmetric})
                out = tmp_path_factory.mktemp(f"{scenario}-{seed}-{symmetric}")
                assert run_sweep(config, out) == 0
                done[scenario, seed][symmetric] = json.loads((out / "summary.json").read_text())
        return done[scenario, seed]

    return summaries


JOINT_SWEEP_CASES = [(scenario, seed) for scenario in ("maximal-averaging", "collective-register")
                     for seed in (7, 1009)]


@pytest.mark.parametrize("scenario, seed", JOINT_SWEEP_CASES)
def test_joint_path_sweeps_meet_the_scaling_bounds(joint_sweeps, scenario, seed):
    """The scaling law on models the theory does not solve exactly: the
    couplings do not commute with the bath, so the sweeps take the joint
    path. At a fixed total time the plain cycle's terminal infidelity meets
    criterion 09's bounds (slope in [1.5, 2.5], r^2 >= 0.98) and the
    palindromic one criterion 10's (slope in [3.2, 4.8], r^2 >= 0.95)."""
    plain, sym = joint_sweeps(scenario, seed)[False], joint_sweeps(scenario, seed)[True]
    assert plain["path"] == sym["path"] == "joint"
    assert plain["fit_point_count"] == sym["fit_point_count"] == 4
    assert 1.5 <= plain["slope"] <= 2.5 and plain["r_squared"] >= 0.98
    assert 3.2 <= sym["slope"] <= 4.8 and sym["r_squared"] >= 0.95


@pytest.mark.parametrize("scenario, seed", [
    pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=(
        "at delta_t 0.16 (omega_c T_c = 1.28) the palindromic infidelity, 5.4e-4, "
        "lies above the plain one, 4.3e-4")))
    if case == ("collective-register", 7) else case
    for case in JOINT_SWEEP_CASES])
def test_joint_path_palindromic_sweeps_lie_below_the_plain_ones(joint_sweeps, scenario, seed):
    """Criterion 10's second half on the joint path: every point of the
    palindromic curve lies below the plain one."""
    plain, sym = joint_sweeps(scenario, seed)[False], joint_sweeps(scenario, seed)[True]
    assert all(a["infidelity"] < b["infidelity"] for a, b in zip(sym["points"], plain["points"]))


@pytest.mark.parametrize("doc, free_snapshots", [
    ({"scenario": "dephasing-echo", "seed": 7, "symmetric": True, "bath": {"n_modes": 5},
      "sweep": SYMMETRIC_ECHO_SWEEP}, [321]),
    ({"scenario": "dephasing-echo", "seed": 7, "sweep": PLAIN_ECHO_SWEEP}, [161, 101]),
], ids=["nested", "non-nested"])
def test_run_sweep_evolves_each_free_sample_time_once(doc, free_snapshots, tmp_path,
                                                      monkeypatch):
    """Every trajectory of a sweep is one :func:`evolve` call. The symmetric
    echo's grids (320/160/80/40 cycles) nest in the finest: one free run of
    321 snapshots serves every point. The plain echo's (80/100/160) do not:
    160's free run serves 80, and 100 evolves its own, 161 + 101 = 262
    snapshots for the 241 distinct fractions of the total time. Each point
    adds one controlled run. No free run computes a fidelity (or its ideal
    reference), and no trajectory computes a trace distance."""
    scenarios_module = importlib.import_module("decoupling.scenarios")
    evolve, results = scenarios_module.evolve, []

    def recording_evolve(run):
        results.append(evolve(run))
        return results[-1]

    monkeypatch.setattr(scenarios_module, "evolve", recording_evolve)
    config = parse_config(doc)
    assert run_sweep(config, tmp_path) == 0
    free = [result for result in results if result.run.schedule.group.order == 1]
    assert [len(result.times) for result in free] == free_snapshots
    assert len(results) == len(free) + len(config.sweep_values)
    assert not any("fidelity" in vars(result) for result in free)
    assert not any("trace_distance" in vars(result) for result in results)
