"""Command-line entry points: exit codes, output files, design listing."""

import importlib
import json
import math
import tracemalloc

import pytest

from decoupling import ConfigError, parse_config
from decoupling.cli import main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_writes_expected_files(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "dephasing-echo", "seed": 7,
                                  "n_cycles": 10})
    out = tmp_path / "run"
    code = main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "run.log", "summary.json", "trajectory.csv", "trajectory_free.csv"]


def test_out_falls_back_to_config_output_dir(tmp_path):
    target = tmp_path / "from-config"
    cfg = write_config(tmp_path, {"scenario": "dephasing-echo", "seed": 7,
                                  "n_cycles": 5, "output_dir": str(target)})
    assert main(["simulate", "--config", cfg]) == 0
    assert (target / "summary.json").exists()


def test_missing_out_and_output_dir_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "dephasing-echo", "seed": 7,
                                  "n_cycles": 5})
    assert main(["simulate", "--config", cfg]) == 2
    assert "output" in capsys.readouterr().err


def test_bad_config_path(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["--out", "output_dir"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_an_output_directory_under_a_file_exits_2(tmp_path, capsys, command, via):
    """An output directory that cannot be made is an ``error:`` line and exit
    2, like an unreadable config: not a traceback, and not exit 1, which
    says that the group does not decouple."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    doc = {"scenario": "dephasing-echo", "seed": 7, "n_cycles": 8, "delta_t": 0.16,
           "sweep": {"parameter": "delta_t", "values": [0.04, 0.08, 0.16]}}
    if via == "output_dir":
        argv = [command, "--config", write_config(tmp_path, {**doc, "output_dir": str(out)})]
    else:
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err


@pytest.mark.parametrize("overrides, field", [
    ({"h_s": {"Z": 1e308}}, "h_s.Z"),
    ({"delta_t": 1e308}, "delta_t"),
    ({"bath": {"cutoff": 1e308}}, "bath.cutoff"),
    ({"h_s": {"Z": 1e200}}, "h_s.Z"),
    ({"h_s": {"Z": -1e200}}, "h_s.Z"),
    ({"h_s": {"Z": 1e18}}, "h_s.Z"),
    ({"bath": {"coupling_scale": 1e308}}, "bath.coupling_scale"),
    ({"scenario": "collective-register", "h_s": {"ZZ": 1e308}}, "h_s.ZZ"),
], ids=["h_s", "delta_t", "cutoff", "h_s-1e200", "h_s-negative", "h_s-1e18", "coupling_scale",
        "collective-ZZ"])
def test_an_overflowing_run_exits_2(tmp_path, capsys, overrides, field):
    """A run whose phases a double cannot resolve (a coefficient times the
    total time past 2**52) or whose total time overflows is rejected at
    parse time: an ``error:`` line naming the field and exit 2 (exit 1 says
    only that the group does not decouple), and no output directory."""
    cfg = write_config(tmp_path, {"scenario": "dephasing-echo", "seed": 7, **overrides})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: config field '{field}': ")
    assert not (tmp_path / "o").exists()


def test_the_phase_bound_is_inclusive():
    """``|coefficient| * total time`` may reach 2**52 and no further: here the
    total time is 64 cycles of two 0.125 segments, 16."""
    doc = {"scenario": "dephasing-echo", "seed": 7, "delta_t": 0.125, "n_cycles": 64}
    assert parse_config({**doc, "h_s": {"Z": 2.0**48}}).h_s == {"Z": 2.0**48}
    with pytest.raises(ConfigError, match="config field 'h_s.Z'"):
        parse_config({**doc, "h_s": {"Z": math.nextafter(2.0**48, math.inf)}})


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_run_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, command):
    """An allocation that fails (numpy's ``MemoryError``) is an ``error:``
    line and exit 2, and leaves no output directory behind. The failure is
    simulated: a real one would first try to fill the memory."""
    def refuse(run):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr("decoupling.scenarios.evolve", refuse)
    cfg = write_config(tmp_path, {"scenario": "dephasing-echo", "seed": 7, "n_cycles": 8,
                                  "delta_t": 0.16, "sweep": {"parameter": "delta_t",
                                                             "values": [0.04, 0.08, 0.16]}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 72.8 TiB for an array\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc, field", [
    ("simulate", {"scenario": "dephasing-echo", "n_cycles": 10**8}, "n_cycles"),  # product path
    ("simulate", {"scenario": "maximal-averaging", "n_cycles": 10**8}, "n_cycles"),  # joint path
    ("simulate", {"scenario": "dephasing-echo", "n_cycles": 10**8, "sample_every": 10},
     "sample_every"),
    ("sweep", {"scenario": "dephasing-echo",
               "sweep": {"parameter": "delta_t", "values": [0.1, 0.05, 1e-9]}}, "sweep.values[2]"),
], ids=["echo", "maximal", "echo-every-10", "sweep"])
def test_a_run_too_long_to_hold_names_its_field(tmp_path, capsys, command, doc, field):
    """A run whose snapshots would not fit is refused naming its config field,
    with exit 2 and no output directory, before anything is allocated: the
    second of two calls (the first pays the interpreter's lazy imports)
    allocates less than 1 MiB in all. A sweep point's cycle count comes from
    its ``delta_t``, so the point is named."""
    cfg = write_config(tmp_path, {"seed": 7, **doc})
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{field}': ") and "snapshots" in err
    assert not (tmp_path / "o").exists()


def test_invalid_config_reports_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "dephasing-echo", "seed": 7,
                                  "delta_t": -0.1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "delta_t" in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ({"scenario": "dephasing-echo", "seed": 1, "K": 13}, "K"),
    ({"scenario": "maximal-averaging", "seed": 1, "K": 7}, "group"),
    ({"scenario": "dephasing-echo", "seed": 1, "bath": {"kind": "foo"}}, "bath.kind"),
    ({"scenario": "dephasing-echo", "seed": 1, "bath": {"boson_truncation": 3}},
     "bath.boson_truncation"),
    ({"scenario": "dephasing-echo", "seed": 1, "bath": {"kind": "boson-mode"}},
     "bath.boson_truncation"),
    ({"scenario": "dephasing-echo", "seed": 1, "coupling": "quadratic"}, "coupling"),
    ({"scenario": "custom", "seed": 1, "K": 4, "coupling": "dephasing", "group": "flip",
      "delta_t": 0.1, "n_cycles": 5,
      "bath": {"n_modes": 9, "cutoff": 1.0, "coupling_scale": 0.4}}, "bath.n_modes"),
    ({"scenario": "collective-register", "seed": 1, "coupling": "linear-independent",
      "bath": {"n_modes": 2}}, "bath.n_modes"),
    ({"scenario": "dephasing-echo", "seed": -1}, "seed"),
    ({"scenario": "dephasing-echo", "seed": 1, "bath": {"seed": -1}}, "bath.seed"),
    ({"scenario": "dephasing-echo", "seed": 1, "K": 10**12}, "K"),
    ({"scenario": "collective-register", "seed": 7, "bath": {"coupling_scale": 1e-200}},
     "bath.coupling_scale"),
    ({"scenario": "collective-register", "seed": 7, "bath": {"coupling_scale": 1e-320}},
     "bath.coupling_scale"),
])
def test_config_errors_name_the_field_before_any_output(tmp_path, capsys, doc, field):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"config field {field!r}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_mode_none_exit_code(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": "custom", "seed": 3, "K": 1,
        "bath": {"kind": "spin-bath", "n_modes": 4, "cutoff": 1.0,
                 "coupling_scale": 0.3},
        "coupling": "linear-independent", "group": "flip",
        "delta_t": 0.05, "n_cycles": 10,
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_simulate_runs_a_four_qubit_register(tmp_path):
    """The fidelity reference averages h_s over the group on four qubits, where
    the projection's block offsets pass 255."""
    cfg = write_config(tmp_path, {
        "scenario": "custom", "seed": 1, "K": 4, "coupling": "dephasing", "group": "flip",
        "delta_t": 0.1, "n_cycles": 5,
        "bath": {"n_modes": 2, "cutoff": 1.0, "coupling_scale": 0.4},
    })
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 <= summary["terminal"]["fidelity_controlled"] <= 1.0 + 1e-9


def test_sweep_command(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": "dephasing-echo", "seed": 7, "n_cycles": 8, "delta_t": 0.16,
        "sweep": {"parameter": "delta_t", "values": [0.04, 0.08, 0.16]},
    })
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert "slope" in summary


def test_a_sweep_it_cannot_fit_exits_2_and_leaves_nothing(tmp_path, capsys):
    """|0> does not dephase, so every terminal infidelity is 0.0 and the
    log-log fit cannot be made: exit 2, an error naming each point with its
    delta_t and infidelity, and no output directory left behind."""
    cfg = write_config(tmp_path, {
        "scenario": "custom", "seed": 7, "K": 1, "coupling": "dephasing", "group": "flip",
        "rho_s0": "zero", "bath": {"n_modes": 3, "cutoff": 1.0, "coupling_scale": 0.2},
        "delta_t": 0.1, "n_cycles": 8,
        "sweep": {"parameter": "delta_t", "values": [0.2, 0.1, 0.05]},
    })
    out = tmp_path / "zero"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    for i, v in enumerate([0.2, 0.1, 0.05]):
        assert f"sweep.values[{i}] (delta_t {v}) has infidelity 0.0" in err
    assert not out.exists()


def test_a_sweep_value_whose_cycle_count_overflows_names_its_field(tmp_path, capsys):
    """A subnormal ``delta_t`` divides the total time into infinitely many cycles: exit 2
    naming the value, not an ``OverflowError`` of rounding infinity, and nothing written."""
    cfg = write_config(tmp_path, {"scenario": "dephasing-echo", "seed": 7, "sweep": {
        "parameter": "delta_t", "values": [0.1, 0.05, 1e-320]}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: config field 'sweep.values[2]': "
                                              "delta_t=1e-320 does not divide")
    assert not out.exists()


def test_sweep_without_sweep_block(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "dephasing-echo", "seed": 7})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "sweep" in capsys.readouterr().err


def test_design_lists_minimal_groups(capsys):
    code = main(["design", "--interaction", "Z", "--qubits", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "order 2" in out
    assert "['I', 'X']" in out
    assert "['I', 'Y']" in out
    assert "dt X dt X" in out


def test_design_collective_register(capsys):
    code = main(["design", "--interaction", "XX", "YY", "ZZ", "--qubits", "2",
                 "--max-order", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "order" in out


@pytest.mark.parametrize("argv", [
    ["--interaction", "ZII", "IZI", "IIZ", "XXI", "IXX", "--qubits", "3"],
    ["--interaction", "ZI", "IZ", "ZZ", "--qubits", "2"],
])
def test_design_builds_no_dense_word(argv, monkeypatch, capsys):
    """The search and its report stay in word space: no word matrix is built
    (every one is placed by ``_pauli_sums``)."""
    groups_module = importlib.import_module("decoupling.groups")

    def refuse(tables, n_qubits):
        raise AssertionError(f"dense matrices built for {tables!r}")

    monkeypatch.setattr(groups_module, "_pauli_sums", refuse)
    assert main(["design", *argv]) == 0
    assert "minimal decoupling groups" in capsys.readouterr().out


def test_design_unsatisfiable_returns_one(capsys):
    code = main(["design", "--interaction", "X", "Y", "Z", "--qubits", "1",
                 "--max-order", "2"])
    assert code == 1
    assert "no decoupling group" in capsys.readouterr().out


def test_design_rejects_bad_words(capsys):
    code = main(["design", "--interaction", "Q", "--qubits", "1"])
    assert code == 2
    assert capsys.readouterr().err


def test_design_rejects_wrong_length_words(capsys):
    code = main(["design", "--interaction", "XX", "--qubits", "1"])
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["--interaction", "Z", "--qubits", "1", "--max-order", "0"], "--max-order"),
    (["--interaction", "Z", "--qubits", "1", "--max-order", "-4"], "--max-order"),
    (["--interaction", "Z", "--qubits", "1", "--max-order", "65"], "--max-order"),
    (["--interaction", "", "--qubits", "0"], "--qubits"),
    (["--interaction", "ZIII", "--qubits", "4"], "--qubits"),
    (["--interaction", "ZQ", "--qubits", "2"], "--interaction"),
    (["--interaction", "ZI", "Z", "--qubits", "2"], "--interaction"),
])
def test_design_rejects_bad_flags_before_searching(argv, flag, capsys):
    """``minimal_group_search`` checks its arguments; the command names the flag that set
    the one it refuses."""
    assert main(["design", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: ")


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"scenario": "collective-register", "seed": 23,
                                  "n_cycles": 10})
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")])
    for name in ("trajectory.csv", "trajectory_free.csv", "summary.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


FULL_TWO_QUBIT_SPAN = ["XI", "YI", "ZI", "IX", "IY", "IZ", "XX", "XY", "XZ",
                       "YX", "YY", "YZ", "ZX", "ZY", "ZZ"]


def test_parser_built_once_leaks_nothing_between_calls(tmp_path, capsys):
    """``main`` reuses one parser: a sequence of calls prints and returns what
    each call does on a freshly built parser. The full two-qubit span needs
    order 16, so a ``--max-order 4`` that leaked into the next call would
    show; the last call lacks ``--interaction`` and exits through argparse."""
    cli = importlib.import_module("decoupling.cli")
    cfg = write_config(tmp_path, {"scenario": "dephasing-echo", "seed": 7, "n_cycles": 5})
    calls = [
        ["design", "--interaction", *FULL_TWO_QUBIT_SPAN, "--qubits", "2", "--max-order", "4"],
        ["design", "--interaction", *FULL_TWO_QUBIT_SPAN, "--qubits", "2"],
        ["simulate", "--config", cfg, "--out", str(tmp_path / "o")],
        ["design", "--qubits", "2"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    in_sequence = [outcome(argv) for argv in calls]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert in_sequence == fresh
    assert [code for code, _, _ in in_sequence] == [1, 0, 0, 2]
    assert "order <= 4" in in_sequence[0][1] and "(order 16)" in in_sequence[1][1]
