"""The package's public names, pinned.

The list holds what the command line, the demos and the acceptance
criteria call. A name is added or removed by editing it here. What an
``Operator`` leaves out, arithmetic and deferred placement, is pinned here too,
and so are the fields of a model.
"""

import ast
import dataclasses
import importlib
import types
from pathlib import Path

import numpy as np
import pytest

import decoupling

PUBLIC_NAMES = [
    "BathSpec",
    "ConfigError",
    "CycleSchedule",
    "DIM_CAP",
    "DecouplingGroup",
    "DecouplingReport",
    "NUMERIC_TOL",
    "Operator",
    "PRESETS",
    "RateEstimate",
    "SCENARIO_NAMES",
    "ScalingFit",
    "ScenarioConfig",
    "SimulationRun",
    "SystemBathModel",
    "TrajectoryResult",
    "average_h0",
    "average_h1",
    "boundary_pulses",
    "build_model",
    "build_schedule",
    "build_system_bath_model",
    "check_decoupling",
    "coherence_l1",
    "commutant_basis",
    "coupling_tables",
    "cycle_propagator",
    "estimate_rates",
    "evolve",
    "expm_hermitian",
    "fit_scaling_exponent",
    "load_config",
    "minimal_group_search",
    "observable_drift",
    "parse_config",
    "pauli_group",
    "pauli_sum",
    "pauli_word_operator",
    "project_commutant",
    "run_scenario",
    "run_sweep",
    "schedule_from_group",
    "schedule_to_record",
    "state_fidelity",
    "symmetrize",
    "total_hamiltonian",
    "trivial_group",
    "truncation_error",
]


def test_public_names_are_pinned():
    """Submodules are left out: ``decoupling.cli`` becomes an attribute
    only once something imports it."""
    public = sorted(
        name for name, value in vars(decoupling).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == PUBLIC_NAMES


def test_scenarios_imports_no_private_evolve_name():
    """Every run of a command, the free reference of a sweep included, goes
    through the public ``evolve`` API: ``scenarios`` imports no name of
    ``decoupling.evolve`` that starts with an underscore."""
    source = Path(decoupling.__file__).with_name("scenarios.py").read_text()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "evolve"
        for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("_")]


def test_package_evolve_is_the_function_and_importlib_reaches_the_module():
    """The function hides its submodule on the package, so patching
    ``decoupling.evolve`` patches nothing the runs read."""
    module = importlib.import_module("decoupling.evolve")
    assert isinstance(module, types.ModuleType) and module.__name__ == "decoupling.evolve"
    assert decoupling.evolve is module.evolve
    import decoupling.evolve as bound
    assert bound is module.evolve


def test_operators_have_no_arithmetic():
    """An ``Operator`` is a checked, write-protected matrix with its tensor
    factors and nothing more: code that combines operators combines their
    ``matrix`` arrays, so adding, subtracting or scaling them raises."""
    a = decoupling.Operator(np.eye(4), [2, 2])
    b = decoupling.Operator(np.eye(4), [4])
    for combine in (lambda: a + a, lambda: a - a, lambda: a + b, lambda: 2.0 * a,
                    lambda: a * 2.0, lambda: 1j * a, lambda: a * a):
        with pytest.raises(TypeError):
            combine()


def test_operators_hold_their_matrix_from_construction():
    """An ``Operator`` has its matrix from the start: there is no deferred
    constructor, no attribute hook that places a matrix on first read, and
    no slot beyond the matrix and its dims. A model places its dense parts
    itself, on their first read."""
    assert not hasattr(decoupling.Operator, "deferred")
    assert "__getattr__" not in vars(decoupling.Operator)
    assert decoupling.Operator.__slots__ == ("matrix", "dims")


def test_a_mode_table_is_its_two_stacks():
    """The bath's mode table is no type of its own: it is the model's stack of ``h_b``'s
    mode terms and that of each ``B_a``, one set of terms that the joint path, the
    product path and the Gram function all read."""
    fields = tuple(f.name for f in dataclasses.fields(decoupling.SystemBathModel))
    assert fields == ("words", "hamiltonian", "couplings")
    assert not hasattr(decoupling.model, "ModeTable")
