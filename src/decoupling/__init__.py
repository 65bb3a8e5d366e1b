"""Dynamical decoupling of open quantum systems by group averaging.

Build bang-bang control cycles from groups of Pauli words, compute the
effective (average) Hamiltonians they generate, propagate system-plus-
bath dynamics exactly, and measure how decoherence is suppressed as the
control time step shrinks.

The package attribute ``evolve`` is the function
:func:`decoupling.evolve.evolve`, which hides the submodule of that name:
``import decoupling.evolve as m`` binds the function too. The module is
``importlib.import_module("decoupling.evolve")``.
"""

from .operators import (
    DIM_CAP,
    NUMERIC_TOL,
    Operator,
    expm_hermitian,
)
from .model import (
    BathSpec,
    SystemBathModel,
    build_system_bath_model,
    coupling_tables,
    total_hamiltonian,
)
from .groups import (
    DecouplingGroup,
    DecouplingReport,
    check_decoupling,
    commutant_basis,
    minimal_group_search,
    pauli_group,
    pauli_sum,
    pauli_word_operator,
    project_commutant,
    trivial_group,
)
from .sequence import (
    CycleSchedule,
    boundary_pulses,
    schedule_from_group,
    schedule_to_record,
    symmetrize,
)
from .magnus import (
    average_h0,
    average_h1,
    truncation_error,
)
from .evolve import (
    RateEstimate,
    ScalingFit,
    SimulationRun,
    TrajectoryResult,
    coherence_l1,
    cycle_propagator,
    estimate_rates,
    evolve,
    fit_scaling_exponent,
    observable_drift,
    state_fidelity,
)
from .scenarios import (
    PRESETS,
    SCENARIO_NAMES,
    ConfigError,
    ScenarioConfig,
    build_model,
    build_schedule,
    load_config,
    parse_config,
    run_scenario,
    run_sweep,
)

__version__ = "0.1.0"
