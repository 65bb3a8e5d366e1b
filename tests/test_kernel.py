"""The propagation kernel against the density-matrix oracle.

The kernel diagonalizes the joint Hamiltonian once and propagates the
initial state's eigen-ensemble; ``oracle_dm`` steps the joint density
matrix with one eigendecomposition per segment. Both must give the same
snapshots on every preset and for mixed initial states. The stacked
snapshot observables must also agree, state by state, with the scalar
kernels ``oracle_dm`` keeps, the stepped snapshots with the per-snapshot
stepping loop it keeps, and the closed form with its closed form in blocks.
"""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from decoupling import (
    BathSpec,
    Operator,
    SimulationRun,
    build_model,
    build_schedule,
    build_system_bath_model,
    coherence_l1,
    cycle_propagator,
    evolve,
    expm_hermitian,
    parse_config,
    pauli_group,
    schedule_from_group,
    state_fidelity,
    trivial_group,
)

import oracle_dm
from oracle_model import dense_parts

PRESETS = ("dephasing-echo", "collective-register", "maximal-averaging", "selective-logic")
#: Each preset plain and palindromic, ``(name, symmetric)``.
PRESET_CYCLES = [(name, sym) for sym in (False, True) for name in PRESETS]
CYCLE_IDS = [name + ("-symmetric" if sym else "") for name, sym in PRESET_CYCLES]
TOL = 1e-10


def assert_same_snapshots(run):
    got = evolve(run)
    want = oracle_dm.evolve(run)
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.cycles, want.cycles)
    for name in ("fidelity", "coherence", "trace_distance"):
        diff = np.max(np.abs(getattr(got, name) - getattr(want, name)))
        assert diff <= TOL, f"{name} differs from the oracle by {diff:.3e}"
    assert np.max(np.abs(np.subtract(got.joint_purity, want.joint_purity))) <= TOL
    assert_same_kernels(got.states, run.rho_s0)


def assert_same_kernels(states, rho_s0):
    """Stacked observables against the oracle kernels, one snapshot at a time.

    Fidelity is taken against the initial state (the first snapshot is
    pure) and between neighbouring snapshots (mixed after the first), so
    the oracle's fidelity takes both its pure and its mixed branch.
    """
    ops = [Operator(s, rho_s0.dims) for s in states]
    pairs = list(zip(ops[1:], ops[:-1]))
    checks = {
        "fidelity to rho_s0": (state_fidelity(states, rho_s0),
                               [oracle_dm.state_fidelity(s, rho_s0) for s in ops]),
        "neighbour fidelity": (state_fidelity(states[1:], states[:-1]),
                               [oracle_dm.state_fidelity(a, b) for a, b in pairs]),
        "coherence": (coherence_l1(states), [oracle_dm.coherence_l1(s) for s in ops]),
    }
    for name, (got, want) in checks.items():
        diff = np.max(np.abs(got - np.array(want)))
        assert diff <= TOL, f"stacked {name} differs from the scalar kernel by {diff:.3e}"


def preset_runs(name, **overrides):
    cfg = parse_config({"scenario": name, "seed": 7, **overrides})
    model = build_model(cfg)
    schedule = build_schedule(cfg)
    free = schedule_from_group(trivial_group(cfg.n_qubits), schedule.cycle_time)
    common = dict(model=model, n_cycles=cfg.n_cycles, rho_s0=cfg.rho_s0,
                  sample_every=cfg.sample_every)
    return (SimulationRun(schedule=schedule, **common),
            SimulationRun(schedule=free, **common))


@pytest.mark.parametrize("name, symmetric", PRESET_CYCLES, ids=CYCLE_IDS)
def test_presets_match_density_matrix_oracle(name, symmetric):
    for run in preset_runs(name, symmetric=symmetric):
        assert_same_snapshots(run)


def assert_same_cycle(model, schedule):
    got = cycle_propagator(model, schedule).matrix
    want = oracle_dm.pulse_picture_propagator(model, schedule).matrix
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("name, symmetric", PRESET_CYCLES, ids=CYCLE_IDS)
def test_cycle_product_matches_pulse_picture_loop(name, symmetric):
    """The coset-halving product against the per-segment pulse loop."""
    cfg = parse_config({"scenario": name, "seed": 7, "symmetric": symmetric})
    assert_same_cycle(build_model(cfg), build_schedule(cfg))


def test_order_without_cosets_matches_pulse_picture_loop():
    """The full 2-qubit group in its listed order with IX and YI swapped:
    the halves [II YI IY IZ XI XX XY XZ] and [IX YX YY YZ ZI ZX ZY ZZ] are
    no coset of each other, nor are the quarters within either half, so
    the product splits plainly there and halves by cosets only below."""
    cfg = parse_config({"scenario": "maximal-averaging", "seed": 7, "K": 2,
                        "coupling": "linear-collective", "h_s": {"XI": 0.3, "ZZ": 0.2},
                        "bath": {"n_modes": 3}})
    ordering = list(range(16))
    ordering[1], ordering[8] = 8, 1
    schedule = replace(build_schedule(cfg), ordering=ordering)
    assert_same_cycle(build_model(cfg), schedule)


BOSON = {"scenario": "custom", "K": 1, "group": "flip", "coupling": "dephasing",
         "bath": {"kind": "boson-mode", "n_modes": 2, "boson_truncation": 3, "cutoff": 1.0,
                  "coupling_scale": 0.3}, "delta_t": 0.1, "n_cycles": 20}
#: K = 2 pure dephasing under the full group, with the first qubit not
#: conserved (the joint path) and with both qubits conserved (the product path).
K2_DEPHASING = {"scenario": "custom", "K": 2, "group": "full", "coupling": "dephasing",
                "bath": {"n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.3},
                "delta_t": 0.05, "n_cycles": 20}
JOINT_CONFIGS = [{"scenario": name, "symmetric": sym} for name, sym in PRESET_CYCLES] + [
    BOSON, {**K2_DEPHASING, "h_s": {"ZX": 0.2, "IX": 0.1}}, {**K2_DEPHASING, "h_s": {"ZZ": 0.2}}]
JOINT_IDS = CYCLE_IDS + ["boson-flip", "K2-ZX-IX", "K2-ZZ"]


@pytest.mark.parametrize("overrides", JOINT_CONFIGS, ids=JOINT_IDS)
def test_sector_blocks_match_dense_oracle(overrides):
    """The joint kernel against one joint ``eigh`` of ``np.kron`` parts, the dense
    coset-halving product and dense stepping: the cycle propagator and
    the states of the controlled and the free run."""
    runs = preset_runs(overrides["scenario"], **{k: v for k, v in overrides.items()
                                                 if k != "scenario"})
    model = runs[0].model
    got = cycle_propagator(runs[0].model, runs[0].schedule).matrix
    assert np.max(np.abs(got - oracle_dm.dense_cycle_propagator(model, runs[0].schedule))) <= TOL
    for run in runs:
        assert np.max(np.abs(evolve(run).states - oracle_dm.dense_states(run))) <= TOL


#: Fully conserved registers with mode stacks and the default bath, which
#: the product path evolves mode by mode.
PRODUCT_CONFIGS = [{"scenario": "dephasing-echo"},
                   {"scenario": "dephasing-echo", "symmetric": True},
                   {"scenario": "dephasing-echo", "symmetric": True, "sample_every": 4},
                   BOSON, {**K2_DEPHASING, "h_s": {"ZZ": 0.2}},
                   # |-i h delta_t| > 1/2: _expm squares its Taylor step once
                   {"scenario": "dephasing-echo", "delta_t": 1.0, "n_cycles": 40}]
PRODUCT_IDS = ["echo", "echo-symmetric", "echo-every-4", "boson-flip", "K2-ZZ",
               "echo-squared"]
#: The product path against the joint path, every field of a trajectory.
PRODUCT_TOL = 1e-11


def assert_product_path_matches_the_joint_path(run):
    """Every :class:`TrajectoryResult` field and observable of ``run`` (which
    takes the product path) against the same run on the joint path: its
    bath ground state passed as an explicit ``rho_b0``, on its joint
    spectrum. The states are also held to the dense oracle. Returns the
    largest difference."""
    got = evolve(run)
    want = evolve(replace(run, rho_b0=oracle_dm.bath_ground_state(run.model)))
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.cycles, want.cycles)
    diffs = {name: np.max(np.abs(np.subtract(getattr(got, name), getattr(want, name))))
             for name in ("states", "fidelity", "coherence", "trace_distance", "joint_purity")}
    assert (got.path, want.path) == ("modes", "joint")
    diffs["dense states"] = np.max(np.abs(got.states - oracle_dm.dense_states(run)))
    worst = max(diffs, key=diffs.get)
    assert diffs[worst] <= PRODUCT_TOL, f"{worst} differs by {diffs[worst]:.3e}"
    return diffs[worst]


@pytest.mark.parametrize("overrides", PRODUCT_CONFIGS, ids=PRODUCT_IDS)
def test_product_path_matches_the_sector_path(overrides):
    for run in preset_runs(overrides["scenario"], **{k: v for k, v in overrides.items()
                                                     if k != "scenario"}):
        assert run.path == "modes"
        assert_product_path_matches_the_joint_path(run)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_product_path_matches_the_sector_path_for_mixed_states(n_qubits):
    """A mixed ``rho_s0`` passed through the library: the product path reads
    ``rho0`` itself, the joint path its eigen-ensemble (here of rank 2)."""
    bath = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0, coupling_scale=0.4, seed=5)
    h_s = {"Z" * n_qubits: 0.3}
    model = build_system_bath_model(n_qubits, bath, coupling="dephasing", h_s=h_s)
    rho_s0 = MIXED if n_qubits == 1 else Operator(np.kron(MIXED.matrix, PLUS.matrix), [2, 2])
    for group, delta_t in ((pauli_group(n_qubits, "full"), 0.1), (trivial_group(n_qubits), 0.4)):
        run = SimulationRun(model=model, schedule=schedule_from_group(group, delta_t),
                            n_cycles=30, rho_s0=rho_s0, sample_every=3)
        assert_product_path_matches_the_joint_path(run)


def test_symmetric_sampled_run_matches_oracle():
    """``sample_every`` > 1 takes several cycle steps between snapshots."""
    for run in preset_runs("collective-register", symmetric=True, sample_every=5):
        assert_same_snapshots(run)


def thermal(h: Operator, beta: float) -> Operator:
    w, v = np.linalg.eigh(h.matrix)
    p = np.exp(-beta * (w - w.min()))
    return Operator((v * (p / p.sum())) @ v.conj().T, h.dims)


def mixed_runs():
    """A rank-2 system state and a thermal bath state, under the collective
    group and freely."""
    bath = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0, coupling_scale=0.3, seed=11)
    h_s = {"XX": 0.2, "ZI": 0.1}
    model = build_system_bath_model(2, bath, coupling="linear-collective", h_s=h_s)
    plus = np.full(4, 0.5)
    zero = np.eye(4)[0]
    rho_s0 = Operator(0.7 * np.outer(plus, plus) + 0.3 * np.outer(zero, zero), [2, 2])
    rho_b0 = thermal(dense_parts(model).h_b, beta=2.0)
    return [SimulationRun(model=model, schedule=schedule_from_group(group, delta_t),
                          n_cycles=40, rho_s0=rho_s0, rho_b0=rho_b0, sample_every=2)
            for group, delta_t in ((pauli_group(2, "collective"), 0.1),
                                   (trivial_group(2), 0.4))]


def test_mixed_initial_states_match_oracle():
    """A mixed system state and an explicit mixed bath state propagate as
    their eigen-ensembles (rank 2 times full rank here), under the
    collective group and freely, so the free run's closed form also takes
    16 columns (in blocks of 32 // 16 = 2 snapshots). The rank-deficient
    system state also gives a mixed reference, whose fidelity takes
    :func:`state_fidelity`."""
    for run in mixed_runs():
        assert_same_snapshots(run)
        assert evolve(run).joint_purity[0] < 0.5



def two_spin_run(group, coupling, n_cycles, sample_every, rho_s0, n_qubits=1):
    bath = BathSpec(kind="spin-bath", n_modes=2, cutoff=1.0, coupling_scale=0.3, seed=7)
    h_s = {"X" * n_qubits: 0.2}
    model = build_system_bath_model(n_qubits, bath, coupling=coupling, h_s=h_s)
    return SimulationRun(model=model,
                         schedule=schedule_from_group(pauli_group(n_qubits, group), 0.1),
                         n_cycles=n_cycles, rho_s0=rho_s0, sample_every=sample_every)


PLUS = Operator(np.full((2, 2), 0.5, dtype=complex), [2])
MIXED = Operator(np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex), [2])
PLUS2 = Operator(np.full((4, 4), 0.25, dtype=complex), [2, 2])


def recorded(monkeypatch, name):
    """Replaces the kernel function ``name`` of :mod:`decoupling.evolve` by one that
    records each call's ``(args, result)`` in the returned list."""
    evolve_module = importlib.import_module("decoupling.evolve")
    inner, calls = getattr(evolve_module, name), []

    def recording(*args):
        calls.append((args, inner(*args)))
        return calls[-1][1]

    monkeypatch.setattr(evolve_module, name, recording)
    return calls


@pytest.mark.parametrize("args", [
    ("flip", "dephasing", 100, 2, PLUS),  # d = 8: 51 snapshots
    ("full", "total", 99, 3, MIXED),  # rank 2: 34 snapshots
    ("full", "dephasing", 60, 1, PLUS2, 2),  # K = 2, d = 16: 61 snapshots
], ids=["pure-every-2", "mixed-every-3", "sectors"])
def test_stepped_snapshots_match_the_per_snapshot_loop(monkeypatch, args):
    """Every stepped ``psi``, written into its row of one array, is byte for
    byte the per-snapshot loop's, and the states agree with its
    one-at-a-time reductions."""
    calls = recorded(monkeypatch, "_stepped")
    run = two_spin_run(*args)
    got = evolve(run)
    psis, states = oracle_dm.stepped_snapshots(run)
    assert len(calls) == 1 and calls[0][1].tobytes() == psis.tobytes()
    assert np.max(np.abs(got.states - states)) <= 1e-14


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("name", PRESETS)
def test_closed_form_matches_the_blocked_oracle(monkeypatch, name, seed):
    """The free run's closed form over every sample time at once against the
    same form in blocks of at most ``d x d`` numbers, on each preset's own
    path and, for a conserved register, on the joint path too (its bath
    ground state passed as ``rho_b0``). The angle-addition phases split the
    times differently, so the two agree to round-off."""
    calls = recorded(monkeypatch, "_spectral_evolution")
    free = preset_runs(name, seed=seed)[1]
    runs = [free] + ([replace(free, rho_b0=oracle_dm.bath_ground_state(free.model))]
                     if free.path == "modes" else [])
    for run in runs:
        evolve(run)
    d = free.model.system_dim * free.model.bath_dim
    assert len(calls) == len(runs)
    for (energies, vectors, psi0, times), got in calls:
        want = oracle_dm.blocked_closed_form(energies, vectors, psi0, times,
                                             max(1, d * d // psi0.size))
        assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("angle, tol", [(1e2, 1e-13), (1e3, 4 * np.spacing(1e3))],
                         ids=["Et-1e2", "Et-1e3"])
@pytest.mark.parametrize("start", [0, 300])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 321])
def test_angle_addition_phases_match_direct_exponentials(n, start, angle, tol):
    """The closed form's phases, built by angle addition, against ``np.exp``
    of each time, read through identity eigenvectors: ``n`` uniform times
    of a block opening at cycle ``2 * start`` (every other cycle sampled),
    energies scaled so that the block's largest ``|E t|`` is ``angle``. Up
    to 1e2 they agree to 1e-13. Near 1e3 the spacing of the angle itself
    (1.1e-13) exceeds 1e-13 and both sides round their angles, so they
    agree to four spacings there."""
    rng = np.random.default_rng(n + start)
    times = (np.arange(0, 2 * (start + n), 2) * 0.2)[start:]
    energies = rng.uniform(-1.0, 1.0, size=(2, 6))
    energies *= angle / (np.max(np.abs(energies)) * max(times[-1], 1.0))
    eye = np.broadcast_to(np.eye(6, dtype=complex), (2, 6, 6))
    evolve_module = importlib.import_module("decoupling.evolve")
    got = evolve_module._spectral_evolution(energies, eye, np.ones((2, 6, 1), dtype=complex),
                                            times)
    assert got.shape == (n, 2, 6, 1)
    assert np.max(np.abs(got[..., 0] - np.exp(-1j * energies * times[:, None, None]))) <= tol


def assert_fidelity_matches_the_threshold_kernel(run):
    """Every fidelity of ``run`` against the kernel that read a state within
    1e-10 of pure as pure, on the same states and a reference evolved by
    its own exponential: they differ by at most that 1e-10."""
    got = evolve(run)
    system = run._columns[0]
    h_ideal = run.ideal_system_hamiltonian()
    roots = np.array([expm_hermitian(h_ideal, t).matrix @ system for t in got.times])
    diff = np.max(np.abs(got.fidelity - oracle_dm.reference_fidelity(got.states, roots)))
    assert diff <= TOL, f"fidelity differs from the threshold kernel by {diff:.3e}"


@pytest.mark.parametrize("name, symmetric", PRESET_CYCLES, ids=CYCLE_IDS)
def test_preset_fidelity_matches_the_threshold_kernel(name, symmetric):
    for run in preset_runs(name, symmetric=symmetric):
        assert_fidelity_matches_the_threshold_kernel(run)


def test_mixed_state_fidelity_matches_the_threshold_kernel():
    for run in mixed_runs() + [two_spin_run("full", "total", 99, 3, MIXED)]:
        assert_fidelity_matches_the_threshold_kernel(run)
