"""Exact propagation invariants, fidelity oracles, rate estimation."""

import gc
import importlib
import itertools
import json
import math
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace

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
    estimate_rates,
    evolve,
    expm_hermitian,
    fit_scaling_exponent,
    observable_drift,
    parse_config,
    pauli_group,
    pauli_sum,
    pauli_word_operator,
    project_commutant,
    run_scenario,
    run_sweep,
    schedule_from_group,
    state_fidelity,
    symmetrize,
    trivial_group,
)
from decoupling.evolve import SNAPSHOT_CAP, SnapshotBoundError
from decoupling.scenarios import PRESETS, _free_run

from oracle_dm import bath_ground_state
from oracle_groups import frames as schedule_frames
import oracle_model
from oracle_model import DenseModel, dense_parts, hand_built, identity, tensor

PLUS = Operator(np.full((2, 2), 0.5, dtype=complex), [2])


def make_model(seed=7, coupling="dephasing", n_qubits=1, h_s=None):
    bath = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0,
                    coupling_scale=0.4, seed=seed)
    return build_system_bath_model(n_qubits, bath, coupling=coupling, h_s=h_s)


def random_density(rng, d, dims):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return Operator(rho / np.trace(rho).real, dims)


def test_cycle_propagator_is_unitary():
    model = make_model()
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.1)
    u = cycle_propagator(model, sched).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-10


def test_cycle_propagator_equals_pulse_interleaved_product():
    """The toggled-frame product must match physical pulses interleaved
    with free evolution under the untouched Hamiltonian."""
    for coupling, group in (("dephasing", pauli_group(1, "flip")),
                            ("total", pauli_group(1, "full"))):
        model = make_model(coupling=coupling)
        sched = schedule_from_group(group, delta_t=0.17)
        u_frames = cycle_propagator(model, sched)

        h0 = oracle_model.total_hamiltonian(model)
        free = expm_hermitian(h0, sched.delta_t).matrix
        eye_b = identity(list(model.bath_dims))
        frames = schedule_frames(sched)
        prod = np.eye(h0.dim, dtype=complex)
        for j, f in enumerate(frames):
            pulse = Operator(frames[(j + 1) % len(frames)] @ f.conj().T, model.system_dims)
            prod = tensor(pulse, eye_b).matrix @ free @ prod
        assert np.max(np.abs(prod - u_frames.matrix)) < 1e-9


@pytest.mark.parametrize("group, symmetric, products", [
    (pauli_group(2, "full"), False, 4),
    (pauli_group(2, "full"), True, 5),
    (pauli_group(3, "full"), False, 6),
    (pauli_group(2, "collective"), False, 2),
    (pauli_group(2, "flip"), True, 2),
    (trivial_group(2), False, 0),
])
def test_named_cycles_halve_by_cosets(monkeypatch, group, symmetric, products):
    """A named group's cycle halves by cosets at every level: one dense
    product and one recursive call per halving, so ``log2`` of the
    segment count in products and one call more than that."""
    evolve_module = importlib.import_module("decoupling.evolve")
    calls = []
    inner = evolve_module._cycle_product

    def counting(*args):
        calls.append(len(args[-1]))
        return inner(*args)

    monkeypatch.setattr(evolve_module, "_cycle_product", counting)
    model = make_model(n_qubits=len(group.labels[0]))
    schedule = replace(schedule_from_group(group, delta_t=0.1), symmetric=symmetric)
    cycle_propagator(model, schedule)
    assert 2**products == schedule.n_segments
    assert calls == [schedule.n_segments >> k for k in range(products + 1)]


def test_free_run_builds_no_cycle_propagator(monkeypatch, tmp_path):
    """A trivial-group schedule, plain or palindromic, is read off the
    spectrum in closed form, directly and as the free half of a scenario;
    only the controlled run builds the cycle propagator. The scenario is
    one the joint path evolves: a ``dephasing-echo`` builds no joint cycle
    at all (see ``test_echo_runs_build_no_joint_spectrum``)."""
    evolve_module = importlib.import_module("decoupling.evolve")
    inner = evolve_module._cycle_blocks
    built = []

    def refuse_free(model, schedule):
        if schedule.group.order == 1:
            raise AssertionError("the free run built a cycle propagator")
        built.append(schedule.group.order)
        return inner(model, schedule)

    monkeypatch.setattr(evolve_module, "_cycle_blocks", refuse_free)
    model = make_model(n_qubits=2, coupling="linear-collective")
    rho_s0 = Operator(np.kron(PLUS.matrix, PLUS.matrix), [2, 2])
    for symmetric in (False, True):
        sched = replace(schedule_from_group(trivial_group(2), 0.1), symmetric=symmetric)
        evolve(SimulationRun(model=model, schedule=sched, n_cycles=4, rho_s0=rho_s0))
    cfg = parse_config({"scenario": "collective-register", "seed": 7, "n_cycles": 10})
    assert run_scenario(cfg, tmp_path) == 0
    assert built == [4]


K2_DEPHASING = {"scenario": "custom", "K": 2, "group": "full", "coupling": "dephasing",
                "bath": {"n_modes": 4, "cutoff": 1.0, "coupling_scale": 0.3},
                "delta_t": 0.05, "n_cycles": 20}


def test_echo_runs_build_no_joint_spectrum(monkeypatch, tmp_path):
    """An echo ``simulate`` and an echo ``sweep`` take the product path: no
    joint Hamiltonian, no joint cycle, and no ``eigh`` larger than a
    register or a bath mode. A register that is not fully conserved
    (K2-ZX-IX) and an explicit ``rho_b0`` still take the joint path."""
    evolve_module = importlib.import_module("decoupling.evolve")
    model_module = importlib.import_module("decoupling.model")
    calls, sizes = [], []

    def recording(name, inner):
        return lambda *args: calls.append(name) or inner(*args)

    monkeypatch.setattr(model_module, "hamiltonian_matrix",
                        recording("hamiltonian_matrix", model_module.hamiltonian_matrix))
    monkeypatch.setattr(evolve_module, "_cycle_blocks",
                        recording("_cycle_blocks", evolve_module._cycle_blocks))
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(a.shape[-1]) or eigh(a))
    echo = {"scenario": "dephasing-echo", "seed": 7, "symmetric": True}
    assert run_scenario(parse_config(echo), tmp_path / "simulate") == 0
    sweep = {**echo, "sweep": {"parameter": "delta_t", "values": [0.2, 0.1, 0.05]}}
    assert run_sweep(parse_config(sweep), tmp_path / "sweep") == 0
    assert calls == [] and max(sizes) == 2

    k2 = {"seed": 7, **K2_DEPHASING, "h_s": {"ZX": 0.2, "IX": 0.1}}
    assert run_scenario(parse_config(k2), tmp_path / "k2") == 0
    assert calls == ["hamiltonian_matrix", "_cycle_blocks"]
    calls.clear()
    config = parse_config(echo)
    model = build_model(config)
    evolve(SimulationRun(model=model, schedule=build_schedule(config), n_cycles=4,
                         rho_s0=config.rho_s0, rho_b0=bath_ground_state(model)))
    assert calls == ["hamiltonian_matrix", "_cycle_blocks"]


def test_a_cached_joint_spectrum_leaves_the_path_alone():
    """The run, not what its model has cached, picks the path: an echo run
    takes the product path, bit for bit the same, before and after its
    model's joint spectrum is read; an explicit ``rho_b0`` takes the joint
    path."""
    config = parse_config({"scenario": "dephasing-echo", "seed": 7, "n_cycles": 6})
    model = build_model(config)
    common = dict(schedule=build_schedule(config), n_cycles=6, rho_s0=config.rho_s0)
    fresh = evolve(SimulationRun(model=model, **common))
    assert model._joint_spectrum.energies.shape == (model.system_dim * model.bath_dim,)
    cached = evolve(SimulationRun(model=model, **common))
    for name in ("states", "fidelity", "coherence", "trace_distance"):
        assert getattr(cached, name).tobytes() == getattr(fresh, name).tobytes()
    assert fresh.path == cached.path == "modes"
    mixed_bath = Operator(np.eye(model.bath_dim) / model.bath_dim, model.bath_dims)
    assert evolve(SimulationRun(model=model, rho_b0=mixed_bath, **common)).path == "joint"


BOSON_ECHO = {"scenario": "custom", "K": 1, "group": "flip", "coupling": "dephasing",
              "bath": {"kind": "boson-mode", "n_modes": 2, "boson_truncation": 3,
                       "cutoff": 1.0, "coupling_scale": 0.3}, "delta_t": 0.1, "n_cycles": 20}
ECHO = {"scenario": "dephasing-echo"}


@pytest.mark.parametrize("doc, variant, product", [
    (ECHO, None, True),
    (BOSON_ECHO, None, True),
    ({**K2_DEPHASING, "h_s": {"ZZ": 0.2}}, None, True),
    # a word with a zero coefficient is no term: the register is still conserved
    ({**K2_DEPHASING, "h_s": {"ZZ": 0.2, "XI": 0.0}}, None, True),
    ({**K2_DEPHASING, "h_s": {"ZX": 0.2, "IX": 0.1}}, None, False),
    # any nonzero X or Y word, however small
    ({**K2_DEPHASING, "h_s": {"ZZ": 0.2, "IY": 1e-300}}, None, False),
    ({**K2_DEPHASING, "h_s": {"YZ": -0.1}}, None, False),
    # the second qubit is conserved, the first is not
    ({**K2_DEPHASING, "h_s": {"XI": 0.2}}, None, False),
    ({"scenario": "collective-register"}, None, False),
    ({"scenario": "maximal-averaging"}, None, False),
    ({"scenario": "selective-logic"}, None, False),
    # a one-mode copy: the whole bath is one mode, still conserved
    (ECHO, "hand-built", True),
    ({**K2_DEPHASING, "h_s": {"ZZ": 0.2}}, "hand-built", True),
    (ECHO, "rho_b0", False),
], ids=["dephasing-echo", "boson-echo", "K2-ZZ", "K2-ZZ-XI0", "K2-ZX-IX", "K2-ZZ-IY1e-300",
        "K2-YZ", "K2-XI", "collective-register", "maximal-averaging", "selective-logic",
        "hand-built-echo", "hand-built-K2-ZZ", "echo-rho_b0"])
def test_which_runs_take_the_product_path(monkeypatch, doc, variant, product):
    """A model whose ``h_s`` and system factors have no nonzero X or Y word, with
    the default bath, takes the product path (its trajectory's ``path`` is
    ``"modes"``) and makes no ``eigh`` of joint size, whether its bath is the
    builder's mode stacks or one mode holding all of ``h_b``. Every other run
    takes the joint path (``"joint"``), whose spectrum, cached on the model, is
    one ``eigh`` of the ``d x d`` Hamiltonian, energies ``(d,)`` and vectors
    ``(d, d)`` that rebuild it, next to one batched ``eigh`` of the bath modes
    for the ground vector; the run makes no other."""
    config = parse_config({"seed": 7, **doc})
    model = build_model(config)
    d, rho_b0 = model.system_dim * model.bath_dim, None
    if variant == "hand-built":
        model = hand_built(dense_parts(model))
    elif variant == "rho_b0":
        rho_b0 = bath_ground_state(model)
    common = dict(schedule=build_schedule(config), n_cycles=4, rho_s0=config.rho_s0,
                  rho_b0=rho_b0)
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    if product:
        assert evolve(SimulationRun(model=model, **common)).path == "modes"
        assert all(shape[-1] < d for shape in shapes)
        return
    spectrum = model._joint_spectrum
    assert shapes == [(d, d), model.hamiltonian.shape]
    assert evolve(SimulationRun(model=model, **common)).path == "joint"
    assert shapes.count((d, d)) == 1
    assert spectrum.energies.shape == (d,) and spectrum.vectors.shape == (d, d)
    v = spectrum.vectors
    rebuilt = (v * spectrum.energies) @ v.conj().T
    assert np.max(np.abs(rebuilt - oracle_model.total_hamiltonian(model).matrix)) <= 1e-12


@pytest.mark.parametrize("doc", [ECHO, {**K2_DEPHASING, "h_s": {"ZZ": 0.2}}],
                         ids=["echo", "K2-ZZ"])
def test_a_one_mode_copy_evolves_like_the_builders_model(doc):
    """Holding the whole bath as one mode, ``h_b`` and the ``B_a`` each one term,
    changes how the product path groups its arithmetic, not what it
    computes: the copy's states agree with the builder's model's to 1e-11."""
    config = parse_config({"seed": 7, **doc})
    model = build_model(config)
    copy = hand_built(dense_parts(model))
    common = dict(schedule=build_schedule(config), n_cycles=20, rho_s0=config.rho_s0)
    got, want = (evolve(SimulationRun(model=m, **common)) for m in (copy, model))
    assert got.path == want.path == "modes"
    assert np.max(np.abs(got.states - want.states)) <= 1e-11


@pytest.mark.parametrize("scenario, joint_eighs", [
    ("maximal-averaging", 1), ("dephasing-echo", 0)], ids=["joint", "echo"])
def test_a_simulate_and_a_sweep_each_diagonalize_the_model_once(monkeypatch, tmp_path,
                                                                 scenario, joint_eighs):
    """One ``simulate`` (the controlled and the free run) and one whole ``sweep``
    (every point and the free reference) share the spectrum their model caches:
    one ``eigh`` of ``d x d`` each on the joint path, none for the echo. The
    summary names the path."""
    config = parse_config({"scenario": scenario, "seed": 7, "symmetric": True,
                           "delta_t": 0.16, "n_cycles": 20,
                           "sweep": {"parameter": "delta_t", "values": [0.02, 0.04, 0.08, 0.16]}})
    d = 2 ** (config.n_qubits + config.bath.n_modes)
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    for run in (run_scenario, run_sweep):
        shapes.clear()
        assert run(config, tmp_path / run.__name__) == 0
        assert shapes.count((d, d)) == joint_eighs
        summary = json.loads((tmp_path / run.__name__ / "summary.json").read_text())
        assert summary["path"] == ("joint" if joint_eighs else "modes")


@pytest.mark.parametrize("scenario, path", [
    ("maximal-averaging", "joint"), ("dephasing-echo", "modes")])
def test_a_model_is_freed_with_its_last_reference(scenario, path):
    """What a model caches (its joint spectrum, its mode Hamiltonians) holds no
    reference back to it, so reference counting alone frees a model that an
    ``evolve`` used, with the cyclic collector off, once its trajectory (which
    holds the run, and so the model) is gone: no joint array outlives it."""
    config = parse_config({"scenario": scenario, "seed": 7})
    gc.disable()
    try:
        model = build_model(config)
        traj = evolve(SimulationRun(model=model, schedule=build_schedule(config), n_cycles=4,
                                    rho_s0=config.rho_s0))
        assert traj.path == path
        assert ("_joint_spectrum" in vars(model)) == (path == "joint")
        assert traj.trace_distance.shape == traj.fidelity.shape == (5,)
        ref = weakref.ref(model)
        del model
        assert ref() is traj.run.model
        del traj
        assert ref() is None
    finally:
        gc.enable()


def test_cycle_product_keeps_four_joint_matrices():
    """At d = 256, building the cycle's matrix (the free
    step W included) peaks at four d x d complex arrays over what was
    allocated before; the slack covers the small per-frame arrays."""
    evolve_module = importlib.import_module("decoupling.evolve")
    bath = BathSpec(kind="spin-bath", n_modes=6, cutoff=1.0, coupling_scale=0.3, seed=7)
    model = build_system_bath_model(2, bath, coupling="linear-collective",
                                    h_s={"XI": 0.3})
    assert model._joint_spectrum.energies.shape == (256,)
    schedule = schedule_from_group(pauli_group(2, "full"), delta_t=0.05)
    unit = 256 * 256 * 16
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evolve_module._cycle_blocks(model, schedule)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * unit + unit // 16


@pytest.mark.parametrize("doc, coset_steps", [
    # one coset step by X; a palindrome halves once more by X
    ({"scenario": "dephasing-echo"}, 1),
    ({"scenario": "dephasing-echo", "symmetric": True}, 2),
    # one coset step per halving of the 16 segments
    ({"scenario": "maximal-averaging", "K": 2, "coupling": "linear-collective",
      "h_s": {"XI": 0.3, "ZZ": 0.2}}, 4),
], ids=["echo", "echo-symmetric", "K2-full"])
def test_identity_frames_make_no_frame_action(monkeypatch, doc, coset_steps):
    """On the joint path the identity word's frame returns its input and
    allocates no array; every other word acts once per coset step, each
    time into a new array."""
    evolve_module = importlib.import_module("decoupling.evolve")
    calls, inner = [], evolve_module._conjugate

    def recording(code, n_qubits, x):
        tracemalloc.start()
        try:
            out = inner(code, n_qubits, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        calls.append((code == 0, out is x, peak))
        return out

    monkeypatch.setattr(evolve_module, "_conjugate", recording)
    config = parse_config({"seed": 7, **doc})
    evolve_module._cycle_blocks(build_model(config), build_schedule(config))
    identity = [(same, peak) for is_identity, same, peak in calls if is_identity]
    others = [same for is_identity, same, _ in calls if not is_identity]
    assert identity and all(same and peak < 1024 for same, peak in identity)
    assert len(others) == coset_steps and not any(others)


@pytest.mark.parametrize("mixed", [False, True])
def test_initial_columns_are_the_kron_product_bitwise(monkeypatch, mixed):
    """The joint initial columns, ``psi_i (x) phi_k``, are ``np.kron`` of the
    system and bath ensembles bit for bit."""
    evolve_module = importlib.import_module("decoupling.evolve")
    seen = []
    inner = evolve_module._joint_purity
    monkeypatch.setattr(evolve_module, "_joint_purity",
                        lambda psi: seen.append(psi.copy()) or inner(psi))
    model = make_model(n_qubits=2, h_s={"ZI": 0.3, "IX": 0.2})
    rho_s0 = Operator(np.kron(PLUS.matrix, np.diag([0.75, 0.25]) if mixed else PLUS.matrix),
                      [2, 2])
    rho_b0 = Operator(np.diag([0.5, 0.3, 0.2] + [0.0] * 5), [2, 2, 2]) if mixed else None
    schedule = schedule_from_group(pauli_group(2, "flip"), 0.1)
    run = SimulationRun(model=model, schedule=schedule, n_cycles=2, rho_s0=rho_s0,
                        rho_b0=rho_b0)
    evolve(run)
    spectrum = model._joint_spectrum
    system, bath = run._columns
    want = np.kron(system, bath if mixed else spectrum.bath_ground[:, None])
    assert spectrum.energies.shape == (32,) and want.shape == (32, 6 if mixed else 1)
    assert np.array_equal(seen[0], want)


def test_purity_and_trace_conserved():
    model = make_model(coupling="total")
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.1)
    run = SimulationRun(model=model, schedule=sched, n_cycles=50,
                        rho_s0=PLUS,
                        sample_every=5)
    traj = evolve(run)
    # the joint state stays pure under unitary evolution; its reduction
    # keeps unit trace at every snapshot
    for state in traj.states:
        assert abs(np.trace(state) - 1.0) < 1e-9
        evals = np.linalg.eigvalsh(state)
        assert evals.min() > -1e-9
    initial, terminal = traj.joint_purity
    assert abs(terminal - initial) < 1e-9
    assert initial > 1.0 - 1e-12


def test_echo_limit_is_exact_for_commuting_bath():
    """When every toggled Hamiltonian commutes, one flip cycle returns
    the system exactly (commuting dephasing bath)."""
    sz = np.diag([1.0, -1.0]).astype(complex)
    model = hand_built(DenseModel(Operator(np.zeros((2, 2), dtype=complex), [2]),
                                  Operator(0.7 * sz, [2]),
                                  ((pauli_word_operator("Z"), Operator(0.4 * sz, [2])),)))
    sched = schedule_from_group(pauli_group(1, "flip"), delta_t=0.3)
    run = SimulationRun(model=model, schedule=sched, n_cycles=100,
                        rho_s0=PLUS)
    traj = evolve(run)
    assert traj.terminal_fidelity >= 1.0 - 1e-12
    assert np.all(traj.fidelity >= 1.0 - 1e-12)


@pytest.mark.parametrize("group", [pauli_group(1, "flip"), trivial_group(1)],
                         ids=["flip", "free"])
def test_product_path_on_a_non_diagonal_mode_matches_the_joint_path(group):
    """A one-mode bath whose term of ``h_b`` is a random non-diagonal Hermitian matrix, under a
    conserved register: the product path starts from the mode's ``eigh`` ground vector
    and agrees with the joint path, given that ground state as an explicit ``rho_b0``,
    to 1e-10 in states and fidelity."""
    rng = np.random.default_rng(17)

    def herm(d, scale):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return Operator(scale * (m + m.conj().T) / 2, [d])

    model = hand_built(DenseModel(Operator(0.3 * np.diag([1.0, -1.0]), [2]), herm(4, 1.0),
                                  ((pauli_word_operator("Z"), herm(4, 0.2)),)))
    h_b = dense_parts(model).h_b.matrix
    assert np.count_nonzero(h_b - np.diag(h_b.diagonal()))
    run = SimulationRun(model=model, schedule=schedule_from_group(group, delta_t=0.1),
                        n_cycles=30, rho_s0=PLUS, sample_every=3)
    got = evolve(run)
    want = evolve(replace(run, rho_b0=bath_ground_state(model)))
    assert (got.path, want.path) == ("modes", "joint")
    assert np.max(np.abs(got.states - want.states)) <= 1e-10
    assert np.max(np.abs(got.fidelity - want.fidelity)) <= 1e-10
    assert got.fidelity[-1] < 1.0 - 1e-4  # the bath does act on the register


def test_free_evolution_reference_uses_bare_hamiltonian():
    """Without a group, fidelity is measured against evolution under h_s
    alone, so an isolated system holds fidelity one."""
    bath = BathSpec(kind="spin-bath", n_modes=2, cutoff=1.0,
                    coupling_scale=1e-12, seed=3)
    model = build_system_bath_model(1, bath, coupling="dephasing", h_s={"X": 0.5})
    from decoupling import trivial_group
    sched = schedule_from_group(trivial_group(1), delta_t=0.2)
    ground = Operator(np.diag([1.0, 0.0]).astype(complex), [2])
    run = SimulationRun(model=model, schedule=sched, n_cycles=30, rho_s0=ground)
    traj = evolve(run)
    assert traj.terminal_fidelity > 1.0 - 1e-8
    # but the state itself rotates: it is not frozen
    assert np.max(np.abs(traj.states[-1] - ground.matrix)) > 0.1


@pytest.mark.parametrize("name", [name for name in PRESETS if name != "custom"])
def test_the_reference_is_the_dense_projection_bitwise_on_every_preset(name):
    """The reference Hamiltonian, the Pauli sum of the words of ``h_s`` the group
    keeps, is the dense projection of ``h_s`` (the oracle), bit for bit."""
    config = parse_config({"scenario": name, "seed": 7})
    run = SimulationRun(build_model(config), build_schedule(config), 1, config.rho_s0)
    want = project_commutant(pauli_sum(config.h_s, config.n_qubits), config.group)
    assert run.ideal_system_hamiltonian().matrix.tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_the_reference_is_the_dense_projection_on_every_named_group(n_qubits):
    """On every named group of one to three qubits, the word-table reference is the
    dense projection bit for bit for each word alone, and to 1e-15 times the sum of
    ``|c|`` for ``h_s`` holding every word at once with coefficients in [-1, 1]:
    there the dense projection adds kept and removed words of one entry before it
    cancels them."""
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=n_qubits)]
    coefficients = np.random.default_rng(n_qubits).uniform(-1.0, 1.0, len(words))
    rho_s0 = Operator(np.eye(2**n_qubits) / 2**n_qubits, (2,) * n_qubits)
    groups = [trivial_group(n_qubits)] + [pauli_group(n_qubits, variant)
                                          for variant in ("flip", "collective", "full")]
    for table, tol in [*(({w: 0.7}, None) for w in words),
                       (dict(zip(words, coefficients.tolist())),
                        1e-15 * np.abs(coefficients).sum())]:
        model = make_model(n_qubits=n_qubits, h_s=table)
        for group in groups:
            run = SimulationRun(model, schedule_from_group(group, 0.1), 1, rho_s0)
            got = run.ideal_system_hamiltonian().matrix
            want = project_commutant(pauli_sum(table, n_qubits), group).matrix
            if tol is None:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("h_s, mixed, ground", [
    ({"Z": 0.3}, False, False), ({"Z": 0.3}, True, False), ({"X": 0.3}, False, False),
    ({"X": 0.3}, True, False), ({"Z": 0.3}, True, True)],
    ids=["modes", "modes-mixed", "joint", "joint-mixed", "joint-rho_b0"])
def test_a_run_decomposes_its_initial_states_once(monkeypatch, h_s, mixed, ground):
    """Making a run, evolving it and reading its fidelity make one ``eigh`` or
    ``eigvalsh`` whose input is the matrix of ``rho_s0``, and one of ``rho_b0``
    when it is given: the run's check gives the columns both the joint path and
    the reference read."""
    model = make_model(h_s=h_s)
    rho_s0 = Operator(np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex) if mixed
                      else PLUS.matrix, [2])
    rho_b0 = bath_ground_state(model) if ground else None
    seen = {"rho_s0": 0, "rho_b0": 0}
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, inner=getattr(np.linalg, name), **kwargs):
            for key, rho in (("rho_s0", rho_s0), ("rho_b0", rho_b0)):
                seen[key] += rho is not None and np.shape(a) == rho.matrix.shape and bool(
                    np.array_equal(a, rho.matrix))
            return inner(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    run = SimulationRun(model, schedule_from_group(pauli_group(1, "flip"), 0.1), 20, rho_s0,
                        rho_b0=rho_b0)
    evolve(run).fidelity
    assert seen == {"rho_s0": 1, "rho_b0": int(ground)}


def test_no_run_makes_the_dense_projection(monkeypatch, tmp_path):
    """A ``simulate`` and a ``sweep``, on the joint and on the product path, never
    call ``project_commutant``: the reference comes from the word table."""
    calls = []
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "decoupling"]:
        if hasattr(module, "project_commutant"):
            monkeypatch.setattr(module, "project_commutant",
                                lambda *args: calls.append(args) or project_commutant(*args))
    for name in ("collective-register", "dephasing-echo"):
        config = parse_config({"scenario": name, "seed": 7, "n_cycles": 8, "delta_t": 0.04,
                               "sweep": {"parameter": "delta_t", "values": [0.01, 0.02, 0.04]}})
        for run in (run_scenario, run_sweep):
            assert run(config, tmp_path / name / run.__name__) == 0
    assert calls == []


def test_trivial_group_reference_is_the_bare_hamiltonian_exactly():
    """Averaging over the one-element group returns ``h_s`` entry for entry,
    so a free run's reference needs no special case."""
    h_s = {"XY": 0.3, "ZI": 0.7, "YZ": -0.2}
    model = make_model(n_qubits=2, coupling="linear-collective", h_s=h_s)
    from decoupling import trivial_group
    run = SimulationRun(model=model,
                        schedule=schedule_from_group(trivial_group(2), 0.1),
                        n_cycles=1, rho_s0=Operator(np.diag([1.0, 0, 0, 0]), [2, 2]))
    assert np.array_equal(run.ideal_system_hamiltonian().matrix, dense_parts(model).h_s.matrix)


def test_state_fidelity_pure_state_formula():
    rng = np.random.default_rng(31)
    for _ in range(5):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w /= np.linalg.norm(w)
        a = Operator(np.outer(v, v.conj()), [3])
        b = Operator(np.outer(w, w.conj()), [3])
        want = abs(np.vdot(v, w)) ** 2
        assert abs(state_fidelity(a, b) - want) < 1e-12


def random_pure(rng, d, dims):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return Operator(np.outer(v, v.conj()) / np.vdot(v, v).real, dims)


def test_state_fidelity_qubit_closed_form():
    """For qubits F = tr(rho sigma) + 2 sqrt(det rho det sigma), on pairs
    with a pure first state, a pure second state and two mixed states,
    one at a time and in one stack."""
    rng = np.random.default_rng(37)
    pairs = [(random_density(rng, 2, [2]), random_density(rng, 2, [2])) for _ in range(8)]
    pairs += [(random_pure(rng, 2, [2]), random_density(rng, 2, [2])),
              (random_density(rng, 2, [2]), random_pure(rng, 2, [2]))]
    want = []
    for a, b in pairs:
        f = np.trace(a.matrix @ b.matrix).real
        f += 2 * np.sqrt(max(np.linalg.det(a.matrix).real, 0.0)
                         * max(np.linalg.det(b.matrix).real, 0.0))
        assert abs(state_fidelity(a, b) - f) < 1e-10
        want.append(f)
    stack_a = np.array([a.matrix for a, _ in pairs])
    stack_b = np.array([b.matrix for _, b in pairs])
    got = state_fidelity(stack_a, stack_b)
    assert got.shape == (len(pairs),)
    assert np.max(np.abs(got - want)) < 1e-10


def test_state_fidelity_bounds_and_symmetry():
    rng = np.random.default_rng(41)
    a = random_density(rng, 4, [4])
    b = random_density(rng, 4, [4])
    f_ab = state_fidelity(a, b)
    f_ba = state_fidelity(b, a)
    assert 0.0 <= f_ab <= 1.0
    assert abs(f_ab - f_ba) < 1e-10
    assert abs(state_fidelity(a, a) - 1.0) < 1e-10


def test_coherence_l1():
    rho = Operator(np.array([[0.5, 0.25 - 0.25j], [0.25 + 0.25j, 0.5]]), [2])
    want = 2 * abs(0.25 - 0.25j)
    assert abs(coherence_l1(rho) - want) < 1e-12
    assert coherence_l1(Operator(np.diag([0.3, 0.7]).astype(complex), [2])) == 0.0


def test_run_validation():
    model = make_model()
    sched = schedule_from_group(pauli_group(1, "flip"), delta_t=0.1)
    with pytest.raises(ValueError):
        SimulationRun(model=model, schedule=sched, n_cycles=0, rho_s0=PLUS)
    with pytest.raises(ValueError):
        SimulationRun(model=model, schedule=sched, n_cycles=10, rho_s0=PLUS,
                      sample_every=3)
    not_density = Operator(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex), [2])
    with pytest.raises(ValueError):
        SimulationRun(model=model, schedule=sched, n_cycles=10, rho_s0=not_density)
    with pytest.raises(ValueError):
        SimulationRun(model=model, schedule=sched, n_cycles=10, rho_s0=PLUS,
                      rho_b0="thermal")
    with pytest.raises(ValueError, match="^rho_s0: expected an Operator, got ndarray$"):
        SimulationRun(model, sched, 5, np.eye(2) / 2)


@pytest.mark.parametrize("name, value", [("n_cycles", 2.5), ("n_cycles", 10.0),
                                         ("n_cycles", True), ("sample_every", 2.0),
                                         ("sample_every", True)])
def test_run_takes_only_integer_counts(name, value):
    """A cycle count or sample stride that is not an integer (a float, or a ``bool``) is
    rejected by name, not failed on inside ``matrix_power`` or misreported as a stride
    that does not divide; numpy integers run as the ints they hold."""
    model = make_model()
    sched = schedule_from_group(pauli_group(1, "flip"), delta_t=0.1)
    counts = {"n_cycles": 10, "sample_every": 2, name: value}
    with pytest.raises(ValueError, match=f"^{name}: expected an integer, got "
                                         f"{type(value).__name__}$"):
        SimulationRun(model=model, schedule=sched, rho_s0=PLUS, **counts)
    got, want = (evolve(SimulationRun(model=model, schedule=sched, rho_s0=PLUS, n_cycles=n,
                                      sample_every=k))
                 for n, k in ((np.int64(10), np.int32(2)), (10, 2)))
    assert got.states.tobytes() == want.states.tobytes()
    assert got.cycles.tolist() == want.cycles.tolist()


@pytest.mark.parametrize("h_s, rho_s0, width, path", [
    # 4 d_s m n (the snapshots twice, in extended precision) + (m + 2) d_s**2
    ({"Z": 0.3}, PLUS, 4 * 2 * 3 * 2 + 5 * 4, "modes"),
    ({"X": 0.3}, PLUS, 3 * 16 + 4, "joint"),  # three arrays of d = 2 * 2**3 + d_s**2
    ({"X": 0.3}, Operator(np.diag([0.75, 0.25]).astype(complex), [2]), 3 * 32 + 4,
     "joint"),  # rank 2: two columns
], ids=["product", "joint", "joint-mixed"])
def test_a_run_is_bounded_by_its_snapshot_array(h_s, rho_s0, width, path):
    """A run whose peak would hold more than ``SNAPSHOT_CAP`` numbers is
    refused on ``n_cycles`` when it is made: the longest run that fits is
    made, and one more snapshot, at any ``sample_every``, is refused. Counts
    are compared as Python ints, so a numpy count cannot wrap past the bound."""
    model = make_model(h_s=h_s)
    sched = schedule_from_group(pauli_group(1, "flip"), delta_t=0.1)
    fit = SNAPSHOT_CAP // width
    assert SimulationRun(model, sched, fit - 1, rho_s0).path == path
    for n_cycles, every in ((fit, 1), (2 * fit, 2), (np.int64(2**62), np.int64(1))):
        with pytest.raises(SnapshotBoundError, match=f"^n_cycles: {n_cycles // every + 1} "
                                                     f"snapshots of {width} numbers at the "
                                                     "peak exceed"):
            SimulationRun(model, sched, n_cycles, rho_s0, sample_every=every)


@pytest.mark.parametrize("free", [False, True], ids=["stepped", "free"])
@pytest.mark.parametrize("word, path", [("Z", "modes"), ("ZZZ", "modes"), ("X", "joint"),
                                        ("XII", "joint")])
def test_a_runs_peak_stays_within_what_its_bound_counts(word, path, free):
    """What ``evolve`` allocates at its peak (tracemalloc), on a run of 4097
    snapshots of a small model, stays within the numbers per snapshot that
    the bound counts, 16 bytes each: ``3 d r + d_s**2`` on the joint path and
    ``4 d_s m n + (m + 2) d_s**2`` on the product path. Three qubits make the
    reduced states and the per-mode overlaps count."""
    n_qubits = len(word)
    model = build_system_bath_model(
        n_qubits, BathSpec(kind="spin-bath", n_modes=2, cutoff=1.0, coupling_scale=0.4, seed=7),
        coupling="dephasing", h_s={word: 0.3})
    group = trivial_group(n_qubits) if free else pauli_group(n_qubits, "flip")
    psi = np.full(2**n_qubits, 2 ** (-n_qubits / 2))
    run = SimulationRun(model, schedule_from_group(group, 0.1), 4096,
                        Operator(np.outer(psi, psi).astype(complex), (2,) * n_qubits))
    assert run.path == path
    d_s, (m, n, _) = model.system_dim, model.hamiltonian.shape
    width = (4 * d_s * m * n + (m + 2) * d_s**2 if path == "modes"
             else 3 * d_s * model.bath_dim + d_s**2)
    tracemalloc.start()
    try:
        evolve(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4097 * width * 16


def test_trajectory_metadata_and_csv(tmp_path):
    model = make_model()
    sched = schedule_from_group(pauli_group(1, "flip"), delta_t=0.1)
    run = SimulationRun(model=model, schedule=sched, n_cycles=10,
                        rho_s0=PLUS,
                        sample_every=2)
    traj = evolve(run)
    assert [f.name for f in fields(traj)] == ["run", "states", "path", "joint_purity"]
    assert len(traj.times) == 6
    assert traj.run.n_cycles == 10
    assert traj.run.schedule.group.order == 2
    assert traj.cycles.tolist() == [0, 2, 4, 6, 8, 10]
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cycle, time, fidelity, coherence, trace_distance"
    assert len(lines) == 7
    first = lines[1].split(", ")
    assert first[0] == "0"
    assert float(first[1]) == 0.0
    # repr floats round-trip exactly
    last = lines[-1].split(", ")
    assert float(last[2]) == traj.terminal_fidelity


def rows_csv(traj):
    """The trajectory CSV formatted row by row, each number read off its array."""
    lines = ["cycle, time, fidelity, coherence, trace_distance"]
    for k in range(len(traj.times)):
        lines.append(
            f"{int(traj.cycles[k])}, {float(traj.times[k])!r}, "
            f"{float(traj.fidelity[k])!r}, {float(traj.coherence[k])!r}, "
            f"{float(traj.trace_distance[k])!r}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("scenario", [n for n in PRESETS if n != "custom"])
def test_column_csv_matches_the_row_formatter(tmp_path, scenario):
    """``write_csv`` formats the five columns at once; on every preset's
    controlled and free trajectory the bytes are those of the row-by-row
    formatter."""
    config = parse_config({"scenario": scenario, "seed": 7})
    run = SimulationRun(model=build_model(config), schedule=build_schedule(config),
                        n_cycles=config.n_cycles, rho_s0=config.rho_s0,
                        sample_every=config.sample_every)
    for traj in (evolve(run), evolve(_free_run(run))):
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        assert path.read_bytes() == rows_csv(traj).encode()


def test_observable_drift_requires_commutant_membership():
    model = make_model(n_qubits=2, coupling="linear-collective")
    group = pauli_group(2, "collective")
    sched = schedule_from_group(group, delta_t=0.05)
    run = SimulationRun(model=model, schedule=sched, n_cycles=8,
                        rho_s0=Operator(np.kron(PLUS.matrix, PLUS.matrix), [2, 2]))
    traj = evolve(run)
    times, values = observable_drift(traj, pauli_word_operator("ZZ"))
    assert len(times) == len(values) == 9
    assert abs(values[0] - 0.0) < 1e-12  # <ZZ> in |++> is zero
    with pytest.raises(ValueError, match="'XX'"):
        observable_drift(traj, pauli_word_operator("ZI"))


def test_rate_fit_recovers_known_exponential():
    t = np.linspace(0.0, 10.0, 101)
    gamma_free, gamma_ctrl = 0.5, 0.02
    est = estimate_rates(t, np.exp(-gamma_free * t), np.exp(-gamma_ctrl * t))
    assert abs(est.gamma - gamma_free) < 1e-9
    assert est.method == "window-fit"
    assert not est.flagged
    assert abs(est.ratio - gamma_ctrl / gamma_free) < 1e-6
    # the fit window skips the unresolved head and the saturated tail
    w_free = est.fit_window[0]
    c = np.exp(-gamma_free * t)
    assert c[w_free[0]] <= 0.95
    assert np.all(c[w_free[0]:w_free[1]] >= 0.2)


def test_rate_fit_window_endpoints():
    t = np.linspace(0.0, 10.0, 201)
    c = np.exp(-0.8 * t)
    est = estimate_rates(t, c, c)
    (start, stop), _ = est.fit_window
    assert np.all(c[:start] > 0.95)
    assert c[stop] < 0.2  # the first excluded point is past the floor


def test_rate_fit_falls_back_to_endpoint_secant():
    """A barely-decaying controlled run uses the secant estimate and is
    not flagged; the comparison is still meaningful."""
    t = np.linspace(0.0, 10.0, 51)
    # the controlled coherence never leaves [0.95, 1]
    est = estimate_rates(t, np.exp(-0.5 * t), np.exp(-1e-4 * t))
    assert est.method == "window-fit+endpoint-secant"
    assert not est.flagged
    assert abs(est.gamma_c - 1e-4) < 1e-9


def test_rate_fit_flags_unresolved_free_run():
    t = np.linspace(0.0, 10.0, 51)
    est = estimate_rates(t, np.exp(-1e-4 * t), np.exp(-1e-5 * t))
    assert est.flagged


def test_rate_fit_flags_undefined_signal():
    t = np.linspace(0.0, 5.0, 11)
    est = estimate_rates(t, np.zeros(11), np.exp(-0.5 * t))  # free: no coherence at all
    assert est.flagged
    assert est.method.startswith("undefined-signal")
    assert est.gamma == 0.0
    rec = est.to_record()
    assert rec["ratio"] is None or rec["ratio"] != rec["ratio"]  # non-finite out


def test_constant_coherence_gives_positive_zero_rates():
    """``-log(1) = -0.0``: a run that keeps its coherence must still write ``0.0``."""
    t = np.linspace(0.0, 10.0, 51)
    flat = np.full(51, 0.5)
    rec = estimate_rates(t, np.exp(-0.5 * t), flat).to_record()
    assert math.copysign(1.0, rec["gamma_controlled"]) == 1.0
    assert math.copysign(1.0, rec["ratio"]) == 1.0
    est = estimate_rates(t, flat, flat)
    assert math.copysign(1.0, est.gamma) == math.copysign(1.0, est.gamma_c) == 1.0


@pytest.mark.parametrize("name", ["free", "controlled"])
@pytest.mark.parametrize("n", [50, 52])
def test_rate_fit_rejects_a_coherence_off_the_time_grid(name, n):
    """A coherence of another length than ``times`` is named, not paired with the
    wrong times: a shorter one would give the endpoint secant ``c[-1]`` at ``t[-1]``."""
    t = np.linspace(0.0, 10.0, 51)
    coherences = {"free": np.exp(-0.5 * t), "controlled": np.exp(-1e-4 * t)}
    coherences[name] = np.exp(-0.5 * np.linspace(0.0, 10.0, n))
    with pytest.raises(ValueError, match=f"^{name} has {n} samples, times has 51$"):
        estimate_rates(t, coherences["free"], coherences["controlled"])


def test_rate_record_is_json_friendly():
    t = np.linspace(0.0, 10.0, 101)
    est = estimate_rates(t, np.exp(-0.5 * t), np.exp(-0.1 * t))
    rec = est.to_record()
    assert set(rec) == {"gamma_free", "gamma_controlled", "ratio", "fit_window",
                        "fit_residual", "method", "flagged"}
    import json
    json.dumps(rec, allow_nan=False)


def test_fit_scaling_exponent_exact_power_law():
    xs = [0.02, 0.04, 0.08, 0.16]
    pts = [(x, 3.5 * x**2) for x in xs]
    fit = fit_scaling_exponent(pts)
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(np.exp(fit.intercept) - 3.5) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12


def test_fit_scaling_exponent_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_scaling_exponent([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValueError):
        fit_scaling_exponent([(0.1, 1.0), (0.2, -2.0), (0.4, 3.0)])
    with pytest.raises(ValueError, match="distinct"):
        fit_scaling_exponent([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)])


def test_state_fidelity_rank_deficient_mixed_states():
    """Commuting states have F = (sum_i sqrt(p_i q_i))**2; rank-deficient
    mixed pairs keep full precision (no square roots of round-off)."""
    rng = np.random.default_rng(43)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    p = np.array([0.6, 0.4, 0.0, 0.0])
    r = np.array([0.5, 0.3, 0.2, 0.0])
    a = Operator((q * p) @ q.conj().T, [4])
    b = Operator((q * r) @ q.conj().T, [4])
    want = np.sum(np.sqrt(p * r)) ** 2
    assert abs(state_fidelity(a, b) - want) < 1e-13
    assert abs(state_fidelity(b, a) - want) < 1e-13

    # one stack: pure first state, pure second state, both mixed
    pure = np.array([1.0, 0.0, 0.0, 0.0])
    stack_a = np.array([(q * pure) @ q.conj().T, a.matrix, a.matrix])
    stack_b = np.array([b.matrix, (q * pure) @ q.conj().T, b.matrix])
    want = [r[0], p[0], want]
    assert np.max(np.abs(state_fidelity(stack_a, stack_b) - want)) < 1e-13


@pytest.mark.parametrize("d, seed, tol", [(2, None, 1e-15), (2, 0, 1e-14), (4, 0, 1e-14),
                                           (8, 0, 1e-14)],
                         ids=["basis", "random-2", "random-4", "random-8"])
def test_near_pure_state_fidelity_is_exact(d, seed, tol):
    """``rho = (1 - eps)|psi><psi| + eps|phi><phi|`` with ``phi`` orthogonal to
    ``psi`` has fidelity ``1 - eps`` with ``|psi><psi|``. At ``eps = 5e-11``
    the top eigenvalue of ``rho`` is within 1e-10 of one; ``state_fidelity``
    in both argument orders, and a run's reference fidelity against the pure
    reference ``psi``, still read the ``eps``: to 1e-15 for ``|0>, |1>``, and
    to 1e-14 for random orthonormal pairs, whose entries round when ``rho``
    is built (up to 1.4e-15 in ``<psi|rho|psi>`` and 6e-15 through the
    eigensolver and SVD, over 300 draws each in 2, 4 and 8 dimensions)."""
    q = np.eye(d, dtype=complex)
    if seed is not None:
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    psi, phi = q[:, 0], q[:, 1]
    eps = 5e-11
    rho = Operator((1 - eps) * np.outer(psi, psi.conj()) + eps * np.outer(phi, phi.conj()), [d])
    pure = Operator(np.outer(psi, psi.conj()), [d])
    assert abs(state_fidelity(rho, pure) - (1 - eps)) <= tol
    assert abs(state_fidelity(pure, rho) - (1 - eps)) <= tol
    evolve_module = importlib.import_module("decoupling.evolve")
    got = evolve_module._reference_fidelity(rho.matrix[None], psi[None, :, None])
    assert got.shape == (1,) and abs(got[0] - (1 - eps)) <= tol
