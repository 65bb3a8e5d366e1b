"""Average Hamiltonian series oracles.

The zeroth order is compared against a plain arithmetic mean of toggled
Hamiltonians (conjugated by Kronecker-lifted frames) and against
factor-wise group projection; the first order
is compared against the explicit commutator double sum. The exact cycle's
distance from the zeroth-order average bounds the infidelity of every
snapshot of a run.
"""

import importlib

import numpy as np
import pytest

from decoupling import (
    BathSpec,
    DecouplingGroup,
    Operator,
    SimulationRun,
    average_h0,
    average_h1,
    build_model,
    build_schedule,
    build_system_bath_model,
    cycle_propagator,
    evolve,
    expm_hermitian,
    parse_config,
    pauli_group,
    project_commutant,
    schedule_from_group,
    symmetrize,
    total_hamiltonian,
    truncation_error,
    trivial_group,
)
from oracle_dm import conjugate_system, toggled_matrices
from oracle_groups import frames as schedule_frames
from oracle_model import dense_parts


def make_model(seed=7, coupling="dephasing", n_qubits=1, h_s=None):
    bath = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0,
                    coupling_scale=0.4, seed=seed)
    return build_system_bath_model(n_qubits, bath, coupling=coupling, h_s=h_s)


def test_toggled_hamiltonian_is_explicit_conjugation():
    """The frame conjugation the averages use, by reshape, equals the
    Kronecker-lifted conjugation of the oracle."""
    model = make_model()
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.1)
    h0 = total_hamiltonian(model)
    for frame, want in zip(schedule_frames(sched), toggled_matrices(model, sched), strict=True):
        got = Operator(conjugate_system(frame, h0.matrix), h0.dims)
        assert np.max(np.abs(got.matrix - want)) < 1e-12
        assert got.is_hermitian()


def test_average_h0_is_arithmetic_mean():
    model = make_model()
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.07)
    mats = toggled_matrices(model, sched)
    want = sum(mats) / len(mats)
    got = average_h0(model, sched)
    assert np.max(np.abs(got.matrix - want)) < 1e-12


def test_average_h0_equals_factor_wise_projection():
    """Time averaging over the cycle equals group averaging channel by
    channel: project h_s and each system coupling factor, keep the bath."""
    model = make_model(coupling="total", h_s={"X": 0.1, "Z": 0.3})
    group = pauli_group(1, "full")
    sched = schedule_from_group(group, delta_t=0.05)
    eye_b = np.eye(model.bath_dim, dtype=complex)
    eye_s = np.eye(model.system_dim, dtype=complex)
    dense = dense_parts(model)
    want = np.kron(project_commutant(dense.h_s, group).matrix, eye_b)
    want = want + np.kron(eye_s, dense.h_b.matrix)
    for s, b in dense.couplings:
        want = want + np.kron(project_commutant(s, group).matrix, b.matrix)
    got = average_h0(model, sched)
    assert np.max(np.abs(got.matrix - want)) < 1e-10


def test_average_h0_invariant_under_cyclic_rotation():
    model = make_model()
    group = pauli_group(1, "full")
    base = average_h0(model, schedule_from_group(group, delta_t=0.1))
    for shift in (1, 2, 3):
        ordering = [(i + shift) % 4 for i in range(4)]
        rotated = schedule_from_group(group, delta_t=0.1, ordering=ordering)
        # a rotated cycle starts at a non-identity frame; same time average
        got = average_h0(model, rotated)
        assert np.max(np.abs(got.matrix - base.matrix)) < 1e-12


def test_average_h1_matches_double_sum():
    model = make_model(coupling="total")
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.13)
    mats = toggled_matrices(model, sched)
    n = len(mats)
    dt = sched.delta_t
    acc = np.zeros_like(mats[0])
    for j in range(n):
        for l in range(j):
            hj, hl = mats[j], mats[l]
            acc = acc + (hj @ hl - hl @ hj)
    want = (-1j * dt / (2 * n)) * acc
    got = average_h1(model, sched)
    assert np.max(np.abs(got.matrix - want)) < 1e-12
    assert got.is_hermitian()


def test_average_h1_vanishes_for_symmetric_cycles():
    rng = np.random.default_rng(2024)
    for seed in rng.integers(0, 10_000, size=4):
        model = make_model(seed=int(seed), coupling="total")
        sched = symmetrize(schedule_from_group(pauli_group(1, "full"), delta_t=0.11))
        h1 = average_h1(model, sched)
        assert h1.norm() <= 1e-12


def test_average_h1_vanishes_for_single_segment():
    model = make_model()
    sched = schedule_from_group(trivial_group(1), delta_t=0.3)
    assert average_h1(model, sched).norm() == 0.0


def test_truncation_error_decreases_with_order_and_step():
    model = make_model()
    sched_a = schedule_from_group(pauli_group(1, "flip"), delta_t=0.1)
    sched_b = schedule_from_group(pauli_group(1, "flip"), delta_t=0.05)
    e0a = truncation_error(model, sched_a, order=0)
    e1a = truncation_error(model, sched_a, order=1)
    e0b = truncation_error(model, sched_b, order=0)
    assert e1a < e0a
    assert e0b < e0a
    with pytest.raises(ValueError):
        truncation_error(model, sched_a, order=3)


def test_order_zero_truncation_builds_no_first_order_term(monkeypatch):
    """An order-0 error needs only H0; the first-order term is never built."""
    magnus_module = importlib.import_module("decoupling.magnus")
    model = make_model()
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.1)
    want = truncation_error(model, sched, order=0)

    def refuse(*args, **kwargs):
        raise AssertionError("average_h1 called for an order-0 error")

    monkeypatch.setattr(magnus_module, "average_h1", refuse)
    assert truncation_error(model, sched, order=0) == want


def test_truncation_scan_diagonalizes_the_model_once(monkeypatch):
    """An order-0/1 scan over four step sizes shares one joint spectrum, which
    the model keeps: one ``eigh`` of the joint Hamiltonian. Every other ``d x d``
    ``eigh`` is ``expm_hermitian``'s, one per truncated series."""
    model = make_model()
    d, h = model.system_dim * model.bath_dim, total_hamiltonian(model).matrix
    joint, series = [], []
    eigh = np.linalg.eigh

    def counting(a):
        if a.shape == (d, d):
            (joint if np.array_equal(a, h) else series).append(a)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    for dt in (0.1, 0.05, 0.025, 0.0125):
        sched = schedule_from_group(pauli_group(1, "flip"), delta_t=dt)
        for order in (0, 1):
            truncation_error(model, sched, order)
    assert len(joint) == 1 and len(series) == 8


def test_flip_average_removes_dephasing_coupling():
    """For the two-segment echo the zeroth order is bath-only."""
    model = make_model()
    sched = schedule_from_group(pauli_group(1, "flip"), delta_t=0.1)
    h0bar = average_h0(model, sched)
    eye_s = np.eye(2, dtype=complex)
    want = np.kron(eye_s, dense_parts(model).h_b.matrix)
    assert np.max(np.abs(h0bar.matrix - want)) < 1e-12


def test_phase_flip_group_keeps_dephasing_coupling():
    model = make_model()
    phase = DecouplingGroup(["I", "Z"])
    sched = schedule_from_group(phase, delta_t=0.1)
    h0bar = average_h0(model, sched)
    dense = dense_parts(model)
    s, b = dense.couplings[0]
    residual = h0bar.matrix - np.kron(np.eye(2, dtype=complex), dense.h_b.matrix)
    want = np.kron(s.matrix, b.matrix)
    assert np.max(np.abs(residual - want)) < 1e-12


#: The presets' defaults, the symmetric collective register (also at the
#: delta_t 0.16, 20-cycle point where its palindrome sweeps above the plain
#: cycle) and the symmetric echo: both propagation paths, plain and palindromic.
ERROR_BOUND_CONFIGS = [
    {"scenario": "dephasing-echo"},
    {"scenario": "collective-register"},
    {"scenario": "maximal-averaging"},
    {"scenario": "selective-logic"},
    {"scenario": "collective-register", "symmetric": True},
    {"scenario": "collective-register", "symmetric": True, "delta_t": 0.16, "n_cycles": 20},
    {"scenario": "dephasing-echo", "symmetric": True},
]


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("doc", ERROR_BOUND_CONFIGS,
                         ids=lambda doc: "-".join(str(v) for v in doc.values()))
def test_infidelity_obeys_the_zeroth_order_error_bound(doc, seed):
    """With ``eps = ||U_c - exp(-i H0 T_c)||_2`` the distance of the exact cycle
    from its zeroth-order average, telescoping gives ``||U_c^k - V^k||_2 <= k eps``.
    A decoupling group makes ``V^k`` map the pure product initial state to the
    ideal reference times a bath state, so ``1 - F_k <= (k eps)**2`` at every
    snapshot. At ``k = 0`` both sides are zero up to the float64 norm of the
    initial state."""
    config = parse_config({**doc, "seed": seed})
    model, schedule = build_model(config), build_schedule(config)
    traj = evolve(SimulationRun(model=model, schedule=schedule, n_cycles=config.n_cycles,
                                rho_s0=config.rho_s0, sample_every=config.sample_every))
    average = expm_hermitian(average_h0(model, schedule), schedule.cycle_time)
    eps = np.linalg.norm(cycle_propagator(model, schedule).matrix - average.matrix, 2)
    infidelity, k = 1.0 - traj.fidelity, traj.cycles
    assert k[0] == 0 and abs(infidelity[0]) <= 1e-15
    ratio = infidelity[1:] / (k[1:] * eps) ** 2
    assert (infidelity[1:] <= (k[1:] * eps) ** 2).all(), ratio.max()
