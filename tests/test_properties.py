"""Property tests over random Pauli subgroups.

Group validation, the averaging projector and the commutant dimension
are checked on subgroups of up to three qubits, spanned from a few
random generator words and listed in a random order. The decoupling
check and the minimal-group search are checked on random word tables
against the dense oracles of ``oracle_groups``. The cycle propagator is
checked on one- and two-qubit subgroups with an ordering of the subgroup,
plain or palindromic, and a random spin-bath model, and so is the agreement between pure and
mixed propagation. The properties must hold for every draw. Runs are
derandomized so the suite sees the same examples on every machine.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decoupling import (
    BathSpec,
    DecouplingGroup,
    Operator,
    SimulationRun,
    average_h1,
    build_system_bath_model,
    check_decoupling,
    commutant_basis,
    cycle_propagator,
    evolve,
    minimal_group_search,
    pauli_sum,
    project_commutant,
    schedule_from_group,
)

import oracle_dm
from oracle_dm import bath_ground_state
from oracle_groups import (
    all_subgroups,
    all_words,
    decouples_oracle,
    null_space_commutant_oracle,
    pauli_coefficients,
    project_commutant_loop,
    subgroup_words,
    table_matrix,
    traceless_residual,
)
from oracle_model import identity

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def subgroups(draw):
    """Words of a random subgroup on one to three qubits, identity first."""
    n_qubits = draw(st.integers(1, 3))
    word = st.text(alphabet="IXYZ", min_size=n_qubits, max_size=n_qubits)
    words = subgroup_words(draw(st.lists(word, min_size=1, max_size=4)), n_qubits)
    return words[:1] + draw(st.permutations(words[1:]))


@PROPERTY_SETTINGS
@given(subgroups())
def test_group_accepts_every_span(words):
    assert DecouplingGroup(words).labels == tuple(words)


@PROPERTY_SETTINGS
@given(subgroups())
def test_group_rejects_span_missing_a_word(words):
    """Dropping a word ``w`` leaves ``a`` and ``a * w`` whenever the order
    is at least 4; an order-2 span loses its only non-identity word and
    leaves the trivial group, which is closed."""
    for w in words[1:]:
        rest = [v for v in words if v != w]
        if len(words) == 2:
            assert DecouplingGroup(rest).order == 1
        else:
            with pytest.raises(ValueError, match="closed"):
                DecouplingGroup(rest)


@PROPERTY_SETTINGS
@given(subgroups(), st.data())
def test_reference_from_the_word_table_is_the_dense_projection(words, data):
    """A run's reference Hamiltonian, the Pauli sum of the words of ``h_s`` that
    commute with every generator, is the dense projection of ``h_s`` to 1e-15
    times the sum of ``|c|`` (the largest entry either can hold), for a random
    table of coefficients in [-1, 1] on a random subgroup."""
    group = DecouplingGroup(words)
    k = group.n_qubits
    table = data.draw(st.dictionaries(st.text(alphabet="IXYZ", min_size=k, max_size=k),
                                      st.floats(-1.0, 1.0), max_size=12))
    bath = BathSpec(kind="spin-bath", n_modes=2, cutoff=1.0, coupling_scale=0.4, seed=7)
    run = SimulationRun(build_system_bath_model(k, bath, h_s=table),
                        schedule_from_group(group, 0.1), 1,
                        Operator(np.eye(group.dim) / group.dim, group.dims))
    want = project_commutant(pauli_sum(table, k), group).matrix
    scale = max(1.0, sum(abs(c) for c in table.values()))
    assert np.max(np.abs(run.ideal_system_hamiltonian().matrix - want)) <= 1e-15 * scale


@PROPERTY_SETTINGS
@given(subgroups(), st.integers(0, 2**16))
def test_projector_is_idempotent_unital_trace_preserving(words, seed):
    group = DecouplingGroup(words)
    rng = np.random.default_rng(seed)
    d = group.dim
    s = Operator(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), group.dims)
    p1 = project_commutant(s, group)
    loop = project_commutant_loop(s, group)
    assert np.max(np.abs(p1.matrix - loop)) <= 1e-15 * np.max(np.abs(s.matrix))
    assert np.max(np.abs(project_commutant(p1, group).matrix - p1.matrix)) <= 1e-12
    assert abs(p1.trace() - s.trace()) <= 1e-12
    eye = identity(group.dims)
    assert np.max(np.abs(project_commutant(eye, group).matrix - eye.matrix)) <= 1e-12


@PROPERTY_SETTINGS
@given(subgroups())
def test_commutant_dimension_counts_the_commutant(words):
    """``4**K / |G|`` equals the number of commuting words and the
    dimension of the null space of the commutator maps."""
    group = DecouplingGroup(words)
    assert group.commutant_dimension == len(commutant_basis(group))
    assert group.commutant_dimension == null_space_commutant_oracle(group).shape[0]


@st.composite
def word_tables(draw, min_qubits, max_qubits):
    """``(tables, n_qubits)``: one to three channels, each a map from one
    to three Pauli words (the identity included) to coefficients of
    magnitude 0.1 to 1."""
    n_qubits = draw(st.integers(min_qubits, max_qubits))
    word = st.text(alphabet="IXYZ", min_size=n_qubits, max_size=n_qubits)
    coefficient = st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)
    table = st.dictionaries(word, coefficient, min_size=1, max_size=3)
    return draw(st.lists(table, min_size=1, max_size=3)), n_qubits


def _check_search(tables, n_qubits):
    """Every hit decouples by dense averaging, and the dense Pauli
    expansion of the channels gives the same hits."""
    mats = [table_matrix(t, n_qubits) for t in tables]
    hits = minimal_group_search(tables, n_qubits)
    assert hits, "the full group always decouples"
    for h in hits:
        assert decouples_oracle(h.labels, mats)
    dense = minimal_group_search([pauli_coefficients(m) for m in mats], n_qubits)
    assert [h.labels for h in dense] == [h.labels for h in hits]
    return mats, hits


@PROPERTY_SETTINGS
@given(word_tables(1, 2))
def test_minimal_search_hits_are_exactly_the_smallest_dense_decouplers(case):
    """Up to two qubits every subgroup is enumerated: the dense check
    passes no subgroup below the hits' order, and at that order it passes
    exactly the hits."""
    tables, n_qubits = case
    mats, hits = _check_search(tables, n_qubits)
    order = hits[0].order
    assert all(h.order == order for h in hits)
    passing = {g for g in all_subgroups(n_qubits) if len(g) <= order
               and decouples_oracle(sorted(g), mats)}
    assert passing == {frozenset(h.labels) for h in hits}


@settings(PROPERTY_SETTINGS, max_examples=5)
@given(word_tables(3, 3))
def test_minimal_search_hits_decouple_on_three_qubits(case):
    _check_search(*case)


@PROPERTY_SETTINGS
@given(st.data())
def test_check_decoupling_residuals_match_the_dense_average(data):
    """Word-space residuals equal the traceless norm of the explicit
    conjugation average, and the mode agrees with the dense check."""
    words = data.draw(subgroups())
    n_qubits = len(words[0])
    tables, _ = data.draw(word_tables(n_qubits, n_qubits))
    report = check_decoupling(DecouplingGroup(words), tables)
    mats = [table_matrix(t, n_qubits) for t in tables]
    dense = [traceless_residual(words, m) for m in mats]
    assert np.max(np.abs(np.array(report.residuals) - dense)) <= 1e-12
    assert (report.mode != "none") == decouples_oracle(words, mats)


@st.composite
def cycles(draw):
    """``(model, schedule)`` for a random subgroup, ordering, symmetry and model."""
    n_qubits = draw(st.integers(1, 2))
    word = st.text(alphabet="IXYZ", min_size=n_qubits, max_size=n_qubits)
    words = subgroup_words(draw(st.lists(word, min_size=1, max_size=3)), n_qubits)
    ordering = draw(st.permutations(range(len(words))))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # a real table over all words spans every Hermitian h_s; the scale matches the Frobenius
    # norm of 0.3 (m + m^dag) for a complex Gaussian m
    scale = 0.6 / np.sqrt(2**n_qubits)
    h_s = {w: scale * c for w, c in zip(all_words(n_qubits), rng.standard_normal(4**n_qubits))}
    bath = BathSpec(kind="spin-bath", n_modes=max(2, 3 * n_qubits // 2), cutoff=1.0,
                    coupling_scale=0.4, seed=seed)
    model = build_system_bath_model(n_qubits, bath, coupling="linear-independent", h_s=h_s)
    delta_t = draw(st.floats(0.01, 0.5))
    schedule = schedule_from_group(DecouplingGroup(words), delta_t, ordering)
    return model, replace(schedule, symmetric=draw(st.booleans()))


@PROPERTY_SETTINGS
@given(cycles())
def test_cycle_propagator_is_unitary(case):
    model, schedule = case
    u = cycle_propagator(model, schedule).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-12


@PROPERTY_SETTINGS
@given(cycles())
def test_cycle_propagator_equals_per_segment_product(case):
    model, schedule = case
    got = cycle_propagator(model, schedule).matrix
    want = oracle_dm.cycle_propagator(model, schedule).matrix
    assert np.max(np.abs(got - want)) <= 1e-12


@PROPERTY_SETTINGS
@given(cycles())
def test_first_order_term_vanishes_for_symmetrized_cycles(case):
    model, schedule = case
    h1 = average_h1(model, replace(schedule, symmetric=True)).matrix
    assert np.max(np.abs(h1)) <= 1e-12



def _random_pure(rng, dims) -> Operator:
    d = int(np.prod(dims))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return Operator(np.outer(v, v.conj()) / np.vdot(v, v).real, dims)


@PROPERTY_SETTINGS
@given(cycles(), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**16))
def test_explicit_ground_state_projector_matches_default_bath(case, n_snapshots, every, seed):
    """The default bath state propagates from the ground vector; the same
    state passed as a projector propagates from its eigen-ensemble."""
    model, schedule = case
    rho_s0 = _random_pure(np.random.default_rng(seed), model.system_dims)
    common = dict(model=model, schedule=schedule,
                  n_cycles=n_snapshots * every, rho_s0=rho_s0, sample_every=every)
    default = evolve(SimulationRun(**common))
    explicit = evolve(SimulationRun(rho_b0=bath_ground_state(model), **common))
    assert np.max(np.abs(default.states - explicit.states)) <= 1e-12
    for name in ("fidelity", "coherence", "trace_distance"):
        assert np.max(np.abs(getattr(default, name) - getattr(explicit, name))) <= 1e-12


@PROPERTY_SETTINGS
@given(cycles(), st.lists(st.floats(0.05, 1.0), min_size=2, max_size=3), st.integers(0, 2**16))
def test_mixed_system_state_is_the_weighted_sum_of_pure_runs(case, weights, seed):
    """Reduced states are linear in the initial system state: a mixture
    ``sum_k p_k |psi_k><psi_k|`` (states not orthogonal) evolves into the
    p-weighted sum of the pure runs' reduced states."""
    model, schedule = case
    rng = np.random.default_rng(seed)
    p = np.array(weights) / sum(weights)
    pures = [_random_pure(rng, model.system_dims) for _ in p]
    mixed = Operator(sum(pk * rho.matrix for pk, rho in zip(p, pures)), model.system_dims)
    common = dict(model=model, schedule=schedule, n_cycles=6, sample_every=2)
    got = evolve(SimulationRun(rho_s0=mixed, **common)).states
    want = sum(pk * evolve(SimulationRun(rho_s0=rho, **common)).states
               for pk, rho in zip(p, pures))
    assert np.max(np.abs(got - want)) <= 1e-12
