"""Property tests of the cycle propagator over random Pauli subgroups.

Each example draws a register of one or two qubits, a few Pauli words
that generate a subgroup, an ordering of that subgroup, and a random
spin-bath model; the properties must hold for every draw. Runs are
derandomized so the suite sees the same examples on every machine.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from decoupling import (
    BathSpec,
    Operator,
    average_h1,
    build_spin_bath_model,
    cycle_propagator,
    group_from_words,
    joint_spectrum,
    schedule_from_group,
    symmetrize,
)

import oracle_dm

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

#: Pauli letters as bit pairs (x, z): products up to phase are XORs.
_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_LETTER = {bits: letter for letter, bits in _BITS.items()}


def _product(a: str, b: str) -> str:
    return "".join(
        _LETTER[_BITS[x][0] ^ _BITS[y][0], _BITS[x][1] ^ _BITS[y][1]] for x, y in zip(a, b)
    )


def _subgroup(generators: list[str], n_qubits: int) -> list[str]:
    """Words of the subgroup the generators span, identity first."""
    words = ["I" * n_qubits]
    for g in generators:
        if g not in words:
            words += [_product(g, w) for w in words]
    return words


@st.composite
def cycles(draw):
    """``(model, schedule)`` for a random subgroup, ordering and model."""
    n_qubits = draw(st.integers(1, 2))
    word = st.text(alphabet="IXYZ", min_size=n_qubits, max_size=n_qubits)
    words = _subgroup(draw(st.lists(word, min_size=1, max_size=3)), n_qubits)
    ordering = draw(st.permutations(range(len(words))))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    d_s = 2**n_qubits
    m = rng.standard_normal((d_s, d_s)) + 1j * rng.standard_normal((d_s, d_s))
    h_s = Operator(0.3 * (m + m.conj().T), [2] * n_qubits)
    bath = BathSpec(kind="spin-bath", n_modes=max(2, 3 * n_qubits // 2), cutoff=1.0,
                    coupling_scale=0.4, seed=seed)
    model = build_spin_bath_model(n_qubits, bath, coupling="linear-independent", h_s=h_s)
    delta_t = draw(st.floats(0.01, 0.5))
    return model, schedule_from_group(group_from_words(words), delta_t, ordering)


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
    got = cycle_propagator(model, schedule, joint_spectrum(model)).matrix
    want = oracle_dm.cycle_propagator(model, schedule).matrix
    assert np.max(np.abs(got - want)) <= 1e-12


@PROPERTY_SETTINGS
@given(cycles())
def test_first_order_term_vanishes_for_symmetrized_cycles(case):
    model, schedule = case
    h1 = average_h1(model, symmetrize(schedule)).matrix
    assert np.max(np.abs(h1)) <= 1e-12
