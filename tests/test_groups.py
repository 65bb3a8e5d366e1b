"""Group averaging: projector algebra, commutant bases, decoupling search.

The projector, the commutant and the minimal-group search are each
checked against brute-force oracles (explicit conjugation sums,
stacked-kron null spaces, dense Pauli expansions in ``oracle_groups``)
so that a bug in the library cannot hide behind itself.
"""

import importlib
import itertools

import numpy as np
import pytest

from decoupling import (
    DecouplingGroup,
    Operator,
    check_decoupling,
    commutant_basis,
    minimal_group_search,
    pauli_group,
    pauli_word_operator,
    project_commutant,
    trivial_group,
)
from decoupling.groups import conjugate_word

from oracle_groups import (
    PAULI_1Q,
    all_words,
    decouples_oracle,
    null_space_commutant_oracle,
    word_matrix,
)

SX, SZ = PAULI_1Q["X"], PAULI_1Q["Z"]


def average_oracle(group, mat):
    """Conjugation average written as a plain loop."""
    acc = np.zeros_like(mat)
    for g in group.elements:
        acc = acc + g.matrix.conj().T @ mat @ g.matrix
    return acc / group.order


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_pauli_word_operator_matches_kron():
    words = [w for k in (1, 2, 3) for w in all_words(k)]
    assert len(words) == 84
    for word in words:
        got = pauli_word_operator(word)
        assert got.dims == (2,) * len(word)
        assert np.array_equal(got.matrix, word_matrix(word))
    with pytest.raises(ValueError):
        pauli_word_operator("XQ")
    with pytest.raises(ValueError):
        pauli_word_operator("")


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("d_b", [1, 3])
def test_conjugate_word_is_the_dense_conjugation(n_qubits, d_b):
    """``conjugate_word`` equals ``(g (x) 1)^dag x (g (x) 1)`` from the
    Kronecker-lifted word matrix, entry for entry, for every word and for
    each matrix of a stack, reading ``d_b`` off the stack's shape: a signed
    flip is exact."""
    rng = np.random.default_rng(n_qubits * 10 + d_b)
    d = 2**n_qubits * d_b
    x = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    for word in all_words(n_qubits):
        lift = np.kron(word_matrix(word), np.eye(d_b))
        assert np.array_equal(conjugate_word(word, x), lift.conj().T @ x @ lift), word
    with pytest.raises(ValueError):
        conjugate_word("XQ", x)


def test_named_groups_have_expected_elements():
    assert trivial_group(1).order == 1
    flip = pauli_group(1, "flip")
    assert flip.order == 2
    assert flip.labels == ("I", "X")
    full1 = pauli_group(1, "full")
    assert full1.order == 4
    assert full1.labels == ("I", "X", "Y", "Z")
    coll2 = pauli_group(2, "collective")
    assert coll2.order == 4
    assert coll2.labels == ("II", "XX", "YY", "ZZ")
    full2 = pauli_group(2, "full")
    assert full2.order == 16
    with pytest.raises(ValueError):
        pauli_group(1, "cyclic")


def test_group_requires_identity_first():
    with pytest.raises(ValueError, match="identity"):
        DecouplingGroup(["X", "I"])
    with pytest.raises(ValueError, match="at least one"):
        DecouplingGroup([])
    g = DecouplingGroup(["I", "X"])
    assert g.labels == ("I", "X")
    assert np.array_equal(g.elements[1].matrix, SX)


def test_group_rejects_unclosed_sets():
    with pytest.raises(ValueError, match="closed"):
        DecouplingGroup(["II", "XX", "YY"])  # missing ZZ
    with pytest.raises(ValueError, match="'IXYZ'"):
        DecouplingGroup(["II", "XQ"])  # bad letter
    with pytest.raises(ValueError, match="letters"):
        DecouplingGroup(["II", "X"])  # unequal length


def test_group_rejects_duplicates_up_to_phase():
    """Words are projective elements, so a repeated word is a repeated element."""
    with pytest.raises(ValueError, match="repeats"):
        DecouplingGroup(["I", "X", "X"])


def test_closure_is_checked_at_every_order():
    """The 4-qubit full word list minus one word (order 255) is not closed."""
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=4)]
    assert DecouplingGroup(words).order == 256
    words.remove("XYZI")
    with pytest.raises(ValueError, match="closed"):
        DecouplingGroup(words)


def test_projector_matches_brute_force_average():
    rng = np.random.default_rng(101)
    groups = [trivial_group(1), pauli_group(1, "flip"), pauli_group(1, "full"),
              pauli_group(2, "collective"), pauli_group(2, "full")]
    for group in groups:
        d = group.dim
        for _ in range(5):
            s = Operator(random_matrix(rng, d), group.dims)
            got = project_commutant(s, group)
            want = average_oracle(group, s.matrix)
            assert np.max(np.abs(got.matrix - want)) < 1e-12


def test_projector_idempotent_unital_trace_preserving():
    rng = np.random.default_rng(103)
    group = pauli_group(2, "collective")
    eye = Operator(np.eye(4, dtype=complex), [2, 2])
    assert np.max(np.abs(project_commutant(eye, group).matrix - eye.matrix)) < 1e-12
    for _ in range(10):
        s = Operator(random_matrix(rng, 4), [2, 2])
        p1 = project_commutant(s, group)
        p2 = project_commutant(p1, group)
        assert np.max(np.abs(p2.matrix - p1.matrix)) < 1e-12
        assert abs(p1.trace() - s.trace()) < 1e-12
        for g in group.elements:
            comm = g.matrix @ p1.matrix - p1.matrix @ g.matrix
            assert np.max(np.abs(comm)) < 1e-12


def test_full_group_collapses_to_scalar():
    """Averaging over a unitary error basis leaves only the trace part."""
    rng = np.random.default_rng(107)
    for k in (1, 2):
        group = pauli_group(k, "full")
        d = 2**k
        s = Operator(random_matrix(rng, d), (2,) * k)
        got = project_commutant(s, group)
        want = (np.trace(s.matrix) / d) * np.eye(d)
        assert np.max(np.abs(got.matrix - want)) < 1e-12


def test_commutant_basis_matches_null_space_oracle():
    for group in (pauli_group(1, "flip"), pauli_group(2, "collective"),
                  pauli_group(1, "full")):
        basis = commutant_basis(group)
        oracle = null_space_commutant_oracle(group)
        assert len(basis) == oracle.shape[0]
        # every basis element lies in the oracle span and vice versa
        q, _ = np.linalg.qr(oracle.T)
        for op in basis:
            v = op.matrix.ravel()
            res = v - q @ (q.conj().T @ v)
            assert np.linalg.norm(res) < 1e-10
        mine = np.array([op.matrix.ravel() for op in basis])
        qm, _ = np.linalg.qr(mine.T)
        for row in oracle:
            res = row - qm @ (qm.conj().T @ row)
            assert np.linalg.norm(res) < 1e-10


def test_commutant_basis_is_orthonormal():
    for group in (pauli_group(1, "flip"), pauli_group(2, "collective"),
                  pauli_group(3, "collective"), pauli_group(2, "full")):
        mine = np.array([op.matrix.ravel() for op in commutant_basis(group)])
        gram = mine.conj() @ mine.T
        assert np.max(np.abs(gram - np.eye(len(mine)))) < 1e-12


def test_collective_commutant_contains_pair_words():
    basis = commutant_basis(pauli_group(2, "collective"))
    assert len(basis) == 4
    mine = np.array([op.matrix.ravel() for op in basis])
    q, _ = np.linalg.qr(mine.T)
    for word in ("II", "XX", "YY", "ZZ"):
        v = word_matrix(word).ravel()
        res = v - q @ (q.conj().T @ v)
        assert np.linalg.norm(res) < 1e-8 * np.linalg.norm(v)


def test_check_decoupling_modes():
    bath_agnostic = [{"Z": 1.0}]

    full = check_decoupling(pauli_group(1, "full"), bath_agnostic)
    assert full.mode == "maximal"
    assert full.commutant_dimension == 1
    assert max(full.residuals) <= 1e-10

    flip = check_decoupling(pauli_group(1, "flip"), bath_agnostic)
    assert flip.mode == "selective"
    assert flip.commutant_dimension == 2

    # flip group cannot remove an X coupling: the projection survives
    bad = check_decoupling(pauli_group(1, "flip"), [{"X": 1.0}])
    assert bad.mode == "none"
    assert max(bad.residuals) > 1.0


def test_check_decoupling_reports_effective_hamiltonian():
    h_s = Operator(0.25 * np.kron(SZ, SZ) + 0.1 * np.kron(SZ, np.eye(2)), [2, 2])
    group = pauli_group(2, "collective")
    report = check_decoupling(group, [{"ZI": 1.0, "IZ": 1.0}])
    assert report.mode == "selective"
    want = 0.25 * np.kron(SZ, SZ)  # the epsilon term projects away
    assert np.max(np.abs(project_commutant(h_s, group).matrix - want)) < 1e-12


def test_check_decoupling_rejects_bad_tables():
    with pytest.raises(ValueError, match="2-letter Pauli word"):
        check_decoupling(pauli_group(2, "collective"), [{"ZI": 1.0}, {"Z": 1.0}])
    with pytest.raises(ValueError, match="2-letter Pauli word"):
        check_decoupling(pauli_group(2, "collective"), [{"ZQ": 1.0}])


def test_minimal_search_single_qubit_dephasing():
    hits = minimal_group_search([{"Z": 1.0}], n_qubits=1)
    labels = sorted(h.labels for h in hits)
    assert labels == [("I", "X"), ("I", "Y")]
    # oracle: these are the only order-2 candidates that work
    for w in ("X", "Y", "Z"):
        expected = w in ("X", "Y")
        assert decouples_oracle(["I", w], [SZ]) == expected


def test_minimal_search_collective_two_qubits():
    coll = [word_matrix("XI") + word_matrix("IX"),
            word_matrix("YI") + word_matrix("IY"),
            word_matrix("ZI") + word_matrix("IZ")]
    tables = [{"XI": 1.0, "IX": 1.0}, {"YI": 1.0, "IY": 1.0}, {"ZI": 1.0, "IZ": 1.0}]
    hits = minimal_group_search(tables, n_qubits=2)
    assert hits, "search found no group"
    assert all(h.order == 4 for h in hits)
    assert ("II", "XX", "YY", "ZZ") in [h.labels for h in hits]
    # oracle part 1: every returned group really decouples, by direct average
    for h in hits:
        assert decouples_oracle(h.labels, coll)
    # oracle part 2: no order-2 group can (exhaustive over all 15 words)
    words = ["".join(p) for p in itertools.product("IXYZ", repeat=2)][1:]
    assert not any(decouples_oracle(["II", w], coll) for w in words)


def test_minimal_search_reports_empty_when_capped():
    # all three axes need the order-4 group; an order-2 cap finds nothing
    tables = [{w: 1.0} for w in "XYZ"]
    hits = minimal_group_search(tables, n_qubits=1, max_order=2)
    assert hits == []
    uncapped = minimal_group_search(tables, n_qubits=1, max_order=4)
    assert [h.labels for h in uncapped] == [("I", "X", "Y", "Z")]


def test_minimal_search_drops_identity_components():
    """An identity component commutes with everything, so it changes
    nothing; channels that are only identity are decoupled by the
    trivial group."""
    labels = lambda hits: [h.labels for h in hits]
    with_identity = minimal_group_search([{"II": 1.0, "ZI": 1.0}], 2)
    assert with_identity
    assert labels(with_identity) == labels(minimal_group_search([{"ZI": 1.0}], 2))
    assert labels(minimal_group_search([{"II": 1.0}], 2)) == [("II",)]


def test_minimal_search_extends_each_level_by_cosets(monkeypatch):
    """Every word of a coset ``w * span`` spans the same larger group, so a
    level extends each span by one word per coset. The span of all 63
    non-identity 3-letter words needs the full group, the deepest level:
    one word per coset takes about 155,000 word products, one per word
    took 1.35 million."""
    groups_module = importlib.import_module("decoupling.groups")
    inner = groups_module._word_product
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return inner(a, b)

    monkeypatch.setattr(groups_module, "_word_product", counting)
    hits = minimal_group_search([{w: 1.0} for w in all_words(3)[1:]], n_qubits=3)
    assert [h.order for h in hits] == [64]
    assert calls <= 200_000


def test_minimal_search_rejects_bad_tables():
    with pytest.raises(ValueError, match="2-letter Pauli word"):
        minimal_group_search([{"ZI": 1.0}, {"Z": 1.0}], 2)
    with pytest.raises(ValueError, match="2-letter Pauli word"):
        minimal_group_search([{"ZQ": 1.0}], 2)
    with pytest.raises(ValueError, match="qubits"):
        minimal_group_search([{"": 1.0}], 0)


def test_scalar_shift_in_interaction_is_harmless():
    """A channel projecting onto a multiple of the identity does not
    decohere: the averaged coupling becomes a pure bath term."""
    report = check_decoupling(pauli_group(1, "flip"), [{"I": 1.0, "Z": 1.0}])
    assert report.mode == "selective"
    assert max(report.residuals) <= 1e-10
