"""Group averaging: projector algebra, commutant bases, decoupling search.

The projector, the commutant and the minimal-group search are each
checked against brute-force oracles (explicit conjugation sums,
stacked-kron null spaces, dense Pauli expansions in ``oracle_groups``)
so that a bug in the library cannot hide behind itself.
"""

import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from decoupling import (
    DecouplingGroup,
    Operator,
    check_decoupling,
    commutant_basis,
    minimal_group_search,
    pauli_group,
    pauli_sum,
    pauli_word_operator,
    project_commutant,
    trivial_group,
)
from decoupling.groups import _label, conjugate_word

from oracle_groups import (
    PAULI_1Q,
    all_words,
    closure_error,
    decouples_oracle,
    elements,
    null_space_commutant_oracle,
    pauli_sum_loop,
    project_commutant_loop,
    search_by_letters,
    surviving_norm_by_letters,
    word_matrix,
)

SX, SZ = PAULI_1Q["X"], PAULI_1Q["Z"]


def average_oracle(group, mat):
    """Conjugation average written as a plain loop."""
    acc = np.zeros_like(mat)
    for g in elements(group):
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


def assert_generates(group):
    """``log2 |G|`` generators whose XOR span is exactly the group's codes."""
    assert len(group.generators) == group.order.bit_length() - 1
    span = {0}
    for g in group.generators:
        span |= {s ^ g for s in span}
    assert span == set(group.codes) and len(span) == group.order


def test_named_groups_record_their_generators():
    """The first word of each new coset, in list order."""
    assert trivial_group(2).generators == ()
    assert [_label(g, 2) for g in pauli_group(2, "collective").generators] == ["XX", "YY"]
    assert [_label(g, 2) for g in pauli_group(2, "full").generators] == ["IX", "IY", "XI", "YI"]
    for n_qubits in (1, 2, 3, 4):
        for variant in ("full", "collective", "flip"):
            assert_generates(pauli_group(n_qubits, variant))
        assert_generates(trivial_group(n_qubits))


def test_group_requires_identity_first():
    with pytest.raises(ValueError, match="identity"):
        DecouplingGroup(["X", "I"])
    with pytest.raises(ValueError, match="at least one"):
        DecouplingGroup([])
    g = DecouplingGroup(["I", "X"])
    assert g.labels == ("I", "X")
    assert np.array_equal(elements(g)[1].matrix, SX)


def test_pauli_sum_names_a_word_of_the_wrong_length():
    """A word that is not ``n_qubits`` letters over IXYZ is named, not broadcast."""
    with pytest.raises(ValueError, match="'ZZZ' is not a 2-letter Pauli word"):
        pauli_sum({"ZZZ": 1.0}, 2)
    with pytest.raises(ValueError, match="'Z' is not a 2-letter Pauli word"):
        pauli_sum({"ZZ": 1.0, "Z": 0.5}, 2)
    with pytest.raises(ValueError, match="'ZQ' is not a 2-letter Pauli word"):
        pauli_sum({"ZQ": 1.0}, 2)


def test_group_rejects_unclosed_sets():
    with pytest.raises(ValueError, match="closed"):
        DecouplingGroup(["II", "XX", "YY"])  # missing ZZ
    with pytest.raises(ValueError, match=r"^group\[1\]: 'XQ' is not a 2-letter Pauli word$"):
        DecouplingGroup(["II", "XQ"])  # bad letter
    with pytest.raises(ValueError, match=r"^group\[1\]: 'X' is not a 2-letter Pauli word$"):
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
        for g in elements(group):
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
    level extends each span by one word per coset, the coset's first word.
    The span of all 63 non-identity 3-letter words needs the full group, the
    deepest level: one word per coset makes 23,562 extensions over the
    levels, one per word outside the span would make 154,413."""
    groups_module = importlib.import_module("decoupling.groups")
    inner = groups_module._coset_leaders
    extensions = 0

    def counting(elements, nontrivial, rank):
        nonlocal extensions
        p, j, cosets = inner(elements, nontrivial, rank)
        extensions += len(p)
        return p, j, cosets

    monkeypatch.setattr(groups_module, "_coset_leaders", counting)
    hits = minimal_group_search([{w: 1.0} for w in all_words(3)[1:]], n_qubits=3)
    assert [h.order for h in hits] == [64]
    assert extensions <= 30_000


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


# -- bit-mask word arithmetic against the letter arithmetic it replaced ----


def signed_zero_matrix(rng, d):
    """A random complex matrix with exact and negative zeros among its entries."""
    m = random_matrix(rng, d)
    m.real[rng.random((d, d)) < 0.2] = -0.0
    m.imag[rng.random((d, d)) < 0.2] = 0.0
    m[rng.random((d, d)) < 0.1] = complex(-0.0, -0.0)
    return m


@pytest.mark.parametrize("n_qubits, d_b",
                         [(n_qubits, d_b) for n_qubits in (1, 2, 3, 4) for d_b in (1, 2, 4)]
                         + [(6, 1)])
def test_generator_projection_matches_the_word_loop(n_qubits, d_b):
    """One signed flip per generator agrees with adding every group word's
    conjugate in group order from zero to within a few units of round-off;
    the trivial group, which has no generators, returns its input."""
    rng = np.random.default_rng(1000 * n_qubits + d_b)
    d = 2**n_qubits * d_b
    op = Operator(signed_zero_matrix(rng, d), (2,) * n_qubits + ((d_b,) if d_b > 1 else ()))
    scale = np.abs(op.matrix).max()
    for group in (pauli_group(n_qubits, "full"), pauli_group(n_qubits, "collective"),
                  pauli_group(n_qubits, "flip")):
        error = np.abs(project_commutant(op, group).matrix - project_commutant_loop(op, group))
        assert error.max() <= 1e-15 * scale, (group.order, error.max() / scale)
    assert project_commutant(op, trivial_group(n_qubits)).matrix.tobytes() == op.matrix.tobytes()


def test_projection_cancels_anticommuting_words_exactly():
    """Each generator either keeps a word, ``(a + a) / 2``, or cancels it,
    ``(a - a) / 2``: the full group averages the benchmark's system
    Hamiltonians to exact zeros, where a sum over all words leaves round-off."""
    for table, n_qubits in (({"XI": 0.3, "ZZ": 0.2}, 2), ({"ZZI": 0.2}, 3)):
        projected = project_commutant(pauli_sum(table, n_qubits), pauli_group(n_qubits, "full"))
        assert not projected.matrix.any(), (table, np.abs(projected.matrix).max())


def test_projection_memory_is_bounded():
    """A joint-size operator is averaged with about three operator-sized
    arrays, however many words the group has, and the 4096-word group holds
    under 1 MiB on a 64 x 64 operator."""
    rng = np.random.default_rng(5)
    for group, d_b, bound in ((pauli_group(2, "full"), 128, None),
                              (pauli_group(3, "full"), 64, None),
                              (pauli_group(6, "full"), 1, 2**20)):
        d = group.dim * d_b
        op = Operator(random_matrix(rng, d), group.dims + ((d_b,) if d_b > 1 else ()))
        tracemalloc.start()
        try:
            project_commutant(op, group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (bound or 3.5 * op.matrix.nbytes), (group.order, d, peak)


def test_pauli_sum_matches_the_word_loop_bitwise():
    """One scatter of every term equals adding the word matrices one at a time
    in sorted word order, for random complex tables on 1 to 3 qubits."""
    rng = np.random.default_rng(28)
    for n_qubits in (1, 2, 3):
        words = all_words(n_qubits)
        for size in sorted({1, 2, min(5, len(words)), len(words)}):
            chosen = rng.choice(words, size=size, replace=False)
            table = {str(w): complex(*rng.standard_normal(2)) for w in chosen}
            assert (pauli_sum(table, n_qubits).matrix.tobytes()
                    == pauli_sum_loop(table, n_qubits).tobytes())


def interactions():
    """Every 1- and 2-word interaction on 1 and 2 qubits, the benchmark's two
    ``design`` interactions and the CI's 63-word one."""
    cases = []
    for n_qubits in (1, 2):
        words = all_words(n_qubits)[1:]
        cases += [(list(ws), n_qubits) for r in (1, 2) for ws in itertools.combinations(words, r)]
    cases.append((["ZII", "IZI", "IIZ", "XXI", "IXX"], 3))
    cases.append((["ZI", "IZ", "ZZ"], 2))
    cases.append((all_words(3)[1:], 3))
    return cases


def test_mask_search_lists_the_letter_search_groups_in_order():
    """The same groups in the same order, each spanned by its generators."""
    for words, n_qubits in interactions():
        tables = [{w: 1.0} for w in words]
        hits = minimal_group_search(tables, n_qubits)
        assert [list(g.labels) for g in hits] == search_by_letters(tables, n_qubits), words
        for group in hits:
            assert_generates(group)


def test_mask_search_matches_the_letter_search_near_the_tolerance():
    """Multi-word channels with coefficients around the tolerance, and capped
    orders: the same groups in the same order, or none. The first two channels
    sit on the tolerance: summed in table order the trivial group decouples the
    second and not the first, summed in reverse order the other way round."""
    for table in ({"X": 2.8497758327403963e-09, "Y": 4.019600192980973e-09,
                   "Z": 5.0716458858753256e-09},
                  {"X": 4.12860152054027e-09, "Y": 1.3276442961990657e-09,
                   "Z": 5.584980761592887e-09}):
        got = [list(g.labels) for g in minimal_group_search([table], 1)]
        assert got == search_by_letters([table], 1)
    rng = np.random.default_rng(7)
    words = all_words(2)
    for _ in range(40):
        tables = [{str(w): float(rng.choice([1.0, 3e-9, 1e-8, 0.7]))
                   for w in rng.choice(words, size=rng.integers(1, 4), replace=False)}
                  for _ in range(rng.integers(1, 4))]
        max_order = int(rng.choice([1, 2, 4, 16]))
        got = [list(g.labels) for g in minimal_group_search(tables, 2, max_order=max_order)]
        assert got == search_by_letters(tables, 2, max_order=max_order), tables


def test_check_decoupling_residuals_match_the_letter_rule_bitwise():
    """Kept ``|c|**2`` are summed in table order: coefficients spread over
    eight decades make any other order show in the last bits."""
    rng = np.random.default_rng(11)
    for n_qubits in (1, 2, 3):
        words = all_words(n_qubits)
        tables = [{str(w): complex(*rng.standard_normal(2)) * 10 ** rng.uniform(-4, 4)
                   for w in rng.choice(words, size=rng.integers(1, len(words) + 1),
                                       replace=False)}
                  for _ in range(6)]
        for group in [pauli_group(n_qubits, v) for v in ("full", "collective", "flip")] + [
                trivial_group(n_qubits)]:
            report = check_decoupling(group, tables)
            assert report.residuals == tuple(
                surviving_norm_by_letters(t, group.labels, n_qubits) for t in tables)


def test_closure_errors_read_as_the_letter_oracle():
    """Unclosed word lists name the same pair as the string closure check, and
    closed ones build."""
    rng = np.random.default_rng(3)
    cases = [["II", "XX", "YY"], ["II", "XX", "ZZ", "XY"]]
    words4 = all_words(4)
    cases.append([w for w in words4 if w != "XYZI"])
    for n_qubits in (2, 3):
        words = all_words(n_qubits)
        for _ in range(100):
            size = int(rng.integers(2, len(words)))
            cases.append([words[0]] + [str(w) for w in rng.choice(words[1:], size - 1,
                                                                  replace=False)])
    closed = 0
    for words in cases:
        message = closure_error(words)
        if message is None:
            closed += DecouplingGroup(words).order == len(words)
        else:
            with pytest.raises(ValueError) as err:
                DecouplingGroup(words)
            assert str(err.value) == f"group: {message}"
    assert closed < len(cases)
