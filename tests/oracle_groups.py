"""Dense and bit-level group computations, kept as oracles for ``groups``.

The package classifies Pauli groups in word arithmetic: a word survives
averaging when it commutes with every group word, the commutant has
dimension ``4**K / |G|``, and the decoupling check and the minimal-group
search score word coefficient tables. The routines here reach the same
answers another way: by Kronecker-built word matrices, Hilbert-Schmidt
traces, explicit conjugation averages and null spaces of stacked
commutator maps. The Pauli expansion, the dense residual and the
decoupling check are the dense path the search and ``check_decoupling``
used before they moved to word arithmetic. A group's and a schedule's
dense word matrices, which the package no longer builds, are made here
from their words.
"""

import itertools

import numpy as np

from decoupling.groups import pauli_word_operator

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}

#: Pauli letters as bit pairs (x, z): products up to phase are XORs.
_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_LETTER = {bits: letter for letter, bits in _BITS.items()}


def word_matrix(word):
    """Kronecker product of the word's single-qubit Pauli matrices."""
    out = PAULI_1Q[word[0]].copy()
    for ch in word[1:]:
        out = np.kron(out, PAULI_1Q[ch])
    return out


def elements(group):
    """The group's word Operators, in group order."""
    return tuple(pauli_word_operator(w) for w in group.labels)


def frames(schedule):
    """The frame matrix of each segment of ``schedule``, in time order."""
    return tuple(pauli_word_operator(w).matrix for w in schedule.segments)


def all_words(n_qubits):
    return ["".join(w) for w in itertools.product("IXYZ", repeat=n_qubits)]


def word_product(a: str, b: str) -> str:
    """Product of two words up to phase, by XOR of their bit pairs."""
    return "".join(
        _LETTER[_BITS[x][0] ^ _BITS[y][0], _BITS[x][1] ^ _BITS[y][1]] for x, y in zip(a, b)
    )


def subgroup_words(generators, n_qubits):
    """Words of the subgroup the generators span, identity first."""
    words = ["I" * n_qubits]
    for g in generators:
        if g not in words:
            words += [word_product(g, w) for w in words]
    return words


def all_subgroups(n_qubits):
    """Every subgroup of the projective Pauli group, as frozensets of words.

    Spans every set of at most ``2 * n_qubits`` generators (the rank of
    the word group), so it is meant for ``n_qubits <= 2``.
    """
    nontrivial = all_words(n_qubits)[1:]
    return {
        frozenset(subgroup_words(gens, n_qubits))
        for r in range(2 * n_qubits + 1)
        for gens in itertools.combinations(nontrivial, r)
    }


def table_matrix(table, n_qubits):
    """Dense operator ``sum_w c_w w`` of a word-to-coefficient table."""
    out = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for w, c in table.items():
        out += c * word_matrix(w)
    return out


def pauli_coefficients(mat):
    """Pauli word expansion ``c_w = tr(w^dag S) / d`` by dense traces.

    Components below 1e-14 in magnitude are dropped.
    """
    d = len(mat)
    coeffs = {}
    for w in all_words(int(np.log2(d))):
        c = np.trace(word_matrix(w).conj().T @ mat) / d
        if abs(c) > 1e-14:
            coeffs[w] = c
    return coeffs


def traceless_residual(words, mat):
    """Frobenius norm of the traceless part of the explicit average of
    ``mat`` over conjugation by the words' Kronecker-built matrices."""
    mats = [word_matrix(w) for w in words]
    acc = sum(g.conj().T @ mat @ g for g in mats) / len(mats)
    traceless = acc - (np.trace(acc) / len(acc)) * np.eye(len(acc))
    return float(np.linalg.norm(traceless))


def decouples_oracle(words, interaction_mats):
    """Whether explicit averaging over the words kills every channel.

    The identity part of each average is ignored, as the package does:
    it commutes with everything and only shifts phases. A channel is
    killed when the traceless part of its average has Frobenius norm at
    most 1e-10, below the package's ``NUMERIC_TOL``.
    """
    return all(traceless_residual(words, s) <= 1e-10 for s in interaction_mats)


def null_space_commutant_oracle(group):
    """Commutant as the null space of stacked commutator maps.

    Row-major vectorization turns X -> gX - Xg into
    (kron(g, I) - kron(I, g.T)) vec(X); the joint null space over all
    group elements is exactly the commutant.
    """
    d = group.dim
    eye = np.eye(d)
    blocks = [np.kron(g.matrix, eye) - np.kron(eye, g.matrix.T) for g in elements(group)]
    stacked = np.vstack(blocks)
    _, svals, vh = np.linalg.svd(stacked)
    null_mask = np.concatenate([svals, np.zeros(vh.shape[0] - len(svals))]) < 1e-10
    return vh[null_mask].conj()
