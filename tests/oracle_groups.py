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

The package does its word arithmetic on (x, z) bit masks. The letter
arithmetic it used before is kept here as the oracle for it: a product
table of single letters, the letter-by-letter commutation rule, the
closure check and minimal-group search on strings, and the word-by-word
conjugation loop of ``project_commutant``.
"""

import itertools
import math

import numpy as np

from decoupling.groups import conjugate_word, pauli_word_operator
from decoupling.operators import NUMERIC_TOL

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
    """Dense operator ``sum_w c_w w`` of a word-to-coefficient table, the terms added
    from zero in sorted word order."""
    out = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for w in sorted(table):
        out += table[w] * word_matrix(w)
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


# -- letter arithmetic: the package's word operations before bit masks -----

#: Projective single-letter products (signs dropped).
LETTER_PRODUCT = {
    ("I", "I"): "I", ("I", "X"): "X", ("I", "Y"): "Y", ("I", "Z"): "Z",
    ("X", "I"): "X", ("X", "X"): "I", ("X", "Y"): "Z", ("X", "Z"): "Y",
    ("Y", "I"): "Y", ("Y", "X"): "Z", ("Y", "Y"): "I", ("Y", "Z"): "X",
    ("Z", "I"): "Z", ("Z", "X"): "Y", ("Z", "Y"): "X", ("Z", "Z"): "I",
}


def letter_product(a, b):
    """Product of two words up to phase, letter by letter."""
    return "".join(LETTER_PRODUCT[x, y] for x, y in zip(a, b))


def kept_by_letters(word, group_words):
    """Whether averaging over ``group_words`` keeps ``word``: its letters clash
    (both non-identity and different) with each group word's at an even
    number of sites."""
    return not any(sum(1 for x, y in zip(word, g) if x != "I" and y != "I" and x != y) % 2
                   for g in group_words)


def closure_error(words):
    """The closure check on strings: the message naming the first product
    outside ``words``, or None when they are closed. The span is walked in
    the order its words were added."""
    members, span = set(words), [words[0]]
    for w in words:
        if w in span:
            continue
        for s in list(span):
            p = letter_product(s, w)
            if p not in members:
                return f"not projectively closed: product of {s!r} * {w!r} is outside the set"
            span.append(p)
    return None


def surviving_norm_by_letters(table, words, n_qubits):
    """Norm of the traceless part of ``table`` that averaging over ``words`` keeps,
    its ``|c|**2`` summed in table order."""
    surviving = sum(abs(c) ** 2 for w, c in table.items()
                    if w != "I" * n_qubits and kept_by_letters(w, words))
    return math.sqrt(2**n_qubits * surviving)


def search_by_letters(tables, n_qubits, max_order=64):
    """The minimal-group search on strings: breadth-first by order, each
    level's spans in the order of their generators' words, each span extended
    by the first word of every coset. Returns the hits' word lists."""
    id_word = "I" * n_qubits
    nontrivial = all_words(n_qubits)[1:]

    def decouples(span):
        return all(surviving_norm_by_letters(t, span, n_qubits) <= NUMERIC_TOL for t in tables)

    level = {frozenset({id_word}): ()}
    order = 1
    while order <= max_order:
        ranked = sorted(level.items(), key=lambda kv: kv[1])
        hits = [[id_word] + sorted(span - {id_word}) for span, _ in ranked if decouples(span)]
        if hits:
            return hits
        if 2 * order > max_order:
            return []
        nxt = {}
        for span, gens in ranked:
            covered = set(span)
            for w in nontrivial:
                if w not in covered:
                    coset = {letter_product(s, w) for s in span}
                    covered |= coset
                    nxt.setdefault(frozenset(span | coset), gens + (w,))
        level = nxt
        order *= 2
    return []


def project_commutant_loop(op, group):
    """The group average of ``op`` as a loop, one conjugation per group word,
    added in group order starting from zero."""
    acc = np.zeros_like(op.matrix)
    for w in group.labels:
        acc += conjugate_word(w, op.matrix)
    return acc / group.order


def pauli_sum_loop(table, n_qubits):
    """``sum_w c_w w`` one word matrix at a time, in sorted word order from zero."""
    m = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for w in sorted(table):
        m = m + pauli_word_operator(w).matrix * complex(table[w])
    return m
