"""Pauli decoupling groups, group averaging, and commutant computation.

The control repertoire is a finite set of Pauli words acting on a qubit
register. Averaging a system operator over the conjugation action of
that set,

    S  ->  (1/|G|) * sum_j  g_j^dag S g_j,

projects S onto the commutant of the group (the operators commuting with
every element). System-bath couplings whose projection vanishes drop out
of the zeroth-order average Hamiltonian; couplings whose projection
survives cannot be removed by that group. Checking which case holds, and
searching for the smallest group that achieves the first, is what this
module does.

A group is its list of words, closed under multiplication up to a
phase. Conjugation is blind to phases, so products are taken in word
arithmetic (signs dropped) and each element is the plain tensor product
of its letters. Couplings are Pauli word tables (word -> coefficient,
one per channel), and both the decoupling check and the minimal-group
search classify them in word space: conjugation by a group word maps
each word to plus or minus itself, so averaging keeps exactly the words
that commute with every group word.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .operators import Operator, NUMERIC_TOL

PAULI_LETTERS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Projective single-letter products (signs dropped): used for group
# closure and subgroup enumeration, where only the group structure matters.
_LETTER_PRODUCT = {
    ("I", "I"): "I", ("I", "X"): "X", ("I", "Y"): "Y", ("I", "Z"): "Z",
    ("X", "I"): "X", ("X", "X"): "I", ("X", "Y"): "Z", ("X", "Z"): "Y",
    ("Y", "I"): "Y", ("Y", "X"): "Z", ("Y", "Y"): "I", ("Y", "Z"): "X",
    ("Z", "I"): "Z", ("Z", "X"): "Y", ("Z", "Y"): "X", ("Z", "Z"): "I",
}

#: ``i**k`` for ``k = 0..3``, exactly.
_PHASES = np.array([1, 1j, -1, -1j])

#: Caps for exhaustive subgroup search.
SEARCH_MAX_QUBITS = 3
SEARCH_MAX_ORDER = 64


def _signed_flip(word: str) -> tuple[tuple[slice, ...], np.ndarray, int]:
    """A Pauli word as a signed permutation of the register axes, ``(flips, parity, n_y)``.

    With ``x`` and ``z`` the masks of its X/Y and Z/Y letters, the word maps
    ``|j>`` to ``i**n_y (-1)**parity[j] |j ^ x>``: ``flips`` reverses the
    register axes in ``x``, which maps ``j`` to ``j ^ x``, and ``parity`` holds
    that of ``j & z`` over the ``(2,) * K`` register axes.
    """
    if not word or any(c not in PAULI_LETTERS for c in word):
        raise ValueError(f"invalid Pauli word {word!r}; letters must be in 'IXYZ'")
    flips = tuple(slice(None, None, -1 if c in "XY" else 1) for c in word)
    parity = np.indices((2,) * len(word))[[c in "ZY" for c in word]].sum(0) % 2
    return flips, parity, word.count("Y")


def pauli_word_operator(word: str) -> Operator:
    """Tensor-product operator for a Pauli word such as ``"XXI"``, filled in
    one pass over the basis from its :func:`_signed_flip`, with no Kronecker
    products."""
    flips, parity, n_y = _signed_flip(word)
    j = np.arange(parity.size)
    m = np.zeros((j.size, j.size), dtype=complex)
    m[j.reshape(parity.shape)[flips].ravel(), j] = _PHASES[(n_y + 2 * parity.ravel()) % 4]
    return Operator(m, (2,) * len(word))


def conjugate_word(word: str, x: np.ndarray) -> np.ndarray:
    """``(g (x) 1)^dag x (g (x) 1)`` for the word's matrix ``g``, per matrix of a
    ``(..., d, d)`` array ``x`` with system-major rows and columns, ``d = 2**K d_b``.

    Its :func:`_signed_flip` flips the register axes of rows and columns (a view),
    and one ``+-1`` array multiplies in the signs of both (the phase cancels): the
    result is exact and one new array. The identity word returns ``x`` itself.
    """
    if set(word) == {"I"}:
        return x
    flips, parity, _ = _signed_flip(word)
    s = (1 - 2 * parity)[..., None]
    rows = flips + (slice(None),)
    view = x.reshape(x.shape[:-2] + 2 * (parity.shape + (x.shape[-1] // parity.size,)))
    return (view[(..., *rows, *rows)] * np.multiply.outer(s, s)).reshape(x.shape)


def _words_anticommute(a: str, b: str) -> bool:
    """Whether two Pauli words anticommute (else they commute)."""
    clashes = sum(1 for x, y in zip(a, b) if x != "I" and y != "I" and x != y)
    return clashes % 2 == 1


def _word_product(a: str, b: str) -> str:
    return "".join(_LETTER_PRODUCT[x, y] for x, y in zip(a, b))


def pauli_sum(table: dict[str, complex], n_qubits: int) -> Operator:
    """The operator ``sum_w c_w w`` of a word-to-coefficient table.

    Terms are added in sorted word order, starting from zero, so equal
    tables give bitwise equal matrices.
    """
    m = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for w in sorted(table):
        m = m + pauli_word_operator(w).matrix * complex(table[w])
    return Operator(m, (2,) * n_qubits)


class DecouplingGroup:
    """Pauli words on a qubit register, closed under products up to phase.

    ``words`` is the full element list: equal-length words over
    ``IXYZ``, the identity word first, none repeated. Closure is checked
    at every order by spanning the list from its own words, one word
    product per element, and the first product outside the list is named.
    """

    def __init__(self, words: Sequence[str]):
        words = tuple(str(w) for w in words)
        if not words:
            raise ValueError("a decoupling group needs at least one word")
        n = len(words[0])
        members: set[str] = set()
        for k, w in enumerate(words):
            if not w or any(c not in PAULI_LETTERS for c in w):
                raise ValueError(f"group word {k} ({w!r}) is not a Pauli word over 'IXYZ'")
            if len(w) != n:
                raise ValueError(f"group word {k} ({w!r}) has {len(w)} letters, expected {n}")
            if w in members:
                raise ValueError(f"group word {k} ({w!r}) repeats an earlier word")
            members.add(w)
        if words[0] != "I" * n:
            raise ValueError(f"the first group word must be the identity, got {words[0]!r}")
        span = {words[0]}
        for w in words:
            if w in span:
                continue
            for s in list(span):
                p = _word_product(s, w)
                if p not in members:
                    raise ValueError(
                        f"not projectively closed: product of {s!r} * {w!r} "
                        "is outside the set"
                    )
                span.add(p)
        self.labels: tuple[str, ...] = words

    @functools.cached_property
    def elements(self) -> tuple[Operator, ...]:
        """Dense word matrices, built on first use; word-space callers never need them."""
        return tuple(pauli_word_operator(w) for w in self.labels)

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) * len(self.labels[0])

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels[0])

    @property
    def commutant_dimension(self) -> int:
        """``4**K / |G|``: the words commuting with a Pauli group form its
        symplectic complement, and they span the commutant."""
        return 4 ** len(self.labels[0]) // self.order

    def __repr__(self) -> str:
        return f"DecouplingGroup(order={self.order}, dim={self.dim}, labels={list(self.labels)})"


def trivial_group(n_qubits: int) -> DecouplingGroup:
    """The one-element group (free evolution) on ``n_qubits`` qubits."""
    return DecouplingGroup(["I" * n_qubits])


def pauli_group(n_qubits: int, variant: str = "full") -> DecouplingGroup:
    """Named Pauli decoupling groups on a qubit register.

    ``full``
        All tensor products of single-qubit Paulis: a unitary error
        basis of order ``4**n_qubits``; averaging over it collapses every
        system operator to a scalar (maximal averaging).
    ``collective``
        ``{1, X..X, Y..Y, Z..Z}`` of order 4: removes every coupling
        linear in single-qubit operators.
    ``flip``
        ``{1, X..X}`` of order 2: the collective spin echo, enough for
        purely dephasing (sigma_z) couplings.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    if variant == "full":
        if 4**n_qubits > 4096:
            raise ValueError(f"full Pauli group on {n_qubits} qubits exceeds the order cap")
        words = ["".join(w) for w in itertools.product(PAULI_LETTERS, repeat=n_qubits)]
    elif variant == "collective":
        words = [c * n_qubits for c in PAULI_LETTERS]
    elif variant == "flip":
        words = ["I" * n_qubits, "X" * n_qubits]
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'full', 'collective' or 'flip'")
    return DecouplingGroup(words)


def project_commutant(op: Operator, group: DecouplingGroup) -> Operator:
    """Average ``op`` over conjugation by the group elements.

    Returns ``(1/|G|) sum_j (g_j (x) 1)^dag op (g_j (x) 1)``, the projection
    of ``op``, whose leading factors are the group's register, onto the
    commutant of the group. The map is idempotent, unital,
    trace-preserving, and independent of element phases.
    """
    if op.dims[:len(group.dims)] != group.dims:
        raise ValueError(f"operator dims {op.dims} do not start with group dims {group.dims}")
    acc = np.zeros_like(op.matrix)
    for w in group.labels:
        acc += conjugate_word(w, op.matrix)
    return Operator(acc / group.order, op.dims)


def commutant_basis(group: DecouplingGroup) -> tuple[Operator, ...]:
    """Orthonormal (Hilbert-Schmidt) basis of the commutant, in word space.

    The Pauli words are an orthogonal operator basis, and conjugation by a
    group word maps each word to plus or minus itself, so the averaging
    projector keeps exactly the words that commute with every group word
    and removes the rest. The basis is those words, normalized by
    ``sqrt(d)``. An independent route (the null space of the commutation
    superoperator) exists in the test suite as an oracle.
    """
    n = len(group.labels[0])
    scale = 1.0 / np.sqrt(group.dim)
    words = ("".join(w) for w in itertools.product(PAULI_LETTERS, repeat=n))
    return tuple(
        pauli_word_operator(w) * scale
        for w in words
        if not any(_words_anticommute(w, g) for g in group.labels)
    )


@dataclass(frozen=True)
class DecouplingReport:
    """Outcome of checking a group against the coupling channels.

    ``mode`` is ``"maximal"`` when the averaging projector kills every
    traceless system operator (commutant reduced to scalars),
    ``"selective"`` when it kills every channel but leaves a larger
    commutant for engineered dynamics, and ``"none"`` when some coupling
    survives. ``residuals`` holds, per channel, the Frobenius norm of the
    surviving traceless part.
    """

    mode: str
    residuals: tuple[float, ...]
    commutant_dimension: int


# -- classification in word space -----------------------------------------
#
# A channel is a Pauli word table S = sum_w c_w w. Conjugation by a group
# word maps each word to plus or minus itself, so averaging over a Pauli
# group keeps a component iff its word commutes with every group word and
# removes the rest. The words are orthogonal with squared Frobenius norm
# d, so the surviving traceless part has norm sqrt(d * sum |c_w|**2) over
# the surviving non-identity words; identity components commute with
# everything and only shift phases. ``check_decoupling`` scores a
# configured group this way, and ``minimal_group_search`` scores every
# candidate subgroup, both through ``_surviving_norm``.


def _check_tables(tables: Sequence[dict[str, complex]], n_qubits: int):
    for table in tables:
        for w in table:
            if len(w) != n_qubits or any(c not in PAULI_LETTERS for c in w):
                raise ValueError(f"{w!r} is not a {n_qubits}-letter Pauli word")


def _surviving_norm(table: dict[str, complex], words: Collection[str], n_qubits: int) -> float:
    """Norm of the traceless part of ``table`` that averaging over ``words`` keeps."""
    id_word = "I" * n_qubits
    surviving = sum(
        abs(c) ** 2
        for w, c in table.items()
        if w != id_word and not any(_words_anticommute(w, g) for g in words)
    )
    return math.sqrt(2**n_qubits * surviving)


def check_decoupling(
    group: DecouplingGroup, tables: Sequence[dict[str, complex]]
) -> DecouplingReport:
    """Classify what the group's averaging does to the coupling channels.

    ``tables`` holds one channel per entry, as a mapping from Pauli word
    to coefficient (see :func:`decoupling.model.coupling_tables`).
    """
    n_qubits = len(group.labels[0])
    _check_tables(tables, n_qubits)
    residuals = tuple(_surviving_norm(t, group.labels, n_qubits) for t in tables)
    cdim = group.commutant_dimension
    if all(r <= NUMERIC_TOL for r in residuals):
        mode = "maximal" if cdim == 1 else "selective"
    else:
        mode = "none"
    return DecouplingReport(mode=mode, residuals=residuals, commutant_dimension=cdim)


# -- minimal-group search -------------------------------------------------
#
# Subgroups of the projective Pauli group on K qubits are F_2-linear
# subspaces of the word group, so candidates are enumerated in word
# arithmetic and each is scored on every channel's table as above.


def minimal_group_search(
    tables: Sequence[dict[str, complex]], n_qubits: int, max_order: int = SEARCH_MAX_ORDER
) -> list[DecouplingGroup]:
    """Exhaustively find the smallest Pauli subgroups that decouple.

    ``tables`` holds one interaction channel per entry, as a mapping from
    Pauli word to coefficient. Identity components are dropped: they
    commute with everything and only shift phases. Enumerates every
    subgroup of the projective Pauli group on ``n_qubits`` qubits
    (breadth-first by order, generators in lexicographic word order) and
    returns all groups of minimal order whose averaging leaves no
    channel a traceless part above ``NUMERIC_TOL``. Returns an empty list
    if nothing within ``max_order`` works.
    """
    if not 1 <= n_qubits <= SEARCH_MAX_QUBITS:
        raise ValueError(f"search covers 1 to {SEARCH_MAX_QUBITS} qubits, got {n_qubits}")
    if max_order > SEARCH_MAX_ORDER:
        raise ValueError(f"search capped at order {SEARCH_MAX_ORDER}, got {max_order}")
    _check_tables(tables, n_qubits)

    id_word = "I" * n_qubits
    all_words = ["".join(w) for w in itertools.product(PAULI_LETTERS, repeat=n_qubits)]
    nontrivial = [w for w in all_words if w != id_word]

    def decouples(span: frozenset[str]) -> bool:
        return all(_surviving_norm(t, span, n_qubits) <= NUMERIC_TOL for t in tables)

    # Breadth-first over subgroup order (always a power of two).
    level: dict[frozenset[str], tuple[str, ...]] = {frozenset({id_word}): ()}
    order = 1
    while order <= max_order:
        hits = [
            DecouplingGroup([id_word] + sorted(span - {id_word}))
            for span, gens in sorted(level.items(), key=lambda kv: kv[1])
            if decouples(span)
        ]
        if hits:
            return hits
        if 2 * order > max_order:
            return []
        # Every word of a coset w * span gives the same group: extend by the first.
        nxt: dict[frozenset[str], tuple[str, ...]] = {}
        for span, gens in sorted(level.items(), key=lambda kv: kv[1]):
            covered = set(span)
            for w in nontrivial:
                if w not in covered:
                    coset = {_word_product(s, w) for s in span}
                    covered |= coset
                    nxt.setdefault(frozenset(span | coset), gens + (w,))
        level = nxt
        order *= 2
    return []
