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
phase. Conjugation is blind to phases, so each element is the plain
tensor product of its letters. Inside the module a word is its binary
symplectic form: the bit masks ``x`` of its X and Y letters and ``z`` of
its Z and Y letters, packed into one integer code ``x << K | z``. A
product of words (signs dropped) is the XOR of their codes, and two words
commute when ``x_a & z_b ^ z_a & x_b`` has an even popcount. Couplings
are Pauli word tables (word -> coefficient, one per channel), and both
the decoupling check and the minimal-group search classify them by
codes: conjugation by a group word maps each word to plus or minus
itself, so averaging keeps exactly the words that commute with every
group word, that is with each of its generators. Strings remain only
where words come in or go out: configs, ``labels``, printed output and
error messages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import Operator, NUMERIC_TOL, _integer, _real

PAULI_LETTERS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: ``i**k`` for ``k = 0..3``, exactly.
_PHASES = np.array([1, 1j, -1, -1j])

#: A word's x bits (X, Y) then its z bits (Z, Y), read as one binary code.
_X_BITS = bytes.maketrans(b"IXYZ", b"0110")
_Z_BITS = bytes.maketrans(b"IXYZ", b"0011")
#: The letter of digit ``2 x + z``.
_DIGIT_LETTERS = str.maketrans("0123", "IZXY")

#: Caps for exhaustive subgroup search. At most 3 qubits, a subgroup's
#: membership over the 64 codes fits one unsigned 64-bit key.
SEARCH_MAX_QUBITS = 3
SEARCH_MAX_ORDER = 64


def _is_word(word: str, n_qubits: int | None = None) -> bool:
    return bool(word) and not word.strip(PAULI_LETTERS) and n_qubits in (None, len(word))


def _code(word: str) -> int:
    """The code ``x << K | z`` of a checked ``K``-letter word: letter ``k`` is bit
    ``K - 1 - k`` of ``x`` and of ``z``."""
    letters = word.encode()
    return int(letters.translate(_X_BITS) + letters.translate(_Z_BITS), 2)


def _codes(words: Sequence[str]) -> np.ndarray:
    """The codes of checked, equal-length words."""
    return np.array([_code(w) for w in words], dtype=np.int64)


def _label(code: int, n_qubits: int) -> str:
    """The word of a code: the binary digits of ``x`` and ``z`` read as decimal numbers
    give ``2 x + z`` the decimal digit ``2 x_k + z_k`` at letter ``k`` (no carries)."""
    x, z = format(code >> n_qubits, "b"), format(code & (1 << n_qubits) - 1, "b")
    return str(2 * int(x) + int(z)).zfill(n_qubits).translate(_DIGIT_LETTERS)


def _overlap(a, b, n_qubits: int):
    """``x_a & z_b ^ z_a & x_b`` of codes ``a`` and ``b`` (integers or arrays): their
    words anticommute iff its popcount is odd."""
    return (a >> n_qubits & b) ^ (a & b >> n_qubits)


def _kept(code: int, generators: Sequence[int], n_qubits: int) -> bool:
    """Whether averaging over the group keeps the word of ``code``: whether it commutes
    with every generator, and so with every group word."""
    return not any(_overlap(code, g, n_qubits).bit_count() & 1 for g in generators)


def _flips(code: int, n_qubits: int) -> tuple[slice, ...]:
    """Slices reversing the register axes of the word's X and Y letters: read through
    them, an array's index ``j`` holds its entry at ``j ^ x``."""
    return tuple(slice(None, None, -1 if code >> (2 * n_qubits - 1 - k) & 1 else 1)
                 for k in range(n_qubits))


def _parities(code, n_qubits: int) -> np.ndarray:
    """The parity of ``j & z`` for each basis index ``j`` (last axis), per code, as
    ``intp`` (a popcount is ``uint8``, which cannot hold the sign ``1 - 2 p``)."""
    overlap = np.arange(2**n_qubits) & np.asarray(code)[..., None]
    return np.bitwise_count(overlap).astype(np.intp) & 1


def _phases(code, n_qubits: int) -> np.ndarray:
    """The entry ``i**n_y (-1)**parity(j & z)`` at ``(j ^ x, j)`` of each word's matrix
    (``n_y`` its number of Y letters), for each ``j`` (last axis)."""
    n_y = np.bitwise_count(np.asarray(code) >> n_qubits & code)[..., None]
    return _PHASES[(n_y + 2 * _parities(code, n_qubits)) % 4]


def pauli_word_operator(word: str) -> Operator:
    """Tensor-product operator for a Pauli word such as ``"XXI"``: the
    :func:`pauli_sum` of the word alone."""
    if not _is_word(word):
        raise ValueError(f"invalid Pauli word {word!r}; letters must be in 'IXYZ'")
    return pauli_sum({word: 1.0}, len(word))


def _conjugate(code: int, n_qubits: int, x: np.ndarray) -> np.ndarray:
    """:func:`conjugate_word` of the word of ``code``."""
    if code == 0:
        return x
    s = (1 - 2 * _parities(code, n_qubits)).reshape((2,) * n_qubits + (1,))
    rows = _flips(code, n_qubits) + (slice(None),)
    view = x.reshape(x.shape[:-2] + 2 * (s.shape[:-1] + (x.shape[-1] // 2**n_qubits,)))
    return (view[(..., *rows, *rows)] * np.multiply.outer(s, s)).reshape(x.shape)


def conjugate_word(word: str, x: np.ndarray) -> np.ndarray:
    """``(g (x) 1)^dag x (g (x) 1)`` for the word's matrix ``g``, per matrix of a
    ``(..., d, d)`` array ``x`` with system-major rows and columns, ``d = 2**K d_b``.

    The word's ``x`` mask flips the register axes of rows and columns (a view),
    and one ``+-1`` array from its ``z`` mask multiplies in the signs of both (the
    phase cancels): the result is exact and one new array. The identity word
    returns ``x`` itself.
    """
    if not _is_word(word):
        raise ValueError(f"invalid Pauli word {word!r}; letters must be in 'IXYZ'")
    return _conjugate(_code(word), len(word), x)


def _pauli_sums(tables: Sequence[dict[str, complex]], n_qubits: int) -> np.ndarray:
    """The ``(len(tables), d, d)`` stack of :func:`pauli_sum` matrices, in one pass: every
    term ``c_w w`` is written at its ``(j ^ x, j)`` entries by one unbuffered add, which
    adds each table's terms in sorted word order, starting from zero."""
    _check_tables(tables, n_qubits)
    words = [sorted(table) for table in tables]
    owner = np.repeat(np.arange(len(tables)), [len(w) for w in words])
    code = _codes([w for ws in words for w in ws])
    coeffs = np.array([complex(t[w]) for t, ws in zip(tables, words) for w in ws])
    j = np.arange(2**n_qubits)
    out = np.zeros((len(tables), j.size, j.size), dtype=complex)
    np.add.at(out, (owner[:, None], j ^ code[:, None] >> n_qubits, j),
              _phases(code, n_qubits) * coeffs.reshape(-1, 1))
    return out


def pauli_sum(table: dict[str, complex], n_qubits: int) -> Operator:
    """The operator ``sum_w c_w w`` of a word-to-coefficient table.

    Terms are added in sorted word order, starting from zero, so equal
    tables give bitwise equal matrices. A word of other than ``n_qubits``
    letters over ``IXYZ`` is named in a ``ValueError``.
    """
    return Operator(_pauli_sums([table], n_qubits)[0], (2,) * n_qubits)


class DecouplingGroup:
    """Pauli words on a qubit register, closed under products up to phase.

    ``words`` is the full element list: strings of as many letters over
    ``IXYZ`` as the first, the identity word first, none repeated. ``codes``
    holds their codes, in that order. Closure is checked at every order by
    spanning the list from its own words, one XOR per element, and the
    first product outside the list is named. ``generators`` holds the
    code of the first word of each new coset of that walk, in list order:
    ``log2 |G|`` codes whose XOR span is ``codes``. A ``ValueError`` is led
    by ``group[k]`` for a bad word ``k`` and by ``group`` for the list.
    """

    def __init__(self, words: Sequence[str]):
        words = tuple(words)
        if not words:
            raise ValueError("group: a decoupling group needs at least one word")
        position: dict[int, int] = {}  # code -> word index
        for k, w in enumerate(words):
            if not isinstance(w, str):
                raise ValueError(f"group[{k}]: expected a string, got {type(w).__name__}")
            n = len(words[0])  # word 0 sizes the rest; it passed this loop first
            if not _is_word(w, n):
                raise ValueError(f"group[{k}]: {w!r} is not a {n}-letter Pauli word")
            c = _code(w)
            if position.setdefault(c, k) != k:
                raise ValueError(f"group[{k}]: Pauli word {w!r} repeats group[{position[c]}]")
        words = tuple(map(str, words))
        if words[0] != "I" * n:
            raise ValueError(f"group: the first group word must be the identity, got {words[0]!r}")
        span, spanned, generators = [0], {0}, []
        for k, c in enumerate(position):
            if c in spanned:
                continue
            coset = [s ^ c for s in span]
            for s, p in zip(span, coset):
                if p not in position:
                    raise ValueError(
                        f"group: not projectively closed: product of {words[position[s]]!r} * "
                        f"{words[k]!r} is outside the set"
                    )
            span += coset
            spanned.update(coset)
            generators.append(c)
        self.labels: tuple[str, ...] = words
        self.codes: tuple[int, ...] = tuple(position)
        self.generators: tuple[int, ...] = tuple(generators)

    @property
    def order(self) -> int:
        return len(self.labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels[0])

    @property
    def dims(self) -> tuple[int, ...]:
        return (2,) * self.n_qubits

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def commutant_dimension(self) -> int:
        """``4**K / |G|``: the words commuting with a Pauli group form its
        symplectic complement, and they span the commutant."""
        return 4**self.n_qubits // self.order

    def __repr__(self) -> str:
        return f"DecouplingGroup(order={self.order}, dim={self.dim}, labels={list(self.labels)})"


def trivial_group(n_qubits: int) -> DecouplingGroup:
    """The one-element group (free evolution) on ``n_qubits`` qubits."""
    return DecouplingGroup(["I" * n_qubits])


def _all_words(n_qubits: int) -> list[str]:
    """Every ``n_qubits``-letter word, in ``IXYZ`` order."""
    return ["".join(w) for w in itertools.product(PAULI_LETTERS, repeat=n_qubits)]


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
    _integer("n_qubits", n_qubits, 1)
    if variant == "full":
        if 4**n_qubits > 4096:
            raise ValueError(f"group: full Pauli group on {n_qubits} qubits exceeds the order cap")
        words = _all_words(n_qubits)
    elif variant == "collective":
        words = [c * n_qubits for c in PAULI_LETTERS]
    elif variant == "flip":
        words = ["I" * n_qubits, "X" * n_qubits]
    else:
        raise ValueError(f"group: unknown variant {variant!r}; "
                         "expected 'full', 'collective' or 'flip'")
    return DecouplingGroup(words)


def project_commutant(op: Operator, group: DecouplingGroup) -> Operator:
    """Average ``op`` over conjugation by the group elements.

    Returns ``(1/|G|) sum_j (g_j (x) 1)^dag op (g_j (x) 1)``, the projection
    of ``op``, whose leading factors are the group's register, onto the
    commutant of the group. The map is idempotent, unital,
    trace-preserving, and independent of element phases.

    Conjugations by Pauli words commute and compose as their products do,
    and every group word is the product of a subset of the generators, so
    the average is ``prod_i (1 + Ad_{g_i}) / 2``: one strided conjugate
    (:func:`conjugate_word`) and one halved sum per generator. A word that
    anticommutes with a generator cancels exactly, ``(a - a) / 2``.
    """
    if op.dims[:len(group.dims)] != group.dims:
        raise ValueError(f"operator dims {op.dims} do not start with group dims {group.dims}")
    x = op.matrix
    for g in group.generators:
        x = (x + _conjugate(g, group.n_qubits, x)) / 2
    return Operator(x, op.dims)


def commutant_basis(group: DecouplingGroup) -> tuple[Operator, ...]:
    """Orthonormal (Hilbert-Schmidt) basis of the commutant, in word space: the
    Pauli words, an orthogonal operator basis, that averaging keeps (:func:`_kept`),
    normalized by ``sqrt(d)``. An independent route (the null space of the
    commutation superoperator) exists in the test suite as an oracle.
    """
    n, gens = group.n_qubits, group.generators
    scale = 1.0 / np.sqrt(group.dim)
    return tuple(pauli_sum({w: scale}, n) for w in _all_words(n) if _kept(_code(w), gens, n))


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


# -- classification by codes ----------------------------------------------
#
# A channel is a Pauli word table S = sum_w c_w w, and averaging keeps a
# component iff ``_kept`` keeps its word (``_averaged`` splits a table so; a
# run's reference Hamiltonian is its ``h_s`` kept part). The words are
# orthogonal with squared Frobenius norm d, so the surviving traceless part
# has norm sqrt(d * sum |c_w|**2) over the surviving non-identity words,
# summed in table order; identity components commute with everything and only
# shift phases. ``check_decoupling`` scores a configured group this way, and
# ``minimal_group_search`` scores every candidate subgroup of a level at once.


def _check_tables(tables: Sequence[dict[str, complex]], n_qubits: int,
                  names: Sequence[str] | None = None, real: bool = False):
    """Check word tables: each a dict of ``n_qubits``-letter words over ``IXYZ``, in sorted
    word order, with ``real`` each coefficient a finite real number. A ``ValueError`` is led
    by ``<name>.<word>``, or by ``<name>`` for a table that is not a dict; table ``i`` is
    named ``names[i]``, by default ``tables[i]``."""
    for i, table in enumerate(tables):
        name = f"tables[{i}]" if names is None else names[i]
        if not isinstance(table, dict):
            raise ValueError(f"{name}: expected an object mapping Pauli words to coefficients")
        for w in sorted(table):
            if real:
                _real(f"{name}.{w}", table[w])
            if not _is_word(w, n_qubits):
                raise ValueError(f"{name}.{w}: {w!r} is not a {n_qubits}-letter Pauli word")


def _averaged(table: dict[str, complex], group: DecouplingGroup) -> tuple[dict, dict]:
    """``(kept, removed)``: the terms of ``table``, in table order, that averaging over
    ``group`` keeps and removes. The kept terms' Pauli sum is the average."""
    kept = {w: c for w, c in table.items() if _kept(_code(w), group.generators, group.n_qubits)}
    return kept, {w: c for w, c in table.items() if w not in kept}


def _frobenius(table: dict[str, complex], n_qubits: int) -> float:
    """The Frobenius norm ``sqrt(d sum |c_w|**2)`` of a table's Pauli sum: its words are
    orthogonal, each of squared norm ``d``."""
    return math.sqrt(2**n_qubits * sum(abs(c) ** 2 for c in table.values()))


def check_decoupling(
    group: DecouplingGroup, tables: Sequence[dict[str, complex]]
) -> DecouplingReport:
    """Classify what the group's averaging does to the coupling channels.

    ``tables`` holds one channel per entry, as a mapping from Pauli word
    to coefficient (see :func:`decoupling.model.coupling_tables`).
    """
    n_qubits = group.n_qubits
    _check_tables(tables, n_qubits)
    residuals = tuple(_frobenius({w: c for w, c in _averaged(t, group)[0].items()
                                  if w != "I" * n_qubits}, n_qubits) for t in tables)
    cdim = group.commutant_dimension
    if all(r <= NUMERIC_TOL for r in residuals):
        mode = "maximal" if cdim == 1 else "selective"
    else:
        mode = "none"
    return DecouplingReport(mode=mode, residuals=residuals, commutant_dimension=cdim)


# -- minimal-group search -------------------------------------------------
#
# Subgroups of the projective Pauli group on K qubits are F_2-linear
# subspaces of the codes. A level holds every subgroup of one order, in
# the order of their generators' words: its elements' codes, its
# generators' codes and its membership key (bit c set for code c).


def _coset_leaders(elements: np.ndarray, nontrivial: np.ndarray, rank: np.ndarray):
    """The cosets ``w * span`` each span of a level extends by, one per coset: ``(p, j,
    cosets)`` with ``nontrivial[j]`` the code of the first word of its coset in ``IXYZ``
    order (``rank``) and not in span ``p``, span-major and then in word order, and the
    ``(S, W, |span|)`` codes of every coset."""
    cosets = nontrivial[None, :, None] ^ elements[:, None, :]
    p, j = np.nonzero(rank[cosets].min(-1) == rank[nontrivial])
    return p, j, cosets


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
    if nothing within ``max_order`` works. ``n_qubits`` runs from 1 to
    :data:`SEARCH_MAX_QUBITS` and ``max_order`` from 1 to
    :data:`SEARCH_MAX_ORDER`; a ``ValueError`` is led by the parameter's name
    (``tables[i].<word>`` for a bad word).
    """
    for name, value, cap in (("n_qubits", n_qubits, SEARCH_MAX_QUBITS),
                             ("max_order", max_order, SEARCH_MAX_ORDER)):
        if _integer(name, value, 1) > cap:
            raise ValueError(f"{name}: must be at most {cap}, got {value}")
    _check_tables(tables, n_qubits)
    # every channel's terms, flattened: channel, code and |c|**2 (zero for the identity)
    owner = np.repeat(np.arange(len(tables)), [len(t) for t in tables])
    terms = _codes([w for t in tables for w in t])[:, None, None]
    weights = np.array([abs(c) ** 2 for t in tables for c in t.values()], dtype=float)
    weights[terms[:, 0, 0] == 0] = 0.0
    words = _all_words(n_qubits)
    codes = _codes(words)  # IXYZ order
    rank = np.empty_like(codes)  # code -> position in IXYZ order
    rank[codes] = np.arange(len(codes))
    one = np.uint64(1)

    # Breadth-first over subgroup order (always a power of two).
    elements = np.zeros((1, 1), dtype=np.int64)
    gens = np.zeros((1, 0), dtype=np.int64)
    keys = np.ones(1, dtype=np.uint64)
    order = 1
    while order <= max_order and len(elements):
        # each span's surviving norms: its words commute with every generator
        kept = ~(np.bitwise_count(_overlap(terms, gens, n_qubits)) & 1).any(-1)
        surviving = np.zeros((len(tables), len(gens)))
        np.add.at(surviving, owner, np.where(kept, weights[:, None], 0.0))
        hits = (np.sqrt(2**n_qubits * surviving) <= NUMERIC_TOL).all(0)
        if hits.any():  # identity first, then IXYZ order
            spans = [sorted(rank[row].tolist()) for row in elements[hits]]
            return [DecouplingGroup([words[k] for k in ks]) for ks in spans]
        if 2 * order > max_order:
            return []
        # Every word of a coset w * span gives the same group: extend by the first.
        p, j, cosets = _coset_leaders(elements, codes[1:], rank)
        cosets = cosets[p, j]
        spanned = keys[p] | np.bitwise_or.reduce(one << cosets.astype(np.uint64), axis=1)
        found: dict[int, int] = {}  # each new span at its first extension
        for i, key in enumerate(spanned.tolist()):
            found.setdefault(key, i)
        first = np.fromiter(found.values(), dtype=np.intp, count=len(found))
        elements = np.concatenate([elements[p[first]], cosets[first]], axis=1)
        gens = np.concatenate([gens[p[first]], codes[1:][j[first], None]], axis=1)
        keys, order = spanned[first], 2 * order
    return []
