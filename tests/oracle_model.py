"""The dense view of a model, built from its tables, and the two bath builders the
package merged, kept as oracles for ``model``.

:func:`dense_parts` is the model's dense view: ``h_s`` and each ``S_a`` as sums of
``np.kron`` products of single-qubit Pauli letters, added in sorted word order, and
``h_b`` and each ``B_a`` as sums of their single-mode terms lifted by ``np.kron`` and
added in mode order. It reads the tables only and calls none of the package's placement
routines, and :func:`total_hamiltonian` sums its Kronecker terms: every oracle that
needs a model's matrices takes them from here.

``build_system_bath_model`` makes both bath kinds from one pair of mode stacks. The builders
here are the separate spin and boson paths it replaced: they build every site operator
through a chain of :func:`tensor` products. ``Operator`` has no arithmetic, so they
combine ``matrix`` arrays: each term scaled as ``m * complex(c)``, then added. Their
``identity`` and ``zero`` constructors left the package and live here. The new
builder's tables must reproduce their models bit for bit, except the bath factors:
they are normalized here by the SVD spectral norm, and in the package by per-mode
eigenvalues, so the two agree to 1e-14 relative. :func:`kron_bath` pins those factors
bit for bit too: it takes the builder's rows from :func:`scaled_rows`, the bath spec's
draws scaled to the norm by the same per-mode eigenvalues, forms each mode's term from
the scaled rows, lifts the terms by ``np.kron`` and adds them in the builder's mode order. Those builders return a
:class:`DenseModel`, and :func:`hand_built` turns dense parts into a model: word tables
by :func:`pauli_tables` and a one-mode bath. The hand-built model of acceptance
criterion 07 starts from random matrices that way; criterion 12's model is built
from its tables.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from decoupling import (
    BathSpec,
    Operator,
    SystemBathModel,
    coupling_tables,
)
from decoupling.groups import _DIGIT_LETTERS, PAULI_MATRICES, pauli_sum

from oracle_groups import table_matrix


class DenseModel(NamedTuple):
    """A model's dense parts: ``h_s``, ``h_b`` and the ``(S_a, B_a)`` pairs, as Operators."""

    h_s: Operator
    h_b: Operator
    couplings: tuple[tuple[Operator, Operator], ...]


def _lifted(terms) -> np.ndarray:
    """``sum_i 1 (x) terms[i] (x) 1``, ``terms[i]`` on mode ``i`` of ``len(terms)`` equal
    modes, lifted by ``np.kron`` and added from zero in mode order."""
    n, m = len(terms[0]), len(terms)
    out = np.zeros((n**m, n**m), dtype=complex)
    for i, term in enumerate(terms):
        out = out + np.kron(np.kron(np.eye(n**i), term), np.eye(n ** (m - i - 1)))
    return out


def dense_parts(model: SystemBathModel) -> DenseModel:
    """The dense parts of ``model``, from its word tables and mode stacks alone."""
    n_qubits, h_b = model.n_qubits, model.hamiltonian
    system_dims = (2,) * n_qubits
    bath_dims = (h_b.shape[-1],) * len(h_b)
    h_s, *system = (table_matrix(table, n_qubits) for table in model.words)
    couplings = tuple((Operator(s, system_dims), Operator(_lifted(terms), bath_dims))
                      for s, terms in zip(system, model.couplings))
    return DenseModel(Operator(h_s, system_dims), Operator(_lifted(h_b), bath_dims),
                      couplings)


def pauli_tables(matrices, n_qubits: int) -> tuple[dict[str, float], ...]:
    """The inverse of ``pauli_sum``: each Hermitian matrix's table ``w -> tr(w s) / 2**K``,
    real parts, exact zeros dropped. Each qubit's (row, column) axes meet one 4 x 2 x 2 map."""
    c = np.reshape(matrices, (len(matrices),) + (2,) * 2 * n_qubits)
    maps = np.array([PAULI_MATRICES[p].T for p in "IZXY"]) / 2  # tr(P s) / 2 at digit 2 x + z
    for k in range(n_qubits, 0, -1):  # the next qubit's row axis is 1, its column axis 1 + k
        c = np.tensordot(c, maps, axes=([1, 1 + k], [1, 2]))
    return tuple({np.base_repr(i, 4).zfill(n_qubits).translate(_DIGIT_LETTERS): float(row[i])
                  for i in np.flatnonzero(row)} for row in c.real.reshape(len(matrices), -1))


def hand_built(dense: DenseModel) -> SystemBathModel:
    """The model of dense parts on a qubit register: the word tables of ``h_s`` and each
    ``S_a`` by :func:`pauli_tables`, and the bath as one mode, ``h_b`` and the ``B_a``
    each its own one-term stack."""
    n_qubits, d_b = len(dense.h_s.dims), dense.h_b.dim
    words = pauli_tables([dense.h_s.matrix] + [s.matrix for s, _ in dense.couplings], n_qubits)
    couplings = np.array([b.matrix for _, b in dense.couplings]).reshape(-1, 1, d_b, d_b)
    return SystemBathModel(words, dense.h_b.matrix[None], couplings)


def identity(dims) -> Operator:
    """Identity operator; ``dims`` may be an int or a dimension list."""
    if isinstance(dims, int):
        dims = (dims,)
    return Operator(np.eye(math.prod(dims)), dims)


def zero(dims) -> Operator:
    """Zero operator; ``dims`` may be an int or a dimension list."""
    if isinstance(dims, int):
        dims = (dims,)
    d = math.prod(dims)
    return Operator(np.zeros((d, d)), dims)


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with ``a``'s indices major; dims concatenate."""
    return Operator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def tensor_all(ops: Sequence[Operator]) -> Operator:
    """Left-to-right tensor product of a nonempty operator sequence."""
    if not ops:
        raise ValueError("tensor_all requires at least one operator")
    out = ops[0]
    for op in ops[1:]:
        out = tensor(out, op)
    return out


def total_hamiltonian(model: SystemBathModel) -> Operator:
    """The full Hamiltonian on the joint system-bath space: the Kronecker sum of
    :func:`dense_parts`."""
    dense = dense_parts(model)
    h = tensor(dense.h_s, identity(list(dense.h_b.dims)))
    m = h.matrix + tensor(identity(list(dense.h_s.dims)), dense.h_b).matrix
    for s, b in dense.couplings:
        m = m + tensor(s, b).matrix
    return Operator(m, h.dims)


def _site_operator(local: np.ndarray, site: int, n_sites: int, local_dim: int = 2) -> Operator:
    ops = []
    for j in range(n_sites):
        if j == site:
            ops.append(Operator(local, (local.shape[0],)))
        else:
            ops.append(identity(local_dim))
    return tensor_all(ops)


def _normalized_random_combination(
    basis_mats: list[np.ndarray], dims, scale: float, rng: np.random.Generator
) -> Operator:
    coeffs = rng.standard_normal(len(basis_mats))
    m = sum(c * b for c, b in zip(coeffs, basis_mats))
    nrm = float(np.linalg.norm(m, 2))
    if nrm == 0.0:
        raise ValueError("degenerate random draw for a bath coupling operator")
    return Operator(scale * m / nrm, dims)


def build_spin_bath_model(
    n_qubits: int,
    bath: BathSpec,
    coupling: str = "dephasing",
    h_s: Operator | None = None,
) -> DenseModel:
    """Qubit register coupled to a bath of precessing spins.

    The bath Hamiltonian is ``sum_i (w_i/2) sigma_z^(i)`` over the jittered
    mode frequencies. Each system coupling operator (chosen by
    ``coupling``, see below) is paired with an independent random Hermitian
    bath operator drawn from the span of the transverse spin components
    ``{sigma_x^(j), sigma_y^(j)}`` and normalized to spectral norm
    ``bath.coupling``. Transverse bath operators do not commute with the
    bath Hamiltonian, so the joint dynamics genuinely entangles the
    register with the bath.

    Coupling flavours:

    ``dephasing``
        one ``sigma_z`` channel per qubit (pure phase damping),
    ``linear-independent``
        all three Pauli components of every qubit separately,
    ``linear-collective``
        the three collective components ``sum_i sigma_a^(i)``,
    ``total``
        every nontrivial Pauli word (errors of arbitrary weight).
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    if bath.kind != "spin-bath":
        raise ValueError(f"build_spin_bath_model needs a spin-bath BathSpec, got {bath.kind!r}")
    tables = coupling_tables(n_qubits, coupling)
    m = bath.n_modes
    if len(tables) > 2 * m:
        raise ValueError(
            f"{len(tables)} coupling channels need at least "
            f"{(len(tables) + 1) // 2} bath modes for independent bath operators; "
            f"got {m}"
        )
    bath_dims = (2,) * m
    h_b = zero(list(bath_dims)).matrix
    for i, w in enumerate(bath.mode_frequencies):
        h_b = h_b + _site_operator(PAULI_MATRICES["Z"], i, m).matrix * complex(0.5 * w)
    transverse = [
        _site_operator(PAULI_MATRICES[letter], j, m).matrix
        for j in range(m)
        for letter in "XY"
    ]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=bath.seed, spawn_key=(1,)))
    couplings = tuple(
        (pauli_sum(t, n_qubits),
         _normalized_random_combination(transverse, bath_dims, bath.coupling_scale, rng))
        for t in tables
    )
    if h_s is None:
        h_s = zero([2] * n_qubits)
    elif h_s.dims != (2,) * n_qubits:
        raise ValueError(f"h_s acts on dims {h_s.dims}, expected {(2,) * n_qubits}")
    return DenseModel(h_s, Operator(h_b, bath_dims), couplings)


def build_boson_dephasing_model(
    n_qubits: int,
    bath: BathSpec,
    h_s: Operator | None = None,
) -> DenseModel:
    """Qubit register dephasing against truncated oscillator modes.

    The bath Hamiltonian is ``sum_i w_i a_i^dag a_i`` with each mode cut
    off at ``bath.boson_truncation`` Fock states. Every qubit's
    ``sigma_z`` couples to its own random combination of the quadratures
    ``a_j + a_j^dag``, normalized to spectral norm ``coupling_scale``.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    if bath.kind != "boson-mode":
        raise ValueError(
            f"build_boson_dephasing_model needs a boson-mode BathSpec, got {bath.kind!r}"
        )
    n_levels = bath.boson_truncation
    m = bath.n_modes
    if n_qubits > m:
        raise ValueError(
            f"{n_qubits} dephasing channels need at least {n_qubits} bath modes; got {m}"
        )
    bath_dims = (n_levels,) * m
    lower = np.diag(np.sqrt(np.arange(1, n_levels)), 1)
    number = np.diag(np.arange(n_levels, dtype=float))
    quadrature = lower + lower.conj().T
    h_b = zero(list(bath_dims)).matrix
    for i, w in enumerate(bath.mode_frequencies):
        h_b = h_b + _site_operator(number, i, m, local_dim=n_levels).matrix * complex(w)
    quads = [
        _site_operator(quadrature, j, m, local_dim=n_levels).matrix for j in range(m)
    ]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=bath.seed, spawn_key=(1,)))
    couplings = tuple(
        (pauli_sum(t, n_qubits),
         _normalized_random_combination(quads, bath_dims, bath.coupling_scale, rng))
        for t in coupling_tables(n_qubits, "dephasing")
    )
    if h_s is None:
        h_s = zero([2] * n_qubits)
    elif h_s.dims != (2,) * n_qubits:
        raise ValueError(f"h_s acts on dims {h_s.dims}, expected {(2,) * n_qubits}")
    return DenseModel(h_s, Operator(h_b, bath_dims), couplings)


def _mode_operators(bath: BathSpec) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """A mode's Hamiltonian per unit frequency and its coupling operators, complex."""
    if bath.kind == "spin-bath":
        return 0.5 * PAULI_MATRICES["Z"], (PAULI_MATRICES["X"], PAULI_MATRICES["Y"])
    lower = np.diag(np.sqrt(np.arange(1, bath.boson_truncation)), 1).astype(complex)
    return np.diag(np.arange(bath.boson_truncation)).astype(complex), (lower + lower.T,)


def scaled_rows(bath: BathSpec, n_channels: int) -> np.ndarray:
    """The ``(n_channels, n_modes, n_ops)`` rows ``r`` of the bath factors: each channel's
    standard normal draws from the bath spec's stream, scaled by ``coupling_scale`` over
    the channel's norm, the sum over modes of each unscaled term's extreme eigenvalues."""
    _, ops = _mode_operators(bath)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=bath.seed, spawn_key=(1,)))
    rows = []
    for _ in range(n_channels):
        draws = rng.standard_normal(bath.n_modes * len(ops)).reshape(bath.n_modes, -1)
        ends = np.linalg.eigvalsh(np.tensordot(draws, ops, axes=1)).sum(0)
        rows.append(draws * (bath.coupling_scale / float(max(ends[-1], -ends[0]))))
    return np.array(rows)


def kron_bath(bath: BathSpec, n_channels: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """``h_b`` and the ``n_channels`` bath factors ``B_a`` by Kronecker lifts.

    Mode ``i``'s term is lifted as ``1 (x) term (x) 1`` and the lifts are
    summed from zero in mode order: ``w_i h_mode`` for ``h_b``, and for each
    ``B_a`` the term ``sum_k r_ik op_k``, with ``r`` that channel's
    :func:`scaled_rows`.
    """
    h_mode, ops = _mode_operators(bath)
    h_b = _lifted([w * h_mode for w in bath.mode_frequencies])
    factors = [_lifted([sum(r * op for r, op in zip(row, ops)) for row in rows])
               for rows in scaled_rows(bath, n_channels)]
    return h_b, factors


def random_hermitian_parts(rng: np.random.Generator) -> DenseModel:
    """Dense parts whose every operator is a random Hermitian matrix from ``rng``: ``h_s``
    on one qubit, ``h_b`` on a 4-level bath, then two channels, each ``S_a`` drawn before
    its ``B_a``."""

    def herm(d):
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return Operator((m + m.conj().T) / 2, [d])

    return DenseModel(herm(2), herm(4), ((herm(2), herm(4)), (herm(2), herm(4))))


def commuting_dephasing_model(rng: np.random.Generator, n_modes: int = 3) -> SystemBathModel:
    """A qubit dephasing through ``Z (x) B`` against ``n_modes`` bath spins, with ``h_b =
    sum_i w_i Z_i / 2`` (``w_i`` uniform in [0.3, 1)) and ``B = sum_i c_i Z_i`` (``c_i``
    standard normal) scaled to spectral norm 0.4, ``sum_i |c_i|``, so ``B`` commutes with
    ``h_b``: mode stacks of ``n_modes`` modes with terms ``w_i Z / 2`` and ``0.4 c_i Z /
    sum_j |c_j|``."""
    freqs = rng.uniform(0.3, 1.0, size=n_modes)
    c = np.array([rng.normal() for _ in range(n_modes)])
    sz = PAULI_MATRICES["Z"]
    return SystemBathModel(({}, {"Z": 1.0}), freqs[:, None, None] * (0.5 * sz),
                           (c * (0.4 / np.abs(c).sum()))[None, :, None, None] * sz)
