"""Open-system models: a register of qubits coupled to a small bath.

The total Hamiltonian always has the split form

    H = H_S (x) 1  +  1 (x) H_B  +  sum_a  S_a (x) B_a,

with Hermitian system operators S_a and Hermitian bath operators B_a.
Everything downstream (toggling frames, averaging, propagation) consumes
a :class:`SystemBathModel` holding these pieces as Operators, so the bath
can be anything finite-dimensional. One builder, :func:`build_system_bath_model`,
makes both bath kinds from a two-row mode table: a spin bath (each mode
is a qubit precessing at its own frequency) and a truncated bosonic bath
for pure dephasing differ only in the single-mode Hamiltonian and the
mode operators the couplings draw on. The builder's model keeps its system
side as Pauli word tables, and that mode table (:class:`ModeTable`) as its
bath, on which it is checked; its ``H_B`` and ``B_a`` place their
``d_b x d_b`` matrices only when something reads them, which the
mode-by-mode product path never does.

Mode frequencies are laid out on a uniform grid up to the cutoff and then
jittered, so spectra are generic but reproducible from a seed. The cutoff
sets the fastest bath timescale: control is only expected to help when a
cycle completes in a fraction of ``1/cutoff``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple, Sequence

import numpy as np

from .operators import DIM_CAP, Operator
from .groups import PAULI_MATRICES, _all_words, _pauli_sums, _pauli_tables


BATH_KINDS = ("spin-bath", "boson-mode")
COUPLING_KINDS = ("dephasing", "linear-independent", "linear-collective", "total")


@dataclass(frozen=True)
class BathSpec:
    """Kind, size, spectrum, and coupling scale of a randomly drawn bath.

    ``n_modes`` modes get frequencies on the uniform grid
    ``cutoff/n_modes * (1, 2, ..., n_modes)``, each jittered uniformly by
    up to 10 percent of the grid spacing and clipped back into
    ``(0, cutoff]`` (the jitter avoids accidentally commensurate spectra).
    ``coupling_scale`` is the spectral norm given to every system-bath
    coupling operator. ``boson_truncation`` is the Fock-ladder length per
    mode and applies to the boson kind only. All randomness derives from
    ``seed``.
    """

    kind: str
    n_modes: int
    cutoff: float
    coupling_scale: float
    seed: int
    boson_truncation: int | None = None
    mode_frequencies: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if self.kind not in BATH_KINDS:
            raise ValueError(f"unknown bath kind {self.kind!r}; expected one of {BATH_KINDS}")
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.coupling_scale <= 0:
            raise ValueError("coupling_scale must be positive")
        if self.kind == "boson-mode":
            if self.boson_truncation is None or self.boson_truncation < 2:
                raise ValueError("boson-mode baths need boson_truncation >= 2")
        elif self.boson_truncation is not None:
            raise ValueError("boson_truncation only applies to boson-mode baths")
        rng = np.random.default_rng(self.seed)
        spacing = self.cutoff / self.n_modes
        base = spacing * np.arange(1, self.n_modes + 1)
        jitter = rng.uniform(-0.1 * spacing, 0.1 * spacing, size=self.n_modes)
        freqs = np.clip(base + jitter, 0.5 * spacing, self.cutoff)
        object.__setattr__(self, "mode_frequencies", tuple(float(w) for w in freqs))


@dataclass(frozen=True, eq=False)
class ModeTable:
    """The bath of :func:`build_system_bath_model`, mode by mode: ``h_b = sum_i
    frequencies[i] h_mode^(i)`` and ``B_a = sum_i (sum_k coefficients[a, i, k]
    operators[k])^(i)``, ``x^(i)`` acting on mode ``i`` alone. ``coefficients[a]``
    are channel ``a``'s drawn rows times ``coupling_scale / norm``, ``norm`` the
    spectral norm of their sum. Shapes ``(m,)``, ``(n, n)``, ``(k, n, n)``, ``(n_a, m, k)``.
    """

    frequencies: np.ndarray
    h_mode: np.ndarray
    operators: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        for a in (self.frequencies, self.h_mode, self.operators, self.coefficients):
            a.setflags(write=False)

    def gram(self) -> np.ndarray:
        """The Frobenius Gram ``tr(B_a^dag B_b)`` of the channels, from per-mode traces:
        ``n**(m-1) sum_i tr(b_ai^dag b_bi) + n**(m-2) sum_(i != j) tr(b_ai)^* tr(b_bj)``,
        ``b_ai`` channel ``a``'s term on mode ``i``."""
        n, m = len(self.h_mode), len(self.frequencies)
        flat, c = self.operators.reshape(len(self.operators), -1), self.coefficients
        same = np.einsum("aik,kl,bil->ab", c.conj(), flat.conj() @ flat.T, c)
        t = c @ self.operators.trace(axis1=1, axis2=2)  # tr(b_ai), (n_a, m)
        cross = np.outer(t.sum(1).conj(), t.sum(1)) - t.conj() @ t.T
        return n ** (m - 1) * same + n ** (m - 2.0) * cross


class _JointSpectrum(NamedTuple):
    """Eigenpairs ``H = V diag(E) V^dag`` of the joint Hamiltonian, ``energies`` ``(d,)`` and
    ``vectors`` ``(d, d)``, next to ``bath_ground``, the ground vector of ``h_b`` that every
    default-bath run starts from. It holds no reference to its model."""

    energies: np.ndarray
    vectors: np.ndarray
    bath_ground: np.ndarray

    def propagator(self, t: float) -> np.ndarray:
        """``exp(-i H t)``, a ``d x d`` array."""
        v = self.vectors
        return (v * np.exp(-1j * self.energies * float(t))) @ v.conj().T


@dataclass(frozen=True)
class SystemBathModel:
    """Finite-dimensional system-bath Hamiltonian in split form.

    ``couplings`` is a tuple of ``(S_a, B_a)`` pairs; every operator is
    checked Hermitian, dimensions must multiply out under the global cap,
    and the bath operators must be linearly independent (a dependent set
    silently merges decoherence channels, which the builder avoids by
    drawing enough bath modes).

    ``modes`` is the builder's :class:`ModeTable`, the frequencies, mode
    operators and coefficient rows ``h_b`` and the ``B_a`` are placed from,
    its shapes checked against the bath and the channels. A model with a
    table is checked on it: ``h_mode`` and the mode operators Hermitian, the
    frequencies and coefficients real, the Gram of the ``B_a`` from
    :meth:`ModeTable.gram`. Its ``h_b`` and ``B_a`` are deferred Operators,
    whose ``d_b x d_b`` matrices are placed only when read (by the joint path).
    ``words`` holds the Pauli word tables (word -> real coefficient) ``h_s`` and
    each ``S_a`` are the sums of, in that order; a model given none derives them
    from its matrices on its qubit register. A hand-built model has no mode table,
    is checked on its matrices, and is always evolved on its joint spectrum.
    """

    h_s: Operator
    h_b: Operator
    couplings: tuple[tuple[Operator, Operator], ...]
    cutoff: float
    modes: ModeTable | None = None
    words: tuple[dict[str, float], ...] = ()

    def __post_init__(self):
        table = self.modes
        if table is not None:
            m, (k, n, _) = len(table.frequencies), table.operators.shape
            shape = (len(self.couplings), m, k)
            if n**m != self.bath_dim or table.coefficients.shape != shape:
                raise ValueError("mode table does not match the bath and its channels")
        if not self.h_s.is_hermitian():
            raise ValueError("system Hamiltonian is not Hermitian")
        if not (self.h_b.is_hermitian() if table is None else
                np.isrealobj(table.frequencies) and Operator(table.h_mode).is_hermitian()):
            raise ValueError("bath Hamiltonian is not Hermitian")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.h_s.dim * self.h_b.dim > DIM_CAP:
            raise ValueError(
                f"total dimension {self.h_s.dim * self.h_b.dim} exceeds the cap {DIM_CAP}"
            )
        operators_hermitian = table is not None and all(
            Operator(x).is_hermitian() for x in table.operators)
        for k, (s, b) in enumerate(self.couplings):
            if s.dims != self.h_s.dims:
                raise ValueError(f"coupling {k}: system factor dims {s.dims} != {self.h_s.dims}")
            if b.dims != self.h_b.dims:
                raise ValueError(f"coupling {k}: bath factor dims {b.dims} != {self.h_b.dims}")
            if not s.is_hermitian() or not (
                    b.is_hermitian() if table is None else
                    operators_hermitian and not np.imag(table.coefficients[k]).any()):
                raise ValueError(f"coupling {k} is not Hermitian")
        if self.couplings:
            if table is None:
                flat = np.array([b.matrix.ravel() for _, b in self.couplings])
                gram = flat.conj() @ flat.T
            else:
                gram = table.gram()
            # numerical rank relative to the leading eigenvalue, so the
            # check is insensitive to the overall coupling strength
            evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            top = float(evals.max()) if evals.size else 0.0
            rank = int(np.sum(evals > 1e-10 * top)) if top > 0 else 0
            if rank < len(self.couplings):
                raise ValueError(
                    "bath coupling operators are linearly dependent; "
                    "draw more bath modes or fewer coupling channels"
                )
        if set(self.h_s.dims) != {2}:
            raise ValueError(f"system dims {self.h_s.dims} are not all 2 (a register of qubits)")
        if not self.words:
            system = [self.h_s.matrix] + [s.matrix for s, _ in self.couplings]
            object.__setattr__(self, "words", _pauli_tables(system, len(self.h_s.dims)))

    @property
    def system_dim(self) -> int:
        return self.h_s.dim

    @property
    def bath_dim(self) -> int:
        return self.h_b.dim

    @cached_property
    def _mode_hamiltonians(self) -> np.ndarray | None:
        """``h_ci = w_i h_mode + sum_a s_a(c) b_ai``, mode ``i``'s term of register state
        ``c``'s Hamiltonian (``s_a(c)``: the diagonal of ``S_a``), with ``E_c``, that of
        ``h_s``, added to mode 0: a ``(d_s m, n, n)`` stack, register state major. None unless
        the model has a mode table and every word with a nonzero coefficient is in {I, Z}^K
        (every register qubit conserved). Made once per model, on the first read."""
        if self.modes is None or any(
                c and set(w) - set("IZ") for table in self.words for w, c in table.items()):
            return None
        system = [self.h_s.matrix] + [s.matrix for s, _ in self.couplings]
        t, diag = self.modes, np.array([x.diagonal().real for x in system])
        h = t.frequencies[:, None, None] * t.h_mode + np.tensordot(
            diag[1:].T, np.tensordot(t.coefficients, t.operators, axes=1), axes=1)
        h[:, 0] += diag[0][:, None, None] * np.eye(len(t.h_mode))
        h = h.reshape(-1, *h.shape[-2:])
        h.setflags(write=False)
        return h

    @cached_property
    def _joint_spectrum(self) -> _JointSpectrum:
        """The joint path's spectrum: one ``eigh`` of the ``d x d`` Hamiltonian, made once per
        model, on the first read, and shared by every run, cycle and truncation error of it."""
        w, v = np.linalg.eigh(hamiltonian_matrix(self))
        spectrum = _JointSpectrum(w, v, bath_ground_vector(self))
        for a in spectrum:
            a.setflags(write=False)
        return spectrum


def total_hamiltonian(model: SystemBathModel) -> Operator:
    """Assemble the full Hamiltonian on the joint system-bath space."""
    return Operator(hamiltonian_matrix(model), model.h_s.dims + model.h_b.dims)


def hamiltonian_matrix(model: SystemBathModel) -> np.ndarray:
    """The ``d x d`` array of :func:`total_hamiltonian`, placed from the split form with
    no Kronecker products."""
    d_s, d_b = model.system_dim, model.bath_dim
    h = np.zeros((d_s, d_b, d_s, d_b), dtype=complex)
    np.einsum("iaja->ija", h)[...] += model.h_s.matrix[..., None]  # s (x) 1 on the bath diagonal
    np.einsum("iaib->iab", h)[...] += model.h_b.matrix  # 1 (x) h_b on the system diagonal
    for s, b in model.couplings:  # S_a is a Pauli sum: add s_ij B_a at its nonzero s_ij only
        for i, j in zip(*np.nonzero(s.matrix)):
            h[i, :, j] += s.matrix[i, j] * b.matrix
    return h.reshape(d_s * d_b, -1)


def bath_ground_vector(model: SystemBathModel) -> np.ndarray:
    """Ground-state vector of the bath Hamiltonian, its lowest eigenvector: for a
    diagonal ``h_b`` (both bath kinds) with one smallest entry, the unit vector there."""
    h, e = model.h_b.matrix, model.h_b.matrix.diagonal().real
    if np.count_nonzero(h) > np.count_nonzero(e) or np.count_nonzero(e == e.min()) > 1:
        return np.linalg.eigh(h)[1][:, 0]
    return (np.arange(len(h)) == np.argmin(e)).astype(complex)


def coupling_tables(n_qubits: int, kind: str) -> list[dict[str, complex]]:
    """System side of each coupling channel of a flavour, as a Pauli word table.

    Channels come site by site, then letter by letter, then (``total``)
    in ``IXYZ`` word order; the builder pairs its random
    bath operators with the channels in this order.
    """
    def site(letter: str, i: int) -> str:
        return "".join(letter if j == i else "I" for j in range(n_qubits))

    if kind == "dephasing":
        return [{site("Z", i): 1.0} for i in range(n_qubits)]
    if kind == "linear-independent":
        return [{site(letter, i): 1.0} for i in range(n_qubits) for letter in "XYZ"]
    if kind == "linear-collective":
        return [{site(letter, i): 1.0 for i in range(n_qubits)} for letter in "XYZ"]
    if kind == "total":
        return [{w: 1.0} for w in _all_words(n_qubits)[1:]]
    raise ValueError(f"unknown coupling kind {kind!r}; expected one of {COUPLING_KINDS}")


def _mode(bath: BathSpec) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """One bath mode: its Hamiltonian per unit frequency and its coupling operators.

    A spin precesses under ``sigma_z/2`` and couples through ``sigma_x``
    and ``sigma_y``. An oscillator cut off at ``boson_truncation`` Fock
    states has the number operator and couples through ``a + a^dag``.
    All are complex, so every bath operator is drawn and normalized in
    complex arithmetic.
    """
    if bath.kind == "spin-bath":
        return 0.5 * PAULI_MATRICES["Z"], (PAULI_MATRICES["X"], PAULI_MATRICES["Y"])
    n_levels = bath.boson_truncation
    lower = np.diag(np.sqrt(np.arange(1, n_levels)), 1).astype(complex)
    return np.diag(np.arange(n_levels)).astype(complex), (lower + lower.T,)


def bath_capacity_problem(
    bath: BathSpec, n_qubits: int, coupling: str
) -> tuple[str, str] | None:
    """Why ``bath`` cannot carry the ``coupling`` channels, or None if it can.

    The answer is the config field to blame and a message. Boson baths
    take only ``dephasing``. Each channel needs its own bath operator,
    and the channels' operators are independent only if the modes offer
    enough coupling directions: two per spin, one per boson.
    """
    if bath.kind == "boson-mode" and coupling != "dephasing":
        return "coupling", "boson-mode baths support only 'dephasing'"
    n_channels = len(coupling_tables(n_qubits, coupling))
    directions = len(_mode(bath)[1])
    needed = -(-n_channels // directions)
    if bath.n_modes < needed:
        return "bath.n_modes", (f"{n_channels} coupling channels need at least {needed} "
                                f"bath modes, got {bath.n_modes}")
    return None


def build_system_bath_model(
    n_qubits: int,
    bath: BathSpec,
    coupling: str = "dephasing",
    h_s: dict[str, float] | None = None,
) -> SystemBathModel:
    """Qubit register coupled to a bath of spins or of truncated oscillators.

    The bath Hamiltonian is ``sum_i w_i h_mode^(i)`` over the jittered
    mode frequencies, with ``h_mode`` the mode Hamiltonian of the bath
    kind: ``sigma_z/2`` for a spin, ``a^dag a`` for an oscillator. Each
    system coupling operator (chosen by ``coupling``, see below) is
    paired with an independent random Hermitian bath operator drawn from
    the span of every mode's coupling operators (``sigma_x``, ``sigma_y``
    or ``a + a^dag``), site by site, and normalized to spectral norm
    ``bath.coupling_scale``. ``h_s`` is a Pauli word table, empty by
    default. The model keeps the word tables of ``h_s`` and the system
    side of each coupling, and the mode table; ``h_b`` and each ``B_a``
    are deferred, each mode's terms written into the bath matrix by index,
    with no Kronecker products, on the first read of its ``matrix``. The
    bath operators do not commute with the bath Hamiltonian, so the joint
    dynamics genuinely entangles the register with the bath.

    Coupling flavours (boson baths take only ``dephasing``):

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
    tables = coupling_tables(n_qubits, coupling)
    problem = bath_capacity_problem(bath, n_qubits, coupling)
    if problem is not None:
        raise ValueError(problem[1])
    words = (dict(h_s or {}), *tables)

    h_mode, mode_ops = _mode(bath)
    m = bath.n_modes
    bath_dims = (len(h_mode),) * m
    h_b = Operator.deferred(partial(_placed, [w * h_mode for w in bath.mode_frequencies]),
                            bath_dims)
    # every channel's per-mode rows from one draw, the stream of one draw per channel
    rng = np.random.default_rng(np.random.SeedSequence(entropy=bath.seed, spawn_key=(1,)))
    coeffs = rng.standard_normal((len(tables), m, len(mode_ops)))
    terms = np.tensordot(coeffs, mode_ops, axes=1)  # (channels, modes, n, n)
    # extreme eigenvalues of each b: sums of those of its commuting per-mode terms
    ends = np.linalg.eigvalsh(terms).sum(1)
    norms = np.maximum(ends[:, -1], -ends[:, 0]).tolist()
    if 0.0 in norms:
        raise ValueError("degenerate random draw for a bath coupling operator")
    system = _pauli_sums(words, n_qubits)
    dims = (2,) * n_qubits
    couplings = tuple(
        (Operator(s, dims),
         Operator.deferred(partial(_placed, bath.coupling_scale * t / nrm), bath_dims))
        for s, t, nrm in zip(system[1:], terms, norms))
    rows = coeffs * (bath.coupling_scale / np.array(norms))[:, None, None]
    modes = ModeTable(np.array(bath.mode_frequencies), h_mode, np.array(mode_ops), rows)
    return SystemBathModel(h_s=Operator(system[0], dims), h_b=h_b, couplings=couplings,
                           cutoff=bath.cutoff, modes=modes, words=words)


def _placed(terms: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_i terms[i]`` with ``terms[i]`` acting on mode ``i`` alone, added in mode order
    into the bath matrix with no Kronecker products: mode ``i``'s entries, the rows and
    columns that agree off mode ``i``, are a diagonal view of the matrix."""
    n, m = len(terms[0]), len(terms)
    out = np.zeros((n**m, n**m), dtype=complex)
    for i, term in enumerate(terms):
        blocks = out.reshape(n**i, n, n ** (m - 1 - i), n**i, n, n ** (m - 1 - i))
        np.einsum("aibajb->abij", blocks)[...] += term
    return out

