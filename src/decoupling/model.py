"""Open-system models: a register of qubits coupled to a small bath.

The total Hamiltonian always has the split form

    H = H_S (x) 1  +  1 (x) H_B  +  sum_a  S_a (x) B_a,

with Hermitian system operators S_a and Hermitian bath operators B_a.
A :class:`SystemBathModel` is exactly that: Pauli word tables for ``H_S`` and
each ``S_a`` on the qubit register, and the bath as two stacks of single-mode
terms, one of ``H_B`` and one of each ``B_a``. The model is checked on them and
holds no dense operator: :func:`hamiltonian_matrix` places the joint path's
``d x d`` Hamiltonian from them, and the mode-by-mode product path reads the
same terms and never places the bath. One builder,
:func:`build_system_bath_model`, makes both bath kinds: a spin bath (each
mode is a qubit precessing at its own frequency) and a truncated bosonic
bath for pure dephasing differ only in the single-mode Hamiltonian and the
mode operators the couplings draw on. An unstructured bath is one mode.

Mode frequencies are laid out on a uniform grid up to the cutoff and then
jittered, so spectra are generic but reproducible from a seed. The cutoff
sets the fastest bath timescale: control is only expected to help when a
cycle completes in a fraction of ``1/cutoff``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .operators import DIM_CAP, Operator, _integer, _real
from .groups import PAULI_MATRICES, _all_words, _check_tables, _code, _parities, _pauli_sums


BATH_KINDS = ("spin-bath", "boson-mode")
COUPLING_KINDS = ("dephasing", "linear-independent", "linear-collective", "total")


#: The smallest coupling scale: below it its square, and with it the Gram of the
#: couplings, is subnormal, and their independence can no longer be told.
MIN_COUPLING_SCALE = float(np.sqrt(np.finfo(float).tiny))


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

    It is the one check of a bath's fields, each message led by the field's
    config path, ``bath.<field>``, all made before any draw: a known kind, a
    truncation for boson baths only, integer sizes and seed at their minimum or
    above, stored as ``int``, a bath dimension ``n_levels**n_modes`` within
    ``DIM_CAP``, and a finite positive cutoff and coupling scale, stored as
    ``float``, the coupling scale at least :data:`MIN_COUPLING_SCALE`.
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
            raise ValueError(f"bath.kind: unknown bath kind {self.kind!r}; "
                             f"expected one of {BATH_KINDS}")
        boson = self.kind == "boson-mode"
        if boson != (self.boson_truncation is not None):
            raise ValueError("bath.boson_truncation: " + (
                "required for boson-mode baths" if boson else "only applies to boson-mode baths"))
        for name, minimum in {"n_modes": 1, **({"boson_truncation": 2} if boson else {}),
                              "seed": 0}.items():
            object.__setattr__(self, name, _integer(f"bath.{name}", getattr(self, name), minimum))
        levels = self.boson_truncation or 2
        # the exponent stops where the power already exceeds the cap, so a huge
        # n_modes never becomes a huge integer
        if levels ** min(self.n_modes, DIM_CAP.bit_length()) > DIM_CAP:
            raise ValueError(f"bath.n_modes: bath dimension {levels}**{self.n_modes} "
                             f"exceeds the cap {DIM_CAP}")
        for name in ("cutoff", "coupling_scale"):
            value = _real(f"bath.{name}", getattr(self, name), positive=True)
            object.__setattr__(self, name, value)
        if self.coupling_scale < MIN_COUPLING_SCALE:
            raise ValueError(f"bath.coupling_scale: must be at least {MIN_COUPLING_SCALE!r}, "
                             "where its square is still a normal double, "
                             f"got {self.coupling_scale!r}")
        rng = np.random.default_rng(self.seed)
        spacing = self.cutoff / self.n_modes
        base = spacing * np.arange(1, self.n_modes + 1)
        jitter = rng.uniform(-0.1 * spacing, 0.1 * spacing, size=self.n_modes)
        freqs = np.clip(base + jitter, 0.5 * spacing, self.cutoff)
        object.__setattr__(self, "mode_frequencies", tuple(float(w) for w in freqs))


def coupling_gram(couplings: np.ndarray) -> np.ndarray:
    """The Frobenius Gram ``tr(B_a^dag B_b)`` of the channels of a ``(n_a, m, n, n)``
    stack, from per-mode traces: ``n**(m-1) sum_i tr(b_ai^dag b_bi) + n**(m-2)
    sum_(i != j) tr(b_ai)^* tr(b_bj)``, ``b_ai = couplings[a, i]``."""
    n_a, m, n, _ = couplings.shape
    flat = couplings.reshape(n_a, m, -1)
    same = np.einsum("aix,bix->ab", flat.conj(), flat)
    t = couplings.trace(axis1=2, axis2=3)  # tr(b_ai), (n_a, m)
    cross = np.outer(t.sum(1).conj(), t.sum(1)) - t.conj() @ t.T
    return n ** (m - 1) * same + n ** (m - 2.0) * cross


def _named(words: Sequence[dict[str, float]]):
    """Each word table with its name: ``h_s`` first, then ``coupling a`` for channel ``a``."""
    return zip(("h_s", *(f"coupling {a}" for a in range(len(words) - 1))), words)


def run_path(words: Sequence[dict[str, float]], rho_b0=None) -> tuple[str, str]:
    """``(path, reason)``: the path a run of the model of word tables ``words`` takes, and why.

    ``"modes"``, the product path, when every word with a nonzero coefficient is in {I, Z}^K
    (every register qubit conserved) and the bath starts in its ground state (``rho_b0`` is
    None); ``"joint"`` otherwise, its reason naming the first word with an X or Y letter and
    its table, or else that ``rho_b0`` was given.
    """
    for label, table in _named(words):
        for w, c in table.items():
            if c and set(w) - set("IZ"):
                return "joint", f"{label} word {w!r} has an X or Y letter"
    if rho_b0 is not None:
        return "joint", "rho_b0 was given"
    return "modes", "the register is conserved: every word is in {I, Z}^K"


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


@dataclass(frozen=True, eq=False)
class SystemBathModel:
    """A register of ``K`` qubits coupled to a finite bath, as its tables: ``words``, the
    Pauli word tables (word -> real coefficient) of ``h_s`` and of each channel's ``S_a``,
    in that order, and the bath as two stacks of single-mode terms, ``h_b = sum_i
    hamiltonian[i]^(i)`` and ``B_a = sum_i couplings[a, i]^(i)``, ``x^(i)`` acting on mode
    ``i`` alone, of shapes ``(m, n, n)`` and ``(n_a, m, n, n)``, each a read-only complex
    copy of the array given. An unstructured bath is one mode, ``SystemBathModel(words,
    h_b[None], B[:, None])``.

    It is checked on its tables: stacks of agreeing shapes, ``K``-letter words with finite
    real coefficients, one word table per channel of the stacks (a failing table is named),
    Hermitian terms of ``h_b`` and of each ``B_a`` (a failing channel is named), the
    dimension cap, and independent ``B_a`` by :func:`coupling_gram` (a dependent set
    silently merges decoherence channels). It caches no dense operator, only the joint
    spectrum and the per-mode arrays the two paths derive from the tables.
    """

    words: tuple[dict[str, float], ...]
    hamiltonian: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        for name in ("hamiltonian", "couplings"):
            a = np.array(getattr(self, name), dtype=complex)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        h, b = self.hamiltonian, self.couplings
        n_channels = len(b)
        if h.ndim != 3 or h.shape[1] != h.shape[2] or b.shape[1:] != h.shape:
            raise ValueError(f"the mode stacks of shapes {h.shape}, {b.shape} do not agree")
        if not any(self.words):
            raise ValueError("the word tables hold no word to size the register")
        if len(self.words) != 1 + n_channels:
            raise ValueError(f"coupling {min(len(self.words) - 1, n_channels)}: the couplings "
                             f"have {n_channels} channels, the word tables {len(self.words) - 1}")
        _check_tables(self.words, self.n_qubits, [label for label, _ in _named(self.words)],
                      real=True)
        if not all(Operator(x).is_hermitian() for x in h):
            raise ValueError("bath Hamiltonian is not Hermitian")
        if self.system_dim * self.bath_dim > DIM_CAP:
            raise ValueError(
                f"total dimension {self.system_dim * self.bath_dim} exceeds the cap {DIM_CAP}"
            )
        for a, terms in enumerate(b):
            if not all(Operator(x).is_hermitian() for x in terms):
                raise ValueError(f"coupling {a} is not Hermitian")
        if n_channels:
            gram = coupling_gram(b)
            # numerical rank relative to the leading eigenvalue, so the
            # check is insensitive to the overall coupling strength
            evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
            top = float(evals.max()) if evals.size else 0.0
            rank = int(np.sum(evals > 1e-10 * top)) if top > 0 else 0
            if rank < n_channels:
                raise ValueError(
                    "bath coupling operators are linearly dependent; "
                    "draw more bath modes or fewer coupling channels"
                )

    @property
    def n_qubits(self) -> int:
        return next(len(w) for words in self.words for w in words)

    @property
    def system_dims(self) -> tuple[int, ...]:
        return (2,) * self.n_qubits

    @property
    def bath_dims(self) -> tuple[int, ...]:
        m, n, _ = self.hamiltonian.shape
        return (n,) * m

    @property
    def system_dim(self) -> int:
        return 2**self.n_qubits

    @property
    def bath_dim(self) -> int:
        m, n, _ = self.hamiltonian.shape
        return n**m

    @cached_property
    def _mode_ground(self) -> np.ndarray:
        """Each mode's ground vector, the lowest eigenvector of its term of ``h_b``, from one
        ``eigh`` of the ``hamiltonian`` stack: a read-only ``(m, n)`` array. The bath's ground
        state is their product. A diagonal term gives the exact unit vector."""
        g = np.ascontiguousarray(np.linalg.eigh(self.hamiltonian)[1][..., 0])
        g.setflags(write=False)
        return g

    @cached_property
    def _mode_hamiltonians(self) -> np.ndarray | None:
        """``h_ci = hamiltonian[i] + sum_a s_a(c) couplings[a, i]``, mode ``i``'s term of
        register state ``c``'s Hamiltonian (``s_a(c)``: the diagonal of ``S_a``), with
        ``E_c``, that of ``h_s``, added to mode 0: a ``(d_s m, n, n)`` stack, register
        state major. None unless every word with a nonzero coefficient is in {I, Z}^K
        (every register qubit conserved: :func:`run_path`). Made once per model, on the first
        read, from the tables."""
        if run_path(self.words)[0] != "modes":
            return None
        n = self.n_qubits
        diag = np.zeros((len(self.words), self.system_dim))  # the diagonals of the sums,
        for row, words in zip(diag, self.words):  # added in ``_pauli_sums``' word order
            for w in sorted(words):
                if set(w) <= set("IZ"):  # a word with X or Y letters has no diagonal entry
                    row += words[w] * (1 - 2 * _parities(_code(w), n))
        h = self.hamiltonian + np.tensordot(diag[1:].T, self.couplings, axes=1)
        h[:, 0] += diag[0][:, None, None] * np.eye(self.hamiltonian.shape[-1])
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
    return Operator(hamiltonian_matrix(model), model.system_dims + model.bath_dims)


def hamiltonian_matrix(model: SystemBathModel) -> np.ndarray:
    """The ``d x d`` array of :func:`total_hamiltonian`, placed from the split form with
    no Kronecker products: ``h_s`` and each ``S_a`` by ``_pauli_sums``, ``h_b`` and each
    ``B_a`` from their stacks of mode terms by :func:`_placed`."""
    d_s, d_b = model.system_dim, model.bath_dim
    h_s, *system = _pauli_sums(model.words, model.n_qubits)
    h = np.zeros((d_s, d_b, d_s, d_b), dtype=complex)
    np.einsum("iaja->ija", h)[...] += h_s[..., None]  # h_s (x) 1 on the bath diagonal
    np.einsum("iaib->iab", h)[...] += _placed(model.hamiltonian)  # 1 (x) h_b on the system diagonal
    for s, terms in zip(system, model.couplings):
        b = _placed(terms)
        for i, j in zip(*np.nonzero(s)):  # S_a is a Pauli sum: add s_ij B_a at its nonzero s_ij
            h[i, :, j] += s[i, j] * b
    return h.reshape(d_s * d_b, -1)


def bath_ground_vector(model: SystemBathModel) -> np.ndarray:
    """Ground-state vector of the bath Hamiltonian: the Kronecker product of the modes'
    ground vectors, mode 0 major."""
    vector, *rest = model._mode_ground
    for g in rest:
        vector = (vector[:, None] * g).ravel()
    return vector


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
    raise ValueError(f"coupling: unknown coupling kind {kind!r}; expected one of {COUPLING_KINDS}")


def _mode(bath: BathSpec) -> tuple[np.ndarray, np.ndarray]:
    """One bath mode: its Hamiltonian per unit frequency and the stack of its coupling
    operators.

    A spin precesses under ``sigma_z/2`` and couples through ``sigma_x``
    and ``sigma_y``. An oscillator cut off at ``boson_truncation`` Fock
    states has the number operator and couples through ``a + a^dag``.
    All are complex, so every bath operator is drawn and normalized in
    complex arithmetic.
    """
    if bath.kind == "spin-bath":
        return 0.5 * PAULI_MATRICES["Z"], np.array([PAULI_MATRICES["X"], PAULI_MATRICES["Y"]])
    n_levels = bath.boson_truncation
    lower = np.diag(np.sqrt(np.arange(1, n_levels)), 1).astype(complex)
    return np.diag(np.arange(n_levels)).astype(complex), (lower + lower.T)[None]


def _check_capacity(bath: BathSpec, n_qubits: int, coupling: str):
    """Check that ``bath`` can carry the ``coupling`` channels; a ``ValueError`` is led by
    the field to blame, ``coupling`` or ``bath.n_modes``.

    ``coupling`` is a known kind. Boson baths take only ``dephasing``. Each channel needs
    its own bath operator, and the channels' operators are independent only if the modes
    offer enough coupling directions: two per spin, one per boson.
    """
    n_channels = len(coupling_tables(n_qubits, coupling))
    if bath.kind == "boson-mode" and coupling != "dephasing":
        raise ValueError("coupling: boson-mode baths support only 'dephasing'")
    directions = len(_mode(bath)[1])
    needed = -(-n_channels // directions)
    if bath.n_modes < needed:
        raise ValueError(f"bath.n_modes: {n_channels} coupling channels need at least {needed} "
                         f"bath modes, got {bath.n_modes}")


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
    default. The model is the word tables of ``h_s`` and the system side
    of each coupling, and the bath's two stacks of the terms ``w_i h_mode`` and,
    per channel, ``sum_k r_ik op_k``, the draws ``r`` already scaled to the
    norm. The bath operators do not commute with the bath
    Hamiltonian, so the joint dynamics genuinely entangles the register
    with the bath.

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
    tables = coupling_tables(_integer("n_qubits", n_qubits, 1), coupling)
    _check_capacity(bath, n_qubits, coupling)
    h_mode, ops = _mode(bath)
    # every channel's per-mode draws from one draw, the stream of one draw per channel
    rng = np.random.default_rng(np.random.SeedSequence(entropy=bath.seed, spawn_key=(1,)))
    draws = rng.standard_normal((len(tables), bath.n_modes, len(ops)))
    # extreme eigenvalues of each b: sums of those of its commuting per-mode terms
    ends = np.linalg.eigvalsh(np.tensordot(draws, ops, axes=1)).sum(1)
    norms = np.maximum(ends[:, -1], -ends[:, 0])
    if not norms.all():
        raise ValueError("degenerate random draw for a bath coupling operator")
    rows = draws * (bath.coupling_scale / norms)[:, None, None]
    return SystemBathModel((dict(h_s or {}), *tables),
                           np.array(bath.mode_frequencies)[:, None, None] * h_mode,
                           np.tensordot(rows, ops, axes=1))


def _placed(terms: np.ndarray) -> np.ndarray:
    """``sum_i terms[i]`` with ``terms[i]`` acting on mode ``i`` alone, added in mode order
    into the bath matrix with no Kronecker products: mode ``i``'s entries, the rows and
    columns that agree off mode ``i``, are a diagonal view of the matrix."""
    n, m = len(terms[0]), len(terms)
    out = np.zeros((n**m, n**m), dtype=complex)
    for i, term in enumerate(terms):
        blocks = out.reshape(n**i, n, n ** (m - 1 - i), n**i, n, n ** (m - 1 - i))
        np.einsum("aibajb->abij", blocks)[...] += term
    return out

