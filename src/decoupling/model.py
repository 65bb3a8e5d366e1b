"""Open-system models: a register of qubits coupled to a small bath.

The total Hamiltonian always has the split form

    H = H_S (x) 1  +  1 (x) H_B  +  sum_a  S_a (x) B_a,

with Hermitian system operators S_a and Hermitian bath operators B_a.
Everything downstream (toggling frames, averaging, propagation) consumes
a :class:`SystemBathModel` holding exactly these pieces, so the bath can
be anything finite-dimensional. Two concrete builders are provided: a
spin bath (each mode is a qubit precessing at its own frequency) and a
truncated bosonic bath for pure dephasing.

Mode frequencies are laid out on a uniform grid up to the cutoff and then
jittered, so spectra are generic but reproducible from a seed. The cutoff
sets the fastest bath timescale: control is only expected to help when a
cycle completes in a fraction of ``1/cutoff``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .operators import DIM_CAP, Operator, identity, tensor, tensor_all, zero
from .groups import PAULI_LETTERS, PAULI_MATRICES, pauli_sum


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


@dataclass(frozen=True)
class SystemBathModel:
    """Finite-dimensional system-bath Hamiltonian in split form.

    ``couplings`` is a tuple of ``(S_a, B_a)`` pairs; every operator is
    checked Hermitian, dimensions must multiply out under the global cap,
    and the bath operators must be linearly independent (a dependent set
    silently merges decoherence channels, which the builders avoid by
    drawing enough bath modes).
    """

    h_s: Operator
    h_b: Operator
    couplings: tuple[tuple[Operator, Operator], ...]
    cutoff: float

    def __post_init__(self):
        if not self.h_s.is_hermitian():
            raise ValueError("system Hamiltonian is not Hermitian")
        if not self.h_b.is_hermitian():
            raise ValueError("bath Hamiltonian is not Hermitian")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.h_s.dim * self.h_b.dim > DIM_CAP:
            raise ValueError(
                f"total dimension {self.h_s.dim * self.h_b.dim} exceeds the cap {DIM_CAP}"
            )
        for k, (s, b) in enumerate(self.couplings):
            if s.dims != self.h_s.dims:
                raise ValueError(f"coupling {k}: system factor dims {s.dims} != {self.h_s.dims}")
            if b.dims != self.h_b.dims:
                raise ValueError(f"coupling {k}: bath factor dims {b.dims} != {self.h_b.dims}")
            if not s.is_hermitian() or not b.is_hermitian():
                raise ValueError(f"coupling {k} is not Hermitian")
        if self.couplings:
            gram = np.array(
                [
                    [np.vdot(a.matrix.ravel(), b.matrix.ravel()) for _, b in self.couplings]
                    for _, a in self.couplings
                ]
            )
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

    @property
    def system_dim(self) -> int:
        return self.h_s.dim

    @property
    def bath_dim(self) -> int:
        return self.h_b.dim

    @property
    def n_system_factors(self) -> int:
        return len(self.h_s.dims)


def total_hamiltonian(model: SystemBathModel) -> Operator:
    """Assemble the full Hamiltonian on the joint system-bath space."""
    h = tensor(model.h_s, identity(list(model.h_b.dims)))
    h = h + tensor(identity(list(model.h_s.dims)), model.h_b)
    for s, b in model.couplings:
        h = h + tensor(s, b)
    return h


def bath_ground_vector(model: SystemBathModel) -> np.ndarray:
    """Ground-state vector of the bath Hamiltonian, its lowest eigenvector."""
    return np.linalg.eigh(model.h_b.matrix)[1][:, 0]


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


def coupling_tables(n_qubits: int, kind: str) -> list[dict[str, complex]]:
    """System side of each coupling channel of a flavour, as a Pauli word table.

    Channels come site by site, then letter by letter, then (``total``)
    in ``itertools.product`` word order; the builders pair their random
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
        words = ("".join(w) for w in itertools.product(PAULI_LETTERS, repeat=n_qubits))
        return [{w: 1.0} for w in words if w != "I" * n_qubits]
    raise ValueError(f"unknown coupling kind {kind!r}; expected one of {COUPLING_KINDS}")


def build_spin_bath_model(
    n_qubits: int,
    bath: BathSpec,
    coupling: str = "dephasing",
    h_s: Operator | None = None,
) -> SystemBathModel:
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
    h_b = zero(list(bath_dims))
    for i, w in enumerate(bath.mode_frequencies):
        h_b = h_b + 0.5 * w * _site_operator(PAULI_MATRICES["Z"], i, m)
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
    return SystemBathModel(h_s=h_s, h_b=h_b, couplings=couplings, cutoff=bath.cutoff)


def build_boson_dephasing_model(
    n_qubits: int,
    bath: BathSpec,
    h_s: Operator | None = None,
) -> SystemBathModel:
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
    h_b = zero(list(bath_dims))
    for i, w in enumerate(bath.mode_frequencies):
        h_b = h_b + w * _site_operator(number, i, m, local_dim=n_levels)
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
    return SystemBathModel(h_s=h_s, h_b=h_b, couplings=couplings, cutoff=bath.cutoff)
