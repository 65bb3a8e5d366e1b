"""Stroboscopic propagation of controlled system-bath dynamics.

One control cycle is integrated exactly, then repeated. Every segment of
a cycle lasts the same time and its frame acts on the system factor
only, so the cycle propagator is a product of one free step
``W = exp(-i H delta_t)`` conjugated by the segment frames, the
schedule's group words in visiting order. A run takes one of two paths.

The product path takes a fully conserved register (every word of ``h_s``
and of each coupling's system factor in {I, Z}^K, read off the model's
word tables) whose bath starts in its ground state, the product of the
ground vectors of its modes, from the model's ``hamiltonian`` stack.
Register state ``c`` then sees ``H_c = E_c + sum_i h_ci``, a sum of
commuting single-mode terms, and the ground state is a product over modes,
so ``rho_cc'(t) = rho_cc'(0) prod_i <phi_i^c'(t)|phi_i^c(t)>`` with
``phi_i^c`` mode ``i``'s vector in state ``c``. A frame maps ``c`` to
``c ^ x`` (``x``: the X/Y letters of its word), a flip of the register
axes. Each mode's cycle in each state is an ``n x n`` matrix, its steps
exponentiated in extended precision, and the snapshots are its powers; a
free run takes the modes' closed form. No joint ``eigh`` is made, and
neither the ``d x d`` joint matrix nor any ``d_b x d_b`` bath matrix is
built: ``h_b`` and the ``B_a`` are never placed, dims come from the model's
tables, and the per-mode Hamiltonians ``h_ci`` are made once per model.

Every other run (a register not fully conserved, or an explicit ``rho_b0``,
the one way to put a conserved register on it) takes the joint path, the
product path's oracle. ``W`` comes from one ``eigh`` of the ``d x d`` joint
Hamiltonian, which the model makes on first use and keeps, together with
the bath ground vector that default runs start from, so the controlled
run, the free run and every point of a sweep share it. A frame acts on
``W`` as the signed flip of its register axes
(:func:`~decoupling.groups.conjugate_word`), never as a matrix.
A :class:`SimulationRun` decides its path once, when it is made, by
:func:`~decoupling.model.run_path`, which also says why; its trajectory
records it as ``path``: ``"modes"`` or ``"joint"``.

Pauli words commute up to sign, so when the second half of a visiting
order is the first half multiplied word by word by one word ``h`` (a
coset of a subgroup), the second half's product is the first half's
conjugated by ``h``. Every named group in its listed order, plain or
palindromic, has that structure at each halving, so its cycle of ``n``
segments costs ``log2 n`` batched products rather than ``n - 1``.
The free run, the trivial group's, has no pulses and needs no cycle: its
snapshots are ``V (exp(-i E t_k) * (V^dag psi_0))`` in closed form.

On the joint path the state is propagated as ``d x r`` columns
``sqrt(p_i q_k) psi_i (x) phi_k``, the product of the eigen-ensembles of
the initial system and bath states. The default states are pure, so
``r = 1``; an explicit mixed state takes the same code path with more
columns. Observation happens at cycle boundaries only: that is where the
control frame returns to the physical frame and where average-Hamiltonian
statements hold. A run's snapshots, stepped or not, are one array, bounded
by :class:`SimulationRun`, and one stacked ``M M^dag`` reduces them to an
``(n + 1, d_s, d_s)`` stack; each snapshot observable, and the ideal
reference of fidelity, is computed on that stack on its first read.

Two decay diagnostics are tracked. Fidelity is measured against an ideal
reference trajectory: the system evolving alone under its effective
Hamiltonian, the system Hamiltonian averaged over the schedule's group, read
off the word table of ``h_s`` as its words that commute with every generator
(for the free run's trivial group, all of them), so it starts at one and
falls only through system-bath correlation. Decoherence rates are fitted
to the l1 coherence, whose exponential-looking decay is the directly
observable signature of dephasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .operators import DIM_CAP, NUMERIC_TOL, Operator, as_matrices
from .model import SystemBathModel, run_path
from .sequence import CycleSchedule, _check_sampling
from .groups import _averaged, _conjugate, _flips, _label, pauli_sum

#: Density-matrix eigenvalues at or below this are eigensolver round-off
#: of exact zeros: they are left out of ensembles and square roots.
_ROUNDOFF_EIGENVALUE = 1e-13

#: The most numbers a run may hold at its peak, its snapshots and what they are
#: reduced with: what one ``d x d`` array holds at the dimension cap.
SNAPSHOT_CAP = DIM_CAP**2


class SnapshotBoundError(ValueError):
    """A run that would hold more than :data:`SNAPSHOT_CAP` numbers at its peak."""


def _check_density(rho: Operator, what: str) -> np.ndarray:
    """Checks ``rho`` is a density matrix (Hermitian, trace 1, no eigenvalue below -1e-10) by
    one ``eigh``; returns its ensemble, columns ``sqrt(p_k) psi_k`` above round-off."""
    if not rho.is_hermitian():
        raise ValueError(f"{what}: not Hermitian")
    if abs(rho.trace() - 1.0) > 1e-10 * max(1.0, abs(rho.trace())):
        raise ValueError(f"{what}: trace is not 1")
    p, vecs = np.linalg.eigh(rho.matrix)
    if float(p.min()) < -1e-10:
        raise ValueError(f"{what}: has a negative eigenvalue ({p.min():.3e})")
    keep = p > _ROUNDOFF_EIGENVALUE
    return vecs[:, keep] * np.sqrt(p[keep])


def _sqrt_density(p: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Square roots of density matrices from their eigenpairs, round-off zeroed."""
    root = np.sqrt(np.where(p > _ROUNDOFF_EIGENVALUE, p, 0.0))
    return (vecs * root[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def state_fidelity(a: Operator | np.ndarray, b: Operator | np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity ``(tr sqrt(sqrt(a) b sqrt(a)))**2``, one value per pair.

    ``a`` and ``b`` are density Operators or stacks ``(n, d, d)`` of
    density matrices that broadcast against each other; two Operators
    give a float. The trace is the sum of the singular values of
    ``sqrt(a) sqrt(b)``, with eigenvalues at or below round-off level
    zeroed before each square root: the square root of a round-off zero
    is of order 1e-8, and would carry into the fidelity of rank-deficient
    states. For a rank-one ``a = |u><u|`` this is ``<u|b|u>``. The states
    are taken as given, not renormalized: the fidelity is of ``a`` and
    ``b``, not of ``a / tr a`` and ``b / tr b``. Values are clipped to
    ``[0, 1]``.
    """
    if isinstance(a, Operator) and isinstance(b, Operator) and a.dims != b.dims:
        raise ValueError("states act on different dims")
    x, y = as_matrices(a), as_matrices(b)
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError("states act on different dims")
    sqrt_a, sqrt_b = (_sqrt_density(*np.linalg.eigh(m)) for m in (x, y))
    f = np.clip(np.sum(np.linalg.svd(sqrt_a @ sqrt_b, compute_uv=False), axis=-1) ** 2, 0.0, 1.0)
    return f if f.ndim else float(f)


def _reference_fidelity(states: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """:func:`state_fidelity` of each state ``rho`` against its reference ``roots roots^dag``.

    A pure reference, one column ``y``, gives ``<y|rho|y>`` exactly, with no
    eigendecomposition; a mixed one takes :func:`state_fidelity`. As there,
    the fidelity is of ``rho``, not of ``rho / tr rho``, clipped to ``[0, 1]``.
    """
    if roots.shape[-1] > 1:
        return state_fidelity(states, roots @ roots.conj().swapaxes(-1, -2))
    y = roots[..., 0]
    return np.clip(np.einsum("...i,...ij,...j->...", y.conj(), states, y).real, 0.0, 1.0)


def coherence_l1(rho: Operator | np.ndarray) -> float | np.ndarray:
    """Sum of absolute off-diagonal entries, one value per density matrix.

    ``rho`` is an Operator (giving a float) or a stack ``(n, d, d)``.
    """
    m = np.abs(as_matrices(rho))
    out = m.sum(axis=(-2, -1)) - np.trace(m, axis1=-2, axis2=-1)
    return out if out.ndim else float(out)


def _spectral_evolution(energies: np.ndarray, vectors: np.ndarray, psi0: np.ndarray, times):
    """The closed form ``V_c exp(-i E_c t) V_c^dag psi0`` at each ``t`` of ``times``, ``psi0``
    an ``(n_c, D, r)`` stack: an ``(n, n_c, D, r)`` stack from one product. The times are
    uniform, so ``exp(-i E t_(qb+j)) = exp(-i E t_(qb)) exp(-i E (t_j - t_0))``,
    ``b = isqrt(n)``: each energy takes ``b + ceil(n / b)`` exponentials rather than ``n``."""
    coeffs = vectors.conj().swapaxes(-1, -2) @ psi0
    b, e = math.isqrt(len(times)), -1j * energies[..., None]
    phases = np.exp(e * times[::b])[..., None] * np.exp(e * (times[:b] - times[0]))[..., None, :]
    phased = phases.reshape(*energies.shape, -1)[..., :len(times), None] * coeffs[:, :, None]
    out = vectors @ phased.reshape(*coeffs.shape[:2], -1)
    return np.moveaxis(out.reshape(phased.shape), 2, 0)


def _matching_model(model: SystemBathModel, schedule: CycleSchedule) -> SystemBathModel:
    """``model``, once ``schedule`` is checked to act on its system."""
    if schedule.dims != model.system_dims:
        raise ValueError(f"schedule: acts on dims {schedule.dims}, "
                         f"model system has {model.system_dims}")
    return model


def cycle_propagator(model: SystemBathModel, schedule: CycleSchedule) -> Operator:
    """Exact joint propagator of one control cycle, as a dense Operator.

    Segment ``j`` evolves under ``(g_j (x) 1)^dag W (g_j (x) 1)`` with the
    same free step ``W = exp(-i H delta_t)`` for every segment, from the
    model's joint spectrum (one ``eigh`` per model, whatever the schedule),
    multiplied by :func:`_cycle_product`.
    """
    return Operator(_cycle_blocks(model, schedule), model.system_dims + model.bath_dims)


def _cycle_blocks(model: SystemBathModel, schedule: CycleSchedule) -> np.ndarray:
    """The ``d x d`` matrix of :func:`cycle_propagator`: each frame acts by
    :func:`~decoupling.groups.conjugate_word`."""
    _matching_model(model, schedule)
    n = schedule.group.n_qubits
    return _cycle_product(model._joint_spectrum.propagator(schedule.delta_t),
                          lambda code, x: _conjugate(code, n, x), schedule.codes)


def _cycle_product(w: np.ndarray, conj, codes: np.ndarray) -> np.ndarray:
    """``P(codes)``, the product of the segments' toggled free steps ``conj(code, w)``,
    later segments to the left; ``conj(code, x)`` conjugates ``x`` by the frame of the
    word of ``code`` (see :mod:`decoupling.groups`).

    The visits are halved into ``A`` and ``B``. When ``B`` is ``A``
    multiplied word by word by one word ``h`` (one XOR of codes, phases
    dropped: they cancel in each conjugation), ``P(A + B) = conj(h, P(A))
    P(A)``: one batched product and one frame action. Otherwise ``P(A + B)
    = P(B) P(A)``, both halves recursed. A named group's cycle, palindromic
    or not, halves by cosets all the way down: ``log2 n`` products for ``n``
    segments, against ``n - 1`` for an order without that structure.
    """
    if len(codes) == 1:
        return conj(codes[0], w)
    half = len(codes) // 2
    a, b = codes[:half], codes[half:]
    h = a[0] ^ b[0]
    if len(a) == len(b) and np.array_equal(a ^ h, b):
        p = _cycle_product(w, conj, a)
        return conj(h, p) @ p
    return _cycle_product(w, conj, b) @ _cycle_product(w, conj, a)


def _stepped(u: np.ndarray, psi: np.ndarray, n: int, every: int) -> np.ndarray:
    """The ``n`` snapshots ``u**(k every) psi``, each snapshot's ``u @ psi`` product
    written into its row."""
    out = np.empty((n,) + psi.shape, dtype=complex)
    out[0] = psi
    for row in out[1:]:
        for _ in range(every - 1):
            psi = u @ psi
        psi = np.matmul(u, psi, out=row)
    return out


def _initial_columns(run: SimulationRun) -> np.ndarray:
    """``psi0``: the system's ensemble columns times the bath's, a ``d x r`` array."""
    system, bath = run._columns
    bath = run.model._joint_spectrum.bath_ground[:, None] if bath is None else bath
    return (system[:, None, :, None] * bath[:, None]).reshape(len(system) * len(bath), -1)


def _joint_purity(psi: np.ndarray) -> float:
    """``tr(rho**2)`` of ``rho = psi psi^dag``, as ``||psi^dag psi||_F**2``."""
    return float(np.linalg.norm(psi.conj().swapaxes(-1, -2) @ psi) ** 2)


def _expm(h: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i h t)`` of a stack of small Hermitian matrices, in extended precision: 17
    Taylor terms of ``-i h t / 2**s`` (1-norm at most 1/2), squared ``s`` times. A cycle's
    powers then keep their norm, where steps from ``eigh`` lose a few ulp a cycle."""
    a = (-1j * float(t)) * h.astype(np.clongdouble)
    s = max(0, int(np.frexp(2 * float(np.abs(a).sum(-1).max()))[1]))
    out = term = np.eye(h.shape[-1], dtype=a.dtype)
    for j in range(1, 18):
        term = term @ a / (j * 2**s)
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _powers(u: np.ndarray, psi: np.ndarray, n: int) -> np.ndarray:
    """``u**k psi`` for ``k < n``, by doubling: ``log2 n`` products, the last one
    of only the snapshots still missing."""
    out = psi[None]
    while len(out) < n:
        out, u = np.concatenate([out, u @ out[:n - len(out)]]), u @ u
    return out


def _mode_reduce(rho0: np.ndarray, snapshots: np.ndarray) -> np.ndarray:
    """Reduced states ``rho0_cc' prod_i <phi_i^c'|phi_i^c>`` of a stack of per-mode vectors."""
    phi = snapshots.reshape(len(snapshots), len(rho0), -1, snapshots.shape[-2])
    return rho0 * np.einsum("kcia,kdia->kcdi", phi, phi.conj()).prod(-1)


def _mode_purity(rho0: np.ndarray, psi: np.ndarray) -> float:
    """``tr(rho**2) = sum_cc' |rho0_cc'|**2 N_c N_c'`` of the joint state whose state ``c``
    holds the product of the per-mode vectors ``psi``, of squared norm ``N_c``."""
    norms = (np.abs(psi) ** 2).sum((-2, -1)).reshape(len(rho0), -1).prod(-1)
    return float(norms @ (np.abs(rho0) ** 2) @ norms)


def _path(run: SimulationRun, times: np.ndarray):
    """``(states, joint_purity)``: the reduced states of the run's snapshots at ``times``,
    in closed form for a trivial-group schedule (no pulses) and stepped by its cycle
    otherwise, and the joint purity of the first and the last.

    The product path, the run's ``path`` ``"modes"``, evolves each mode's vector in each
    register state from that mode's ground state; the joint path evolves ``psi`` on the
    model's joint spectrum."""
    model, schedule, every = run.model, run.schedule, run.sample_every
    free = schedule.group.order == 1
    if run.path == "joint":
        spectrum, psi0 = model._joint_spectrum, _initial_columns(run)
        if free:
            snapshots = _spectral_evolution(spectrum.energies[None], spectrum.vectors[None],
                                            psi0[None], times)
        else:
            snapshots = _stepped(_cycle_blocks(model, schedule), psi0, len(times), every)
        m = snapshots.reshape(len(times), model.system_dim, -1)  # one stacked M M^dag
        return m @ m.conj().swapaxes(-1, -2), (_joint_purity(psi0), _joint_purity(snapshots[-1]))
    rho0, h = run.rho_s0.matrix, model._mode_hamiltonians
    psi0 = np.tile(model._mode_ground, (model.system_dim, 1))[..., None]
    if free:
        snapshots = _spectral_evolution(*np.linalg.eigh(h), psi0, times)
    else:  # a frame flips the register axes of the stack at its X/Y letters
        w = _expm(h, schedule.delta_t).reshape(schedule.dims + (-1,) + h.shape[-2:])
        n = schedule.group.n_qubits
        w = _cycle_product(w, lambda code, p: p[_flips(code, n)], schedule.codes)
        u = np.linalg.matrix_power(w.reshape(h.shape), every)
        snapshots = _powers(u, psi0.astype(u.dtype), len(times)).astype(complex)
    return _mode_reduce(rho0, snapshots), (_mode_purity(rho0, psi0),
                                           _mode_purity(rho0, snapshots[-1]))


@dataclass(frozen=True)
class SimulationRun:
    """Everything needed to propagate one controlled (or free) evolution.

    ``rho_b0`` is a bath density operator, ``None`` (the default) for the
    bath ground state. The ideal reference trajectory evolves under
    the system Hamiltonian averaged over the schedule's group. Snapshots
    are taken every ``sample_every`` cycles, which must divide ``n_cycles``; both
    are integers (numpy's too, stored as ``int``) of at least 1.
    A run resolves its inputs once, when it is made: one ``eigh`` of each
    initial state checks it and gives the ensemble columns that the joint
    path and the reference evolve, and :func:`~decoupling.model.run_path`
    gives its ``path`` and ``path_reason``.
    The bound counts what :func:`evolve` holds at its peak, per snapshot: on
    the joint path three arrays of ``d r`` numbers (``r``: the initial
    ensemble's columns) and the reduced state; on the product path (``m``
    modes of ``n`` levels) the snapshots twice in extended precision, at most
    ``4 d_s m n``, and the ``(m + 2) d_s**2`` of the per-mode overlaps and the
    reduced state. A run that would hold more than :data:`SNAPSHOT_CAP`
    numbers raises :class:`SnapshotBoundError`.
    """

    model: SystemBathModel
    schedule: CycleSchedule
    n_cycles: int
    rho_s0: Operator
    rho_b0: Operator | None = None
    sample_every: int = 1
    path: str = field(init=False)
    path_reason: str = field(init=False)
    _columns: tuple = field(init=False, repr=False, compare=False)  # rho_s0's, rho_b0's or None

    def __post_init__(self):
        n_cycles, every = _check_sampling(self.n_cycles, self.sample_every)
        _matching_model(self.model, self.schedule)
        if not isinstance(self.rho_s0, Operator):
            raise ValueError(f"rho_s0: expected an Operator, got {type(self.rho_s0).__name__}")
        if self.rho_s0.dims != self.model.system_dims:
            raise ValueError("rho_s0: dims do not match the model system")
        system, bath = _check_density(self.rho_s0, "rho_s0"), None
        if self.rho_b0 is not None:
            if not isinstance(self.rho_b0, Operator):
                raise ValueError(f"rho_b0: expected an Operator, got {type(self.rho_b0).__name__}")
            if self.rho_b0.dims != self.model.bath_dims:
                raise ValueError("rho_b0: dims do not match the model bath")
            bath = _check_density(self.rho_b0, "rho_b0")
        model, snapshots = self.model, n_cycles // every + 1
        path, reason = run_path(model.words, self.rho_b0)
        for name, value in (("n_cycles", n_cycles), ("sample_every", every), ("path", path),
                            ("path_reason", reason), ("_columns", (system, bath))):
            object.__setattr__(self, name, value)
        d_s, (m, n, _) = model.system_dim, model.hamiltonian.shape
        r = system.shape[1] * (1 if bath is None else bath.shape[1])
        width = (4 * d_s * m * n + (m + 2) * d_s**2 if path == "modes"
                 else 3 * d_s * model.bath_dim * r + d_s**2)
        if snapshots * width > SNAPSHOT_CAP:
            raise SnapshotBoundError(f"n_cycles: {snapshots} snapshots of {width} numbers at the "
                                     f"peak exceed the {SNAPSHOT_CAP} a run may hold; at most "
                                     f"{SNAPSHOT_CAP // width} fit")

    def ideal_system_hamiltonian(self) -> Operator:
        """``h_s`` averaged over the schedule's group: the Pauli sum of the words it keeps."""
        group = self.schedule.group
        return pauli_sum(_averaged(self.model.words[0], group)[0], group.n_qubits)


@dataclass(frozen=True)
class TrajectoryResult:
    """A run and the read-only ``(n + 1, d_s, d_s)`` stack of its reduced
    states at cycle boundaries, the initial one at index 0; the ``path``
    :func:`evolve` took and the ``joint_purity``, ``(initial, terminal)``.

    ``cycles``, ``times``, the l1 ``coherence``, the ``fidelity`` against
    the ideal reference trajectory and the ``trace_distance`` to ``rho_s0``
    are computed from ``run`` and ``states`` on first read, so a caller
    that never reads one (a sweep's free run) pays nothing for it.
    """

    run: SimulationRun
    states: np.ndarray
    path: str
    joint_purity: tuple[float, float]

    @cached_property
    def cycles(self) -> np.ndarray:
        return np.arange(0, self.run.n_cycles + 1, self.run.sample_every)

    @cached_property
    def times(self) -> np.ndarray:
        return self.cycles * self.run.schedule.cycle_time

    @cached_property
    def coherence(self) -> np.ndarray:
        return coherence_l1(self.states)

    @cached_property
    def fidelity(self) -> np.ndarray:
        w, v = np.linalg.eigh(self.run.ideal_system_hamiltonian().matrix)
        roots = _spectral_evolution(w[None], v[None], self.run._columns[0][None],
                                    self.times)[:, 0]
        return _reference_fidelity(self.states, roots)

    @cached_property
    def trace_distance(self) -> np.ndarray:
        return 0.5 * np.abs(np.linalg.eigvalsh(self.states - self.run.rho_s0.matrix)).sum(-1)

    @property
    def terminal_fidelity(self) -> float:
        return float(self.fidelity[-1])

    def write_csv(self, path):
        """Write snapshots as CSV, deterministically (repr floats), formatted from
        the five columns' Python values and written at once."""
        columns = (self.cycles, self.times, self.fidelity, self.coherence, self.trace_distance)
        rows = zip(*(c.tolist() for c in columns))
        with open(path, "w") as fh:
            fh.write("cycle, time, fidelity, coherence, trace_distance\n" + "".join(
                f"{k}, {t!r}, {f!r}, {c!r}, {d!r}\n" for k, t, f, c, d in rows))


def evolve(run: SimulationRun) -> TrajectoryResult:
    """Propagate a run and record its reduced-state snapshots.

    A trivial-group schedule (no pulses) is read off the eigenpairs in closed
    form at every sample time at once; any other steps ``psi`` by its cycle,
    each snapshot written into its row of one array. On the product path (a
    model whose register qubits are all conserved, bath in its ground state)
    the cycle is made per mode and per register state and the snapshots are
    its powers. The whole snapshot array is reduced by one stacked product.
    """
    times = np.arange(0, run.n_cycles + 1, run.sample_every) * run.schedule.cycle_time
    states, joint_purity = _path(run, times)
    states.setflags(write=False)
    return TrajectoryResult(run, states, run.path, joint_purity)


def observable_drift(traj: TrajectoryResult, observable: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Expectation of a group-commuting observable along a trajectory.

    The observable must commute with every element of the group the
    trajectory's schedule ran over (those are the quantities the control
    is supposed to preserve), that is with each of its generators; the
    failing generator is named otherwise. Returns ``(times, values)`` read
    from ``traj.states``.
    """
    group = traj.run.schedule.group
    if observable.dims != group.dims:
        raise ValueError("observable dims do not match the group")
    n, scale, o = group.n_qubits, max(1.0, observable.max_abs()), observable.matrix
    for g in group.generators:
        # ||g^dag O g - O|| = ||O g - g O||: g is unitary
        if float(np.linalg.norm(_conjugate(g, n, o) - o)) > NUMERIC_TOL * scale:
            raise ValueError(
                f"observable does not commute with group element {_label(g, n)!r}"
            )
    return traj.times, np.einsum("ij,kji->k", observable.matrix, traj.states).real


@dataclass(frozen=True)
class RateEstimate:
    """Exponential decay rates of a free and a controlled trajectory.

    Rates come from an origin-constrained least-squares fit of
    ``-log(coherence(t)/coherence(0))`` over the window where the
    normalized coherence sits in ``[0.2, 0.95]`` (resolved but not
    saturated decay). A trajectory that never enters that window falls
    back to an endpoint secant, the expected situation for a well
    controlled run. The estimate is flagged when the comparison itself
    is unreliable: the free trajectory did not resolve a window fit, a
    trajectory had no initial coherence to lose, or the free rate is
    zero. ``ratio`` is ``gamma_c / gamma``: below one means the control
    suppresses decay.
    """

    gamma: float
    gamma_c: float
    ratio: float
    fit_window: tuple[tuple[int, int], tuple[int, int]]
    fit_residual: float
    method: str
    flagged: bool

    def to_record(self) -> dict:
        def safe(x: float):
            return float(x) if math.isfinite(x) else None

        return {
            "gamma_free": safe(self.gamma),
            "gamma_controlled": safe(self.gamma_c),
            "ratio": safe(self.ratio),
            "fit_window": [list(w) for w in self.fit_window],
            "fit_residual": safe(self.fit_residual),
            "method": self.method,
            "flagged": bool(self.flagged),
        }


#: Normalized-coherence thresholds bounding the rate-fit window: the fit
#: starts once coherence/coherence(0) drops below ONSET and stops before
#: it falls under FLOOR.
RATE_FIT_ONSET = 0.95
RATE_FIT_FLOOR = 0.2


def _decay_rate(t: np.ndarray, coherence: np.ndarray) -> tuple[float, tuple[int, int], float, str]:
    c0 = float(coherence[0])
    if t[-1] <= 0:
        raise ValueError("trajectory has no positive-time snapshots")
    if c0 <= 1e-12:
        return 0.0, (0, 0), 0.0, "undefined-signal"
    c = np.clip(coherence / c0, 1e-300, None)
    below_onset = np.flatnonzero(c <= RATE_FIT_ONSET)
    below_floor = np.flatnonzero(c < RATE_FIT_FLOOR)
    start = int(below_onset[0]) if below_onset.size else len(c)
    stop = int(below_floor[0]) if below_floor.size else len(c)
    window = (start, stop)
    if stop - start >= 2 and t[stop - 1] > 0:
        tt = t[start:stop]
        dd = -np.log(c[start:stop])
        gamma = _nonnegative(float(np.dot(tt, dd) / np.dot(tt, tt)))
        resid = float(np.sqrt(np.mean((dd - gamma * tt) ** 2)))
        return gamma, window, resid, "window-fit"
    gamma = _nonnegative(float(-math.log(min(float(c[-1]), 1.0)) / float(t[-1])))
    return gamma, (len(c) - 1, len(c)), 0.0, "endpoint-secant"


def _nonnegative(rate: float) -> float:
    """``max(rate, 0.0)``, with a zero rate always ``+0.0``: ``-0.0`` would be written as such."""
    return max(rate, 0.0) + 0.0


def estimate_rates(times: np.ndarray, free: np.ndarray, controlled: np.ndarray) -> RateEstimate:
    """Compare the decay rates of a free and a controlled coherence sampled at ``times``."""
    for name, coherence in (("free", free), ("controlled", controlled)):
        if len(coherence) != len(times):
            raise ValueError(f"{name} has {len(coherence)} samples, times has {len(times)}")
    (g_free, w_free, r_free, m_free), (g_ctrl, w_ctrl, r_ctrl, m_ctrl) = (
        _decay_rate(times, c) for c in (free, controlled))
    method = m_free if m_free == m_ctrl else f"{m_free}+{m_ctrl}"
    flagged = m_free != "window-fit" or m_ctrl == "undefined-signal"
    if g_free > 0:
        ratio = g_ctrl / g_free
    else:
        ratio = math.inf if g_ctrl > 0 else math.nan
        flagged = True
    return RateEstimate(
        gamma=g_free,
        gamma_c=g_ctrl,
        ratio=ratio,
        fit_window=(w_free, w_ctrl),
        fit_residual=max(r_free, r_ctrl),
        method=method,
        flagged=flagged,
    )


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit ``y = exp(intercept) * x**slope`` on log-log axes."""

    slope: float
    intercept: float
    r_squared: float


def fit_scaling_exponent(points: Sequence[tuple[float, float]]) -> ScalingFit:
    """Least-squares slope of ``log y`` against ``log x``.

    Needs at least three points with positive coordinates and at least
    two distinct abscissae.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("need at least three points for a scaling fit")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("scaling fit needs strictly positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    if float(np.ptp(lx)) < 1e-12:
        raise ValueError("scaling fit needs at least two distinct x values")
    a = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, ly, rcond=None)
    pred = a @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 and ss_res < 1e-24 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return ScalingFit(slope=float(slope), intercept=float(intercept), r_squared=float(r2))
