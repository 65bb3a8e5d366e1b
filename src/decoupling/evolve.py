"""Stroboscopic propagation of controlled system-bath dynamics.

One control cycle is integrated exactly, then repeated. Every segment of
a cycle lasts the same time and its frame acts on the system factor
only, so the cycle propagator is a product of one free step
``W = exp(-i H delta_t)`` conjugated by the segment frames, the
schedule's group words in visiting order. A run takes one of two paths.

The product path takes a fully conserved register (``h_s`` and every
coupling's system factor diagonal) of a model from the builder (its
:class:`~decoupling.model.ModeTable`) whose bath starts in its ground
state. Register state ``c`` then sees ``H_c = E_c + sum_i h_ci``, a sum of
commuting single-mode terms, and the ground state is a product over modes,
so ``rho_cc'(t) = rho_cc'(0) prod_i <phi_i^c'(t)|phi_i^c(t)>`` with
``phi_i^c`` mode ``i``'s vector in state ``c``. A frame maps ``c`` to
``c ^ x`` (``x``: the X/Y letters of its word), a flip of the register
axes. Each mode's cycle in each state is an ``n x n`` matrix, its steps
exponentiated in extended precision, and the snapshots are its powers; a
free run takes the modes' closed form. No joint ``eigh`` is made, and
neither the ``d x d`` joint matrix nor any ``d_b x d_b`` bath matrix is
built: the model's ``h_b`` and ``B_a`` are never placed, and the per-mode
Hamiltonians ``h_ci`` are made once per model.

Every other run (a register not fully conserved, a hand-built model, an
explicit ``rho_b0``) takes the joint path, the product path's oracle.
``W`` comes from one ``eigh`` of the ``d x d`` joint Hamiltonian, which the
model makes on first use and keeps, together with the bath ground vector
that default runs start from, so the controlled run, the free run and every
point of a sweep share it. A frame acts on ``W`` as the signed flip of its
register axes (:func:`~decoupling.groups.conjugate_word`), never as a matrix.
:func:`evolve` alone picks the path, and records it as the trajectory's
``path``: ``"modes"`` or ``"joint"``.

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
statements hold. Snapshots, stepped or not, come in blocks of at most
``d x d`` numbers, one stacked ``M M^dag`` per block, into one
``(n + 1, d_s, d_s)`` stack; each snapshot observable, and the ideal
reference of fidelity, is computed on that stack on its first read.

Two decay diagnostics are tracked. Fidelity is measured against an ideal
reference trajectory: the system evolving alone under its effective
Hamiltonian, the system Hamiltonian averaged over the schedule's group
(for the free run's trivial group, the bare one), so it starts at one and
falls only through system-bath correlation. Decoherence rates are fitted
to the l1 coherence, whose exponential-looking decay is the directly
observable signature of dephasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from .operators import NUMERIC_TOL, Operator, as_matrices
from .model import SystemBathModel
from .sequence import CycleSchedule
from .groups import _signed_flip, _word_product, conjugate_word, project_commutant

#: Density-matrix eigenvalues at or below this are eigensolver round-off
#: of exact zeros: they are left out of ensembles and square roots.
_ROUNDOFF_EIGENVALUE = 1e-13


def _check_density(rho: Operator, what: str):
    if not rho.is_hermitian():
        raise ValueError(f"{what} is not Hermitian")
    if abs(rho.trace() - 1.0) > 1e-10 * max(1.0, abs(rho.trace())):
        raise ValueError(f"{what} does not have unit trace")
    evals = np.linalg.eigvalsh(rho.matrix)
    if float(evals.min()) < -1e-10:
        raise ValueError(f"{what} has a negative eigenvalue ({evals.min():.3e})")


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


def _spectral_evolution(energies: np.ndarray, vectors: np.ndarray, coeffs: np.ndarray, times):
    """``V_c (exp(-i E_c t) * coeffs_c)`` at each ``t`` of ``times``, ``coeffs = V^dag psi`` an
    ``(n_c, D, r)`` stack: an ``(n, n_c, D, r)`` stack from one product. The times are
    uniform, so ``exp(-i E t_(qb+j)) = exp(-i E t_(qb)) exp(-i E (t_j - t_0))``,
    ``b = isqrt(n)``: each energy takes ``b + ceil(n / b)`` exponentials rather than ``n``."""
    b, e = math.isqrt(len(times)), -1j * energies[..., None]
    phases = np.exp(e * times[::b])[..., None] * np.exp(e * (times[:b] - times[0]))[..., None, :]
    phased = phases.reshape(*energies.shape, -1)[..., :len(times), None] * coeffs[:, :, None]
    out = vectors @ phased.reshape(*coeffs.shape[:2], -1)
    return np.moveaxis(out.reshape(phased.shape), 2, 0)


def _closed_form(energies: np.ndarray, vectors: np.ndarray, psi0: np.ndarray, step: int,
                 times: np.ndarray):
    """Blocks of ``V_c exp(-i E_c t) V_c^dag psi0`` at ``times``: :func:`_spectral_evolution`
    on each block of ``step`` of the uniform ``times``."""
    coeffs = vectors.conj().swapaxes(-1, -2) @ psi0
    for i in range(0, len(times), step):
        yield _spectral_evolution(energies, vectors, coeffs, times[i:i + step])


def _matching_model(model: SystemBathModel, schedule: CycleSchedule) -> SystemBathModel:
    """``model``, once ``schedule`` is checked to act on its system."""
    if schedule.dims != model.h_s.dims:
        raise ValueError(f"schedule acts on dims {schedule.dims}, "
                         f"model system has {model.h_s.dims}")
    return model


def cycle_propagator(model: SystemBathModel, schedule: CycleSchedule) -> Operator:
    """Exact joint propagator of one control cycle, as a dense Operator.

    Segment ``j`` evolves under ``(g_j (x) 1)^dag W (g_j (x) 1)`` with the
    same free step ``W = exp(-i H delta_t)`` for every segment, from the
    model's joint spectrum (one ``eigh`` per model, whatever the schedule),
    multiplied by :func:`_cycle_product`.
    """
    return Operator(_cycle_blocks(model, schedule), model.h_s.dims + model.h_b.dims)


def _cycle_blocks(model: SystemBathModel, schedule: CycleSchedule) -> np.ndarray:
    """The ``d x d`` matrix of :func:`cycle_propagator`: each frame acts by
    :func:`~decoupling.groups.conjugate_word`."""
    _matching_model(model, schedule)
    return _cycle_product(model._joint_spectrum.propagator(schedule.delta_t), conjugate_word,
                          schedule.segments)


def _cycle_product(w: np.ndarray, conj, words: Sequence[str]) -> np.ndarray:
    """``P(words)``, the product of the segments' toggled free steps ``conj(word, w)``,
    later segments to the left; ``conj(word, x)`` conjugates ``x`` by the word's frame.

    The visits are halved into ``A`` and ``B``. When ``B`` is ``A``
    multiplied word by word by one word ``h`` (word arithmetic, phases
    dropped: they cancel in each conjugation), ``P(A + B) = conj(h, P(A))
    P(A)``: one batched product and one frame action. Otherwise ``P(A + B)
    = P(B) P(A)``, both halves recursed. A named group's cycle, palindromic
    or not, halves by cosets all the way down: ``log2 n`` products for ``n``
    segments, against ``n - 1`` for an order without that structure.
    """
    if len(words) == 1:
        return conj(words[0], w)
    half = len(words) // 2
    a, b = words[:half], words[half:]
    h = _word_product(a[0], b[0])
    if len(a) == len(b) and all(_word_product(x, h) == y for x, y in zip(a, b)):
        p = _cycle_product(w, conj, a)
        return conj(h, p) @ p
    return _cycle_product(w, conj, b) @ _cycle_product(w, conj, a)


def _stepped_blocks(u: np.ndarray, psi: np.ndarray, n: int, step: int, every: int):
    """The ``n`` snapshots ``u**(k every) psi`` in blocks of ``step``, each snapshot's
    ``u @ psi`` product written into its block."""
    for i in range(0, n, step):
        block = np.empty((min(step, n - i),) + psi.shape, dtype=complex)
        if i == 0:
            block[0] = psi  # the initial state opens the first block
        for out in block[int(i == 0):]:
            for _ in range(every - 1):
                psi = u @ psi
            psi = np.matmul(u, psi, out=out)
        yield block


def _ensemble(rho: Operator) -> np.ndarray:
    """Columns ``sqrt(p_k) psi_k`` over the eigenpairs of a density matrix."""
    p, vecs = np.linalg.eigh(rho.matrix)
    keep = p > _ROUNDOFF_EIGENVALUE
    return vecs[:, keep] * np.sqrt(p[keep])


def _initial_columns(run: SimulationRun) -> np.ndarray:
    """``psi0``: the system's ensemble columns times the bath's, a ``d x r`` array."""
    system = _ensemble(run.rho_s0)
    bath = (run.model._joint_spectrum.bath_ground[:, None] if run.rho_b0 is None
            else _ensemble(run.rho_b0))
    return (system[:, None, :, None] * bath[:, None]).reshape(len(system) * len(bath), -1)


def _reduce(block: np.ndarray, system_dim: int) -> np.ndarray:
    """Reduced system states of a block of joint snapshots, one stacked ``M M^dag``."""
    m = block.reshape(len(block), system_dim, -1)
    return m @ m.conj().swapaxes(-1, -2)


def _joint_purity(psi: np.ndarray) -> float:
    """``tr(rho**2)`` of ``rho = psi psi^dag``, as ``||psi^dag psi||_F**2``."""
    return float(np.linalg.norm(psi.conj().swapaxes(-1, -2) @ psi) ** 2)


def _mode_wise(run: SimulationRun) -> bool:
    """Whether the product path evolves the run: its bath starts in its ground state, and
    its model has a mode table and diagonal ``h_s`` and coupling system factors."""
    return run.rho_b0 is None and run.model._mode_hamiltonians is not None


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


def _mode_reduce(rho0: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Reduced states ``rho0_cc' prod_i <phi_i^c'|phi_i^c>`` of a block of per-mode vectors."""
    phi = block.reshape(len(block), len(rho0), -1, block.shape[-2])
    return rho0 * np.einsum("kcia,kdia->kcdi", phi, phi.conj()).prod(-1)


def _mode_purity(rho0: np.ndarray, psi: np.ndarray) -> float:
    """``tr(rho**2) = sum_cc' |rho0_cc'|**2 N_c N_c'`` of the joint state whose state ``c``
    holds the product of the per-mode vectors ``psi``, of squared norm ``N_c``."""
    norms = (np.abs(psi) ** 2).sum((-2, -1)).reshape(len(rho0), -1).prod(-1)
    return float(norms @ (np.abs(rho0) ** 2) @ norms)


def _path(run: SimulationRun, times: np.ndarray):
    """``(blocks, reduce, purity, psi0)``: the run's snapshots at ``times`` in blocks, in
    closed form for a trivial-group schedule (no pulses) and stepped by its cycle otherwise,
    the reduced states of a block, the joint purity of a snapshot, and the initial one.

    The product path, when the run is :func:`_mode_wise`, evolves each mode's vector in
    each register state from that mode's ground state; otherwise the joint path evolves
    ``psi`` on the model's joint spectrum."""
    model, schedule, every = run.model, run.schedule, run.sample_every
    d, free = model.system_dim * model.bath_dim, schedule.group.order == 1
    if not _mode_wise(run):
        spectrum, psi0 = model._joint_spectrum, _initial_columns(run)
        step = max(1, d * d // psi0.size)  # snapshots of at most d x d numbers a block
        if free:
            blocks = _closed_form(spectrum.energies[None], spectrum.vectors[None], psi0[None],
                                  step, times)
        else:
            blocks = _stepped_blocks(_cycle_blocks(model, schedule), psi0, len(times), step,
                                     every)
        return blocks, lambda block: _reduce(block, model.system_dim), _joint_purity, psi0
    rho0, h = run.rho_s0.matrix, model._mode_hamiltonians
    psi0 = np.zeros(h.shape[:-1] + (1,), dtype=complex)
    psi0[:, np.argmin(model.modes.h_mode.diagonal().real)] = 1.0
    if free:
        blocks = _closed_form(*np.linalg.eigh(h), psi0, max(1, d * d // psi0.size), times)
    else:  # a frame flips the register axes of the stack at its X/Y letters
        w = _expm(h, schedule.delta_t).reshape(schedule.dims + (-1,) + h.shape[-2:])
        w = _cycle_product(w, lambda word, p: p[_signed_flip(word)[0]], schedule.segments)
        u = np.linalg.matrix_power(w.reshape(h.shape), every)
        blocks = [_powers(u, psi0.astype(u.dtype), len(times)).astype(complex)]
    return blocks, partial(_mode_reduce, rho0), partial(_mode_purity, rho0), psi0


@dataclass(frozen=True)
class SimulationRun:
    """Everything needed to propagate one controlled (or free) evolution.

    ``rho_b0`` is a bath density operator, ``None`` (the default) for the
    bath ground state. The ideal reference trajectory evolves under
    the system Hamiltonian averaged over the schedule's group. Snapshots
    are taken every ``sample_every`` cycles, which must divide ``n_cycles``.
    """

    model: SystemBathModel
    schedule: CycleSchedule
    n_cycles: int
    rho_s0: Operator
    rho_b0: Operator | None = None
    sample_every: int = 1

    def __post_init__(self):
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be at least 1")
        if self.sample_every < 1 or self.n_cycles % self.sample_every != 0:
            raise ValueError("sample_every must be positive and divide n_cycles")
        _matching_model(self.model, self.schedule)
        if self.rho_s0.dims != self.model.h_s.dims:
            raise ValueError("rho_s0 dims do not match the model system")
        _check_density(self.rho_s0, "rho_s0")
        if self.rho_b0 is not None:
            if not isinstance(self.rho_b0, Operator):
                raise ValueError(f"unknown bath state {self.rho_b0!r}; pass an Operator or None")
            if self.rho_b0.dims != self.model.h_b.dims:
                raise ValueError("rho_b0 dims do not match the model bath")
            _check_density(self.rho_b0, "rho_b0")

    def ideal_system_hamiltonian(self) -> Operator:
        return project_commutant(self.model.h_s, self.schedule.group)


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
        system = v.conj().T @ _ensemble(self.run.rho_s0)
        roots = _spectral_evolution(w[None], v[None], system[None], self.times)[:, 0]
        return _reference_fidelity(self.states, roots)

    @cached_property
    def trace_distance(self) -> np.ndarray:
        return 0.5 * np.abs(np.linalg.eigvalsh(self.states - self.run.rho_s0.matrix)).sum(-1)

    @property
    def terminal_fidelity(self) -> float:
        return float(self.fidelity[-1])

    def write_csv(self, path):
        """Write snapshots as CSV, deterministically (repr floats)."""
        lines = ["cycle, time, fidelity, coherence, trace_distance"]
        for k in range(len(self.times)):
            lines.append(
                f"{int(self.cycles[k])}, {float(self.times[k])!r}, "
                f"{float(self.fidelity[k])!r}, {float(self.coherence[k])!r}, "
                f"{float(self.trace_distance[k])!r}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def evolve(run: SimulationRun) -> TrajectoryResult:
    """Propagate a run and record its reduced-state snapshots.

    A trivial-group schedule (no pulses) is read off the eigenpairs in closed
    form; any other steps ``psi`` by its cycle. On the joint path, snapshots
    come in blocks of at most ``d x d`` numbers, reduced one stacked product
    a block. On the product path (a builder's model whose register qubits
    are all conserved, bath in its ground state) the cycle is made per mode
    and per register state and the snapshots are its powers.
    """
    times = np.arange(0, run.n_cycles + 1, run.sample_every) * run.schedule.cycle_time
    blocks, reduce, purity, psi0 = _path(run, times)
    states = []
    for block in blocks:
        states.append(reduce(block))
    states = np.concatenate(states)
    states.setflags(write=False)
    return TrajectoryResult(run, states, "modes" if _mode_wise(run) else "joint",
                            (purity(psi0), purity(block[-1])))


def observable_drift(traj: TrajectoryResult, observable: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Expectation of a group-commuting observable along a trajectory.

    The observable must commute with every element of the group the
    trajectory's schedule ran over (those are the quantities the control
    is supposed to preserve); the failing element is named otherwise.
    Returns ``(times, values)`` read from ``traj.states``.
    """
    group = traj.run.schedule.group
    if observable.dims != group.dims:
        raise ValueError("observable dims do not match the group")
    scale, o = max(1.0, observable.max_abs()), observable.matrix
    for label in group.labels:
        # ||g^dag O g - O|| = ||O g - g O||: g is unitary
        if float(np.linalg.norm(conjugate_word(label, o) - o)) > NUMERIC_TOL * scale:
            raise ValueError(
                f"observable does not commute with group element {label!r}"
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
