"""Density-matrix propagation, kept as an oracle for the package kernel.

This is the direct construction the package kernel is checked against.
Every segment's toggled Hamiltonian is built with a Kronecker-lifted
frame and exponentiated through its own eigendecomposition; the cycle
propagator is raised to ``sample_every`` by repeated squaring with
periodic polar re-unitarization; the joint density matrix is stepped
with two dense products, re-Hermitized after every step, and reduced by
an explicit partial trace. It costs O(d**3) per step and one joint
``eigh`` per segment, which is why the package does not use it. The
snapshot observables are the scalar kernels the package's stacked ones
replaced, one call per snapshot. The operator helpers this path needs
(bath ground-state projector, partial trace, commutator) live here too:
the package itself no longer uses them. So do the frame actions by a
``d_s x d_s`` matrix on the system factor that the package's signed flips
replaced, and the pulse-picture cycle
product, one dense product per segment, that the package's coset-halving
product replaced, and a dense kernel from ``np.kron`` parts: one ``eigh``
of the whole joint Hamiltonian, the coset-halving product on ``d x d``
matrices, and ``psi`` stepped by the dense cycle. The package's stepping
loop from before it reduced snapshots in blocks is kept too: ``psi``
stepped one cycle at a time by the package's cycle, each kept snapshot
reduced on its own. The fidelity kernels are the package's from
before every fidelity took one exact formula: they read a state within
1e-10 of pure as pure.
"""

import itertools
from types import SimpleNamespace

import numpy as np

from decoupling import Operator, expm_hermitian, total_hamiltonian
from decoupling.evolve import _cycle_blocks, _ensemble
from decoupling.groups import _word_product
from decoupling.operators import STRUCT_TOL, as_matrices

from oracle_model import tensor

#: Re-unitarize running products after this many matrix multiplies.
POLAR_EVERY = 64

#: Density-matrix eigenvalues at or below this are eigensolver round-off.
ROUNDOFF_EIGENVALUE = 1e-13


def act_on_system(g, x):
    """``(g (x) 1) @ x`` without forming the Kronecker product: the rows of
    ``x`` (of each matrix of a stack) reshape to ``(d_s, d_b * columns)`` and
    one ``d_s x d_s`` contraction does the rest."""
    return (g @ x.reshape(x.shape[:-2] + (g.shape[0], -1))).reshape(x.shape)


def conjugate_system(g, x):
    """``(g (x) 1)^dag @ x @ (g (x) 1)`` per matrix of ``x``, by two :func:`act_on_system`."""
    return act_on_system(g.conj().T, act_on_system(g.T, x.swapaxes(-1, -2)).swapaxes(-1, -2))


def commutator(a, b):
    """``[a, b]`` of two matrices."""
    return a @ b - b @ a


def bath_ground_vector(model):
    """The bath Hamiltonian's lowest eigenvector, from ``eigh``."""
    return np.linalg.eigh(model.h_b.matrix)[1][:, 0]


def bath_ground_state(model):
    """Density operator of the bath Hamiltonian's ground state."""
    g = bath_ground_vector(model)
    return Operator(np.outer(g, g.conj()), model.h_b.dims)


def partial_trace_bath(rho, n_system_factors):
    """Trace out every tensor factor beyond the first ``n_system_factors``."""
    nf = len(rho.dims)
    if not 1 <= n_system_factors <= nf:
        raise ValueError(
            f"n_system_factors must be in [1, {nf}], got {n_system_factors}"
        )
    if not rho.is_hermitian():
        raise ValueError("partial_trace_bath requires a Hermitian operator")
    keep = rho.dims[:n_system_factors]
    a = int(np.prod(keep))
    b = rho.dim // a
    m = rho.matrix.reshape(a, b, a, b)
    return Operator(np.einsum("ibjb->ij", m), keep)


#: The fidelity kernels below take a density matrix whose top eigenvalue
#: reaches this as pure.
PURE_EIGENVALUE = 1.0 - 1e-10


def _sqrt_density(p, vecs):
    root = np.sqrt(np.where(p > ROUNDOFF_EIGENVALUE, p, 0.0))
    return (vecs * root[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _expectation(psi, rho):
    return np.einsum("...i,...ij,...j->...", psi.conj(), rho, psi).real


def state_fidelity(a, b):
    """Uhlmann fidelity of two Operators (a float) or two stacks of density
    matrices: ``<u|rho|u>`` when either state of a pair passes the purity
    test with top eigenvector ``u``, else the squared sum of the singular
    values of ``sqrt(a) sqrt(b)``. The package's kernel before it took the
    singular values for every pair: the purity test drops up to 1e-10 of a
    near-pure state's mixedness."""
    x, y = as_matrices(a), as_matrices(b)
    va, ua = np.linalg.eigh(x)
    vb, ub = np.linalg.eigh(y)
    batch = np.broadcast_shapes(va.shape[:-1], vb.shape[:-1])
    pure_a = np.broadcast_to(va[..., -1] >= PURE_EIGENVALUE, batch)
    pure_b = np.broadcast_to(vb[..., -1] >= PURE_EIGENVALUE, batch)
    f = np.where(pure_a, _expectation(ua[..., -1], y), _expectation(ub[..., -1], x))
    mixed = ~(pure_a | pure_b)
    if mixed.any():
        sqrt_a, sqrt_b = (
            _sqrt_density(np.broadcast_to(p, batch + p.shape[-1:])[mixed],
                          np.broadcast_to(v, batch + v.shape[-2:])[mixed])
            for p, v in ((va, ua), (vb, ub))
        )
        f[mixed] = np.sum(np.linalg.svd(sqrt_a @ sqrt_b, compute_uv=False), axis=-1) ** 2
    f = np.clip(f, 0.0, 1.0)
    return f if f.ndim else float(f)


def reference_fidelity(states, roots):
    """:func:`state_fidelity` of each state against ``roots roots^dag``, the
    package's reference kernel before it read a pure reference ``y`` as
    ``<y|rho|y>``: ``|<u|y>|**2`` for a state whose top eigenvector ``u``
    passes the purity test."""
    if roots.shape[-1] > 1:
        return state_fidelity(states, roots @ roots.conj().swapaxes(-1, -2))
    y = roots[..., 0]
    p, u = np.linalg.eigh(states)
    overlap = np.abs(np.einsum("...i,...i->...", u[..., -1].conj(), y)) ** 2
    return np.clip(np.where(p[..., -1] >= PURE_EIGENVALUE, overlap, _expectation(y, states)),
                   0.0, 1.0)


def coherence_l1(rho):
    """Sum of absolute off-diagonal entries of a density matrix."""
    m = np.abs(rho.matrix)
    return float(m.sum() - np.trace(m).real)


def trace_distance(a, b):
    """Half the sum of the singular values of ``a - b``."""
    return 0.5 * float(np.sum(np.linalg.svd(a.matrix - b.matrix, compute_uv=False)))


def toggled_matrices(model, schedule):
    """``(g_j (x) 1)^dag H (g_j (x) 1)`` for every segment, by ``kron``."""
    h = total_hamiltonian(model).matrix
    eye_b = np.eye(model.bath_dim)
    out = []
    for frame in schedule.frames:
        lift = np.kron(frame, eye_b)
        out.append(lift.conj().T @ h @ lift)
    return out


def cycle_propagator(model, schedule):
    """Product of the per-segment exponentials, later segments to the left."""
    joint_dims = tuple(model.h_s.dims) + tuple(model.h_b.dims)
    u = np.eye(model.system_dim * model.bath_dim, dtype=complex)
    for h_j in toggled_matrices(model, schedule):
        u = expm_hermitian(Operator(h_j, joint_dims), schedule.delta_t).matrix @ u
    return Operator(u, joint_dims)


def pulse_picture_propagator(model, schedule):
    """One cycle as the free step ``W`` interleaved with the boundary pulses.

    ``W (g_0 (x) 1)`` first, then for each later segment the pulse
    ``g_j g_{j-1}^dag`` followed by ``W``, and ``g_{n-1}^dag`` last: one
    dense product per segment, frames acting by reshape.
    """
    w = model._joint_spectrum.propagator(schedule.delta_t)
    frames = schedule.frames
    u = act_on_system(frames[0].conj().T, w.conj().T).conj().T  # W (g_0 (x) 1)
    for prev, g in zip(frames, frames[1:]):
        u = w @ act_on_system(g @ prev.conj().T, u)
    u = act_on_system(frames[-1].conj().T, u)
    return Operator(u, tuple(model.h_s.dims) + tuple(model.h_b.dims))


def dense_cycle_propagator(model, schedule):
    """The cycle from one joint ``eigh`` and the coset-halving product on
    ``d x d`` matrices."""
    w, v = np.linalg.eigh(total_hamiltonian(model).matrix)
    step = (v * np.exp(-1j * w * schedule.delta_t)) @ v.conj().T
    return _cycle_product(step, dict(zip(schedule.segments, schedule.frames)), schedule.segments)


def _cycle_product(w, frames, words):
    """Product of the toggled free steps of ``words``, later ones to the
    left, halving by cosets where it can."""
    if len(words) == 1:
        return conjugate_system(frames[words[0]], w)
    half = len(words) // 2
    a, b = words[:half], words[half:]
    h = _word_product(a[0], b[0])
    if len(a) == len(b) and all(_word_product(x, h) == y for x, y in zip(a, b)):
        p = _cycle_product(w, frames, a)
        g = frames[h]
        return act_on_system(g.conj().T, p @ act_on_system(g, p))
    return _cycle_product(w, frames, b) @ _cycle_product(w, frames, a)


def dense_states(run):
    """Reduced states of a default-bath run, ``psi`` stepped by the dense cycle."""
    model = run.model
    p, vecs = np.linalg.eigh(run.rho_s0.matrix)
    keep = p > ROUNDOFF_EIGENVALUE
    psi = np.kron(vecs[:, keep] * np.sqrt(p[keep]), bath_ground_vector(model)[:, None])
    u = dense_cycle_propagator(model, run.schedule)
    states = []
    for k in range(run.n_cycles + 1):
        if k % run.sample_every == 0:
            m = psi.reshape(model.system_dim, -1)
            states.append(m @ m.conj().T)
        psi = u @ psi
    return np.array(states)


def stepped_snapshots(run):
    """``psi`` at every ``sample_every``-th cycle, stepped one cycle at a time by
    the package's cycle, and each one's reduced state, one ``M M^dag``
    a snapshot: the kernel's loop before it reduced snapshots in blocks."""
    spectrum = run.model._joint_spectrum
    bath = spectrum.bath_ground[:, None] if run.rho_b0 is None else _ensemble(run.rho_b0)
    psi0 = _ensemble(run.rho_s0)[:, None, :, None] * bath[:, None]
    psi0 = psi0.reshape(spectrum.energies.shape + (-1,))
    u_cycle = _cycle_blocks(run.model, run.schedule)
    every_cycle = itertools.accumulate(
        itertools.repeat(u_cycle, run.n_cycles), lambda psi, u: u @ psi, initial=psi0)
    psis, states = [], []
    for psi in itertools.islice(every_cycle, None, None, run.sample_every):
        m = psi[None].reshape(1, run.model.system_dim, -1)
        psis.append(psi)
        states.append(m @ m.conj().swapaxes(-1, -2))
    return np.array(psis), np.concatenate(states)


def _closest_unitary(m):
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def unitary_power(m, n):
    """``m**n`` by repeated squaring, with periodic polar correction."""
    result = np.eye(m.shape[0], dtype=complex)
    base = m
    mults = 0
    while n:
        if n & 1:
            result = result @ base
            mults += 1
            if mults % POLAR_EVERY == 0:
                result = _closest_unitary(result)
        n >>= 1
        if n:
            base = base @ base
            mults += 1
            if mults % POLAR_EVERY == 0:
                base = _closest_unitary(base)
    return result


def evolve(run):
    """Density-matrix counterpart of :func:`decoupling.evolve`: its records,
    the trace distance among them, each computed here."""
    model = run.model
    rho_b0 = bath_ground_state(model) if run.rho_b0 is None else run.rho_b0
    joint = tensor(run.rho_s0, rho_b0).matrix
    n_sys = len(model.h_s.dims)
    u_step = unitary_power(cycle_propagator(model, run.schedule).matrix, run.sample_every)
    cycle_time = run.schedule.cycle_time
    initial_purity = float(np.trace(joint @ joint).real)

    h_ideal = run.ideal_system_hamiltonian()
    ideal_static = h_ideal.max_abs() <= STRUCT_TOL

    n_snapshots = run.n_cycles // run.sample_every
    times, fidelity, coherence, tdist, states = [], [], [], [], []
    joint_dims = list(model.h_s.dims) + list(model.h_b.dims)
    for k in range(n_snapshots + 1):
        t = k * run.sample_every * cycle_time
        rho_s = partial_trace_bath(Operator(joint, joint_dims), n_sys)
        if ideal_static:
            sigma = run.rho_s0
        else:
            u_ref = expm_hermitian(h_ideal, t).matrix
            sigma = Operator(u_ref @ run.rho_s0.matrix @ u_ref.conj().T, run.rho_s0.dims)
        times.append(t)
        fidelity.append(state_fidelity(rho_s, sigma))
        coherence.append(coherence_l1(rho_s))
        tdist.append(trace_distance(rho_s, run.rho_s0))
        states.append(rho_s)
        if k < n_snapshots:
            joint = u_step @ joint @ u_step.conj().T
            joint = (joint + joint.conj().T) / 2

    return SimpleNamespace(
        times=np.array(times),
        cycles=np.arange(n_snapshots + 1) * run.sample_every,
        states=np.array([rho.matrix for rho in states]),
        fidelity=np.array(fidelity),
        coherence=np.array(coherence),
        trace_distance=np.array(tdist),
        joint_purity=(initial_purity, float(np.trace(joint @ joint).real)),
    )
