"""The exact dephasing of one qubit by a bath of boson modes under ideal flips.

The model is ``H = sum_i w_i a_i^dag a_i + Z (x) sum_i r_i (a_i + a_i^dag)``
with no ``h_s`` and the bath in its vacuum: the independent-boson model of
Viola & Lloyd, Phys. Rev. A 58, 2733 (1998). In a segment whose frame maps
``Z`` to ``y Z`` (``y = -1`` for a word with an X or a Y, ``+1`` otherwise),
register state ``z = +-1`` drives mode ``i`` with the force ``z y r_i``. Each
branch then holds a coherent state ``z beta_i`` in each mode, with the same
phase in both branches, so ``rho_01(t) = rho_01(0) exp(-2 sum_i |alpha_i(t)|^2)``
with ``alpha_i(t) = r_i int_0^t y(t') exp(i w_i t') dt'``, and the populations
never move. A Fock truncation only adds the Poisson tail of ``|alpha_i|^2``.

The closed form reads ``w_i`` and ``r_i`` off the model's two stacks and ``y``
off the schedule's words; it shares no kernel with the package.
"""

import numpy as np


def mode_constants(model):
    """``(w, r)``: each mode's frequency, the level spacing of its term of ``h_b``,
    and its coupling, the ``<0|B|1>`` entry of its term of the one ``B``."""
    w = (model.hamiltonian[:, 1, 1] - model.hamiltonian[:, 0, 0]).real
    return w, model.couplings[0, :, 0, 1].real


def coherence_factor(run):
    """``exp(-2 sum_i |alpha_i(t)|^2)`` at every ``sample_every``-th cycle boundary.

    Each segment ``[s, s + dt]`` adds ``r_i y exp(i w_i s) (exp(i w_i dt) - 1) / (i w_i)``
    to ``alpha_i``."""
    w, r = mode_constants(run.model)
    schedule = run.schedule
    y = np.array([-1.0 if set(word) & set("XY") else 1.0 for word in schedule.segments])
    n = run.n_cycles * len(y)
    starts = np.arange(n) * schedule.delta_t
    pieces = (np.tile(y, run.n_cycles)[:, None] * np.exp(1j * w * starts[:, None])
              * (np.expm1(1j * w * schedule.delta_t) / (1j * w)))
    alpha = r * np.concatenate([np.zeros((1, len(w))), np.cumsum(pieces, axis=0)])
    return np.exp(-2.0 * np.sum(np.abs(alpha[::len(y) * run.sample_every]) ** 2, axis=1))


def reduced_states(run):
    """The exact reduced states at the run's sample times: ``rho_s0`` with its
    coherences times :func:`coherence_factor`."""
    factor = coherence_factor(run)
    states = np.repeat(run.rho_s0.matrix[None], len(factor), axis=0)
    states[:, 0, 1] *= factor
    states[:, 1, 0] *= factor
    return states
