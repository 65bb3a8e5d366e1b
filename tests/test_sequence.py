"""Cycle schedules: construction, symmetrization, pulse words, the summary record."""

import numpy as np
import pytest

from decoupling import (
    boundary_pulses,
    pauli_group,
    pauli_word_operator,
    schedule_from_group,
    schedule_to_record,
    symmetrize,
    trivial_group,
)


def test_schedule_basic_properties():
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.25)
    assert sched.n_segments == 4
    assert abs(sched.cycle_time - 1.0) < 1e-15
    assert sched.dims == (2,)
    assert sched.segments == ("I", "X", "Y", "Z")
    for word, frame in zip(sched.segments, sched.frames):
        assert np.array_equal(frame, pauli_word_operator(word).matrix)
    with pytest.raises(ValueError):
        schedule_from_group(pauli_group(1, "full"), delta_t=0.0)
    with pytest.raises(ValueError):
        schedule_from_group(pauli_group(1, "full"), delta_t=float("nan"))


def test_an_overflowing_cycle_time_is_rejected():
    """A ``delta_t`` whose cycle time ``n_segments * delta_t`` is not finite
    is rejected by name, also when only the mirrored cycle overflows."""
    with pytest.raises(ValueError, match="delta_t"):
        schedule_from_group(pauli_group(1, "full"), delta_t=1e308)
    with pytest.raises(ValueError, match="delta_t"):
        schedule_from_group(pauli_group(1, "full"), delta_t=np.float64(1e308))
    plain = schedule_from_group(pauli_group(1, "flip"), delta_t=0.6e308)
    assert plain.cycle_time == 1.2e308
    with pytest.raises(ValueError, match="delta_t"):
        symmetrize(plain)


def test_custom_ordering_is_validated():
    group = pauli_group(1, "full")
    sched = schedule_from_group(group, delta_t=0.1, ordering=[0, 2, 1, 3])
    assert sched.segments == ("I", "Y", "X", "Z")
    assert sched.ordering == (0, 2, 1, 3)
    with pytest.raises(ValueError):
        schedule_from_group(group, delta_t=0.1, ordering=[0, 1, 2])
    with pytest.raises(ValueError):
        schedule_from_group(group, delta_t=0.1, ordering=[0, 1, 2, 2])
    with pytest.raises(ValueError):
        schedule_from_group(group, delta_t=0.1, ordering=[1, 2, 3, 4])


def test_symmetrize_appends_explicit_mirror():
    """Symmetrization doubles the segment list; nothing is merged."""
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.1)
    sym = symmetrize(sched)
    assert sym.symmetric
    assert sym.n_segments == 8
    assert abs(sym.cycle_time - 2 * sched.cycle_time) < 1e-15
    assert sym.segments == ("I", "X", "Y", "Z", "Z", "Y", "X", "I")
    for a, b in zip(sym.frames, reversed(sym.frames)):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        symmetrize(sym)


def test_boundary_pulses_reconstruct_frames():
    """Pulse word j carries frame j to frame j+1, up to a unit-modulus phase."""
    group = pauli_group(2, "full")
    for ordering in (None, list(np.random.default_rng(5).permutation(16))):
        sched = symmetrize(schedule_from_group(group, delta_t=0.2, ordering=ordering))
        pulses = boundary_pulses(sched.segments)
        frames = sched.frames
        n = len(frames)
        assert len(pulses) == n
        for j, p in enumerate(pulses):
            dense = frames[(j + 1) % n] @ frames[j].conj().T
            word = pauli_word_operator(p).matrix
            phase = np.trace(word.conj().T @ dense) / 4
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.max(np.abs(dense - phase * word)) < 1e-12


def test_natural_full_group_cycle_uses_two_pulse_axes():
    """The identity-X-Y-Z ordering is driven by alternating X and Z pulses
    up to phase."""
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.1)
    assert boundary_pulses(sched.segments) == ["X", "Z", "X", "Z"]


def test_trivial_schedule_has_identity_pulse():
    sched = schedule_from_group(trivial_group(1), delta_t=0.5)
    assert boundary_pulses(sched.segments) == ["I"]


def test_schedule_record_fields():
    group = pauli_group(2, "collective")
    sched = schedule_from_group(group, delta_t=0.05, ordering=[0, 2, 1, 3])
    assert schedule_to_record(sched) == {
        "group": ["II", "XX", "YY", "ZZ"],
        "delta_t": 0.05,
        "ordering": [0, 2, 1, 3],
        "symmetric": False,
    }
    assert schedule_to_record(symmetrize(sched))["symmetric"] is True
