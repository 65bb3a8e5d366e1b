"""Cycle schedules: construction, symmetrization, pulse decomposition."""

import numpy as np
import pytest

from decoupling import (
    CycleSchedule,
    Operator,
    Segment,
    boundary_pulses,
    pauli_group,
    pauli_word_operator,
    schedule_from_group,
    schedule_from_record,
    schedule_to_record,
    symmetrize,
    trivial_group,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(frame=Operator(1.5 * np.eye(2, dtype=complex), [2]), label="bad")


def test_schedule_basic_properties():
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.25)
    assert sched.n_segments == 4
    assert abs(sched.cycle_time - 1.0) < 1e-15
    assert sched.dims == (2,)
    assert [s.label for s in sched.segments] == ["I", "X", "Y", "Z"]
    with pytest.raises(ValueError):
        schedule_from_group(pauli_group(1, "full"), delta_t=0.0)
    with pytest.raises(ValueError):
        schedule_from_group(pauli_group(1, "full"), delta_t=float("nan"))


def test_custom_ordering_is_validated():
    group = pauli_group(1, "full")
    sched = schedule_from_group(group, delta_t=0.1, ordering=[0, 2, 1, 3])
    assert [s.label for s in sched.segments] == ["I", "Y", "X", "Z"]
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
    labels = [s.label for s in sym.segments]
    assert labels == ["I", "X", "Y", "Z", "Z", "Y", "X", "I"]
    for a, b in zip(sym.segments, reversed(sym.segments)):
        assert np.array_equal(a.frame.matrix, b.frame.matrix)
    with pytest.raises(ValueError):
        symmetrize(sym)


def test_palindrome_detection():
    x = Segment(frame=pauli_word_operator("I"), label="I")
    y = Segment(frame=pauli_word_operator("X"), label="X")
    with pytest.raises(ValueError, match="palindromic"):
        CycleSchedule(segments=(x, y), delta_t=0.1, symmetric=True)


def test_boundary_pulses_reconstruct_frames():
    """The pulse between segments carries frame j to frame j+1 exactly."""
    group = pauli_group(1, "full")
    for ordering in (None, [0, 2, 3, 1]):
        sched = schedule_from_group(group, delta_t=0.2, ordering=ordering)
        pulses = boundary_pulses(sched)
        frames = [s.frame for s in sched.segments]
        n = len(frames)
        for j, p in enumerate(pulses):
            assert p.is_unitary()
            want = frames[(j + 1) % n].matrix
            got = p.matrix @ frames[j].matrix
            assert np.max(np.abs(got - want)) < 1e-12


def test_natural_full_group_cycle_uses_two_pulse_axes():
    """The identity-X-Y-Z ordering is driven by alternating X and Z pulses
    up to phase."""
    sched = schedule_from_group(pauli_group(1, "full"), delta_t=0.1)
    pulses = boundary_pulses(sched)
    seen = []
    for p in pulses:
        for name, mat in (("X", SX), ("Z", SZ)):
            overlap = abs(np.trace(mat.conj().T @ p.matrix)) / 2
            if abs(overlap - 1.0) < 1e-12:
                seen.append(name)
    assert seen == ["X", "Z", "X", "Z"]


def test_trivial_schedule_has_identity_pulse():
    sched = schedule_from_group(trivial_group(1), delta_t=0.5)
    pulses = boundary_pulses(sched)
    assert len(pulses) == 1
    assert np.allclose(pulses[0].matrix, np.eye(2))


def test_record_round_trip():
    group = pauli_group(2, "collective")
    sched = schedule_from_group(group, delta_t=0.05, ordering=[0, 2, 1, 3])
    rec = schedule_to_record(sched)
    assert rec == {
        "group": ["II", "XX", "YY", "ZZ"],
        "delta_t": 0.05,
        "ordering": [0, 2, 1, 3],
        "symmetric": False,
    }
    back = schedule_from_record(rec)
    assert [s.label for s in back.segments] == [s.label for s in sched.segments]
    for a, b in zip(back.segments, sched.segments):
        assert np.array_equal(a.frame.matrix, b.frame.matrix)

    sym = symmetrize(sched)
    rec2 = schedule_to_record(sym)
    assert rec2["symmetric"] is True
    back2 = schedule_from_record(rec2)
    assert back2.symmetric
    assert back2.n_segments == 8


def test_record_rejects_unknown_or_missing_keys():
    rec = schedule_to_record(schedule_from_group(pauli_group(1, "flip"), delta_t=0.1))
    extra = dict(rec, color="red")
    with pytest.raises(ValueError):
        schedule_from_record(extra)
    missing = {k: v for k, v in rec.items() if k != "delta_t"}
    with pytest.raises(ValueError):
        schedule_from_record(missing)
