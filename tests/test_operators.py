"""Checks for the dense operator layer against small hand-rolled oracles.

Every numerical identity is compared against an independent
implementation (index loops, Taylor series, eigenvalue sums) rather
than against the code under test.
"""

import numpy as np
import pytest

from decoupling import Operator, expm_hermitian

from oracle_dm import commutator, partial_trace_bath, trace_distance


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng, d):
    m = random_matrix(rng, d)
    return (m + m.conj().T) / 2


def random_density(rng, d):
    m = random_matrix(rng, d)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def expm_oracle(h, t):
    """exp(-i h t) by scaled Taylor series."""
    a = -1j * t * h
    # scale down so the series converges fast, then square back up
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 2), 1e-30)))) + 1)
    a = a / (2**s)
    term = np.eye(h.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 40):
        term = term @ a / k
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def partial_trace_oracle(rho, ds, db):
    out = np.zeros((ds, ds), dtype=complex)
    for i in range(ds):
        for j in range(ds):
            for b in range(db):
                out[i, j] += rho[i * db + b, j * db + b]
    return out


def test_operator_validation_and_immutability():
    mat = np.eye(2, dtype=complex)
    op = Operator(mat, [2])
    assert op.dims == (2,)
    assert op.dim == 2
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3)), [2])
    with pytest.raises(ValueError):
        Operator(np.eye(4), [2])  # dims product mismatch
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0
    # mutating the source array after construction must not leak in
    mat[0, 0] = 7.0
    assert op.matrix[0, 0] == 1.0


def test_arithmetic_matches_numpy():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = random_matrix(rng, 4)
        oa = Operator(a, [2, 2])
        assert abs(oa.trace() - np.trace(a)) < 1e-12
        assert abs(oa.norm() - np.linalg.norm(a)) < 1e-12
        assert abs(oa.max_abs() - np.abs(a).max()) < 1e-12


def test_hermitian_predicate():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 3)
    assert Operator(h, [3]).is_hermitian()
    assert not Operator(h + 1e-6 * 1j * np.eye(3), [3]).is_hermitian()
    # scale invariance: a large Hermitian matrix stays Hermitian
    assert Operator(1e9 * h, [3]).is_hermitian()


def test_commutator_oracle():
    rng = np.random.default_rng(13)
    a = random_matrix(rng, 4)
    b = random_matrix(rng, 4)
    got = commutator(a, b)
    assert np.allclose(got, a @ b - b @ a, atol=1e-13)


def test_expm_hermitian_against_taylor_series():
    rng = np.random.default_rng(17)
    for d, t in ((2, 0.7), (4, 1.3), (6, 0.2)):
        h = random_hermitian(rng, d)
        got = expm_hermitian(Operator(h, [d]), t)
        want = expm_oracle(h, t)
        assert np.max(np.abs(got.matrix - want)) < 1e-11
        assert np.max(np.abs(got.matrix.conj().T @ got.matrix - np.eye(d))) <= 1e-10


def test_expm_hermitian_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        expm_hermitian(Operator(m, [2]), 1.0)


def test_expm_group_property():
    """exp(-iH(s+t)) equals exp(-iHs) exp(-iHt)."""
    rng = np.random.default_rng(19)
    h = Operator(random_hermitian(rng, 4), [4])
    u = expm_hermitian(h, 0.4).matrix @ expm_hermitian(h, 0.9).matrix
    v = expm_hermitian(h, 1.3)
    assert np.max(np.abs(u - v.matrix)) < 1e-12


def test_partial_trace_against_index_sums():
    rng = np.random.default_rng(23)
    rho = random_density(rng, 12)
    op = Operator(rho, [2, 2, 3])
    red = partial_trace_bath(op, n_system_factors=2)
    assert red.dims == (2, 2)
    assert np.allclose(red.matrix, partial_trace_oracle(rho, 4, 3), atol=1e-13)
    assert abs(red.trace() - 1.0) < 1e-12


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(29)
    rho_s = random_density(rng, 2)
    rho_b = random_density(rng, 4)
    joint = Operator(np.kron(rho_s, rho_b), [2, 2, 2])
    red = partial_trace_bath(joint, n_system_factors=1)
    assert np.allclose(red.matrix, rho_s, atol=1e-13)


def test_trace_distance_against_eigenvalue_oracle():
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = random_density(rng, 4)
        b = random_density(rng, 4)
        got = trace_distance(Operator(a, [4]), Operator(b, [4]))
        want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b)))
        assert abs(got - want) < 1e-12
    # orthogonal pure states sit at the maximal distance 1
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(Operator(p0, [2]), Operator(p1, [2])) - 1.0) < 1e-12
