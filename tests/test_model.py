"""System-bath model construction: bath grids, coupling channels, validation."""

import re
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from decoupling import (
    SCENARIO_NAMES,
    BathSpec,
    Operator,
    SimulationRun,
    SystemBathModel,
    build_model,
    build_schedule,
    build_system_bath_model,
    coupling_tables,
    evolve,
    parse_config,
    pauli_sum,
    pauli_word_operator,
    total_hamiltonian,
)
from decoupling.model import (COUPLING_KINDS, MIN_COUPLING_SCALE, _placed, bath_ground_vector,
                               coupling_gram, hamiltonian_matrix)
from decoupling.operators import DIM_CAP

import oracle_model
from oracle_model import DenseModel, _lifted, dense_parts, hand_built, tensor
from oracle_dm import bath_ground_state
from oracle_groups import all_words

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_bath_spec_validation():
    with pytest.raises(ValueError, match="^bath.kind: unknown bath kind 'lattice'"):
        BathSpec(kind="lattice", n_modes=2, cutoff=1.0, coupling_scale=0.1, seed=0)
    with pytest.raises(ValueError, match="^bath.n_modes: must be >= 1, got 0$"):
        BathSpec(kind="spin-bath", n_modes=0, cutoff=1.0, coupling_scale=0.1, seed=0)
    with pytest.raises(ValueError, match="^bath.cutoff: must be a positive finite number"):
        BathSpec(kind="spin-bath", n_modes=2, cutoff=-1.0, coupling_scale=0.1, seed=0)
    with pytest.raises(ValueError, match="^bath.coupling_scale: must be a positive finite number"):
        BathSpec(kind="spin-bath", n_modes=2, cutoff=1.0, coupling_scale=0.0, seed=0)
    # truncation only makes sense for boson baths
    with pytest.raises(ValueError, match="^bath.boson_truncation: only applies to boson-mode baths$"):
        BathSpec(kind="spin-bath", n_modes=2, cutoff=1.0, coupling_scale=0.1,
                 seed=0, boson_truncation=3)
    with pytest.raises(ValueError, match="^bath.boson_truncation: required for boson-mode baths$"):
        BathSpec(kind="boson-mode", n_modes=2, cutoff=1.0, coupling_scale=0.1, seed=0)
    with pytest.raises(ValueError, match="^bath.boson_truncation: must be >= 2, got 1$"):
        BathSpec(kind="boson-mode", n_modes=2, cutoff=1.0, coupling_scale=0.1,
                 seed=0, boson_truncation=1)


@pytest.mark.parametrize("name, value", [("n_modes", 2.5), ("n_modes", True),
                                         ("n_modes", 2.0), ("boson_truncation", 2.5),
                                         ("boson_truncation", True)])
def test_bath_spec_takes_only_integer_sizes(name, value):
    """A size that is not an ``int`` (a float, or a ``bool``) is rejected by name, not
    rounded into a Fock ladder or failed on inside numpy."""
    sizes = {"n_modes": 2, "boson_truncation": 3, name: value}
    with pytest.raises(ValueError, match=f"^bath.{name}: expected an integer"):
        BathSpec(kind="boson-mode", cutoff=1.0, coupling_scale=0.3, seed=7, **sizes)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["cutoff", "coupling_scale"])
def test_bath_spec_takes_only_finite_numbers(name, value):
    """A NaN or infinite cutoff or coupling scale is rejected by name, not failed on
    inside the frequency draw or misread later as linearly dependent couplings."""
    numbers = {"cutoff": 1.0, "coupling_scale": 0.3, name: value}
    with pytest.raises(ValueError, match=f"^bath.{name}: must be a positive finite number, got "):
        BathSpec(kind="spin-bath", n_modes=2, seed=7, **numbers)


@pytest.mark.parametrize("fields, message", [
    ({"n_modes": 10**12}, "bath.n_modes: bath dimension 2**1000000000000 exceeds the cap 4096"),
    ({"n_modes": 13}, "bath.n_modes: bath dimension 2**13 exceeds the cap 4096"),
    ({"kind": "boson-mode", "boson_truncation": 10**12, "n_modes": 1},
     "bath.n_modes: bath dimension 1000000000000**1 exceeds the cap 4096"),
    ({"cutoff": True}, "bath.cutoff: expected a number, got bool"),
    ({"cutoff": "1"}, "bath.cutoff: expected a number, got str"),
    ({"cutoff": 10**400}, "bath.cutoff: must be a positive finite number, got inf"),
    ({"coupling_scale": 1e-200},
     "bath.coupling_scale: must be at least 1.4916681462400413e-154"),
    ({"coupling_scale": 1e-320},
     "bath.coupling_scale: must be at least 1.4916681462400413e-154"),
    ({"seed": -1}, "bath.seed: must be >= 0, got -1"),
    ({"seed": 1.5}, "bath.seed: expected an integer, got float"),
    ({"seed": True}, "bath.seed: expected an integer, got bool"),
], ids=["n_modes-1e12", "n_modes-13", "truncation-1e12", "cutoff-bool", "cutoff-str",
        "cutoff-1e400", "coupling_scale-1e-200", "coupling_scale-1e-320", "seed-negative",
        "seed-float", "seed-bool"])
def test_bath_spec_names_the_field_of_each_bad_value(monkeypatch, fields, message):
    """Every rule on a bath field raises a ``ValueError`` that starts with the field's
    name, before any frequency is drawn: no ``TypeError`` or ``OverflowError`` of a bad
    type or a huge int, no numpy error of a negative seed, no array the size of a huge
    ``n_modes``."""
    def refuse(*args, **kwargs):
        raise AssertionError("a frequency was drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    spec = {"kind": "spin-bath", "n_modes": 2, "cutoff": 1.0, "coupling_scale": 0.3,
            "seed": 7, **fields}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        BathSpec(**spec)


def test_bath_spec_stores_its_numbers_as_floats():
    """An ``int`` cutoff or coupling scale, however large, is stored as the ``float`` it
    rounds to; the coupling scale may be as small as its bound, whose square is the
    smallest normal double."""
    spec = BathSpec(kind="spin-bath", n_modes=2, cutoff=10**300, coupling_scale=1, seed=7)
    assert type(spec.cutoff) is float and spec.cutoff == 1e300
    assert type(spec.coupling_scale) is float and spec.coupling_scale == 1.0
    assert MIN_COUPLING_SCALE**2 == np.finfo(float).tiny
    spec = BathSpec(kind="spin-bath", n_modes=2, cutoff=1.0, coupling_scale=MIN_COUPLING_SCALE,
                    seed=7)
    assert spec.coupling_scale == MIN_COUPLING_SCALE


def test_mode_frequency_grid():
    """Frequencies sit on a jittered uniform grid below the cutoff."""
    for seed in range(20):
        spec = BathSpec(kind="spin-bath", n_modes=5, cutoff=2.0,
                        coupling_scale=0.3, seed=seed)
        freqs = np.array(spec.mode_frequencies)
        assert len(freqs) == 5
        spacing = 2.0 / 5
        assert np.all(freqs <= 2.0 + 1e-12)
        assert np.all(freqs >= 0.5 * spacing - 1e-12)
        # each frequency stays within one jitter radius of its grid point
        base = spacing * np.arange(1, 6)
        assert np.all(np.abs(freqs - base) <= 0.1 * spacing + 1e-12)


def test_mode_frequencies_deterministic():
    a = BathSpec(kind="spin-bath", n_modes=4, cutoff=1.0, coupling_scale=0.2, seed=9)
    b = BathSpec(kind="spin-bath", n_modes=4, cutoff=1.0, coupling_scale=0.2, seed=9)
    c = BathSpec(kind="spin-bath", n_modes=4, cutoff=1.0, coupling_scale=0.2, seed=10)
    assert a.mode_frequencies == b.mode_frequencies
    assert a.mode_frequencies != c.mode_frequencies


def test_spin_bath_model_shape_and_spectrum():
    bath = BathSpec(kind="spin-bath", n_modes=4, cutoff=1.0, coupling_scale=0.4, seed=3)
    model = build_system_bath_model(1, bath, coupling="dephasing")
    assert model.system_dim == 2
    assert model.bath_dim == 16
    dense = dense_parts(model)
    assert dense.h_s.dims == (2,)
    assert len(dense.couplings) == 1
    sword, bop = dense.couplings[0]
    assert np.allclose(sword.matrix, SZ)
    # bath factor is normalized to the requested coupling scale
    assert abs(np.linalg.norm(bop.matrix, 2) - 0.4) < 1e-12
    # free bath spectrum lies inside +-(sum of frequencies)/2
    half_width = sum(bath.mode_frequencies) / 2
    evals = np.linalg.eigvalsh(dense.h_b.matrix)
    assert evals.min() >= -half_width - 1e-9
    assert evals.max() <= half_width + 1e-9


def test_spin_bath_coupling_is_transverse():
    """Bath coupling factors live in the span of single-site sigma_x/sigma_y."""
    bath = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0, coupling_scale=0.5, seed=8)
    model = build_system_bath_model(1, bath, coupling="dephasing")
    _, bop = dense_parts(model).couplings[0]
    # projecting onto the transverse single-site span reproduces the operator
    basis = []
    for i in range(3):
        for local in (SX, SY):
            ops = [np.eye(2, dtype=complex)] * 3
            ops[i] = local
            m = ops[0]
            for o in ops[1:]:
                m = np.kron(m, o)
            basis.append(m / np.linalg.norm(m))
    coeffs = [np.trace(b.conj().T @ bop.matrix) for b in basis]
    recon = sum(c * b for c, b in zip(coeffs, basis))
    assert np.max(np.abs(recon - bop.matrix)) < 1e-12


def test_spin_bath_builder_deterministic():
    bath = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0, coupling_scale=0.2, seed=12)
    m1 = build_system_bath_model(2, bath, coupling="linear-collective")
    m2 = build_system_bath_model(2, bath, coupling="linear-collective")
    assert m1.words == m2.words
    for name in ("hamiltonian", "couplings"):
        assert np.array_equal(getattr(m1, name), getattr(m2, name))


def test_coupling_kinds_give_expected_channel_counts():
    bath = BathSpec(kind="spin-bath", n_modes=4, cutoff=1.0, coupling_scale=0.2, seed=4)
    for n_qubits, coupling, n_channels in ((1, "dephasing", 1), (1, "total", 3),
                                           (2, "dephasing", 2), (2, "linear-collective", 3),
                                           (2, "linear-independent", 6)):
        model = build_system_bath_model(n_qubits, bath, coupling=coupling)
        assert len(model.words) == 1 + n_channels == 1 + len(model.couplings)
    with pytest.raises(ValueError):
        build_system_bath_model(1, bath, coupling="quadratic")


def test_coupling_tables_list_channels_site_then_letter():
    assert coupling_tables(2, "dephasing") == [{"ZI": 1.0}, {"IZ": 1.0}]
    assert coupling_tables(2, "linear-independent") == [
        {w: 1.0} for w in ("XI", "YI", "ZI", "IX", "IY", "IZ")]
    assert coupling_tables(2, "linear-collective") == [
        {"XI": 1.0, "IX": 1.0}, {"YI": 1.0, "IY": 1.0}, {"ZI": 1.0, "IZ": 1.0}]
    assert coupling_tables(2, "total") == [{w: 1.0} for w in all_words(2)[1:]]
    with pytest.raises(ValueError, match="quadratic"):
        coupling_tables(2, "quadratic")


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("kind", COUPLING_KINDS)
def test_spin_bath_couplings_are_their_word_tables(kind, n_qubits):
    """Channel by channel, the system factor's word table is the flavour's, and the
    package's Pauli sum of it is exactly the oracle's Kronecker-built matrix."""
    tables = coupling_tables(n_qubits, kind)
    n_modes = max(1, (len(tables) + 1) // 2)
    if n_modes > 8:  # 'total' on 3 qubits: 63 channels need 32 bath spins
        bath = BathSpec(kind="spin-bath", n_modes=8, cutoff=1.0, coupling_scale=0.2, seed=3)
        with pytest.raises(ValueError, match="63 coupling channels"):
            build_system_bath_model(n_qubits, bath, coupling=kind)
        return
    bath = BathSpec(kind="spin-bath", n_modes=n_modes, cutoff=1.0, coupling_scale=0.2, seed=3)
    model = build_system_bath_model(n_qubits, bath, coupling=kind)
    assert model.words[1:] == tuple(tables)
    for (s, _), table in zip(dense_parts(model).couplings, tables, strict=True):
        assert np.array_equal(s.matrix, pauli_sum(table, n_qubits).matrix)


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_boson_couplings_are_dephasing_word_tables(n_qubits):
    bath = BathSpec(kind="boson-mode", n_modes=n_qubits, cutoff=1.0, coupling_scale=0.3,
                    seed=2, boson_truncation=2)
    model = build_system_bath_model(n_qubits, bath)
    tables = coupling_tables(n_qubits, "dephasing")
    assert model.words[1:] == tuple(tables)
    for (s, _), table in zip(dense_parts(model).couplings, tables, strict=True):
        assert np.array_equal(s.matrix, pauli_sum(table, n_qubits).matrix)


def test_channel_count_capped_by_bath_size():
    """More coupling channels than transverse bath directions must fail."""
    tiny = BathSpec(kind="spin-bath", n_modes=1, cutoff=1.0, coupling_scale=0.2, seed=4)
    with pytest.raises(ValueError):
        build_system_bath_model(2, tiny, coupling="linear-independent")


def test_linear_dependence_rejected():
    z = pauli_word_operator("Z")
    x = pauli_word_operator("X")
    b = Operator(0.3 * SX, [2])
    with pytest.raises(ValueError, match="linearly dependent"):
        hand_built(DenseModel(Operator(np.zeros((2, 2), dtype=complex), [2]),
                              Operator(0.5 * SZ, [2]),
                              ((z, b), (x, Operator(2.0 * b.matrix, [2])))))


def test_total_hamiltonian_assembly():
    bath = BathSpec(kind="spin-bath", n_modes=2, cutoff=1.0, coupling_scale=0.3, seed=5)
    model = build_system_bath_model(1, bath, coupling="dephasing", h_s={"X": 0.7})
    h = total_hamiltonian(model)
    eye_b = np.eye(model.bath_dim, dtype=complex)
    eye_s = np.eye(2, dtype=complex)
    dense = dense_parts(model)
    want = np.kron(0.7 * SX, eye_b) + np.kron(eye_s, dense.h_b.matrix)
    for s, b in dense.couplings:
        want = want + np.kron(s.matrix, b.matrix)
    assert np.max(np.abs(h.matrix - want)) < 1e-13
    assert h.is_hermitian()
    assert h.dims == (2, 2, 2)


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("kind, n_qubits, n_modes, coupling, h_s", [
    ("spin-bath", 2, 3, "linear-collective", {"ZZ": 0.25, "ZI": 0.1, "XI": 0.3}),
    ("spin-bath", 2, 8, "total", {"ZZ": 0.25, "ZI": 0.1, "XI": 0.3}),
    ("boson-mode", 1, 2, "dephasing", {"X": 0.2}),
], ids=["linear-collective", "total", "boson"])
def test_hamiltonian_matrix_with_overlapping_h_s_words_is_the_kron_sum_bitwise(
        kind, n_qubits, n_modes, coupling, h_s, seed):
    """``h_s`` words that are also coupling words land on the same entries as those
    channels' terms: the placed joint Hamiltonian adds them in the oracle's order
    (``h_s``, then ``h_b``, then the channels), bit for bit its Kronecker sum."""
    bath = BathSpec(kind=kind, n_modes=n_modes, cutoff=1.0, coupling_scale=0.3, seed=seed,
                    boson_truncation=3 if kind == "boson-mode" else None)
    model = build_system_bath_model(n_qubits, bath, coupling=coupling, h_s=h_s)
    want = oracle_model.total_hamiltonian(model).matrix
    assert hamiltonian_matrix(model).tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [
    lambda: build_system_bath_model(
        2, BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0, coupling_scale=0.3, seed=7),
        coupling="linear-collective", h_s={"ZZ": 0.25, "XI": 0.3}),
    lambda: build_system_bath_model(
        1, BathSpec(kind="boson-mode", n_modes=2, cutoff=1.0, coupling_scale=0.3, seed=7,
                    boson_truncation=3), h_s={"X": 0.2}),
    lambda: hand_built(oracle_model.random_hermitian_parts(np.random.default_rng(1000))),
], ids=["spin", "boson", "hand-built"])
def test_the_oracle_builds_the_dense_view_without_the_package_kernel(monkeypatch, make):
    """The oracle's dense parts and total Hamiltonian come from the tables by ``np.kron``
    alone: with the package's placement routines made to raise, they are still built,
    while the package's own ``hamiltonian_matrix`` fails."""
    model = make()

    def refuse(*args):
        raise AssertionError("the oracle called a package placement routine")

    monkeypatch.setattr("decoupling.model._placed", refuse)
    monkeypatch.setattr("decoupling.model._pauli_sums", refuse)
    monkeypatch.setattr("decoupling.groups._pauli_sums", refuse)
    dense = dense_parts(model)
    assert len(dense.couplings) == len(model.words) - 1
    assert oracle_model.total_hamiltonian(model).dims == model.system_dims + model.bath_dims
    with pytest.raises(AssertionError, match="placement routine"):
        hamiltonian_matrix(model)


def test_bath_ground_state():
    """The package's bath ground vector gives the oracle's ground-state projector, the
    ``eigh`` ground vector of the Kronecker-built ``h_b``."""
    bath = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0, coupling_scale=0.2, seed=7)
    model = build_system_bath_model(1, bath, coupling="dephasing")
    ground = bath_ground_vector(model)
    rho = np.outer(ground, ground.conj())
    want = bath_ground_state(model)
    assert want.dims == (2, 2, 2)
    assert np.max(np.abs(rho - want.matrix)) < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12
    # purity of the projector
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", [3, 7, 1009])
@pytest.mark.parametrize("kind,n_modes", [("spin-bath", 4), ("spin-bath", 7),
                                          ("boson-mode", 2), ("boson-mode", 5)])
def test_bath_ground_vector_of_a_diagonal_bath_is_eighs_vector(monkeypatch, kind, n_modes, seed):
    """Both bath kinds build a diagonal ``h_b`` with one smallest entry: the
    ground vector, the product of the modes' ground vectors from one batched
    ``eigh`` of the ``(m, n, n)`` mode stack, is bit for bit ``eigh``'s of ``h_b``."""
    bath = BathSpec(kind=kind, n_modes=n_modes, cutoff=1.0, coupling_scale=0.3, seed=seed,
                    boson_truncation=3 if kind == "boson-mode" else None)
    model = build_system_bath_model(1, bath)
    want = np.linalg.eigh(dense_parts(model).h_b.matrix)[1][:, 0]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    got = bath_ground_vector(model)
    n = 3 if kind == "boson-mode" else 2
    assert calls == [(n_modes, n, n)]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("preset", [n for n in SCENARIO_NAMES if n != "custom"])
def test_a_presets_bath_ground_vector_is_the_unit_vector_bitwise(preset, seed):
    """The product of a preset's per-mode ground vectors is, bit for bit, the
    unit vector at the smallest diagonal entry of its diagonal ``h_b``."""
    model = build_model(parse_config({"scenario": preset, "seed": seed}))
    e = dense_parts(model).h_b.matrix.diagonal().real
    want = (np.arange(len(e)) == np.argmin(e)).astype(complex)
    assert bath_ground_vector(model).tobytes() == want.tobytes()


@pytest.mark.parametrize("h_b", [
    np.array([[0.3, 0.2], [0.2, -0.1]], dtype=complex),  # not diagonal
    np.diag([0.5, -0.2, -0.2, 0.1]).astype(complex),  # degenerate minimum
], ids=["off-diagonal", "degenerate"])
def test_bath_ground_vector_keeps_eigh_otherwise(monkeypatch, h_b):
    """A one-mode bath's ground vector is ``eigh``'s of its one term, bit for bit, from
    one ``eigh`` of the one-matrix stack."""
    model = hand_built(DenseModel(pauli_word_operator("Z"), Operator(h_b, [len(h_b)]), ()))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
    got = bath_ground_vector(model)
    assert len(calls) == 1
    assert got.tobytes() == eigh(h_b)[1][:, 0].tobytes()
    assert abs(np.vdot(got, h_b @ got).real - np.linalg.eigvalsh(h_b)[0]) < 1e-15


@pytest.mark.parametrize("seed", [3, 1009])
@pytest.mark.parametrize("kind,n_qubits,n_modes,coupling", [
    ("spin-bath", 1, 3, "dephasing"), ("spin-bath", 2, 4, "linear-independent"),
    ("spin-bath", 2, 3, "linear-collective"), ("spin-bath", 2, 8, "total"),
    ("spin-bath", 1, 7, "dephasing"), ("boson-mode", 2, 2, "dephasing"),
    ("boson-mode", 3, 3, "dephasing"), ("boson-mode", 1, 5, "dephasing"),
])
def test_bath_factors_match_the_kron_lifts_bitwise(kind, n_qubits, n_modes, coupling, seed):
    """``h_b`` and every ``B_a``, placed from the model's mode stacks, are bit for bit the
    per-mode terms of the bath spec's draws, scaled to the norm by the same per-mode
    eigenvalues, lifted by ``np.kron`` and summed in the builder's mode order: a change of
    term order fails here. So are the oracle's dense parts of the stacks."""
    bath = BathSpec(kind=kind, n_modes=n_modes, cutoff=1.0, coupling_scale=0.3, seed=seed,
                    boson_truncation=3 if kind == "boson-mode" else None)
    model = build_system_bath_model(n_qubits, bath, coupling=coupling)
    h_b, factors = oracle_model.kron_bath(bath, len(model.couplings))
    dense = dense_parts(model)
    assert _placed(model.hamiltonian).tobytes() == h_b.tobytes()
    assert dense.h_b.matrix.tobytes() == h_b.tobytes()
    for terms, (_, b), want in zip(model.couplings, dense.couplings, factors, strict=True):
        assert _placed(terms).tobytes() == want.tobytes()
        assert b.matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [3, 1009])
@pytest.mark.parametrize("kind,n_qubits,n_modes,coupling", [
    ("spin-bath", 2, 3, "dephasing"), ("spin-bath", 2, 4, "linear-independent"),
    ("spin-bath", 2, 3, "linear-collective"), ("spin-bath", 1, 3, "total"),
    ("boson-mode", 2, 2, "dephasing"), ("boson-mode", 1, 4, "dephasing"),
])
def test_product_path_terms_are_the_spec_draws_bitwise(kind, n_qubits, n_modes, coupling, seed):
    """The product path's per-mode Hamiltonians are bit for bit ``w_i h_mode + sum_a s_a(c)
    sum_k r_aik op_k``, ``E_c`` added on mode 0, and its ground vectors ``eigh``'s of
    ``w_i h_mode``, all from the bath spec's own draws with the rows ``r`` scaled to the
    norm before any product. A coupling kind with X or Y letters is read with its
    letters made Z, so that every register qubit is conserved."""
    bath = BathSpec(kind=kind, n_modes=n_modes, cutoff=1.0, coupling_scale=0.3, seed=seed,
                    boson_truncation=3 if kind == "boson-mode" else None)
    built = build_system_bath_model(n_qubits, bath, coupling=coupling)
    words = ({"Z" * n_qubits: 0.25},
             *({w.translate(str.maketrans("XY", "ZZ")): c for w, c in t.items()}
               for t in built.words[1:]))
    model = SystemBathModel(words, built.hamiltonian, built.couplings)
    h_mode, ops = oracle_model._mode_operators(bath)
    rows = oracle_model.scaled_rows(bath, len(words) - 1)
    terms = np.array(bath.mode_frequencies)[:, None, None] * h_mode
    s = np.array([pauli_sum(t, n_qubits).matrix.diagonal().real for t in words])
    want = terms + np.tensordot(s[1:].T, np.tensordot(rows, ops, axes=1), axes=1)
    want[:, 0] += s[0][:, None, None] * np.eye(len(h_mode))
    assert model._mode_hamiltonians.tobytes() == want.reshape(-1, *h_mode.shape).tobytes()
    ground = np.ascontiguousarray(np.linalg.eigh(terms)[1][..., 0])
    assert model._mode_ground.tobytes() == ground.tobytes()


def test_a_mode_table_copies_the_arrays_it_is_given():
    """A model holds read-only complex copies of its mode stacks: the caller's arrays stay
    writable, and writing to them, or to what they view, leaves the model unchanged."""
    base = np.array([0.5 * SZ.real, 0.25 * SZ.real, 0.7 * SZ.real])
    h, b = base[:2], np.array([[0.3 * SX, 0.2 * SY]])
    model = SystemBathModel(({"Z": 0.1}, {"Z": 1.0}), h, b)
    h[0, 0, 0], base[1, 1, 1], b[0, 0, 0, 1] = 2.0, -2.0, 2.0
    assert h.flags.writeable and b.flags.writeable
    assert not (model.hamiltonian.flags.writeable or model.couplings.flags.writeable)
    assert model.hamiltonian.dtype == model.couplings.dtype == complex
    assert model.hamiltonian.tobytes() == np.array([0.5 * SZ, 0.25 * SZ]).tobytes()
    assert model.couplings.tobytes() == np.array([[0.3 * SX, 0.2 * SY]]).tobytes()


def test_mode_table_must_match_the_bath():
    bath = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0, coupling_scale=0.3, seed=3)
    model = build_system_bath_model(2, bath)
    for bad in ({"hamiltonian": model.hamiltonian[:2]}, {"couplings": model.couplings[:, :2]},
                {"couplings": model.couplings[0]}):
        with pytest.raises(ValueError, match="the mode stacks of shapes .* do not agree"):
            replace(model, **bad)


@pytest.mark.parametrize("kind,n_qubits,n_modes,coupling", [
    ("spin-bath", 1, 1, "dephasing"), ("spin-bath", 1, 3, "dephasing"),
    ("spin-bath", 2, 4, "linear-independent"), ("spin-bath", 2, 3, "linear-collective"),
    ("spin-bath", 1, 3, "total"), ("boson-mode", 1, 1, "dephasing"),
    ("boson-mode", 2, 2, "dephasing"), ("boson-mode", 3, 4, "dephasing"),
])
def test_table_gram_is_the_dense_gram(kind, n_qubits, n_modes, coupling):
    """The model checks a builder's bath on its mode stacks: the Gram from
    per-mode traces is that of the placed ``B_a``."""
    bath = BathSpec(kind=kind, n_modes=n_modes, cutoff=1.0, coupling_scale=0.3, seed=3,
                    boson_truncation=3 if kind == "boson-mode" else None)
    model = build_system_bath_model(n_qubits, bath, coupling=coupling)
    couplings = dense_parts(model).couplings
    want = np.array([[np.vdot(a.matrix, b.matrix) for _, b in couplings]
                     for _, a in couplings])
    assert np.max(np.abs(coupling_gram(model.couplings) - want)) <= 1e-12 * np.max(np.abs(want))


def test_table_gram_counts_traced_mode_operators():
    """Cross terms between modes carry the terms' traces: a stack whose terms have traces
    that differ from mode to mode, some complex (not terms the builder draws), still gives
    the Gram of the operators it places, so a wrong pairing of modes ``i != j`` fails."""
    bath = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0, coupling_scale=0.3, seed=3)
    model = build_system_bath_model(2, bath, coupling="dephasing")
    shifts = np.array([[0.5, -0.3 + 0.2j, 0.1], [0.2j, 0.7, -0.4 - 0.1j]])[..., None, None]
    shifts = shifts * np.eye(2)  # tr(b_ai) differs from mode to mode, complex on some
    couplings = model.couplings + shifts
    placed = [_lifted(terms) for terms in couplings]
    want = np.array([[np.vdot(a, b) for b in placed] for a in placed])
    assert np.max(np.abs(coupling_gram(couplings) - want)) <= 1e-12 * np.max(np.abs(want))


def test_table_models_reject_what_dense_checks_reject():
    bath = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0, coupling_scale=0.3, seed=3)
    model = build_system_bath_model(2, bath)
    dependent = model.couplings.copy()
    dependent[1] = 2.0 * dependent[0]
    with pytest.raises(ValueError, match="linearly dependent"):
        replace(model, couplings=dependent)
    skewed = model.couplings.copy()
    skewed[0, 1] = [[0, 1], [0, 0]]
    with pytest.raises(ValueError, match="coupling 0 is not Hermitian"):
        replace(model, couplings=skewed)
    with pytest.raises(ValueError, match="coupling 1 is not Hermitian"):
        replace(model, couplings=model.couplings * np.array([1, 1j])[:, None, None, None])
    h = model.hamiltonian.copy()
    h[2] = [[0, 1], [0, 0]]
    with pytest.raises(ValueError, match="bath Hamiltonian is not Hermitian"):
        replace(model, hamiltonian=h)


def test_builder_model_places_no_bath_matrix():
    """A model is exactly its tables and caches no dense operator: its dims come from
    its tables, and after a joint-path run it holds, besides them, only the joint
    spectrum and the per-mode arrays."""
    config = parse_config({"scenario": "maximal-averaging", "seed": 7, "n_cycles": 4})
    model = build_model(config)
    tables = ["words", "hamiltonian", "couplings"]
    assert [f.name for f in fields(model)] == tables
    assert set(vars(model)) == set(tables)
    assert model.bath_dim == 16 and model.bath_dims == (2,) * 4
    total_hamiltonian(model)
    assert set(vars(model)) == set(tables)
    run = SimulationRun(model=model, schedule=build_schedule(config), n_cycles=4,
                        rho_s0=config.rho_s0)
    assert evolve(run).path == "joint"
    assert "_joint_spectrum" in vars(model)
    assert set(vars(model)) <= {*tables, "_joint_spectrum", "_mode_ground", "_mode_hamiltonians"}


def test_boson_model_structure():
    bath = BathSpec(kind="boson-mode", n_modes=2, cutoff=1.0, coupling_scale=0.3,
                    seed=2, boson_truncation=4)
    model = build_system_bath_model(1, bath)
    assert model.bath_dim == 16
    # free bath spectrum is a sum of harmonic ladders: omega * {0..3}
    dense = dense_parts(model)
    evals = np.linalg.eigvalsh(dense.h_b.matrix)
    w1, w2 = bath.mode_frequencies
    want = sorted(w1 * n1 + w2 * n2 for n1 in range(4) for n2 in range(4))
    assert np.allclose(sorted(evals), want, atol=1e-10)
    # couplings are pure dephasing on the system side
    for s, b in dense.couplings:
        assert np.allclose(s.matrix, SZ)
        assert b.is_hermitian()
    with pytest.raises(ValueError):
        build_system_bath_model(3, bath)  # more qubits than modes


def test_boson_bath_takes_only_dephasing():
    boson = BathSpec(kind="boson-mode", n_modes=3, cutoff=1.0, coupling_scale=0.3,
                     seed=2, boson_truncation=2)
    for coupling in ("linear-independent", "linear-collective", "total"):
        with pytest.raises(ValueError, match="support only 'dephasing'"):
            build_system_bath_model(1, boson, coupling=coupling)


def _spin_cases():
    for kind in COUPLING_KINDS:
        for n_qubits in (1, 2, 3):
            needed = -(-len(coupling_tables(n_qubits, kind)) // 2)
            for n_modes in (needed, needed + 1):
                if 2 ** (n_qubits + n_modes) <= DIM_CAP:
                    yield kind, n_qubits, n_modes


def _assert_models_bitwise_equal(got, want):
    """The model's tables, read by the oracle, give the old builder's parts bit for bit
    but for the bath factors: the builder takes their spectral norm from per-mode
    eigenvalues instead of an SVD, which moves their last bits, so they agree to 1e-14
    relative. The package places the joint Hamiltonian from the tables bit for bit as
    the oracle's Kronecker sum of them."""
    dense = dense_parts(got)
    assert np.array_equal(dense.h_s.matrix, want.h_s.matrix)
    assert np.array_equal(dense.h_b.matrix, want.h_b.matrix)
    assert dense.h_b.dims == want.h_b.dims
    assert len(dense.couplings) == len(want.couplings)
    for (s, b), (s_want, b_want) in zip(dense.couplings, want.couplings):
        assert np.array_equal(s.matrix, s_want.matrix)
        assert np.max(np.abs(b.matrix - b_want.matrix)) <= 1e-14 * np.max(np.abs(b_want.matrix))
    total = total_hamiltonian(got)
    assert total.dims == want.h_s.dims + want.h_b.dims
    assert total.matrix.tobytes() == oracle_model.total_hamiltonian(got).matrix.tobytes()


@pytest.mark.parametrize("seed", [3, 1009])
@pytest.mark.parametrize("kind,n_qubits,n_modes", list(_spin_cases()))
def test_spin_builder_matches_the_old_builder_bitwise(kind, n_qubits, n_modes, seed):
    bath = BathSpec(kind="spin-bath", n_modes=n_modes, cutoff=1.0, coupling_scale=0.3,
                    seed=seed)
    h_s = {"X" * n_qubits: 0.3, "Z" + "I" * (n_qubits - 1): 0.2}
    _assert_models_bitwise_equal(
        build_system_bath_model(n_qubits, bath, coupling=kind, h_s=h_s),
        oracle_model.build_spin_bath_model(n_qubits, bath, coupling=kind,
                                           h_s=pauli_sum(h_s, n_qubits)),
    )


@pytest.mark.parametrize("seed", [3, 1009])
@pytest.mark.parametrize("truncation", [2, 3, 4])
@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_boson_builder_matches_the_old_builder_bitwise(n_qubits, truncation, seed):
    bath = BathSpec(kind="boson-mode", n_modes=n_qubits, cutoff=1.5, coupling_scale=0.3,
                    seed=seed, boson_truncation=truncation)
    _assert_models_bitwise_equal(
        build_system_bath_model(n_qubits, bath),
        oracle_model.build_boson_dephasing_model(n_qubits, bath),
    )


def kron_oracle(a, b):
    """Tensor product by explicit index loops."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


def test_tensor_against_index_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        got = tensor(Operator(a, [2]), Operator(b, [3]))
        assert got.dims == (2, 3)
        assert np.allclose(got.matrix, kron_oracle(a, b), atol=1e-13)
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    chained = tensor(tensor(Operator(a, [2]), Operator(b, [3])), Operator(c, [2]))
    assert chained.dims == (2, 3, 2)
    assert np.allclose(chained.matrix, kron_oracle(kron_oracle(a, b), c), atol=1e-13)


# -- word tables of hand-built models ------------------------------------------


def _random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def _random_register_model(n_qubits):
    """A random Hermitian ``h_s`` and two random channels on ``n_qubits`` qubits, with a
    random 3-level bath."""
    rng = np.random.default_rng(40 + n_qubits)
    dims = (2,) * n_qubits

    def system():
        return Operator(_random_hermitian(rng, 2**n_qubits), dims)

    return DenseModel(system(), Operator(_random_hermitian(rng, 3), [3]),
                      tuple((system(), Operator(_random_hermitian(rng, 3), [3]))
                            for _ in range(2)))


def _oracle_spin_model(kind, n_qubits):
    n_modes = next(m for k, n, m in _spin_cases() if (k, n) == (kind, n_qubits))
    bath = BathSpec(kind="spin-bath", n_modes=n_modes, cutoff=1.0, coupling_scale=0.3, seed=3)
    h_s = Operator(_random_hermitian(np.random.default_rng(n_qubits), 2**n_qubits),
                   (2,) * n_qubits)
    return oracle_model.build_spin_bath_model(n_qubits, bath, coupling=kind, h_s=h_s)


def _oracle_boson_model(n_qubits):
    bath = BathSpec(kind="boson-mode", n_modes=n_qubits, cutoff=1.5, coupling_scale=0.3,
                    seed=3, boson_truncation=3)
    return oracle_model.build_boson_dephasing_model(
        n_qubits, bath, h_s=pauli_sum({"X" * n_qubits: 0.3, "Z" * n_qubits: -0.2}, n_qubits))


#: Dense parts the tests build models from, by name: the two oracle builders', the
#: criterion-07 models', those of criterion 12's model, the ground-vector models
#: here, the echo-limit model of ``test_evolve`` and random Hermitian registers.
HAND_BUILT = {
    **{f"oracle-spin-{kind}-K{n}": partial(_oracle_spin_model, kind, n)
       for kind in COUPLING_KINDS for n in (1, 2, 3)
       if any((k, q) == (kind, n) for k, q, _ in _spin_cases())},
    **{f"oracle-boson-K{n}": partial(_oracle_boson_model, n) for n in (1, 2, 3)},
    **{f"criterion-07-{seed}": lambda seed=seed: oracle_model.random_hermitian_parts(
        np.random.default_rng(1000 + seed)) for seed in range(10)},
    "criterion-12": lambda: dense_parts(
        oracle_model.commuting_dephasing_model(np.random.default_rng(5))),
    **{f"ground-vector-{name}": partial(
        DenseModel, pauli_word_operator("Z"), Operator(h_b, [len(h_b)]), ()) for name, h_b in (
            ("off-diagonal", np.array([[0.3, 0.2], [0.2, -0.1]], dtype=complex)),
            ("degenerate", np.diag([0.5, -0.2, -0.2, 0.1]).astype(complex)))},
    "echo-limit": partial(
        DenseModel, Operator(np.zeros((2, 2), dtype=complex), [2]), Operator(0.7 * SZ, [2]),
        ((pauli_word_operator("Z"), Operator(0.4 * SZ, [2])),)),
    **{f"random-K{n}": partial(_random_register_model, n) for n in (1, 2, 3)},
}


def _system_matrices(dense):
    return [dense.h_s.matrix] + [s.matrix for s, _ in dense.couplings]


@pytest.mark.parametrize("make", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_a_hand_built_models_tables_resum_to_its_matrices(make):
    """A model made from dense parts derives its word tables from them: one real,
    nonzero coefficient per word, and the tables re-sum to ``h_s`` and each
    ``S_a`` within 1e-15 of their largest entry. Its one-mode bath places
    ``h_b`` and each ``B_a`` back as they were."""
    dense = make()
    model = hand_built(dense)
    n_qubits = len(dense.h_s.dims)
    assert len(model.hamiltonian) == 1
    assert isinstance(model.words, tuple)
    assert len(model.words) == 1 + len(dense.couplings)
    for table, s in zip(model.words, _system_matrices(dense)):
        assert all(type(c) is float and c != 0.0 for c in table.values())
        assert all(len(w) == n_qubits and not w.strip("IXYZ") for w in table)
        err = np.max(np.abs(pauli_sum(table, n_qubits).matrix - s))
        assert err <= 1e-15 * np.max(np.abs(s))
    got = dense_parts(model)
    assert np.array_equal(got.h_b.matrix, dense.h_b.matrix)
    for (_, b), (_, want) in zip(got.couplings, dense.couplings, strict=True):
        assert np.array_equal(b.matrix, want.matrix)


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("preset", [n for n in SCENARIO_NAMES if n != "custom"])
def test_a_hand_built_copy_derives_the_builders_tables(preset, seed):
    """A hand-built copy of a preset's model gets the builder's tables back,
    each coefficient within 1e-15 of its matrix's largest entry, with no
    extra word."""
    model = build_model(parse_config({"scenario": preset, "seed": seed}))
    dense = dense_parts(model)
    copy = hand_built(dense)
    assert len(copy.words) == len(model.words)
    for got, want, s in zip(copy.words, model.words, _system_matrices(dense)):
        assert set(got) <= set(want)
        tol = 1e-15 * np.max(np.abs(s))
        assert all(abs(got.get(w, 0.0) - c) <= tol for w, c in want.items())


def _one_mode_stacks(n_channels):
    return (0.5 * SZ)[None], np.array([0.3 * SX, 0.3 * SY, 0.3 * SZ])[:n_channels, None]


@pytest.mark.parametrize("words, n_channels, message", [
    (({"Z": 0.5}, {"Z": 1.0}, {"XY": 1.0}), 2,
     "coupling 1.XY: 'XY' is not a 1-letter Pauli word"),
    (({"Z": 0.5}, {"Z": 1.0}, {"X": 1j}), 2, "coupling 1.X: expected a number, got complex"),
    (({"Z": 0.5j}, {"Z": 1.0}), 1, "h_s.Z: expected a number, got complex"),
    (({"Z": 0.5}, {"Z": 1.0}, {"X": 1.0}), 3,
     "coupling 2: the couplings have 3 channels, the word tables 2"),
    (({"Z": 0.5}, {"Z": 1.0}, {"X": 1.0}), 1,
     "coupling 1: the couplings have 1 channels, the word tables 2"),
], ids=["wrong-length", "imaginary", "imaginary-h_s", "too-few-tables", "too-many-tables"])
def test_word_tables_are_checked_against_the_register_and_the_mode_table(words, n_channels,
                                                                         message):
    """The register is its word tables: a word of other than ``K`` letters (``K``
    from the first word), an imaginary coefficient, and a channel count other than
    the couplings' are each rejected, and the error names the table."""
    with pytest.raises(ValueError, match=re.escape(message)):
        SystemBathModel(words, *_one_mode_stacks(n_channels))
