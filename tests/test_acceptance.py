"""End-to-end acceptance checks for the decoupling package.

Thirteen independent criteria cover the projector algebra, the link
between time averaging and group averaging, commutant computations,
minimal-group search, Magnus convergence orders, schedule symmetry,
freeze-out of maximally averaged dynamics, error scaling exponents,
selective logic preservation, exact echo limits, and bit-level CLI
reproducibility. Each test prints a single PASS/FAIL line with the
measured figure so a run log doubles as a report.
"""

import itertools
import json
import time

import numpy as np
import pytest

from decoupling import (
    BathSpec,
    DecouplingGroup,
    Operator,
    SimulationRun,
    average_h0,
    average_h1,
    build_model,
    build_schedule,
    build_system_bath_model,
    commutant_basis,
    evolve,
    minimal_group_search,
    parse_config,
    pauli_group,
    pauli_word_operator,
    project_commutant,
    run_sweep,
    schedule_from_group,
    symmetrize,
    trivial_group,
    truncation_error,
)
from decoupling.cli import main as cli_main

from oracle_model import (commuting_dephasing_model, dense_parts, hand_built,
                          random_hermitian_parts)


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:02d}] {label}: {status}{suffix}")
    return ok


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_01_projector_algebra():
    """Idempotent, unital, trace preserving, commutant valued, and
    independent of element phases, across five groups, residuals 1e-10."""
    rng = np.random.default_rng(1)
    groups = [trivial_group(1), pauli_group(1, "flip"), pauli_group(2, "collective"),
              pauli_group(1, "full"), pauli_group(2, "full")]
    worst = 0.0
    for _ in range(100):
        draws = {2: random_matrix(rng, 2), 4: random_matrix(rng, 4)}
        phases = rng.uniform(0.0, 2 * np.pi, size=16)
        for group in groups:
            s = Operator(draws[group.dim], group.dims)
            p = project_commutant(s, group)
            p2 = project_commutant(p, group)
            worst = max(worst, float(np.max(np.abs(p2.matrix - p.matrix))))
            eye = Operator(np.eye(group.dim, dtype=complex), group.dims)
            worst = max(worst, float(np.max(np.abs(
                project_commutant(eye, group).matrix - eye.matrix))))
            worst = max(worst, abs(p.trace() - s.trace()))
            for g in (pauli_word_operator(w) for w in group.labels):
                comm = g.matrix @ p.matrix - p.matrix @ g.matrix
                worst = max(worst, float(np.max(np.abs(comm))))
            phased = np.zeros_like(s.matrix)
            for k, g in enumerate(pauli_word_operator(w) for w in group.labels):
                u = np.exp(1j * phases[k]) * g.matrix
                phased = phased + u.conj().T @ s.matrix @ u
            phased /= group.order
            worst = max(worst, float(np.max(np.abs(phased - p.matrix))))
    assert report(1, "projector algebra", worst <= 1e-10,
                  f"max residual {worst:.2e}")


def test_02_time_average_equals_factor_projection():
    """The zeroth-order average Hamiltonian equals the group projection
    applied factor-wise, for 3 model kinds x 4 groups."""
    h_s = {"X": 0.1, "Z": 0.3}
    spin = BathSpec(kind="spin-bath", n_modes=3, cutoff=1.0,
                    coupling_scale=0.4, seed=7)
    boson = BathSpec(kind="boson-mode", n_modes=2, cutoff=1.0,
                     coupling_scale=0.3, seed=7, boson_truncation=3)
    models = [
        build_system_bath_model(1, spin, coupling="dephasing"),
        build_system_bath_model(1, spin, coupling="total", h_s=h_s),
        build_system_bath_model(1, boson, h_s=h_s),
    ]
    groups = [trivial_group(1), pauli_group(1, "flip"),
              DecouplingGroup(["I", "Z"]), pauli_group(1, "full")]
    worst = 0.0
    for model in models:
        eye_b = np.eye(model.bath_dim, dtype=complex)
        eye_s = np.eye(model.system_dim, dtype=complex)
        for group in groups:
            sched = schedule_from_group(group, delta_t=0.08)
            got = average_h0(model, sched)
            dense = dense_parts(model)
            want = np.kron(project_commutant(dense.h_s, group).matrix, eye_b)
            want = want + np.kron(eye_s, dense.h_b.matrix)
            for s, b in dense.couplings:
                want = want + np.kron(project_commutant(s, group).matrix, b.matrix)
            worst = max(worst, float(np.max(np.abs(got.matrix - want))))
    assert report(2, "time average equals factor projection", worst <= 1e-10,
                  f"max residual {worst:.2e} over 12 combinations")


def test_03_full_group_scalar_collapse():
    """Averaging over the complete Pauli group leaves only the trace part
    of every basis operator."""
    worst = 0.0
    for k in (1, 2):
        group = pauli_group(k, "full")
        d = 2**k
        for i in range(d):
            for j in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[i, j] = 1.0
                p = project_commutant(Operator(unit, (2,) * k), group)
                traceless = p.matrix - (np.trace(p.matrix) / d) * np.eye(d)
                worst = max(worst, float(np.linalg.norm(traceless)))
    assert report(3, "unitary error basis scalar collapse", worst <= 1e-8,
                  f"max traceless norm {worst:.2e}")


def test_04_commutant_matches_null_space_oracle():
    """Dimension and span of the collective two-qubit commutant agree with
    a stacked-kron null-space computation."""
    group = pauli_group(2, "collective")
    basis = commutant_basis(group)
    eye = np.eye(4)
    stacked = np.vstack([np.kron(g.matrix, eye) - np.kron(eye, g.matrix.T)
                         for g in (pauli_word_operator(w) for w in group.labels)])
    _, svals, vh = np.linalg.svd(stacked)
    oracle = vh[np.concatenate([svals, np.zeros(16 - len(svals))]) < 1e-10].conj()

    dim_ok = len(basis) == 4 and oracle.shape[0] == 4
    q, _ = np.linalg.qr(oracle.T)
    worst = 0.0
    for op in basis:
        v = op.matrix.ravel()
        worst = max(worst, float(np.linalg.norm(v - q @ (q.conj().T @ v))))
    mine = np.array([op.matrix.ravel() for op in basis])
    qm, _ = np.linalg.qr(mine.T)
    for row in oracle:
        worst = max(worst, float(np.linalg.norm(row - qm @ (qm.conj().T @ row))))
    for word in ("II", "XX", "YY", "ZZ"):
        v = pauli_word_operator(word).matrix.ravel()
        res = float(np.linalg.norm(v - qm @ (qm.conj().T @ v))) / np.linalg.norm(v)
        worst = max(worst, res)
    assert report(4, "commutant equals null-space oracle",
                  dim_ok and worst <= 1e-8,
                  f"dimension {len(basis)}, overlap residual {worst:.2e}")


def test_05_minimal_group_search():
    """Exhaustive search returns order 2 for single-axis dephasing and
    order 4 for the collective two-qubit interaction, within 30 s."""
    t0 = time.time()
    hits1 = minimal_group_search([{"Z": 1.0}], n_qubits=1)
    tables2 = [{"XI": 1.0, "IX": 1.0}, {"YI": 1.0, "IY": 1.0}, {"ZI": 1.0, "IZ": 1.0}]
    hits2 = minimal_group_search(tables2, n_qubits=2)
    elapsed = time.time() - t0

    ok1 = sorted(h.labels for h in hits1) == [("I", "X"), ("I", "Y")]
    ok2 = bool(hits2) and all(h.order == 4 for h in hits2)
    ok2 = ok2 and ("II", "XX", "YY", "ZZ") in [h.labels for h in hits2]
    assert report(5, "minimal decoupling group search",
                  ok1 and ok2 and elapsed <= 30.0,
                  f"orders 2 and 4, {elapsed:.2f}s")


def test_06_magnus_truncation_orders():
    """Halving the segment length divides the order-0 defect by about 4
    and the order-1 defect by about 8 on the dephasing-echo preset."""
    cfg = parse_config({"scenario": "dephasing-echo", "seed": 7})
    model = build_model(cfg)
    steps = [0.1, 0.05, 0.025, 0.0125]
    ratios = {}
    for order in (0, 1):
        errs = [truncation_error(model, schedule_from_group(cfg.group, delta_t=dt), order)
                for dt in steps]
        ratios[order] = [errs[i] / errs[i + 1] for i in range(3)]
    ok0 = all(3.2 <= r <= 4.8 for r in ratios[0])
    ok1 = all(6.0 <= r <= 10.0 for r in ratios[1])
    detail = (f"order-0 ratios {[f'{r:.2f}' for r in ratios[0]]}, "
              f"order-1 ratios {[f'{r:.2f}' for r in ratios[1]]}")
    assert report(6, "truncation error halving ratios", ok0 and ok1, detail)


def test_07_symmetric_cycles_kill_first_order():
    """Palindromic schedules zero the first-order average Hamiltonian on
    ten randomly drawn models."""
    worst = 0.0
    for seed in range(10):
        model = hand_built(random_hermitian_parts(np.random.default_rng(1000 + seed)))
        group = pauli_group(1, "flip") if seed % 2 else pauli_group(1, "full")
        sched = symmetrize(schedule_from_group(group, delta_t=0.11))
        worst = max(worst, average_h1(model, sched).norm())
    assert report(7, "symmetric cycles cancel first order", worst <= 1e-10,
                  f"max |H1| {worst:.2e}")


def test_08_maximal_averaging_freezes_dynamics():
    """At fixed total time, quadrupling the pulse rate keeps shrinking the
    distance from the initial state by at least 1.5x per doubling."""
    cfg = parse_config({"scenario": "maximal-averaging", "seed": 11})
    model = build_model(cfg)
    units = build_schedule(cfg).n_segments
    total_time = cfg.n_cycles * units * cfg.delta_t
    distances = []
    for n in (25, 50, 100, 200):
        sched = build_schedule(cfg, delta_t=total_time / (units * n))
        run = SimulationRun(model=model, schedule=sched, n_cycles=n,
                            rho_s0=cfg.rho_s0, sample_every=n)
        distances.append(float(evolve(run).trace_distance[-1]))
    steps = [distances[i] / distances[i + 1] for i in range(3)]
    ok = all(r >= 1.5 for r in steps)
    assert report(8, "maximal averaging freeze-out", ok,
                  f"distances {[f'{d:.2e}' for d in distances]}")


SWEEP_VALUES = [0.02, 0.04, 0.08, 0.16]


@pytest.fixture(scope="module")
def sweep_summaries(tmp_path_factory):
    """Plain and symmetric flip-group sweeps at one fixed total time."""
    out = {}
    for name, extra in (("plain", {"n_cycles": 40}),
                        ("symmetric", {"n_cycles": 20, "symmetric": True})):
        cfg = parse_config({
            "scenario": "dephasing-echo", "seed": 7, "delta_t": 0.16,
            "sweep": {"parameter": "delta_t", "values": SWEEP_VALUES},
            **extra,
        })
        target = tmp_path_factory.mktemp(f"sweep-{name}")
        assert run_sweep(cfg, target) == 0
        out[name] = json.loads((target / "summary.json").read_text())
    return out


def test_09_first_order_suppression_scaling(sweep_summaries):
    """Terminal infidelity scales as the square of the segment length for
    the plain echo sequence."""
    s = sweep_summaries["plain"]
    ok = (1.5 <= s["slope"] <= 2.5) and s["r_squared"] >= 0.98
    assert report(9, "plain cycle error scaling", ok,
                  f"slope {s['slope']:.3f}, r^2 {s['r_squared']:.4f}")


def test_10_symmetric_cycle_upgrades_scaling(sweep_summaries):
    """Symmetrizing the cycle doubles the scaling exponent and lowers
    every point of the error curve."""
    plain = sweep_summaries["plain"]
    sym = sweep_summaries["symmetric"]
    ok = (3.2 <= sym["slope"] <= 4.8) and sym["r_squared"] >= 0.95
    pairs = zip(sym["points"], plain["points"])
    below = all(a["infidelity"] < b["infidelity"] for a, b in pairs)
    assert report(10, "symmetric cycle error scaling", ok and below,
                  f"slope {sym['slope']:.3f}, r^2 {sym['r_squared']:.4f}, "
                  f"all points below plain: {below}")


def test_11_selective_decoupling_preserves_logic():
    """The collective group removes the bath and the stray single-qubit
    term while the engineered two-qubit interaction keeps running."""
    cfg = parse_config({"scenario": "collective-register", "seed": 11})
    model = build_model(cfg)

    def infidelity(n, dt):
        sched = build_schedule(cfg, delta_t=dt)
        run = SimulationRun(model=model, schedule=sched, n_cycles=n,
                            rho_s0=cfg.rho_s0, sample_every=n)
        return 1.0 - evolve(run).terminal_fidelity

    base = infidelity(cfg.n_cycles, cfg.delta_t)
    halved = infidelity(2 * cfg.n_cycles, cfg.delta_t / 2)
    factor = base / halved
    ok = base <= 5e-3 and 3.0 <= factor <= 5.0
    assert report(11, "selective decoupling fidelity", ok,
                  f"1-F {base:.2e} at omega_c*dt=0.05, halving factor {factor:.2f}")


def test_12_echo_exactness_for_commuting_bath():
    """When the dephasing bath factor commutes with the bath Hamiltonian,
    the two-segment echo is exact at any segment length."""
    model = commuting_dephasing_model(np.random.default_rng(5))
    flip = pauli_group(1, "flip")
    plus = Operator(np.full((2, 2), 0.5, dtype=complex), [2])
    worst = 0.0
    for dt in (0.3, 0.1, 0.05, 0.01):
        run = SimulationRun(model=model, schedule=schedule_from_group(flip, delta_t=dt),
                              n_cycles=200, rho_s0=plus, sample_every=200)
        worst = max(worst, 1.0 - evolve(run).terminal_fidelity)
    assert report(12, "echo exact for commuting bath", worst <= 1e-9,
                  f"max 1-F {worst:.2e}")


def test_13_reproducible_cli_outputs(tmp_path):
    """Every named preset writes byte-identical CSV and JSON files when
    run twice with the same seed."""
    presets = ["dephasing-echo", "collective-register", "maximal-averaging",
               "selective-logic"]
    identical = True
    for name in presets:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"scenario": name, "seed": 23}))
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            assert cli_main(["simulate", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            dirs.append(out)
        for fname in ("trajectory.csv", "trajectory_free.csv", "summary.json"):
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                identical = False
    assert report(13, "byte-identical preset reruns", identical,
                  f"{len(presets)} presets x 3 files")
