"""The benchmark's workloads: which CLI calls one round issues, and why.

A workload is a list of ops. One op is one ``decoupling.cli.main`` call:
``simulate`` or ``sweep`` on a generated JSON config, or ``design``. The
workload seed becomes the configs' ``seed`` field, so the program sees
only the generated configs. ``scale="smoke"`` shrinks every joint
dimension to at most 64 while keeping each workload's code path; the
smoke test uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed the reference outputs were taken with.
DEFAULT_SEED = 7
#: Seed kept out of tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 1009

SMOKE = "smoke"


@dataclass(frozen=True)
class Op:
    """One CLI call and what its outputs must satisfy for any seed.

    ``config`` is the JSON document for ``simulate``/``sweep`` (``None``
    for ``design``, whose arguments are ``argv``). ``mode`` is the
    expected ``summary.json`` mode; ``suppresses`` asks that controlled
    terminal fidelity beat free; ``slope`` is the expected sweep slope;
    ``design_order`` the expected minimal group order. ``system_dim`` and
    ``joint_dim`` classify eigendecompositions in the traced run.
    """

    name: str
    command: str
    config: dict | None = None
    argv: tuple[str, ...] = ()
    mode: str | None = None
    suppresses: bool = False
    slope: float | None = None
    design_order: int | None = None
    system_dim: int = 0
    joint_dim: int = 0
    files: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]


SIMULATE_FILES = ("summary.json", "trajectory.csv", "trajectory_free.csv")
SWEEP_FILES = ("summary.json", "sweep.csv")

#: Why each workload exists: which layers it stresses.
WHY = {
    "simulate-d512": (
        "propagator-heavy simulate at d=512, full Pauli group |G|=16: joint eigh, "
        "toggling and density-matrix stepping dominate"
    ),
    "sweep-echo-d256": (
        "symmetric echo sweep at d=256: few segments, many steps and snapshots, "
        "sweep thread pool against BLAS threads"
    ),
    "small-mix": (
        "round of the four presets, a K=3 full-group custom run and two design calls: "
        "config, groups, artifact writes and snapshot analysis dominate"
    ),
}

PRESET_MODES = {
    "dephasing-echo": "selective",
    "collective-register": "selective",
    "maximal-averaging": "maximal",
    "selective-logic": "selective",
}

#: Preset register sizes (qubits, bath spins), for eigh classification.
PRESET_SIZES = {
    "dephasing-echo": (1, 4),
    "collective-register": (2, 4),
    "maximal-averaging": (1, 4),
    "selective-logic": (2, 4),
}


def _simulate_d512(seed: int, scale: str | None) -> tuple[Op, ...]:
    n_modes = 4 if scale == SMOKE else 7
    config = {
        "scenario": "maximal-averaging",
        "seed": seed,
        "K": 2,
        "coupling": "linear-collective",
        "bath": {"n_modes": n_modes},
        # the preset's words are 1-qubit; K=2 needs 2-letter words
        "h_s": {"XI": 0.3, "ZZ": 0.2},
    }
    return (
        Op(
            name="simulate",
            command="simulate",
            config=config,
            mode="maximal",
            suppresses=True,
            system_dim=4,
            joint_dim=2 ** (2 + n_modes),
            files=SIMULATE_FILES,
        ),
    )


def _sweep_echo_d256(seed: int, scale: str | None) -> tuple[Op, ...]:
    n_modes = 5 if scale == SMOKE else 7
    config = {
        "scenario": "dephasing-echo",
        "seed": seed,
        "symmetric": True,
        "bath": {"n_modes": n_modes},
        "sweep": {"parameter": "delta_t", "values": [0.2, 0.1, 0.05, 0.025]},
    }
    return (
        Op(
            name="sweep",
            command="sweep",
            config=config,
            mode="selective",
            slope=4.0,
            system_dim=2,
            joint_dim=2 ** (1 + n_modes),
            files=SWEEP_FILES,
        ),
    )


def _small_mix(seed: int, scale: str | None) -> tuple[Op, ...]:
    ops = []
    for preset, mode in PRESET_MODES.items():
        k, n_modes = PRESET_SIZES[preset]
        ops.append(
            Op(
                name=f"simulate:{preset}",
                command="simulate",
                config={"scenario": preset, "seed": seed},
                mode=mode,
                suppresses=True,
                system_dim=2**k,
                joint_dim=2 ** (k + n_modes),
                files=SIMULATE_FILES,
            )
        )
    # the smoke scale drops to K=2 (|G|=16) to keep the closure check short
    k = 2 if scale == SMOKE else 3
    ops.append(
        Op(
            name="simulate:custom",
            command="simulate",
            config={
                "scenario": "custom",
                "seed": seed,
                "K": k,
                "group": "full",
                "coupling": "linear-collective",
                "bath": {"n_modes": 3, "cutoff": 1.0, "coupling_scale": 0.3},
                "delta_t": 0.02,
                "n_cycles": 20,
                "h_s": {"ZZ" + "I" * (k - 2): 0.2},
            },
            mode="maximal",
            suppresses=True,
            system_dim=2**k,
            joint_dim=2 ** (k + 3),
            files=SIMULATE_FILES,
        )
    )
    ops.append(
        Op(
            name="design:3-qubit",
            command="design",
            argv=("--interaction", "ZII", "IZI", "IIZ", "XXI", "IXX", "--qubits", "3"),
            design_order=2,
            system_dim=8,
        )
    )
    # A seventh op keeps the median call inside one op's block of samples:
    # with six kinds per round it fell between two kinds and jumped by 10%.
    ops.append(
        Op(
            name="design:2-qubit",
            command="design",
            argv=("--interaction", "ZI", "IZ", "ZZ", "--qubits", "2"),
            design_order=4,
            system_dim=4,
        )
    )
    return tuple(ops)


_BUILDERS = {
    "simulate-d512": _simulate_d512,
    "sweep-echo-d256": _sweep_echo_d256,
    "small-mix": _small_mix,
}

NAMES = tuple(_BUILDERS)


def make(name: str, seed: int, scale: str | None = None) -> Workload:
    """The workload ``name`` with configs generated from ``seed``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    return Workload(name=name, why=WHY[name], ops=_BUILDERS[name](seed, scale))
