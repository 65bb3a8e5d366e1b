"""Per-layer metrics of a traced run, one entry per package module.

Every ``*_s`` metric is self time in seconds per op: the duration of the
layer's spans minus what their child spans cover, so the layers add up
to the op. Counts are per op as well; ratios are over the whole run.
``evolve.snapshot_s`` is the exception: it is the full time of the
per-snapshot analysis (partial trace, fidelity, coherence, trace
distance, ideal reference), of which ``operators.partial_trace_s`` and
the reference's share of ``operators.expm_s`` are parts.
"""

from __future__ import annotations

from collections import Counter

from spans import EIGH_HOOK, PATH_HOOK, POOL_HOOK, self_times


class Aggregate:
    """Span and count totals over the traced calls of one run."""

    def __init__(self, tracer, op_of_call: list, traced_calls: set[int]):
        self.n = max(len(traced_calls), 1)
        spans = [s for s in tracer.spans if s.op in traced_calls]
        own = self_times(spans)
        name_of = {s.sid: s.name for s in spans}
        self.self_s: Counter = Counter()
        self.dur_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.snapshot_s = 0.0
        for s in spans:
            name = s.name
            if name == "numpy.eigh":
                op = op_of_call[s.op]
                if s.size == op.joint_dim:
                    name = "eigh.joint"
                elif s.size <= op.system_dim:
                    name = "eigh.small"
            self.self_s[name] += own[s.sid]
            self.dur_s[name] += s.t1 - s.t0
            self.calls[name] += 1
            parent = name_of.get(s.parent)
            if name == "evolve.snapshot" or (
                parent == "evolve.evolve" and name in ("operators.partial_trace", "operators.expm")
            ):
                self.snapshot_s += s.t1 - s.t0
        self.counts: Counter = Counter()
        for (op, key), n in tracer.counts.items():
            if op in traced_calls:
                self.counts[key] += n

    def per_op(self, value: float) -> float:
        return value / self.n

    @staticmethod
    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0


def _self(name):
    return lambda a: a.per_op(a.self_s[name])


def _calls(name):
    return lambda a: a.per_op(a.calls[name])


def _count(name, scale=1.0):
    return lambda a: a.per_op(a.counts[name] * scale)


_SCHEDULE = ("scenarios.build_schedule", "scenarios.schedule_from_group",
             "cli.schedule_from_group", "cli.boundary_pulses")
_SNAPSHOT = ("evolve.partial_trace_bath", "evolve.state_fidelity", "evolve.coherence_l1",
             "evolve.distance", "evolve.expm_hermitian")

#: (name, unit, hook keys it needs, value from an Aggregate)
METRICS = (
    ("cli.calls", "count", (), _count("cli.calls")),
    ("cli.nonzero_exits", "count", (), _count("cli.nonzero_exits")),
    ("scenarios.load_config_s", "s", ("cli.load_config",), _self("scenarios.load_config")),
    ("scenarios.write_s", "s",
     ("scenarios._write_log", "evolve.TrajectoryResult.write_csv", PATH_HOOK),
     _self("scenarios.write")),
    ("scenarios.bytes_written", "B", ("evolve.TrajectoryResult.write_csv", PATH_HOOK),
     _count("scenarios.bytes_written")),
    ("scenarios.sweep_parallelism", "ratio", (POOL_HOOK,),
     lambda a: a.ratio(a.dur_s["scenarios.sweep_point"], a.dur_s["scenarios.run_sweep"])),
    ("model.build_s", "s", ("scenarios.build_model",), _self("model.build")),
    ("model.bath_ground_state_calls", "count", ("evolve.bath_ground_state",),
     _calls("model.bath_ground_state")),
    ("model.bath_ground_state_s", "s", ("evolve.bath_ground_state",),
     _self("model.bath_ground_state")),
    ("groups.construct_s", "s", ("groups.DecouplingGroup.__init__",), _self("groups.construct")),
    ("groups.closure_products", "count", ("groups.DecouplingGroup._check_projective_closure",),
     _count("groups.closure_products")),
    ("groups.check_decoupling_s", "s", ("scenarios.check_decoupling", "groups.check_decoupling"),
     _self("groups.check_decoupling")),
    ("groups.commutant_basis_s", "s", ("groups.commutant_basis", "cli.commutant_basis"),
     _self("groups.commutant_basis")),
    ("groups.search_s", "s", ("cli.minimal_group_search",), _self("groups.search")),
    ("sequence.schedule_s", "s", _SCHEDULE, _self("sequence.schedule")),
    ("sequence.segments_per_cycle", "count", ("scenarios.build_schedule",),
     lambda a: a.ratio(a.counts["sequence.segments"], a.counts["sequence.schedules"])),
    ("magnus.toggle_s", "s", ("evolve.toggled_matrices",), _self("magnus.toggle")),
    ("magnus.toggled_count", "count", ("evolve.toggled_matrices",), _count("magnus.toggled")),
    ("magnus.toggle_gflop_computed", "GFLOP", ("evolve.toggled_matrices",),
     _count("magnus.toggle_flop", 1e-9)),
    ("evolve.propagator_s", "s", ("evolve.cycle_propagator",), _self("evolve.cycle_propagator")),
    ("evolve.step_s", "s", ("scenarios.evolve",), _self("evolve.evolve")),
    ("evolve.steps", "count", ("scenarios.evolve",), _count("evolve.steps")),
    ("evolve.step_gflops", "GFLOP/s", ("scenarios.evolve",),
     lambda a: a.ratio(a.counts["evolve.step_flop"] * 1e-9, a.self_s["evolve.evolve"])),
    ("evolve.snapshot_s", "s", _SNAPSHOT, lambda a: a.per_op(a.snapshot_s)),
    ("evolve.snapshots", "count", ("scenarios.evolve",), _count("evolve.snapshots")),
    ("evolve.unitary_power_s", "s", ("evolve._unitary_power",), _self("evolve.unitary_power")),
    ("evolve.rates_s", "s", ("scenarios.estimate_rates", "scenarios.fit_scaling_exponent"),
     _self("evolve.rates")),
    ("operators.eigh_joint_calls", "count", (EIGH_HOOK,), _calls("eigh.joint")),
    ("operators.eigh_joint_s", "s", (EIGH_HOOK,), _self("eigh.joint")),
    ("operators.eigh_small_calls", "count", (EIGH_HOOK,), _calls("eigh.small")),
    ("operators.partial_trace_s", "s", ("evolve.partial_trace_bath",),
     _self("operators.partial_trace")),
    ("operators.expm_s", "s", ("evolve.expm_hermitian",), _self("operators.expm")),
)

NAMES = tuple(m[0] for m in METRICS) + ("trace.overhead_s",)


def per_layer(tracer, op_of_call: list, traced_calls: set[int], overhead_s: float):
    """Metric dict for the result line, and notes on absent or partial hooks.

    A metric whose hooks are all gone is reported as 0 with a note saying
    it is absent; one that lost some of its hooks is noted as partial.
    """
    agg = Aggregate(tracer, op_of_call, traced_calls)
    metrics, notes = {}, []
    for name, unit, hooks, value in METRICS:
        gone = [h for h in hooks if h in tracer.missing]
        if hooks and len(gone) == len(hooks):
            metrics[name] = {"value": 0.0, "unit": unit}
            notes.append(f"{name} absent: {'; '.join(tracer.missing[h] for h in gone)}")
            continue
        if gone:
            notes.append(f"{name} partial: {'; '.join(tracer.missing[h] for h in gone)}")
        metrics[name] = {"value": value(agg), "unit": unit}
    notes += [f"counts partial: {msg}" for msg in tracer.broken.values()]
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics, notes
