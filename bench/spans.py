"""Span and count recording around the package's public functions.

The tracer wraps names on the module that calls them (``scenarios.evolve``,
``evolve.partial_trace_bath``), reached through ``sys.modules`` because
``decoupling/__init__.py`` re-exports the function ``evolve`` under the
name of the module ``decoupling.evolve``. Nothing under ``src/`` is edited.
A hook whose target no longer exists is skipped and reported, so the
benchmark keeps running across refactors that delete a function.

Each call through a hook becomes a span: name, start, end, parent span,
op id and thread. Spans stay in memory until the run ends. A span's self
time is its duration minus the part of it that child spans cover; child
spans of a sweep point run on pool threads and name their parent
explicitly.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    op: int | None
    thread: int
    size: int = 0


def _pkg(module: str):
    """The package module, or ``None`` once a refactor removed it."""
    return sys.modules.get(f"decoupling.{module}")


def _after_toggle(tracer, args, result):
    tracer.count("magnus.toggled", len(result))
    if result:
        d = result[0].shape[0]
        tracer.count("magnus.toggle_flop", 16 * d**3 * len(result))


def _after_evolve(tracer, args, result):
    snapshots = len(result.times)
    model = args[0].model
    d = model.h_s.matrix.shape[0] * model.h_b.matrix.shape[0]
    tracer.count("evolve.snapshots", snapshots)
    tracer.count("evolve.steps", snapshots - 1)
    tracer.count("evolve.step_flop", 16 * d**3 * (snapshots - 1))


def _after_schedule(tracer, args, result):
    tracer.count("sequence.schedules", 1)
    tracer.count("sequence.segments", len(result.segments))


def _after_closure(tracer, args, result):
    tracer.count("groups.closure_products", len(args[0].elements) ** 2)


def _after_write_csv(tracer, args, result):
    tracer.count("scenarios.bytes_written", os.path.getsize(args[1]))


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``).

    ``span`` names the span each call records; ``None`` records no span,
    only what ``after`` counts from the arguments and result.
    """

    module: str
    attr: str
    span: str | None
    after: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("cli", "load_config", "scenarios.load_config"),
    Hook("cli", "run_scenario", "scenarios.run_scenario"),
    Hook("cli", "run_sweep", "scenarios.run_sweep"),
    Hook("cli", "minimal_group_search", "groups.search"),
    Hook("cli", "commutant_basis", "groups.commutant_basis"),
    Hook("cli", "schedule_from_group", "sequence.schedule"),
    Hook("cli", "boundary_pulses", "sequence.schedule"),
    Hook("scenarios", "build_model", "model.build"),
    Hook("scenarios", "check_decoupling", "groups.check_decoupling"),
    Hook("scenarios", "build_schedule", "sequence.schedule", _after_schedule),
    Hook("scenarios", "schedule_from_group", "sequence.schedule"),
    Hook("scenarios", "evolve", "evolve.evolve", _after_evolve),
    Hook("scenarios", "estimate_rates", "evolve.rates"),
    Hook("scenarios", "fit_scaling_exponent", "evolve.rates"),
    Hook("scenarios", "_write_log", "scenarios.write"),
    Hook("evolve", "TrajectoryResult.write_csv", "scenarios.write", _after_write_csv),
    Hook("groups", "check_decoupling", "groups.check_decoupling"),
    Hook("groups", "commutant_basis", "groups.commutant_basis"),
    Hook("groups", "DecouplingGroup.__init__", "groups.construct"),
    Hook("groups", "DecouplingGroup._check_projective_closure", None, _after_closure),
    Hook("evolve", "bath_ground_state", "model.bath_ground_state"),
    Hook("evolve", "cycle_propagator", "evolve.cycle_propagator"),
    Hook("evolve", "toggled_matrices", "magnus.toggle", _after_toggle),
    Hook("evolve", "_unitary_power", "evolve.unitary_power"),
    Hook("evolve", "expm_hermitian", "operators.expm"),
    Hook("evolve", "partial_trace_bath", "operators.partial_trace"),
    Hook("evolve", "state_fidelity", "evolve.snapshot"),
    Hook("evolve", "coherence_l1", "evolve.snapshot"),
    Hook("evolve", "distance", "evolve.snapshot"),
)

#: Names replaced by traced subclasses rather than wrapped functions.
POOL_HOOK = "scenarios.ThreadPoolExecutor"
PATH_HOOK = "scenarios.Path"
EIGH_HOOK = "numpy.linalg.eigh"


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: dict[str, str] = {}
        self.broken: dict[str, str] = {}
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn, args, kwargs, parent: int | None = None, size: int = 0):
        """Run ``fn`` inside a span; ``parent`` overrides the thread's stack."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, t0, t1, self.op, threading.get_ident(), size)
            )

    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counts[(self.op, name)] += n

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrapped(self, hook: Hook, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook.span is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer.call(hook.span, fn, args, kwargs)
            if hook.after is not None:
                try:
                    hook.after(tracer, args, result)
                except Exception as exc:  # a changed return type must not fail the op
                    tracer.broken[hook.key] = f"counting after decoupling.{hook.key} failed: {exc!r}"
            return result

        return wrapper

    def install(self):
        """Wrap every hook target that exists; note the ones that do not."""
        for hook in HOOKS:
            owner = _pkg(hook.module)
            *path, attr = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in getattr(owner, "__dict__", {}):
                self.missing[hook.key] = f"decoupling.{hook.key} no longer exists"
                continue
            self._patch(owner, attr, self._wrapped(hook, owner.__dict__[attr]))
        self._install_pool()
        self._install_path()
        self._install_eigh()

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_pool(self):
        scenarios = _pkg("scenarios")
        base = vars(scenarios).get("ThreadPoolExecutor") if scenarios else None
        if base is None:
            self.missing[POOL_HOOK] = "decoupling.scenarios no longer uses ThreadPoolExecutor"
            return
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def point(*a, **k):
                    return tracer.call("scenarios.sweep_point", fn, a, k, parent=parent)

                return super().submit(point, *args, **kwargs)

        self._patch(scenarios, "ThreadPoolExecutor", TracedPool)

    def _install_path(self):
        scenarios = _pkg("scenarios")
        base = vars(scenarios).get("Path") if scenarios else None
        if base is None:
            self.missing[PATH_HOOK] = "decoupling.scenarios no longer uses pathlib.Path"
            return
        tracer = self

        class TracedPath(type(base())):
            def write_text(self, data, *args, **kwargs):
                n = tracer.call("scenarios.write", super().write_text, (data,) + args, kwargs)
                tracer.count("scenarios.bytes_written", len(data.encode()))
                return n

        self._patch(scenarios, "Path", TracedPath)

    def _install_eigh(self):
        # every module calls np.linalg.eigh by attribute lookup, so one
        # wrapper sees eigendecompositions wherever they move
        original = np.linalg.eigh
        tracer = self

        @functools.wraps(original)
        def eigh(a, *args, **kwargs):
            return tracer.call("numpy.eigh", original, (a,) + args, kwargs, size=len(a))

        self._patch(np.linalg, "eigh", eigh)


# -- aggregation ------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s.sid] = (s.t1 - s.t0) - covered
    return out
