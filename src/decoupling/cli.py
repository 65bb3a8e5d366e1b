"""Command-line front end: simulate, sweep, and design subcommands.

``simulate`` and ``sweep`` consume a JSON config document and write
CSV/JSON artifacts into an output directory (given by ``--out`` or the
config's ``output_dir``). ``design`` searches for the smallest Pauli
groups that average a given interaction away and prints them with their
pulse programs (:func:`boundary_pulses`).

Exit codes: 0 success; 1 the configured group fails to decouple the
interaction (residual table printed); 2 bad usage or config, an output
directory that cannot be made, a run whose numbers overflow or whose
arrays do not fit in memory, or a sweep whose infidelities cannot be fitted.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .groups import SEARCH_MAX_ORDER, check_decoupling, minimal_group_search
from .sequence import boundary_pulses
from .scenarios import ConfigError, load_config, run_scenario, run_sweep


#: The flag that sets each parameter of :func:`minimal_group_search`.
_FLAGS = {"n_qubits": "--qubits", "max_order": "--max-order", "tables": "--interaction"}


def _design(args) -> int:
    words = [w.upper() for w in args.interaction]
    tables = [{w: 1.0} for w in words]
    try:
        groups = minimal_group_search(tables, args.qubits, max_order=args.max_order)
    except ValueError as exc:  # led by the parameter's name, ``tables[i].<word>`` for a word
        name, message = str(exc).split(": ", 1)
        raise ValueError(f"{_FLAGS[name.split('[')[0]]}: {message}") from None

    print(f"interaction span: {words} on {args.qubits} qubit(s)")
    if not groups:
        print(f"no decoupling group of order <= {args.max_order} exists for this interaction")
        return 1
    print(f"minimal decoupling groups (order {groups[0].order}):")
    for group in groups:
        report = check_decoupling(group, tables)
        print(f"  group {list(group.labels)}  "
              f"[{report.mode}, commutant dimension {report.commutant_dimension}]")
        pulses = " ".join(f"dt {p}" for p in boundary_pulses(group.labels))
        print(f"    cycle (pulses up to phase): {pulses}")
    return 0


def _resolve_out(args, config) -> str:
    if args.out is not None:
        return args.out
    if config.output_dir is not None:
        return config.output_dir
    raise ConfigError("no output directory: pass --out or set output_dir in the config")


def _run(args) -> int:
    config = load_config(args.config)
    run = run_scenario if args.command == "simulate" else run_sweep
    return run(config, _resolve_out(args, config))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="decoupling",
        description="Bang-bang decoupling simulations: suppress decoherence "
        "by cycling a qubit register through a finite group of control frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one controlled-vs-free comparison")
    p_sim.add_argument("--config", required=True, help="path to a JSON config document")
    p_sim.add_argument("--out", help="output directory (default: config output_dir)")

    p_sweep = sub.add_parser("sweep", help="sweep delta_t at fixed total time and fit the scaling")
    p_sweep.add_argument("--config", required=True, help="path to a JSON config document")
    p_sweep.add_argument("--out", help="output directory (default: config output_dir)")

    p_design = sub.add_parser("design", help="search for minimal decoupling groups")
    p_design.add_argument(
        "--interaction", nargs="+", required=True, metavar="WORD",
        help="Pauli words spanning the interaction, e.g. ZI IZ XX",
    )
    p_design.add_argument("--qubits", type=int, required=True, help="register size K (max 3)")
    p_design.add_argument(
        "--max-order", type=int, default=SEARCH_MAX_ORDER, help="largest group order to consider"
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _design(args) if args.command == "design" else _run(args)
    except (OSError, ValueError, OverflowError, MemoryError) as exc:  # a ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv=None):
    """Console entry point."""
    sys.exit(main(argv))


if __name__ == "__main__":
    run()
