"""The CI workflow's command-line checks, run on this checkout's ``src``.

CI runs the same scripts against the installed ``decoupling`` command.
"""

import sys

from ci_scripts import run_ci_script


def test_entry_point_checks_pass():
    proc = run_ci_script("entry_point.sh", sys.executable, "-m", "decoupling.cli")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_demos_print_the_same_output_twice(demos_twice):
    """Each demo exits 0 twice, prints the same bytes both times and leaves its
    TMPDIR empty."""
    assert demos_twice.returncode == 0, demos_twice.stdout + demos_twice.stderr
