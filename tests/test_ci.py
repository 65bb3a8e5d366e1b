"""The CI workflow's command-line checks, run on this checkout's ``src``.

CI runs the same scripts against the installed ``decoupling`` command.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_ci_script(name, *command):
    """``ci/<name> command...`` with this checkout's ``src`` importable and
    this interpreter first on ``PATH``, as the scripts' own ``python``."""
    env = dict(os.environ,
               PATH=os.pathsep.join([str(Path(sys.executable).parent), os.environ["PATH"]]),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(["bash", str(ROOT / "ci" / name), *command], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_entry_point_checks_pass():
    proc = run_ci_script("entry_point.sh", sys.executable, "-m", "decoupling.cli")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_demos_print_the_same_output_twice():
    proc = run_ci_script("demos_twice.sh", sys.executable)
    assert proc.returncode == 0, proc.stdout + proc.stderr
