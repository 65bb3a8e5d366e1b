"""Runs the CI workflow's scripts on this checkout's ``src``."""

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
