"""Every demo script runs to completion against the current package."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, demos_twice):
    """The shared ``ci/demos_twice.sh`` run passed this demo: both runs exited
    0, left their own temporary directory empty and printed the same bytes."""
    assert demos_twice.stdout.splitlines().count(f"ok {demo.name}") == 1, (
        demos_twice.stdout + demos_twice.stderr)
