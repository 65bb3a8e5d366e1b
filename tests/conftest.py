import sys

import pytest

from ci_scripts import run_ci_script


@pytest.fixture(scope="session")
def demos_twice():
    """One run of ``ci/demos_twice.sh``, shared by the whole-script check and
    the per-demo checks, so each demo runs twice in a test session."""
    return run_ci_script("demos_twice.sh", sys.executable)
