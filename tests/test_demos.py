"""The quick demos run to completion against the current public API.

spirals_search.py runs a full search and stays out of the suite.
"""

import pytest

from conftest import run_demo


@pytest.mark.parametrize("script", [
    "morphism_gallery.py", "dynamics_playground.py", "schedule_and_restarts.py",
])
def test_demo_runs(script):
    done = run_demo(script)
    assert done.returncode == 0, done.stderr.decode()
