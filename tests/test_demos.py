"""The quick demos run to completion against the current public API.

spirals_search.py runs a full search and stays out of the suite.
"""

import os
import subprocess
import sys

import pytest

import semiflow as sf

SRC = os.path.dirname(os.path.dirname(sf.__file__))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")


@pytest.mark.parametrize("script", [
    "morphism_gallery.py", "dynamics_playground.py", "schedule_and_restarts.py",
])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
