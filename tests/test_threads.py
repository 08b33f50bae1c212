"""The BLAS thread pin that `import semiflow` sets before numpy loads.

Each check runs in a fresh interpreter: the test process itself imported
numpy (conftest) before semiflow, so its own thread pool is already fixed.
"""

import os
import subprocess
import sys

import pytest

import semiflow as sf

SRC = os.path.dirname(os.path.dirname(sf.__file__))


def run_fresh(code, threads=None):
    """stdout of code in a new interpreter that imports semiflow from this
    checkout, with OPENBLAS_NUM_THREADS unset or set to threads."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


PIN = "import os, semiflow; print(os.environ['OPENBLAS_NUM_THREADS'])"


def test_import_sets_one_blas_thread():
    assert run_fresh(PIN) == "1"


def test_a_thread_count_the_caller_set_wins():
    assert run_fresh(PIN, threads="2") == "2"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the thread count from /proc")
def test_import_starts_no_blas_worker_thread():
    code = (
        "import semiflow\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(*[l.split()[1] for l in fh if l.startswith('Threads:')])\n"
    )
    assert run_fresh(code) == "1"


def test_gradient_norm_bits_do_not_depend_on_the_core_count():
    # A dot over 50 000 entries rounds differently when OpenBLAS splits it
    # across threads; without the pin this vector clips to other bits on a
    # 2-core machine.
    code = (
        "import hashlib, semiflow\n"
        "import numpy as np\n"
        "vec = np.random.default_rng(1).normal(size=50_000)\n"
        "clipped = semiflow.clip_gradient(vec, 1.0)\n"
        "print(hashlib.sha256(clipped.tobytes()).hexdigest())\n"
    )
    assert run_fresh(code) == run_fresh(code, threads="1")
