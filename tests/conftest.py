"""Shared fixtures.

The end-to-end searches are expensive relative to everything else, so the
spiral runs used by several acceptance checks are session-scoped and reused.
"""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import semiflow as sf
from semiflow import cli

SRC = os.path.dirname(os.path.dirname(sf.__file__))
ROOT = os.path.dirname(SRC)


@pytest.fixture(scope="session")
def blobs_small():
    return sf.make_blobs(600, seed=3)


@pytest.fixture(scope="session")
def spirals():
    return sf.two_spirals(2000, 0.1, seed=0)


def run_cli(argv):
    """Invoke the CLI in-process, returning (exit_code, parsed stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    try:
        payload = json.loads(text)
    except ValueError:
        payload = text
    return code, payload


def search_clock(data, config):
    """A fresh search clock, as a run starts one, for run_round and
    final_train."""
    return sf.GlobalClock.for_search(config, sf.iters_per_epoch(data, config))


@functools.cache
def run_demo(script):
    """Run demos/<script> once per session in a fresh interpreter; the
    CompletedProcess, with stdout and stderr as bytes, is shared."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          env=env, capture_output=True, timeout=120)


@pytest.fixture(scope="session")
def nasgd_spirals_cli(tmp_path_factory):
    """Full nasgd spiral search through the CLI, with artifacts on disk."""
    out = str(tmp_path_factory.mktemp("nasgd_run"))
    t0 = time.time()
    code, summary = run_cli(
        ["search", "--mode", "nasgd", "--data", "spirals", "--seed", "0",
         "--out", out]
    )
    wall = time.time() - t0
    assert code == 0, summary
    return {"out": out, "summary": summary, "wallclock": wall}


@pytest.fixture(scope="session")
def nasagd_spirals_cli(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("nasagd_run"))
    t0 = time.time()
    code, summary = run_cli(
        ["search", "--mode", "nasagd", "--data", "spirals", "--seed", "0",
         "--out", out]
    )
    wall = time.time() - t0
    assert code == 0, summary
    return {"out": out, "summary": summary, "wallclock": wall}


@pytest.fixture(scope="session")
def hillclimb_spirals_cli(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("hillclimb_run"))
    code, summary = run_cli(
        ["search", "--mode", "hillclimb", "--data", "spirals", "--seed", "0",
         "--out", out]
    )
    assert code == 0, summary
    return {"out": out, "summary": summary}


@pytest.fixture(scope="session")
def exploration_runs(spirals):
    """nasgd searches and wallclock-matched hill-climb runs on seeds 0..4."""
    pairs = []
    for seed in range(5):
        res = sf.run_search(sf.SearchConfig(mode="nasgd", seed=seed), spirals)
        hc = sf.hill_climb_baseline(
            sf.SearchConfig(mode="hillclimb", seed=seed), spirals,
            wallclock_cap=res.search_wallclock,
        )
        pairs.append((res, hc))
    return pairs


def fit_linear_softmax(X, y, n_classes, epochs=200, lr=0.5):
    """Plain multinomial logistic regression, full-batch gradient descent."""
    rng = np.random.default_rng(0)
    W = np.zeros((X.shape[1] + 1, n_classes))
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    for _ in range(epochs):
        z = Xb @ W
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(y)), y] -= 1.0
        W -= lr * Xb.T @ p / len(y)
    return W


def linear_accuracy(W, X, y):
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    return float(np.mean(np.argmax(Xb @ W, axis=1) == y))
