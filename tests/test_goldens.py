"""Byte-identity of search artifacts.

Four small searches, one per code path of a round: first-order dynamics on
the star graph with sampled and with expected moves, second-order dynamics on
the complete graph, and the hill-climbing baseline. The sha256 of each
artifact was recorded from these exact configs before the graph, morphism
and dynamics code was last restructured; a refactor that keeps the
arithmetic must reproduce them. The expected-mode digests were recorded
once its metrics cells became plain floats; its best.json and
morphisms.jsonl are those of the code before that, and its metrics.csv is
that code's with each np.float64(x) cell written as x. A change that moves
a number on purpose updates the digests and says why.

A fifth pins the training step off its default: a first-order search with
damping 0.5. Its digests were recorded once every phase (pretraining,
rounds, hill-climb children, final training) took the config's step.
"""

import hashlib

import pytest

import semiflow as sf

ARTIFACTS = ("metrics.csv", "best.json", "morphisms.jsonl")

# Small spirals runs that still reach every branch of a round: adoption by
# doubling, a timed-out round, restarts of the second-order potential.
SMALL = dict(epochs_neigh=2, n_neigh=5, n_particles=30, s_x=16, s_y=16,
             pretrain_epochs=2, final_budget=4, hidden=(8, 8))

CONFIGS = {
    "nasgd-star": dict(SMALL, mode="nasgd", seed=2, n_steps=6.0),
    "nasgd-expected": dict(SMALL, mode="nasgd", seed=2, n_steps=6.0,
                           rate_mode="expected"),
    "nasagd-complete": dict(SMALL, mode="nasagd", seed=2, n_steps=6.0,
                            topology="complete"),
    "hillclimb": dict(SMALL, mode="hillclimb", seed=2, n_steps=3),
    "nasgd-damped": dict(SMALL, mode="nasgd", seed=2, n_steps=6.0, damping=0.5),
}

GOLDEN = {
    "nasgd-star": {
        "metrics.csv":
            "68939e3284ef878580a5c63eb8cfeec8fdab512e101222924c0d16c4930a7f19",
        "best.json":
            "0ab90e0878923f8252f4e84a1acfdc3c48b9f1e71ceb3719602240b8e58cea99",
        "morphisms.jsonl":
            "9d2908e613ea1729b68b6b170b3a9337b1b29648913bc050a9f7ef206da108a8",
    },
    "nasgd-expected": {
        "metrics.csv":
            "f28d725782f6d83037fc5e36a11b013f9580f21756f43fb9effc73358d0a569d",
        "best.json":
            "0233f1f18e94455b7245bc1fa1a0f4a25259390fc5f39fd4511086f1a0d8ad39",
        "morphisms.jsonl":
            "f4e0081cd838e9e4641b6ec83a0c80f3e4bf2bb4c9f2aa07874d6317fb0d6cde",
    },
    "nasagd-complete": {
        "metrics.csv":
            "9b8c85a6038c77971d023806ff64ff57d6ca0e2c967e2d840bebf7f02ce6019b",
        "best.json":
            "fa7c235d5f7fc2e6932afa2ab15abfe0f6a9f2511196f493efc71d7f312cef14",
        "morphisms.jsonl":
            "95c67fb2bc3870ee911dcd5778105951a113cc91a4467afd59762aa28529ed07",
    },
    "hillclimb": {
        "best.json":
            "c987166326d914b2365b6b6b3d1a7dfc8f245753e4e287f2d7cc5dee5e736ce0",
        "morphisms.jsonl":
            "67c5ac2a27216d841546137ca1ccd92dd81ca0326a7253ce6962f52d6b9e8f80",
    },
    "nasgd-damped": {
        "metrics.csv":
            "47787d5eda3c7cb148233d0bc8df80127b45c42cc25b7361704577a0eb5f7447",
        "best.json":
            "a61199f068d3634a08bd943053e09c1e6534b65a82aad6c64af058806c6e963d",
        "morphisms.jsonl":
            "fc72d669b06c6fff224cc8fdeb5595ae8fe5ff15982ded94655f3574df3c6d88",
    },
}


def digests(out_dir):
    found = {}
    for name in ARTIFACTS:
        path = out_dir / name
        if path.exists():
            found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


@pytest.fixture(scope="module")
def spirals_small():
    return sf.two_spirals(600, 0.1, seed=0)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_goldens(name, spirals_small, tmp_path):
    sf.run_search(sf.SearchConfig(**CONFIGS[name]), spirals_small,
                  out_dir=str(tmp_path))
    assert digests(tmp_path) == GOLDEN[name]
