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

The README's reference runs, `search --data spirals --seed 0` in each mode
at its defaults, are checked too. Their digests were recorded before the
search modes became generators of rounds; the same digests come out whether
the search runs in-process or as a CLI process.

Every file `dynamics-bench` writes at its defaults is pinned as well, for
each order with expected and with sampled moves. No path enters those files,
so any output directory gives the same digests.

So are the stdout of each quick demo and the artifacts of the benchmark's
nasagd-dense workload at seed 0 (`search --mode nasagd --data spirals
--seed 0 --n-steps 0.5 --config bench/dense.json`), recorded before the
edits returned the graph's Candidate.
"""

import hashlib
from pathlib import Path

import pytest

import semiflow as sf
from conftest import ROOT, run_cli, run_demo

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

REFERENCE = {
    "nasgd": {
        "metrics.csv":
            "9c5f4511197e17c4dc4a1aeba687a6886274df520a1c1eaddb518b0ba29facb7",
        "best.json":
            "92ee1e0beaac309f75f9e2aad787b57cd556dfb6d4d1e1e616b3e5d5af496d5b",
        "morphisms.jsonl":
            "b51ae0d8cedd45f4c05c5c45822ee2c9bb8e0d28d5f433915dab8977407020be",
    },
    "nasagd": {
        "metrics.csv":
            "57e675b2801660cbf45150a1cd19b5c92b329404f923b13a1d96cd66c5c97d61",
        "best.json":
            "881fa8242d7ff981b0af9592bf55877b87814d31bbce78fdcd6a23978cbbbbd1",
        "morphisms.jsonl":
            "6b887031c6cb1d3019814b99782acef2f0046ced436dbbaa6f64f9d1a71427cc",
    },
    "hillclimb": {
        "best.json":
            "9af671bf5409a69ee263f767a4f8d0fb4cc2f458f82725b95ed74c1f2f474e62",
        "morphisms.jsonl":
            "885ed6227839507fa6baa17d9aa0fb10f4912d6c468c88f06e7ff67780636810",
    },
}

BENCH = {
    "order1-expected": {
        "bench_000.csv":
            "3fbb711ddeb02f25a78a2e1509276c37b2d45a2ed58c6020e860b4eedea66789",
        "summary.json":
            "290caae8e485361991138e25247089eeebc08120e851df1e2705bba98cba6d03",
    },
    "order1-sampled": {
        "bench_000.csv":
            "7e61fcf84523ac5385c389908a08a488e87fe57dfb0b745934b2b0048f2cd21a",
        "summary.json":
            "df2add12978b3e548f627959aca296c932626fb7d863796600503213ced64861",
    },
    "order2-expected": {
        "bench_000.csv":
            "aa9518ac38a5489ceaca60aab2fddc7d79e7668802a20e84333fe633b1f9cc96",
        "summary.json":
            "7f4363f3ca342e4b5314a9fb287e840d37e0bf30d96ef413db9852057d40c8d8",
    },
    "order2-sampled": {
        "bench_000.csv":
            "c69aa0127d49627eb50b6c92aaedbeed714b4d74779769c00b370bb524aa43ee",
        "summary.json":
            "c745b84704fdce8c82c63f9ef247d563433ededea8862d4ef6c5f1e0589ad25c",
    },
}

DEMOS = {
    "dynamics_playground.py":
        "23b3f8ada88f4ee37421a2b8b998538a1f4a7389884e61a64f548b53c981a5c6",
    "morphism_gallery.py":
        "059376dc4664056ef431463239139da95be95d3c8e9258370f80a94f379c28b5",
    "schedule_and_restarts.py":
        "e3fc28bf7e9429c0ad1efa5c26b885b7d24356bdffa979b8f9c2dd2b34845cb4",
}

DENSE = {
    "metrics.csv":
        "e2fe39bbeb8f8ff039a01c115f55d671a10f20a3733701a0aa381a1dc7c94558",
    "best.json":
        "d8b16c35f2c9c8c6aa85c9250ecd87159a05c865b4852c9ea67fa15225e8a261",
    "morphisms.jsonl":
        "91af0783dcee3221a992bf4339ad552b2f52cea8931442a761997af24d08b079",
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


@pytest.mark.parametrize("mode", sorted(REFERENCE))
def test_reference_runs_match_goldens(mode, request):
    # The session's CLI runs (conftest.py), shared with the acceptance tests.
    run = request.getfixturevalue(f"{mode}_spirals_cli")
    assert digests(Path(run["out"])) == REFERENCE[mode]


@pytest.mark.parametrize("name", sorted(BENCH))
def test_dynamics_bench_matches_goldens(name, tmp_path):
    order, mode = name.removeprefix("order").split("-")
    flags = ["--order", order] + ["--sampled"] * (mode == "sampled")
    code, _ = run_cli(["dynamics-bench", *flags, "--out", str(tmp_path)])
    assert code == 0
    found = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in tmp_path.iterdir()}
    assert found == BENCH[name]


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_stdout_matches_goldens(script):
    done = run_demo(script)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMOS[script]


def test_nasagd_dense_matches_goldens(tmp_path):
    code, _ = run_cli(["search", "--mode", "nasagd", "--data", "spirals",
                       "--seed", "0", "--n-steps", "0.5",
                       "--config", str(Path(ROOT) / "bench" / "dense.json"),
                       "--out", str(tmp_path)])
    assert code == 0
    assert digests(tmp_path) == DENSE
