import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow.errors import BadConfig, MissingFile


# The normalized table a manifest snapshots when no key is overridden.
DEFAULT_TABLE = {
    "data.kind": None,
    "data.n": 2000,
    "data.noise": 0.1,
    "data.spread": 0.6,
    "data.d": 2,
    "data.classes": 4,
    "data.path": None,
    "data.label_column": -1,
    "data.has_header": False,
    "data.seed": None,
    "data.standardize": False,
    "search.mode": "nasgd",
    "search.seed": 0,
    "search.n_particles": 100,
    "search.n_neigh": 8,
    "search.epochs_neigh": 18,
    "search.n_steps": None,
    "search.lam_start": 0.05,
    "search.lam_final": 1e-7,
    "search.s_x": 64,
    "search.s_y": 32,
    "search.size_threshold": 20000,
    "search.topology": "star",
    "search.round_timeout_factor": 5.0,
    "search.grad_clip": 1.0,
    "dynamics.kappa": 3.0,
    "dynamics.beta": 2.0,
    "dynamics.rate_mode": "sampled",
    "dynamics.damping": 1.0,
    "dynamics.pure_gradient": False,
    "dynamics.val_decay": 0.9,
    "net.hidden": [16, 16],
    "morphisms.p_deepen": 0.25,
    "morphisms.p_widen": 0.25,
    "morphisms.p_add_skip": 0.2,
    "morphisms.p_narrow": 0.1,
    "morphisms.p_remove_layer": 0.1,
    "morphisms.p_remove_skip": 0.1,
    "constraints.max_layers": 8,
    "constraints.max_width": 64,
    "constraints.max_incoming": 3,
    "constraints.max_params": 20000,
    "pretrain.epochs": 20,
    "pretrain.lam_start": 0.5,
    "pretrain.lam_final": 1e-7,
    "final.budget": 300,
    "final.plateau_cycles": 3,
    "final.plateau_tol": 1e-4,
}

# key -> (a valid non-default value, the SearchConfig field it must set;
# "constraints.<f>" and "mix.<kind>" name entries of those fields).
SEARCH_KEYS = {
    "search.mode": ("nasagd", "mode"),
    "search.seed": (7, "seed"),
    "search.n_particles": (33, "n_particles"),
    "search.n_neigh": (5, "n_neigh"),
    "search.epochs_neigh": (9, "epochs_neigh"),
    "search.n_steps": (1.5, "n_steps"),
    "search.lam_start": (0.07, "lam_start"),
    "search.lam_final": (1e-5, "lam_final"),
    "search.s_x": (48, "s_x"),
    "search.s_y": (24, "s_y"),
    "search.size_threshold": (12345, "size_threshold"),
    "search.topology": ("complete", "topology"),
    "search.round_timeout_factor": (2.5, "round_timeout_factor"),
    "search.grad_clip": (0.5, "grad_clip"),
    "dynamics.kappa": (1.5, "kappa"),
    "dynamics.beta": (1.25, "beta"),
    "dynamics.rate_mode": ("expected", "rate_mode"),
    "dynamics.damping": (0.5, "damping"),
    "dynamics.pure_gradient": (True, "pure_gradient"),
    "dynamics.val_decay": (0.75, "val_decay"),
    "net.hidden": ([4, 6], "hidden"),
    "morphisms.p_deepen": (0.3, "mix.deepen"),
    "morphisms.p_widen": (0.3, "mix.widen"),
    "morphisms.p_add_skip": (0.3, "mix.add_skip"),
    "morphisms.p_narrow": (0.3, "mix.narrow"),
    "morphisms.p_remove_layer": (0.3, "mix.remove_layer"),
    "morphisms.p_remove_skip": (0.3, "mix.remove_skip"),
    "constraints.max_layers": (5, "constraints.max_layers"),
    "constraints.max_width": (32, "constraints.max_width"),
    "constraints.max_incoming": (2, "constraints.max_incoming"),
    "constraints.max_params": (5000, "constraints.max_params"),
    "pretrain.epochs": (3, "pretrain_epochs"),
    "pretrain.lam_start": (0.25, "pretrain_lam_start"),
    "pretrain.lam_final": (1e-6, "pretrain_lam_final"),
    "final.budget": (40, "final_budget"),
    "final.plateau_cycles": (2, "plateau_cycles"),
    "final.plateau_tol": (1e-3, "plateau_tol"),
}


def test_defaults_table():
    cfg = sf.default_config()
    assert len(cfg) == 48
    assert cfg == DEFAULT_TABLE
    assert {k: type(v) for k, v in cfg.items()} == {
        k: type(v) for k, v in DEFAULT_TABLE.items()
    }
    assert {k for k in cfg if not k.startswith("data.")} == set(SEARCH_KEYS)


def _search_fields(sc):
    flat = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc)}
    for name, value in dataclasses.asdict(flat.pop("constraints")).items():
        flat[f"constraints.{name}"] = value
    for kind, p in flat.pop("mix").items():
        flat[f"mix.{kind}"] = p
    return flat


@pytest.mark.parametrize("key", list(SEARCH_KEYS))
def test_key_sets_only_its_field(key):
    value, target = SEARCH_KEYS[key]
    # pin n_steps so that changing the mode does not also change it
    base = {"search.n_steps": 1.0}
    before = _search_fields(sf.build_search_config(sf.normalize(base)))
    after = _search_fields(sf.build_search_config(sf.normalize({**base, key: value})))
    assert {name for name in before if before[name] != after[name]} == {target}
    assert after[target] == (tuple(value) if isinstance(value, list) else value)


def test_unknown_key_named_in_error():
    with pytest.raises(BadConfig) as err:
        sf.normalize({"search.n_niegh": 4})
    assert "search.n_niegh" in str(err.value)


# Keys of dynamics variants that no longer exist, each with the value that
# once selected its variant.
REMOVED_DYNAMICS_KEYS = {
    "dynamics.gamma": 0.3,
    "dynamics.friction_potential": True,
    "dynamics.speed_penalty": True,
    "dynamics.restart_literal": True,
    "dynamics.flow": "toward_low_phi",
    "dynamics.entropy": "log",
}


@pytest.mark.parametrize("key", list(REMOVED_DYNAMICS_KEYS))
def test_removed_dynamics_key_named_in_error(key):
    with pytest.raises(BadConfig) as err:
        sf.normalize({key: REMOVED_DYNAMICS_KEYS[key]})
    assert str(err.value) == f"unknown config key: {key}"


def test_values_are_type_checked():
    with pytest.raises(BadConfig):
        sf.normalize({"search.n_neigh": "eight"})
    with pytest.raises(BadConfig):
        sf.normalize({"search.n_neigh": "4"})
    with pytest.raises(BadConfig):
        sf.normalize({"dynamics.kappa": True})
    with pytest.raises(BadConfig):
        sf.normalize({"net.hidden": []})


def test_numeric_coercions():
    cfg = sf.normalize({"dynamics.kappa": 2, "search.n_particles": 50.0})
    assert cfg["dynamics.kappa"] == 2.0
    assert isinstance(cfg["dynamics.kappa"], float)
    assert cfg["search.n_particles"] == 50
    assert isinstance(cfg["search.n_particles"], int)
    with pytest.raises(BadConfig):
        sf.normalize({"search.n_particles": 50.5})


def test_build_search_config_maps_fields():
    cfg = sf.normalize({"search.mode": "nasagd", "dynamics.beta": 1.5,
                        "net.hidden": [4, 4]})
    sc = sf.build_search_config(cfg)
    assert sc.mode == "nasagd"
    assert sc.n_steps == 2.54
    assert sc.beta == 1.5
    assert sc.hidden == (4, 4)


# A valid value for every DynamicsParams field but mode, different from the
# SearchConfig default and from the DynamicsParams default.
DYNAMICS_OVERRIDES = {"kappa": 7.0, "beta": 3.5, "rate_mode": sf.EXPECTED}


def test_search_config_dynamics_carries_every_field():
    fields = {f.name for f in dataclasses.fields(sf.DynamicsParams)}
    assert set(DYNAMICS_OVERRIDES) == fields - {"mode"}
    defaults = sf.SearchConfig()
    for name, value in DYNAMICS_OVERRIDES.items():
        assert getattr(defaults, name) != value
        assert getattr(sf.DynamicsParams(), name) != value
        dyn = sf.SearchConfig(**{name: value}).dynamics()
        assert getattr(dyn, name) == value
    assert sf.SearchConfig(mode="nasagd").dynamics().mode == sf.SECOND_ORDER
    assert sf.SearchConfig(mode="nasgd").dynamics().mode == sf.FIRST_ORDER
    assert sf.SearchConfig(mode="hillclimb").dynamics().mode == sf.FIRST_ORDER


def test_build_search_config_rejects_bad_values():
    with pytest.raises(BadConfig):
        sf.build_search_config(sf.normalize({"search.n_particles": 0}))
    with pytest.raises(BadConfig):
        sf.build_search_config(sf.normalize({"search.mode": "warp"}))


def test_data_seed_falls_back_to_run_seed():
    cfg = sf.normalize({"search.seed": 11, "data.kind": "blobs", "data.n": 40})
    ds1 = sf.build_dataset(cfg)
    ds2 = sf.build_dataset(sf.normalize({"search.seed": 11, "data.kind": "blobs",
                                         "data.n": 40, "data.seed": 11}))
    import numpy as np
    assert np.array_equal(ds1.features, ds2.features)


def test_missing_data_kind():
    with pytest.raises(BadConfig) as err:
        sf.build_dataset(sf.normalize({}))
    assert "data.kind" in str(err.value)


def test_load_config_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"search.mode": "nasgd", "dynamics.kappa": 1.5}))
    raw = sf.load_config(str(p))
    assert raw == {"search.mode": "nasgd", "dynamics.kappa": 1.5}


def test_load_config_missing(tmp_path):
    with pytest.raises(MissingFile):
        sf.load_config(str(tmp_path / "nope.json"))


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(BadConfig):
        sf.load_config(str(p))


def test_load_config_integer_past_the_digit_limit(tmp_path):
    # json.load raises a plain ValueError, not JSONDecodeError, for it.
    p = tmp_path / "c.json"
    p.write_text('{"dynamics.kappa": 1' + "0" * 5000 + "}")
    with pytest.raises(BadConfig, match="not valid JSON"):
        sf.load_config(str(p))


def test_manifest_accepted_as_config(tmp_path):
    # a run manifest wraps the original config under "config"
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps({"config": {"search.mode": "nasagd"},
                             "seed": 3, "version": "x"}))
    raw = sf.load_config(str(p))
    assert raw == {"search.mode": "nasagd"}


# Every value normalize accepts for a key of each type tag, in the JSON types
# a config file can hold: integral floats for integer keys, integers for
# float keys, NaN, infinities, signed zeros and None where allowed.
_ints = st.one_of(st.integers(), st.integers(-2**53, 2**53).map(float))
_floats = st.one_of(st.floats(), st.integers(-2**63, 2**63))
TAG_VALUES = {
    "bool": st.booleans(),
    "int": _ints,
    "opt_int": st.one_of(st.none(), _ints),
    "float": _floats,
    "opt_float": st.one_of(st.none(), _floats),
    "str": st.one_of(st.none(), st.text()),
    "int_list": st.lists(st.integers(), min_size=1, max_size=4),
}


@st.composite
def overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(sf.SCHEMA)), unique=True))
    return {key: draw(TAG_VALUES[sf.SCHEMA[key][0]]) for key in keys}


def typed(table):
    """Each value with its type and repr, so that 0.0 and -0.0, 1 and 1.0,
    and NaN and NaN compare as a replay would see them."""
    return {key: (type(value), repr(value)) for key, value in table.items()}


@settings(max_examples=200, deadline=None)
@given(overrides())
def test_manifest_replays_the_normalized_table(tmp_path_factory, raw):
    table = sf.normalize(raw)
    path = str(tmp_path_factory.mktemp("manifest") / "manifest.json")
    sf.write_manifest(path, table, seed=0, version="0.1.0", outputs=[],
                      started="2020-01-01T00:00:00Z")
    replayed = sf.normalize(sf.load_config(path))
    assert list(replayed) == list(table)
    assert typed(replayed) == typed(table)
